/* dense_chain: layer snippets of the generated whole-network sources.

   The harness chains M of the nests below over 2-D activations a<L>[H][C]:
   every layer reads the previous layer's activation a@P and writes its own
   a@L, so consecutive nests are linked by producer-consumer dependences.
   Sections start at a `//# <kind> decl|body` line. Before parsing, the
   harness replaces @L (this nest's index), @P (the index of the nest whose
   activation it reads), @CI and @CO (input / output columns) textually and
   emits every decl section ahead of every body section. H stays a named
   parameter. Extents: H and C within 32..128.

   input   the network input a0[H][C0]
   gemm    dense layer over a batch of H rows (3-deep, guarded init): C -> C'
   relu    bias + ReLU, elementwise (2-deep)
   pool    1x2 max pooling with a window loop (3-deep, guarded init): C -> C/2
   affine  per-column scale and shift, elementwise (2-deep)
   rowsum  row reduction into a vector m<L>[H] (2-deep, guarded init)
   center  subtracts the row mean produced by the rowsum nest before it
           (2-deep, reads a@P and m@M where @M is the rowsum nest) */

//# input decl
float a0[H][@CO];

//# gemm decl
float w@L[@CI][@CO];
float a@L[H][@CO];
//# gemm body
for (int i@L = 0; i@L < H; i@L++)
  for (int j@L = 0; j@L < @CO; j@L++)
    for (int k@L = 0; k@L < @CI; k@L++) {
      if (k@L == 0)
        a@L[i@L][j@L] = 0.0;
      a@L[i@L][j@L] += a@P[i@L][k@L] * w@L[k@L][j@L];
    }

//# relu decl
float b@L[@CO];
float a@L[H][@CO];
//# relu body
for (int i@L = 0; i@L < H; i@L++)
  for (int j@L = 0; j@L < @CO; j@L++)
    a@L[i@L][j@L] = MAX(a@P[i@L][j@L] + b@L[j@L], 0.0);

//# pool decl
float a@L[H][@CO];
//# pool body
for (int i@L = 0; i@L < H; i@L++)
  for (int j@L = 0; j@L < @CO; j@L++)
    for (int r@L = 0; r@L < 2; r@L++) {
      if (r@L == 0)
        a@L[i@L][j@L] = a@P[i@L][2 * j@L];
      a@L[i@L][j@L] = MAX(a@L[i@L][j@L], a@P[i@L][2 * j@L + r@L]);
    }

//# affine decl
float g@L[@CO];
float b@L[@CO];
float a@L[H][@CO];
//# affine body
for (int i@L = 0; i@L < H; i@L++)
  for (int j@L = 0; j@L < @CO; j@L++)
    a@L[i@L][j@L] = a@P[i@L][j@L] * g@L[j@L] + b@L[j@L];

//# rowsum decl
float m@L[H];
//# rowsum body
for (int i@L = 0; i@L < H; i@L++)
  for (int j@L = 0; j@L < @CI; j@L++) {
    if (j@L == 0)
      m@L[i@L] = 0.0;
    m@L[i@L] += a@P[i@L][j@L];
  }

//# center decl
float a@L[H][@CO];
//# center body
for (int i@L = 0; i@L < H; i@L++)
  for (int j@L = 0; j@L < @CO; j@L++)
    a@L[i@L][j@L] = a@P[i@L][j@L] - m@M[i@L] * 0.0078125;
