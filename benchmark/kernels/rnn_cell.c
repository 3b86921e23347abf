/* RNN forward pass (PolyBench-NN): a parallel input projection, then an
   in-place recurrent state update whose outer loop is not parallelisable.
   Params: NT NS NP. */
float tmp[NS];
float s[NS];
float U[NS][NP];
float W[NS][NS];
float inp_F[NT][NP];

for (int t = 0; t < NT; t++) {
  for (int s1 = 0; s1 < NS; s1++)
    for (int p = 0; p < NP; p++) {
      if (p == 0)
        tmp[s1] = 0.0;
      tmp[s1] += U[s1][p] * inp_F[t][p];
    }
  for (int s2 = 0; s2 < NS; s2++)
    for (int s3 = 0; s3 < NS; s3++) {
      if (s3 == 0)
        s[s2] = tmp[s2];
      s[s2] += W[s2][s3] * s[s3];
    }
}
