/* Dense matrix-vector product with a guarded accumulator initialisation.
   Params: N M. */
float a[N][M];
float b[M];
float c[N];

for (int i = 0; i < N; i++)
  for (int j = 0; j < M; j++) {
    if (j == 0)
      c[i] = 0.0;
    c[i] += a[i][j] * b[j];
  }
