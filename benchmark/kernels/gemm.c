/* C = A * B, three-deep with the reduction innermost. Params: NI NJ NK. */
float A[NI][NK];
float B[NK][NJ];
float C[NI][NJ];

for (int i = 0; i < NI; i++)
  for (int j = 0; j < NJ; j++)
    for (int k = 0; k < NK; k++) {
      if (k == 0)
        C[i][j] = 0.0;
      C[i][j] += A[i][k] * B[k][j];
    }
