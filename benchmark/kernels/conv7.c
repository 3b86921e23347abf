/* 7-deep 3x3-style convolution nest (PolyBench-NN CNN, thesis Listing 6.1).
   Params: NN NK NP NQ NC NR NS. */
float out_F[NN][NK][NP][NQ];
float W[NK][NC][NR][NS];
float inp_F[NN][NC][NP + NR - 1][NQ + NS - 1];

for (int n = 0; n < NN; n++)
  for (int k = 0; k < NK; k++)
    for (int p = 0; p < NP; p++)
      for (int q = 0; q < NQ; q++)
        for (int c = 0; c < NC; c++)
          for (int r = 0; r < NR; r++)
            for (int s = 0; s < NS; s++)
              out_F[n][k][p][q] += W[k][c][r][s]
                  * inp_F[n][c][p + NR - r - 1][q + NS - s - 1];
