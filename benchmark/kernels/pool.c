/* Max pooling, WIN x WIN window with stride ST, as one perfect 6-deep nest
   with a guarded initialisation (PolyBench-NN MaxPool).
   Params: NN NC NP NQ WIN ST. */
float out[NN][NC][NP][NQ];
float inp[NN][NC][NP * ST + WIN - ST][NQ * ST + WIN - ST];

for (int n = 0; n < NN; n++)
  for (int c = 0; c < NC; c++)
    for (int p = 0; p < NP; p++)
      for (int q = 0; q < NQ; q++)
        for (int r = 0; r < WIN; r++)
          for (int s = 0; s < WIN; s++) {
            if (r == 0 && s == 0)
              out[n][c][p][q] = inp[n][c][p * ST][q * ST];
            out[n][c][p][q] = MAX(out[n][c][p][q], inp[n][c][p * ST + r][q * ST + s]);
          }
