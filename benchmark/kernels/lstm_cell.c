/* LSTM forward pass (thesis Listing 3.1): per timestep an input projection,
   a recurrent projection for t > 0, then the cell and hidden-state updates.
   Params: NT NS NP. */
float i[NS], f[NS], o[NS], g[NS];
float U_i[NS][NP], U_f[NS][NP], U_o[NS][NP], U_g[NS][NP];
float W_i[NS][NS], W_f[NS][NS], W_o[NS][NS], W_g[NS][NS];
float inp_F[NT][NP];
float s_F[NT][NS];
float c_F[NT][NS];

for (int t = 0; t < NT; t++) {
  for (int s1_0 = 0; s1_0 < NS; s1_0++)
    for (int p = 0; p < NP; p++) {
      if (p == 0) {
        i[s1_0] = 0.0;
        f[s1_0] = 0.0;
        o[s1_0] = 0.0;
        g[s1_0] = 0.0;
      }
      i[s1_0] += U_i[s1_0][p] * inp_F[t][p];
      f[s1_0] += U_f[s1_0][p] * inp_F[t][p];
      o[s1_0] += U_o[s1_0][p] * inp_F[t][p];
      g[s1_0] += U_g[s1_0][p] * inp_F[t][p];
    }
  if (t > 0)
    for (int s1_1 = 0; s1_1 < NS; s1_1++)
      for (int s2 = 0; s2 < NS; s2++) {
        i[s1_1] += W_i[s1_1][s2] * s_F[t - 1][s2];
        f[s1_1] += W_f[s1_1][s2] * s_F[t - 1][s2];
        o[s1_1] += W_o[s1_1][s2] * s_F[t - 1][s2];
        g[s1_1] += W_g[s1_1][s2] * s_F[t - 1][s2];
      }
  if (t > 0)
    for (int b_0 = 0; b_0 < NS; b_0++)
      c_F[t][b_0] = c_F[t - 1][b_0] * f[b_0] + g[b_0] * i[b_0];
  for (int b_1 = 0; b_1 < NS; b_1++)
    s_F[t][b_1] = c_F[t][b_1] * o[b_1];
}
