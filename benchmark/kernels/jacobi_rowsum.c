/* A 2-D Jacobi-like sweep followed by a row reduction: two sibling nests
   linked by a producer-consumer dependence. Params: N. */
float grid[N][N];
float next[N][N];
float rowsum[N];

for (int i = 1; i < N - 1; i++)
  for (int j = 1; j < N - 1; j++)
    next[i][j] = 0.25 * (grid[i - 1][j] + grid[i + 1][j]
                         + grid[i][j - 1] + grid[i][j + 1]);

for (int i2 = 0; i2 < N; i2++)
  for (int j2 = 0; j2 < N; j2++) {
    if (j2 == 0)
      rowsum[i2] = 0.0;
    rowsum[i2] += next[i2][j2];
  }
