//! Inputs shared by the integration suites.

use prem::frontend::parse_kernel;
use prem::ir::Program;

/// SplitMix64 — everything a suite draws is a function of the seed alone.
pub struct SplitMix(pub u64);

impl SplitMix {
    /// The next draw from `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) % n
    }

    /// The next draw from `s`.
    pub fn pick(&mut self, s: &[i64]) -> i64 {
        s[self.below(s.len() as u64) as usize]
    }
}

/// A chain of `nests` shallow nests over activations `a<l>[8][cols]`, each
/// reading the activation before it: dense layer + 1×2 max pooling, row sum +
/// centering, bias + ReLU, per-column affine — drawn by `seed`, widths from
/// {4, 8, 12}. Few shapes, many layers: most nests repeat an earlier one
/// under other loop, array and statement ids.
// Suites that only draw numbers include this module too.
#[allow(dead_code)]
pub fn chain(seed: u64, nests: usize) -> Program {
    parse_kernel("chain", &chain_source(seed, nests), &[]).expect("generated chain parses")
}

/// The C source [`chain`] parses.
#[allow(dead_code)]
pub fn chain_source(seed: u64, nests: usize) -> String {
    let mut rng = SplitMix(seed);
    let mut cols = 8;
    let mut decls = format!("float a0[8][{cols}];\n");
    let mut body = String::new();
    // `l` is the nest being written, `p` the nest whose activation it reads.
    let (mut l, mut p) = (1, 0);
    while l <= nests {
        let head = |l: usize, n: i64| {
            format!("for (int i{l} = 0; i{l} < 8; i{l}++) for (int j{l} = 0; j{l} < {n}; j{l}++)")
        };
        match rng.below(4) {
            0 if l < nests => {
                let wide = 2 * rng.pick(&[4, 8, 12]);
                decls += &format!("float w{l}[{cols}][{wide}]; float a{l}[8][{wide}];\n");
                body += &format!(
                    "{} for (int k{l} = 0; k{l} < {cols}; k{l}++) {{
                       if (k{l} == 0) a{l}[i{l}][j{l}] = 0.0;
                       a{l}[i{l}][j{l}] += a{p}[i{l}][k{l}] * w{l}[k{l}][j{l}]; }}\n",
                    head(l, wide)
                );
                (p, l, cols) = (l, l + 1, wide / 2);
                decls += &format!("float a{l}[8][{cols}];\n");
                body += &format!(
                    "{} for (int r{l} = 0; r{l} < 2; r{l}++) {{
                       if (r{l} == 0) a{l}[i{l}][j{l}] = a{p}[i{l}][2 * j{l}];
                       a{l}[i{l}][j{l}] = MAX(a{l}[i{l}][j{l}], a{p}[i{l}][2 * j{l} + r{l}]); }}\n",
                    head(l, cols)
                );
            }
            1 if l < nests => {
                let m = l;
                decls += &format!("float m{m}[8];\n");
                body += &format!(
                    "{} {{ if (j{l} == 0) m{m}[i{l}] = 0.0; m{m}[i{l}] += a{p}[i{l}][j{l}]; }}\n",
                    head(l, cols)
                );
                l += 1;
                decls += &format!("float a{l}[8][{cols}];\n");
                body += &format!(
                    "{} a{l}[i{l}][j{l}] = a{p}[i{l}][j{l}] - m{m}[i{l}] * 0.125;\n",
                    head(l, cols)
                );
            }
            2 => {
                decls += &format!("float b{l}[{cols}]; float a{l}[8][{cols}];\n");
                body += &format!(
                    "{} a{l}[i{l}][j{l}] = MAX(a{p}[i{l}][j{l}] + b{l}[j{l}], 0.0);\n",
                    head(l, cols)
                );
            }
            _ => {
                decls +=
                    &format!("float g{l}[{cols}]; float b{l}[{cols}]; float a{l}[8][{cols}];\n");
                body += &format!(
                    "{} a{l}[i{l}][j{l}] = a{p}[i{l}][j{l}] * g{l}[j{l}] + b{l}[j{l}];\n",
                    head(l, cols)
                );
            }
        }
        (p, l) = (l, l + 1);
    }
    format!("{decls}\n{body}")
}
