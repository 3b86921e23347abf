//! Timing models for execution and memory phases (§4.2).
//!
//! * Memory phases: DMA line overhead plus burst-granular bus time, computed
//!   from the canonical data element range's shape (`DataLineNum`,
//!   `DataLineSize`, `BurstTransfer`).
//! * Execution phases: the analytic per-tile model
//!   `Σ_j O_j·Π_{k≤j}K_k + W·Π_j K_j`, with parameters obtained either
//!   analytically or by constrained least-squares fitting of profiling
//!   samples (measured time must never exceed the estimate).

use crate::config::Platform;

/// Shape-level description of one canonical data element range used for
/// memory-phase timing: the per-dimension extents of the transferred box and
/// of the containing array.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TransferShape {
    /// Extent of the transferred box per dimension, outermost first.
    pub range: Vec<i64>,
    /// Extent of the containing array per dimension.
    pub array: Vec<i64>,
    /// Element size in bytes.
    pub elem_bytes: i64,
}

impl TransferShape {
    /// Index `α` of the first dimension such that the range spans the whole
    /// array from there inwards (1-based like the paper; `n+1` if none).
    pub fn alpha(&self) -> usize {
        alpha(&self.range, &self.array)
    }

    /// Number of contiguous data lines (`DataLineNum`, §4.2).
    pub fn data_line_num(&self) -> i64 {
        data_lines(&self.range, &self.array).0
    }

    /// Elements per data line (`DataLineSize`, §4.2):
    /// `Π_{j = max(1, α-1)}^{n} Shape(R̂)_j` (1-based indices).
    pub fn data_line_size(&self) -> i64 {
        data_lines(&self.range, &self.array).1
    }

    /// Total elements transferred.
    pub fn volume(&self) -> i64 {
        product(&self.range)
    }

    /// Total bytes transferred.
    pub fn bytes(&self) -> i64 {
        bytes(&self.range, self.elem_bytes)
    }
}

// The §4.2 line structure over slices of extents: the one definition behind
// `TransferShape` and the analysis tier's per-swap prices. Products are
// checked and answer `i64::MAX` on overflow; the values are exact wherever
// nothing overflows.

/// `Π e`, or `i64::MAX` when the product overflows.
fn product(e: &[i64]) -> i64 {
    e.iter()
        .try_fold(1i64, |acc, &x| acc.checked_mul(x))
        .unwrap_or(i64::MAX)
}

/// [`TransferShape::alpha`] of extents `range` in an array of extents
/// `array`.
fn alpha(range: &[i64], array: &[i64]) -> usize {
    let n = range.len();
    let mut alpha = n + 1;
    for d in (0..n).rev() {
        if range[d] == array[d] {
            alpha = d + 1;
        } else {
            break;
        }
    }
    alpha
}

/// `(DataLineNum, DataLineSize)` (§4.2) of extents `range` in an array of
/// extents `array`.
pub(crate) fn data_lines(range: &[i64], array: &[i64]) -> (i64, i64) {
    let alpha = alpha(range, array);
    let lines = if alpha <= 2 {
        1
    } else {
        product(&range[..alpha - 2]).max(1)
    };
    let line_elems = product(&range[alpha.saturating_sub(2)..]).max(1);
    (lines, line_elems)
}

/// Bytes of extents `range` at `elem_bytes` per element.
pub(crate) fn bytes(range: &[i64], elem_bytes: i64) -> i64 {
    product(range).checked_mul(elem_bytes).unwrap_or(i64::MAX)
}

/// Length in ns of one memory transfer: `T_DMA + T_BUS` (§4.2).
pub fn transfer_time_ns(shape: &TransferShape, platform: &Platform) -> f64 {
    let (lines, line_elems) = data_lines(&shape.range, &shape.array);
    transfer_time_from_lines(lines, line_elems, shape.elem_bytes, platform)
}

/// [`transfer_time_ns`] from precomputed line structure (`DataLineNum`,
/// `DataLineSize`, element size). The fast makespan tier stores these three
/// invariants per transfer instead of the full [`TransferShape`]; keeping a
/// single implementation guarantees both tiers produce bitwise-identical
/// times.
pub fn transfer_time_from_lines(
    lines: i64,
    line_elems: i64,
    elem_bytes: i64,
    platform: &Platform,
) -> f64 {
    let lines = lines as f64;
    let line_elems = line_elems as f64;
    let bursts = ((line_elems * elem_bytes as f64) / platform.granularity_bytes as f64).ceil();
    let t_dma = platform.dma_line_overhead_ns * lines;
    let t_bus = platform.bus_ns_per_burst() * bursts * lines;
    t_dma + t_bus
}

/// Parameters of the analytic execution-time model for one tilable component:
/// per-level iteration overheads `O_j` and innermost worst-case time `W`, all
/// in ns.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecModel {
    /// Per-level loop-iteration overhead, outermost first (`L` entries).
    pub o: Vec<f64>,
    /// Worst-case execution time of one innermost iteration (including any
    /// folded sub-loops).
    pub w: f64,
}

impl ExecModel {
    /// Estimated execution time of one tile with the given per-level extents
    /// `K` (actual clipped extents, outermost first):
    /// `Σ_j O_j·Π_{k≤j}K_k + W·Π_j K_j`.
    ///
    /// # Panics
    ///
    /// Panics if `extents.len()` differs from the number of levels.
    pub fn tile_time_ns(&self, extents: &[i64]) -> f64 {
        assert_eq!(extents.len(), self.o.len(), "extent arity mismatch");
        let mut t = 0.0;
        let mut prod = 1.0;
        for (o, &k) in self.o.iter().zip(extents) {
            prod *= k as f64;
            t += o * prod;
        }
        t + self.w * prod
    }
}

/// One profiling sample: per-level tile extents and the measured time in ns.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecSample {
    /// Tile extents, outermost first.
    pub extents: Vec<i64>,
    /// Measured execution time of the tile in ns.
    pub time_ns: f64,
}

/// Fits an [`ExecModel`] to profiling samples by least squares under the
/// paper's constraint that no measured value may exceed its estimate (§4.2).
///
/// The procedure solves ordinary least squares via normal equations, clamps
/// negative coefficients to zero (re-fitting the rest), and finally inflates
/// `W` by the minimal uniform amount that satisfies every
/// `measured <= estimated` constraint.
///
/// # Panics
///
/// Panics if `samples` is empty or has inconsistent extent arity.
pub fn fit_exec_model(samples: &[ExecSample]) -> ExecModel {
    assert!(!samples.is_empty(), "need at least one profiling sample");
    let levels = samples[0].extents.len();
    for s in samples {
        assert_eq!(s.extents.len(), levels, "inconsistent sample arity");
    }
    // Design matrix columns: an intercept (fitted only, folded into O_1
    // afterwards), then Π_{k<=j} K_k for j = 1..L-1, then the merged
    // (O_L + W) column — O_L and W share the regressor Π_all and are not
    // separately identifiable, so a single coefficient is fitted and split
    // by convention. The intercept lets the fit absorb fixed per-tile costs
    // instead of smearing them over the innermost work.
    let merged_cols = levels + 1; // intercept, O_1..O_{L-1}, (O_L + W)
    let design: Vec<Vec<f64>> = samples
        .iter()
        .map(|s| {
            let mut r = Vec::with_capacity(merged_cols);
            r.push(1.0);
            let mut prod = 1.0;
            for &k in &s.extents[..levels - 1] {
                prod *= k as f64;
                r.push(prod);
            }
            prod *= s.extents[levels - 1] as f64;
            r.push(prod);
            r
        })
        .collect();
    let y: Vec<f64> = samples.iter().map(|s| s.time_ns).collect();

    let mut active: Vec<bool> = vec![true; merged_cols];
    let mut coeffs = vec![0.0; merged_cols];
    // Iteratively clamp negative coefficients (small active-set loop).
    for _ in 0..merged_cols + 1 {
        coeffs = solve_least_squares(&design, &y, &active);
        let mut clamped = false;
        for (j, c) in coeffs.iter_mut().enumerate() {
            if active[j] && *c < 0.0 {
                active[j] = false;
                *c = 0.0;
                clamped = true;
            }
        }
        if !clamped {
            break;
        }
    }

    // Assemble: intercept folds into O_1 (K_1 >= 1 keeps the estimate an
    // upper bound of the intercept's contribution); the merged coefficient
    // goes to W by convention (the model value is split-invariant).
    let intercept = coeffs[0];
    let mut o: Vec<f64> = coeffs[1..levels].to_vec(); // O_1 .. O_{L-1}
    o.push(0.0); // O_L (merged into W's coefficient)
    o[0] += intercept;
    let w = coeffs[levels];

    let mut model = ExecModel { o, w };

    // Enforce measured <= estimated: residual violations (tiny once the
    // intercept absorbed the fixed costs) are covered by inflating W.
    let mut worst: f64 = 0.0;
    for s in samples {
        let est = model.tile_time_ns(&s.extents);
        if s.time_ns > est {
            let prod: f64 = s.extents.iter().map(|&k| k as f64).product();
            worst = worst.max((s.time_ns - est) / prod);
        }
    }
    model.w += worst;
    model
}

/// Solves min ‖Ax − y‖² over the active columns via normal equations with
/// Gaussian elimination; inactive columns get coefficient 0.
fn solve_least_squares(design: &[Vec<f64>], y: &[f64], active: &[bool]) -> Vec<f64> {
    let cols: Vec<usize> = (0..active.len()).filter(|&j| active[j]).collect();
    let n = cols.len();
    if n == 0 {
        return vec![0.0; active.len()];
    }
    // Normal equations: (AᵀA) x = Aᵀ y
    let mut m = vec![vec![0.0f64; n + 1]; n];
    for (r, row) in design.iter().enumerate() {
        for (i, &ci) in cols.iter().enumerate() {
            for (j, &cj) in cols.iter().enumerate() {
                m[i][j] += row[ci] * row[cj];
            }
            m[i][n] += row[ci] * y[r];
        }
    }
    // Gaussian elimination with partial pivoting; singular pivots get 0.
    let mut x = vec![0.0f64; n];
    let mut row_of_col = vec![usize::MAX; n];
    let mut used = vec![false; n];
    for col in 0..n {
        let mut piv = None;
        let mut best = 1e-9;
        for (r, u) in used.iter().enumerate() {
            if !u && m[r][col].abs() > best {
                best = m[r][col].abs();
                piv = Some(r);
            }
        }
        let Some(p) = piv else { continue };
        used[p] = true;
        row_of_col[col] = p;
        let scale = m[p][col];
        for v in m[p].iter_mut() {
            *v /= scale;
        }
        let prow = m[p].clone();
        for (r, row) in m.iter_mut().enumerate() {
            if r != p && row[col].abs() > 0.0 {
                let f = row[col];
                for (v, pv) in row.iter_mut().zip(&prow) {
                    *v -= f * pv;
                }
            }
        }
    }
    for col in 0..n {
        if row_of_col[col] != usize::MAX {
            x[col] = m[row_of_col[col]][n];
        }
    }
    let mut out = vec![0.0; active.len()];
    for (i, &c) in cols.iter().enumerate() {
        out[c] = x[i];
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alpha_and_lines_match_paper_examples() {
        // Shape(a) = <3,5>, range <2,5> → α = 2, one line of 10 elements.
        let s = TransferShape {
            range: vec![2, 5],
            array: vec![3, 5],
            elem_bytes: 4,
        };
        assert_eq!(s.alpha(), 2);
        assert_eq!(s.data_line_num(), 1);
        assert_eq!(s.data_line_size(), 10);

        // Shape(a') = <6,3,5>, range <4,2,5> → α = 3, 4 lines of 10.
        let s2 = TransferShape {
            range: vec![4, 2, 5],
            array: vec![6, 3, 5],
            elem_bytes: 4,
        };
        assert_eq!(s2.alpha(), 3);
        assert_eq!(s2.data_line_num(), 4);
        assert_eq!(s2.data_line_size(), 10);
    }

    #[test]
    fn alpha_when_no_dimension_full() {
        let s = TransferShape {
            range: vec![2, 3],
            array: vec![4, 5],
            elem_bytes: 4,
        };
        assert_eq!(s.alpha(), 3); // n + 1
        assert_eq!(s.data_line_num(), 2);
        assert_eq!(s.data_line_size(), 3);
    }

    #[test]
    fn full_array_is_single_line() {
        let s = TransferShape {
            range: vec![4, 5],
            array: vec![4, 5],
            elem_bytes: 4,
        };
        assert_eq!(s.alpha(), 1);
        assert_eq!(s.data_line_num(), 1);
        assert_eq!(s.data_line_size(), 20);
    }

    #[test]
    fn transfer_time_components() {
        let p = Platform::default(); // 40 ns/line, 4 ns/burst of 64 B
        let s = TransferShape {
            range: vec![2, 5],
            array: vec![3, 5],
            elem_bytes: 4,
        };
        // 1 line, 10 elements = 40 bytes → 1 burst.
        let t = transfer_time_ns(&s, &p);
        assert!((t - (40.0 + 4.0)).abs() < 1e-9, "t = {t}");
    }

    #[test]
    fn exec_model_formula() {
        let m = ExecModel {
            o: vec![2.0, 3.0],
            w: 5.0,
        };
        // K = (4, 10): 2*4 + 3*40 + 5*40 = 8 + 120 + 200 = 328
        assert!((m.tile_time_ns(&[4, 10]) - 328.0).abs() < 1e-9);
    }

    #[test]
    fn fit_recovers_exact_model() {
        let truth = ExecModel {
            o: vec![7.0, 2.0],
            w: 3.0,
        };
        let mut samples = Vec::new();
        for k1 in [1i64, 2, 5, 9, 16] {
            for k2 in [1i64, 3, 4, 11] {
                samples.push(ExecSample {
                    extents: vec![k1, k2],
                    time_ns: truth.tile_time_ns(&[k1, k2]),
                });
            }
        }
        let fit = fit_exec_model(&samples);
        for s in &samples {
            let est = fit.tile_time_ns(&s.extents);
            assert!(
                (est - s.time_ns).abs() < 1e-6 * s.time_ns.max(1.0),
                "extents {:?}: est {est} vs {}",
                s.extents,
                s.time_ns
            );
        }
    }

    #[test]
    fn fit_never_underestimates() {
        // Super-linear ground truth: the fit must upper-bound every sample.
        let mut samples = Vec::new();
        for k1 in [1i64, 4, 8, 16] {
            for k2 in [1i64, 2, 8, 32] {
                let n = (k1 * k2) as f64;
                samples.push(ExecSample {
                    extents: vec![k1, k2],
                    time_ns: 10.0 * n + 0.3 * n * (n).ln().max(0.0) + 25.0,
                });
            }
        }
        let fit = fit_exec_model(&samples);
        for s in &samples {
            assert!(
                fit.tile_time_ns(&s.extents) >= s.time_ns - 1e-6,
                "underestimated {:?}",
                s.extents
            );
        }
    }

    #[test]
    fn fit_single_level() {
        let samples: Vec<ExecSample> = [1i64, 2, 4, 8]
            .iter()
            .map(|&k| ExecSample {
                extents: vec![k],
                time_ns: 12.0 * k as f64,
            })
            .collect();
        let fit = fit_exec_model(&samples);
        assert!((fit.tile_time_ns(&[16]) - 192.0).abs() < 1e-6);
    }
}
