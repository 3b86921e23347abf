//! [`CoordinateDelta`]: incremental rebuild of a [`ComponentAnalysis`] when
//! only one tile coordinate `K_j` moves — the frozen-level context
//! ([`FrozenCore`] arenas or rank-reduced tables), the SoA lane walk and the
//! scalar tile walk it falls back to.

use super::{
    bind_tile_array, combine_structure, ArrayMeta, ComponentAnalysis, CoreAnalysis, LastRange,
};
use crate::component::{BufferAttr, Component, DimContrib};
use crate::tiling::{Infeasible, Solution, TilePlan, SEGMENT_CAP};
use crate::timing::ExecModel;
use prem_polyhedral::{div_ceil, Interval};
use std::collections::HashMap;

/// Crossover between a [`CoordinateDelta`]'s two frozen representations:
/// contexts whose dense (product-space) storage stays within this many
/// interval cells (~16 MB of `Interval`s) keep the flat per-core arena;
/// larger contexts switch to the rank-reduced per-level factorization
/// instead of declining construction.
const DELTA_CELL_CAP: usize = 1 << 20;

/// Upper bound on the rank-reduced representation's cells
/// (`Σ_{i≠j} M_i × contributions`). `Σ M_i` is bounded by
/// `depth × SEGMENT_CAP`, so only an absurd contribution count can reach
/// this; hitting it declines construction and the caller falls back to full
/// builds.
const RANK_CELL_CAP: usize = 1 << 24;

/// Candidates interleaved per sweep of the frozen SoA columns in
/// [`CoordinateDelta::rebuild_scan`]'s lane walk.
pub const SOA_LANES: usize = 8;

/// Per-lane cap on the moving-coordinate term columns (`M_j × slots`);
/// candidates past it take the scalar walk (a `K_j = 1` scan point of a
/// huge level would otherwise dominate lane setup).
const SOA_JTERM_CAP: usize = 1 << 20;

/// Depth cap for the `2^depth` extent-class execution-time table; deeper
/// nests (not reachable from the paper kernels) take the scalar walk.
const SOA_DEPTH_CAP: usize = 12;

/// Outcome counters of one [`CoordinateDelta::rebuild_scan`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanStats {
    /// Candidates rejected by the replayed [`SEGMENT_CAP`] check.
    pub truncations: usize,
    /// Tile walks of the scan were served by the SoA lane walk.
    pub soa: bool,
    /// (Part of) the scan took the scalar tile walk instead — rank-reduced
    /// representation, over-cap term table, or an over-deep nest.
    pub fallback: bool,
}

/// One candidate of a lane-group walk: its level-`j` geometry snapshot, the
/// per-`t_j` moving-coordinate term columns, the extent-class execution
/// table, and the per-candidate walk outputs (exactly the scalar walk's
/// accumulators).
struct SoaLane {
    idx: usize,
    solution: Solution,
    m_j: i64,
    jbox: Vec<Option<Interval>>,
    add_lo: Vec<i64>,
    add_hi: Vec<i64>,
    kill: Vec<u8>,
    ext_int: Vec<i64>,
    ext_bnd: Vec<i64>,
    exec_tab: Vec<f64>,
    cores_out: Vec<CoreAnalysis>,
    bounding_boxes: Vec<Vec<i64>>,
    total_bytes: i64,
    total_ops: usize,
    last: Vec<LastRange>,
    err: Option<Infeasible>,
}

/// Per-array precompute of a [`CoordinateDelta`].
#[derive(Debug, Clone)]
struct ArrayPlan {
    /// True when no contribution depends on level `j` — neither through a
    /// counter coefficient nor through a guard that can clip at `j` (a guard
    /// covering the whole `[0, N_j)` counter range never excludes a tile).
    /// For such arrays the finished per-dimension hulls are stored.
    j_free: bool,
    /// Cells stored per reduced tile: `ndims` when `j_free`, else the total
    /// contribution count across dimensions.
    stride: usize,
    /// Per dimension, per contribution: `(coeff_j, guard_j)` — the only
    /// level-`j` facts needed to finish a partial sum.
    contrib_j: Vec<Vec<(i64, Interval)>>,
}

/// Frozen-level state for one core: the reduced tile box over the levels
/// other than `j`, plus — in the dense representation — a flat
/// structure-of-arrays arena of per-reduced-tile cells, split into parallel
/// `lo`/`hi` columns so the scan walk streams two homogeneous `i64` columns
/// instead of pointer-hopping interval structs. The arena is tile-major:
/// reduced tile `ri`'s block starts at `ri * per_tile_cells`, and array
/// `ai`'s slice sits at offset `cell_off[ai]` within the block (finished
/// hulls for `j_free` arrays, per-contribution partial sums otherwise; an
/// empty interval — `lo > hi` — marks a partial excluded by a frozen-level
/// guard; genuine partials are never empty since `base` is nonempty and
/// every added term is nonempty). In the rank-reduced representation the
/// columns stay empty; `box_red` is kept either way for the
/// foreign-component debug check.
#[derive(Debug, Clone)]
struct FrozenCore {
    box_red: Vec<Interval>,
    arena_lo: Vec<i64>,
    arena_hi: Vec<i64>,
}

impl FrozenCore {
    /// The interval stored at `cell`.
    #[inline]
    fn cell(&self, cell: usize) -> Interval {
        Interval::new(self.arena_lo[cell], self.arena_hi[cell])
    }
}

/// Rank-reduced frozen storage: the partial canonical-range sum
/// `base + Σ_{i≠j} clip(range_i, guard_i) · coeff_i` is separable per level,
/// so instead of materializing the product space over reduced tiles we keep,
/// per frozen level `i`, one global table of per-contribution terms indexed
/// by the tile index `t ∈ [0, M_i)`: `Interval::empty()` when the guard
/// clips the tile's range away (the whole partial is empty), the exact
/// additive identity `[0, 0]` when the contribution ignores the level
/// (`coeff = 0` — adding it is a no-op even under saturating arithmetic),
/// else `clip(range, guard) · coeff`. Reassembling a tile's partial replays
/// [`partial_bounds`]' ascending-level fold over these terms — bitwise
/// identical — at `O(depth)` per contribution, with `Σ M_i` instead of
/// `Π M_i` storage (the outer-product structure is never materialized).
#[derive(Debug, Clone)]
struct RankTables {
    /// `terms[i][t * n_slots + s]` for frozen level `i`; `terms[j]` is empty.
    terms: Vec<Vec<Interval>>,
    /// `DimContrib::base` per slot, in traversal order (arrays → dims →
    /// contributions).
    bases: Vec<Interval>,
    /// Total contribution count across arrays and dimensions.
    n_slots: usize,
}

/// Which frozen-level representation a [`CoordinateDelta`] carries.
#[derive(Debug, Clone)]
enum FrozenRepr {
    /// Per-core flat arenas over the reduced product space (small contexts).
    Dense,
    /// Per-level factorized tables (contexts past [`DELTA_CELL_CAP`]).
    Rank(RankTables),
}

/// Reusable scratch for the scalar per-candidate tile walk of
/// [`CoordinateDelta::rebuild_scan`] — one set of buffers per delta, reused
/// across every candidate of a scan.
#[derive(Debug, Default)]
struct WalkScratch {
    scratch_range: Vec<Interval>,
    extents: Vec<i64>,
    last: Vec<LastRange>,
    red_stride: Vec<usize>,
    tile: Vec<i64>,
}

/// Partial [`DimContrib::bounds`] sum over every level except `j`:
/// `base + Σ_{i≠j} clip(range_i, guard_i) · coeff_i`, or empty when a frozen
/// level's guard excludes the tile. `ranges[j]` is ignored. The `i64`
/// interval arithmetic is exact (absent saturation), so finishing the sum
/// with level `j`'s term later is reassociation-free — bitwise identical to
/// the full left-to-right fold.
fn partial_bounds(c: &DimContrib, ranges: &[Interval], j: usize) -> Interval {
    let mut acc = c.base;
    for (i, ((coef, r), g)) in c
        .comp_coeffs
        .iter()
        .zip(ranges)
        .zip(&c.level_bounds)
        .enumerate()
    {
        if i == j {
            continue;
        }
        let clipped = r.intersect(g);
        if clipped.is_empty() {
            return Interval::empty();
        }
        if *coef != 0 {
            acc = acc + clipped.scale(*coef);
        }
    }
    acc
}

/// Incremental single-coordinate rebuild context (thesis §5.3.1: canonical
/// ranges factor per level). Built once per coordinate-descent scan of level
/// `j`, it freezes everything that does not depend on `K_j`: per-core
/// reduced tile enumerations over the other levels with per-array partial
/// canonical-range sums, plus a memo of tile execution times keyed by
/// extent vector. [`CoordinateDelta::rebuild_scan`] then replays the *exact*
/// per-core, per-tile traversal of [`ComponentAnalysis::build`] — same
/// odometer order, same change detection, same first-error — finishing each
/// partial sum with level `j`'s term only. Results are bitwise equal to a
/// from-scratch build (enforced by a sampled debug assert in the evaluator
/// and the `incremental_differential` suite).
#[derive(Debug)]
pub struct CoordinateDelta {
    j: usize,
    k: Vec<i64>,
    r: Vec<i64>,
    cores: usize,
    rw_deps: Vec<bool>,
    metas: Vec<ArrayMeta>,
    plans: Vec<ArrayPlan>,
    reduced: Vec<Option<FrozenCore>>,
    repr: FrozenRepr,
    /// Cells per reduced tile in the dense arenas (`Σ` array strides).
    per_tile_cells: usize,
    /// Arena offset of each array's cell slice within a reduced tile block.
    cell_off: Vec<usize>,
    /// `M_i` per level for the frozen levels (entry `j` is the base
    /// solution's and is ignored — lanes carry their own `M_j`).
    frozen_m: Vec<i64>,
    /// Interior / boundary tile extents per frozen level: every tile
    /// `t < M_i - 1` of level `i` has extent `K_i` and only the last tile
    /// can clip, so two classes per level describe every reachable extent
    /// vector (entry `j` is 0; lanes fill theirs from their own ranges).
    ext_int: Vec<i64>,
    ext_bnd: Vec<i64>,
    /// Moving-coordinate term slots: total contribution count across the
    /// non-`j_free` arrays (the only ones needing a finishing term), and
    /// each array's offset into a lane's per-`t_j` term row.
    jslots: usize,
    jterm_off: Vec<usize>,
    exec_memo: HashMap<Vec<i64>, f64>,
    walk: WalkScratch,
}

impl CoordinateDelta {
    /// Precomputes the frozen-level structure for varying coordinate `j` of
    /// `base` (the value of `base.k[j]` itself is irrelevant). Contexts whose
    /// dense product-space storage fits [`DELTA_CELL_CAP`] get per-core flat
    /// arenas; larger ones get the rank-reduced per-level tables, so even
    /// the largest kernels stay incremental. Contexts that are infeasible
    /// independently of `K_j` — the thread shape, or the frozen levels'
    /// segment product alone past [`SEGMENT_CAP`] — get a storage-free
    /// context whose rebuilds replay the exact per-candidate error in
    /// O(depth). Returns `None` only when even the factorized tables would
    /// exceed [`RANK_CELL_CAP`] — callers fall back to full builds.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range or `base` does not match the
    /// component's depth.
    pub fn new(
        component: &Component,
        base: &Solution,
        j: usize,
        cores: usize,
    ) -> Option<CoordinateDelta> {
        let depth = component.depth();
        assert!(j < depth, "coordinate out of range");
        assert_eq!(base.k.len(), depth);
        assert_eq!(base.r.len(), depth);

        let threads: i64 = base.r.iter().product();
        if threads > cores as i64 {
            // K-invariant infeasibility: the thread shape rejects every
            // candidate before any tile geometry is consulted. A storage-free
            // context serves the whole scan — `rebuild_scan`'s
            // `TilePlan::build` replays the exact first error per candidate
            // in O(depth), and the tile walk is unreachable.
            return Some(CoordinateDelta::barren(base, j, cores));
        }
        let m: Vec<i64> = component
            .levels
            .iter()
            .zip(&base.k)
            .map(|(lv, &k)| div_ceil(lv.count, k))
            .collect();
        let z: Vec<i64> = m
            .iter()
            .zip(&base.r)
            .map(|(&m, &r)| div_ceil(m, r))
            .collect();
        let mut red_total = 1u64;
        for (i, &mi) in m.iter().enumerate() {
            if i != j {
                red_total = red_total.saturating_mul(mi as u64);
            }
        }
        if red_total > SEGMENT_CAP {
            // Also K-invariant: the frozen levels' segment product alone
            // exceeds [`SEGMENT_CAP`], so `M_j ≥ 1` makes every candidate a
            // `TooManySegments` rejection. Same storage-free context — and
            // crucially, skipping the frozen enumeration here avoids
            // materializing level ranges for contexts whose tile counts are
            // themselves past the cap.
            return Some(CoordinateDelta::barren(base, j, cores));
        }

        // Counter ranges of the frozen levels (same formula as
        // `TilePlan::build`; level `j`'s ranges depend on `K_j` and are read
        // from the fresh plan at rebuild time).
        let level_ranges: Vec<Vec<Interval>> = component
            .levels
            .iter()
            .enumerate()
            .map(|(i, lv)| {
                if i == j {
                    Vec::new()
                } else {
                    let k = base.k[i];
                    // `t * k < count` always fits, but `(t + 1) * k` can
                    // exceed `i64::MAX` on the last tile of a huge-extent
                    // level; the saturated product still clamps to
                    // `count - 1`, which is the exact value. Mirrors
                    // `TilePlan::build` so rebuilds stay bitwise-equal.
                    (0..m[i])
                        .map(|t| {
                            let hi = t
                                .saturating_add(1)
                                .saturating_mul(k)
                                .saturating_sub(1)
                                .min(lv.count - 1);
                            Interval::new(t * k, hi)
                        })
                        .collect()
                }
            })
            .collect();

        let rw_deps: Vec<bool> = component
            .arrays
            .iter()
            .map(|a| crate::segments::array_has_rw_deps(component, a.array))
            .collect();
        let metas: Vec<ArrayMeta> = component
            .arrays
            .iter()
            .map(|a| ArrayMeta {
                ndims: a.dims.len(),
                elem_bytes: a.elem_bytes,
                loads: matches!(a.attr, BufferAttr::Ro | BufferAttr::Rw),
                unloads: matches!(a.attr, BufferAttr::Wo | BufferAttr::Rw),
            })
            .collect();

        let count_j = component.levels[j].count;
        let plans: Vec<ArrayPlan> = component
            .arrays
            .iter()
            .map(|arr| {
                let contrib_j: Vec<Vec<(i64, Interval)>> = arr
                    .contribs
                    .iter()
                    .map(|dim| {
                        dim.iter()
                            .map(|c| (c.comp_coeffs[j], c.level_bounds[j]))
                            .collect()
                    })
                    .collect();
                let j_free = contrib_j
                    .iter()
                    .flatten()
                    .all(|&(coef, g)| coef == 0 && g.lo <= 0 && g.hi >= count_j - 1);
                let stride = if j_free {
                    arr.contribs.len()
                } else {
                    contrib_j.iter().map(Vec::len).sum()
                };
                ArrayPlan {
                    j_free,
                    stride,
                    contrib_j,
                }
            })
            .collect();

        // Radix weights for the thread id, as in `TilePlan::build`.
        let mut weight = vec![1i64; depth];
        for i in (0..depth.saturating_sub(1)).rev() {
            weight[i] = weight[i + 1] * base.r[i + 1];
        }

        let per_tile_cells: usize = plans.iter().map(|p| p.stride).sum();
        let cell_off: Vec<usize> = plans
            .iter()
            .scan(0usize, |acc, p| {
                let off = *acc;
                *acc += p.stride;
                Some(off)
            })
            .collect();
        let jslots: usize = plans.iter().filter(|p| !p.j_free).map(|p| p.stride).sum();
        let jterm_off: Vec<usize> = plans
            .iter()
            .scan(0usize, |acc, p| {
                let off = *acc;
                if !p.j_free {
                    *acc += p.stride;
                }
                Some(off)
            })
            .collect();
        let ext_int: Vec<i64> = level_ranges
            .iter()
            .map(|lr| lr.first().map_or(0, |iv| iv.len() as i64))
            .collect();
        let ext_bnd: Vec<i64> = level_ranges
            .iter()
            .map(|lr| lr.last().map_or(0, |iv| iv.len() as i64))
            .collect();

        // First pass: per-core reduced boxes and the dense cell total. The
        // core boxes depend only on (m_i, z_i, r_i), so for i ≠ j they match
        // the boxes of every plan the rebuild will construct. The cell
        // accounting is checked: a synthetic huge-extent level can push
        // `n_red * per_tile_cells` past `usize`, and a wrap would sneak an
        // oversized context into the dense arena — overflow simply means the
        // dense representation is out of reach, like exceeding the cap.
        let mut dense_cells: Option<usize> = Some(0);
        let mut boxes: Vec<Option<Vec<Interval>>> = Vec::with_capacity(cores);
        for core in 0..cores {
            let c = core as i64;
            if c >= threads {
                boxes.push(None);
                continue;
            }
            let mut box_red: Vec<Interval> = Vec::with_capacity(depth.saturating_sub(1));
            let mut empty = false;
            for i in 0..depth {
                if i == j {
                    continue;
                }
                let g = (c / weight[i]) % base.r[i];
                let lo = g * z[i];
                let hi = ((g + 1) * z[i] - 1).min(m[i] - 1);
                if lo > hi {
                    empty = true;
                    break;
                }
                box_red.push(Interval::new(lo, hi));
            }
            if empty {
                boxes.push(None);
                continue;
            }
            let tile_cells = box_red
                .iter()
                .try_fold(1usize, |acc, iv| {
                    acc.checked_mul(usize::try_from(iv.len()).ok()?)
                })
                .and_then(|n| n.checked_mul(per_tile_cells));
            dense_cells = match (dense_cells, tile_cells) {
                (Some(total), Some(n)) => total.checked_add(n),
                _ => None,
            };
            boxes.push(Some(box_red));
        }

        let mut reduced: Vec<Option<FrozenCore>> = Vec::with_capacity(cores);
        let repr = if dense_cells.is_some_and(|c| c <= DELTA_CELL_CAP) {
            // Dense: materialize the reduced product space per core, column
            // by column (`lo`/`hi` SoA pair).
            let mut ranges: Vec<Interval> = vec![Interval::empty(); depth];
            for bx in boxes {
                let Some(box_red) = bx else {
                    reduced.push(None);
                    continue;
                };
                let n_red: usize = box_red.iter().map(|iv| iv.len() as usize).product();
                let mut arena_lo: Vec<i64> = Vec::with_capacity(n_red * per_tile_cells);
                let mut arena_hi: Vec<i64> = Vec::with_capacity(n_red * per_tile_cells);
                let mut push = |iv: Interval| {
                    arena_lo.push(iv.lo);
                    arena_hi.push(iv.hi);
                };
                let mut tile_red: Vec<i64> = box_red.iter().map(|iv| iv.lo).collect();
                'tiles: loop {
                    let mut t = 0usize;
                    for i in 0..depth {
                        if i == j {
                            continue;
                        }
                        ranges[i] = level_ranges[i][tile_red[t] as usize];
                        t += 1;
                    }
                    for (arr, p) in component.arrays.iter().zip(&plans) {
                        if p.j_free {
                            for dim in &arr.contribs {
                                let mut hull = Interval::empty();
                                for cb in dim {
                                    hull = hull.hull(&partial_bounds(cb, &ranges, j));
                                }
                                push(hull);
                            }
                        } else {
                            for dim in &arr.contribs {
                                for cb in dim {
                                    push(partial_bounds(cb, &ranges, j));
                                }
                            }
                        }
                    }
                    let mut t = box_red.len();
                    loop {
                        if t == 0 {
                            break 'tiles;
                        }
                        t -= 1;
                        tile_red[t] += 1;
                        if tile_red[t] <= box_red[t].hi {
                            break;
                        }
                        tile_red[t] = box_red[t].lo;
                    }
                }
                reduced.push(Some(FrozenCore {
                    box_red,
                    arena_lo,
                    arena_hi,
                }));
            }
            FrozenRepr::Dense
        } else {
            // Rank-reduced: one factorized table per frozen level, shared by
            // every core — `Σ M_i × slots` cells instead of `Π` box lengths.
            let n_slots: usize = component
                .arrays
                .iter()
                .map(|a| a.contribs.iter().map(Vec::len).sum::<usize>())
                .sum();
            let mut rank_cells = 0usize;
            for (i, lr) in level_ranges.iter().enumerate() {
                if i != j {
                    rank_cells = rank_cells.checked_add(lr.len().checked_mul(n_slots)?)?;
                }
            }
            if rank_cells > RANK_CELL_CAP {
                return None;
            }
            let mut terms: Vec<Vec<Interval>> = vec![Vec::new(); depth];
            for (i, lr) in level_ranges.iter().enumerate() {
                if i == j {
                    continue;
                }
                let table = &mut terms[i];
                table.reserve_exact(lr.len() * n_slots);
                for rng in lr {
                    for arr in &component.arrays {
                        for dim in &arr.contribs {
                            for cb in dim {
                                let clipped = rng.intersect(&cb.level_bounds[i]);
                                table.push(if clipped.is_empty() {
                                    Interval::empty()
                                } else if cb.comp_coeffs[i] != 0 {
                                    clipped.scale(cb.comp_coeffs[i])
                                } else {
                                    // Exact additive identity: adding [0, 0]
                                    // is a no-op even under saturation, so
                                    // the reassembled fold stays bitwise
                                    // equal to `partial_bounds`' coeff ≠ 0
                                    // shortcut.
                                    Interval::new(0, 0)
                                });
                            }
                        }
                    }
                }
            }
            let bases: Vec<Interval> = component
                .arrays
                .iter()
                .flat_map(|a| a.contribs.iter().flatten().map(|c| c.base))
                .collect();
            for bx in boxes {
                reduced.push(bx.map(|box_red| FrozenCore {
                    box_red,
                    arena_lo: Vec::new(),
                    arena_hi: Vec::new(),
                }));
            }
            FrozenRepr::Rank(RankTables {
                terms,
                bases,
                n_slots,
            })
        };

        Some(CoordinateDelta {
            j,
            k: base.k.clone(),
            r: base.r.clone(),
            cores,
            rw_deps,
            metas,
            plans,
            reduced,
            repr,
            per_tile_cells,
            cell_off,
            frozen_m: m,
            ext_int,
            ext_bnd,
            jslots,
            jterm_off,
            exec_memo: HashMap::new(),
            walk: WalkScratch::default(),
        })
    }

    /// A storage-free context for scans every candidate of which is
    /// infeasible for `K_j`-invariant reasons. `rebuild_scan` reaches
    /// `TilePlan::build`, whose thread/segment gates reproduce the
    /// exact first error per candidate; the tile walk is unreachable, so no
    /// frozen representation is materialized.
    fn barren(base: &Solution, j: usize, cores: usize) -> CoordinateDelta {
        CoordinateDelta {
            j,
            k: base.k.clone(),
            r: base.r.clone(),
            cores,
            rw_deps: Vec::new(),
            metas: Vec::new(),
            plans: Vec::new(),
            reduced: Vec::new(),
            repr: FrozenRepr::Dense,
            per_tile_cells: 0,
            cell_off: Vec::new(),
            frozen_m: Vec::new(),
            ext_int: Vec::new(),
            ext_bnd: Vec::new(),
            jslots: 0,
            jterm_off: Vec::new(),
            exec_memo: HashMap::new(),
            walk: WalkScratch::default(),
        }
    }

    /// The varied coordinate.
    pub fn coordinate(&self) -> usize {
        self.j
    }

    /// True when `solution` differs from the base solution at most in
    /// coordinate `j` — the solutions [`CoordinateDelta::rebuild_scan`]
    /// serves.
    pub fn matches(&self, solution: &Solution) -> bool {
        solution.r == self.r
            && solution.k.len() == self.k.len()
            && solution
                .k
                .iter()
                .zip(&self.k)
                .enumerate()
                .all(|(i, (a, b))| i == self.j || a == b)
    }

    /// Rebuilds the analysis (without retained ranges) for the base solution
    /// with coordinate `j` set to every `k_j` in `candidates`, in one pass; a
    /// single rebuild is a scan of one. Must be called with the component
    /// the delta was built from. The `K_j`-invariant parts of the tile plan
    /// are hoisted out of the loop (the first feasible candidate's plan is
    /// re-targeted with [`TilePlan::set_coordinate`] instead of rebuilt).
    /// Each element of the result, including which [`Infeasible`] is
    /// reported first, is bitwise identical to the from-scratch
    /// `ComponentAnalysis::build(component, &solution, cores, exec_model,
    /// false)`.
    ///
    /// Feasible candidates are walked [`SOA_LANES`] at a time: the frozen
    /// SoA columns are swept once per lane group, each lane finishing its
    /// partial sums from a per-candidate column of precomputed
    /// moving-coordinate terms and reading tile execution times from a
    /// per-candidate extent-class table instead of hashing extent vectors.
    /// Per-lane visit order, change detection and first-error replay are
    /// exactly the from-scratch build's. The lane walk needs the dense
    /// frozen representation, a `2^depth` extent-class table and an
    /// `M_j × slots` term column per lane; which walk serves a candidate is
    /// decided from the input alone — rank-reduced contexts (past
    /// `DELTA_CELL_CAP`), nests deeper than `SOA_DEPTH_CAP` and candidates
    /// whose term column exceeds `SOA_JTERM_CAP` take the scalar tile walk
    /// ([`ScanStats::fallback`]), with identical results.
    ///
    /// With candidates sorted ascending, `M_j` — and so the total segment
    /// count — is non-increasing, which makes [`SEGMENT_CAP`] violations a
    /// prefix of the scan: those candidates are answered by the replayed
    /// `O(depth)` feasibility checks without walking a single tile.
    /// [`ScanStats::truncations`] counts them.
    ///
    /// # Panics
    ///
    /// Panics (debug) if the frozen-level boxes disagree with the fresh tile
    /// plan — i.e. the delta is used with a foreign component.
    pub fn rebuild_scan(
        &mut self,
        component: &Component,
        candidates: &[i64],
        exec_model: &ExecModel,
    ) -> (Vec<Result<ComponentAnalysis, Infeasible>>, ScanStats) {
        let mut stats = ScanStats::default();
        // Barren contexts never reach a tile walk (every candidate errors in
        // the feasibility replay), so they are neither SoA scans nor
        // fallbacks; rank-reduced contexts decline the lane walk.
        let barren = self.reduced.is_empty();
        let lanes_ok =
            !barren && matches!(self.repr, FrozenRepr::Dense) && component.depth() <= SOA_DEPTH_CAP;
        stats.fallback = !barren && !lanes_ok;

        let mut out: Vec<Option<Result<ComponentAnalysis, Infeasible>>> =
            (0..candidates.len()).map(|_| None).collect();
        let mut lanes: Vec<SoaLane> = Vec::new();
        let mut plan: Option<TilePlan> = None;
        for (idx, &kj) in candidates.iter().enumerate() {
            let mut solution = Solution {
                k: self.k.clone(),
                r: self.r.clone(),
            };
            solution.k[self.j] = kj;
            let prepared = match &mut plan {
                Some(p) => p.set_coordinate(component, &solution, self.j),
                None => match TilePlan::build(component, &solution, self.cores) {
                    Ok(p) => {
                        plan = Some(p);
                        Ok(())
                    }
                    Err(e) => Err(e),
                },
            };
            if let Err(e) = prepared {
                if matches!(e, Infeasible::TooManySegments { .. }) {
                    stats.truncations += 1;
                }
                out[idx] = Some(Err(e));
                continue;
            }
            let p = plan.as_ref().expect("plan prepared for feasible candidate");
            if let Err(e) = crate::segments::check_persistence(component, p) {
                out[idx] = Some(Err(e));
                continue;
            }
            if lanes_ok {
                let jterm_cells = (p.m[self.j] as usize).saturating_mul(self.jslots);
                if jterm_cells <= SOA_JTERM_CAP {
                    lanes.push(self.make_lane(component, p, solution, idx));
                    if lanes.len() == SOA_LANES {
                        self.walk_lanes(component, &mut lanes, &mut out, exec_model);
                        stats.soa = true;
                    }
                    continue;
                }
                stats.fallback = true;
            }
            out[idx] = Some(self.rebuild_with(component, p, solution, exec_model));
        }
        if !lanes.is_empty() {
            self.walk_lanes(component, &mut lanes, &mut out, exec_model);
            stats.soa = true;
        }
        (
            out.into_iter()
                .map(|o| o.expect("every candidate resolved"))
                .collect(),
            stats,
        )
    }

    /// Snapshots one feasible candidate into a lane: its solution and level-
    /// `j` tile geometry from the freshly re-targeted plan, the per-`t_j`
    /// moving-coordinate term columns (`clip(range_j, guard_j) · coeff_j`
    /// as `lo`/`hi`/`kill` columns — the column-wise fill pass), and an
    /// extent-class execution-time table over interior/boundary extents per
    /// level (lazily completed during the walk; every reachable extent
    /// vector maps to one of `2^depth` classes because only a level's last
    /// tile can clip).
    fn make_lane(
        &self,
        component: &Component,
        plan: &TilePlan,
        solution: Solution,
        idx: usize,
    ) -> SoaLane {
        let j = self.j;
        let m_j = plan.m[j];
        let ranges_j = plan.level_ranges[j].clone();
        let jbox: Vec<Option<Interval>> = plan
            .core_boxes
            .iter()
            .map(|bx| bx.as_ref().map(|b| b[j]))
            .collect();

        let n = m_j as usize * self.jslots;
        let mut add_lo: Vec<i64> = Vec::with_capacity(n);
        let mut add_hi: Vec<i64> = Vec::with_capacity(n);
        let mut kill: Vec<u8> = Vec::with_capacity(n);
        for rj in &ranges_j {
            for p in &self.plans {
                if p.j_free {
                    continue;
                }
                for dim in &p.contrib_j {
                    for &(coef, guard) in dim {
                        let clipped = rj.intersect(&guard);
                        if clipped.is_empty() {
                            kill.push(1);
                            add_lo.push(0);
                            add_hi.push(0);
                        } else if coef != 0 {
                            let t = clipped.scale(coef);
                            kill.push(0);
                            add_lo.push(t.lo);
                            add_hi.push(t.hi);
                        } else {
                            // Exact additive identity — `x.saturating_add(0)`
                            // is `x`, matching the scalar walk's coeff == 0
                            // shortcut bit for bit.
                            kill.push(0);
                            add_lo.push(0);
                            add_hi.push(0);
                        }
                    }
                }
            }
        }

        let depth = component.depth();
        let mut ext_int = self.ext_int.clone();
        let mut ext_bnd = self.ext_bnd.clone();
        ext_int[j] = ranges_j[0].len() as i64;
        ext_bnd[j] = ranges_j[m_j as usize - 1].len() as i64;

        SoaLane {
            idx,
            solution,
            m_j,
            jbox,
            add_lo,
            add_hi,
            kill,
            ext_int,
            ext_bnd,
            exec_tab: vec![f64::NAN; 1usize << depth],
            cores_out: Vec::with_capacity(self.cores),
            bounding_boxes: component
                .arrays
                .iter()
                .map(|a| vec![0; a.dims.len()])
                .collect(),
            total_bytes: 0,
            total_ops: 0,
            last: vec![LastRange::default(); component.arrays.len()],
            err: None,
        }
    }

    /// The lane-group walk: one sweep of the frozen SoA columns serves every
    /// lane. The loop nests as (reduced prefix `a` = levels < `j`, lane,
    /// `t_j`, reduced suffix `b` = levels > `j`); for each lane the visit
    /// order `(a, t_j, b)` is exactly its full-depth odometer order, so
    /// per-lane sequential state — change detection, segment numbering,
    /// first error — evolves identically to the scalar walk while the
    /// `a`-stripe of the frozen columns stays cache-resident across all
    /// lanes and `t_j` values. Feasibility of each partial is folded
    /// branchlessly: empties are mapped to the `(MAX, MIN)` sentinel, which
    /// makes the hull a plain `min`/`max` with identical semantics to the
    /// empty-aware scalar hull. Drains `lanes` into `out`.
    fn walk_lanes(
        &self,
        component: &Component,
        lanes: &mut Vec<SoaLane>,
        out: &mut [Option<Result<ComponentAnalysis, Infeasible>>],
        exec_model: &ExecModel,
    ) {
        let j = self.j;
        let depth = component.depth();
        let narr = component.arrays.len();
        let mut scratch: Vec<Interval> = Vec::new();
        let mut ext_scratch: Vec<i64> = vec![0; depth];
        let mut b_tile: Vec<i64> = Vec::new();
        let empty_core = |narr: usize| CoreAnalysis {
            nseg: 0,
            exec_ns: Vec::new(),
            swap_lists: vec![Vec::new(); narr],
            ranges: None,
        };

        for core in 0..self.cores {
            let Some(rc) = &self.reduced[core] else {
                // No frozen tiles on this core for any candidate: the full
                // box is `None` under every `K_j`.
                for lane in lanes.iter_mut().filter(|l| l.err.is_none()) {
                    debug_assert!(lane.jbox[core].is_none());
                    lane.cores_out.push(empty_core(narr));
                }
                continue;
            };
            let a_dims = &rc.box_red[..j];
            let b_dims = &rc.box_red[j..];
            let len_a: usize = a_dims.iter().map(|iv| iv.len() as usize).product();
            let len_b: usize = b_dims.iter().map(|iv| iv.len() as usize).product();

            let mut any_active = false;
            for lane in lanes.iter_mut().filter(|l| l.err.is_none()) {
                match lane.jbox[core] {
                    Some(jiv) => {
                        let nseg = len_a * jiv.len() as usize * len_b;
                        lane.cores_out.push(CoreAnalysis {
                            nseg,
                            exec_ns: Vec::with_capacity(nseg),
                            swap_lists: vec![Vec::new(); narr],
                            ranges: None,
                        });
                        for l in &mut lane.last {
                            l.bound = false;
                        }
                        any_active = true;
                    }
                    None => lane.cores_out.push(empty_core(narr)),
                }
            }
            if !any_active {
                continue;
            }

            // Odometer over the reduced prefix (levels < j).
            let mut a_tile: Vec<i64> = a_dims.iter().map(|iv| iv.lo).collect();
            let mut a_idx = 0usize;
            loop {
                let mut a_mask = 0usize;
                for (i, &t) in a_tile.iter().enumerate() {
                    a_mask |= usize::from(t == self.frozen_m[i] - 1) << i;
                }
                let a_base = a_idx * len_b * self.per_tile_cells;

                for lane in lanes.iter_mut() {
                    if lane.err.is_some() {
                        continue;
                    }
                    let Some(jiv) = lane.jbox[core] else {
                        continue;
                    };
                    // Split the lane's fields into independent borrows so the
                    // active `CoreAnalysis` resolves once per (core, lane)
                    // instead of once per tile.
                    let m_j = lane.m_j;
                    let SoaLane {
                        kill,
                        add_lo,
                        add_hi,
                        ext_int,
                        ext_bnd,
                        exec_tab,
                        cores_out,
                        bounding_boxes,
                        total_bytes,
                        total_ops,
                        last,
                        err,
                        ..
                    } = lane;
                    let ca = cores_out.last_mut().expect("core pushed");
                    'tj: for tj in jiv.lo..=jiv.hi {
                        let jbit = usize::from(tj == m_j - 1) << j;
                        let jrow = tj as usize * self.jslots;
                        // Odometer over the reduced suffix (levels > j).
                        b_tile.clear();
                        b_tile.extend(b_dims.iter().map(|iv| iv.lo));
                        let mut b_mask = 0usize;
                        for (t, &v) in b_tile.iter().enumerate() {
                            b_mask |= usize::from(v == self.frozen_m[j + 1 + t] - 1) << (j + 1 + t);
                        }
                        let mut b_idx = 0usize;
                        loop {
                            let block = a_base + b_idx * self.per_tile_cells;
                            let s0 = ca.exec_ns.len();
                            let mut failed: Option<Infeasible> = None;
                            for (ai, (arr, p)) in
                                component.arrays.iter().zip(&self.plans).enumerate()
                            {
                                let cells = block + self.cell_off[ai];
                                scratch.clear();
                                if p.j_free {
                                    scratch.extend((0..p.stride).map(|c| rc.cell(cells + c)));
                                } else {
                                    let mut off = cells;
                                    let mut slot = jrow + self.jterm_off[ai];
                                    for dim in &p.contrib_j {
                                        let nd = dim.len();
                                        // Fixed-length slice zips: the bounds
                                        // checks hoist out and the fold stays
                                        // branchless select + min/max.
                                        let pl = &rc.arena_lo[off..off + nd];
                                        let ph = &rc.arena_hi[off..off + nd];
                                        let kl = &kill[slot..slot + nd];
                                        let al = &add_lo[slot..slot + nd];
                                        let ah = &add_hi[slot..slot + nd];
                                        let mut hlo = i64::MAX;
                                        let mut hhi = i64::MIN;
                                        for c in 0..nd {
                                            let dead = (pl[c] > ph[c]) | (kl[c] != 0);
                                            let blo = if dead {
                                                i64::MAX
                                            } else {
                                                pl[c].saturating_add(al[c])
                                            };
                                            let bhi = if dead {
                                                i64::MIN
                                            } else {
                                                ph[c].saturating_add(ah[c])
                                            };
                                            hlo = hlo.min(blo);
                                            hhi = hhi.max(bhi);
                                        }
                                        off += nd;
                                        slot += nd;
                                        scratch.push(Interval::new(hlo, hhi));
                                    }
                                }
                                if let Err(e) = bind_tile_array(
                                    arr,
                                    &self.metas[ai],
                                    self.rw_deps[ai],
                                    &scratch,
                                    s0,
                                    ca,
                                    ai,
                                    &mut last[ai],
                                    &mut bounding_boxes[ai],
                                    total_bytes,
                                    total_ops,
                                ) {
                                    failed = Some(e);
                                    break;
                                }
                            }
                            if let Some(e) = failed {
                                *err = Some(e);
                                break 'tj;
                            }
                            let mask = a_mask | jbit | b_mask;
                            let mut exec = exec_tab[mask];
                            if exec.is_nan() {
                                for (i, e) in ext_scratch.iter_mut().enumerate() {
                                    *e = if mask >> i & 1 == 1 {
                                        ext_bnd[i]
                                    } else {
                                        ext_int[i]
                                    };
                                }
                                exec = exec_model.tile_time_ns(&ext_scratch);
                                exec_tab[mask] = exec;
                            }
                            ca.exec_ns.push(exec);

                            b_idx += 1;
                            if b_idx == len_b {
                                break;
                            }
                            let mut t = b_dims.len();
                            loop {
                                t -= 1;
                                b_tile[t] += 1;
                                let lvl = j + 1 + t;
                                if b_tile[t] <= b_dims[t].hi {
                                    b_mask = (b_mask & !(1 << lvl))
                                        | usize::from(b_tile[t] == self.frozen_m[lvl] - 1) << lvl;
                                    break;
                                }
                                b_tile[t] = b_dims[t].lo;
                                b_mask = (b_mask & !(1 << lvl))
                                    | usize::from(b_tile[t] == self.frozen_m[lvl] - 1) << lvl;
                            }
                        }
                    }
                }

                a_idx += 1;
                if a_idx == len_a {
                    break;
                }
                let mut t = a_dims.len();
                loop {
                    t -= 1;
                    a_tile[t] += 1;
                    if a_tile[t] <= a_dims[t].hi {
                        break;
                    }
                    a_tile[t] = a_dims[t].lo;
                }
            }
        }

        for lane in lanes.drain(..) {
            out[lane.idx] = Some(match lane.err {
                Some(e) => Err(e),
                None => {
                    let mut spm_bytes_needed = 0i64;
                    for (arr, bb) in component.arrays.iter().zip(&lane.bounding_boxes) {
                        let bufs = if arr.privatized.is_some() { 3 } else { 2 };
                        spm_bytes_needed += bufs * arr.elem_bytes * bb.iter().product::<i64>();
                    }
                    let (combine_rounds, combine) =
                        combine_structure(component, &lane.solution, exec_model);
                    Ok(ComponentAnalysis {
                        solution: lane.solution,
                        cores: lane.cores_out,
                        bounding_boxes: lane.bounding_boxes,
                        spm_bytes_needed,
                        total_bytes: lane.total_bytes,
                        total_ops: lane.total_ops,
                        combine_rounds,
                        combine,
                        arrays: self.metas.clone(),
                    })
                }
            });
        }
    }

    /// The scalar per-candidate tile walk of
    /// [`CoordinateDelta::rebuild_scan`], taken when the lane walk cannot
    /// serve a candidate: replays the exact per-core,
    /// per-tile traversal of [`ComponentAnalysis::build`] — same odometer
    /// order, same change detection, same first-error — finishing each
    /// frozen partial sum with level `j`'s term only. `plan` must already
    /// have passed persistence.
    fn rebuild_with(
        &mut self,
        component: &Component,
        plan: &TilePlan,
        solution: Solution,
        exec_model: &ExecModel,
    ) -> Result<ComponentAnalysis, Infeasible> {
        let CoordinateDelta {
            j,
            cores,
            rw_deps,
            metas,
            plans,
            reduced,
            repr,
            per_tile_cells,
            cell_off,
            exec_memo,
            walk,
            ..
        } = self;
        let (j, cores, per_tile_cells) = (*j, *cores, *per_tile_cells);

        let narr = component.arrays.len();
        let depth = component.depth();
        let mut bounding_boxes: Vec<Vec<i64>> = component
            .arrays
            .iter()
            .map(|a| vec![0; a.dims.len()])
            .collect();
        let mut out_cores: Vec<CoreAnalysis> = Vec::with_capacity(cores);
        let mut total_bytes = 0i64;
        let mut total_ops = 0usize;
        walk.last.resize_with(narr, LastRange::default);

        for (core, red) in reduced.iter().enumerate() {
            let nseg = plan.core_nseg(core);
            let mut ca = CoreAnalysis {
                nseg,
                exec_ns: Vec::with_capacity(nseg),
                swap_lists: vec![Vec::new(); narr],
                ranges: None,
            };
            if nseg == 0 {
                out_cores.push(ca);
                continue;
            }
            let bx = plan.core_boxes[core].as_ref().expect("nseg > 0 has a box");
            let rc = red
                .as_ref()
                .expect("core with tiles under new k_j has tiles on frozen levels");
            // Row-major strides of the reduced enumeration, indexed by level
            // (used by the dense arena only; the loop doubles as the
            // foreign-component sanity check in both representations).
            walk.red_stride.clear();
            walk.red_stride.resize(depth, 0);
            {
                let mut acc = 1usize;
                let mut t = rc.box_red.len();
                for i in (0..depth).rev() {
                    if i == j {
                        continue;
                    }
                    t -= 1;
                    debug_assert_eq!(bx[i], rc.box_red[t], "delta used with foreign component");
                    walk.red_stride[i] = acc;
                    acc *= rc.box_red[t].len() as usize;
                }
            }

            for l in &mut walk.last {
                l.bound = false;
            }
            let mut s0 = 0usize;
            walk.tile.clear();
            walk.tile.extend(bx.iter().map(|iv| iv.lo));
            'tiles: loop {
                let rj = plan.level_ranges[j][walk.tile[j] as usize];
                match repr {
                    FrozenRepr::Dense => {
                        let mut ri = 0usize;
                        for (i, (&t, iv)) in walk.tile.iter().zip(bx).enumerate() {
                            if i != j {
                                ri += (t - iv.lo) as usize * walk.red_stride[i];
                            }
                        }
                        let block = ri * per_tile_cells;
                        for (ai, (arr, p)) in component.arrays.iter().zip(&*plans).enumerate() {
                            let cells = block + cell_off[ai];
                            walk.scratch_range.clear();
                            if p.j_free {
                                walk.scratch_range
                                    .extend((0..p.stride).map(|c| rc.cell(cells + c)));
                            } else {
                                let mut off = 0usize;
                                for dim in &p.contrib_j {
                                    let mut hull = Interval::empty();
                                    for &(coef, guard) in dim {
                                        let partial = rc.cell(cells + off);
                                        off += 1;
                                        let b = if partial.is_empty() {
                                            Interval::empty()
                                        } else {
                                            let clipped = rj.intersect(&guard);
                                            if clipped.is_empty() {
                                                Interval::empty()
                                            } else if coef != 0 {
                                                partial + clipped.scale(coef)
                                            } else {
                                                partial
                                            }
                                        };
                                        hull = hull.hull(&b);
                                    }
                                    walk.scratch_range.push(hull);
                                }
                            }
                            bind_tile_array(
                                arr,
                                &metas[ai],
                                rw_deps[ai],
                                &walk.scratch_range,
                                s0,
                                &mut ca,
                                ai,
                                &mut walk.last[ai],
                                &mut bounding_boxes[ai],
                                &mut total_bytes,
                                &mut total_ops,
                            )?;
                        }
                    }
                    FrozenRepr::Rank(rt) => {
                        // Reassemble each frozen partial from the per-level
                        // tables (ascending levels, like `partial_bounds`),
                        // then finish with level `j`'s term. `j_free` arrays
                        // take the same path: their `coeff_j` is 0 and their
                        // guard covers the whole counter range, so the
                        // finishing step is the identity and the hull equals
                        // the dense representation's precomputed one.
                        let mut slot = 0usize;
                        for (ai, (arr, p)) in component.arrays.iter().zip(&*plans).enumerate() {
                            walk.scratch_range.clear();
                            for dim in &p.contrib_j {
                                let mut hull = Interval::empty();
                                for &(coef, guard) in dim {
                                    let mut partial = rt.bases[slot];
                                    let mut excluded = false;
                                    for i in 0..depth {
                                        if i == j {
                                            continue;
                                        }
                                        let term =
                                            rt.terms[i][walk.tile[i] as usize * rt.n_slots + slot];
                                        if term.is_empty() {
                                            excluded = true;
                                            break;
                                        }
                                        partial = partial + term;
                                    }
                                    slot += 1;
                                    let b = if excluded {
                                        Interval::empty()
                                    } else {
                                        let clipped = rj.intersect(&guard);
                                        if clipped.is_empty() {
                                            Interval::empty()
                                        } else if coef != 0 {
                                            partial + clipped.scale(coef)
                                        } else {
                                            partial
                                        }
                                    };
                                    hull = hull.hull(&b);
                                }
                                walk.scratch_range.push(hull);
                            }
                            bind_tile_array(
                                arr,
                                &metas[ai],
                                rw_deps[ai],
                                &walk.scratch_range,
                                s0,
                                &mut ca,
                                ai,
                                &mut walk.last[ai],
                                &mut bounding_boxes[ai],
                                &mut total_bytes,
                                &mut total_ops,
                            )?;
                        }
                    }
                }
                walk.extents.clear();
                walk.extents.extend(
                    walk.tile
                        .iter()
                        .enumerate()
                        .map(|(i, &t)| plan.level_ranges[i][t as usize].len() as i64),
                );
                let exec = match exec_memo.get(walk.extents.as_slice()) {
                    Some(&v) => v,
                    None => {
                        let v = exec_model.tile_time_ns(&walk.extents);
                        exec_memo.insert(walk.extents.clone(), v);
                        v
                    }
                };
                ca.exec_ns.push(exec);
                s0 += 1;
                let mut t = depth;
                loop {
                    if t == 0 {
                        break 'tiles;
                    }
                    t -= 1;
                    walk.tile[t] += 1;
                    if walk.tile[t] <= bx[t].hi {
                        break;
                    }
                    walk.tile[t] = bx[t].lo;
                }
            }
            out_cores.push(ca);
        }

        let mut spm_bytes_needed = 0i64;
        for (arr, bb) in component.arrays.iter().zip(&bounding_boxes) {
            // Mirror of the full build: privatized accumulators keep a third
            // partial-merge buffer.
            let bufs = if arr.privatized.is_some() { 3 } else { 2 };
            spm_bytes_needed += bufs * arr.elem_bytes * bb.iter().product::<i64>();
        }
        let (combine_rounds, combine) = combine_structure(component, &solution, exec_model);

        Ok(ComponentAnalysis {
            solution,
            cores: out_cores,
            bounding_boxes,
            spm_bytes_needed,
            total_bytes,
            total_ops,
            combine_rounds,
            combine,
            arrays: metas.clone(),
        })
    }
}
