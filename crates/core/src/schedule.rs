//! Makespan evaluation of the parallel streaming PREM schedule (§3.5, §4.2).
//!
//! The schedule is a layered DAG: per-core execution phases chained
//! sequentially, memory batches gating the next execution phase, and all
//! non-empty batches serialized on the single DMA in round-robin core order
//! (Figure 3.4). [`evaluate`] computes the makespan with an `O(P·nseg)`
//! recurrence; [`build_dag`] materializes the equivalent explicit DAG whose
//! longest path must agree — used to validate the recurrence.

use crate::segments::ComponentSchedule;

/// Result of evaluating one component schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleResult {
    /// Makespan of one component execution in ns.
    pub makespan_ns: f64,
    /// Sum of all execution phases (tiled code, no API) in ns.
    pub exec_ns: f64,
    /// Sum of all API overheads charged to execution phases in ns.
    pub api_ns: f64,
    /// Sum of all memory-phase (DMA busy) time in ns.
    pub mem_ns: f64,
    /// Total bytes transferred.
    pub bytes: i64,
    /// Total number of DMA transfers.
    pub ops: usize,
    /// SPM bytes needed per core.
    pub spm_bytes: i64,
}

/// Evaluates the makespan of a component schedule via the streaming
/// recurrence.
pub fn evaluate(schedule: &ComponentSchedule) -> ScheduleResult {
    let cores = &schedule.cores;
    let ncores = cores.len();
    let max_nseg = cores.iter().map(|c| c.nseg()).max().unwrap_or(0);

    // exec_fin[i][s]: finish of segment s on core i; index 0 = init segment.
    let mut exec_fin: Vec<Vec<f64>> = cores
        .iter()
        .map(|c| {
            let mut v = vec![0.0; c.nseg() + 1];
            v[0] = c.init_api_ns;
            v
        })
        .collect();
    // mem_fin[i][j]: finish of batch j on core i (0 when empty/absent).
    let mut mem_fin: Vec<Vec<f64>> = cores.iter().map(|c| vec![0.0; c.nseg() + 2]).collect();

    let mut dma_free = 0.0f64;
    let mut makespan = 0.0f64;

    for j in 1..=max_nseg + 1 {
        // Round-robin DMA pass over batch level j.
        for i in 0..ncores {
            let nseg = cores[i].nseg();
            if j > nseg + 1 {
                continue;
            }
            let batch = &cores[i].batches[j];
            if batch.is_empty() {
                continue;
            }
            // Batches up to nseg run concurrently with segment j-1 and may
            // start once segment j-2 (or the init segment) has finished; the
            // final unload batch (j = nseg+1) waits for the last segment.
            let gate = if j == nseg + 1 {
                exec_fin[i][nseg]
            } else {
                exec_fin[i][j.saturating_sub(2)]
            };
            let start = dma_free.max(gate);
            let fin = start + batch.time_ns;
            dma_free = fin;
            mem_fin[i][j] = fin;
            makespan = makespan.max(fin);
        }
        // Execution phases of segment j.
        for (i, core) in cores.iter().enumerate() {
            if j > core.nseg() {
                continue;
            }
            let start = exec_fin[i][j - 1].max(mem_fin[i][j]);
            let fin = start + core.exec_ns[j - 1] + core.api_ns[j - 1];
            exec_fin[i][j] = fin;
            makespan = makespan.max(fin);
        }
    }

    let exec_ns: f64 = cores.iter().map(|c| c.exec_ns.iter().sum::<f64>()).sum();
    let api_ns: f64 = cores
        .iter()
        .map(|c| c.init_api_ns + c.api_ns.iter().sum::<f64>())
        .sum();
    let mem_ns: f64 = cores
        .iter()
        .map(|c| c.batches.iter().map(|b| b.time_ns).sum::<f64>())
        .sum();
    // Explicit combine phase (reduction privatization): a sequential suffix
    // after the streaming DAG drains, priced by the same helper the fast
    // tier uses. Guarded so schedules without privatized accumulators
    // (`combine_ns == 0.0`) evaluate bitwise identically to before.
    if schedule.combine_ns > 0.0 {
        makespan += schedule.combine_ns;
    }

    ScheduleResult {
        makespan_ns: makespan,
        exec_ns,
        api_ns,
        mem_ns,
        bytes: schedule.total_bytes,
        ops: schedule.total_ops,
        spm_bytes: schedule.spm_bytes_needed,
    }
}

/// A node of the explicit phase DAG.
#[derive(Debug, Clone, PartialEq)]
pub enum PhaseNode {
    /// Initialization segment of a core.
    Init {
        /// Core index.
        core: usize,
    },
    /// Execution phase of segment `seg` (1-based) on `core`.
    Exec {
        /// Core index.
        core: usize,
        /// Segment number.
        seg: usize,
    },
    /// Memory batch `batch` of `core`.
    Mem {
        /// Core index.
        core: usize,
        /// Batch number (gates execution of the same-numbered segment).
        batch: usize,
    },
    /// The explicit combine phase merging privatized reduction partials;
    /// runs after every other phase has finished.
    Combine,
}

/// Explicit DAG of program phases with node weights in ns.
#[derive(Debug, Clone, Default)]
pub struct PhaseDag {
    /// Nodes.
    pub nodes: Vec<PhaseNode>,
    /// Node weights (phase lengths) in ns.
    pub weights: Vec<f64>,
    /// Directed edges `from → to` (precedence constraints).
    pub edges: Vec<(usize, usize)>,
}

impl PhaseDag {
    /// Longest path through the DAG (sum of node weights along the critical
    /// path), computed by dynamic programming over a topological order.
    ///
    /// # Panics
    ///
    /// Panics if the graph contains a cycle.
    pub fn longest_path_ns(&self) -> f64 {
        let n = self.nodes.len();
        let mut indeg = vec![0usize; n];
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
        for &(a, b) in &self.edges {
            adj[a].push(b);
            indeg[b] += 1;
        }
        let mut stack: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut fin = vec![0.0f64; n];
        let mut seen = 0;
        let mut best = 0.0f64;
        while let Some(u) = stack.pop() {
            seen += 1;
            let f = fin[u] + self.weights[u];
            best = best.max(f);
            for &v in &adj[u] {
                if f > fin[v] {
                    fin[v] = f;
                }
                indeg[v] -= 1;
                if indeg[v] == 0 {
                    stack.push(v);
                }
            }
        }
        assert_eq!(seen, n, "phase DAG has a cycle");
        best
    }
}

/// Builds the explicit phase DAG of a component schedule.
///
/// The DAG encodes: per-core sequential execution, batch-gates-execution,
/// execution-releases-batch, and the DMA round-robin chain across all
/// non-empty batches.
pub fn build_dag(schedule: &ComponentSchedule) -> PhaseDag {
    let mut dag = PhaseDag::default();
    let cores = &schedule.cores;
    let ncores = cores.len();

    // Node ids.
    let mut init_id = vec![usize::MAX; ncores];
    let mut exec_id: Vec<Vec<usize>> = vec![Vec::new(); ncores];
    let mut mem_id: Vec<Vec<usize>> = vec![Vec::new(); ncores];

    for (i, core) in cores.iter().enumerate() {
        init_id[i] = dag.nodes.len();
        dag.nodes.push(PhaseNode::Init { core: i });
        dag.weights.push(core.init_api_ns);
        exec_id[i] = (1..=core.nseg())
            .map(|s| {
                let id = dag.nodes.len();
                dag.nodes.push(PhaseNode::Exec { core: i, seg: s });
                dag.weights.push(core.exec_ns[s - 1] + core.api_ns[s - 1]);
                id
            })
            .collect();
        mem_id[i] = (0..core.nseg() + 2)
            .map(|b| {
                let id = dag.nodes.len();
                dag.nodes.push(PhaseNode::Mem { core: i, batch: b });
                dag.weights.push(core.batches[b].time_ns);
                id
            })
            .collect();
    }

    for (i, core) in cores.iter().enumerate() {
        let nseg = core.nseg();
        for s in 1..=nseg {
            // Sequential execution.
            let prev = if s == 1 {
                init_id[i]
            } else {
                exec_id[i][s - 2]
            };
            dag.edges.push((prev, exec_id[i][s - 1]));
            // Batch s gates exec s.
            if !core.batches[s].is_empty() {
                dag.edges.push((mem_id[i][s], exec_id[i][s - 1]));
            }
        }
        for b in 1..nseg + 2 {
            if core.batches[b].is_empty() {
                continue;
            }
            // Batch b released by exec of segment b-2 (init for b <= 2); the
            // final unload batch waits for the last segment.
            let gate = if b == nseg + 1 && nseg > 0 {
                exec_id[i][nseg - 1]
            } else if b <= 2 {
                init_id[i]
            } else {
                exec_id[i][b - 3]
            };
            dag.edges.push((gate, mem_id[i][b]));
        }
    }

    // DMA round-robin chain over non-empty batches in (level, core) order.
    let max_b = cores.iter().map(|c| c.nseg() + 2).max().unwrap_or(0);
    let mut prev: Option<usize> = None;
    // `b` indexes the parallel `core.batches` / `mem_id` structures.
    #[allow(clippy::needless_range_loop)]
    for b in 1..max_b {
        for (i, core) in cores.iter().enumerate() {
            if b >= core.nseg() + 2 || core.batches[b].is_empty() {
                continue;
            }
            if let Some(p) = prev {
                dag.edges.push((p, mem_id[i][b]));
            }
            prev = Some(mem_id[i][b]);
        }
    }

    // Combine phase: a sequential suffix gated by every other phase, exactly
    // like the recurrence's `makespan += combine_ns`.
    if schedule.combine_ns > 0.0 {
        let id = dag.nodes.len();
        dag.nodes.push(PhaseNode::Combine);
        dag.weights.push(schedule.combine_ns);
        for from in 0..id {
            dag.edges.push((from, id));
        }
    }

    dag
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segments::{Batch, CorePlan, MemOp};
    use crate::tiling::Solution;
    use crate::timing::TransferShape;

    fn op(time_ns: f64) -> MemOp {
        MemOp {
            array_idx: 0,
            is_load: true,
            range: vec![prem_polyhedral::Interval::point(0)],
            swap_index: 0,
            shape: TransferShape {
                range: vec![1],
                array: vec![1],
                elem_bytes: 4,
            },
            time_ns,
        }
    }

    fn batch(time_ns: f64) -> Batch {
        Batch {
            ops: vec![op(time_ns)],
            time_ns,
            bytes: 4,
        }
    }

    fn core(nseg: usize, exec: f64, load: f64, unload: f64) -> CorePlan {
        let mut batches = vec![Batch::default(); nseg + 2];
        for b in batches.iter_mut().take(nseg + 1).skip(1) {
            *b = batch(load);
        }
        batches[nseg + 1] = batch(unload);
        CorePlan {
            nseg,
            exec_ns: vec![exec; nseg],
            api_ns: vec![0.0; nseg],
            init_api_ns: 0.0,
            batches,
        }
    }

    fn sched(cores: Vec<CorePlan>) -> ComponentSchedule {
        ComponentSchedule {
            solution: Solution {
                k: vec![1],
                r: vec![1],
            },
            cores,
            bounding_boxes: vec![],
            spm_bytes_needed: 0,
            total_bytes: 0,
            total_ops: 0,
            combine_ns: 0.0,
        }
    }

    #[test]
    fn section_4_1_makespan_formula() {
        // 3 cores × 4 segments, execution-bound: makespan = 3 loads + 4 exec
        // + 1 unload (the Figure 3.4 critical path).
        let ld = 10.0;
        let e = 100.0;
        let ul = 7.0;
        let cores = vec![core(4, e, ld, ul), core(4, e, ld, ul), core(4, e, ld, ul)];
        let s = sched(cores);
        let r = evaluate(&s);
        let expected = 3.0 * ld + 4.0 * e + ul;
        assert!(
            (r.makespan_ns - expected).abs() < 1e-9,
            "makespan {} vs expected {expected}",
            r.makespan_ns
        );
    }

    #[test]
    fn memory_bound_schedule_serializes_on_dma() {
        // Memory-bound: loads dominate; the DMA serializes 3 cores × 4 loads
        // plus final unloads.
        let ld = 100.0;
        let e = 1.0;
        let ul = 100.0;
        let cores = vec![core(4, e, ld, ul), core(4, e, ld, ul), core(4, e, ld, ul)];
        let r = evaluate(&sched(cores));
        // All 12 loads + 3 unloads serialized = 1500, plus trailing exec ~e.
        assert!(r.makespan_ns >= 1500.0, "makespan {}", r.makespan_ns);
        assert!(
            r.makespan_ns <= 1500.0 + 4.0 * e + 1.0,
            "makespan {}",
            r.makespan_ns
        );
    }

    #[test]
    fn dag_longest_path_matches_recurrence() {
        for (e, ld, ul) in [(100.0, 10.0, 5.0), (5.0, 50.0, 20.0), (25.0, 25.0, 25.0)] {
            let cores = vec![
                core(4, e, ld, ul),
                core(3, e * 1.5, ld, ul),
                core(5, e, ld * 0.5, ul),
            ];
            let s = sched(cores);
            let r = evaluate(&s);
            let dag = build_dag(&s);
            let lp = dag.longest_path_ns();
            assert!(
                (r.makespan_ns - lp).abs() < 1e-6,
                "recurrence {} vs DAG {lp} for ({e},{ld},{ul})",
                r.makespan_ns
            );
        }
    }

    #[test]
    fn empty_batches_do_not_serialize() {
        // One core with no transfers at all: makespan = sum of exec.
        let mut c = core(3, 10.0, 0.0, 0.0);
        for b in &mut c.batches {
            *b = Batch::default();
        }
        let r = evaluate(&sched(vec![c]));
        assert!((r.makespan_ns - 30.0).abs() < 1e-9);
    }

    #[test]
    fn api_overhead_counted_in_exec() {
        let mut c = core(2, 10.0, 1.0, 1.0);
        c.api_ns = vec![5.0, 5.0];
        c.init_api_ns = 3.0;
        let r = evaluate(&sched(vec![c]));
        assert!((r.api_ns - 13.0).abs() < 1e-9);
        // init(3) → batch1(1) → exec(15) → exec(15) → final unload(1)
        assert!((r.makespan_ns - (3.0 + 1.0 + 15.0 + 15.0 + 1.0)).abs() < 1e-9);
    }
}
