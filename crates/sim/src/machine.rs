//! Timed discrete-event simulation of the PREM machine.
//!
//! The architectural model of §3.1/§6.1: `P` cores, per-core dual-partition
//! SPMs, one shared DMA serving cores round-robin, a burst-granular bus.
//! Unlike the analytic schedule recurrence in `prem-core` (which serializes
//! every batch in strict round-robin order, waiting for unreleased batches),
//! this simulator lets the DMA *skip* a core whose next batch is not yet
//! released and serve the next ready core — the arbitration a real
//! round-robin DMA controller performs. The paper reports its analytic model
//! stays within 5 % of gem5; the same bound is asserted against this
//! simulator in the integration tests.

use prem_core::segments::ComponentSchedule;

/// Kind of a trace phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhaseKind {
    /// Initialization segment.
    Init,
    /// Execution of segment `seg` (1-based).
    Exec {
        /// Segment number.
        seg: usize,
    },
    /// Memory batch `batch` (gates segment of the same number).
    Mem {
        /// Batch number.
        batch: usize,
    },
}

/// One phase occurrence in the simulated timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    /// Core the phase belongs to.
    pub core: usize,
    /// Phase kind.
    pub kind: PhaseKind,
    /// Start time in ns.
    pub start_ns: f64,
    /// End time in ns.
    pub end_ns: f64,
}

/// Result of a timed simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Simulated makespan in ns.
    pub makespan_ns: f64,
    /// Total DMA busy time in ns.
    pub dma_busy_ns: f64,
    /// Chronological phase trace.
    pub trace: Vec<TraceEvent>,
}

/// Simulates one component execution on the PREM machine.
pub fn simulate(schedule: &ComponentSchedule) -> SimReport {
    let cores = &schedule.cores;
    let ncores = cores.len();

    // exec_fin[i][s] (s = 0 is the init segment); None = not yet computed.
    let mut exec_fin: Vec<Vec<Option<f64>>> =
        cores.iter().map(|c| vec![None; c.nseg() + 1]).collect();
    // mem_fin[i][j]; empty batches complete at time 0.
    let mut mem_fin: Vec<Vec<Option<f64>>> = cores
        .iter()
        .map(|c| {
            c.batches
                .iter()
                .map(|b| if b.is_empty() { Some(0.0) } else { None })
                .collect()
        })
        .collect();
    // Per-core queue of pending (non-empty) batch indices.
    let mut queues: Vec<std::collections::VecDeque<usize>> = cores
        .iter()
        .map(|c| {
            (1..c.nseg() + 2)
                .filter(|&j| !c.batches[j].is_empty())
                .collect()
        })
        .collect();

    let mut trace = Vec::new();
    for (i, c) in cores.iter().enumerate() {
        exec_fin[i][0] = Some(c.init_api_ns);
        trace.push(TraceEvent {
            core: i,
            kind: PhaseKind::Init,
            start_ns: 0.0,
            end_ns: c.init_api_ns,
        });
    }

    let mut dma_free = 0.0f64;
    let mut dma_busy = 0.0f64;
    let mut rr = 0usize; // next core the round-robin pointer prefers

    loop {
        // Propagate execution completions as far as possible.
        let mut progressed = true;
        while progressed {
            progressed = false;
            for (i, c) in cores.iter().enumerate() {
                for s in 1..=c.nseg() {
                    if exec_fin[i][s].is_some() {
                        continue;
                    }
                    let (Some(prev), Some(mem)) = (exec_fin[i][s - 1], mem_fin[i][s]) else {
                        break;
                    };
                    let start = prev.max(mem);
                    let fin = start + c.exec_ns[s - 1] + c.api_ns[s - 1];
                    exec_fin[i][s] = Some(fin);
                    trace.push(TraceEvent {
                        core: i,
                        kind: PhaseKind::Exec { seg: s },
                        start_ns: start,
                        end_ns: fin,
                    });
                    progressed = true;
                }
            }
        }

        if queues.iter().all(|q| q.is_empty()) {
            break;
        }

        // Release time of each core's head batch (None if its gate has not
        // completed yet — cannot happen once propagation saturates, because
        // a head batch's gate only depends on already-served batches).
        let release = |i: usize, j: usize| -> Option<f64> {
            let nseg = cores[i].nseg();
            if j == nseg + 1 {
                exec_fin[i][nseg]
            } else {
                exec_fin[i][j.saturating_sub(2)]
            }
        };

        // Round-robin arbitration with skipping: starting at the pointer,
        // serve the first core whose head batch is released by `dma_free`;
        // if none, advance time to the earliest release and retry.
        let mut served = None;
        for off in 0..ncores {
            let i = (rr + off) % ncores;
            let Some(&j) = queues[i].front() else {
                continue;
            };
            if let Some(rel) = release(i, j) {
                if rel <= dma_free {
                    served = Some((i, j, dma_free));
                    break;
                }
            }
        }
        if served.is_none() {
            // Jump to the earliest known release.
            let mut earliest: Option<(f64, usize, usize)> = None;
            for (i, queue) in queues.iter().enumerate() {
                let Some(&j) = queue.front() else { continue };
                if let Some(rel) = release(i, j) {
                    if earliest.map(|(t, _, _)| rel < t).unwrap_or(true) {
                        earliest = Some((rel, i, j));
                    }
                }
            }
            let (rel, i, j) = earliest.expect("deadlock: no releasable batch");
            served = Some((i, j, rel.max(dma_free)));
        }
        let (i, j, start) = served.unwrap();
        let dur = cores[i].batches[j].time_ns;
        let fin = start + dur;
        queues[i].pop_front();
        mem_fin[i][j] = Some(fin);
        dma_free = fin;
        dma_busy += dur;
        rr = (i + 1) % ncores;
        trace.push(TraceEvent {
            core: i,
            kind: PhaseKind::Mem { batch: j },
            start_ns: start,
            end_ns: fin,
        });
    }

    let makespan = trace.iter().map(|e| e.end_ns).fold(0.0f64, f64::max);
    trace.sort_by(|a, b| a.start_ns.total_cmp(&b.start_ns));
    SimReport {
        makespan_ns: makespan,
        dma_busy_ns: dma_busy,
        trace,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prem_core::{
        build_schedule, evaluate, AnalyticCost, Component, CostProvider, LoopTree, Platform,
        Solution,
    };
    use prem_kernels::LstmConfig;

    fn lstm_schedule(bus_gb: f64) -> (ComponentSchedule, f64) {
        let program = LstmConfig {
            nt: 4,
            ns: 650,
            np: 700,
        }
        .build();
        let tree = LoopTree::build(&program).unwrap();
        let t = &tree.roots[0];
        let s1 = &t.children[0];
        let p = &s1.children[0];
        let comp = Component::extract(&tree, &program, &[s1, p]);
        let cost = AnalyticCost::new(&program);
        let model = cost.exec_model(&comp);
        let platform = Platform::default()
            .with_cores(3)
            .with_spm_bytes(2 << 20)
            .with_bus_gbytes(bus_gb);
        let sol = Solution {
            k: vec![109, 350],
            r: vec![3, 1],
        };
        let sched = build_schedule(&comp, &sol, &platform, &model).unwrap();
        let predicted = evaluate(&sched).makespan_ns;
        (sched, predicted)
    }

    #[test]
    fn simulation_close_to_analytic_model() {
        // §6.1: the analytic model stays within 5 % of the simulator.
        for bus in [16.0, 1.0, 1.0 / 16.0] {
            let (sched, predicted) = lstm_schedule(bus);
            let sim = simulate(&sched);
            let err = (predicted - sim.makespan_ns).abs() / sim.makespan_ns;
            assert!(
                err < 0.05,
                "bus {bus}: predicted {predicted} vs simulated {} (err {err})",
                sim.makespan_ns
            );
        }
    }

    #[test]
    fn skipping_dma_never_slower_than_inorder() {
        for bus in [16.0, 0.25, 1.0 / 16.0] {
            let (sched, predicted) = lstm_schedule(bus);
            let sim = simulate(&sched);
            assert!(
                sim.makespan_ns <= predicted * (1.0 + 1e-9),
                "bus {bus}: sim {} > predicted {predicted}",
                sim.makespan_ns
            );
        }
    }

    #[test]
    fn trace_is_consistent() {
        let (sched, _) = lstm_schedule(1.0);
        let sim = simulate(&sched);
        // Every core's exec phases are sequential and non-overlapping.
        for core in 0..sched.cores.len() {
            let mut last_end = 0.0f64;
            for e in sim
                .trace
                .iter()
                .filter(|e| e.core == core && matches!(e.kind, PhaseKind::Exec { .. }))
            {
                assert!(e.start_ns >= last_end - 1e-9);
                assert!(e.end_ns >= e.start_ns);
                last_end = e.end_ns;
            }
        }
        // DMA phases never overlap.
        let mut mems: Vec<&TraceEvent> = sim
            .trace
            .iter()
            .filter(|e| matches!(e.kind, PhaseKind::Mem { .. }))
            .collect();
        mems.sort_by(|a, b| a.start_ns.total_cmp(&b.start_ns));
        for w in mems.windows(2) {
            assert!(w[1].start_ns >= w[0].end_ns - 1e-9);
        }
    }
}
