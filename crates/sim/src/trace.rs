//! Trace rendering: ASCII Gantt charts (the Figure 3.4 / Figure 2.2 view)
//! and Chrome Trace Format (Perfetto) export of simulated timelines.

use crate::machine::{PhaseKind, TraceEvent};
use prem_obs::{ChromeTrace, Json, PhaseTimings, TraceSpan};

/// Renders a simulated timeline as an ASCII Gantt chart with one row per
/// core plus a DMA row, `width` characters across the makespan.
///
/// Execution phases print as `█`, the initialization segment as `░`, and
/// memory phases as `▒` on the DMA row (annotated with the owning core when
/// space permits).
pub fn render_gantt(trace: &[TraceEvent], width: usize) -> String {
    let makespan = trace.iter().map(|e| e.end_ns).fold(0.0f64, f64::max);
    if makespan <= 0.0 || width == 0 {
        return String::new();
    }
    let ncores = trace.iter().map(|e| e.core + 1).max().unwrap_or(0);
    let col = |t: f64| -> usize { ((t / makespan) * width as f64).floor() as usize };

    let mut rows: Vec<Vec<char>> = vec![vec![' '; width + 1]; ncores + 1];
    for e in trace {
        let (row, ch) = match e.kind {
            PhaseKind::Init => (e.core, '░'),
            PhaseKind::Exec { .. } => (e.core, '█'),
            PhaseKind::Mem { .. } => (ncores, '▒'),
        };
        let a = col(e.start_ns).min(width);
        let b = col(e.end_ns).min(width).max(a);
        for cell in &mut rows[row][a..=b] {
            *cell = ch;
        }
        if matches!(e.kind, PhaseKind::Mem { .. }) {
            // Mark the owning core at the start of the phase if it fits.
            let tag = char::from_digit((e.core % 10) as u32, 10).unwrap_or('?');
            rows[ncores][a] = tag;
        }
    }

    let mut out = String::new();
    for (i, row) in rows.iter().enumerate() {
        let label = if i < ncores {
            format!("core {i} ")
        } else {
            "DMA    ".to_string()
        };
        out.push_str(&label);
        out.push('|');
        out.extend(row.iter());
        out.push('\n');
    }
    out.push_str(&format!(
        "       0 ns {}^ {makespan:.0} ns\n",
        " ".repeat(width.saturating_sub(6))
    ));
    out
}

/// Exports a timeline as a Chrome Trace Format JSON document that Perfetto
/// (<https://ui.perfetto.dev>) and `chrome://tracing` open directly.
///
/// Layout: one process (`pid 0`) for the simulated machine; one thread
/// track per core carrying its `init`/`exec` phases, plus a dedicated
/// `DMA` track (`tid` = core count) carrying every memory phase, tagged
/// with the owning core and batch number in `args` — the Gantt view of
/// Figure 3.4, zoomable.
pub fn trace_to_chrome(trace: &[TraceEvent]) -> ChromeTrace {
    let mut out = ChromeTrace::new();
    append_machine(&mut out, trace, 0, 0.0);
    out
}

/// Appends a simulated machine timeline to an existing trace document as
/// process `pid`, offset by `ts0_us` microseconds.
fn append_machine(out: &mut ChromeTrace, trace: &[TraceEvent], pid: u64, ts0_us: f64) {
    let ncores = trace.iter().map(|e| e.core + 1).max().unwrap_or(0);
    out.process_name(pid, "PREM machine");
    for core in 0..ncores {
        out.thread_name(pid, core as u64, &format!("core {core}"));
    }
    let dma_tid = ncores as u64;
    out.thread_name(pid, dma_tid, "DMA");
    for e in trace {
        let (name, cat, tid, args) = match e.kind {
            PhaseKind::Init => (
                "init".to_string(),
                "init",
                e.core as u64,
                vec![("core".to_string(), Json::from(e.core))],
            ),
            PhaseKind::Exec { seg } => (
                format!("exec s{seg}"),
                "exec",
                e.core as u64,
                vec![
                    ("core".to_string(), Json::from(e.core)),
                    ("segment".to_string(), Json::from(seg)),
                ],
            ),
            PhaseKind::Mem { batch } => (
                format!("mem c{} b{batch}", e.core),
                "mem",
                dma_tid,
                vec![
                    ("core".to_string(), Json::from(e.core)),
                    ("batch".to_string(), Json::from(batch)),
                ],
            ),
        };
        out.span(TraceSpan {
            name,
            cat: cat.to_string(),
            pid,
            tid,
            ts_us: ts0_us + e.start_ns / 1e3,
            dur_us: (e.end_ns - e.start_ns) / 1e3,
            args,
        });
    }
}

/// Merges the compile pipeline's phase timings and a simulated PREM
/// timeline into **one** Chrome Trace document (the ROADMAP's interleaved
/// Perfetto view): process 0 carries the compiler's `pipeline` track,
/// process 1 the machine (per-core tracks plus `DMA`), with the simulation
/// offset to begin where compilation ends — compile-then-run on a single
/// zoomable time axis.
pub fn merged_chrome(phases: &PhaseTimings, trace: &[TraceEvent]) -> ChromeTrace {
    let mut out = ChromeTrace::new();
    let compile_end_us = phases.to_chrome_track(&mut out, 0, 0, 0.0, "PREM compiler", "pipeline");
    append_machine(&mut out, trace, 1, compile_end_us);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> Vec<TraceEvent> {
        vec![
            TraceEvent {
                core: 0,
                kind: PhaseKind::Init,
                start_ns: 0.0,
                end_ns: 10.0,
            },
            TraceEvent {
                core: 0,
                kind: PhaseKind::Mem { batch: 1 },
                start_ns: 10.0,
                end_ns: 30.0,
            },
            TraceEvent {
                core: 0,
                kind: PhaseKind::Exec { seg: 1 },
                start_ns: 30.0,
                end_ns: 100.0,
            },
            TraceEvent {
                core: 1,
                kind: PhaseKind::Exec { seg: 1 },
                start_ns: 40.0,
                end_ns: 90.0,
            },
        ]
    }

    #[test]
    fn gantt_has_row_per_core_plus_dma() {
        let g = render_gantt(&sample_trace(), 40);
        let lines: Vec<&str> = g.lines().collect();
        assert_eq!(lines.len(), 4); // 2 cores + DMA + axis
        assert!(lines[0].starts_with("core 0"));
        assert!(lines[2].starts_with("DMA"));
        assert!(lines[0].contains('█'));
        assert!(lines[0].contains('░'));
        assert!(lines[2].contains('▒') || lines[2].contains('0'));
    }

    #[test]
    fn empty_trace_is_empty_output() {
        assert_eq!(render_gantt(&[], 40), "");
    }

    #[test]
    fn chrome_trace_is_valid_and_tracks_cores_and_dma() {
        use prem_obs::Json;
        let doc = Json::parse(&trace_to_chrome(&sample_trace()).render()).unwrap();
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        // 1 process_name + 2 core names + 1 DMA name + 4 phase events.
        assert_eq!(events.len(), 8);
        for e in events {
            for key in ["ph", "pid"] {
                assert!(e.get(key).is_some(), "event missing {key}: {e}");
            }
            if e.get("ph").and_then(Json::as_str) == Some("X") {
                for key in ["ts", "dur", "tid", "name", "cat"] {
                    assert!(e.get(key).is_some(), "span missing {key}: {e}");
                }
            }
        }
        // The mem phase lives on the DMA track (tid = ncores = 2) and names
        // its owning core; exec phases live on their core's track.
        let mem = events
            .iter()
            .find(|e| e.get("cat").and_then(Json::as_str) == Some("mem"))
            .unwrap();
        assert_eq!(mem.get("tid").and_then(Json::as_f64), Some(2.0));
        assert_eq!(
            mem.get("args")
                .and_then(|a| a.get("core"))
                .and_then(Json::as_f64),
            Some(0.0)
        );
        let exec = events
            .iter()
            .find(|e| e.get("cat").and_then(Json::as_str) == Some("exec"))
            .unwrap();
        assert_eq!(exec.get("tid").and_then(Json::as_f64), Some(0.0));
        assert_eq!(exec.get("ts").and_then(Json::as_f64), Some(0.03));
        assert_eq!(exec.get("dur").and_then(Json::as_f64), Some(0.07));
    }

    #[test]
    fn merged_chrome_interleaves_pipeline_and_machine() {
        let mut phases = PhaseTimings::new();
        phases.add("loop_tree", 2e-6);
        phases.add("tiling_search", 3e-6);
        let doc = Json::parse(&merged_chrome(&phases, &sample_trace()).render()).unwrap();
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();

        // Both processes are named, and every expected track shows up.
        let names: Vec<(String, f64, String)> = events
            .iter()
            .filter(|e| {
                matches!(
                    e.get("ph").and_then(Json::as_str),
                    Some("M") // metadata events carry the names
                )
            })
            .map(|e| {
                (
                    e.get("name").and_then(Json::as_str).unwrap().to_string(),
                    e.get("pid").and_then(Json::as_f64).unwrap(),
                    e.get("args")
                        .and_then(|a| a.get("name"))
                        .and_then(Json::as_str)
                        .unwrap()
                        .to_string(),
                )
            })
            .collect();
        for expected in [
            ("process_name", 0.0, "PREM compiler"),
            ("thread_name", 0.0, "pipeline"),
            ("process_name", 1.0, "PREM machine"),
            ("thread_name", 1.0, "core 0"),
            ("thread_name", 1.0, "core 1"),
            ("thread_name", 1.0, "DMA"),
        ] {
            assert!(
                names
                    .iter()
                    .any(|(n, p, a)| (n.as_str(), *p, a.as_str()) == expected),
                "missing track metadata {expected:?} in {names:?}"
            );
        }

        // The pipeline spans sit on pid 0 starting at 0; the simulated
        // timeline is offset to start where compilation ends (5 us).
        let spans: Vec<&Json> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
            .collect();
        let pipeline_end: f64 = spans
            .iter()
            .filter(|e| e.get("pid").and_then(Json::as_f64) == Some(0.0))
            .map(|e| {
                e.get("ts").and_then(Json::as_f64).unwrap()
                    + e.get("dur").and_then(Json::as_f64).unwrap()
            })
            .fold(0.0, f64::max);
        assert!((pipeline_end - 5.0).abs() < 1e-9);
        let machine_start: f64 = spans
            .iter()
            .filter(|e| e.get("pid").and_then(Json::as_f64) == Some(1.0))
            .map(|e| e.get("ts").and_then(Json::as_f64).unwrap())
            .fold(f64::INFINITY, f64::min);
        assert!((machine_start - 5.0).abs() < 1e-9);
        // 2 pipeline spans + 4 machine phases.
        assert_eq!(spans.len(), 6);
    }
}
