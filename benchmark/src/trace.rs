//! The harness's span recorder: one span per call into a layer's public
//! function, recorded from outside the program, kept in memory and written
//! as Chrome trace JSON when the traced passes end.

use prem_obs::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// `<layer>.<function>`; the layer is the text before the first dot.
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one, within the same recorder.
    pub parent: Option<usize>,
    /// Kernel row or request index shared by all spans of one operation.
    pub trace_id: u32,
}

impl Span {
    pub fn dur_s(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Per-thread span buffer. A disabled recorder runs the closure and records
/// nothing, so the untraced passes pay only a branch.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Recorder {
    /// All recorders of one run share `epoch`, so their spans line up.
    pub fn new(enabled: bool, epoch: Instant) -> Recorder {
        Recorder {
            enabled,
            epoch,
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its index (the `parent` of nested calls).
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, trace_id: u32) -> usize {
        if !self.enabled {
            return 0;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            trace_id,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, index: usize) {
        if self.enabled {
            self.spans[index].end_ns = self.now_ns();
        }
    }

    /// Appends another recorder's spans and returns the index its first span
    /// got, so spans recorded on several threads can parent later ones.
    pub fn absorb(&mut self, other: Recorder) -> usize {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut span| {
            span.parent = span.parent.map(|p| p + base);
            span
        }));
        base
    }

    /// Runs `f` inside a child span of `parent` when tracing is on.
    pub fn call<T>(&mut self, name: &'static str, parent: usize, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let trace_id = self.spans[parent].trace_id;
        let index = self.open(name, Some(parent), trace_id);
        let out = f();
        self.close(index);
        out
    }
}

/// Self time per span name over any number of recorders: a span's duration
/// minus the part of its interval that its child spans cover.
pub fn self_times(recorders: &[&Recorder]) -> BTreeMap<&'static str, f64> {
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    for rec in recorders {
        let mut covered = vec![0u64; rec.spans.len()];
        for span in &rec.spans {
            if let Some(p) = span.parent {
                let parent = &rec.spans[p];
                let lo = span.start_ns.max(parent.start_ns);
                let hi = span.end_ns.min(parent.end_ns);
                covered[p] += hi.saturating_sub(lo);
            }
        }
        for (span, cov) in rec.spans.iter().zip(covered) {
            let own = (span.end_ns - span.start_ns).saturating_sub(cov);
            *out.entry(span.name).or_default() += own as f64 * 1e-9;
        }
    }
    out
}

/// Chrome trace format document (`traceEvents` of complete `X` events, one
/// track per recorder) for `chrome://tracing` / Perfetto.
pub fn chrome_json(recorders: &[&Recorder], trace_names: &[String]) -> String {
    let mut events = Vec::new();
    for (tid, rec) in recorders.iter().enumerate() {
        for (index, span) in rec.spans.iter().enumerate() {
            let layer = span.name.split('.').next().unwrap_or(span.name);
            let trace = trace_names
                .get(span.trace_id as usize)
                .map_or_else(|| span.trace_id.to_string(), Clone::clone);
            events.push(Json::obj::<&str, Json>([
                ("name", Json::from(span.name)),
                ("cat", Json::from(layer)),
                ("ph", Json::from("X")),
                ("ts", Json::from(span.start_ns as f64 / 1e3)),
                (
                    "dur",
                    Json::from((span.end_ns - span.start_ns) as f64 / 1e3),
                ),
                ("pid", Json::from(1usize)),
                ("tid", Json::from(tid)),
                (
                    "args",
                    Json::obj::<&str, Json>([
                        ("trace_id", Json::from(trace)),
                        ("span", Json::from(index)),
                        ("parent", span.parent.map_or(Json::Null, Json::from)),
                        ("start_ns", Json::from(span.start_ns as f64)),
                        ("end_ns", Json::from(span.end_ns as f64)),
                    ]),
                ),
            ]));
        }
    }
    Json::obj::<&str, Json>([("traceEvents", Json::Arr(events))]).to_compact()
}

/// Prints each span name's self time and its share of `total_s`.
pub fn print_self_times(self_s: &BTreeMap<&'static str, f64>, total_s: f64) {
    println!("self time per span over the traced passes:");
    for (name, s) in self_s {
        println!("  self {name} {s:.6} s {:.2} %", 100.0 * s / total_s);
    }
}

/// Writes `benchmark/out/<workload>.trace.json`.
pub fn write(workload: &str, recorders: &[&Recorder], trace_names: &[String]) {
    let dir = std::path::Path::new("benchmark/out");
    std::fs::create_dir_all(dir).expect("create benchmark/out");
    let path = dir.join(format!("{workload}.trace.json"));
    std::fs::write(&path, chrome_json(recorders, trace_names)).expect("write trace");
    println!("wrote {}", path.display());
}
