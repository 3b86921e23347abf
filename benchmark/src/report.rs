//! What one workload run produces: checked-operation counts, metric values
//! and per-kernel rows.

use prem_obs::Json;

/// Pass/fail ledger of a run. Every timed operation and every verification
/// outside the timed section is one attempt; an attempt that fails any check
/// is one failure and is printed with the kernel or request that caused it.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    /// Records one attempt and whether it passed; `what` names the culprit.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            println!("FAILED {}", what());
        }
    }

    pub fn absorb(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// One reported row of the per-kernel table.
#[derive(Debug, Clone)]
pub struct Row {
    pub name: String,
    pub median_ms: f64,
    pub samples: usize,
    pub sim_makespan_ns: f64,
    pub out_bytes: usize,
}

/// Named metric values in emission order.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<(&'static str, f64)>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(self.get(name).is_none(), "metric {name} set twice");
        self.0.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }
}

/// Everything a workload run hands back to `main`.
#[derive(Debug, Default)]
pub struct RunOutput {
    pub checks: Checks,
    pub metrics: Metrics,
    pub rows: Vec<Row>,
}

/// Reads a counter by key from a JSON object, so a counter that a later
/// change removes reads as absent here instead of breaking the build of a
/// directory that change may not edit.
pub fn by_key(obj: &Json, key: &str) -> Option<f64> {
    obj.get(key).and_then(Json::as_f64)
}
