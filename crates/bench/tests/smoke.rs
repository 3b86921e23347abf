//! Smoke test: every bench binary's reduced mode must run to completion and
//! write a parseable `prem-run-report/v1` JSON report.
//!
//! Binaries run with `--smoke` (small kernels) so the test is viable in a
//! debug build; `--quick` exercises the same code paths on the paper-size
//! kernels. `PREM_RESULTS_DIR` isolates each binary's output under the
//! target tmpdir.

use prem_obs::Json;
use std::path::PathBuf;
use std::process::Command;

fn smoke_report(exe: &str, bin: &str) -> Json {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke_{bin}"));
    let _ = std::fs::remove_dir_all(&dir);
    let out = Command::new(exe)
        .arg("--smoke")
        .env("PREM_RESULTS_DIR", &dir)
        .output()
        .expect("spawn bench binary");
    assert!(
        out.status.success(),
        "{bin} --smoke failed\nstdout:\n{}\nstderr:\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let path = dir.join(format!("{bin}.json"));
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{bin}: missing report {}: {e}", path.display()));
    let doc = Json::parse(&text).unwrap_or_else(|e| panic!("{bin}: unparseable report: {e}"));
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some("prem-run-report/v1"),
        "{bin}: bad schema"
    );
    assert_eq!(doc.get("bench").and_then(Json::as_str), Some(bin));
    assert_eq!(doc.get("mode").and_then(Json::as_str), Some("smoke"));
    doc
}

#[test]
fn tab6_2_6_3_smoke_report() {
    let doc = smoke_report(env!("CARGO_BIN_EXE_tab6_2_6_3"), "tab6_2_6_3");
    let points = doc.get("points").and_then(Json::as_arr).expect("points");
    assert!(!points.is_empty());
    for p in points {
        assert!(p.get("makespan_ns").and_then(Json::as_f64).is_some());
        assert!(p.get("evals").and_then(Json::as_f64).is_some());
        assert!(p.get("cache_hit_rate").and_then(Json::as_f64).is_some());
        assert!(p.get("phases").is_some());
    }
}

#[test]
fn fig6_1_smoke_report() {
    let doc = smoke_report(env!("CARGO_BIN_EXE_fig6_1"), "fig6_1");
    assert!(doc.get("max_api_share").and_then(Json::as_f64).is_some());
    let points = doc.get("points").and_then(Json::as_arr).expect("points");
    assert!(!points.is_empty());
    // What the `BENCH_fig6_1.json` condenser of `scripts/check.sh
    // --bench-snapshot` indexes without a default.
    for p in points {
        assert!(p.get("kernel").and_then(Json::as_str).is_some());
        for key in [
            "search_s",
            "fast_evals",
            "delta_declines",
            "replayed",
            "replay_mismatches",
            "bound_pruned",
        ] {
            assert!(p.get(key).and_then(Json::as_f64).is_some(), "missing {key}");
        }
    }
}

#[test]
fn fig6_4_smoke_report() {
    let doc = smoke_report(env!("CARGO_BIN_EXE_fig6_4"), "fig6_4");
    let points = doc.get("points").and_then(Json::as_arr).expect("points");
    // 5 kernels × (3 sizes + the infinite-SPM reference point).
    assert_eq!(points.len(), 5 * 4);
}

#[test]
fn model_accuracy_smoke_report() {
    let doc = smoke_report(env!("CARGO_BIN_EXE_model_accuracy"), "model_accuracy");
    let worst = doc
        .get("worst_rel_err")
        .and_then(Json::as_f64)
        .expect("err");
    assert!(worst < 0.05);
}

#[test]
fn sec6_3_1_smoke_report() {
    let doc = smoke_report(env!("CARGO_BIN_EXE_sec6_3_1"), "sec6_3_1");
    let sels = doc.get("selections").and_then(Json::as_arr).expect("sels");
    assert_eq!(sels.len(), 2);
    assert!(doc.get("ratio_makespan").and_then(Json::as_f64).is_some());
}

#[test]
fn tab6_6_smoke_report() {
    let doc = smoke_report(env!("CARGO_BIN_EXE_tab6_6"), "tab6_6");
    let points = doc.get("points").and_then(Json::as_arr).expect("points");
    assert_eq!(points.len(), 1);
    assert!(points[0].get("selection").and_then(Json::as_str).is_some());
}

#[test]
fn tab6_7_fig6_8_smoke_report() {
    let doc = smoke_report(env!("CARGO_BIN_EXE_tab6_7_fig6_8"), "tab6_7_fig6_8");
    let points = doc.get("points").and_then(Json::as_arr).expect("points");
    assert_eq!(points.len(), 3);
}

#[test]
fn ablation_smoke_report() {
    let doc = smoke_report(env!("CARGO_BIN_EXE_ablation"), "ablation");
    let sweep = doc
        .get("max_iter_sweep")
        .and_then(Json::as_arr)
        .expect("sweep");
    assert!(!sweep.is_empty());
    assert!(doc
        .get("assignments_nondominated")
        .and_then(Json::as_f64)
        .is_some());
}
