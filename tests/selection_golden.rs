//! Cross-version fixed point of the search: the winner's `(R, K)` per
//! component and the application makespan bit pattern, for every bundled
//! small kernel, two mid-size shapes and the two reduction-heavy pooling
//! shapes × 3 bus speeds × the two option sets callers actually reach (the
//! default every caller runs, and reduction-aware legality).
//!
//! The differential suites prove the evaluator agrees with its references
//! *within* one build; this table pins what the search selects *across*
//! builds. A refactor of the evaluator must leave every row untouched. When a
//! search-policy change moves a row on purpose, regenerate the table with
//!
//! ```console
//! $ cargo test --test selection_golden -- --ignored --nocapture print_golden_table
//! ```
//!
//! and paste the printed rows over [`GOLDEN`].

use prem::core::{optimize_app, AnalyticCost, LoopTree, OptimizerOptions, Platform};
use prem::ir::Program;
use prem::kernels::{all_small, CnnConfig, LstmConfig, PoolConfig, PoolOp};

/// Generated at the commit preceding the evaluator collapse (the tree whose
/// `OptimizerOptions` still carried `incremental` / `batched` / `soa`).
const GOLDEN: &[&str] = &[
    "cnn spm=32k p=8 bus=16 default 40e81e4000000000 R[1,2,4,1,1]K[1,2,2,6,3]",
    "cnn spm=32k p=8 bus=16 reductions 40e81e4000000000 R[1,2,4,1,1]K[1,2,2,6,3]",
    "cnn spm=32k p=8 bus=1 default 40ea494000000000 R[1,2,4,1,1]K[1,2,2,6,3]",
    "cnn spm=32k p=8 bus=1 reductions 40ea494000000000 R[1,2,4,1,1]K[1,2,2,6,3]",
    "cnn spm=32k p=8 bus=0.0625 default 40ffacd000000000 R[1,2,4,1,1]K[1,2,2,6,3]",
    "cnn spm=32k p=8 bus=0.0625 reductions 40ffacd000000000 R[1,2,4,1,1]K[1,2,2,6,3]",
    "lstm spm=32k p=8 bus=16 default 40fba4f000000000 R[1]K[4]",
    "lstm spm=32k p=8 bus=16 reductions 40fba4f000000000 R[1]K[4]",
    "lstm spm=32k p=8 bus=1 default 40fc2bf000000000 R[1]K[4]",
    "lstm spm=32k p=8 bus=1 reductions 40fc2bf000000000 R[1]K[4]",
    "lstm spm=32k p=8 bus=0.0625 default 41024df800000000 R[1]K[4]",
    "lstm spm=32k p=8 bus=0.0625 reductions 41024df800000000 R[1]K[4]",
    "maxpool spm=32k p=8 bus=16 default 40db93c000000000 R[1,2,4,1,1]K[1,1,1,4,2]",
    "maxpool spm=32k p=8 bus=16 reductions 40db93c000000000 R[1,2,4,1,1]K[1,1,1,4,2]",
    "maxpool spm=32k p=8 bus=1 default 40dc83c000000000 R[1,2,4,1,1]K[1,1,1,4,2]",
    "maxpool spm=32k p=8 bus=1 reductions 40dc83c000000000 R[1,2,4,1,1]K[1,1,1,4,2]",
    "maxpool spm=32k p=8 bus=0.0625 default 40e5c1e000000000 R[1,2,4,1,1]K[1,1,1,4,2]",
    "maxpool spm=32k p=8 bus=0.0625 reductions 40e5c1e000000000 R[1,2,4,1,1]K[1,1,1,4,2]",
    "sumpool spm=32k p=8 bus=16 default 40db93c000000000 R[1,2,4,1,1]K[1,1,1,4,2]",
    "sumpool spm=32k p=8 bus=16 reductions 40db93c000000000 R[1,2,4,1,1]K[1,1,1,4,2]",
    "sumpool spm=32k p=8 bus=1 default 40dc83c000000000 R[1,2,4,1,1]K[1,1,1,4,2]",
    "sumpool spm=32k p=8 bus=1 reductions 40dc83c000000000 R[1,2,4,1,1]K[1,1,1,4,2]",
    "sumpool spm=32k p=8 bus=0.0625 default 40e5c1e000000000 R[1,2,4,1,1]K[1,1,1,4,2]",
    "sumpool spm=32k p=8 bus=0.0625 reductions 40e5c1e000000000 R[1,2,4,1,1]K[1,1,1,4,2]",
    "rnn spm=32k p=8 bus=16 default 40e405a000000000 R[1]K[3]",
    "rnn spm=32k p=8 bus=16 reductions 40e405a000000000 R[1]K[3]",
    "rnn spm=32k p=8 bus=1 default 40e4492000000000 R[1]K[3]",
    "rnn spm=32k p=8 bus=1 reductions 40e4492000000000 R[1]K[3]",
    "rnn spm=32k p=8 bus=0.0625 default 40e8812000000000 R[1]K[3]",
    "rnn spm=32k p=8 bus=0.0625 reductions 40e8812000000000 R[1]K[3]",
    "cnn_mid spm=32k p=8 bus=16 default 4100acd000000000 R[1,8,1,1,1]K[1,1,24,12,4]",
    "cnn_mid spm=32k p=8 bus=16 reductions 4100acd000000000 R[1,8,1,1,1]K[1,1,24,12,4]",
    "cnn_mid spm=32k p=8 bus=1 default 4103e90000000000 R[1,2,4,1,1]K[1,4,6,12,2]",
    "cnn_mid spm=32k p=8 bus=1 reductions 4103e90000000000 R[1,2,4,1,1]K[1,4,6,12,2]",
    "cnn_mid spm=32k p=8 bus=0.0625 default 4124f14a00000000 R[1,2,4,1,1]K[1,4,6,12,4]",
    "cnn_mid spm=32k p=8 bus=0.0625 reductions 4124f14a00000000 R[1,2,4,1,1]K[1,4,6,12,4]",
    "cnn_mid spm=4k p=4 bus=16 default 410ba13800000000 R[1,2,2,1,1]K[1,2,4,12,4]",
    "cnn_mid spm=4k p=4 bus=16 reductions 410cc57800000000 R[1,2,2,1,1]K[1,4,6,4,4]",
    "cnn_mid spm=4k p=4 bus=1 default 410cbe3800000000 R[1,2,2,1,1]K[1,2,4,12,4]",
    "cnn_mid spm=4k p=4 bus=1 reductions 410e5f9800000000 R[1,1,4,1,1]K[1,2,3,12,4]",
    "cnn_mid spm=4k p=4 bus=0.0625 default 412fe9aa00000000 R[1,2,2,1,1]K[1,2,4,12,4]",
    "cnn_mid spm=4k p=4 bus=0.0625 reductions 4133b47500000000 R[1,1,4,1,1]K[1,2,3,12,4]",
    "lstm_mid spm=32k p=8 bus=16 default 413ab43000000000 R[8,1]K[5,30] R[8,1]K[5,40] R[8]K[5] R[8]K[5]",
    "lstm_mid spm=32k p=8 bus=16 reductions 413ab43000000000 R[8,1]K[5,30] R[8,1]K[5,40] R[8]K[5] R[8]K[5]",
    "lstm_mid spm=32k p=8 bus=1 default 413e8c9000000000 R[8,1]K[5,30] R[8,1]K[5,40] R[8]K[5] R[8]K[5]",
    "lstm_mid spm=32k p=8 bus=1 reductions 413e8c9000000000 R[8,1]K[5,30] R[8,1]K[5,40] R[8]K[5] R[8]K[5]",
    "lstm_mid spm=32k p=8 bus=0.0625 default 415704a400000000 R[8,1]K[5,30] R[8,1]K[5,40] R[8]K[5] R[8]K[5]",
    "lstm_mid spm=32k p=8 bus=0.0625 reductions 415704a400000000 R[8,1]K[5,30] R[8,1]K[5,40] R[8]K[5] R[8]K[5]",
    "lstm_mid spm=4k p=4 bus=16 default 413daa1900000000 R[4,1]K[10,10] R[4,1]K[10,10] R[4]K[10] R[4]K[10]",
    "lstm_mid spm=4k p=4 bus=16 reductions 413daa1900000000 R[4,1]K[10,10] R[4,1]K[10,10] R[4]K[10] R[4]K[10]",
    "lstm_mid spm=4k p=4 bus=1 default 4141442280000000 R[4,1]K[10,10] R[4,1]K[10,10] R[4]K[10] R[4]K[10]",
    "lstm_mid spm=4k p=4 bus=1 reductions 4141442280000000 R[4,1]K[10,10] R[4,1]K[10,10] R[4]K[10] R[4]K[10]",
    "lstm_mid spm=4k p=4 bus=0.0625 default 415a985800000000 R[4,1]K[3,30] R[4,1]K[10,10] R[4]K[10] R[4]K[10]",
    "lstm_mid spm=4k p=4 bus=0.0625 reductions 415a985800000000 R[4,1]K[3,30] R[4,1]K[10,10] R[4]K[10] R[4]K[10]",
    "window_dominant_max spm=32k p=8 bus=16 default 40d4478000000000 R[1,1,2,2,1]K[1,1,1,1,6]",
    "window_dominant_max spm=32k p=8 bus=16 reductions 40d4478000000000 R[1,1,2,2,1]K[1,1,1,1,6]",
    "window_dominant_max spm=32k p=8 bus=1 default 40d5be8000000000 R[1,1,2,2,1]K[1,1,1,1,6]",
    "window_dominant_max spm=32k p=8 bus=1 reductions 40d5be8000000000 R[1,1,2,2,1]K[1,1,1,1,6]",
    "window_dominant_max spm=32k p=8 bus=0.0625 default 40e75ae000000000 R[1,1,2,2,1]K[1,1,1,1,6]",
    "window_dominant_max spm=32k p=8 bus=0.0625 reductions 40e6ae2000000000 R[1,1,2,1,3]K[1,1,1,2,2]",
    "reduction_bound_max spm=32k p=8 bus=16 default 40e8a6c000000000 R[1,1,2,2,1]K[1,1,1,1,32]",
    "reduction_bound_max spm=32k p=8 bus=16 reductions 40e5e3c000000000 R[1,1,2,1,3]K[1,1,1,2,22]",
    "reduction_bound_max spm=32k p=8 bus=1 default 40fb440000000000 R[1,1,2,2,1]K[1,1,1,1,32]",
    "reduction_bound_max spm=32k p=8 bus=1 reductions 40f9d42000000000 R[1,1,2,1,3]K[1,1,1,2,22]",
    "reduction_bound_max spm=32k p=8 bus=0.0625 default 4130b80000000000 R[1,1,2,2,1]K[1,1,1,1,32]",
    "reduction_bound_max spm=32k p=8 bus=0.0625 reductions 4130a88200000000 R[1,1,2,1,3]K[1,1,1,2,22]",
    "window_dominant_sum spm=32k p=8 bus=16 default 40d4478000000000 R[1,1,2,2,1]K[1,1,1,1,6]",
    "window_dominant_sum spm=32k p=8 bus=16 reductions 40d4478000000000 R[1,1,2,2,1]K[1,1,1,1,6]",
    "window_dominant_sum spm=32k p=8 bus=1 default 40d5be8000000000 R[1,1,2,2,1]K[1,1,1,1,6]",
    "window_dominant_sum spm=32k p=8 bus=1 reductions 40d5be8000000000 R[1,1,2,2,1]K[1,1,1,1,6]",
    "window_dominant_sum spm=32k p=8 bus=0.0625 default 40e75ae000000000 R[1,1,2,2,1]K[1,1,1,1,6]",
    "window_dominant_sum spm=32k p=8 bus=0.0625 reductions 40e6ae2000000000 R[1,1,2,1,3]K[1,1,1,2,2]",
    "reduction_bound_sum spm=32k p=8 bus=16 default 40e8a6c000000000 R[1,1,2,2,1]K[1,1,1,1,32]",
    "reduction_bound_sum spm=32k p=8 bus=16 reductions 40e5e3c000000000 R[1,1,2,1,3]K[1,1,1,2,22]",
    "reduction_bound_sum spm=32k p=8 bus=1 default 40fb440000000000 R[1,1,2,2,1]K[1,1,1,1,32]",
    "reduction_bound_sum spm=32k p=8 bus=1 reductions 40f9d42000000000 R[1,1,2,1,3]K[1,1,1,2,22]",
    "reduction_bound_sum spm=32k p=8 bus=0.0625 default 4130b80000000000 R[1,1,2,2,1]K[1,1,1,1,32]",
    "reduction_bound_sum spm=32k p=8 bus=0.0625 reductions 4130a88200000000 R[1,1,2,1,3]K[1,1,1,2,22]",
];

/// The roomy 8-core point every kernel runs at, and the tight 4-core one
/// (SPM overflow and thread-limit rejections inside the scans) the mid-size
/// shapes add.
const ROOMY: &[(i64, usize)] = &[(32, 8)];
const ROOMY_AND_TIGHT: &[(i64, usize)] = &[(32, 8), (4, 4)];

type Case = (String, Program, &'static [(i64, usize)]);

fn kernels() -> Vec<Case> {
    let mut out: Vec<Case> = all_small()
        .into_iter()
        .map(|(n, p)| (n.to_string(), p, ROOMY))
        .collect();
    // Two mid-size shapes whose candidate lists are long enough (> 8) for
    // `find_minimum` to bracket instead of scanning.
    let cnn_mid = CnnConfig {
        nn: 1,
        nk: 8,
        np: 24,
        nq: 12,
        nc: 4,
        nr: 3,
        ns: 3,
    };
    out.push(("cnn_mid".to_string(), cnn_mid.build(), ROOMY_AND_TIGHT));
    let lstm_mid = LstmConfig {
        nt: 5,
        ns: 40,
        np: 30,
    };
    out.push(("lstm_mid".to_string(), lstm_mid.build(), ROOMY_AND_TIGHT));
    for (tag, op) in [("max", PoolOp::Max), ("sum", PoolOp::Sum)] {
        let (window, bound) = (
            PoolConfig::window_dominant(op),
            PoolConfig::reduction_bound(op),
        );
        out.push((format!("window_dominant_{tag}"), window.build(), ROOMY));
        out.push((format!("reduction_bound_{tag}"), bound.build(), ROOMY));
    }
    out
}

fn option_sets() -> [(&'static str, OptimizerOptions); 2] {
    [
        ("default", OptimizerOptions::default()),
        (
            "reductions",
            OptimizerOptions {
                reductions: true,
                ..OptimizerOptions::default()
            },
        ),
    ]
}

/// One row per (kernel, platform point, option set):
/// `kernel spm=S p=P bus=B opts makespan_bits R[..]K[..] R[..]K[..] …`.
fn rows() -> Vec<String> {
    let mut rows = Vec::new();
    for (name, program, points) in kernels() {
        let tree = LoopTree::build(&program).unwrap();
        let cost = AnalyticCost::new(&program);
        for &(spm_kib, cores) in points {
            for bus in [16.0, 1.0, 1.0 / 16.0] {
                let platform = Platform::default()
                    .with_spm_bytes(spm_kib * 1024)
                    .with_cores(cores)
                    .with_bus_gbytes(bus);
                for (tag, opts) in option_sets() {
                    let out = optimize_app(&tree, &program, &platform, &cost, &opts);
                    let winners: Vec<String> = out
                        .components
                        .iter()
                        .map(|c| format!("R{:?}K{:?}", c.solution.r, c.solution.k))
                        .collect();
                    rows.push(format!(
                        "{name} spm={spm_kib}k p={cores} bus={bus} {tag} {:016x} {}",
                        out.makespan_ns.to_bits(),
                        winners.join(" ").replace(", ", ",")
                    ));
                }
            }
        }
    }
    rows
}

#[test]
fn selections_and_makespans_match_the_golden_table() {
    let rows = rows();
    assert_eq!(rows.len(), GOLDEN.len(), "grid size changed");
    for (got, want) in rows.iter().zip(GOLDEN) {
        assert_eq!(got, want, "selection or makespan bits moved");
    }
}

#[test]
#[ignore = "print mode: regenerates the GOLDEN table"]
fn print_golden_table() {
    for row in rows() {
        println!("    {row:?},");
    }
}
