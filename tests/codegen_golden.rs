//! Cross-version fixed point of the code generator: the length and FNV-64
//! hash of `emit_prem_c`'s output for every bundled small kernel on two
//! platforms and for two generated whole-network chains. A rewrite of the
//! emitter must leave every row untouched — not one byte of the emitted C may
//! move. When an output change is deliberate, regenerate the table with
//!
//! ```console
//! $ cargo test --test codegen_golden -- --ignored --nocapture print_golden_table
//! ```
//!
//! and paste the printed rows over [`GOLDEN`].

mod common;

use common::chain;
use prem::codegen::{emit_prem_c, EmitComponent};
use prem::core::{optimize_app, LoopTree, OptimizerOptions, Platform};
use prem::ir::Program;
use prem::sim::SimCost;

/// Recorded with the emitter that assembled every fragment with `format!`.
const GOLDEN: &[&str] = &[
    "cnn default len=12319 fnv=cf81ccdb77c7a15b",
    "cnn p4_8k len=11698 fnv=d75a455e34472ef8",
    "lstm default len=32053 fnv=435ecd98a675cded",
    "lstm p4_8k len=32050 fnv=c24520589ae6ce91",
    "maxpool default len=10308 fnv=99283b4e05b9d3c0",
    "maxpool p4_8k len=9733 fnv=c8dce1a7a270fa39",
    "sumpool default len=10041 fnv=7c6eaedb23674693",
    "sumpool p4_8k len=9466 fnv=bfba2cb0b5122699",
    "rnn default len=11008 fnv=5d135354393a53bf",
    "rnn p4_8k len=11005 fnv=66eacbdc65cfeb43",
    "chain_s12_m64 default len=488069 fnv=02e7dd592294f33d",
    "chain_s29_m24 spm512 len=184507 fnv=9aea3c6324f46136",
];

/// FNV-1a, 64 bit.
fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Every case: a row name, the program and the platform it is compiled for.
fn cases() -> Vec<(String, Program, Platform)> {
    let platforms = [
        ("default", Platform::default()),
        (
            "p4_8k",
            Platform::default().with_cores(4).with_spm_bytes(8 * 1024),
        ),
    ];
    let mut out = Vec::new();
    for (name, program) in prem::kernels::all_small() {
        for (tag, platform) in &platforms {
            out.push((format!("{name} {tag}"), program.clone(), platform.clone()));
        }
    }
    out.push((
        "chain_s12_m64 default".into(),
        chain(12, 64),
        Platform::default(),
    ));
    out.push((
        "chain_s29_m24 spm512".into(),
        chain(29, 24),
        Platform::default().with_spm_bytes(512),
    ));
    out
}

/// The emitted C of one case.
fn emit(program: &Program, platform: &Platform) -> String {
    let tree = LoopTree::build(program).unwrap();
    let cost = SimCost::new(program);
    let out = optimize_app(
        &tree,
        program,
        platform,
        &cost,
        &OptimizerOptions::default(),
    );
    let comps: Vec<EmitComponent> = out
        .components
        .iter()
        .map(|c| EmitComponent {
            component: c.component.clone(),
            solution: c.solution.clone(),
        })
        .collect();
    emit_prem_c(program, &comps, platform).unwrap()
}

fn row(name: &str, code: &str) -> String {
    format!(
        "{name} len={} fnv={:016x}",
        code.len(),
        fnv64(code.as_bytes())
    )
}

fn rows() -> Vec<String> {
    cases()
        .iter()
        .map(|(name, program, platform)| row(name, &emit(program, platform)))
        .collect()
}

#[test]
fn emitted_bytes_match_the_golden_table() {
    let got = rows();
    assert_eq!(got.len(), GOLDEN.len(), "case list changed");
    for (g, want) in got.iter().zip(GOLDEN) {
        assert_eq!(g, want);
    }
}

/// The table sees a single byte: flipping one bit of the swap-table padding
/// of `cnn default` changes its row.
#[test]
fn one_changed_byte_changes_the_row() {
    let (name, program, platform) = &cases()[0];
    let code = emit(program, platform);
    let at = code.find("{0, {0}}").expect("cnn pads a swap-table row") + 1;
    let mut bytes = code.clone().into_bytes();
    bytes[at] ^= 1;
    let mutated = String::from_utf8(bytes).unwrap();
    assert_ne!(row(name, &code), row(name, &mutated));
}

#[test]
#[ignore = "print mode: regenerates the GOLDEN table"]
fn print_golden_table() {
    for r in rows() {
        println!("    \"{r}\",");
    }
}
