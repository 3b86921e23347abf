//! Cross-version fixed point of the front end: the length and FNV-64 hash of
//! `Program`'s `Display` for every parsed kernel source the repository
//! bundles (the `prem-kernels` classics, the benchmark's C templates) and for
//! the `tests/common` dense chains, plus the exact `line:col: message` of
//! every malformed source in [`malformed`]. A rewrite of the lexer or the
//! parser must leave every row untouched. When a change is deliberate,
//! regenerate the tables with
//!
//! ```console
//! $ cargo test --test frontend_golden -- --ignored --nocapture print_golden_table
//! ```
//!
//! and paste the printed rows over [`GOLDEN`] and [`MALFORMED`].

mod common;

use common::chain;
use prem::frontend::parse_kernel;
use prem::ir::Program;

/// Recorded with the lexer that owned every identifier as a `String`.
const GOLDEN: &[&str] = &[
    "classic_gemm len=205 fnv=1ba3f3a101522e72",
    "classic_2mm len=507 fnv=0af97f699236bc04",
    "classic_atax len=380 fnv=deff38e2867caaa5",
    "template_conv7 len=450 fnv=4d771f01e4f0fb83",
    "template_pool len=455 fnv=437d1d2a295ff719",
    "template_lstm_cell len=1107 fnv=e9704b8c95f1293e",
    "template_rnn_cell len=477 fnv=056343a6b092fba4",
    "template_matvec len=207 fnv=bd73875d46fcd735",
    "template_gemm len=265 fnv=e4adc519346214c4",
    "template_jacobi_rowsum len=349 fnv=51b2462f60c5d197",
    "chain_s12_m64 len=11961 fnv=dcfa542c482c09c0",
    "chain_s29_m24 len=4838 fnv=2f60b87ef760f04b",
];

/// Recorded with the same lexer, except the two rows that reject a
/// non-ASCII character (`junk bytes`, `non-ascii letter`): that lexer named
/// the first byte of its UTF-8 encoding as a Latin-1 character (`â` for
/// `∆`, `Ã` for `é`), and the character is now named as the source spells
/// it. Positions are byte columns, unchanged.
const MALFORMED: &[&str] = &[
    "truncated for: 1:27: expected `;`, found end of input",
    "junk bytes: 1:13: unexpected character `∆`",
    "at sign: 2:14: unexpected character `@`",
    "unknown param: 1:16: unknown identifier `N`",
    "overflowing literal: 1:52: integer literal 9223372036854775807 exceeds the supported magnitude 1099511627776",
    "overflowing param: 1:34: parameter `N` value 9223372036854775807 exceeds the supported magnitude",
    "coefficient overflow: 1:76: affine expression coefficients exceed the supported magnitude 1099511627776",
    "zero dimension: 1:10: array `a` has non-positive dimension 0",
    "duplicate array: 1:20: array `a` is declared twice",
    "index arity mismatch: 1:21: array `a` has 2 dimensions but 1 indices",
    "unterminated comment: 1:26: unterminated block comment",
    "loop tests another variable: 1:31: loop condition must test `i`",
    "missing semicolon: 4:1: expected `;`, found end of input",
    "product of loop variables: 1:77: product of two loop variables is not affine",
    "non-ascii letter: 2:11: unexpected character `é`",
];

/// FNV-1a, 64 bit.
fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A benchmark C template with its parameters.
fn template(name: &str, source: &str, params: &[(&str, i64)]) -> (String, Program) {
    let program = parse_kernel(name, source, params).expect("bundled template parses");
    (format!("template_{name}"), program)
}

/// Every parsed case: a row name and its program.
fn cases() -> Vec<(String, Program)> {
    use prem::kernels::classic;
    vec![
        ("classic_gemm".into(), classic::gemm(16, 12, 8)),
        ("classic_2mm".into(), classic::two_mm(8, 12, 16, 4)),
        ("classic_atax".into(), classic::atax(12, 16)),
        template(
            "conv7",
            include_str!("../benchmark/kernels/conv7.c"),
            &[
                ("NN", 1),
                ("NK", 8),
                ("NP", 14),
                ("NQ", 14),
                ("NC", 4),
                ("NR", 3),
                ("NS", 3),
            ],
        ),
        template(
            "pool",
            include_str!("../benchmark/kernels/pool.c"),
            &[
                ("NN", 1),
                ("NC", 4),
                ("NP", 7),
                ("NQ", 7),
                ("WIN", 2),
                ("ST", 2),
            ],
        ),
        template(
            "lstm_cell",
            include_str!("../benchmark/kernels/lstm_cell.c"),
            &[("NT", 6), ("NS", 16), ("NP", 12)],
        ),
        template(
            "rnn_cell",
            include_str!("../benchmark/kernels/rnn_cell.c"),
            &[("NT", 6), ("NS", 16), ("NP", 12)],
        ),
        template(
            "matvec",
            include_str!("../benchmark/kernels/matvec.c"),
            &[("N", 24), ("M", 40)],
        ),
        template(
            "gemm",
            include_str!("../benchmark/kernels/gemm.c"),
            &[("NI", 16), ("NJ", 12), ("NK", 8)],
        ),
        template(
            "jacobi_rowsum",
            include_str!("../benchmark/kernels/jacobi_rowsum.c"),
            &[("N", 20)],
        ),
        ("chain_s12_m64".into(), chain(12, 64)),
        ("chain_s29_m24".into(), chain(29, 24)),
    ]
}

/// A malformed source: its name, its text and the parameters it is parsed
/// with.
type Malformed = (&'static str, String, Vec<(&'static str, i64)>);

/// Malformed sources, each with the parameters it is parsed with.
fn malformed() -> Vec<Malformed> {
    vec![
        ("truncated for", "float a[4]; for (int i = 0".into(), vec![]),
        ("junk bytes", "float a[4]; ∆∆ a[0] = 1;".into(), vec![]),
        ("at sign", "float a[4];\n  a[0] = 1.0 @ 2.0;".into(), vec![]),
        ("unknown param", "float a[4]; a[N] = 0.0;".into(), vec![]),
        (
            "overflowing literal",
            "float a[4]; for (int i = 0; i < 9223372036854775807; i++) a[i] = 0.0;".into(),
            vec![],
        ),
        (
            "overflowing param",
            "float a[4]; for (int i = 0; i < N; i++) a[i] = 0.0;".into(),
            vec![("N", i64::MAX)],
        ),
        (
            "coefficient overflow",
            "float a[4]; for (int i = 0; i < 4; i++) \
             a[i * 1099511627776 * 1099511627776] = 0.0;"
                .into(),
            vec![],
        ),
        ("zero dimension", "float a[0]; a[0] = 0.0;".into(), vec![]),
        (
            "duplicate array",
            "float a[4]; float a[8]; a[0] = 0.0;".into(),
            vec![],
        ),
        (
            "index arity mismatch",
            "float a[4][4]; a[1] = 0.0;".into(),
            vec![],
        ),
        (
            "unterminated comment",
            "float a[4]; /* a[0] = 1.0;".into(),
            vec![],
        ),
        (
            "loop tests another variable",
            "float a[4]; for (int i = 0; j < 4; i++) a[i] = 0.0;".into(),
            vec![],
        ),
        (
            "missing semicolon",
            "float a[4];\nfor (int i = 0; i < 4; i++)\n  a[i] = 0.0\n".into(),
            vec![],
        ),
        (
            "product of loop variables",
            "float a[16]; for (int i = 0; i < 4; i++) for (int j = 0; j < 4; j++) \
             a[i * j] = 0.0;"
                .into(),
            vec![],
        ),
        (
            "non-ascii letter",
            "float a[4];\na[0] = 1.0é;".into(),
            vec![],
        ),
    ]
}

fn rows() -> Vec<String> {
    cases()
        .iter()
        .map(|(name, program)| {
            let text = program.to_string();
            format!(
                "{name} len={} fnv={:016x}",
                text.len(),
                fnv64(text.as_bytes())
            )
        })
        .collect()
}

fn malformed_rows() -> Vec<String> {
    malformed()
        .iter()
        .map(
            |(what, src, params)| match parse_kernel("bad", src, params) {
                Ok(_) => format!("{what}: parsed"),
                Err(e) => format!("{what}: {e}"),
            },
        )
        .collect()
}

#[test]
fn parsed_programs_match_the_golden_table() {
    let got = rows();
    assert_eq!(got.len(), GOLDEN.len(), "case list changed");
    for (g, want) in got.iter().zip(GOLDEN) {
        assert_eq!(g, want);
    }
}

#[test]
fn malformed_sources_keep_their_messages_and_positions() {
    let got = malformed_rows();
    assert_eq!(got.len(), MALFORMED.len(), "case list changed");
    for (g, want) in got.iter().zip(MALFORMED) {
        assert_eq!(g, want);
    }
}

#[test]
#[ignore = "print mode: regenerates the GOLDEN and MALFORMED tables"]
fn print_golden_table() {
    for r in rows() {
        println!("    \"{r}\",");
    }
    println!();
    for r in malformed_rows() {
        println!("    {r:?},");
    }
}
