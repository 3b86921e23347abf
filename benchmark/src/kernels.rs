//! Kernel source templates and the seeded input generators of the four
//! workloads. The program under test only ever sees what is produced here:
//! C-subset source text plus named parameters, or a request body.

use crate::rng::Rng;
use prem_obs::Json;

const CONV7: &str = include_str!("../kernels/conv7.c");
const POOL: &str = include_str!("../kernels/pool.c");
const LSTM_CELL: &str = include_str!("../kernels/lstm_cell.c");
const RNN_CELL: &str = include_str!("../kernels/rnn_cell.c");
const MATVEC: &str = include_str!("../kernels/matvec.c");
const GEMM: &str = include_str!("../kernels/gemm.c");
const JACOBI_ROWSUM: &str = include_str!("../kernels/jacobi_rowsum.c");
const DENSE_CHAIN: &str = include_str!("../kernels/dense_chain.c");

/// Platform point of one operation, in the units the `POST /optimize`
/// `platform` object uses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlatformPoint {
    pub cores: usize,
    pub spm_kib: i64,
    pub bus_gbytes: f64,
}

impl PlatformPoint {
    /// The paper's default platform (8 cores, 128 KiB SPM) at `bus_gbytes`.
    pub fn at_bus(bus_gbytes: f64) -> PlatformPoint {
        PlatformPoint {
            cores: 8,
            spm_kib: 128,
            bus_gbytes,
        }
    }

    /// The same point as the library's platform type.
    pub fn platform(&self) -> prem_core::Platform {
        prem_core::Platform::default()
            .with_cores(self.cores)
            .with_spm_bytes(self.spm_kib * 1024)
            .with_bus_gbytes(self.bus_gbytes)
    }
}

/// Source text of one kernel with its parameter bindings.
#[derive(Debug, Clone)]
pub struct KernelSource {
    /// Program name handed to the frontend (a C identifier).
    pub ident: &'static str,
    pub source: String,
    pub params: Vec<(String, i64)>,
}

impl KernelSource {
    /// Parameter bindings in the shape `parse_kernel` takes.
    pub fn param_refs(&self) -> Vec<(&str, i64)> {
        self.params.iter().map(|(k, v)| (k.as_str(), *v)).collect()
    }
}

/// One kernel to compile: its source and the target platform.
#[derive(Debug, Clone)]
pub struct KernelInput {
    /// Row name in reports and trace id of the kernel's spans.
    pub row: String,
    pub src: KernelSource,
    pub point: PlatformPoint,
}

/// A platform scalar moved by up to ±3 %: enough that every seed compiles for
/// different platforms, too little to change how much work a compile is.
fn jitter(rng: &mut Rng, value: f64) -> f64 {
    value * (1.0 + 0.03 * (2.0 * rng.unit() - 1.0))
}

/// The two bus speeds every conv shape is compiled at: the memory-bound and
/// the compute-bound end of Fig. 6.1's sweep.
const CONV_BUSES: [(f64, &str); 2] = [(1.0 / 16.0, "slow"), (16.0, "fast")];

/// `conv_deep`: the six GoogLeNet 3x3 shapes of Fig. 6.6, each at both bus
/// speeds. The seed jitters the bus speeds and orders the compiles; the
/// shapes themselves stay the paper's, because search time moves by tens of
/// percent with the divisor structure of `NK`/`NC`.
pub fn conv_deep(seed: u64, smoke: bool) -> Vec<KernelInput> {
    // (NK, NP = NQ, NC)
    let shapes: &[(i64, i64, i64)] = if smoke {
        &[(32, 7, 24), (48, 7, 32)]
    } else {
        &[
            (128, 28, 96),
            (192, 28, 128),
            (208, 14, 96),
            (320, 14, 160),
            (320, 7, 160),
            (384, 7, 192),
        ]
    };
    let mut rng = Rng::new(seed, "conv_deep");
    let mut out = Vec::new();
    for &(nk, npq, nc) in shapes {
        for (bus, tag) in CONV_BUSES {
            let row = format!("conv_k{nk}p{npq}c{nc}_{tag}");
            let point = PlatformPoint::at_bus(jitter(&mut rng, bus));
            let src = conv7(nk, npq, nc);
            out.push(KernelInput { row, src, point });
        }
    }
    rng.shuffle(&mut out);
    out
}

fn chain_section(kind: &str, part: &str) -> &'static str {
    let head = format!("//# {kind} {part}\n");
    let start = DENSE_CHAIN
        .find(&head)
        .unwrap_or_else(|| panic!("dense_chain.c has no `{kind} {part}` section"))
        + head.len();
    let rest = &DENSE_CHAIN[start..];
    rest.find("//# ").map_or(rest, |end| &rest[..end])
}

/// A shuffled deck of `n` values dealt round-robin from `values`, so every
/// seed draws the same multiset in a different order.
fn deck(rng: &mut Rng, values: &[i64], n: usize) -> Vec<i64> {
    let mut out: Vec<i64> = values.iter().copied().cycle().take(n).collect();
    rng.shuffle(&mut out);
    out
}

/// The layer blocks of every 8 nests of a generated network: one dense layer
/// followed by pooling, one row-mean centering, two bias+ReLU and two affine
/// layers. The seed orders them; the mix is fixed so that sources of one size
/// cost about the same to compile under every seed.
const CHAIN_BLOCKS: [&[&str]; 6] = [
    &["gemm", "pool"],
    &["rowsum", "center"],
    &["relu"],
    &["relu"],
    &["affine"],
    &["affine"],
];

/// Generates one whole-network source of `nests` chained shallow nests (a
/// multiple of 8) over activations of `rows` rows, with column counts dealt
/// from `extents`.
pub fn dense_chain(rng: &mut Rng, nests: usize, rows: i64, extents: &[i64]) -> KernelSource {
    assert!(
        nests.is_multiple_of(8),
        "dense_chain sizes are multiples of 8"
    );
    let mut blocks: Vec<&[&str]> = CHAIN_BLOCKS
        .iter()
        .copied()
        .cycle()
        .take(nests / 8 * CHAIN_BLOCKS.len())
        .collect();
    rng.shuffle(&mut blocks);
    let mut widths = deck(rng, extents, nests / 8 + 1).into_iter();
    let mut cols = widths.next().expect("deck covers the input");
    let mut decls = chain_section("input", "decl").replace("@CO", &cols.to_string());
    let mut bodies = String::new();
    // `act` is the nest whose activation the next layer reads.
    let (mut nest, mut act) = (0usize, 0usize);
    for block in blocks {
        let rowsum = nest + 1;
        for &kind in block {
            nest += 1;
            let cols_out = match kind {
                // The dense layer doubles its dealt width; the pooling nest
                // after it halves it again.
                "gemm" => 2 * widths.next().expect("deck covers every dense layer"),
                "pool" => cols / 2,
                _ => cols,
            };
            let fill = |text: &str| {
                text.replace("@L", &nest.to_string())
                    .replace("@P", &act.to_string())
                    .replace("@M", &rowsum.to_string())
                    .replace("@CI", &cols.to_string())
                    .replace("@CO", &cols_out.to_string())
            };
            decls.push_str(&fill(chain_section(kind, "decl")));
            bodies.push_str(&fill(chain_section(kind, "body")));
            if kind != "rowsum" {
                act = nest;
                cols = cols_out;
            }
        }
    }
    KernelSource {
        ident: "dense_chain",
        source: format!("{decls}\n{bodies}"),
        params: vec![("H".to_string(), rows)],
    }
}

/// Extents of the generated networks. The layers are kept this small so that
/// the per-component search stays near a millisecond and the rest of the
/// pipeline carries at least a quarter of the compile time.
const CHAIN_EXTENTS: [i64; 4] = [4, 8, 12, 16];

/// `nest_wide`: 20 generated whole-network sources per pass, cycling through
/// `M ∈ {64, 128, 192}` chained nests.
pub fn nest_wide(seed: u64, smoke: bool) -> Vec<KernelInput> {
    let (sizes, sources): ([usize; 3], usize) = if smoke {
        ([8, 16, 24], 3)
    } else {
        ([64, 128, 192], 20)
    };
    let mut rng = Rng::new(seed, "nest_wide");
    (0..sources)
        .map(|i| {
            // Every size meets every row count equally often under every
            // seed; the seed orders the layers and deals their widths.
            let nests = sizes[i % sizes.len()];
            let rows = CHAIN_EXTENTS[i / sizes.len() % CHAIN_EXTENTS.len()];
            let src = dense_chain(&mut rng, nests, rows, &CHAIN_EXTENTS);
            KernelInput {
                row: format!("chain_m{nests}_{i:02}"),
                src,
                point: PlatformPoint::at_bus(16.0),
            }
        })
        .collect()
}

fn template(ident: &'static str, text: &str, params: &[(&str, i64)]) -> KernelSource {
    KernelSource {
        ident,
        source: text.to_string(),
        params: params.iter().map(|&(k, v)| (k.to_string(), v)).collect(),
    }
}

fn conv7(nk: i64, npq: i64, nc: i64) -> KernelSource {
    let params = [
        ("NN", 1),
        ("NK", nk),
        ("NP", npq),
        ("NQ", npq),
        ("NC", nc),
        ("NR", 3),
        ("NS", 3),
    ];
    template("conv7", CONV7, &params)
}

fn pool(nc: i64, npq: i64) -> KernelSource {
    let params = [
        ("NN", 1),
        ("NC", nc),
        ("NP", npq),
        ("NQ", npq),
        ("WIN", 2),
        ("ST", 2),
    ];
    template("pool", POOL, &params)
}

fn lstm_cell(nt: i64, ns: i64, np: i64) -> KernelSource {
    template(
        "lstm_cell",
        LSTM_CELL,
        &[("NT", nt), ("NS", ns), ("NP", np)],
    )
}

fn rnn_cell(nt: i64, ns: i64, np: i64) -> KernelSource {
    template("rnn_cell", RNN_CELL, &[("NT", nt), ("NS", ns), ("NP", np)])
}

fn matvec(n: i64, m: i64) -> KernelSource {
    template("matvec", MATVEC, &[("N", n), ("M", m)])
}

fn gemm(ni: i64, nj: i64, nk: i64) -> KernelSource {
    template("gemm", GEMM, &[("NI", ni), ("NJ", nj), ("NK", nk)])
}

fn jacobi_rowsum(n: i64) -> KernelSource {
    template("jacobi_rowsum", JACOBI_ROWSUM, &[("N", n)])
}

/// Small-size twins, one per template: compiled with the same options during
/// set-up and executed functionally against the interpreter. A 4-core, 4 KiB
/// SPM platform forces real tiling and streaming on them.
pub fn twins() -> Vec<KernelInput> {
    let mut rng = Rng::new(0, "twin");
    let sources = vec![
        conv7(4, 6, 3),
        pool(2, 4),
        lstm_cell(4, 6, 5),
        rnn_cell(3, 5, 4),
        matvec(12, 9),
        gemm(6, 5, 7),
        jacobi_rowsum(10),
        dense_chain(&mut rng, 8, 5, &[3, 4]),
    ];
    let point = PlatformPoint {
        cores: 4,
        spm_kib: 4,
        bus_gbytes: 16.0,
    };
    sources
        .into_iter()
        .map(|src| KernelInput {
            row: format!("twin_{}", src.ident),
            src,
            point,
        })
        .collect()
}

/// One `POST /optimize` body.
#[derive(Debug, Clone)]
pub struct Body {
    /// Row name in reports.
    pub row: String,
    pub text: String,
    /// Whether the served answer is recomputed directly, in process, and
    /// compared. Fixed by the body's place in the workload's grid, not by the
    /// seed, so that the checked sample is the same mix under every seed.
    pub checked: bool,
}

fn platform_json(point: &PlatformPoint) -> Json {
    Json::obj::<&str, Json>([
        ("cores", Json::from(point.cores)),
        ("spm_kib", Json::from(point.spm_kib)),
        ("bus_gbytes", Json::from(point.bus_gbytes)),
    ])
}

/// A request for a source kernel with default options except a distinct
/// `seed` when given.
fn source_body(
    row: String,
    src: &KernelSource,
    point: &PlatformPoint,
    option_seed: Option<u64>,
) -> Body {
    let mut top = vec![
        (
            "kernel",
            Json::obj::<&str, Json>([
                ("name", Json::from(src.ident)),
                ("source", Json::from(src.source.as_str())),
                (
                    "params",
                    Json::Obj(
                        src.params
                            .iter()
                            .map(|(k, v)| (k.clone(), Json::from(*v)))
                            .collect(),
                    ),
                ),
            ]),
        ),
        ("platform", platform_json(point)),
    ];
    if let Some(seed) = option_seed {
        top.push(("options", Json::obj([("seed", Json::from(seed as usize))])));
    }
    Body {
        row,
        text: Json::obj(top).to_compact(),
        checked: true,
    }
}

/// The five parameter variants of each template served by `serve_cold`,
/// sized for tens of milliseconds of search per request.
fn serve_variants(smoke: bool) -> Vec<(String, KernelSource)> {
    let mut out: Vec<(String, KernelSource)> = Vec::new();
    let mut add = |tag: String, src: KernelSource| out.push((format!("{}_{tag}", src.ident), src));
    for (nk, npq, nc) in [
        (16, 7, 16),
        (24, 7, 16),
        (32, 7, 24),
        (16, 14, 16),
        (32, 14, 16),
    ] {
        add(format!("k{nk}p{npq}c{nc}"), conv7(nk, npq, nc));
    }
    for (nc, npq) in [(16, 8), (32, 8), (32, 16), (64, 16), (64, 32)] {
        add(format!("c{nc}p{npq}"), pool(nc, npq));
    }
    for (nt, ns, np) in [
        (4, 64, 64),
        (4, 96, 80),
        (8, 128, 96),
        (8, 160, 128),
        (4, 256, 192),
    ] {
        add(format!("t{nt}s{ns}p{np}"), lstm_cell(nt, ns, np));
        add(format!("t{nt}s{ns}p{np}"), rnn_cell(nt, ns, np));
    }
    for (n, m) in [
        (256, 256),
        (512, 256),
        (512, 512),
        (1024, 512),
        (1024, 1024),
    ] {
        add(format!("n{n}m{m}"), matvec(n, m));
    }
    for (ni, nj, nk) in [
        (32, 32, 32),
        (48, 32, 64),
        (64, 64, 32),
        (64, 64, 64),
        (96, 64, 64),
    ] {
        add(format!("i{ni}j{nj}k{nk}"), gemm(ni, nj, nk));
    }
    for n in [64, 96, 128, 192, 256] {
        add(format!("n{n}"), jacobi_rowsum(n));
    }
    // No generated network here, although the template would fit: the served
    // makespan of a `dense_chain` body was seen to differ by up to 3 % between
    // two fresh servers given the same request sequence by two concurrent
    // clients (README, "Findings"), and a workload must not contain
    // operations that fail. A second set of conv shapes takes its place.
    for (nk, npq, nc) in [
        (48, 7, 16),
        (16, 7, 48),
        (24, 14, 24),
        (64, 7, 32),
        (48, 14, 8),
    ] {
        add(format!("k{nk}p{npq}c{nc}"), conv7(nk, npq, nc));
    }
    if smoke {
        out.truncate(4);
    }
    out
}

/// `serve_cold`: all-distinct bodies — every template variant on a grid of
/// platform points, each with its own `seed` option. The seed jitters the bus
/// speeds, deals the option seeds and orders the requests.
pub fn serve_cold(seed: u64, smoke: bool) -> Vec<Body> {
    let mut rng = Rng::new(seed, "serve_cold");
    let variants = serve_variants(smoke);
    let buses: &[f64] = if smoke {
        &[1.0, 16.0]
    } else {
        &[1.0 / 16.0, 0.25, 1.0, 4.0, 16.0]
    };
    let mut out = Vec::new();
    for (name, src) in &variants {
        for (cores, spm_kib) in [(4, 64), (8, 128)] {
            for &bus in buses {
                let point = PlatformPoint {
                    cores,
                    spm_kib,
                    bus_gbytes: jitter(&mut rng, bus),
                };
                let row = format!("{name}@{cores}c_{bus}gb");
                let mut body = source_body(row, src, &point, Some(rng.next_u64() >> 24));
                // A 1-in-8 sample: with ten platform points per variant it
                // walks over all of them.
                body.checked = out.len() % 8 == 0;
                out.push(body);
            }
        }
    }
    rng.shuffle(&mut out);
    out
}

/// Names of the kernels bundled with the server.
const BUILTINS: [&str; 5] = ["cnn", "lstm", "maxpool", "sumpool", "rnn"];

/// `serve_warm`: the 16-body hot set — 14 bundled small kernels × platform
/// points plus two source kernels — and the request sequence drawn
/// Zipf(1.1) over it. Rank 1 is the first body; the seed jitters the bus
/// speeds and draws the sequence.
pub fn serve_warm(seed: u64, smoke: bool) -> (Vec<Body>, Vec<u32>) {
    let mut rng = Rng::new(seed, "serve_warm");
    let points = [(8, 128, 16.0), (8, 128, 1.0), (4, 64, 16.0)];
    let mut bodies: Vec<Body> = Vec::new();
    'fill: for (cores, spm_kib, bus) in points {
        for name in BUILTINS {
            if bodies.len() == 14 {
                break 'fill;
            }
            let point = PlatformPoint {
                cores,
                spm_kib,
                bus_gbytes: jitter(&mut rng, bus),
            };
            let text = Json::obj::<&str, Json>([
                ("kernel", Json::obj([("builtin", Json::from(name))])),
                ("platform", platform_json(&point)),
            ])
            .to_compact();
            bodies.push(Body {
                row: format!("{name}@{cores}c_{bus}gb"),
                text,
                checked: true,
            });
        }
    }
    for src in [conv7(16, 7, 16), gemm(32, 32, 32)] {
        let point = PlatformPoint::at_bus(jitter(&mut rng, 16.0));
        bodies.push(source_body(
            format!("{}@8c_16gb", src.ident),
            &src,
            &point,
            None,
        ));
    }
    // Interleave so that the source kernels are not the two coldest ranks.
    bodies.swap(3, 14);
    bodies.swap(9, 15);
    let weights: Vec<f64> = (1..=bodies.len()).map(|r| (r as f64).powf(-1.1)).collect();
    let total: f64 = weights.iter().sum();
    let requests = if smoke { 2_000 } else { 50_000 };
    let sequence = (0..requests)
        .map(|_| {
            let mut u = rng.unit() * total;
            let mut rank = 0;
            while rank + 1 < weights.len() && u >= weights[rank] {
                u -= weights[rank];
                rank += 1;
            }
            rank as u32
        })
        .collect();
    (bodies, sequence)
}
