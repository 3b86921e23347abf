//! The repo benchmark: drives the PREM compiler and `prem-serve` the way
//! their two kinds of user do, on four named workloads, and reports
//! end-to-end and per-layer metrics measured from outside. See `README.md`
//! in this directory.
//!
//! ```text
//! prem-benchmark --workload W --seed N --seconds S --trace 0|1   one run (BENCHMARK.json contract)
//! prem-benchmark [--seed N] [--workload W] [--smoke] [--repeat K]  the whole suite
//! ```

mod compile;
mod hygiene;
mod kernels;
mod report;
mod rng;
mod run_compile;
mod run_serve;
mod schema;
mod stats;
mod suite;
mod trace;

use prem_obs::Json;
use report::RunOutput;
use std::time::Instant;

/// The four workloads; names are fixed, later issues refer to them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ConvDeep,
    NestWide,
    ServeCold,
    ServeWarm,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ConvDeep,
        Workload::NestWide,
        Workload::ServeCold,
        Workload::ServeWarm,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ConvDeep => "conv_deep",
            Workload::NestWide => "nest_wide",
            Workload::ServeCold => "serve_cold",
            Workload::ServeWarm => "serve_warm",
        }
    }

    fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Arguments of one workload run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub seed: u64,
    /// Length of the timed section; a traced run splits it between untraced
    /// and traced passes.
    pub seconds: f64,
    pub trace: bool,
    /// Tiny sizes, for checking the harness itself.
    pub smoke: bool,
    /// Rewrite `benchmark/expected/<workload>-seed<N>.json` from this run.
    pub write_expected: bool,
    /// Seconds `run.sh` spent in `cargo build`, reported as `harness.build_s`.
    pub build_s: f64,
}

impl RunArgs {
    /// Time for the untraced passes: end-to-end numbers come from passes with
    /// tracing off, and a traced run spends the second half of its time on
    /// traced ones.
    pub fn untraced_seconds(&self) -> f64 {
        if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        }
    }
}

/// Command line of either mode.
struct Cli {
    workload: Option<Workload>,
    run: RunArgs,
    trace_given: bool,
    repeat: usize,
}

fn usage(problem: &str) -> ! {
    eprintln!("prem-benchmark: {problem}");
    eprintln!(
        "usage: prem-benchmark --workload NAME --seed N --seconds S --trace 0|1\n       \
         prem-benchmark [--seed N] [--workload NAME] [--smoke] [--repeat K]\n       \
         prem-benchmark --emit-benchmark-json\n\
         workloads: conv_deep nest_wide serve_cold serve_warm"
    );
    std::process::exit(2);
}

fn parse_cli() -> Cli {
    let mut cli = Cli {
        workload: None,
        run: RunArgs {
            seed: 12,
            seconds: schema::RUN_SECONDS as f64,
            trace: false,
            smoke: false,
            write_expected: false,
            build_s: 0.0,
        },
        trace_given: false,
        repeat: 1,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |what: &str| {
            args.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs {what}")))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name");
                cli.workload = Some(
                    Workload::parse(&name)
                        .unwrap_or_else(|| usage(&format!("unknown workload {name:?}"))),
                );
            }
            "--seed" => {
                cli.run.seed = value("a number")
                    .parse()
                    .unwrap_or_else(|_| usage("--seed needs a whole number"));
            }
            "--seconds" => {
                cli.run.seconds = value("a number")
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .unwrap_or_else(|| usage("--seconds needs a positive number"));
            }
            "--trace" => {
                cli.trace_given = true;
                cli.run.trace = match value("0 or 1").as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace needs 0 or 1"),
                };
            }
            "--repeat" => {
                cli.repeat = value("a count")
                    .parse()
                    .ok()
                    .filter(|k| *k >= 1)
                    .unwrap_or_else(|| usage("--repeat needs a count of at least 1"));
            }
            "--build-s" => {
                cli.run.build_s = value("seconds")
                    .parse()
                    .unwrap_or_else(|_| usage("--build-s needs a number"));
            }
            "--smoke" => cli.run.smoke = true,
            "--write-expected" => cli.run.write_expected = true,
            "--emit-benchmark-json" => {
                print!("{}", schema::benchmark_json());
                std::process::exit(0);
            }
            other => usage(&format!("unknown argument {other:?}")),
        }
    }
    cli
}

/// How many times a run sets up; `setup_s` is the median.
const SETUPS: usize = 3;

fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Sets up `SETUPS` times, discarding all but the last set-up, and returns
/// it with the median set-up time. The first set-up is timed from process
/// start.
fn median_setup<S>(epoch: Instant, setup: impl Fn() -> S, discard: impl Fn(S)) -> (S, f64) {
    let mut times = Vec::new();
    let mut clock = epoch;
    let mut last = setup();
    for _ in 1..SETUPS {
        times.push(clock.elapsed().as_secs_f64());
        discard(last);
        clock = Instant::now();
        last = setup();
    }
    times.push(clock.elapsed().as_secs_f64());
    (last, stats::median(&times))
}

fn run_workload(workload: Workload, args: &RunArgs, epoch: Instant) -> RunOutput {
    let (mut out, setup_s) = match workload {
        Workload::ConvDeep | Workload::NestWide => {
            let (setup, setup_s) = median_setup(epoch, || run_compile::setup(workload, args), drop);
            (run_compile::run(workload, args, setup, epoch), setup_s)
        }
        Workload::ServeCold | Workload::ServeWarm => {
            let (setup, setup_s) = median_setup(
                epoch,
                || run_serve::setup(workload, args),
                run_serve::Setup::discard,
            );
            (run_serve::run(workload, args, setup, epoch), setup_s)
        }
    };
    out.metrics.set("setup_s", setup_s);
    out.metrics.set("peak_rss_mib", peak_rss_mib());
    out
}

/// Each workload provably stresses what its row in the README says; checked
/// on traced full-size runs, where the per-layer numbers exist.
fn self_assertions(workload: Workload, out: &mut RunOutput) {
    let value = |name: &str| out.metrics.get(name).unwrap_or(f64::NAN);
    let mut claims: Vec<(String, bool)> = Vec::new();
    match workload {
        Workload::ConvDeep => {
            let share = value("harness.search_share");
            claims.push((
                format!("tiling_search share {share:.3} >= 0.95"),
                share >= 0.95,
            ));
        }
        Workload::NestWide => {
            let share = value("harness.search_share");
            claims.push((
                format!("tiling_search share {share:.3} <= 0.75"),
                share <= 0.75,
            ));
        }
        Workload::ServeCold => {
            let (hits, computed) = (value("serve.response_cache_hits"), value("serve.computed"));
            claims.push((format!("response cache hits {hits} == 0"), hits == 0.0));
            claims.push((format!("computed {computed} == 400"), computed == 400.0));
        }
        Workload::ServeWarm => {
            let (share, computed) = (value("serve.hit_share"), value("serve.computed"));
            claims.push((format!("hit share {share:.4} >= 0.99"), share >= 0.99));
            claims.push((format!("computed {computed} == 16"), computed == 16.0));
        }
    }
    if matches!(workload, Workload::ServeCold | Workload::ServeWarm) {
        for name in [
            "serve.rejected",
            "serve.timeouts",
            "serve.errors",
            "serve.panics",
        ] {
            claims.push((format!("{name} {} == 0", value(name)), value(name) == 0.0));
        }
    }
    for (claim, holds) in claims {
        out.checks.check(holds, || {
            format!("{} self-assertion: {claim}", workload.name())
        });
        if holds {
            println!("holds {}: {claim}", workload.name());
        }
    }
    let overhead = value("harness.tracing_overhead_share");
    if overhead > 0.05 {
        println!("WARN tracing overhead {overhead:.3} above 0.05 (run-to-run noise included)");
    }
}

/// One run under the `BENCHMARK.json` contract: prints rows and metrics, then
/// the result object as the last line of standard output.
fn single_run(workload: Workload, args: &RunArgs, epoch: Instant) {
    let mut out = run_workload(workload, args, epoch);
    let table: Vec<&str> = if args.trace {
        out.metrics.set("harness.build_s", args.build_s);
        if !args.smoke {
            self_assertions(workload, &mut out);
        }
        schema::PER_LAYER.iter().map(|&(n, ..)| n).collect()
    } else {
        schema::END_TO_END.iter().map(|&(n, ..)| n).collect()
    };
    for row in &out.rows {
        println!(
            "row {} {} median_ms {:.4} samples {} sim_makespan_ns {:.1} out_bytes {}",
            workload.name(),
            row.name,
            row.median_ms,
            row.samples,
            row.sim_makespan_ns,
            row.out_bytes
        );
    }
    let mut metrics = Vec::new();
    for name in table {
        // A layer this workload does not exercise reports 0.
        let value = out.metrics.get(name).unwrap_or(0.0);
        let unit = schema::unit_of(name).expect("metric is in the schema");
        println!("{} {name} {value} {unit}", workload.name());
        metrics.push((
            name.to_string(),
            Json::obj::<&str, Json>([("value", Json::from(value)), ("unit", Json::from(unit))]),
        ));
    }
    let result = Json::obj::<&str, Json>([
        ("correct", Json::from(out.checks.failed == 0)),
        ("attempted", Json::from(out.checks.attempted as usize)),
        ("failed", Json::from(out.checks.failed as usize)),
        ("metrics", Json::Obj(metrics)),
    ]);
    println!("{}", result.to_compact());
}

fn main() {
    let epoch = Instant::now();
    hygiene::strip_prem_env();
    let cli = parse_cli();
    hygiene::refuse_unlike_builds();
    if cli.trace_given {
        let workload = cli
            .workload
            .unwrap_or_else(|| usage("--trace needs --workload"));
        single_run(workload, &cli.run, epoch);
    } else {
        let ok = suite::run(cli.workload, &cli.run, cli.repeat);
        std::process::exit(if ok { 0 } else { 1 });
    }
}
