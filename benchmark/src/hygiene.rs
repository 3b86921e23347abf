//! Environment hygiene: what is measured is what users get.

use prem_obs::Json;
use std::process::Command;

/// Removes every `PREM_*` variable from this process's environment, before
/// any thread exists. Those variables are bench-only knobs (`PREM_BATCHED`,
/// `PREM_SOA`, `PREM_SERVE_POOL`, …) that no library or server user sets.
pub fn strip_prem_env() {
    let knobs: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("PREM_"))
        .collect();
    for knob in knobs {
        std::env::remove_var(knob);
    }
}

/// The `key = value` lines of a manifest's `[profile.release]` table, sorted.
fn release_profile(manifest: &str) -> Option<Vec<String>> {
    let text = std::fs::read_to_string(manifest).ok()?;
    let mut lines: Vec<String> = text
        .lines()
        .map(str::trim)
        .skip_while(|l| *l != "[profile.release]")
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| l.split_whitespace().collect::<String>())
        .collect();
    lines.sort();
    Some(lines)
}

/// Refuses a debug build, and a build whose release profile differs from the
/// repository's: both would measure something users do not run. Also the
/// reason the harness exits without a result outside a full checkout.
pub fn refuse_unlike_builds() {
    if cfg!(debug_assertions) {
        eprintln!("prem-benchmark: refusing to measure a debug build; use benchmark/run.sh");
        std::process::exit(3);
    }
    let root = release_profile("Cargo.toml");
    let own = release_profile("benchmark/Cargo.toml");
    if root.is_none() || root != own {
        eprintln!(
            "prem-benchmark: [profile.release] of Cargo.toml ({root:?}) and of \
             benchmark/Cargo.toml ({own:?}) must both exist and be equal; run from the \
             repository root"
        );
        std::process::exit(3);
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

/// Where and on what the results were measured.
pub fn stamp(seed: u64) -> Json {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    Json::obj::<&str, Json>([
        ("nproc", Json::from(nproc)),
        ("clients", Json::from(nproc)),
        ("rustc", Json::from(command_line("rustc", &["-V"]))),
        (
            "git_commit",
            Json::from(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("seed", Json::from(seed as usize)),
    ])
}
