//! `rft-e2ebench` — the repository's end-to-end benchmark harness.
//!
//! ```text
//! rft-e2ebench --workload serve-hot|serve-sweep --seed N
//!              --seconds S --trace 0|1 --daemon PATH
//! ```
//!
//! Generates the workload's inputs from `--seed`, measures for about
//! `--seconds`, checks every output, and prints one JSON result as its
//! last stdout line: `{"correct", "attempted", "failed", "metrics"}`.
//! With `--trace 0` the metrics are the end-to-end ones of the workload
//! (set-up, wall, latency percentiles, throughput, peak memory); with
//! `--trace 1` they are the per-layer ledger, which is the same on every
//! workload: each Monte-Carlo experiment of the full-fidelity registry
//! alone under a live collector, the whole registry with the collector on
//! and off, direct probes of each layer's public calls, and traced
//! serve-hot and serve-sweep phases. `--daemon` names the built
//! `rft-serve` binary. `run.py` builds both binaries and supplies it.
//!
//! Exit codes: 0 with a result line, 2 on a usage error.

mod gen;
mod probes;
mod repro;
mod serve;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    daemon: PathBuf,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut daemon = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or_else(bad)?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            "--daemon" => daemon = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(2005),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
        daemon: daemon.ok_or("--daemon is required")?,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("rft-e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    let (seed, seconds) = (args.seed, args.seconds);
    let outcome = match (args.workload.as_str(), args.trace) {
        ("serve-hot", false) => serve::hot(&args.daemon, seed, seconds, false),
        ("serve-sweep", false) => serve::sweep(&args.daemon, seed, seconds, false),
        ("serve-hot" | "serve-sweep", true) => {
            // The traced serve phases run for half the run length each.
            let mut ledger = repro::ledger(seed);
            ledger.merge(probes::engine_layers(seed));
            ledger.merge(serve::hot(&args.daemon, seed, seconds / 2.0, true));
            ledger.merge(serve::sweep(&args.daemon, seed, seconds / 2.0, true));
            ledger
        }
        (other, _) => {
            eprintln!("rft-e2ebench: unknown workload {other:?}");
            return ExitCode::from(2);
        }
    };
    println!("{}", outcome.to_json());
    ExitCode::SUCCESS
}
