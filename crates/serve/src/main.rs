//! `rft-serve` — the estimation daemon's CLI entry point.
//!
//! ```text
//! rft-serve [--addr HOST:PORT] [--threads N] [--threads-per-job N]
//!           [--workers N] [--accept-queue N] [--max-jobs N]
//!           [--request-timeout-ms MS] [--idle-timeout-ms MS]
//!           [--job-deadline-ms MS] [--cache-mb MB]
//!           [--drain-timeout SECS]
//! ```
//!
//! `--threads` is the estimator-thread budget all jobs share.
//! `--threads-per-job` is the most threads one job round uses: a lone job
//! gets it, and concurrent jobs split the budget fairly, down to one
//! thread each.
//!
//! Prints `listening on <addr>` once bound (the smoke script parses this
//! to discover an ephemeral port), then serves until SIGINT/SIGTERM,
//! drains in-flight jobs up to `--drain-timeout`, and exits 0.

use rft_serve::{Server, ServerConfig};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Set by the signal handler; polled by the watcher thread.
static SIGNALLED: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
fn install_signal_handlers() {
    // The vendored workspace has no libc crate; bind the two POSIX calls
    // we need directly. Handlers may only do async-signal-safe work —
    // a relaxed store qualifies.
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    extern "C" fn on_signal(_signum: i32) {
        SIGNALLED.store(true, Ordering::Relaxed);
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGINT, on_signal as *const () as usize);
        signal(SIGTERM, on_signal as *const () as usize);
    }
}

#[cfg(not(unix))]
fn install_signal_handlers() {}

fn usage() -> ! {
    eprintln!(
        "usage: rft-serve [--addr HOST:PORT] [--threads N] [--threads-per-job N] \
         [--workers N] [--accept-queue N] [--max-jobs N] [--request-timeout-ms MS] \
         [--idle-timeout-ms MS] [--job-deadline-ms MS] [--cache-mb MB] \
         [--drain-timeout SECS]"
    );
    eprintln!("  --threads N          estimator-thread budget shared by all jobs");
    eprintln!("  --threads-per-job N  most threads one job round uses: a lone job gets");
    eprintln!("                       them, concurrent jobs split --threads fairly");
    std::process::exit(2);
}

fn parse_config() -> ServerConfig {
    let mut config = ServerConfig {
        addr: "127.0.0.1:7070".to_string(),
        ..ServerConfig::default()
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{name} requires a value");
                usage()
            })
        };
        match flag.as_str() {
            "--addr" => config.addr = value("--addr"),
            "--threads" => match value("--threads").parse() {
                Ok(n) if n >= 1 => config.threads = n,
                _ => usage(),
            },
            "--threads-per-job" => match value("--threads-per-job").parse() {
                Ok(n) if n >= 1 => config.threads_per_job = n,
                _ => usage(),
            },
            "--workers" => match value("--workers").parse() {
                Ok(n) if n >= 1 => config.workers = n,
                _ => usage(),
            },
            "--accept-queue" => match value("--accept-queue").parse() {
                Ok(n) if n >= 1 => config.accept_queue = n,
                _ => usage(),
            },
            "--max-jobs" => match value("--max-jobs").parse() {
                Ok(n) if n >= 1 => config.max_jobs = n,
                _ => usage(),
            },
            "--request-timeout-ms" => match value("--request-timeout-ms").parse::<u64>() {
                Ok(ms) if ms >= 1 => config.request_timeout = Duration::from_millis(ms),
                _ => usage(),
            },
            "--idle-timeout-ms" => match value("--idle-timeout-ms").parse::<u64>() {
                Ok(ms) if ms >= 1 => config.idle_timeout = Duration::from_millis(ms),
                _ => usage(),
            },
            "--job-deadline-ms" => match value("--job-deadline-ms").parse::<u64>() {
                Ok(0) => config.job_deadline = None,
                Ok(ms) => config.job_deadline = Some(Duration::from_millis(ms)),
                Err(_) => usage(),
            },
            "--cache-mb" => match value("--cache-mb").parse::<usize>() {
                Ok(0) => config.cache_bytes = None,
                Ok(mb) => config.cache_bytes = Some(mb * 1024 * 1024),
                Err(_) => usage(),
            },
            "--drain-timeout" => match value("--drain-timeout").parse::<u64>() {
                Ok(secs) => config.drain_timeout = Duration::from_secs(secs),
                Err(_) => usage(),
            },
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag: {other}");
                usage()
            }
        }
    }
    config
}

fn main() {
    install_signal_handlers();
    let config = parse_config();
    let server = match Server::bind(config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("bind failed: {e}");
            std::process::exit(1);
        }
    };
    let addr = server.local_addr().expect("bound socket has an address");
    println!("listening on {addr}");

    let handle = server.shutdown_handle();
    std::thread::spawn(move || {
        while !SIGNALLED.load(Ordering::Relaxed) {
            std::thread::sleep(Duration::from_millis(50));
        }
        eprintln!("signal received; draining");
        handle.shutdown();
    });

    if let Err(e) = server.run() {
        eprintln!("accept loop failed: {e}");
        std::process::exit(1);
    }
    eprintln!("drained; bye");
}
