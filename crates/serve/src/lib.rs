//! # rft-serve — estimation-as-a-service for the reproduction
//!
//! A long-running daemon that accepts logical-error-rate estimation jobs
//! over a minimal HTTP/1.1 + JSON protocol (hand-rolled on
//! `std::net::TcpListener` — the build is offline, so no HTTP or async
//! dependency exists) and streams confidence intervals back as estimator
//! rounds complete. The pieces:
//!
//! - [`http`] — the allocation-bounded request parser (never panics on
//!   any byte sequence; proptest-pinned), keep-alive-aware fixed and
//!   chunked response writers, and the chunked decoder the tests reuse;
//! - [`pool`] — the bounded accept queue behind the fixed worker pool:
//!   overload fills the queue and sheds with `503` + `Retry-After`
//!   instead of spawning unbounded threads;
//! - [`fair`] — the FIFO-ticketed global [`ThreadBudget`](fair::ThreadBudget):
//!   jobs hold worker threads per *round*, not per job, and each round
//!   gets a fair share of the budget among the running jobs, so
//!   concurrent jobs run side by side;
//! - [`server`] — routing (`GET /healthz`, `GET /stats`, `POST /jobs`),
//!   HTTP/1.1 keep-alive connection handling with request/idle
//!   timeouts, admission control over concurrent jobs, per-job
//!   wall-clock deadlines (cancelled jobs end with a clean
//!   `"cancelled"` line), the per-round streaming loop over
//!   [`run_job_streaming`](rft_analysis::job::run_job_streaming), early
//!   disconnect cancellation, and two-phase graceful drain.
//!
//! Jobs share one process-wide
//! [`CompileCache`](rft_analysis::experiment::CompileCache) bounded in
//! bytes by the cost-based GreedyDual-Size LRU
//! ([`CostLru`](rft_analysis::cache::CostLru)), and every served answer
//! embeds its [`JobRecord`](rft_analysis::job::JobRecord) so
//! `repro replay job.json` reproduces the final line byte-identically
//! offline. Determinism, protocol robustness, overload/fault handling,
//! and the replay equality are pinned by `tests/loopback.rs`,
//! `tests/protocol.rs`, `tests/chaos.rs`, and the `serve_smoke.py` /
//! `serve_chaos.py` scripts in CI.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod fair;
pub mod http;
pub mod pool;
pub mod server;

pub use server::{Server, ServerConfig, ShutdownHandle};
