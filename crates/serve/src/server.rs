//! The daemon: accept loop, worker pool, routing, job streaming, and
//! graceful drain.
//!
//! Connections flow through a bounded pipeline: the accept loop pushes
//! each socket into a bounded [`ConnQueue`]; a fixed pool of
//! [`ServerConfig::workers`] threads pops and serves them with HTTP/1.1
//! keep-alive, so overload produces backpressure (queue fills → excess
//! connections are shed with `503` + `Retry-After`) instead of an
//! unbounded pile of OS threads. `POST /jobs` turns the connection into
//! an NDJSON stream: one chunk per completed estimator round (an
//! [`rft_analysis::job::IntervalUpdate`] line), then one `"final"` line
//! carrying the replayable [`JobRecord`] and pooled result — the line
//! `repro replay` reproduces byte-for-byte. A failed chunk write means
//! the client went away; the job is cancelled at the next round boundary
//! and its threads return to the budget.
//!
//! **Timeouts.** Every read of a request runs under a total
//! [`ServerConfig::request_timeout`] deadline (slow-loris heads and
//! byte-dribble bodies get a clean `408`), keep-alive connections that
//! stay quiet past [`ServerConfig::idle_timeout`] are closed, and jobs
//! carrying a `deadline_ms` (or capped by
//! [`ServerConfig::job_deadline`]) are cancelled at the next round
//! boundary with a `"cancelled"` line and a clean chunked terminator —
//! never a hung thread.
//!
//! **Admission control.** At most [`ServerConfig::max_jobs`] jobs stream
//! concurrently; excess job requests are shed with `503` +
//! `Retry-After` and counted in `serve.shed`. `GET /healthz` reports
//! `"degraded"` while shedding is likely.
//!
//! Shutdown is two-phase: [`ShutdownHandle::shutdown`] (the signal
//! handler's lever) stops the accept loop and closes the queue, then
//! in-flight jobs get [`ServerConfig::drain_timeout`] to finish before
//! they are force-cancelled and the process exits.

use crate::fair::ThreadBudget;
use crate::http::{self, ChunkedWriter, HttpError, Limits, Request, ResponseOpts};
use crate::pool::ConnQueue;
use rft_analysis::job::{run_job_streaming, CancelledUpdate, JobControl, JobRecord, JobSpec};
use rft_obs::{Collector, Gauge, Hist, Metric};
use serde::Serialize;
use std::collections::HashMap;
use std::io::{self, BufReader, Read};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// `Retry-After` seconds on shed responses: the queue turns over in
/// well under a second for every workload we serve, so an immediate-ish
/// retry is the honest hint.
const RETRY_AFTER_S: u32 = 1;

/// The longest a lingering close drains a peer (see [`linger_close`]).
const LINGER: Duration = Duration::from_millis(500);

/// Everything tunable about a daemon instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Global estimator-thread budget shared by all jobs.
    pub threads: usize,
    /// Threads one job holds per round (clamped to `threads`).
    pub threads_per_job: usize,
    /// Connection-handler pool size: the hard cap on concurrently
    /// served connections (a keep-alive stream holds its worker for the
    /// connection's lifetime).
    pub workers: usize,
    /// Bound on accepted-but-unserved connections; beyond it the accept
    /// loop sheds with `503` + `Retry-After`.
    pub accept_queue: usize,
    /// Bound on concurrently streaming jobs; beyond it `POST /jobs` is
    /// shed with `503` + `Retry-After`.
    pub max_jobs: usize,
    /// Total wall-clock budget for reading one request (head + body);
    /// exceeded → `408` and the connection closes.
    pub request_timeout: Duration,
    /// How long a keep-alive connection may sit quiet between requests
    /// before the server closes it.
    pub idle_timeout: Duration,
    /// Per-write socket timeout (a stalled reader cannot pin a worker).
    pub write_timeout: Duration,
    /// Server-side cap on any job's wall-clock deadline; the effective
    /// deadline is the minimum of this and the spec's `deadline_ms`.
    /// `None` leaves only client-requested deadlines.
    pub job_deadline: Option<Duration>,
    /// Compile-cache byte budget (`None` = unbounded).
    pub cache_bytes: Option<usize>,
    /// How long in-flight jobs may run after shutdown begins.
    pub drain_timeout: Duration,
    /// HTTP parsing limits.
    pub limits: Limits,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: std::thread::available_parallelism().map_or(2, |n| n.get()),
            threads_per_job: 2,
            workers: 16,
            accept_queue: 64,
            max_jobs: 16,
            request_timeout: Duration::from_secs(10),
            idle_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(30),
            job_deadline: None,
            cache_bytes: Some(256 * 1024 * 1024),
            drain_timeout: Duration::from_secs(5),
            limits: Limits::default(),
        }
    }
}

/// Shared server state: the process-wide cache, metrics, budget, queue,
/// and shutdown flags.
#[derive(Debug)]
struct State {
    config: ServerConfig,
    /// The resolved bind address (shutdown wakes the accept loop by
    /// connecting to it).
    local_addr: SocketAddr,
    cache: rft_analysis::experiment::CompileCache,
    obs: Collector,
    budget: ThreadBudget,
    /// Accepted connections waiting for a pool worker.
    queue: ConnQueue,
    /// Set once: stop accepting, begin the drain.
    shutdown: AtomicBool,
    /// Set at the drain deadline: cancel jobs at their next round.
    force_cancel: AtomicBool,
    /// Connections currently being handled (jobs included).
    connections_active: AtomicU64,
    /// Jobs currently streaming.
    jobs_active: AtomicU64,
    /// Monotonic job-id source for the start-time table.
    next_job: AtomicU64,
    /// Start instants of streaming jobs, keyed by job id — the source
    /// of the oldest-job-age gauge.
    job_started: Mutex<HashMap<u64, Instant>>,
}

/// A clonable lever that begins graceful shutdown (signal handlers and
/// tests hold one).
#[derive(Debug, Clone)]
pub struct ShutdownHandle {
    state: Arc<State>,
}

impl ShutdownHandle {
    /// Begins the drain: the accept loop stops and `run` returns once
    /// in-flight jobs finish or the drain timeout expires.
    pub fn shutdown(&self) {
        self.state.shutdown.store(true, Ordering::SeqCst);
        // The accept loop blocks in `accept`; a throwaway connection
        // wakes it so it observes the flag without polling.
        let _ = TcpStream::connect_timeout(&self.state.local_addr, Duration::from_millis(200));
    }
}

/// A bound, not-yet-running daemon.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    state: Arc<State>,
}

/// The `GET /stats` payload. Point-in-time values are sourced from the
/// obs gauge catalog (refreshed by [`snapshot_stats`]), totals from the
/// counter catalog.
#[derive(Debug, Clone, Serialize)]
struct Stats {
    jobs_active: u64,
    connections_active: u64,
    queued_connections: u64,
    oldest_job_ms: u64,
    requests: u64,
    rejected: u64,
    shed: u64,
    timeouts: u64,
    early_disconnects: u64,
    cache_hits: u64,
    cache_misses: u64,
    cache_evictions: u64,
    cache_bytes: u64,
    cache_programs: u64,
    cache_engines: u64,
    budget_capacity: u64,
    budget_available: u64,
    workers: u64,
    max_jobs: u64,
}

impl Server {
    /// Binds `config.addr` and builds the shared state (cache bounded to
    /// `config.cache_bytes`, budget of `config.threads`, accept queue of
    /// `config.accept_queue`).
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind(config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let obs = Collector::new();
        let cache = rft_analysis::experiment::CompileCache::with_collector_and_budget(
            obs.clone(),
            config.cache_bytes,
        );
        let budget = ThreadBudget::new(config.threads);
        let queue = ConnQueue::new(config.accept_queue);
        Ok(Server {
            listener,
            state: Arc::new(State {
                config,
                local_addr,
                cache,
                obs,
                budget,
                queue,
                shutdown: AtomicBool::new(false),
                force_cancel: AtomicBool::new(false),
                connections_active: AtomicU64::new(0),
                jobs_active: AtomicU64::new(0),
                next_job: AtomicU64::new(0),
                job_started: Mutex::new(HashMap::new()),
            }),
        })
    }

    /// The actually-bound address (resolves port 0).
    ///
    /// # Errors
    ///
    /// Propagates the socket query failure.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A shutdown lever for this server.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle {
            state: Arc::clone(&self.state),
        }
    }

    /// Spawns the worker pool, then runs the accept loop until shutdown
    /// and drains. Thread count is bounded for the server's lifetime:
    /// `workers` pool threads plus this accept thread — overload fills
    /// the queue and sheds instead of spawning.
    ///
    /// # Errors
    ///
    /// Propagates accept-loop transport errors (not per-connection ones).
    pub fn run(self) -> io::Result<()> {
        for _ in 0..self.state.config.workers.max(1) {
            let state = Arc::clone(&self.state);
            std::thread::spawn(move || worker_loop(&state));
        }
        loop {
            // Blocking accept: zero added latency per connection and no
            // idle polling. `ShutdownHandle::shutdown` wakes it with a
            // throwaway connection, dropped by the flag check below.
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    if self.state.shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    match self.state.queue.push(stream) {
                        Ok(depth) => self
                            .state
                            .obs
                            .set_gauge(Gauge::ServeQueueDepth, depth as f64),
                        Err(mut shed) => {
                            // Queue full: shed from the accept thread so
                            // the client gets an actionable answer now.
                            self.state.obs.incr(Metric::ServeShed);
                            let _ = shed.set_write_timeout(Some(Duration::from_secs(1)));
                            let _ = http::write_error_opts(
                                &mut shed,
                                503,
                                "accept queue full; retry later",
                                ResponseOpts {
                                    keep_alive: false,
                                    retry_after_s: Some(RETRY_AFTER_S),
                                },
                            );
                            linger_close(&shed);
                        }
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {
                    if self.state.shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                }
                Err(e) => {
                    self.state.queue.close();
                    return Err(e);
                }
            }
        }
        // Queued-but-unserved connections are dropped (never half-served)
        // and blocked workers wake to exit; workers serving a connection
        // observe the shutdown flag at their next request boundary.
        self.state.queue.close();
        self.drain();
        Ok(())
    }

    /// Waits out in-flight connections up to the drain timeout, then
    /// force-cancels remaining jobs and gives them a short grace period
    /// to notice at their next round boundary.
    fn drain(&self) {
        let deadline = Instant::now() + self.state.config.drain_timeout;
        while self.state.connections_active.load(Ordering::SeqCst) > 0 {
            if Instant::now() >= deadline {
                self.state.force_cancel.store(true, Ordering::SeqCst);
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        let grace = Instant::now() + Duration::from_secs(2);
        while self.state.connections_active.load(Ordering::SeqCst) > 0 && Instant::now() < grace {
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

/// One pool worker: pop connections until the queue closes.
fn worker_loop(state: &State) {
    while let Some(stream) = state.queue.pop() {
        // NDJSON streaming writes one small chunk per round; with Nagle
        // on, each chunk after the first waits on the peer's delayed ACK
        // (~40 ms) before leaving — disastrous for keep-alive latency.
        let _ = stream.set_nodelay(true);
        state
            .obs
            .set_gauge(Gauge::ServeQueueDepth, state.queue.depth() as f64);
        let active = state.connections_active.fetch_add(1, Ordering::SeqCst) + 1;
        state
            .obs
            .set_gauge(Gauge::ServeConnectionsActive, active as f64);
        handle_connection(state, stream);
        let active = state.connections_active.fetch_sub(1, Ordering::SeqCst) - 1;
        state
            .obs
            .set_gauge(Gauge::ServeConnectionsActive, active as f64);
    }
}

/// How waiting for a request's first byte ended.
enum Wait {
    /// A byte is readable: parse a request now.
    Ready,
    /// The peer closed (or the socket failed).
    Closed,
    /// Nothing arrived within the idle timeout.
    Idle,
    /// The server is shutting down.
    Shutdown,
}

/// Waits for the next request's first byte with the idle timeout,
/// checking the shutdown flag every ≤100 ms so draining closes idle
/// keep-alive connections promptly instead of after a full idle window.
/// Bytes already buffered (a pipelined request) count as readable.
fn wait_for_readable(state: &State, reader: &BufReader<DeadlineStream<'_>>) -> Wait {
    let stream = reader.get_ref().stream;
    let deadline = Instant::now() + state.config.idle_timeout;
    let mut byte = [0u8; 1];
    loop {
        if state.shutdown.load(Ordering::SeqCst) {
            return Wait::Shutdown;
        }
        if !reader.buffer().is_empty() {
            return Wait::Ready;
        }
        let now = Instant::now();
        if now >= deadline {
            return Wait::Idle;
        }
        let slice = (deadline - now).min(Duration::from_millis(100));
        if stream.set_read_timeout(Some(slice)).is_err() {
            return Wait::Closed;
        }
        match stream.peek(&mut byte) {
            Ok(0) => return Wait::Closed,
            Ok(_) => return Wait::Ready,
            Err(e) if http::is_timeout(&e) => continue,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return Wait::Closed,
        }
    }
}

/// A [`io::Read`] view of a `TcpStream` that re-arms the socket read
/// timeout to the remaining request deadline before every read: the
/// *total* time to read one request is bounded, so dribbling one byte
/// per poll (slow-loris) cannot hold a worker past the deadline.
struct DeadlineStream<'a> {
    stream: &'a TcpStream,
    deadline: Instant,
}

impl Read for DeadlineStream<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let remaining = self.deadline.saturating_duration_since(Instant::now());
        if remaining.is_zero() {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "request deadline exceeded",
            ));
        }
        self.stream.set_read_timeout(Some(remaining))?;
        (&mut &*self.stream).read(buf)
    }
}

/// Serves requests on one connection until it closes, idles out, errors,
/// or the server drains; all request errors end in a best-effort
/// response.
fn handle_connection(state: &State, stream: TcpStream) {
    let _ = stream.set_write_timeout(Some(state.config.write_timeout));
    // One buffered reader for the connection's life: a request head costs
    // one read, not two syscalls per byte, and the bytes of a pipelined
    // next request wait in its buffer for the next turn of the loop.
    let mut reader = BufReader::new(DeadlineStream {
        stream: &stream,
        deadline: Instant::now(),
    });
    while let Wait::Ready = wait_for_readable(state, &reader) {
        let started = Instant::now();
        state.obs.incr(Metric::ServeRequests);
        reader.get_mut().deadline = started + state.config.request_timeout;
        let keep = match http::read_request(&mut reader, &state.config.limits) {
            Err(e) => {
                if matches!(e, HttpError::Timeout) {
                    state.obs.incr(Metric::ServeTimeouts);
                }
                state.obs.incr(Metric::ServeRejected);
                let _ = http::write_error(&mut &stream, e.status(), e.reason());
                false
            }
            Ok(req) => route(state, &mut &stream, &req).unwrap_or(false),
        };
        state
            .obs
            .observe(Hist::RequestMicros, started.elapsed().as_micros() as u64);
        if !keep {
            break;
        }
    }
    linger_close(&stream);
}

/// Lingering close. A response sent before the request was fully read (a
/// shed connection, an oversized body, an unsupported encoding) leaves
/// unread bytes in our receive buffer, and closing then makes the kernel
/// send RST — which can destroy the response before the peer reads it.
/// So half-close and drain until the peer closes or goes quiet for
/// 250 ms, for at most [`LINGER`]: a peer that keeps dribbling cannot pin
/// the thread.
fn linger_close(stream: &TcpStream) {
    let _ = stream.shutdown(Shutdown::Write);
    let deadline = Instant::now() + LINGER;
    let mut sink = [0u8; 1024];
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero()
            || stream
                .set_read_timeout(Some(left.min(Duration::from_millis(250))))
                .is_err()
        {
            return;
        }
        if !matches!((&mut &*stream).read(&mut sink), Ok(n) if n > 0) {
            return;
        }
    }
}

/// Routes a parsed request; returns whether the connection stays open.
fn route(state: &State, stream: &mut &TcpStream, req: &Request) -> io::Result<bool> {
    let draining = state.shutdown.load(Ordering::SeqCst);
    let keep = req.keep_alive && !draining;
    let opts = ResponseOpts {
        keep_alive: keep,
        retry_after_s: None,
    };
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => {
            let body = healthz_body(state, draining);
            http::write_response_opts(stream, 200, "application/json", body.as_bytes(), opts)
                .map(|()| keep)
        }
        ("GET", "/stats") => {
            let stats = snapshot_stats(state);
            let body = serde_json::to_string(&stats).unwrap_or_else(|_| "{}".into());
            http::write_response_opts(stream, 200, "application/json", body.as_bytes(), opts)
                .map(|()| keep)
        }
        ("POST", "/jobs") => handle_job(state, stream, req, keep),
        ("POST", _) | ("GET", _) => {
            state.obs.incr(Metric::ServeRejected);
            http::write_error_opts(stream, 404, "no such endpoint", opts).map(|()| keep)
        }
        _ => {
            state.obs.incr(Metric::ServeRejected);
            http::write_error_opts(stream, 405, "method not allowed", opts).map(|()| keep)
        }
    }
}

/// The `GET /healthz` body: `"ok"` while the daemon has headroom,
/// `"degraded"` while draining or while shedding is likely (job cap
/// reached or accept queue full).
fn healthz_body(state: &State, draining: bool) -> String {
    let jobs = state.jobs_active.load(Ordering::SeqCst);
    let queued = state.queue.depth();
    let degraded =
        draining || jobs >= state.config.max_jobs as u64 || queued >= state.queue.capacity();
    format!(
        "{{\"status\":\"{}\",\"draining\":{},\"jobs_active\":{},\"max_jobs\":{},\
         \"queued_connections\":{},\"accept_queue\":{}}}",
        if degraded { "degraded" } else { "ok" },
        draining,
        jobs,
        state.config.max_jobs,
        queued,
        state.queue.capacity(),
    )
}

/// Builds the `/stats` snapshot: refreshes the point-in-time gauges,
/// then reads every serving stat back out of the obs catalog.
fn snapshot_stats(state: &State) -> Stats {
    let obs = &state.obs;
    obs.set_gauge(Gauge::ServeQueueDepth, state.queue.depth() as f64);
    let oldest_ms = state
        .job_started
        .lock()
        .expect("job table")
        .values()
        .map(|t| t.elapsed().as_millis() as u64)
        .max()
        .unwrap_or(0);
    obs.set_gauge(Gauge::ServeOldestJobMs, oldest_ms as f64);
    Stats {
        jobs_active: obs.gauge(Gauge::JobsActive) as u64,
        connections_active: obs.gauge(Gauge::ServeConnectionsActive) as u64,
        queued_connections: obs.gauge(Gauge::ServeQueueDepth) as u64,
        oldest_job_ms: obs.gauge(Gauge::ServeOldestJobMs) as u64,
        requests: obs.get(Metric::ServeRequests),
        rejected: obs.get(Metric::ServeRejected),
        shed: obs.get(Metric::ServeShed),
        timeouts: obs.get(Metric::ServeTimeouts),
        early_disconnects: obs.get(Metric::ServeEarlyDisconnects),
        cache_hits: state.cache.hits(),
        cache_misses: state.cache.misses(),
        cache_evictions: state.cache.evictions(),
        cache_bytes: state.cache.cached_bytes() as u64,
        cache_programs: state.cache.programs_cached() as u64,
        cache_engines: state.cache.engines_cached() as u64,
        budget_capacity: state.budget.capacity() as u64,
        budget_available: state.budget.available() as u64,
        workers: state.config.workers as u64,
        max_jobs: state.config.max_jobs as u64,
    }
}

/// Why a streaming job ended without a final line.
enum StreamEnd {
    /// Ran to completion; final line sent.
    Completed,
    /// A chunk write failed: the client disconnected early.
    Disconnected,
    /// The drain deadline force-cancelled it.
    Drained,
    /// The wall-clock deadline cancelled it; a `"cancelled"` line and a
    /// clean chunked terminator were sent.
    DeadlineExceeded,
}

/// `POST /jobs`: validate, admit, stream rounds, finish with the
/// replayable final line. Returns whether the connection stays open.
fn handle_job(
    state: &State,
    stream: &mut &TcpStream,
    req: &Request,
    keep: bool,
) -> io::Result<bool> {
    let obs = &state.obs;
    let opts = ResponseOpts {
        keep_alive: keep,
        retry_after_s: None,
    };
    let body = match std::str::from_utf8(&req.body) {
        Ok(s) => s,
        Err(_) => {
            obs.incr(Metric::ServeRejected);
            return http::write_error_opts(stream, 400, "body is not UTF-8", opts).map(|()| keep);
        }
    };
    // Accept a full record or (for curl ergonomics) a bare spec.
    let record = match serde_json::from_str::<JobRecord>(body) {
        Ok(r) => r,
        Err(_) => match serde_json::from_str::<JobSpec>(body) {
            Ok(spec) => JobRecord::new(spec),
            Err(e) => {
                obs.incr(Metric::ServeRejected);
                return http::write_error_opts(stream, 400, &format!("bad job JSON: {e}"), opts)
                    .map(|()| keep);
            }
        },
    };
    if let Err(msg) = record.validate() {
        obs.incr(Metric::ServeRejected);
        return http::write_error_opts(stream, 400, &msg, opts).map(|()| keep);
    }
    if state.shutdown.load(Ordering::SeqCst) {
        obs.incr(Metric::ServeRejected);
        return http::write_error_opts(stream, 503, "server is draining", ResponseOpts::default())
            .map(|()| false);
    }

    // Admission control: at most `max_jobs` concurrently streaming jobs;
    // the rest are shed with an actionable retry hint.
    let active = state.jobs_active.fetch_add(1, Ordering::SeqCst) + 1;
    if active > state.config.max_jobs as u64 {
        state.jobs_active.fetch_sub(1, Ordering::SeqCst);
        obs.incr(Metric::ServeShed);
        return http::write_error_opts(
            stream,
            503,
            "job capacity reached; retry later",
            ResponseOpts {
                keep_alive: keep,
                retry_after_s: Some(RETRY_AFTER_S),
            },
        )
        .map(|()| keep);
    }
    obs.set_gauge(Gauge::JobsActive, active as f64);
    let job_id = state.next_job.fetch_add(1, Ordering::SeqCst);
    state
        .job_started
        .lock()
        .expect("job table")
        .insert(job_id, Instant::now());

    let result = catch_unwind(AssertUnwindSafe(|| {
        stream_job(state, stream, &record, keep)
    }));

    state.job_started.lock().expect("job table").remove(&job_id);
    let active = state.jobs_active.fetch_sub(1, Ordering::SeqCst) - 1;
    obs.set_gauge(Gauge::JobsActive, active as f64);

    match result {
        Ok(end) => match end {
            Ok(StreamEnd::Completed) => Ok(keep),
            Ok(StreamEnd::Disconnected) => {
                obs.incr(Metric::ServeEarlyDisconnects);
                Ok(false)
            }
            Ok(StreamEnd::DeadlineExceeded) => {
                obs.incr(Metric::ServeTimeouts);
                Ok(false)
            }
            Ok(StreamEnd::Drained) => Ok(false),
            Err(e) => Err(e),
        },
        // A panic past validation would be an engine bug; the stream is
        // already committed, so all we can do is drop the connection —
        // truncated chunked encoding tells the client the job died.
        Err(_panic) => Ok(false),
    }
}

/// Runs the job rounds under the fairness discipline, streaming a line
/// per round. Returns how the stream ended.
fn stream_job(
    state: &State,
    stream: &mut &TcpStream,
    record: &JobRecord,
    keep: bool,
) -> io::Result<StreamEnd> {
    let obs = &state.obs;
    let mut out = ChunkedWriter::start_opts(
        &mut *stream,
        200,
        "application/x-ndjson",
        ResponseOpts {
            keep_alive: keep,
            retry_after_s: None,
        },
    )?;

    // The effective wall-clock deadline: the tighter of the client's
    // `deadline_ms` and the server-side cap. Checked at round
    // boundaries, and only for jobs that are not already done — a job
    // whose last round finishes late still completes (determinism over
    // punctuality).
    let job_deadline = [
        record.spec.deadline_ms.map(Duration::from_millis),
        state.config.job_deadline,
    ]
    .into_iter()
    .flatten()
    .min()
    .map(|d| Instant::now() + d);

    // Round-robin fairness: hold a budget permit only per round,
    // re-queueing (strict FIFO) between rounds so concurrent jobs
    // interleave instead of the first admission monopolizing the budget.
    let want = state.config.threads_per_job;
    let mut permit = Some(state.budget.acquire(want));
    let threads = permit.as_ref().map_or(1, |p| p.threads());
    let mut end = StreamEnd::Completed;
    let mut last_round = 0u32;

    let outcome = run_job_streaming(&state.cache, obs, record, threads, |update| {
        if state.force_cancel.load(Ordering::SeqCst) {
            end = StreamEnd::Drained;
            return JobControl::Cancel;
        }
        let mut line = serde_json::to_string(update).unwrap_or_default();
        line.push('\n');
        if out.send(line.as_bytes()).is_err() {
            end = StreamEnd::Disconnected;
            return JobControl::Cancel;
        }
        last_round = update.round;
        if !update.done {
            if let Some(d) = job_deadline {
                if Instant::now() >= d {
                    end = StreamEnd::DeadlineExceeded;
                    return JobControl::Cancel;
                }
            }
            permit = None; // release before re-queueing
            permit = Some(state.budget.acquire(want));
        }
        JobControl::Continue
    });
    drop(permit);

    match outcome {
        // Validation already passed, so Err is unreachable; treat it
        // like a completed-with-error stream for robustness.
        Err(msg) => {
            out.finish_with(
                format!(
                    "{{\"kind\":\"error\",\"error\":{}}}\n",
                    serde_json::to_string(&msg).unwrap_or_else(|_| "\"error\"".into())
                )
                .as_bytes(),
            )?;
            Ok(StreamEnd::Completed)
        }
        Ok(None) => {
            if matches!(end, StreamEnd::DeadlineExceeded) {
                // A deadline cancel still ends the stream cleanly: the
                // client learns why, and the chunked framing terminates.
                let mut line =
                    CancelledUpdate::new("deadline exceeded", last_round, record.spec.max_rounds)
                        .to_line();
                line.push('\n');
                let _ = out.finish_with(line.as_bytes());
            }
            // Disconnected/drained: no terminating chunk — truncation is
            // the signal.
            Ok(end)
        }
        Ok(Some(final_update)) => {
            let mut line = final_update.to_line();
            line.push('\n');
            if out.finish_with(line.as_bytes()).is_err() {
                return Ok(StreamEnd::Disconnected);
            }
            Ok(StreamEnd::Completed)
        }
    }
}
