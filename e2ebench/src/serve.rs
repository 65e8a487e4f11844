//! The serve workloads: the `rft-serve` daemon at its default flags
//! (bound to an ephemeral loopback port), driven by this one client
//! process over two HTTP/1.1 keep-alive connections.
//!
//! - `serve-hot`: open-loop Poisson arrivals at [`HOT_RATE`] of one-round
//!   jobs over eight `(circuit, g)` pairs the set-up has already compiled,
//!   so every timed lookup is a cache hit and the request path dominates.
//! - `serve-sweep`: a closed loop through a seeded list of distinct
//!   multi-round jobs spanning the threshold, so every job misses the
//!   compile cache and compile, lowering and the round loop dominate.
//!
//! Every streamed final line is re-derived offline with `run_job` after
//! the timed phase and must match byte for byte.

use crate::gen::{Digest, Rng};
use crate::probes::{self, toffoli};
use crate::stats::{self, per_window, quantile, Outcome};
use rft_analysis::experiment::CompileCache;
use rft_analysis::job::{run_job, CircuitSpec, FinalUpdate, JobRecord, JobSpec, NoiseSpec};
use rft_detect::{AdderKind, TrialMode};
use rft_obs::Collector;
use rft_revsim::engine::{BackendKind, Estimator, WordWidth};
use rft_revsim::gate::Gate;
use rft_revsim::wire::w;
use rft_serve::ServerConfig;
use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Client connections (and client threads): the machine's 2 cores.
const CONNECTIONS: usize = 2;

/// `serve-hot` offered load in requests per second: about a quarter of the
/// daemon's 2-connection closed-loop capacity on a 2-core x86-64 VM
/// (3,900–4,800 req/s). At half capacity, queueing amplified the host's
/// scheduling noise into a ~50% run-to-run spread of p50 and p99.
pub const HOT_RATE: f64 = 1000.0;

/// A hot run whose generator woke this late (p99, in most windows) fell
/// behind its own schedule: its latencies measure the client, not the
/// daemon.
const GEN_LATE_LIMIT_MS: f64 = 5.0;

/// Daemon set-ups timed per run (median reported).
const HOT_SETUP_SAMPLES: usize = 41;
const SWEEP_SETUP_SAMPLES: usize = 51;

/// Window of the serve-hot latency percentiles: one figure per window,
/// and the median over the calm windows is reported. A window is calm when
/// the hypervisor stole as little CPU time in it as in the calmest third
/// of the run ([`stats::calm_windows`]); a stolen CPU stalls every
/// request in flight, so the other windows measure the host.
const HOT_WINDOW_S: f64 = 1.0;

/// `serve-sweep` jobs listed per second of run length: about the
/// closed-loop throughput of the daemon on a 2-core x86-64 container, so
/// the fixed list takes about the run length there.
const SWEEP_JOBS_PER_S: f64 = 90.0;

/// Leading sweep jobs (in list order) whose final lines give the exact
/// per-seed counts of the traced run.
const SWEEP_COUNTED_JOBS: usize = 48;

/// Fixed sweep records re-run on a fresh cache for `job.cold_run_ms`.
const COLD_SAMPLE_JOBS: usize = 12;

/// A running daemon; killed and reaped on drop.
struct Daemon {
    child: Child,
    stdout: BufReader<ChildStdout>,
    addr: SocketAddr,
}

impl Daemon {
    /// Spawns the daemon and reads the bound address from its banner.
    fn spawn(path: &Path) -> Result<Daemon, String> {
        let mut child = Command::new(path)
            .args(["--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", path.display()))?;
        let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut banner = String::new();
        // Built before the banner check, so a bad banner still reaps the
        // child through `Drop`.
        let mut daemon = Daemon {
            child,
            stdout,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        daemon.addr = daemon
            .stdout
            .read_line(&mut banner)
            .ok()
            .and_then(|_| banner.trim().strip_prefix("listening on ")?.parse().ok())
            .ok_or_else(|| format!("unexpected daemon banner {banner:?}"))?;
        Ok(daemon)
    }

    /// Polls `GET /healthz` until the daemon reports `"ok"`.
    fn wait_healthy(&self) -> Result<(), String> {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let ok = Conn::connect(self.addr)
                .and_then(|mut c| c.get("/healthz"))
                .is_ok_and(|(status, body)| status == 200 && body.contains("\"status\":\"ok\""));
            if ok {
                return Ok(());
            }
            if Instant::now() >= deadline {
                return Err("daemon never reported healthy".into());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// The `GET /stats` counters.
    fn stats(&self) -> Result<BTreeMap<String, u64>, String> {
        let (status, body) = Conn::connect(self.addr)
            .and_then(|mut c| c.get("/stats"))
            .map_err(|e| format!("GET /stats: {e}"))?;
        if status != 200 {
            return Err(format!("GET /stats answered {status}"));
        }
        serde_json::from_str(&body).map_err(|e| format!("GET /stats body: {e}"))
    }

    fn peak_rss_mb(&self) -> f64 {
        stats::peak_rss_mb(&self.child.id().to_string())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Spawns `samples` daemons one after another, each timed from spawn
/// until healthy plus `warm`; returns the median and the last daemon.
fn timed_setup(
    path: &Path,
    samples: usize,
    warm: impl Fn(&Daemon) -> Result<(), String>,
) -> Result<(f64, Daemon), String> {
    let mut times = Vec::with_capacity(samples);
    let mut last = None;
    for _ in 0..samples {
        drop(last.take());
        let start = Instant::now();
        let daemon = Daemon::spawn(path)?;
        daemon.wait_healthy()?;
        warm(&daemon)?;
        times.push(start.elapsed().as_secs_f64());
        last = Some(daemon);
    }
    Ok((
        stats::median(&times),
        last.expect("at least one set-up sample"),
    ))
}

/// The difference of counter `key` between two `/stats` snapshots.
fn delta(before: &BTreeMap<String, u64>, after: &BTreeMap<String, u64>, key: &str) -> u64 {
    let get = |m: &BTreeMap<String, u64>| m.get(key).copied().unwrap_or(0);
    get(after).saturating_sub(get(before))
}

/// One client connection.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

/// The parsed head of one response.
struct Head {
    status: u16,
    content_length: usize,
    chunked: bool,
    keep_alive: bool,
}

/// Timestamps and payload of one `POST /jobs` exchange.
struct Reply {
    status: u16,
    sent: Instant,
    head_at: Instant,
    first_interval_at: Option<Instant>,
    last_interval_at: Option<Instant>,
    final_at: Option<Instant>,
    done_at: Instant,
    final_line: Option<String>,
    /// The chunked stream ended with its terminator.
    complete: bool,
    keep_alive: bool,
}

impl Reply {
    /// A `200` stream that ended cleanly with a final line.
    fn ok(&self) -> bool {
        self.status == 200 && self.complete && self.final_line.is_some()
    }
}

impl Conn {
    fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Conn {
            writer: stream.try_clone()?,
            reader: BufReader::with_capacity(64 * 1024, stream),
        })
    }

    fn line(&mut self) -> io::Result<String> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed",
            ));
        }
        Ok(line)
    }

    fn head(&mut self) -> io::Result<Head> {
        let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
        let status_line = self.line()?;
        let status = status_line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("bad status line"))?;
        let mut head = Head {
            status,
            content_length: 0,
            chunked: false,
            keep_alive: true,
        };
        loop {
            let line = self.line()?;
            let line = line.trim_end();
            if line.is_empty() {
                return Ok(head);
            }
            let (name, value) = line.split_once(':').ok_or_else(|| bad("bad header"))?;
            let value = value.trim();
            match name.to_ascii_lowercase().as_str() {
                "content-length" => {
                    head.content_length = value.parse().map_err(|_| bad("bad length"))?;
                }
                "transfer-encoding" => head.chunked = value.eq_ignore_ascii_case("chunked"),
                "connection" => head.keep_alive = !value.eq_ignore_ascii_case("close"),
                _ => {}
            }
        }
    }

    fn get(&mut self, path: &str) -> io::Result<(u16, String)> {
        self.writer
            .write_all(format!("GET {path} HTTP/1.1\r\nhost: 127.0.0.1\r\n\r\n").as_bytes())?;
        let head = self.head()?;
        let mut body = vec![0u8; head.content_length];
        self.reader.read_exact(&mut body)?;
        Ok((head.status, String::from_utf8_lossy(&body).into_owned()))
    }

    /// Sends one framed job request and reads its whole response,
    /// stamping the arrival of the head and of each NDJSON line.
    fn post(&mut self, request: &[u8]) -> io::Result<Reply> {
        self.writer.write_all(request)?;
        let sent = Instant::now();
        let head = self.head()?;
        let mut reply = Reply {
            status: head.status,
            sent,
            head_at: Instant::now(),
            first_interval_at: None,
            last_interval_at: None,
            final_at: None,
            done_at: sent,
            final_line: None,
            complete: false,
            keep_alive: head.keep_alive,
        };
        if !head.chunked {
            let mut body = vec![0u8; head.content_length];
            self.reader.read_exact(&mut body)?;
            reply.done_at = Instant::now();
            return Ok(reply);
        }
        let mut pending = Vec::new();
        loop {
            let size_line = self.line()?;
            let size = usize::from_str_radix(size_line.trim(), 16)
                .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "bad chunk size"))?;
            let mut chunk = vec![0u8; size + 2];
            self.reader.read_exact(&mut chunk)?;
            if size == 0 {
                reply.complete = true;
                break;
            }
            pending.extend_from_slice(&chunk[..size]);
            while let Some(end) = pending.iter().position(|&b| b == b'\n') {
                let line: Vec<u8> = pending.drain(..=end).collect();
                let line = String::from_utf8_lossy(&line[..end]).into_owned();
                let now = Instant::now();
                if line.starts_with("{\"kind\":\"interval\"") {
                    reply.first_interval_at.get_or_insert(now);
                    reply.last_interval_at = Some(now);
                } else if line.starts_with("{\"kind\":\"final\"") {
                    reply.final_at = Some(now);
                    reply.final_line = Some(line);
                } else {
                    eprintln!("job stream ended without a final line: {line}");
                }
            }
        }
        reply.done_at = Instant::now();
        Ok(reply)
    }
}

/// One generated job request.
struct Job {
    record: JobRecord,
    /// The framed HTTP request.
    request: Vec<u8>,
    /// Compile-cache lookups the job makes: program and engine for a
    /// concatenated program, the engine alone otherwise.
    lookups: u64,
}

impl Job {
    fn new(spec: JobSpec) -> Job {
        let lookups = if matches!(spec.circuit, CircuitSpec::Concat { .. }) {
            2
        } else {
            1
        };
        let record = JobRecord::new(spec);
        let body = serde_json::to_string(&record).expect("job records serialize");
        let request = format!(
            "POST /jobs HTTP/1.1\r\nhost: 127.0.0.1\r\ncontent-type: application/json\r\n\
             content-length: {}\r\n\r\n{body}",
            body.len()
        )
        .into_bytes();
        Job {
            record,
            request,
            lookups,
        }
    }
}

/// A hot job: one plain 4096-trial round.
fn hot_spec(circuit: CircuitSpec, g: f64, seed: u64) -> JobSpec {
    JobSpec {
        circuit,
        noise: NoiseSpec::Uniform { g },
        seed,
        estimator: Estimator::Plain,
        backend: BackendKind::Auto,
        width: WordWidth::Auto,
        trials_per_round: 4096,
        max_rounds: 1,
        target_rel_half_width: None,
        deadline_ms: None,
    }
}

fn cnot(control: u32, target: u32) -> Gate {
    Gate::Cnot {
        control: w(control),
        target: w(target),
    }
}

fn toffoli_onto(target: u32) -> Gate {
    let mut controls = (0..3).filter(|&i| i != target).map(w);
    Gate::Toffoli {
        controls: [
            controls.next().expect("two controls"),
            controls.next().expect("two controls"),
        ],
        target: w(target),
    }
}

/// The eight hot `(circuit, g)` pairs.
fn hot_pairs() -> Vec<(CircuitSpec, f64)> {
    let concat = |gate, cycles| CircuitSpec::Concat {
        level: 1,
        gate,
        cycles,
    };
    let detect = |kind, mode| CircuitSpec::DetectAdder {
        width: 4,
        kind,
        mode,
    };
    vec![
        (concat(toffoli(), 1), 1.0 / 165.0),
        (concat(toffoli(), 1), 1e-3),
        (concat(cnot(0, 1), 1), 1.0 / 165.0),
        (concat(toffoli_onto(0), 2), 2e-3),
        (CircuitSpec::Cycle { gate: toffoli() }, 1.0 / 165.0),
        (CircuitSpec::Cycle { gate: toffoli() }, 2e-3),
        (detect(AdderKind::Ripple, TrialMode::Detected), 2e-3),
        (
            detect(
                AdderKind::CarrySkip { block: 2 },
                TrialMode::UndetectedWrong,
            ),
            1e-3,
        ),
    ]
}

/// Per-connection Poisson schedules (`CONNECTIONS` streams at
/// `HOT_RATE / CONNECTIONS` each) of one-round jobs over the hot pairs,
/// each request with its own seed.
fn hot_schedule(seed: u64, seconds: f64) -> Vec<Vec<(Duration, Job)>> {
    let pairs = hot_pairs();
    let mut digest = Digest::new();
    let schedule = (0..CONNECTIONS)
        .map(|c| {
            let mut rng = Rng::new(seed, 0x4854 + c as u64);
            let mut t = 0.0;
            let mut jobs = Vec::new();
            loop {
                t += rng.exp_gap(HOT_RATE / CONNECTIONS as f64);
                if t >= seconds {
                    break jobs;
                }
                let (circuit, g) = pairs[rng.below(pairs.len())].clone();
                let job = Job::new(hot_spec(circuit, g, rng.job_seed()));
                let due = Duration::from_secs_f64(t);
                digest.update(&(c as u64).to_le_bytes());
                digest.update(&due.as_nanos().to_le_bytes());
                digest.update(&job.request);
                jobs.push((due, job));
            }
        })
        .collect();
    digest.print("serve-hot");
    schedule
}

/// One sent request: when it was due, how late the generator sent it,
/// and what came back (`None` when the connection broke).
struct Sample<'a> {
    job: &'a Job,
    due: Instant,
    gen_late: Duration,
    reply: Option<Reply>,
}

/// Sends `job` on `conn` (reconnecting first if the last one broke or was
/// closed), dropping the connection if it breaks or the daemon closes it.
fn exchange(conn: &mut Option<Conn>, addr: SocketAddr, job: &Job) -> Option<Reply> {
    if conn.is_none() {
        *conn = Conn::connect(addr).ok();
    }
    let reply = conn.as_mut()?.post(&job.request).ok();
    if !reply.as_ref().is_some_and(|r| r.keep_alive) {
        *conn = None;
    }
    reply
}

/// Open loop: each request is sent at its due time or as soon as the
/// connection frees up, whichever is later.
fn drive_open<'a>(addr: SocketAddr, jobs: &'a [(Duration, Job)], t0: Instant) -> Vec<Sample<'a>> {
    let mut conn = Conn::connect(addr).ok();
    let mut free_at = t0;
    let mut samples = Vec::with_capacity(jobs.len());
    for (offset, job) in jobs {
        let due = t0 + *offset;
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        let gen_late = Instant::now().saturating_duration_since(due.max(free_at));
        let reply = exchange(&mut conn, addr, job);
        free_at = Instant::now();
        samples.push(Sample {
            job,
            due,
            gen_late,
            reply,
        });
    }
    samples
}

/// Closed loop: each connection sends the next unsent job as soon as its
/// previous one completes, until the list is done.
fn drive_closed<'a>(
    addr: SocketAddr,
    jobs: &'a [Job],
    next: &AtomicUsize,
) -> Vec<(usize, Sample<'a>)> {
    let mut conn = Conn::connect(addr).ok();
    let mut samples = Vec::new();
    loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        let Some(job) = jobs.get(i) else { break };
        let due = Instant::now();
        let reply = exchange(&mut conn, addr, job);
        samples.push((
            i,
            Sample {
                job,
                due,
                gen_late: Duration::ZERO,
                reply,
            },
        ));
    }
    samples
}

/// Runs `drive` on `CONNECTIONS` client threads and pools their samples.
fn on_connections<T: Send>(drive: impl Fn(usize) -> Vec<T> + Sync) -> Vec<T> {
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                let drive = &drive;
                s.spawn(move || drive(c))
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    })
}

/// Re-runs every record offline and compares final lines byte for byte;
/// returns how many samples failed (any failure mode).
fn verify(samples: &[&Sample<'_>], out: &mut Outcome) -> u64 {
    let cache = CompileCache::bounded(256 << 20);
    let obs = Collector::disabled();
    let next = AtomicUsize::new(0);
    let mismatches: Vec<usize> = on_connections(|_| {
        let mut bad = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(sample) = samples.get(i) else {
                break bad;
            };
            let Some(line) = sample.reply.as_ref().and_then(|r| r.final_line.as_ref()) else {
                continue;
            };
            let offline = run_job(&cache, &obs, &sample.job.record, 1).map(|f| f.to_line());
            if offline.as_ref() != Ok(line) {
                bad.push(i);
            }
        }
    });
    if let Some(&i) = mismatches.first() {
        out.invalid(&format!(
            "{} served final lines differ from offline run_job, the first for {}",
            mismatches.len(),
            serde_json::to_string(&samples[i].job.record).unwrap_or_default()
        ));
    }
    let broken = samples
        .iter()
        .filter(|s| !s.reply.as_ref().is_some_and(Reply::ok))
        .count();
    (broken + mismatches.len()) as u64
}

/// The machine's CPU steal ticks in each `HOT_WINDOW_S` window from `t0`,
/// until `done` is set.
fn steal_per_window(t0: Instant, done: &AtomicBool) -> Vec<u64> {
    let mut marks = Vec::new();
    for k in 0u32.. {
        let at = t0 + Duration::from_secs_f64(HOT_WINDOW_S * f64::from(k));
        std::thread::sleep(at.saturating_duration_since(Instant::now()));
        marks.push(stats::steal_ticks());
        if done.load(Ordering::Relaxed) {
            break;
        }
    }
    marks
        .windows(2)
        .map(|m| m[1].saturating_sub(m[0]))
        .collect()
}

/// The median of per-window figures over the windows in `only`.
fn median_of(windows: &BTreeMap<u64, f64>, only: &[u64]) -> f64 {
    let values: Vec<f64> = windows
        .iter()
        .filter(|(k, _)| only.contains(k))
        .map(|(_, v)| *v)
        .collect();
    stats::median(&values)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Threads one served job holds per round (the daemon's defaults).
fn job_threads() -> usize {
    let cfg = ServerConfig::default();
    cfg.threads_per_job.min(cfg.threads).max(1)
}

/// `serve-hot`. The traced run adds client-side phase spans, generator
/// lateness, `/stats` health deltas and the serving-path probes.
pub fn hot(daemon: &Path, seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut out = Outcome::new();
    let schedule = hot_schedule(seed, seconds);
    let warm_jobs: Vec<Job> = hot_pairs()
        .into_iter()
        .map(|(circuit, g)| Job::new(hot_spec(circuit, g, seed)))
        .collect();
    let warm = |d: &Daemon| -> Result<(), String> {
        let mut conn = Conn::connect(d.addr).map_err(|e| format!("connect: {e}"))?;
        for job in &warm_jobs {
            match conn.post(&job.request) {
                Ok(r) if r.ok() => {}
                _ => return Err("warm-up request failed".into()),
            }
        }
        Ok(())
    };
    let (setup, daemon) = match timed_setup(daemon, HOT_SETUP_SAMPLES, warm) {
        Ok(s) => s,
        Err(e) => {
            out.invalid(&e);
            return out;
        }
    };
    let before = daemon.stats();
    let t0 = Instant::now() + Duration::from_millis(20);
    let done = AtomicBool::new(false);
    let (samples, steal) = std::thread::scope(|s| {
        let sampler = s.spawn(|| steal_per_window(t0, &done));
        let samples = on_connections(|c| drive_open(daemon.addr, &schedule[c], t0));
        done.store(true, Ordering::Relaxed);
        (samples, sampler.join().expect("steal sampler"))
    });
    let after = daemon.stats();
    let peak_rss = daemon.peak_rss_mb();
    drop(daemon);

    let refs: Vec<&Sample<'_>> = samples.iter().collect();
    let failed = verify(&refs, &mut out);
    out.count(samples.len() as u64, failed);
    let ok: Vec<(&Sample<'_>, &Reply)> = samples
        .iter()
        .filter_map(|s| s.reply.as_ref().filter(|r| r.ok()).map(|r| (s, r)))
        .collect();
    let latency: Vec<(f64, f64)> = ok
        .iter()
        .map(|(s, r)| ((s.due - t0).as_secs_f64(), ms(r.done_at - s.due)))
        .collect();
    let gen_late: Vec<(f64, f64)> = samples
        .iter()
        .map(|s| ((s.due - t0).as_secs_f64(), ms(s.gen_late)))
        .collect();
    let end = ok.iter().map(|(_, r)| r.done_at).max().unwrap_or(t0);
    let wall = end.saturating_duration_since(t0).as_secs_f64().max(1e-9);
    // Only the windows requests were due in; the drain after them is idle.
    let due_windows = (seconds / HOT_WINDOW_S).ceil() as usize;
    let calm = stats::calm_windows(&steal[..steal.len().min(due_windows)]);
    println!(
        "serve-hot: {} requests at {HOT_RATE} req/s offered, {} ok, latency samples = {}; \
         {} of {} windows calm, {} steal ticks",
        samples.len(),
        ok.len(),
        latency.len(),
        calm.len(),
        due_windows,
        steal.iter().sum::<u64>()
    );

    match (&before, &after) {
        (Ok(before), Ok(after)) => {
            let misses = delta(before, after, "cache_misses");
            let hits = delta(before, after, "cache_hits");
            let lookups: u64 = ok.iter().map(|(s, _)| s.job.lookups).sum();
            if misses != 0 || hits != lookups {
                out.invalid(&format!(
                    "serve-hot timed phase must only hit the cache: {hits} hits, \
                     {misses} misses, {lookups} lookups"
                ));
            }
            if traced {
                out.metric(
                    "hot.serve.shed",
                    delta(before, after, "shed") as f64,
                    "count",
                );
                out.metric(
                    "hot.serve.timeouts",
                    delta(before, after, "timeouts") as f64,
                    "count",
                );
                out.metric("hot.cache.misses", misses as f64, "count");
            }
        }
        (Err(e), _) | (_, Err(e)) => out.invalid(e),
    }
    // The generator must keep its schedule in the windows the latency
    // figures come from.
    let late_p99 = median_of(&per_window(&gen_late, HOT_WINDOW_S, 0.99), &calm);
    if late_p99 > GEN_LATE_LIMIT_MS {
        out.invalid(&format!(
            "invalid run: the generator fell behind (p99 lateness {late_p99:.3} ms)"
        ));
    }

    if traced {
        let phase = |f: &dyn Fn(&Reply) -> Option<f64>| -> Vec<f64> {
            ok.iter().filter_map(|(_, r)| f(r)).collect()
        };
        let head = phase(&|r| Some(us(r.head_at - r.sent)));
        let first = phase(&|r| Some(us(r.first_interval_at? - r.head_at)));
        let last = phase(&|r| Some(us(r.final_at? - r.last_interval_at?)));
        out.metric("server.head_us.p50", quantile(&head, 0.5), "us");
        out.metric("server.head_us.p99", quantile(&head, 0.99), "us");
        out.metric("server.first_line_us.p50", quantile(&first, 0.5), "us");
        out.metric("server.first_line_us.p99", quantile(&first, 0.99), "us");
        out.metric("server.final_us.p50", quantile(&last, 0.5), "us");
        out.metric("gen.late_ms.p99", late_p99, "ms");
        let (_, job) = &schedule[0][0];
        out.merge(probes::serve_layers(
            &job.request,
            &job.record,
            job_threads(),
        ));
    } else {
        out.metric("setup_s", setup, "s");
        out.metric("wall_s", wall, "s");
        out.metric(
            "p50_ms",
            median_of(&per_window(&latency, HOT_WINDOW_S, 0.5), &calm),
            "ms",
        );
        out.metric(
            "p99_ms",
            median_of(&per_window(&latency, HOT_WINDOW_S, 0.99), &calm),
            "ms",
        );
        out.metric("jobs_per_s", ok.len() as f64 / wall, "1/s");
        out.metric("peak_rss_mb", peak_rss, "MiB");
    }
    out
}

/// The circuit families of the sweep; each block of the job list holds
/// one job per (family, rate band).
const SWEEP_FAMILIES: usize = 6;
const SWEEP_BANDS: usize = 4;
const SWEEP_BLOCK: usize = SWEEP_FAMILIES * SWEEP_BANDS;
const G_LO: f64 = 1e-4;
const G_HI: f64 = 2e-2;

/// A seeded list of `count` distinct multi-round jobs in shuffled blocks,
/// so every prefix mixes the families and rate bands evenly.
fn sweep_jobs(seed: u64, count: usize) -> Vec<Job> {
    let mut rng = Rng::new(seed, 0x5357);
    let mut digest = Digest::new();
    let mut jobs = Vec::with_capacity(count);
    while jobs.len() < count {
        let mut cells: Vec<(usize, usize)> = (0..SWEEP_FAMILIES)
            .flat_map(|f| (0..SWEEP_BANDS).map(move |b| (f, b)))
            .collect();
        rng.shuffle(&mut cells);
        for (family, band) in cells {
            let band_lo = G_LO * (G_HI / G_LO).powf(band as f64 / SWEEP_BANDS as f64);
            let band_hi = G_LO * (G_HI / G_LO).powf((band + 1) as f64 / SWEEP_BANDS as f64);
            let g = rng.log_uniform(band_lo, band_hi);
            let circuit = match family {
                0..=3 => CircuitSpec::Concat {
                    level: 1 + (family / 2) as u8,
                    gate: if family % 2 == 0 {
                        toffoli_onto(rng.below(3) as u32)
                    } else {
                        let control = rng.below(3) as u32;
                        cnot(control, (control + 1 + rng.below(2) as u32) % 3)
                    },
                    cycles: 1 + rng.below(2),
                },
                4 => CircuitSpec::Cycle {
                    gate: toffoli_onto(rng.below(3) as u32),
                },
                _ => CircuitSpec::DetectAdder {
                    width: 4 + rng.below(5),
                    kind: [
                        AdderKind::Ripple,
                        AdderKind::CarrySkip { block: 2 },
                        AdderKind::Cla,
                    ][rng.below(3)],
                    mode: [
                        TrialMode::Detected,
                        TrialMode::UndetectedWrong,
                        TrialMode::Wrong,
                    ][rng.below(3)],
                },
            };
            let job = Job::new(JobSpec {
                estimator: Estimator::Auto,
                trials_per_round: 16384,
                max_rounds: 8,
                target_rel_half_width: Some(0.2),
                ..hot_spec(circuit, g, rng.job_seed())
            });
            digest.update(&job.request);
            jobs.push(job);
        }
    }
    jobs.truncate(count);
    digest.print("serve-sweep");
    jobs
}

/// `serve-sweep`. The traced run adds first-line latency, exact per-seed
/// counts from the leading final lines, `/stats` cache values and a
/// cold-cache `run_job` sample.
pub fn sweep(daemon: &Path, seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut out = Outcome::new();
    let count = ((SWEEP_JOBS_PER_S * seconds).ceil() as usize).max(SWEEP_COUNTED_JOBS);
    let jobs = sweep_jobs(seed, count);
    let (setup, daemon) = match timed_setup(daemon, SWEEP_SETUP_SAMPLES, |_| Ok(())) {
        Ok(s) => s,
        Err(e) => {
            out.invalid(&e);
            return out;
        }
    };
    let before = daemon.stats();
    let next = AtomicUsize::new(0);
    let t0 = Instant::now();
    let mut samples = on_connections(|_| drive_closed(daemon.addr, &jobs, &next));
    samples.sort_by_key(|(i, _)| *i);
    let after = daemon.stats();
    let peak_rss = daemon.peak_rss_mb();
    drop(daemon);

    let refs: Vec<&Sample<'_>> = samples.iter().map(|(_, s)| s).collect();
    let failed = verify(&refs, &mut out);
    out.count(samples.len() as u64, failed);
    let ok: Vec<(&Sample<'_>, &Reply)> = refs
        .iter()
        .filter_map(|s| s.reply.as_ref().filter(|r| r.ok()).map(|r| (*s, r)))
        .collect();
    let latency: Vec<f64> = ok.iter().map(|(s, r)| ms(r.done_at - s.due)).collect();
    // Block walls: the list completes block by block (cumulative latest
    // completion), and the median block is robust to a stall that slows
    // a few of them.
    let mut done = t0;
    let block_walls: Vec<f64> = refs
        .chunks_exact(SWEEP_BLOCK)
        .map(|block| {
            let last = block
                .iter()
                .filter_map(|s| Some(s.reply.as_ref()?.done_at))
                .max();
            let previous = done;
            done = done.max(last.unwrap_or(done));
            (done - previous).as_secs_f64()
        })
        .collect();
    let block_wall = stats::median(&block_walls).max(1e-9);
    println!(
        "serve-sweep: {} jobs in {:.2} s, {} ok, {} blocks of {SWEEP_BLOCK}",
        samples.len(),
        (done - t0).as_secs_f64(),
        ok.len(),
        block_walls.len()
    );

    match (&before, &after) {
        (Ok(before), Ok(after)) => {
            let misses = delta(before, after, "cache_misses");
            let hits = delta(before, after, "cache_hits");
            let lookups: u64 = ok.iter().map(|(s, _)| s.job.lookups).sum();
            if misses < ok.len() as u64 || hits + misses != lookups {
                out.invalid(&format!(
                    "serve-sweep must miss the cache once per job: {hits} hits, \
                     {misses} misses, {lookups} lookups, {} jobs",
                    ok.len()
                ));
            }
            if traced {
                out.metric("sweep.cache.misses", misses as f64, "count");
                out.metric(
                    "sweep.cache.evictions",
                    delta(before, after, "cache_evictions") as f64,
                    "count",
                );
                out.metric(
                    "sweep.cache.bytes",
                    after.get("cache_bytes").copied().unwrap_or(0) as f64,
                    "bytes",
                );
            }
        }
        (Err(e), _) | (_, Err(e)) => out.invalid(e),
    }

    if traced {
        let first: Vec<f64> = ok
            .iter()
            .filter_map(|(s, r)| Some(ms(r.first_interval_at? - s.due)))
            .collect();
        out.metric("server.first_line_ms.p50", quantile(&first, 0.5), "ms");
        out.metric("server.first_line_ms.p99", quantile(&first, 0.99), "ms");
        let counted: Vec<FinalUpdate> = refs
            .iter()
            .take(SWEEP_COUNTED_JOBS)
            .filter_map(|s| serde_json::from_str(s.reply.as_ref()?.final_line.as_ref()?).ok())
            .collect();
        if counted.len() < SWEEP_COUNTED_JOBS {
            out.invalid("the traced sweep completed too few jobs for its exact counts");
        }
        let n = counted.len().max(1) as f64;
        let sum = |f: &dyn Fn(&FinalUpdate) -> f64| counted.iter().map(f).sum::<f64>() / n;
        out.metric(
            "job.rounds_mean",
            sum(&|f| f64::from(f.result.rounds)),
            "count",
        );
        out.metric(
            "job.executed_words_mean",
            sum(&|f| f.result.executed_words as f64),
            "count",
        );
        out.metric(
            "job.converged_frac",
            sum(&|f| f64::from(u8::from(f.result.converged))),
            "ratio",
        );
        out.metric(
            "job.stratified_frac",
            sum(&|f| f64::from(u8::from(f.result.estimator == "stratified"))),
            "ratio",
        );
        let obs = Collector::disabled();
        let cold: Vec<f64> = jobs
            .iter()
            .take(COLD_SAMPLE_JOBS)
            .map(|job| {
                let cache = CompileCache::new();
                let start = Instant::now();
                let _ = std::hint::black_box(run_job(&cache, &obs, &job.record, job_threads()));
                ms(start.elapsed())
            })
            .collect();
        out.metric("job.cold_run_ms", stats::mean(&cold), "ms");
    } else {
        out.metric("setup_s", setup, "s");
        out.metric("wall_s", block_wall, "s");
        out.metric("p50_ms", quantile(&latency, 0.5), "ms");
        out.metric("p99_ms", quantile(&latency, 0.99), "ms");
        out.metric("jobs_per_s", SWEEP_BLOCK as f64 / block_wall, "1/s");
        out.metric("peak_rss_mb", peak_rss, "MiB");
    }
    out
}
