//! Deterministic fault injection against a live daemon: connection
//! floods, slow-loris headers, byte-dribble bodies, mid-stream
//! disconnects, deadline cancellations, and seeded garbage — every
//! scenario asserts the daemon answers cleanly (typed 4xx/503 or a
//! well-terminated stream), survives, and never grows threads past the
//! pool bound. Randomized cases derive from a fixed splitmix64 seed so
//! failures replay.

mod common;

use common::{body_lines, read_framed};
use rft_analysis::experiment::CompileCache;
use rft_analysis::job::{run_job, CircuitSpec, JobRecord, JobSpec, NoiseSpec};
use rft_obs::Collector;
use rft_revsim::engine::{BackendKind, Estimator, WordWidth};
use rft_revsim::gate::Gate;
use rft_revsim::wire::w;
use rft_serve::{Server, ServerConfig, ShutdownHandle};
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// The harness seed; change it and every randomized scenario replays a
/// different (but still deterministic) schedule.
const CHAOS_SEED: u64 = 0x0DD5_EED5;

/// `splitmix64`, so the chaos schedule is a pure function of the seed.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn start(config: ServerConfig) -> (SocketAddr, ShutdownHandle) {
    let server = Server::bind(config).expect("bind loopback");
    let addr = server.local_addr().expect("bound address");
    let handle = server.shutdown_handle();
    std::thread::spawn(move || server.run().expect("accept loop"));
    (addr, handle)
}

fn spec(seed: u64, trials_per_round: u64, max_rounds: u32) -> JobSpec {
    JobSpec {
        circuit: CircuitSpec::Concat {
            level: 1,
            gate: Gate::Toffoli {
                controls: [w(0), w(1)],
                target: w(2),
            },
            cycles: 1,
        },
        noise: NoiseSpec::Uniform { g: 1.0 / 165.0 },
        seed,
        estimator: Estimator::Plain,
        backend: BackendKind::Auto,
        width: WordWidth::Auto,
        trials_per_round,
        max_rounds,
        target_rel_half_width: None,
        deadline_ms: None,
    }
}

fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("timeout");
    stream
}

fn post_job(addr: SocketAddr, record: &JobRecord) -> TcpStream {
    let body = serde_json::to_string(record).expect("record JSON");
    let mut stream = connect(addr);
    write!(
        stream,
        "POST /jobs HTTP/1.1\r\nconnection: close\r\ncontent-length: {}\r\n\r\n{}",
        body.len(),
        body
    )
    .expect("request written");
    stream
}

fn get(addr: SocketAddr, path: &str) -> (String, Vec<u8>) {
    let mut stream = connect(addr);
    write!(stream, "GET {path} HTTP/1.1\r\nconnection: close\r\n\r\n").expect("request");
    read_framed(&mut stream)
}

fn stat_field(stats: &str, field: &str) -> u64 {
    let key = format!("\"{field}\":");
    let at = stats
        .find(&key)
        .unwrap_or_else(|| panic!("{field} in {stats}"));
    stats[at + key.len()..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .expect("numeric stat")
}

/// Threads in this process right now (Linux); `None` elsewhere, which
/// downgrades the thread-bound assertions to no-ops.
fn thread_count() -> Option<usize> {
    std::fs::read_dir("/proc/self/task")
        .ok()
        .map(|entries| entries.count())
}

/// Floods at one and then two threads per job; the second run starts the
/// estimator's persistent helpers, which must stay within their bound.
#[test]
fn connection_flood_sheds_cleanly_and_admitted_jobs_complete() {
    flood(1);
    flood(2);
}

fn flood(threads_per_job: usize) {
    const CLIENTS: usize = 24;
    const WORKERS: usize = 2;
    let (addr, handle) = start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        threads: 2,
        threads_per_job,
        workers: WORKERS,
        accept_queue: 2,
        max_jobs: 2,
        drain_timeout: Duration::from_secs(3),
        ..ServerConfig::default()
    });
    // Give the pool a beat to spawn, then baseline the thread count
    // (pool + accept loop included).
    std::thread::sleep(Duration::from_millis(100));
    let before = thread_count();
    // The estimator's persistent helpers may start during the flood: at
    // most one per core beyond the first, once per process.
    let helpers = std::thread::available_parallelism().map_or(0, |n| n.get() - 1);

    // Every client gets a distinct seed so each completed answer needs
    // its own replay check.
    let records: Vec<JobRecord> = (0..CLIENTS as u64)
        .map(|i| JobRecord::new(spec(7000 + i, 1 << 18, 2)))
        .collect();
    let clients: Vec<_> = records
        .iter()
        .cloned()
        .map(|record| {
            std::thread::spawn(move || {
                let mut stream = post_job(addr, &record);
                let (head, body) = read_framed(&mut stream);
                (head, body)
            })
        })
        .collect();

    // Mid-flood: the server must not have grown by per-connection
    // threads — only our own client threads are new.
    std::thread::sleep(Duration::from_millis(10));
    if let (Some(before), Some(during)) = (before, thread_count()) {
        assert!(
            during <= before + CLIENTS + 2 + helpers,
            "server spawned per-connection threads: {before} -> {during}"
        );
    }

    let mut completed = 0usize;
    let mut shed = 0usize;
    for (record, client) in records.iter().zip(clients) {
        let (head, body) = client.join().expect("client thread");
        if head.starts_with("HTTP/1.1 200") {
            let lines = body_lines(&body);
            let offline = run_job(&CompileCache::new(), &Collector::disabled(), record, 1)
                .expect("offline replay");
            assert_eq!(
                lines.last().expect("final line"),
                &offline.to_line(),
                "admitted job replays byte-identically under flood"
            );
            completed += 1;
        } else {
            assert!(head.starts_with("HTTP/1.1 503"), "head: {head}");
            assert!(
                head.to_ascii_lowercase().contains("retry-after:"),
                "shed responses carry Retry-After: {head}"
            );
            shed += 1;
        }
    }
    assert_eq!(completed + shed, CLIENTS, "every client got an answer");
    assert!(completed >= 1, "some jobs must be admitted");
    assert!(
        shed >= 1,
        "a {CLIENTS}-client flood against {WORKERS} workers must shed"
    );
    let stats_body = String::from_utf8(get(addr, "/stats").1).expect("stats");
    assert!(
        stat_field(&stats_body, "shed") >= shed as u64,
        "stats: {stats_body}"
    );

    // After the flood the pool is back to its bound and the daemon is
    // healthy.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let settled = match (before, thread_count()) {
            (Some(before), Some(now)) => now <= before + 2 + helpers,
            _ => true,
        };
        if settled {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "thread count did not settle: before {before:?}, now {:?}",
            thread_count()
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    let health = String::from_utf8(get(addr, "/healthz").1).expect("healthz");
    assert!(health.contains("\"status\":\"ok\""), "health: {health}");
    handle.shutdown();
}

#[test]
fn slow_loris_head_times_out_with_408() {
    let (addr, handle) = start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        threads: 2,
        threads_per_job: 1,
        workers: 2,
        request_timeout: Duration::from_millis(300),
        drain_timeout: Duration::from_secs(2),
        ..ServerConfig::default()
    });
    let mut stream = connect(addr);
    // Dribble a plausible request head a few bytes at a time, never
    // finishing: each write resets a naive per-read timeout, but not the
    // total request deadline.
    let head = b"GET /healthz HTTP/1.1\r\nhost: chaos\r\nx-padding: aaaaaaaaaaaaaaaa\r\n";
    let started = Instant::now();
    for chunk in head.chunks(3) {
        if started.elapsed() > Duration::from_secs(1) || stream.write_all(chunk).is_err() {
            break; // server already gave up on us — expected
        }
        let _ = stream.flush();
        std::thread::sleep(Duration::from_millis(40));
    }
    let (head, _body) = read_framed(&mut stream);
    assert!(head.starts_with("HTTP/1.1 408"), "head: {head}");

    let stats = String::from_utf8(get(addr, "/stats").1).expect("stats");
    assert!(stat_field(&stats, "timeouts") >= 1, "stats: {stats}");
    let health = String::from_utf8(get(addr, "/healthz").1).expect("healthz");
    assert!(
        health.contains("\"status\":\"ok\""),
        "daemon survives loris"
    );
    handle.shutdown();
}

#[test]
fn peer_dribbling_after_a_400_frees_its_worker() {
    // One worker: while the lingering close drains the dribbler, nothing
    // else is served.
    let (addr, handle) = start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        threads: 2,
        threads_per_job: 1,
        workers: 1,
        drain_timeout: Duration::from_secs(2),
        ..ServerConfig::default()
    });
    let mut stream = connect(addr);
    stream.write_all(b"GARBAGE\r\n\r\n").expect("garbage");
    let (head, _body) = read_framed(&mut stream);
    assert!(head.starts_with("HTTP/1.1 400"), "head: {head}");
    let answered = Instant::now();
    // Keep a byte arriving well inside every 250 ms drain slice.
    let dribbler = std::thread::spawn(move || {
        while answered.elapsed() < Duration::from_secs(3) {
            if stream.write_all(b"x").is_err() {
                break; // the server closed on us
            }
            std::thread::sleep(Duration::from_millis(50));
        }
    });
    let health = String::from_utf8(get(addr, "/healthz").1).expect("healthz");
    let waited = answered.elapsed();
    assert!(health.contains("\"status\":\"ok\""), "health: {health}");
    assert!(
        waited < Duration::from_millis(1500),
        "the dribbler held the only worker for {waited:?}"
    );
    dribbler.join().expect("dribbler");
    handle.shutdown();
}

#[test]
fn dribbled_body_within_deadline_completes_and_replays() {
    let (addr, handle) = start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        threads: 2,
        threads_per_job: 1,
        workers: 2,
        request_timeout: Duration::from_secs(10),
        drain_timeout: Duration::from_secs(2),
        ..ServerConfig::default()
    });
    let record = JobRecord::new(spec(4242, 4096, 2));
    let body = serde_json::to_string(&record).expect("record JSON");
    let mut stream = connect(addr);
    write!(
        stream,
        "POST /jobs HTTP/1.1\r\nconnection: close\r\ncontent-length: {}\r\n\r\n",
        body.len()
    )
    .expect("head written");
    // Drip the body in seeded, irregular slices: a patient-but-slow
    // client is served, not punished.
    let mut state = CHAOS_SEED;
    let mut sent = 0usize;
    while sent < body.len() {
        state = splitmix64(state);
        let step = (1 + state as usize % 37).min(body.len() - sent);
        stream
            .write_all(&body.as_bytes()[sent..sent + step])
            .expect("dribble slice");
        stream.flush().expect("flush");
        sent += step;
        std::thread::sleep(Duration::from_millis(5));
    }
    let (head, resp_body) = read_framed(&mut stream);
    assert!(head.starts_with("HTTP/1.1 200"), "head: {head}");
    let lines = body_lines(&resp_body);
    let offline =
        run_job(&CompileCache::new(), &Collector::disabled(), &record, 1).expect("offline replay");
    assert_eq!(lines.last().expect("final"), &offline.to_line());
    handle.shutdown();
}

#[test]
fn dribbled_body_that_stalls_times_out_with_408() {
    let (addr, handle) = start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        threads: 2,
        threads_per_job: 1,
        workers: 2,
        request_timeout: Duration::from_millis(300),
        drain_timeout: Duration::from_secs(2),
        ..ServerConfig::default()
    });
    let mut stream = connect(addr);
    write!(
        stream,
        "POST /jobs HTTP/1.1\r\nconnection: close\r\ncontent-length: 10000\r\n\r\n{{\"a"
    )
    .expect("partial body");
    stream.flush().expect("flush");
    // ...and never send the rest.
    let (head, _body) = read_framed(&mut stream);
    assert!(head.starts_with("HTTP/1.1 408"), "head: {head}");
    let health = String::from_utf8(get(addr, "/healthz").1).expect("healthz");
    assert!(health.contains("\"status\":\"ok\""), "daemon survives");
    handle.shutdown();
}

#[test]
fn mid_stream_disconnect_frees_the_only_worker() {
    use std::io::Read;
    // One worker: if a disconnect leaked it, the follow-up job would
    // never be served.
    let (addr, handle) = start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        threads: 2,
        threads_per_job: 1,
        workers: 1,
        accept_queue: 4,
        max_jobs: 1,
        drain_timeout: Duration::from_secs(2),
        ..ServerConfig::default()
    });
    // A long job: many rounds, cancelled by our disconnect.
    let record = JobRecord::new(spec(9, 65_536, 4096));
    let mut stream = post_job(addr, &record);
    let mut seen = Vec::new();
    let mut buf = [0u8; 1024];
    let deadline = Instant::now() + Duration::from_secs(30);
    while !String::from_utf8_lossy(&seen).contains("\"kind\":\"interval\"") {
        assert!(Instant::now() < deadline, "no interval line within 30s");
        let n = stream.read(&mut buf).expect("stream data");
        assert!(n > 0, "stream ended before first interval");
        seen.extend_from_slice(&buf[..n]);
    }
    drop(stream); // disconnect mid-stream

    // The worker notices at the next round boundary and serves the next
    // job to completion.
    let quick = JobRecord::new(spec(10, 4096, 1));
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let mut stream = post_job(addr, &quick);
        let (head, body) = read_framed(&mut stream);
        if head.starts_with("HTTP/1.1 200") {
            let offline = run_job(&CompileCache::new(), &Collector::disabled(), &quick, 1)
                .expect("offline replay");
            assert_eq!(body_lines(&body).last().expect("final"), &offline.to_line());
            break;
        }
        // Still draining the cancelled job: admission says retry.
        assert!(head.starts_with("HTTP/1.1 503"), "head: {head}");
        assert!(
            Instant::now() < deadline,
            "worker never freed after disconnect"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    let stats = String::from_utf8(get(addr, "/stats").1).expect("stats");
    assert!(stat_field(&stats, "early_disconnects") >= 1, "{stats}");
    handle.shutdown();
}

#[test]
fn deadline_exceeded_jobs_stream_a_cancelled_line() {
    let (addr, handle) = start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        threads: 2,
        threads_per_job: 1,
        workers: 2,
        drain_timeout: Duration::from_secs(2),
        ..ServerConfig::default()
    });
    // A 1 ms deadline against multi-millisecond rounds: round 1 streams
    // its interval, then the boundary check cancels.
    let mut s = spec(31337, 1 << 18, 64);
    s.deadline_ms = Some(1);
    let mut stream = post_job(addr, &JobRecord::new(s));
    let (head, body) = read_framed(&mut stream);
    assert!(head.starts_with("HTTP/1.1 200"), "head: {head}");
    let lines = body_lines(&body);
    assert!(lines.len() >= 2, "interval(s) then cancelled: {lines:?}");
    let last = lines.last().expect("last line");
    assert!(last.contains("\"kind\":\"cancelled\""), "last: {last}");
    assert!(last.contains("deadline exceeded"), "last: {last}");
    for line in &lines[..lines.len() - 1] {
        assert!(line.contains("\"kind\":\"interval\""), "line: {line}");
    }

    // The terminator can land at the client before the server's
    // bookkeeping runs; poll briefly.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let stats = String::from_utf8(get(addr, "/stats").1).expect("stats");
        if stat_field(&stats, "timeouts") >= 1 && stat_field(&stats, "jobs_active") == 0 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "deadline cancel not recorded; stats: {stats}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    handle.shutdown();
}

#[test]
fn server_side_deadline_cap_applies_without_client_deadline() {
    let (addr, handle) = start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        threads: 2,
        threads_per_job: 1,
        workers: 2,
        job_deadline: Some(Duration::from_millis(1)),
        drain_timeout: Duration::from_secs(2),
        ..ServerConfig::default()
    });
    let record = JobRecord::new(spec(31338, 1 << 18, 64));
    let mut stream = post_job(addr, &record);
    let (head, body) = read_framed(&mut stream);
    assert!(head.starts_with("HTTP/1.1 200"), "head: {head}");
    let last = body_lines(&body).pop().expect("last line");
    assert!(last.contains("\"kind\":\"cancelled\""), "last: {last}");
    handle.shutdown();
}

#[test]
fn seeded_garbage_never_kills_the_daemon() {
    let (addr, handle) = start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        threads: 2,
        threads_per_job: 1,
        workers: 2,
        request_timeout: Duration::from_millis(500),
        drain_timeout: Duration::from_secs(2),
        ..ServerConfig::default()
    });
    let valid = {
        let record = JobRecord::new(spec(1, 4096, 1));
        let body = serde_json::to_string(&record).expect("record JSON");
        format!(
            "POST /jobs HTTP/1.1\r\nconnection: close\r\ncontent-length: {}\r\n\r\n{}",
            body.len(),
            body
        )
    };
    let mut state = CHAOS_SEED ^ 0xBAD_F00D;
    for trial in 0..24 {
        state = splitmix64(state);
        let mut stream = connect(addr);
        match state % 3 {
            // A random prefix of a valid request, then a hard close.
            0 => {
                let cut = (splitmix64(state ^ 1) as usize) % valid.len();
                let _ = stream.write_all(&valid.as_bytes()[..cut]);
                drop(stream);
            }
            // Random bytes (seeded), then wait for the 4xx.
            1 => {
                let len = 1 + (splitmix64(state ^ 2) as usize) % 64;
                let garbage: Vec<u8> = (0..len)
                    .map(|i| (splitmix64(state ^ (i as u64) << 8) & 0xFF) as u8)
                    .collect();
                if stream.write_all(&garbage).is_ok() {
                    let _ = stream.shutdown(std::net::Shutdown::Write);
                    // Any framed or empty answer is fine; no panic, no hang.
                    let mut out = Vec::new();
                    let _ = std::io::Read::read_to_end(&mut stream, &mut out);
                }
            }
            // A valid request truncated mid-body, write half closed.
            _ => {
                let head_end = valid.find("\r\n\r\n").expect("head") + 4;
                let cut = head_end + (splitmix64(state ^ 3) as usize) % (valid.len() - head_end);
                let _ = stream.write_all(&valid.as_bytes()[..cut]);
                let _ = stream.shutdown(std::net::Shutdown::Write);
                let mut out = Vec::new();
                let _ = std::io::Read::read_to_end(&mut stream, &mut out);
                if !out.is_empty() {
                    let head = String::from_utf8_lossy(&out);
                    assert!(
                        head.starts_with("HTTP/1.1 4") || head.starts_with("HTTP/1.1 5"),
                        "trial {trial}: truncated body must 4xx/5xx: {head}"
                    );
                }
            }
        }
    }
    // After the storm: healthy, and a real job still round-trips.
    let health = String::from_utf8(get(addr, "/healthz").1).expect("healthz");
    assert!(health.contains("\"status\":\"ok\""), "health: {health}");
    let record = JobRecord::new(spec(2, 4096, 1));
    let mut stream = post_job(addr, &record);
    let (head, body) = read_framed(&mut stream);
    assert!(head.starts_with("HTTP/1.1 200"), "head: {head}");
    let offline =
        run_job(&CompileCache::new(), &Collector::disabled(), &record, 1).expect("offline replay");
    assert_eq!(body_lines(&body).last().expect("final"), &offline.to_line());
    handle.shutdown();
}
