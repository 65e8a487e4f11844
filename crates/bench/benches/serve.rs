//! Served-request throughput: what one quick job costs end to end over
//! loopback HTTP, next to the same job run as a plain library call.
//!
//! `serve_throughput/quick_job_http_roundtrip` is the daemon's headline
//! number — connect, POST, stream, read the final line — and its
//! checked-in BENCH_serve.json baseline documents the ≥100 req/s floor
//! (ns_per_iter ≤ 10⁷). `serve_yardstick/offline_quick_job` runs the
//! identical job through [`run_job`] with no server, socket, or thread
//! budget in the path: it is the normalization yardstick for the CI
//! regression gate (machine-speed factor), and the gap between the two
//! numbers *is* the serving overhead.
//!
//! `serve_throughput/quick_job_keepalive_roundtrip` posts the same job
//! over one kept-alive connection. With no connect, accept or close per
//! request, it holds only the request's own path: reading the head,
//! running the job, writing the response.
//!
//! `serve_concurrent` measures per-request latency under sustained
//! keep-alive load: N client threads each hold one connection and post
//! jobs back to back; every request's wall-clock is recorded and the
//! group reports p50/p99 at 10 and 100 concurrent streams. The vendored
//! criterion shim has no percentile support, so this group measures by
//! hand and emits lines in the same stdout / `CRITERION_JSON` format,
//! which feeds the same CI regression gate.

use criterion::{criterion_group, criterion_main, Criterion};
use rft_analysis::experiment::CompileCache;
use rft_analysis::job::{run_job, CircuitSpec, JobRecord, JobSpec, NoiseSpec};
use rft_obs::Collector;
use rft_revsim::engine::{BackendKind, Estimator, WordWidth};
use rft_revsim::gate::Gate;
use rft_revsim::wire::w;
use rft_serve::{Server, ServerConfig};
use std::hint::black_box;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// The quick job both benches run: one 4096-trial round at level 1.
fn quick_record(seed: u64) -> JobRecord {
    JobRecord::new(JobSpec {
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
        trials_per_round: 4096,
        max_rounds: 1,
        target_rel_half_width: None,
        deadline_ms: None,
    })
}

fn start_server() -> SocketAddr {
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".into(),
        threads: 2,
        threads_per_job: 1,
        drain_timeout: Duration::from_secs(1),
        ..ServerConfig::default()
    })
    .expect("bind loopback");
    let addr = server.local_addr().expect("bound address");
    std::thread::spawn(move || server.run().expect("accept loop"));
    addr
}

/// One full HTTP round trip; returns the response length as the
/// black-box value.
fn roundtrip(addr: SocketAddr, body: &str) -> usize {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(
        stream,
        "POST /jobs HTTP/1.1\r\nconnection: close\r\ncontent-length: {}\r\n\r\n{}",
        body.len(),
        body
    )
    .expect("request");
    let mut response = Vec::new();
    stream.read_to_end(&mut response).expect("response");
    assert!(response.starts_with(b"HTTP/1.1 200"), "job accepted");
    let text = String::from_utf8_lossy(&response);
    assert!(
        text.contains("\"kind\":\"final\""),
        "stream carries the final line"
    );
    response.len()
}

/// Interleaved measuring rounds, and the wall time each row gets per round.
const ROUNDS: usize = 15;
const SLICE: Duration = Duration::from_millis(10);

/// Runs `routine` for one slice; returns nanoseconds per call.
fn slice_ns(mut routine: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut calls = 0u32;
    while calls == 0 || start.elapsed() < SLICE {
        routine();
        calls += 1;
    }
    start.elapsed().as_nanos() as f64 / f64::from(calls)
}

/// The yardstick and the `serve_throughput` rows, measured by hand in
/// interleaved rounds; each row reports its fastest round. On a shared
/// machine, neighbours slow whole stretches of seconds, and a row and
/// its yardstick measured seconds apart can fall in different stretches.
/// The yardstick runs each slice on a fresh thread: on a VM, one vCPU can
/// be slowed by its neighbours for a whole run, and a yardstick that
/// stayed on the bench's main thread read the same job 2× slower in some
/// runs than in others.
fn serve_benches(_: &mut Criterion) {
    let cache = CompileCache::new();
    let obs = Collector::disabled();
    let record = quick_record(1);
    let offline_job = || {
        black_box(
            run_job(&cache, &obs, &record, 1)
                .expect("valid job")
                .result
                .estimate
                .trials,
        );
    };
    let addr = start_server();
    let body = serde_json::to_string(&quick_record(2)).expect("record JSON");
    // Warm both compile caches so the rounds see the steady state (the
    // first request pays the one-time compile).
    offline_job();
    roundtrip(addr, &body);
    let mut conn = KeepAlive::open(addr, &body);

    let mut best = [f64::INFINITY; 3];
    for _ in 0..ROUNDS {
        let round = [
            std::thread::scope(|s| s.spawn(|| slice_ns(offline_job)).join())
                .expect("yardstick slice"),
            slice_ns(|| {
                black_box(roundtrip(addr, &body));
            }),
            slice_ns(|| {
                black_box(conn.roundtrip());
            }),
        ];
        for (fastest, ns) in best.iter_mut().zip(round) {
            *fastest = fastest.min(ns);
        }
    }
    let rows = [
        ("serve_yardstick", "offline_quick_job"),
        ("serve_throughput", "quick_job_http_roundtrip"),
        ("serve_throughput", "quick_job_keepalive_roundtrip"),
    ];
    for ((group, bench), ns) in rows.into_iter().zip(best) {
        report(group, bench, ns, ROUNDS);
    }

    concurrent_benches();
}

/// Reads one framed response off a keep-alive connection: status line,
/// headers, then the chunked body to the zero chunk. Returns the body.
fn read_framed(reader: &mut BufReader<TcpStream>) -> Vec<u8> {
    let mut line = String::new();
    reader.read_line(&mut line).expect("status line");
    assert!(line.starts_with("HTTP/1.1 200"), "job accepted: {line}");
    loop {
        line.clear();
        reader.read_line(&mut line).expect("header line");
        if line == "\r\n" {
            break;
        }
    }
    let mut body = Vec::new();
    loop {
        line.clear();
        reader.read_line(&mut line).expect("chunk size");
        let size = usize::from_str_radix(line.trim(), 16).expect("hex chunk size");
        let mut chunk = vec![0u8; size + 2];
        reader.read_exact(&mut chunk).expect("chunk payload");
        if size == 0 {
            return body;
        }
        body.extend_from_slice(&chunk[..size]);
    }
}

/// One keep-alive connection that posts the same job again and again.
struct KeepAlive {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    request: String,
}

impl KeepAlive {
    fn open(addr: SocketAddr, body: &str) -> KeepAlive {
        let stream = TcpStream::connect(addr).expect("connect");
        KeepAlive {
            writer: stream.try_clone().expect("clone for writer"),
            reader: BufReader::new(stream),
            request: format!(
                "POST /jobs HTTP/1.1\r\ncontent-length: {}\r\n\r\n{}",
                body.len(),
                body
            ),
        }
    }

    /// Posts the job and reads its whole response; returns the body
    /// length as the black-box value.
    fn roundtrip(&mut self) -> usize {
        self.writer
            .write_all(self.request.as_bytes())
            .expect("request");
        let payload = read_framed(&mut self.reader);
        assert!(
            payload.windows(14).any(|w| w == b"\"kind\":\"final\""),
            "stream carries the final line"
        );
        payload.len()
    }
}

/// One client stream: a single keep-alive connection posting `requests`
/// jobs back to back, recording each request's wall-clock nanoseconds.
fn stream_latencies(
    addr: SocketAddr,
    body: Arc<String>,
    requests: usize,
    start: Arc<Barrier>,
) -> Vec<u64> {
    let mut conn = KeepAlive::open(addr, &body);
    start.wait();
    (0..requests)
        .map(|_| {
            let begun = Instant::now();
            conn.roundtrip();
            begun.elapsed().as_nanos() as u64
        })
        .collect()
}

/// Runs `streams` concurrent keep-alive clients and returns the pooled
/// per-request (p50, p99) in nanoseconds.
fn concurrent_load(addr: SocketAddr, body: &str, streams: usize, requests: usize) -> (f64, f64) {
    let body = Arc::new(body.to_string());
    let start = Arc::new(Barrier::new(streams));
    let handles: Vec<_> = (0..streams)
        .map(|_| {
            let (body, start) = (Arc::clone(&body), Arc::clone(&start));
            std::thread::spawn(move || stream_latencies(addr, body, requests, start))
        })
        .collect();
    let mut all: Vec<u64> = handles
        .into_iter()
        .flat_map(|h| h.join().expect("client stream"))
        .collect();
    all.sort_unstable();
    let pick = |q: f64| all[((all.len() - 1) as f64 * q) as usize] as f64;
    (pick(0.50), pick(0.99))
}

/// Emits one result in the vendored criterion shim's stdout and
/// `CRITERION_JSON` formats so the CI regression gate ingests it like
/// any other bench.
fn report(group: &str, bench: &str, ns: f64, samples: usize) {
    println!(
        "bench {:<48} {ns:>14.1} ns/iter ({samples} iters)",
        format!("{group}/{bench}")
    );
    if let Ok(path) = std::env::var("CRITERION_JSON") {
        use std::io::Write as _;
        let line = format!("{{\"group\":\"{group}\",\"bench\":\"{bench}\",\"ns_per_iter\":{ns:.2},\"throughput_elems\":1}}\n");
        if let Ok(mut file) = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
        {
            let _ = file.write_all(line.as_bytes());
        }
    }
}

/// The `serve_concurrent` group: p50/p99 request latency at 10 and 100
/// keep-alive streams against a pool sized to hold them all (a
/// keep-alive connection pins its worker, so `workers` must cover the
/// stream count; job concurrency is still throttled by the shared
/// trial-thread budget, which is what the tail latencies measure).
fn concurrent_benches() {
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".into(),
        threads: 2,
        threads_per_job: 1,
        workers: 128,
        accept_queue: 128,
        max_jobs: 128,
        drain_timeout: Duration::from_secs(1),
        ..ServerConfig::default()
    })
    .expect("bind loopback");
    let addr = server.local_addr().expect("bound address");
    std::thread::spawn(move || server.run().expect("accept loop"));
    let body = serde_json::to_string(&quick_record(3)).expect("record JSON");
    // Warm the compile cache so measured requests see the steady state.
    roundtrip(addr, &body);
    for (streams, requests) in [(10, 40), (100, 10)] {
        let (p50, p99) = concurrent_load(addr, &body, streams, requests);
        report(
            "serve_concurrent",
            &format!("p50_{streams}_streams"),
            p50,
            streams * requests,
        );
        report(
            "serve_concurrent",
            &format!("p99_{streams}_streams"),
            p99,
            streams * requests,
        );
    }
}

criterion_group!(benches, serve_benches);
criterion_main!(benches);
