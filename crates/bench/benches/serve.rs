//! Served-request throughput: what one quick job costs end to end over
//! loopback HTTP, next to the same job run as a plain library call.
//!
//! `serve_throughput/quick_job_http_roundtrip` is the daemon's headline
//! number — connect, POST, stream, read the final line — and its
//! checked-in BENCH_serve.json baseline documents the ≥100 req/s floor
//! (ns_per_iter ≤ 10⁷). `serve_throughput/offline_quick_job` runs the
//! identical job through [`run_job`] with no server, socket, or thread
//! budget in the path: the gap between the two numbers *is* the serving
//! overhead. `serve_throughput/quick_job_keepalive_roundtrip` posts the
//! same job over one kept-alive connection. With no connect, accept or
//! close per request, it holds only the request's own path: reading the
//! head, running the job, writing the response.
//!
//! `serve_concurrent` measures per-request latency under sustained
//! keep-alive load: N client threads each hold one connection and post
//! jobs back to back, and every request's wall-clock is recorded. Its
//! rows are latency rows of the criterion shim: percentiles of the
//! latencies pooled over every round, at 10 and 100 concurrent streams.
//! Its `p50_2_streams_mixed` row runs the daemon at its default 2
//! threads per job on a 2-thread budget, the setting where concurrent
//! jobs share the budget: 2 keep-alive streams each post a fixed list
//! that mixes multi-round level-2 jobs with one-round jobs, and the row
//! is the p50 latency over every job of every round.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use rft_analysis::experiment::CompileCache;
use rft_analysis::job::{run_job, CircuitSpec, JobRecord, JobSpec, NoiseSpec};
use rft_obs::Collector;
use rft_revsim::engine::{BackendKind, Estimator, WordWidth};
use rft_revsim::gate::Gate;
use rft_revsim::wire::w;
use rft_serve::{Server, ServerConfig};
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

/// Jobs per stream in one round of the mixed row.
const MIXED_JOBS: usize = 8;

/// Job `slot` of mixed-row stream `stream`, with rounds of 16384 trials
/// at its own noise rate. Every fourth job (a different slot per stream)
/// is a level-2 CNOT job of up to 8 rounds toward a 0.2 relative
/// half-width — the costliest family the daemon serves; the rest are
/// one-round level-1 jobs.
fn mixed_record(stream: usize, slot: usize) -> JobRecord {
    let index = stream * MIXED_JOBS + slot;
    let mut record = quick_record(index as u64);
    record.spec.trials_per_round = 16384;
    record.spec.noise = NoiseSpec::Uniform {
        g: 1e-3 * (1.0 + index as f64 / 4.0),
    };
    if (stream + slot).is_multiple_of(4) {
        record.spec.circuit = CircuitSpec::Concat {
            level: 2,
            gate: Gate::Cnot {
                control: w(0),
                target: w(1),
            },
            cycles: 1,
        };
        record.spec.estimator = Estimator::Auto;
        record.spec.max_rounds = 8;
        record.spec.target_rel_half_width = Some(0.2);
    }
    record
}

/// A daemon on a 2-thread budget with `threads_per_job` per round.
fn start_server(threads_per_job: usize) -> SocketAddr {
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".into(),
        threads: 2,
        threads_per_job,
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

/// One round of the mixed row: each stream posts its list once, back to
/// back and concurrently with the other. Returns every job's latency (ns).
fn mixed_round(streams: &mut [KeepAlive; 2]) -> Vec<u64> {
    std::thread::scope(|s| {
        let handles: Vec<_> = streams
            .iter_mut()
            .map(|conn| s.spawn(move || (0..MIXED_JOBS).map(|_| conn.timed()).collect::<Vec<_>>()))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("mixed stream"))
            .collect()
    })
}

/// The `serve_throughput` group: the offline job and its two served
/// forms.
fn throughput_benches(c: &mut Criterion) {
    let cache = CompileCache::new();
    let obs = Collector::disabled();
    let record = quick_record(1);
    let addr = start_server(1);
    let body = serde_json::to_string(&quick_record(2)).expect("record JSON");
    let mut conn = KeepAlive::open(addr, &[&body]);
    let mut group = c.benchmark_group("serve_throughput");
    group.throughput(Throughput::Elements(1));
    group.bench_function("offline_quick_job", |b| {
        b.iter(|| {
            run_job(&cache, &obs, &record, 1)
                .expect("valid job")
                .result
                .estimate
                .trials
        });
    });
    group.bench_function("quick_job_http_roundtrip", |b| {
        b.iter(|| roundtrip(addr, &body));
    });
    group.bench_function("quick_job_keepalive_roundtrip", move |b| {
        b.iter(|| conn.roundtrip());
    });
    group.finish();
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

/// One keep-alive connection that posts its jobs in turn, again and
/// again.
struct KeepAlive {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    requests: Vec<String>,
    next: usize,
}

impl KeepAlive {
    fn open(addr: SocketAddr, bodies: &[&str]) -> KeepAlive {
        let stream = TcpStream::connect(addr).expect("connect");
        KeepAlive {
            writer: stream.try_clone().expect("clone for writer"),
            reader: BufReader::new(stream),
            requests: bodies
                .iter()
                .map(|body| {
                    format!(
                        "POST /jobs HTTP/1.1\r\ncontent-length: {}\r\n\r\n{}",
                        body.len(),
                        body
                    )
                })
                .collect(),
            next: 0,
        }
    }

    /// [`KeepAlive::roundtrip`], returning its wall-clock nanoseconds.
    fn timed(&mut self) -> u64 {
        let begun = Instant::now();
        self.roundtrip();
        begun.elapsed().as_nanos() as u64
    }

    /// Posts the next job and reads its whole response; returns the body
    /// length as the black-box value.
    fn roundtrip(&mut self) -> usize {
        let request = &self.requests[self.next];
        self.next = (self.next + 1) % self.requests.len();
        self.writer.write_all(request.as_bytes()).expect("request");
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
    let mut conn = KeepAlive::open(addr, &[&body]);
    start.wait();
    (0..requests).map(|_| conn.timed()).collect()
}

/// Runs `streams` concurrent keep-alive clients and returns every
/// request's latency (ns).
fn concurrent_load(addr: SocketAddr, body: &str, streams: usize, requests: usize) -> Vec<u64> {
    let body = Arc::new(body.to_string());
    let start = Arc::new(Barrier::new(streams));
    let handles: Vec<_> = (0..streams)
        .map(|_| {
            let (body, start) = (Arc::clone(&body), Arc::clone(&start));
            std::thread::spawn(move || stream_latencies(addr, body, requests, start))
        })
        .collect();
    handles
        .into_iter()
        .flat_map(|h| h.join().expect("client stream"))
        .collect()
}

/// The `serve_concurrent` group: the mixed row, then p50/p99 request
/// latency at 10 and 100 keep-alive streams against a pool sized to hold
/// them all (a keep-alive connection pins its worker, so `workers` must
/// cover the stream count; job concurrency is still throttled by the
/// shared trial-thread budget, which is what the tail latencies measure).
fn concurrent_benches(c: &mut Criterion) {
    let mixed_addr = start_server(2);
    let mixed_bodies = [0, 1].map(|stream| {
        (0..MIXED_JOBS)
            .map(|slot| serde_json::to_string(&mixed_record(stream, slot)).expect("record JSON"))
            .collect::<Vec<_>>()
    });
    // Warm the compile caches so the rounds see the steady state (the
    // first request pays the one-time compile).
    for body in mixed_bodies.iter().flatten() {
        roundtrip(mixed_addr, body);
    }
    let mut mixed = mixed_bodies.map(|bodies| {
        KeepAlive::open(
            mixed_addr,
            &bodies.iter().map(String::as_str).collect::<Vec<_>>(),
        )
    });
    let mut group = c.benchmark_group("serve_concurrent");
    group.throughput(Throughput::Elements(1));
    group.bench_latencies(&[("p50_2_streams_mixed", 0.50)], move || {
        mixed_round(&mut mixed)
    });

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
    roundtrip(addr, &body);
    for (p50, p99, streams, requests) in [
        ("p50_10_streams", "p99_10_streams", 10, 40),
        ("p50_100_streams", "p99_100_streams", 100, 10),
    ] {
        let body = body.clone();
        group.bench_latencies(&[(p50, 0.50), (p99, 0.99)], move || {
            concurrent_load(addr, &body, streams, requests)
        });
    }
    group.finish();
}

criterion_group!(benches, throughput_benches, concurrent_benches);
criterion_main!(benches);
