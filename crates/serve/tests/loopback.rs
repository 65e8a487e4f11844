//! End-to-end loopback tests: the streamed answer is byte-identical to
//! the offline replay, keep-alive connections serve many requests,
//! early disconnects cancel, concurrent jobs share the cache, and
//! shutdown drains.

mod common;

use common::{body_lines, read_framed};
use rft_analysis::experiment::CompileCache;
use rft_analysis::job::{run_job, CircuitSpec, JobRecord, JobSpec, NoiseSpec};
use rft_obs::Collector;
use rft_revsim::engine::{BackendKind, Estimator, WordWidth};
use rft_revsim::gate::Gate;
use rft_revsim::wire::w;
use rft_serve::http::decode_chunked;
use rft_serve::{Server, ServerConfig, ShutdownHandle};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

fn start_server(threads: usize, threads_per_job: usize) -> (SocketAddr, ShutdownHandle) {
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".into(),
        threads,
        threads_per_job,
        cache_bytes: Some(64 * 1024 * 1024),
        drain_timeout: Duration::from_secs(3),
        ..ServerConfig::default()
    })
    .expect("bind loopback");
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

fn post_job(addr: SocketAddr, record: &JobRecord) -> TcpStream {
    let body = serde_json::to_string(record).expect("record JSON");
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("timeout");
    write!(
        stream,
        "POST /jobs HTTP/1.1\r\ncontent-type: application/json\r\nconnection: close\r\ncontent-length: {}\r\n\r\n{}",
        body.len(),
        body
    )
    .expect("request written");
    stream
}

/// Reads the full response and returns the NDJSON lines of the body.
fn read_stream_lines(mut stream: TcpStream) -> Vec<String> {
    let mut response = Vec::new();
    stream.read_to_end(&mut response).expect("read response");
    let text_head_end = response
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("response head terminator");
    let head = String::from_utf8_lossy(&response[..text_head_end]).to_string();
    assert!(head.starts_with("HTTP/1.1 200"), "status line: {head}");
    assert!(
        head.to_lowercase().contains("transfer-encoding: chunked"),
        "chunked response: {head}"
    );
    let body = decode_chunked(&response[text_head_end + 4..]).expect("well-formed chunks");
    let text = String::from_utf8(body).expect("UTF-8 NDJSON");
    text.lines().map(str::to_string).collect()
}

fn get(addr: SocketAddr, path: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    write!(stream, "GET {path} HTTP/1.1\r\nconnection: close\r\n\r\n").expect("request");
    let mut response = Vec::new();
    stream.read_to_end(&mut response).expect("read");
    String::from_utf8_lossy(&response).to_string()
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

#[test]
fn streamed_final_is_byte_identical_to_offline_replay() {
    let (addr, handle) = start_server(4, 2);
    let record = JobRecord::new(spec(42, 4096, 3));

    let lines = read_stream_lines(post_job(addr, &record));
    assert_eq!(lines.len(), 4, "3 interval lines + 1 final: {lines:?}");
    for line in &lines[..3] {
        assert!(line.contains("\"kind\":\"interval\""), "line: {line}");
    }
    let served_final = lines.last().expect("final line");
    assert!(served_final.contains("\"kind\":\"final\""));

    // Offline replay: fresh cache, different thread count, no server.
    let offline =
        run_job(&CompileCache::new(), &Collector::disabled(), &record, 1).expect("offline replay");
    assert_eq!(
        served_final,
        &offline.to_line(),
        "served answer replays byte-identically offline"
    );
    handle.shutdown();
}

#[test]
fn bare_spec_bodies_are_accepted() {
    let (addr, handle) = start_server(2, 1);
    let s = spec(7, 1024, 1);
    let body = serde_json::to_string(&s).expect("spec JSON");
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    write!(
        stream,
        "POST /jobs HTTP/1.1\r\nconnection: close\r\ncontent-length: {}\r\n\r\n{}",
        body.len(),
        body
    )
    .expect("request");
    let lines = read_stream_lines(stream);
    let offline = run_job(
        &CompileCache::new(),
        &Collector::disabled(),
        &JobRecord::new(s),
        2,
    )
    .expect("offline");
    assert_eq!(lines.last().expect("final"), &offline.to_line());
    handle.shutdown();
}

#[test]
fn detect_jobs_stream_coverage_intervals_and_replay() {
    use rft_detect::{AdderKind, TrialMode};

    let (addr, handle) = start_server(2, 1);
    // A detection-coverage job: the streamed interval is the retry/flag
    // rate of a parity-checked carry-lookahead adder.
    let mut s = spec(2025, 2048, 2);
    s.circuit = CircuitSpec::DetectAdder {
        width: 4,
        kind: AdderKind::Cla,
        mode: TrialMode::Detected,
    };
    s.noise = NoiseSpec::Uniform { g: 2e-3 };
    let record = JobRecord::new(s);

    let lines = read_stream_lines(post_job(addr, &record));
    assert_eq!(lines.len(), 3, "2 interval lines + 1 final: {lines:?}");
    for line in &lines[..2] {
        assert!(line.contains("\"kind\":\"interval\""), "line: {line}");
    }
    let served_final = lines.last().expect("final line");
    let offline =
        run_job(&CompileCache::new(), &Collector::disabled(), &record, 3).expect("offline replay");
    assert_eq!(
        served_final,
        &offline.to_line(),
        "served detect job replays byte-identically offline"
    );
    assert!(
        offline.result.estimate.failures > 0,
        "noise at this rate must trip the parity flag"
    );
    handle.shutdown();
}

#[test]
fn keep_alive_connection_serves_probes_and_jobs() {
    let (addr, handle) = start_server(2, 1);
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");

    // Probes and two full job streams, all on one connection.
    for _ in 0..2 {
        write!(stream, "GET /healthz HTTP/1.1\r\n\r\n").expect("request");
        let (head, body) = read_framed(&mut stream);
        assert!(head.starts_with("HTTP/1.1 200"), "head: {head}");
        assert!(
            head.to_lowercase().contains("connection: keep-alive"),
            "head: {head}"
        );
        assert!(String::from_utf8_lossy(&body).contains("\"status\":\"ok\""));
    }
    for seed in [555u64, 556] {
        let record = JobRecord::new(spec(seed, 2048, 2));
        let body = serde_json::to_string(&record).expect("record JSON");
        write!(
            stream,
            "POST /jobs HTTP/1.1\r\ncontent-length: {}\r\n\r\n{}",
            body.len(),
            body
        )
        .expect("request");
        let (head, resp) = read_framed(&mut stream);
        assert!(head.starts_with("HTTP/1.1 200"), "head: {head}");
        let offline = run_job(&CompileCache::new(), &Collector::disabled(), &record, 1)
            .expect("offline replay");
        assert_eq!(
            body_lines(&resp).last().expect("final"),
            &offline.to_line(),
            "keep-alive streamed job replays byte-identically"
        );
    }

    // All five requests rode one connection.
    let stats = get(addr, "/stats");
    assert!(stat_field(&stats, "requests") >= 5, "stats: {stats}");
    handle.shutdown();
}

#[test]
fn pipelined_requests_are_answered_in_order() {
    let (addr, handle) = start_server(2, 2);
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");

    // Two jobs and a probe in one write: the second and third requests
    // arrive while the first is still being parsed.
    let records: Vec<JobRecord> = [801u64, 802]
        .map(|seed| JobRecord::new(spec(seed, 2048, 2)))
        .into();
    let mut batch = Vec::new();
    for record in &records {
        let body = serde_json::to_string(record).expect("record JSON");
        write!(
            batch,
            "POST /jobs HTTP/1.1\r\ncontent-length: {}\r\n\r\n{}",
            body.len(),
            body
        )
        .expect("request");
    }
    batch.extend_from_slice(b"GET /healthz HTTP/1.1\r\n\r\n");
    stream.write_all(&batch).expect("pipelined requests");

    for record in &records {
        let (head, resp) = read_framed(&mut stream);
        assert!(head.starts_with("HTTP/1.1 200"), "head: {head}");
        let offline = run_job(&CompileCache::new(), &Collector::disabled(), record, 1)
            .expect("offline replay");
        assert_eq!(
            body_lines(&resp).last().expect("final"),
            &offline.to_line(),
            "pipelined job answered in order and replays"
        );
    }
    let (head, body) = read_framed(&mut stream);
    assert!(head.starts_with("HTTP/1.1 200"), "head: {head}");
    assert!(String::from_utf8_lossy(&body).contains("\"status\":\"ok\""));
    handle.shutdown();
}

#[test]
fn stats_report_pool_and_queue_gauges() {
    let (addr, handle) = start_server(2, 1);
    let stats = get(addr, "/stats");
    // The pool/queue gauges and overload counters are all present; the
    // stats request itself holds a worker, so at least one connection is
    // active.
    assert!(stat_field(&stats, "connections_active") >= 1, "{stats}");
    for field in [
        "queued_connections",
        "oldest_job_ms",
        "shed",
        "timeouts",
        "workers",
        "max_jobs",
    ] {
        let _ = stat_field(&stats, field);
    }
    assert_eq!(
        stat_field(&stats, "workers"),
        16,
        "default pool size: {stats}"
    );
    handle.shutdown();
}

#[test]
fn early_disconnect_cancels_the_job() {
    let (addr, handle) = start_server(2, 1);
    // A job that would run for a very long time: many small rounds.
    let record = JobRecord::new(spec(9, 65_536, 4096));
    let mut stream = post_job(addr, &record);

    // Read until the first interval line has definitely been sent.
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

    // The server notices at a round boundary: the job leaves the active
    // set and the early-disconnect counter bumps.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let stats = get(addr, "/stats");
        if stat_field(&stats, "jobs_active") == 0 && stat_field(&stats, "early_disconnects") >= 1 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "job not cancelled after disconnect; stats: {stats}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    handle.shutdown();
}

#[test]
fn concurrent_jobs_complete_and_share_the_cache() {
    let (addr, handle) = start_server(2, 1);
    let records: Vec<JobRecord> = (0..3)
        .map(|i| JobRecord::new(spec(100 + i, 2048, 2)))
        .collect();

    let join_handles: Vec<_> = records
        .iter()
        .cloned()
        .map(|record| std::thread::spawn(move || read_stream_lines(post_job(addr, &record))))
        .collect();
    for (record, join) in records.iter().zip(join_handles) {
        let lines = join.join().expect("client thread");
        let offline =
            run_job(&CompileCache::new(), &Collector::disabled(), record, 1).expect("offline");
        assert_eq!(lines.last().expect("final"), &offline.to_line());
    }

    // Same circuit at the same noise: one resident program and engine.
    // Each job looks both up once; jobs that miss at the same instant each
    // compile, so how the six lookups split into hits and misses depends
    // on timing, but at least one of each kind missed.
    let stats = get(addr, "/stats");
    assert_eq!(stat_field(&stats, "cache_programs"), 1, "stats: {stats}");
    assert_eq!(stat_field(&stats, "cache_engines"), 1, "stats: {stats}");
    let (hits, misses) = (
        stat_field(&stats, "cache_hits"),
        stat_field(&stats, "cache_misses"),
    );
    assert_eq!(hits + misses, 6, "stats: {stats}");
    assert!(misses >= 2, "stats: {stats}");

    // A later job finds both artifacts resident.
    let record = JobRecord::new(spec(103, 2048, 2));
    read_stream_lines(post_job(addr, &record));
    let stats = get(addr, "/stats");
    assert_eq!(stat_field(&stats, "cache_hits"), hits + 2, "stats: {stats}");
    assert_eq!(stat_field(&stats, "cache_misses"), misses, "stats: {stats}");
    handle.shutdown();
}

#[test]
fn shutdown_drains_and_stops_the_accept_loop() {
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".into(),
        threads: 2,
        threads_per_job: 1,
        drain_timeout: Duration::from_secs(2),
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr().expect("addr");
    let handle = server.shutdown_handle();
    let run = std::thread::spawn(move || server.run());

    // Serve one request, then shut down.
    assert!(get(addr, "/healthz").contains("\"status\":\"ok\""));
    handle.shutdown();
    run.join().expect("run thread").expect("clean shutdown");

    // New jobs are refused once draining (connection fails or times out).
    let refused = TcpStream::connect_timeout(&addr, Duration::from_millis(500));
    if let Ok(mut stream) = refused {
        // The listener may still be in the backlog window; the request
        // must at least never be served.
        stream
            .set_read_timeout(Some(Duration::from_millis(500)))
            .expect("timeout");
        let _ = write!(stream, "GET /healthz HTTP/1.1\r\n\r\n");
        let mut out = Vec::new();
        let _ = stream.read_to_end(&mut out);
        assert!(out.is_empty(), "draining server must not serve: {out:?}");
    }
}
