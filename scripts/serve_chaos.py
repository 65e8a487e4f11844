#!/usr/bin/env python3
"""Chaos / fault-injection smoke test of the rft-serve daemon (CI gate).

Drives the real binaries over real sockets with hostile clients, all
derived from a fixed ``--seed`` so failures replay:

1. start ``rft-serve`` with a deliberately small pool (2 workers, accept
   queue 2, max 2 jobs) and tight request timeout;
2. **connection flood**: many concurrent job posts; every client must
   get either a complete 200 stream whose final line ``repro replay``
   reproduces byte-identically, or a ``503`` carrying ``Retry-After``;
   ``/stats`` must account the shed requests;
3. **slow-loris**: a header dribbled forever must answer ``408`` within
   the request timeout, not hold a worker;
4. **byte-dribble**: a body dripped slowly but within the deadline must
   be served normally;
5. **mid-stream disconnect**: dropping a streaming connection must free
   the worker (a follow-up job completes) and bump
   ``early_disconnects``;
6. **deadline**: a job with ``deadline_ms`` too small must stream a
   clean ``cancelled`` line and terminate the chunked body properly;
7. **seeded garbage**: random request prefixes and byte noise must never
   kill the daemon;
8. **soak**: one keep-alive client serves 20,000 warm one-round jobs; the
   daemon's resident set (``VmRSS`` in ``/proc/<pid>/status``) after the
   last job must be within a fixed margin of its size after 2,000, so no
   per-job state accumulates;
9. SIGTERM must still drain and exit 0 after all of the above.

Artifacts (daemon log, per-scenario transcripts) are written to
``--out`` for CI upload. Exit code 0 = all checks passed.

Usage:
    serve_chaos.py [--bin-dir target/release] [--out serve-chaos-out]
                   [--seed 228519133]
"""

import argparse
import http.client
import json
import pathlib
import signal
import socket
import subprocess
import sys
import time

CHECKS = []


def check(name, ok, detail=""):
    CHECKS.append((name, ok))
    print(f"  {'PASS' if ok else 'FAIL'}  {name}" + (f" ({detail})" if detail else ""))
    if not ok:
        sys.exit(f"serve_chaos: check failed: {name} {detail}")


def splitmix64(x):
    x = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


def job_spec(seed, trials_per_round, max_rounds, deadline_ms=None):
    spec = {
        "circuit": {
            "Concat": {
                "level": 1,
                "gate": {"Toffoli": {"controls": [0, 1], "target": 2}},
                "cycles": 1,
            }
        },
        "noise": {"Uniform": {"g": 1.0 / 165.0}},
        "seed": seed,
        "estimator": "Plain",
        "backend": "Auto",
        "width": "Auto",
        "trials_per_round": trials_per_round,
        "max_rounds": max_rounds,
        "target_rel_half_width": None,
    }
    if deadline_ms is not None:
        spec["deadline_ms"] = deadline_ms
    return spec


def start_daemon(bin_dir, out_dir):
    exe = pathlib.Path(bin_dir) / "rft-serve"
    if not exe.exists():
        sys.exit(f"serve_chaos: {exe} not found (build with `cargo build --release`)")
    log = open(out_dir / "daemon.log", "w", encoding="utf-8")
    proc = subprocess.Popen(
        [
            str(exe),
            "--addr", "127.0.0.1:0",
            "--threads", "2",
            "--threads-per-job", "1",
            "--workers", "2",
            "--accept-queue", "2",
            "--max-jobs", "2",
            "--request-timeout-ms", "1000",
            "--idle-timeout-ms", "5000",
            "--drain-timeout", "5",
        ],
        stdout=subprocess.PIPE,
        stderr=log,
        text=True,
    )
    line = proc.stdout.readline().strip()
    if not line.startswith("listening on "):
        proc.kill()
        sys.exit(f"serve_chaos: unexpected startup line: {line!r}")
    addr = line.removeprefix("listening on ")
    host, _, port = addr.rpartition(":")
    return proc, host, int(port)


def request(host, port, method, path, body=None, timeout=60):
    conn = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        conn.request(method, path, body=body)
        resp = conn.getresponse()
        return resp.status, dict(resp.getheaders()), resp.read()
    finally:
        conn.close()


def raw_post_job(host, port, spec, timeout=120):
    """POST a job over a raw socket; returns (status_line, headers, body)."""
    body = json.dumps({"schema_version": 1, "spec": spec}).encode()
    with socket.create_connection((host, port), timeout=timeout) as s:
        s.sendall(
            b"POST /jobs HTTP/1.1\r\nconnection: close\r\ncontent-length: "
            + str(len(body)).encode()
            + b"\r\n\r\n"
            + body
        )
        raw = b""
        while True:
            chunk = s.recv(65536)
            if not chunk:
                break
            raw += chunk
    head, _, payload = raw.partition(b"\r\n\r\n")
    head_text = head.decode("utf-8", "replace")
    if "transfer-encoding: chunked" in head_text.lower():
        payload = decode_chunked(payload)
    return head_text, payload


def decode_chunked(data):
    out = b""
    while True:
        size_line, _, data = data.partition(b"\r\n")
        size = int(size_line.split(b";")[0].strip() or b"0", 16)
        if size == 0:
            return out
        out += data[:size]
        data = data[size + 2:]


def replay(bin_dir, out_dir, tag, record):
    job_path = out_dir / f"job-{tag}.json"
    job_path.write_text(json.dumps(record), encoding="utf-8")
    repro = pathlib.Path(bin_dir) / "repro"
    return subprocess.run(
        [str(repro), "replay", str(job_path), "--threads", "2"],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    ).stdout.strip()


def scenario_flood(host, port, bin_dir, out_dir, seed):
    import concurrent.futures

    n = 16
    specs = [job_spec(9000 + i, 1 << 18, 2) for i in range(n)]
    with concurrent.futures.ThreadPoolExecutor(max_workers=n) as pool:
        results = list(pool.map(lambda s: raw_post_job(host, port, s), specs))
    completed = shed = 0
    transcript = []
    for spec, (head, payload) in zip(specs, results):
        status_line = head.splitlines()[0] if head else "<empty>"
        transcript.append(status_line)
        if status_line.startswith("HTTP/1.1 200"):
            lines = payload.decode().splitlines()
            final = json.loads(lines[-1])
            check(
                f"flood: job seed {spec['seed']} final line replays byte-identically",
                replay(bin_dir, out_dir, f"flood-{spec['seed']}", final["record"])
                == lines[-1],
            )
            completed += 1
        else:
            check(
                "flood: non-200 answers are 503 with Retry-After",
                status_line.startswith("HTTP/1.1 503")
                and "retry-after:" in head.lower(),
                status_line,
            )
            shed += 1
    (out_dir / "flood.txt").write_text("\n".join(transcript) + "\n", encoding="utf-8")
    check("flood: every client got an answer", completed + shed == n)
    check("flood: some jobs completed", completed >= 1, f"{completed}/{n}")
    check("flood: overload shed some requests", shed >= 1, f"{shed}/{n}")
    _, _, body = request(host, port, "GET", "/stats", timeout=10)
    stats = json.loads(body)
    check("flood: /stats accounts the shed requests", stats["shed"] >= shed,
          f"stats {stats['shed']} >= observed {shed}")


def scenario_slow_loris(host, port):
    start = time.monotonic()
    with socket.create_connection((host, port), timeout=30) as s:
        head = b"GET /healthz HTTP/1.1\r\nhost: chaos\r\nx-pad: aaaaaaaaaaaa\r\n"
        status = b""
        for i in range(0, len(head), 3):
            try:
                s.sendall(head[i : i + 3])
            except OSError:
                break
            time.sleep(0.12)
        s.settimeout(10)
        try:
            while True:
                chunk = s.recv(4096)
                if not chunk:
                    break
                status += chunk
        except OSError:
            pass
    elapsed = time.monotonic() - start
    check("loris: dribbled head answers 408", b"HTTP/1.1 408" in status,
          status[:64].decode("utf-8", "replace"))
    check("loris: answered near the request timeout", elapsed < 10, f"{elapsed:.1f}s")


def scenario_dribble(host, port, bin_dir, out_dir, seed):
    spec = job_spec(777, 4096, 2)
    body = json.dumps({"schema_version": 1, "spec": spec}).encode()
    with socket.create_connection((host, port), timeout=60) as s:
        s.sendall(
            b"POST /jobs HTTP/1.1\r\nconnection: close\r\ncontent-length: "
            + str(len(body)).encode()
            + b"\r\n\r\n"
        )
        state, sent = seed, 0
        while sent < len(body):
            state = splitmix64(state)
            step = min(1 + state % 41, len(body) - sent)
            s.sendall(body[sent : sent + step])
            sent += step
            time.sleep(0.01)
        raw = b""
        while True:
            chunk = s.recv(65536)
            if not chunk:
                break
            raw += chunk
    head, _, payload = raw.partition(b"\r\n\r\n")
    check("dribble: slow-but-live body is served", head.startswith(b"HTTP/1.1 200"),
          head[:64].decode("utf-8", "replace"))
    lines = decode_chunked(payload).decode().splitlines()
    final = json.loads(lines[-1])
    check(
        "dribble: final line replays byte-identically",
        replay(bin_dir, out_dir, "dribble", final["record"]) == lines[-1],
    )


def scenario_disconnect(host, port, bin_dir, out_dir):
    spec = job_spec(888, 65536, 4096)
    body = json.dumps({"schema_version": 1, "spec": spec}).encode()
    s = socket.create_connection((host, port), timeout=60)
    s.sendall(
        b"POST /jobs HTTP/1.1\r\nconnection: close\r\ncontent-length: "
        + str(len(body)).encode()
        + b"\r\n\r\n"
        + body
    )
    seen = b""
    while b'"kind":"interval"' not in seen:
        chunk = s.recv(4096)
        if not chunk:
            sys.exit("serve_chaos: stream ended before first interval")
        seen += chunk
    s.close()  # disconnect mid-stream

    deadline = time.monotonic() + 30
    while True:
        head, payload = raw_post_job(host, port, job_spec(889, 4096, 1))
        if head.startswith("HTTP/1.1 200"):
            lines = payload.decode().splitlines()
            final = json.loads(lines[-1])
            check(
                "disconnect: follow-up job replays byte-identically",
                replay(bin_dir, out_dir, "disconnect", final["record"]) == lines[-1],
            )
            break
        if time.monotonic() > deadline:
            sys.exit(f"serve_chaos: worker never freed after disconnect: {head}")
        time.sleep(0.2)
    _, _, body = request(host, port, "GET", "/stats", timeout=10)
    stats = json.loads(body)
    check("disconnect: early_disconnects counted", stats["early_disconnects"] >= 1)


def scenario_deadline(host, port):
    head, payload = raw_post_job(host, port, job_spec(999, 1 << 18, 64, deadline_ms=1))
    check("deadline: stream answers 200", head.startswith("HTTP/1.1 200"),
          head.splitlines()[0] if head else "<empty>")
    lines = payload.decode().splitlines()
    last = json.loads(lines[-1])
    check(
        "deadline: stream ends with a clean cancelled line",
        last["kind"] == "cancelled" and "deadline" in last["reason"],
        lines[-1][:80],
    )


def scenario_garbage(host, port, seed):
    valid = (
        b"POST /jobs HTTP/1.1\r\nconnection: close\r\ncontent-length: 4\r\n\r\n{\"a\""
    )
    state = seed ^ 0xBADF00D
    for _ in range(16):
        state = splitmix64(state)
        try:
            with socket.create_connection((host, port), timeout=5) as s:
                kind = state % 2
                if kind == 0:
                    cut = splitmix64(state ^ 1) % len(valid)
                    s.sendall(valid[:cut])
                else:
                    n = 1 + splitmix64(state ^ 2) % 48
                    s.sendall(bytes((splitmix64(state ^ (3 + i)) & 0xFF) for i in range(n)))
                # Hard close either way.
        except OSError:
            pass
    # Right after the burst the accept queue may still be full (healthz
    # itself gets shed 503); survival means it recovers promptly.
    deadline = time.monotonic() + 10
    while True:
        try:
            status, _, body = request(host, port, "GET", "/healthz", timeout=5)
            if status == 200 and b'"status"' in body:
                break
        except OSError:
            pass
        if time.monotonic() > deadline:
            check("garbage: daemon survives seeded noise", False, "no healthy answer")
        time.sleep(0.2)
    check("garbage: daemon survives seeded noise", True)


SOAK_JOBS = 20_000
SOAK_WARMUP_JOBS = 2_000
SOAK_RSS_MARGIN_KIB = 512


def vm_rss_kib(pid):
    with open(f"/proc/{pid}/status", encoding="utf-8") as f:
        for line in f:
            if line.startswith("VmRSS:"):
                return int(line.split()[1])
    sys.exit(f"serve_chaos: no VmRSS line for pid {pid}")


def scenario_soak(host, port, pid):
    body = json.dumps({"schema_version": 1, "spec": job_spec(0, 256, 1)})
    conn = http.client.HTTPConnection(host, port, timeout=60)
    failed, warm_rss = 0, None
    start = time.monotonic()
    try:
        for n in range(1, SOAK_JOBS + 1):
            conn.request("POST", "/jobs", body=body)
            resp = conn.getresponse()
            lines = resp.read().splitlines()
            if resp.status != 200 or not lines or b'"kind":"final"' not in lines[-1]:
                failed += 1
            if n == SOAK_WARMUP_JOBS:
                warm_rss = vm_rss_kib(pid)
    finally:
        conn.close()
    elapsed = time.monotonic() - start
    rss = vm_rss_kib(pid)
    check("soak: every warm job streams a final line", failed == 0,
          f"{failed} of {SOAK_JOBS} failed, {SOAK_JOBS / elapsed:.0f} jobs/s")
    check(
        f"soak: RSS after {SOAK_JOBS} jobs within {SOAK_RSS_MARGIN_KIB} KiB of "
        f"RSS after {SOAK_WARMUP_JOBS}",
        rss - warm_rss <= SOAK_RSS_MARGIN_KIB,
        f"{warm_rss} KiB -> {rss} KiB",
    )


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--bin-dir", default="target/release")
    ap.add_argument("--out", default="serve-chaos-out")
    ap.add_argument("--seed", type=int, default=228519133)
    args = ap.parse_args()
    out_dir = pathlib.Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    proc, host, port = start_daemon(args.bin_dir, out_dir)
    print(f"serve_chaos: daemon on {host}:{port} (pid {proc.pid}, seed {args.seed})")
    try:
        status, _, body = request(host, port, "GET", "/healthz", timeout=10)
        check("healthz answers 200", status == 200 and b'"status"' in body)

        scenario_flood(host, port, args.bin_dir, out_dir, args.seed)
        scenario_slow_loris(host, port)
        scenario_dribble(host, port, args.bin_dir, out_dir, args.seed)
        scenario_disconnect(host, port, args.bin_dir, out_dir)
        scenario_deadline(host, port)
        scenario_garbage(host, port, args.seed)
        scenario_soak(host, port, proc.pid)

        status, _, body = request(host, port, "GET", "/stats", timeout=10)
        (out_dir / "stats.json").write_bytes(body)
        check("stats still served after chaos", status == 200)

        proc.send_signal(signal.SIGTERM)
        rc = proc.wait(timeout=20)
        check("SIGTERM drains and exits 0 after chaos", rc == 0, f"exit code {rc}")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)

    print(f"serve_chaos: all {len(CHECKS)} checks passed; artifacts in {out_dir}/")


if __name__ == "__main__":
    main()
