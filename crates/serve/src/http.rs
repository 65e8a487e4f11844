//! A minimal, allocation-bounded HTTP/1.1 server protocol layer.
//!
//! The daemon speaks just enough HTTP for `curl` and any stock client:
//! request-line + headers + `Content-Length` bodies in, fixed-length or
//! `Transfer-Encoding: chunked` responses out, HTTP/1.1 keep-alive
//! connection reuse (the parser computes [`Request::keep_alive`]; the
//! writers take [`ResponseOpts`]). Everything is hand-rolled on
//! `std::io` — the build environment is offline, so no HTTP dependency
//! is available (or needed: the grammar subset below is ~100 lines).
//!
//! **Robustness contract** (pinned by the proptest suite in
//! `tests/protocol.rs`): [`read_request`] never panics on any byte
//! sequence — malformed request lines, truncated bodies, oversized heads
//! or bodies, and non-UTF-8 all map to typed [`HttpError`]s that the
//! server turns into clean 4xx responses.

use std::io::{self, BufRead, Read, Write};

/// Parsing limits: every buffer the parser grows is bounded up front.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Maximum bytes of request line + headers.
    pub max_head_bytes: usize,
    /// Maximum bytes of request body.
    pub max_body_bytes: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_head_bytes: 16 * 1024,
            max_body_bytes: 256 * 1024,
        }
    }
}

/// A parsed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Request method, uppercased by the client (`GET`, `POST`, ...).
    pub method: String,
    /// Request target as sent (path + optional query).
    pub path: String,
    /// Headers in arrival order, names lowercased.
    pub headers: Vec<(String, String)>,
    /// The body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
    /// Whether the client may reuse the connection: HTTP/1.1 unless it
    /// sent `Connection: close`, HTTP/1.0 only with
    /// `Connection: keep-alive`.
    pub keep_alive: bool,
}

impl Request {
    /// The first value of lowercased header `name`, if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Why a request could not be read. [`HttpError::status`] maps each to
/// the response the server sends before closing the connection.
#[derive(Debug)]
pub enum HttpError {
    /// The peer closed before a full request arrived.
    Closed,
    /// A read timed out before a full request arrived (slow-loris heads,
    /// byte-dribble bodies, or a stalled peer).
    Timeout,
    /// Transport error.
    Io(io::Error),
    /// Grammar violation: bad request line, header, or length field.
    Malformed(&'static str),
    /// Head grew past [`Limits::max_head_bytes`].
    HeadTooLarge,
    /// Declared `Content-Length` past [`Limits::max_body_bytes`].
    BodyTooLarge,
    /// The client sent `Transfer-Encoding` (unsupported for requests).
    UnsupportedEncoding,
}

impl HttpError {
    /// The HTTP status code this error answers with.
    pub fn status(&self) -> u16 {
        match self {
            HttpError::Closed | HttpError::Io(_) => 400,
            HttpError::Timeout => 408,
            HttpError::Malformed(_) => 400,
            HttpError::HeadTooLarge => 431,
            HttpError::BodyTooLarge => 413,
            HttpError::UnsupportedEncoding => 501,
        }
    }

    /// A short client-facing reason.
    pub fn reason(&self) -> &'static str {
        match self {
            HttpError::Closed => "connection closed mid-request",
            HttpError::Timeout => "request timed out",
            HttpError::Io(_) => "read error",
            HttpError::Malformed(m) => m,
            HttpError::HeadTooLarge => "request head too large",
            HttpError::BodyTooLarge => "request body too large",
            HttpError::UnsupportedEncoding => "request transfer-encoding unsupported",
        }
    }
}

impl From<io::Error> for HttpError {
    fn from(e: io::Error) -> Self {
        if is_timeout(&e) {
            HttpError::Timeout
        } else {
            HttpError::Io(e)
        }
    }
}

/// Whether an I/O error is a read/write timeout (both kinds appear
/// depending on platform: `WouldBlock` on Unix socket timeouts,
/// `TimedOut` elsewhere and from [`crate::server`]'s deadline wrapper).
pub fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Reads one request from `r` under `limits`, consuming exactly its
/// bytes: anything after the body (a pipelined next request) stays in
/// the reader's buffer.
///
/// Generic over [`BufRead`] so the proptest suite can drive the parser
/// from in-memory byte slices; the server passes one buffered reader per
/// connection, over a socket whose read timeout tracks the request
/// deadline.
///
/// # Errors
///
/// Any malformed, truncated, or over-limit input returns an
/// [`HttpError`]; this function never panics.
pub fn read_request<R: BufRead>(r: &mut R, limits: &Limits) -> Result<Request, HttpError> {
    let head = read_head(r, limits)?;
    let head_str =
        std::str::from_utf8(&head).map_err(|_| HttpError::Malformed("head is not UTF-8"))?;
    let mut lines = head_str.split("\r\n");
    let request_line = lines.next().ok_or(HttpError::Malformed("empty head"))?;
    let mut parts = request_line.split(' ');
    let method = parts.next().unwrap_or_default();
    let path = parts.next().ok_or(HttpError::Malformed("missing path"))?;
    let version = parts
        .next()
        .ok_or(HttpError::Malformed("missing HTTP version"))?;
    if parts.next().is_some() {
        return Err(HttpError::Malformed("extra tokens in request line"));
    }
    if method.is_empty() || !method.bytes().all(|b| b.is_ascii_uppercase()) {
        return Err(HttpError::Malformed("bad method"));
    }
    if !path.starts_with('/') {
        return Err(HttpError::Malformed("path must start with '/'"));
    }
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(HttpError::Malformed("unsupported HTTP version"));
    }

    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue; // trailing empty split after final CRLF
        }
        let (name, value) = line
            .split_once(':')
            .ok_or(HttpError::Malformed("header without ':'"))?;
        if name.is_empty() || name.contains(' ') {
            return Err(HttpError::Malformed("bad header name"));
        }
        headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
    }

    let mut req = Request {
        method: method.to_string(),
        path: path.to_string(),
        headers,
        body: Vec::new(),
        keep_alive: false,
    };
    let connection = req.header("connection").map(str::to_ascii_lowercase);
    req.keep_alive = match version {
        "HTTP/1.0" => connection.as_deref() == Some("keep-alive"),
        _ => connection.as_deref() != Some("close"),
    };
    if req.header("transfer-encoding").is_some() {
        return Err(HttpError::UnsupportedEncoding);
    }
    let content_length = match req.header("content-length") {
        None => 0usize,
        Some(v) => v
            .parse::<usize>()
            .map_err(|_| HttpError::Malformed("bad content-length"))?,
    };
    if content_length > limits.max_body_bytes {
        return Err(HttpError::BodyTooLarge);
    }
    req.body = read_body(r, content_length)?;
    Ok(req)
}

/// Reads bytes until the `\r\n\r\n` head terminator (exclusive),
/// enforcing the head limit. Scans whatever the reader has buffered and
/// consumes only through the terminator, so body bytes stay buffered.
fn read_head<R: BufRead>(r: &mut R, limits: &Limits) -> Result<Vec<u8>, HttpError> {
    const END: &[u8] = b"\r\n\r\n";
    let cap = limits.max_head_bytes + END.len();
    let mut head = Vec::with_capacity(256);
    loop {
        let buf = match r.fill_buf() {
            Ok([]) => return Err(HttpError::Closed),
            Ok(buf) => buf,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        };
        let held = head.len();
        let take = buf.len().min(cap - held);
        head.extend_from_slice(&buf[..take]);
        // The terminator may straddle two reads: rescan the held tail.
        let from = held.saturating_sub(END.len() - 1);
        match head[from..].windows(END.len()).position(|w| w == END) {
            Some(at) => {
                let end = from + at;
                r.consume(end + END.len() - held);
                head.truncate(end);
                return Ok(head);
            }
            None if head.len() == cap => return Err(HttpError::HeadTooLarge),
            None => r.consume(take),
        }
    }
}

/// Reads an already-limit-checked body of `len` bytes. The buffer grows
/// with the bytes that actually arrive (8 KiB steps) instead of being
/// sized to the advertised length up front, so a peer that declares a
/// large body and dribbles — or never sends — costs one small allocation,
/// not `Content-Length` bytes.
fn read_body<R: Read>(r: &mut R, len: usize) -> Result<Vec<u8>, HttpError> {
    const STEP: usize = 8 * 1024;
    let mut body = Vec::with_capacity(len.min(STEP));
    let mut chunk = [0u8; STEP];
    while body.len() < len {
        let want = (len - body.len()).min(STEP);
        match r.read(&mut chunk[..want]) {
            Ok(0) => return Err(HttpError::Closed),
            Ok(n) => body.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        }
    }
    Ok(body)
}

/// The standard reason phrase of `status` (subset this server sends).
pub fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    }
}

/// Per-response header options.
#[derive(Debug, Clone, Copy, Default)]
pub struct ResponseOpts {
    /// `Connection: keep-alive` instead of `Connection: close`.
    pub keep_alive: bool,
    /// Adds `Retry-After: <seconds>` (shed/overload responses).
    pub retry_after_s: Option<u32>,
}

impl ResponseOpts {
    /// Options for a connection that stays open afterwards.
    pub fn keep_alive() -> Self {
        ResponseOpts {
            keep_alive: true,
            retry_after_s: None,
        }
    }

    fn connection(&self) -> &'static str {
        if self.keep_alive {
            "keep-alive"
        } else {
            "close"
        }
    }

    fn extra_headers(&self) -> String {
        match self.retry_after_s {
            Some(s) => format!("retry-after: {s}\r\n"),
            None => String::new(),
        }
    }
}

/// The status line and headers of a response, through the blank line;
/// `framing` is its `content-length` or `transfer-encoding` header.
fn response_head(status: u16, content_type: &str, framing: &str, opts: ResponseOpts) -> Vec<u8> {
    format!(
        "HTTP/1.1 {} {}\r\ncontent-type: {}\r\n{}\r\n{}connection: {}\r\n\r\n",
        status,
        reason_phrase(status),
        content_type,
        framing,
        opts.extra_headers(),
        opts.connection(),
    )
    .into_bytes()
}

/// Writes a complete fixed-length response with explicit header options,
/// head and body in one `write` (one segment on an unbuffered socket).
///
/// # Errors
///
/// Propagates transport errors (a closed peer is not an error the caller
/// can act on beyond dropping the connection).
pub fn write_response_opts<W: Write>(
    w: &mut W,
    status: u16,
    content_type: &str,
    body: &[u8],
    opts: ResponseOpts,
) -> io::Result<()> {
    let framing = format!("content-length: {}", body.len());
    let mut out = response_head(status, content_type, &framing, opts);
    out.extend_from_slice(body);
    w.write_all(&out)?;
    w.flush()
}

/// Writes a JSON error body `{"error": reason}` with `status` and
/// explicit header options.
///
/// # Errors
///
/// Propagates transport errors.
pub fn write_error_opts<W: Write>(
    w: &mut W,
    status: u16,
    reason: &str,
    opts: ResponseOpts,
) -> io::Result<()> {
    let body = format!(
        "{{\"error\":{}}}",
        serde_json::to_string(reason).unwrap_or_else(|_| "\"error\"".to_string())
    );
    write_response_opts(w, status, "application/json", body.as_bytes(), opts)
}

/// Writes a JSON error body `{"error": reason}` with `status`, closing.
///
/// # Errors
///
/// Propagates transport errors.
pub fn write_error<W: Write>(w: &mut W, status: u16, reason: &str) -> io::Result<()> {
    write_error_opts(w, status, reason, ResponseOpts::default())
}

/// A `Transfer-Encoding: chunked` response writer: one [`Self::send`]
/// per NDJSON line, [`Self::finish_with`] for the last line and the
/// terminating chunk. Every piece goes out in one `write`, so each is one
/// segment on an unbuffered socket. A send failing means the client went
/// away — the caller cancels the job.
#[derive(Debug)]
pub struct ChunkedWriter<W: Write> {
    w: W,
    /// The piece being assembled, reused across sends.
    buf: Vec<u8>,
}

impl<W: Write> ChunkedWriter<W> {
    /// Writes the status line + headers with explicit connection
    /// semantics and returns the chunk writer.
    ///
    /// # Errors
    ///
    /// Propagates transport errors.
    pub fn start_opts(
        mut w: W,
        status: u16,
        content_type: &str,
        opts: ResponseOpts,
    ) -> io::Result<Self> {
        w.write_all(&response_head(
            status,
            content_type,
            "transfer-encoding: chunked",
            opts,
        ))?;
        w.flush()?;
        Ok(ChunkedWriter { w, buf: Vec::new() })
    }

    /// Writes the status line + headers (`Connection: close`) and
    /// returns the chunk writer.
    ///
    /// # Errors
    ///
    /// Propagates transport errors.
    pub fn start(w: W, status: u16, content_type: &str) -> io::Result<Self> {
        Self::start_opts(w, status, content_type, ResponseOpts::default())
    }

    /// Sends one chunk (the daemon sends exactly one JSON line, newline
    /// included, per chunk) and flushes so the client sees it *now*.
    ///
    /// # Errors
    ///
    /// Propagates transport errors — the signal that the client
    /// disconnected early.
    pub fn send(&mut self, chunk: &[u8]) -> io::Result<()> {
        if chunk.is_empty() {
            return Ok(()); // an empty chunk would terminate the stream
        }
        self.buf.clear();
        self.push_chunk(chunk)?;
        self.write_buf()
    }

    /// Sends `last` (if non-empty) and the terminating zero chunk
    /// together.
    ///
    /// # Errors
    ///
    /// Propagates transport errors.
    pub fn finish_with(mut self, last: &[u8]) -> io::Result<()> {
        self.buf.clear();
        if !last.is_empty() {
            self.push_chunk(last)?;
        }
        self.buf.extend_from_slice(b"0\r\n\r\n");
        self.write_buf()
    }

    /// Appends one chunk (size line, payload, CRLF) to the piece.
    fn push_chunk(&mut self, chunk: &[u8]) -> io::Result<()> {
        write!(self.buf, "{:x}\r\n", chunk.len())?;
        self.buf.extend_from_slice(chunk);
        self.buf.extend_from_slice(b"\r\n");
        Ok(())
    }

    fn write_buf(&mut self) -> io::Result<()> {
        self.w.write_all(&self.buf)?;
        self.w.flush()
    }
}

/// Parses a complete chunked-encoded body back into the concatenated
/// payload — the client-side half, used by the loopback tests and kept
/// here so the encoder and decoder stay in one reviewed place.
///
/// # Errors
///
/// Returns a description of the first grammar violation.
pub fn decode_chunked(mut data: &[u8]) -> Result<Vec<u8>, String> {
    let mut out = Vec::new();
    loop {
        let line_end = find_crlf(data).ok_or("missing chunk-size CRLF")?;
        let size_str =
            std::str::from_utf8(&data[..line_end]).map_err(|_| "chunk size not UTF-8")?;
        // Ignore chunk extensions (";..." suffix) per RFC 9112.
        let size_str = size_str.split(';').next().unwrap_or("").trim();
        let size = usize::from_str_radix(size_str, 16).map_err(|_| "bad chunk size")?;
        data = &data[line_end + 2..];
        if size == 0 {
            return Ok(out);
        }
        if data.len() < size + 2 {
            return Err("truncated chunk".into());
        }
        out.extend_from_slice(&data[..size]);
        if &data[size..size + 2] != b"\r\n" {
            return Err("chunk data not CRLF-terminated".into());
        }
        data = &data[size + 2..];
    }
}

fn find_crlf(data: &[u8]) -> Option<usize> {
    data.windows(2).position(|w| w == b"\r\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::io::{BufReader, Cursor};

    fn parse(bytes: &[u8]) -> Result<Request, HttpError> {
        read_request(&mut Cursor::new(bytes), &Limits::default())
    }

    /// A `Write` that records every `write` call separately: on an
    /// unbuffered socket each call is at least one TCP segment.
    struct Recorder<'a>(&'a RefCell<Vec<Vec<u8>>>);

    impl Write for Recorder<'_> {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.borrow_mut().push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn parses_a_get() {
        let req = parse(b"GET /healthz HTTP/1.1\r\nhost: x\r\n\r\n").expect("valid");
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/healthz");
        assert_eq!(req.header("host"), Some("x"));
        assert!(req.body.is_empty());
    }

    #[test]
    fn parses_a_post_with_body() {
        let req = parse(b"POST /jobs HTTP/1.1\r\ncontent-length: 4\r\n\r\n{\"a\"").expect("valid");
        assert_eq!(req.body, b"{\"a\"");
    }

    #[test]
    fn rejects_bad_grammar() {
        assert!(parse(b"").is_err());
        assert!(parse(b"GET\r\n\r\n").is_err());
        assert!(parse(b"GET noslash HTTP/1.1\r\n\r\n").is_err());
        assert!(parse(b"GET / HTTP/2.0\r\n\r\n").is_err());
        assert!(parse(b"GET / HTTP/1.1\r\nno-colon-here\r\n\r\n").is_err());
        assert!(parse(b"POST / HTTP/1.1\r\ncontent-length: nope\r\n\r\n").is_err());
    }

    #[test]
    fn rejects_oversized_body_without_reading_it() {
        let err = parse(b"POST / HTTP/1.1\r\ncontent-length: 99999999\r\n\r\n").unwrap_err();
        assert_eq!(err.status(), 413);
    }

    #[test]
    fn rejects_truncated_body() {
        let err = parse(b"POST / HTTP/1.1\r\ncontent-length: 10\r\n\r\nshort").unwrap_err();
        assert!(matches!(err, HttpError::Closed));
    }

    #[test]
    fn keep_alive_follows_version_and_connection_header() {
        let req = parse(b"GET / HTTP/1.1\r\n\r\n").expect("valid");
        assert!(req.keep_alive, "HTTP/1.1 defaults to keep-alive");
        let req = parse(b"GET / HTTP/1.1\r\nconnection: close\r\n\r\n").expect("valid");
        assert!(!req.keep_alive);
        let req = parse(b"GET / HTTP/1.1\r\nconnection: Close\r\n\r\n").expect("valid");
        assert!(!req.keep_alive, "connection value is case-insensitive");
        let req = parse(b"GET / HTTP/1.0\r\n\r\n").expect("valid");
        assert!(!req.keep_alive, "HTTP/1.0 defaults to close");
        let req = parse(b"GET / HTTP/1.0\r\nconnection: keep-alive\r\n\r\n").expect("valid");
        assert!(req.keep_alive);
    }

    #[test]
    fn timeouts_map_to_408() {
        struct Stall;
        impl Read for Stall {
            fn read(&mut self, _: &mut [u8]) -> io::Result<usize> {
                Err(io::Error::new(io::ErrorKind::TimedOut, "stalled"))
            }
        }
        let err = read_request(&mut BufReader::new(Stall), &Limits::default()).unwrap_err();
        assert!(matches!(err, HttpError::Timeout), "got {err:?}");
        assert_eq!(err.status(), 408);

        // A dribbled body that stalls times out too, not 400.
        struct StallAfter(Vec<u8>, usize);
        impl Read for StallAfter {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                if self.1 >= self.0.len() {
                    return Err(io::Error::new(io::ErrorKind::WouldBlock, "stalled"));
                }
                buf[0] = self.0[self.1];
                self.1 += 1;
                Ok(1)
            }
        }
        let head = b"POST / HTTP/1.1\r\ncontent-length: 10\r\n\r\nab".to_vec();
        let err =
            read_request(&mut BufReader::new(StallAfter(head, 0)), &Limits::default()).unwrap_err();
        assert_eq!(err.status(), 408, "got {err:?}");
    }

    #[test]
    fn response_opts_control_connection_and_retry_after() {
        let mut buf = Vec::new();
        write_response_opts(
            &mut buf,
            503,
            "application/json",
            b"{}",
            ResponseOpts {
                keep_alive: false,
                retry_after_s: Some(2),
            },
        )
        .expect("write");
        let text = String::from_utf8(buf).expect("ascii");
        assert!(text.contains("retry-after: 2\r\n"), "head: {text}");
        assert!(text.contains("connection: close\r\n"), "head: {text}");

        let mut buf = Vec::new();
        write_response_opts(
            &mut buf,
            200,
            "application/json",
            b"{}",
            ResponseOpts::keep_alive(),
        )
        .expect("write");
        let text = String::from_utf8(buf).expect("ascii");
        assert!(text.contains("connection: keep-alive\r\n"), "head: {text}");
        assert!(!text.contains("retry-after"), "head: {text}");
    }

    #[test]
    fn chunked_round_trip() {
        let mut buf = Vec::new();
        {
            let mut w = ChunkedWriter::start(&mut buf, 200, "application/x-ndjson").expect("start");
            w.send(b"{\"kind\":\"interval\"}\n").expect("send");
            w.finish_with(b"{\"kind\":\"final\"}\n").expect("finish");
        }
        let head_end = buf
            .windows(4)
            .position(|w| w == b"\r\n\r\n")
            .expect("head terminator")
            + 4;
        let body = decode_chunked(&buf[head_end..]).expect("decode");
        assert_eq!(body, b"{\"kind\":\"interval\"}\n{\"kind\":\"final\"}\n");
    }

    #[test]
    fn head_limit_and_pipelined_bytes() {
        let limits = Limits {
            max_head_bytes: 32,
            max_body_bytes: 64,
        };
        // A head of exactly the limit parses; one byte more does not.
        let fits = format!("GET /{} HTTP/1.1", "a".repeat(32 - 14));
        assert_eq!(fits.len(), 32);
        let ok = read_request(&mut format!("{fits}\r\n\r\n").as_bytes(), &limits);
        assert!(ok.is_ok(), "{ok:?}");
        let over = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(33 - 14));
        let err = read_request(&mut over.as_bytes(), &limits).unwrap_err();
        assert!(matches!(err, HttpError::HeadTooLarge), "{err:?}");

        // Two pipelined requests through a tiny buffer: the terminator
        // straddles reads, and each parse stops at its own last byte.
        let two = b"POST /a HTTP/1.1\r\ncontent-length: 3\r\n\r\nabcGET /b HTTP/1.1\r\n\r\n";
        let mut r = BufReader::with_capacity(5, &two[..]);
        let limits = Limits::default();
        let first = read_request(&mut r, &limits).expect("first");
        assert_eq!((first.path.as_str(), &first.body[..]), ("/a", &b"abc"[..]));
        let second = read_request(&mut r, &limits).expect("second");
        assert_eq!(second.path, "/b");
        assert!(matches!(
            read_request(&mut r, &limits),
            Err(HttpError::Closed)
        ));
    }

    #[test]
    fn every_response_piece_is_one_write() {
        let calls = RefCell::new(Vec::new());
        write_response_opts(
            &mut Recorder(&calls),
            200,
            "application/json",
            b"{}",
            ResponseOpts::keep_alive(),
        )
        .expect("write");
        assert_eq!(calls.take().len(), 1, "fixed-length response");

        let mut w = ChunkedWriter::start_opts(
            Recorder(&calls),
            200,
            "application/x-ndjson",
            ResponseOpts::keep_alive(),
        )
        .expect("start");
        assert_eq!(calls.borrow().len(), 1, "chunked head");
        for sent in 2..=3 {
            w.send(b"{\"kind\":\"interval\"}\n").expect("send");
            assert_eq!(calls.borrow().len(), sent, "one write per chunk");
        }
        w.finish_with(b"{\"kind\":\"final\"}\n").expect("finish");
        assert_eq!(
            calls.borrow().len(),
            4,
            "last chunk and terminator together"
        );

        let bytes = calls.take().concat();
        let head_end = bytes
            .windows(4)
            .position(|w| w == b"\r\n\r\n")
            .expect("head terminator")
            + 4;
        assert_eq!(
            decode_chunked(&bytes[head_end..]).expect("decode"),
            b"{\"kind\":\"interval\"}\n{\"kind\":\"interval\"}\n{\"kind\":\"final\"}\n"
        );
    }
}
