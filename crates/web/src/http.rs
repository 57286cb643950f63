//! Minimal HTTP/1.1 request/response bytes and the page-identity check.
//!
//! The monitor "downloads a copy of the site's main page over both IPv4 and
//! IPv6 … pages declared identical as long as their byte counts are within
//! 6% of each other" (Section 3). [`pages_identical`] is that rule; the
//! request/response builders keep an actual protocol exchange on the wire
//! so the transaction is more than a number.
//!
//! The same layer also serves the *real* wire: [`read_http_request`] /
//! [`build_http_response`] are the one-connection-per-request HTTP/1.1
//! substrate the `ipv6webd` study daemon runs its JSON API on. One parser
//! for both worlds keeps the simulated exchanges and the service honest
//! about speaking the same protocol.

use std::io::{BufRead, Write};
use std::time::Instant;

/// Builds the monitor's GET request for a site's main page.
pub fn build_request(host: &str) -> Vec<u8> {
    let mut out = Vec::with_capacity(REQUEST_HEAD.len() + host.len() + REQUEST_TAIL.len());
    write_request(&mut out, host);
    out
}

const REQUEST_HEAD: &[u8] = b"GET / HTTP/1.1\r\nHost: ";
const REQUEST_TAIL: &[u8] =
    b"\r\nUser-Agent: ipv6web-monitor/1.0\r\nAccept: text/html\r\nConnection: close\r\n\r\n";

/// Appends the bytes of [`build_request`] to `out`, so a caller that keeps
/// `out` between exchanges writes requests without allocating.
pub fn write_request(out: &mut Vec<u8>, host: &str) {
    out.extend_from_slice(REQUEST_HEAD);
    out.extend_from_slice(host.as_bytes());
    out.extend_from_slice(REQUEST_TAIL);
}

/// Builds a 200 response carrying a deterministic body of `body_len` bytes.
///
/// The body is a cheap xorshift stream seeded from `(host, body_len)` so the
/// same page always has the same bytes without storing it.
pub fn build_response(host: &str, body_len: usize) -> Vec<u8> {
    let mut out = build_response_header(body_len);
    let mut state: u64 = 0x9e37_79b9_7f4a_7c15;
    for b in host.bytes() {
        state = state.rotate_left(7) ^ b as u64;
    }
    state ^= body_len as u64;
    out.reserve(body_len);
    for _ in 0..body_len {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        out.push((state & 0x7f) as u8 | 0x20); // printable-ish
    }
    out
}

/// Builds only the response header of [`build_response`] — byte-identical
/// to its first `header_len` bytes, without materializing the body.
///
/// The monitoring hot path checks page identity from `Content-Length`
/// alone (the paper's 6% byte-count rule), so synthesizing the body — by
/// far the dominant cost of a simulated exchange — is wasted work there.
/// [`parse_response_len`] accepts a body-less response unchanged.
pub fn build_response_header(body_len: usize) -> Vec<u8> {
    // the length takes at most 20 decimal digits
    let mut out = Vec::with_capacity(RESPONSE_HEAD.len() + 20 + RESPONSE_TAIL.len());
    write_response_header(&mut out, body_len);
    out
}

const RESPONSE_HEAD: &[u8] =
    b"HTTP/1.1 200 OK\r\nServer: ipv6web-sim\r\nContent-Type: text/html\r\nContent-Length: ";
const RESPONSE_TAIL: &[u8] = b"\r\nConnection: close\r\n\r\n";

/// Appends the bytes of [`build_response_header`] to `out`, so a caller
/// that keeps `out` between exchanges writes headers without allocating.
pub fn write_response_header(out: &mut Vec<u8>, body_len: usize) {
    out.extend_from_slice(RESPONSE_HEAD);
    write!(out, "{body_len}").expect("writing to a Vec cannot fail");
    out.extend_from_slice(RESPONSE_TAIL);
}

/// A response torn before the header terminator — what a connection cut
/// mid-header leaves behind. [`parse_response_len`] rejects the result,
/// which is exactly how fault injection exercises the monitor's
/// malformed-response path.
pub fn truncate_response(response: &[u8]) -> Vec<u8> {
    response[..torn_len(response)].to_vec()
}

/// How many bytes of `response` survive [`truncate_response`]: everything
/// before the header terminator, or half of a response without one.
pub fn torn_len(response: &[u8]) -> usize {
    header_end(response).unwrap_or(response.len() / 2)
}

/// Offset of the `\r\n\r\n` that ends a header section.
fn header_end(bytes: &[u8]) -> Option<usize> {
    bytes.windows(4).position(|w| matches!(w, [b'\r', b'\n', b'\r', b'\n']))
}

/// Parses the `Content-Length` and returns `(header_len, body_len)` of a
/// response, or `None` if malformed.
pub fn parse_response_len(response: &[u8]) -> Option<(usize, usize)> {
    let sep = header_end(response)? + 4;
    let head = std::str::from_utf8(&response[..sep]).ok()?;
    if !head.starts_with("HTTP/1.1 ") {
        return None;
    }
    let body_len = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .and_then(|v| v.trim().parse::<usize>().ok())?;
    Some((sep, body_len))
}

/// A parsed HTTP/1.1 request as read off a live socket by [`read_http_request`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpRequest {
    /// Request method, uppercased as received (`GET`, `POST`, …).
    pub method: String,
    /// Request target exactly as sent (`/jobs/job-000001-…/report`).
    pub target: String,
    /// Header `(name, value)` pairs in wire order; names lowercased.
    pub headers: Vec<(String, String)>,
    /// Request body, sized by `Content-Length` (empty when absent).
    pub body: Vec<u8>,
}

impl HttpRequest {
    /// First value of `name` (lowercase), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }
}

/// Largest request body [`read_http_request`] will accept; a submitted
/// scenario is a few KB, so 4 MiB is generous without being a memory hole.
pub const MAX_REQUEST_BODY: usize = 4 << 20;

/// Reads one HTTP/1.1 request from `r`, with no read deadline.
///
/// Returns `Ok(None)` on a clean EOF before any bytes (peer closed an idle
/// connection); malformed request lines, oversized bodies, and torn reads
/// surface as `InvalidData`/`UnexpectedEof` errors.
pub fn read_http_request(r: &mut impl BufRead) -> std::io::Result<Option<HttpRequest>> {
    read_http_request_deadline(r, None)
}

/// Body bytes pulled per read while draining `Content-Length`; bounds how
/// long one successful read can keep a past-deadline connection alive.
const BODY_CHUNK: usize = 8 << 10;

/// [`read_http_request`] under a wall-clock `deadline` — the slowloris
/// guard. A peer drip-feeding one header line (or one body chunk) per
/// socket-timeout interval passes every *individual* read, so a per-read
/// timeout alone never fires; the deadline is checked between reads and
/// cuts the request off as `TimedOut` once its total wall-clock budget is
/// spent, no matter how lively the drip is.
pub fn read_http_request_deadline(
    r: &mut impl BufRead,
    deadline: Option<Instant>,
) -> std::io::Result<Option<HttpRequest>> {
    use std::io::{Error, ErrorKind};
    let check = |what: &str| -> std::io::Result<()> {
        match deadline {
            Some(d) if Instant::now() >= d => {
                Err(Error::new(ErrorKind::TimedOut, format!("read deadline exceeded in {what}")))
            }
            _ => Ok(()),
        }
    };
    let mut line = String::new();
    if r.read_line(&mut line)? == 0 {
        return Ok(None);
    }
    check("request line")?;
    let mut parts = line.trim_end().split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && t.starts_with('/') => (m, t, v),
        _ => return Err(Error::new(ErrorKind::InvalidData, format!("bad request line: {line:?}"))),
    };
    if !version.starts_with("HTTP/1.") {
        return Err(Error::new(ErrorKind::InvalidData, format!("bad HTTP version: {version:?}")));
    }
    let request = (method.to_string(), target.to_string());
    let mut headers = Vec::new();
    loop {
        let mut hline = String::new();
        if r.read_line(&mut hline)? == 0 {
            return Err(Error::new(ErrorKind::UnexpectedEof, "EOF inside headers"));
        }
        check("headers")?;
        let hline = hline.trim_end();
        if hline.is_empty() {
            break;
        }
        let (name, value) = hline
            .split_once(':')
            .ok_or_else(|| Error::new(ErrorKind::InvalidData, format!("bad header: {hline:?}")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    let body_len = match headers.iter().find(|(n, _)| n == "content-length") {
        None => 0,
        Some((_, v)) => v.parse::<usize>().map_err(|_| {
            Error::new(ErrorKind::InvalidData, format!("bad Content-Length: {v:?}"))
        })?,
    };
    if body_len > MAX_REQUEST_BODY {
        return Err(Error::new(ErrorKind::InvalidData, format!("body too large: {body_len}")));
    }
    // Drain the body in bounded chunks, re-checking the deadline between
    // them — one giant read_exact would let a slow body bypass the guard.
    let mut body = vec![0u8; body_len];
    let mut filled = 0;
    while filled < body_len {
        let end = (filled + BODY_CHUNK).min(body_len);
        r.read_exact(&mut body[filled..end])?;
        filled = end;
        check("body")?;
    }
    Ok(Some(HttpRequest { method: request.0, target: request.1, headers, body }))
}

/// Builds a complete HTTP/1.1 response for the daemon API: status line,
/// `Content-Type`/`Content-Length`/`Connection: close` headers, body.
pub fn build_http_response(status: u16, content_type: &str, body: &[u8]) -> Vec<u8> {
    let mut out = format!(
        "HTTP/1.1 {status} {reason}\r\nServer: ipv6webd\r\nContent-Type: {content_type}\r\nContent-Length: {len}\r\nConnection: close\r\n\r\n",
        reason = status_reason(status),
        len = body.len(),
    )
    .into_bytes();
    out.extend_from_slice(body);
    out
}

/// Canonical reason phrase for the status codes the daemon emits.
pub fn status_reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        500 => "Internal Server Error",
        _ => "Unknown",
    }
}

/// The paper's identity rule: byte counts within `threshold` (paper: 0.06)
/// of each other, measured relative to the larger page.
pub fn pages_identical(bytes_a: u64, bytes_b: u64, threshold: f64) -> bool {
    let (lo, hi) = if bytes_a <= bytes_b { (bytes_a, bytes_b) } else { (bytes_b, bytes_a) };
    if hi == 0 {
        return true;
    }
    (hi - lo) as f64 / hi as f64 <= threshold
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn request_is_wellformed() {
        let r = build_request("site1.web.example");
        let s = std::str::from_utf8(&r).unwrap();
        assert!(s.starts_with("GET / HTTP/1.1\r\n"));
        assert!(s.contains("Host: site1.web.example\r\n"));
        assert!(s.ends_with("\r\n\r\n"));
    }

    #[test]
    fn writers_match_the_formatted_headers() {
        let mut out = Vec::new();
        write_request(&mut out, "site1.web.example");
        assert_eq!(
            out,
            b"GET / HTTP/1.1\r\nHost: site1.web.example\r\nUser-Agent: ipv6web-monitor/1.0\r\n\
              Accept: text/html\r\nConnection: close\r\n\r\n"
        );
        for len in [0usize, 7, 10, 4096, 123_456_789, usize::MAX] {
            out.clear();
            write_response_header(&mut out, len);
            let formatted = format!(
                "HTTP/1.1 200 OK\r\nServer: ipv6web-sim\r\nContent-Type: text/html\r\n\
                 Content-Length: {len}\r\nConnection: close\r\n\r\n"
            );
            assert_eq!(out, formatted.as_bytes(), "{len}");
            assert_eq!(parse_response_len(&out), Some((out.len(), len)));
            assert_eq!(
                parse_response_len(&out[..torn_len(&out)]),
                None,
                "torn header is malformed"
            );
        }
    }

    #[test]
    fn response_roundtrip() {
        let resp = build_response("x.example", 1234);
        let (head, body) = parse_response_len(&resp).unwrap();
        assert_eq!(body, 1234);
        assert_eq!(resp.len(), head + body);
    }

    #[test]
    fn response_body_deterministic() {
        assert_eq!(build_response("a.example", 500), build_response("a.example", 500));
        assert_ne!(build_response("a.example", 500), build_response("b.example", 500));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert_eq!(parse_response_len(b"not http"), None);
        assert_eq!(parse_response_len(b"HTTP/1.1 200 OK\r\nNo-Length: 1\r\n\r\n"), None);
        assert_eq!(parse_response_len(b"FTP/1.1 200\r\nContent-Length: 5\r\n\r\nxxxxx"), None);
    }

    #[test]
    fn identity_rule_examples() {
        // 6% threshold, relative to larger page
        assert!(pages_identical(100_000, 100_000, 0.06));
        assert!(pages_identical(100_000, 94_000, 0.06));
        assert!(!pages_identical(100_000, 93_999, 0.06));
        assert!(pages_identical(0, 0, 0.06));
        assert!(!pages_identical(0, 10, 0.06));
    }

    #[test]
    fn read_request_roundtrip() {
        let wire = b"POST /jobs HTTP/1.1\r\nHost: localhost\r\nContent-Length: 4\r\n\r\n{\"a\"";
        let req = read_http_request(&mut &wire[..]).unwrap().unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.target, "/jobs");
        assert_eq!(req.header("host"), Some("localhost"));
        assert_eq!(req.body, b"{\"a\"");
    }

    #[test]
    fn read_request_without_body() {
        let wire = b"GET /metrics HTTP/1.1\r\n\r\n";
        let req = read_http_request(&mut &wire[..]).unwrap().unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.target, "/metrics");
        assert!(req.body.is_empty());
    }

    #[test]
    fn read_request_clean_eof_is_none() {
        assert!(read_http_request(&mut &b""[..]).unwrap().is_none());
    }

    #[test]
    fn read_request_rejects_malformed() {
        for wire in [
            &b"GARBAGE\r\n\r\n"[..],
            &b"GET /x SPDY/3\r\n\r\n"[..],
            &b"GET /x HTTP/1.1\r\nbroken header\r\n\r\n"[..],
            &b"GET /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n"[..],
        ] {
            assert!(read_http_request(&mut &wire[..]).is_err(), "accepted {wire:?}");
        }
        // torn body: Content-Length promises more than arrives
        let torn = b"POST /jobs HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc";
        assert!(read_http_request(&mut &torn[..]).is_err());
    }

    /// A peer that drips `chunk` bytes per read, sleeping first — the
    /// slowloris shape: every individual read succeeds promptly enough,
    /// but the request as a whole never finishes.
    struct Drip<'a> {
        data: &'a [u8],
        pos: usize,
        chunk: usize,
        delay: std::time::Duration,
    }

    impl std::io::Read for Drip<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let avail = self.fill_buf()?;
            let n = avail.len().min(buf.len());
            buf[..n].copy_from_slice(&avail[..n]);
            self.pos += n;
            Ok(n)
        }
    }

    impl BufRead for Drip<'_> {
        fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
            std::thread::sleep(self.delay);
            let end = (self.pos + self.chunk).min(self.data.len());
            Ok(&self.data[self.pos..end])
        }
        fn consume(&mut self, n: usize) {
            self.pos += n;
        }
    }

    #[test]
    fn read_deadline_cuts_off_a_dripped_half_request() {
        // half-sent request: the header section never terminates, and the
        // peer drips one byte per 2ms — each read succeeds, so only the
        // wall-clock deadline can end this
        let wire = b"POST /jobs HTTP/1.1\r\nHost: localhost\r\nContent-Le";
        let mut drip =
            Drip { data: wire, pos: 0, chunk: 1, delay: std::time::Duration::from_millis(2) };
        let deadline = Some(Instant::now() + std::time::Duration::from_millis(20));
        let err = read_http_request_deadline(&mut drip, deadline).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::TimedOut, "{err}");
        assert!(drip.pos < wire.len(), "deadline must fire before the drip completes");
    }

    #[test]
    fn read_deadline_cuts_off_a_dripped_body() {
        // headers arrive instantly; the promised body drips forever
        let mut wire = b"POST /jobs HTTP/1.1\r\nContent-Length: 100000\r\n\r\n".to_vec();
        wire.extend(std::iter::repeat_n(b'x', 100_000));
        let mut drip =
            Drip { data: &wire, pos: 0, chunk: 64, delay: std::time::Duration::from_millis(1) };
        let deadline = Some(Instant::now() + std::time::Duration::from_millis(15));
        let err = read_http_request_deadline(&mut drip, deadline).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::TimedOut, "{err}");
    }

    #[test]
    fn well_behaved_requests_pass_a_generous_deadline() {
        let wire = b"POST /jobs HTTP/1.1\r\nHost: localhost\r\nContent-Length: 4\r\n\r\n{\"a\"";
        let deadline = Some(Instant::now() + std::time::Duration::from_secs(10));
        let req = read_http_request_deadline(&mut &wire[..], deadline).unwrap().unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.body, b"{\"a\"");
    }

    #[test]
    fn http_response_parses_with_sim_parser() {
        // the daemon's responses must satisfy the same parser the
        // simulated monitor uses — one protocol, both worlds
        let resp = build_http_response(200, "application/json", b"{\"ok\":true}");
        let (head, body) = parse_response_len(&resp).unwrap();
        assert_eq!(body, 11);
        assert_eq!(resp.len(), head + body);
        assert_eq!(&resp[head..], b"{\"ok\":true}");
    }

    #[test]
    fn status_reasons_cover_daemon_codes() {
        assert_eq!(status_reason(200), "OK");
        assert_eq!(status_reason(404), "Not Found");
        assert_eq!(status_reason(408), "Request Timeout");
        assert_eq!(status_reason(599), "Unknown");
    }

    #[test]
    fn identity_symmetric() {
        assert_eq!(pages_identical(50, 47, 0.06), pages_identical(47, 50, 0.06));
    }

    proptest! {
        #[test]
        fn identity_reflexive(n in any::<u64>()) {
            prop_assert!(pages_identical(n, n, 0.0));
        }

        #[test]
        fn identity_monotone_in_threshold(a in 0u64..1_000_000, b in 0u64..1_000_000, t in 0.0f64..0.5) {
            if pages_identical(a, b, t) {
                prop_assert!(pages_identical(a, b, t + 0.1));
            }
        }

        #[test]
        fn response_always_parses(len in 0usize..5000) {
            let resp = build_response("p.example", len);
            let (h, b) = parse_response_len(&resp).unwrap();
            prop_assert_eq!(b, len);
            prop_assert_eq!(resp.len(), h + b);
        }
    }
}
