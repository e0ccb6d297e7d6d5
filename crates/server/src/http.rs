//! Minimal HTTP/1.1 framing over `std::net` — request parsing with hard
//! size limits, query-string decoding, keep-alive negotiation, and response
//! emission.
//!
//! The container has no async runtime and no HTTP crates, so this module
//! implements exactly the subset the analysis service needs: `GET`/`POST`
//! with `Content-Length` bodies (chunked transfer encoding is rejected with
//! 501), `Connection: close` / keep-alive, and `Expect: 100-continue` (curl
//! sends it for trace uploads above 1 KiB and would otherwise stall for a
//! second per request).

use std::io::{BufRead, Read, Write};

/// Hard limit on the request line + headers, bytes.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// A parsed request.
#[derive(Debug)]
pub struct Request {
    /// Uppercase method token (`GET`, `POST`, …).
    pub method: String,
    /// Decoded path, query string stripped.
    pub path: String,
    /// Decoded `key=value` pairs of the query string, in order.
    pub query: Vec<(String, String)>,
    /// Whether the connection should be kept open after the response.
    pub keep_alive: bool,
    /// The request body (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
}

impl Request {
    /// Last value of query parameter `key`, if present.
    pub fn param(&self, key: &str) -> Option<&str> {
        self.query.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    /// Whether a flag-like parameter is set truthy (`1`, `true`, `yes`, or
    /// bare `?flag`).
    pub fn flag(&self, key: &str) -> bool {
        matches!(self.param(key), Some("" | "1" | "true" | "yes"))
    }
}

/// A request that could not be read; carries the HTTP status to answer with.
#[derive(Debug)]
pub enum ReadError {
    /// The peer closed (or went idle) *between* requests — not an error,
    /// the connection is silently dropped. A stall in the middle of a
    /// request is *not* this: it surfaces as `Bad(408, …)` so the client
    /// learns why the connection died.
    Closed,
    /// A malformed, oversized, or mid-request-stalled request; respond with
    /// `(status, message)` and close.
    Bad(u16, String),
}

impl From<std::io::Error> for ReadError {
    fn from(_: std::io::Error) -> Self {
        ReadError::Closed
    }
}

/// Whether an I/O error is the read-timeout firing (`SO_RCVTIMEO` surfaces
/// as `WouldBlock` on Unix, `TimedOut` elsewhere).
fn is_timeout(e: &std::io::Error) -> bool {
    matches!(e.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut)
}

fn bad(status: u16, msg: impl Into<String>) -> ReadError {
    ReadError::Bad(status, msg.into())
}

/// Reads one request from `reader`. `writer` is only touched to acknowledge
/// `Expect: 100-continue`. `max_body_bytes` bounds the declared
/// `Content-Length` (413 beyond it). A `Content-Length` must be plain
/// decimal digits, and repeated `Content-Length` headers must agree
/// (RFC 9112 §6.3): anything else is a 400, because two framings of one
/// byte stream are how request smuggling starts.
pub fn read_request<R: BufRead, W: Write>(
    reader: &mut R,
    writer: &mut W,
    max_body_bytes: usize,
) -> Result<Request, ReadError> {
    let mut head_bytes = 0usize;
    let request_line = read_line(reader, &mut head_bytes)?.ok_or(ReadError::Closed)?;
    let mut parts = request_line.split_whitespace();
    let (Some(method), Some(target), Some(version)) =
        (parts.next(), parts.next(), parts.next())
    else {
        return Err(bad(400, format!("malformed request line `{request_line}`")));
    };
    if !version.starts_with("HTTP/1.") {
        return Err(bad(505, format!("unsupported protocol `{version}`")));
    }
    // HTTP/1.0 defaults to close, 1.1 to keep-alive
    let mut keep_alive = version != "HTTP/1.0";

    let mut content_length: Option<usize> = None;
    let mut expects_continue = false;
    loop {
        let Some(line) = read_line(reader, &mut head_bytes)? else {
            return Err(bad(400, "connection closed inside headers"));
        };
        if line.is_empty() {
            break;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(bad(400, format!("malformed header `{line}`")));
        };
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim();
        match name.as_str() {
            "content-length" => {
                let length = match value.parse::<usize>() {
                    Ok(length) if value.bytes().all(|b| b.is_ascii_digit()) => length,
                    _ => return Err(bad(400, format!("bad Content-Length `{value}`"))),
                };
                if content_length.is_some_and(|seen| seen != length) {
                    return Err(bad(400, "conflicting Content-Length headers"));
                }
                content_length = Some(length);
            }
            "transfer-encoding" if !value.eq_ignore_ascii_case("identity") => {
                return Err(bad(501, "chunked transfer encoding is not supported"));
            }
            "connection" => {
                if value.eq_ignore_ascii_case("close") {
                    keep_alive = false;
                } else if value.eq_ignore_ascii_case("keep-alive") {
                    keep_alive = true;
                }
            }
            "expect" => {
                if value.eq_ignore_ascii_case("100-continue") {
                    expects_continue = true;
                } else {
                    return Err(bad(417, format!("cannot satisfy Expect `{value}`")));
                }
            }
            _ => {}
        }
    }

    let content_length = content_length.unwrap_or(0);
    if content_length > max_body_bytes {
        return Err(bad(
            413,
            format!("body of {content_length} bytes exceeds the {max_body_bytes}-byte limit"),
        ));
    }
    if expects_continue && content_length > 0 {
        writer.write_all(b"HTTP/1.1 100 Continue\r\n\r\n")?;
        writer.flush()?;
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).map_err(|e| {
        if is_timeout(&e) {
            // mid-request stall: the head arrived but the body did not
            // within the read timeout — tell the client before closing
            bad(408, "timed out waiting for the request body")
        } else {
            bad(400, "body shorter than Content-Length")
        }
    })?;

    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    Ok(Request {
        method: method.to_string(),
        path: percent_decode(path),
        query: parse_query(query),
        keep_alive,
        body,
    })
}

/// Reads one CRLF-terminated line, enforcing the head-size limit across
/// calls. `Ok(None)` signals EOF before any byte. A read timeout before the
/// first byte of a request is an idle keep-alive connection
/// ([`ReadError::Closed`], dropped silently); once any byte of the head has
/// arrived the same timeout is a mid-request stall and becomes a 408.
fn read_line<R: BufRead>(
    reader: &mut R,
    head_bytes: &mut usize,
) -> Result<Option<String>, ReadError> {
    let mut raw = Vec::new();
    let budget = MAX_HEAD_BYTES.saturating_sub(*head_bytes) as u64 + 1;
    let n = match reader.by_ref().take(budget).read_until(b'\n', &mut raw) {
        Ok(n) => n,
        Err(e) => {
            let mid_request = *head_bytes > 0 || !raw.is_empty();
            return Err(if is_timeout(&e) && mid_request {
                bad(408, "timed out mid-request")
            } else {
                ReadError::Closed
            });
        }
    };
    if n == 0 {
        return Ok(None);
    }
    *head_bytes += n;
    if *head_bytes > MAX_HEAD_BYTES {
        return Err(bad(431, "request head too large"));
    }
    while matches!(raw.last(), Some(b'\n' | b'\r')) {
        raw.pop();
    }
    String::from_utf8(raw).map(Some).map_err(|_| bad(400, "request head is not UTF-8"))
}

/// Splits and percent-decodes a query string.
fn parse_query(query: &str) -> Vec<(String, String)> {
    query
        .split('&')
        .filter(|part| !part.is_empty())
        .map(|part| match part.split_once('=') {
            Some((k, v)) => (percent_decode(k), percent_decode(v)),
            None => (percent_decode(part), String::new()),
        })
        .collect()
}

/// Decodes `%XX` escapes and `+` (space); invalid escapes pass through.
fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            // decode on raw bytes: slicing `s` here could split a
            // multi-byte char after an invalid escape and panic
            b'%' if i + 3 <= bytes.len()
                && bytes[i + 1].is_ascii_hexdigit()
                && bytes[i + 2].is_ascii_hexdigit() =>
            {
                let hi = (bytes[i + 1] as char).to_digit(16).expect("hexdigit");
                let lo = (bytes[i + 2] as char).to_digit(16).expect("hexdigit");
                out.push((hi * 16 + lo) as u8);
                i += 3;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Reason phrases for the statuses this service emits.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        410 => "Gone",
        413 => "Payload Too Large",
        417 => "Expectation Failed",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        505 => "HTTP Version Not Supported",
        _ => "Unknown",
    }
}

/// `Content-Type` of every JSON endpoint.
pub const CONTENT_TYPE_JSON: &str = "application/json";

/// `Content-Type` of the Prometheus text exposition (`GET /v1/metrics`).
pub const CONTENT_TYPE_PROMETHEUS: &str = "text/plain; version=0.0.4; charset=utf-8";

/// Writes a complete JSON response.
pub fn write_response<W: Write>(
    writer: &mut W,
    status: u16,
    body: &[u8],
    keep_alive: bool,
) -> std::io::Result<()> {
    write_response_with(writer, status, &[], body, keep_alive)
}

/// [`write_response`] with extra headers (e.g. `Retry-After` on 503s)
/// inserted between the fixed block and `Content-Length`.
pub fn write_response_with<W: Write>(
    writer: &mut W,
    status: u16,
    extra_headers: &[(&str, String)],
    body: &[u8],
    keep_alive: bool,
) -> std::io::Result<()> {
    write_response_typed(writer, status, CONTENT_TYPE_JSON, extra_headers, body, keep_alive)
}

/// [`write_response_with`] with an explicit `Content-Type` — the metrics
/// endpoint speaks Prometheus text, everything else JSON.
pub fn write_response_typed<W: Write>(
    writer: &mut W,
    status: u16,
    content_type: &str,
    extra_headers: &[(&str, String)],
    body: &[u8],
    keep_alive: bool,
) -> std::io::Result<()> {
    write!(
        writer,
        "HTTP/1.1 {status} {}\r\nServer: saturn\r\nContent-Type: {content_type}\r\n",
        reason(status),
    )?;
    for (name, value) in extra_headers {
        write!(writer, "{name}: {value}\r\n")?;
    }
    write!(
        writer,
        "Content-Length: {}\r\nConnection: {}\r\n\r\n",
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    )?;
    writer.write_all(body)?;
    writer.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(raw: &str) -> Result<Request, ReadError> {
        parse_with_limit(raw, 1 << 20)
    }

    fn parse_with_limit(raw: &str, limit: usize) -> Result<Request, ReadError> {
        let mut reader = BufReader::new(raw.as_bytes());
        let mut sink = Vec::new();
        read_request(&mut reader, &mut sink, limit)
    }

    #[test]
    fn parses_post_with_body_and_query() {
        let req = parse(
            "POST /v1/analyze?directed=1&points=12&name=a%20b HTTP/1.1\r\n\
             Host: x\r\nContent-Length: 5\r\n\r\nhello",
        )
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/analyze");
        assert_eq!(req.param("points"), Some("12"));
        assert_eq!(req.param("name"), Some("a b"));
        assert!(req.flag("directed"));
        assert!(!req.flag("absent"));
        assert!(req.keep_alive);
        assert_eq!(req.body, b"hello");
    }

    #[test]
    fn connection_close_and_http10_disable_keep_alive() {
        let req = parse("GET / HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        assert!(!req.keep_alive);
        let req = parse("GET / HTTP/1.0\r\n\r\n").unwrap();
        assert!(!req.keep_alive);
    }

    #[test]
    fn oversized_body_is_413() {
        let err =
            parse_with_limit("POST / HTTP/1.1\r\nContent-Length: 100\r\n\r\n", 10).unwrap_err();
        assert!(matches!(err, ReadError::Bad(413, _)));
    }

    #[test]
    fn oversized_head_is_431() {
        let raw = format!("GET / HTTP/1.1\r\nX-Pad: {}\r\n\r\n", "y".repeat(MAX_HEAD_BYTES));
        let err = parse(&raw).unwrap_err();
        assert!(matches!(err, ReadError::Bad(431, _)));
    }

    #[test]
    fn content_length_must_be_digits_and_agree() {
        let ok = parse("POST / HTTP/1.1\r\nContent-Length: 2\r\ncontent-length: 2\r\n\r\nok");
        assert_eq!(ok.unwrap().body, b"ok");
        for raw in [
            "POST / HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\nabc",
            "POST / HTTP/1.1\r\nContent-Length: +2\r\n\r\nok",
            "POST / HTTP/1.1\r\nContent-Length: \r\n\r\n",
            "POST / HTTP/1.1\r\nContent-Length: 99999999999999999999999\r\n\r\n",
        ] {
            assert!(matches!(parse(raw).unwrap_err(), ReadError::Bad(400, _)), "{raw:?}");
        }
    }

    #[test]
    fn chunked_is_rejected() {
        let err = parse("POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n").unwrap_err();
        assert!(matches!(err, ReadError::Bad(501, _)));
    }

    #[test]
    fn expect_continue_is_acknowledged() {
        let raw = "POST / HTTP/1.1\r\nExpect: 100-continue\r\nContent-Length: 2\r\n\r\nok";
        let mut reader = BufReader::new(raw.as_bytes());
        let mut interim = Vec::new();
        let req = read_request(&mut reader, &mut interim, 1 << 20).unwrap();
        assert_eq!(req.body, b"ok");
        assert!(String::from_utf8_lossy(&interim).contains("100 Continue"));
    }

    #[test]
    fn eof_is_clean_close() {
        assert!(matches!(parse("").unwrap_err(), ReadError::Closed));
    }

    #[test]
    fn truncated_body_is_400() {
        let err = parse("POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc").unwrap_err();
        assert!(matches!(err, ReadError::Bad(400, _)));
    }

    #[test]
    fn percent_decoding_survives_invalid_escapes_and_multibyte_input() {
        assert_eq!(percent_decode("a%20b+c"), "a b c");
        assert_eq!(percent_decode("100%"), "100%");
        // '%' followed by a non-hex multi-byte char must not panic
        assert_eq!(percent_decode("x=%aé"), "x=%aé");
        assert_eq!(percent_decode("%é0"), "%é0");
        assert_eq!(percent_decode("%C3%A9"), "é");
    }

    #[test]
    fn response_has_content_length_and_connection() {
        let mut out = Vec::new();
        write_response(&mut out, 200, b"{}", true).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }

    #[test]
    fn extra_headers_are_emitted_before_content_length() {
        let mut out = Vec::new();
        write_response_with(&mut out, 503, &[("Retry-After", "7".to_string())], b"{}", false)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"));
        assert!(text.contains("Retry-After: 7\r\n"));
        assert!(text.contains("Connection: close\r\n"));
    }

    /// Serves `head` then fails every further read with a timeout error —
    /// the shape of a stalled peer under `SO_RCVTIMEO`.
    struct Stall<'a> {
        head: &'a [u8],
        served: usize,
    }

    impl Read for Stall<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.served < self.head.len() {
                let n = buf.len().min(self.head.len() - self.served);
                buf[..n].copy_from_slice(&self.head[self.served..self.served + n]);
                self.served += n;
                return Ok(n);
            }
            Err(std::io::Error::new(std::io::ErrorKind::WouldBlock, "timed out"))
        }
    }

    fn parse_stalled(head: &[u8]) -> Result<Request, ReadError> {
        let mut reader = BufReader::new(Stall { head, served: 0 });
        let mut sink = Vec::new();
        read_request(&mut reader, &mut sink, 1 << 20)
    }

    #[test]
    fn idle_timeout_before_any_byte_is_a_silent_close() {
        // keep-alive connection with no next request: not an error
        assert!(matches!(parse_stalled(b"").unwrap_err(), ReadError::Closed));
    }

    #[test]
    fn stall_inside_the_request_line_is_408() {
        let err = parse_stalled(b"POST /v1/ana").unwrap_err();
        assert!(matches!(err, ReadError::Bad(408, _)), "got {err:?}");
    }

    #[test]
    fn stall_inside_headers_is_408() {
        let err = parse_stalled(b"POST / HTTP/1.1\r\nContent-Le").unwrap_err();
        assert!(matches!(err, ReadError::Bad(408, _)), "got {err:?}");
    }

    #[test]
    fn stall_inside_the_body_is_408() {
        let err =
            parse_stalled(b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc").unwrap_err();
        assert!(matches!(err, ReadError::Bad(408, _)), "got {err:?}");
        // a clean disconnect mid-body stays a 400 (peer is gone anyway)
        let err = parse("POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc").unwrap_err();
        assert!(matches!(err, ReadError::Bad(400, _)), "got {err:?}");
    }
}
