//! Structured request fuzzing of [`http::read_request`]: request lines and
//! headers with NUL bytes, invalid UTF-8, huge tokens, duplicate and
//! conflicting `Content-Length`s, malformed lengths, missing CRLFs and
//! bodies over `max_body_bytes`. Every input must come back as a typed
//! [`ReadError::Bad`] with one of the statuses the parser documents, or as
//! a clean [`Request`] whose body is exactly the one agreed length — never
//! a panic, and never a request framed by one of two disagreeing lengths.
//!
//! The same generators, mixed with valid health and stats requests, are
//! also pipelined through a real [`Server`] on one keep-alive connection.

use proptest::prelude::*;
use saturn_server::http::{self, ReadError, Request, MAX_HEAD_BYTES};
use saturn_server::{Server, ServerConfig};
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::OnceLock;
use std::time::Duration;

/// Statuses `read_request` may answer an in-memory (never stalling) reader
/// with.
const STATUSES: [u16; 6] = [400, 413, 417, 431, 501, 505];

/// Token lengths: ordinary, just under and over the head limit.
const HUGE: [usize; 3] = [100, MAX_HEAD_BYTES - 64, MAX_HEAD_BYTES + 1];

/// `Content-Length` values that are not plain decimal digits.
const BAD_LENGTHS: [&str; 8] =
    ["+3", "-1", "", "0x10", "3 4", "1e3", "٣", "99999999999999999999999"];

fn request_line(kind: u32, pick: usize) -> Vec<u8> {
    match kind {
        0..=2 => b"POST /v1/analyze?points=3&directed=1 HTTP/1.1".to_vec(),
        3 => b"GET /v1/health HTTP/1.0".to_vec(),
        4 => b"PO\0ST /v1/\0stats HTTP/1.1".to_vec(),
        5 => format!("GET /{} HTTP/1.1", "a".repeat(HUGE[pick % 3])).into_bytes(),
        6 => b"GET /".to_vec(),
        7 => b"GET / HTTP/2".to_vec(),
        _ => b"GET /\xff\xfe HTTP/1.1".to_vec(),
    }
}

/// One header line; `len` feeds `Content-Length` values.
fn header(kind: u32, pick: usize, len: usize) -> Vec<u8> {
    match kind {
        0..=2 => format!("Content-Length: {len}").into_bytes(),
        3 => format!("content-length:{}", BAD_LENGTHS[pick % BAD_LENGTHS.len()]).into_bytes(),
        4 => [&b"Host: saturn"[..], b"Connection: close", b"Connection: keep-alive"][pick % 3]
            .to_vec(),
        5 => [&b"Expect: 100-continue"[..], b"Expect: magic"][pick % 2].to_vec(),
        6 => [&b"Transfer-Encoding: chunked"[..], b"Transfer-Encoding: identity"][pick % 2]
            .to_vec(),
        7 => b"X-\0Nul: a\0b".to_vec(),
        8 => b"no colon here".to_vec(),
        9 => format!("X-Pad: {}", "y".repeat(HUGE[pick % 3])).into_bytes(),
        _ => b"X-Bytes: \xc3\x28".to_vec(),
    }
}

/// A drawn request: the raw bytes plus what the parser must agree with.
#[derive(Debug)]
struct Case {
    raw: Vec<u8>,
    max_body: usize,
    /// Whether the head ends with the blank line (else the body is read
    /// as more header lines).
    head_complete: bool,
    /// The `Content-Length` values sent, in order (well-formed or not).
    lengths: Vec<String>,
    body: Vec<u8>,
}

fn arb_case() -> impl Strategy<Value = Case> {
    let headers = proptest::collection::vec((0u32..11, 0usize..24, 0usize..80), 0..6);
    let body = proptest::collection::vec(
        (0u32..4, any::<u8>()).prop_map(|(k, b)| [b, b'\0', b'\n', b':'][k as usize % 4]),
        0..64,
    );
    let shape = (0u32..9, 0usize..3, any::<bool>(), any::<bool>(), 0usize..4);
    (shape, headers, body).prop_map(|((line, pick, crlf, complete, max), headers, body)| {
        let eol: &[u8] = if crlf { b"\r\n" } else { b"\n" };
        let mut raw = request_line(line, pick);
        raw.extend_from_slice(eol);
        let mut lengths = Vec::new();
        for &(kind, pick, len) in &headers {
            let h = header(kind, pick, len);
            if h.to_ascii_lowercase().starts_with(b"content-length:") {
                let value = &h[b"content-length:".len()..];
                lengths.push(String::from_utf8_lossy(value).trim().to_string());
            }
            raw.extend_from_slice(&h);
            raw.extend_from_slice(eol);
        }
        if complete {
            raw.extend_from_slice(eol);
        }
        raw.extend_from_slice(&body);
        Case { raw, max_body: [0, 8, 32, 1 << 20][max], head_complete: complete, lengths, body }
    })
}

fn read(case: &Case) -> (Result<Request, ReadError>, Vec<u8>) {
    let mut reader = BufReader::new(&case.raw[..]);
    let mut interim = Vec::new();
    (http::read_request(&mut reader, &mut interim, case.max_body), interim)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1500))]

    #[test]
    fn requests_parse_cleanly_or_fail_typed(case in arb_case()) {
        let (result, interim) = read(&case);
        match result {
            Err(ReadError::Closed) => panic!("a non-empty request is no clean close: {case:?}"),
            Err(ReadError::Bad(status, message)) => {
                prop_assert!(STATUSES.contains(&status), "status {status} ({message})");
                prop_assert!(!message.is_empty());
            }
            Ok(request) => {
                prop_assert!(!request.method.is_empty());
                prop_assert!(request.body.len() <= case.max_body);
                if case.head_complete {
                    prop_assert!(case.raw.len() - case.body.len() <= MAX_HEAD_BYTES);
                    // every length sent was plain digits, and all agreed
                    let digits = |v: &String| v.bytes().all(|b| b.is_ascii_digit());
                    prop_assert!(case.lengths.iter().all(digits), "{:?}", case.lengths);
                    let parsed: Vec<usize> =
                        case.lengths.iter().map(|v| v.parse().unwrap()).collect();
                    prop_assert!(parsed.windows(2).all(|w| w[0] == w[1]), "{:?}", case.lengths);
                    let length = parsed.first().copied().unwrap_or(0);
                    prop_assert_eq!(&request.body[..], &case.body[..length]);
                }
                // the interim 100 Continue is only ever sent before a body
                prop_assert!(interim.is_empty() || !request.body.is_empty());
            }
        }
    }
}

/// One request of a pipelined batch: a valid health or stats request
/// (`Connection: close` when `close`), or a drawn fuzz case.
#[derive(Debug)]
enum Item {
    Health {
        close: bool,
    },
    /// A stats request over a path of `links` events.
    Stats {
        links: u64,
        close: bool,
    },
    Fuzz(Case),
}

impl Item {
    fn bytes(&self) -> Vec<u8> {
        let connection = |close: bool| if close { "Connection: close\r\n" } else { "" };
        match self {
            Item::Health { close } => {
                format!("GET /v1/health HTTP/1.1\r\nHost: saturn\r\n{}\r\n", connection(*close))
                    .into_bytes()
            }
            Item::Stats { links, close } => {
                let body: String =
                    (0..*links).map(|i| format!("a{i} a{} {i}\n", i + 1)).collect();
                format!(
                    "POST /v1/stats HTTP/1.1\r\n{}Content-Length: {}\r\n\r\n{body}",
                    connection(*close),
                    body.len()
                )
                .into_bytes()
            }
            Item::Fuzz(case) => case.raw.clone(),
        }
    }
}

fn arb_item() -> impl Strategy<Value = Item> {
    (0u32..6, 1u64..6, 0u32..4, arb_case()).prop_map(|(kind, links, close, case)| match kind {
        0 | 1 => Item::Health { close: close == 0 },
        2 | 3 => Item::Stats { links, close: close == 0 },
        _ => Item::Fuzz(case),
    })
}

/// One server for every case; it lives until the test process exits.
fn server_addr() -> SocketAddr {
    static ADDR: OnceLock<SocketAddr> = OnceLock::new();
    *ADDR.get_or_init(|| {
        let config = ServerConfig {
            addr: "127.0.0.1:0".into(),
            threads: 1,
            max_body_bytes: 64,
            ..ServerConfig::default()
        };
        let server = Server::bind(&config).expect("bind").spawn().expect("spawn");
        let addr = server.addr();
        std::mem::forget(server);
        addr
    })
}

/// A final response: status, whether it announced `Connection: close`,
/// and exactly `Content-Length` body bytes. Interim `100 Continue`
/// responses are skipped. `None` at end of stream.
fn read_framed(reader: &mut impl BufRead) -> Option<(u16, bool, Vec<u8>)> {
    loop {
        let mut line = Vec::new();
        if reader.read_until(b'\n', &mut line).expect("response bytes") == 0 {
            return None;
        }
        let line = String::from_utf8(line).expect("ASCII status line");
        let status: u16 = line
            .strip_prefix("HTTP/1.1 ")
            .and_then(|rest| rest.get(..3))
            .and_then(|code| code.parse().ok())
            .unwrap_or_else(|| panic!("not a status line: {line:?}"));
        let (mut length, mut close) = (None, None);
        loop {
            let mut header = String::new();
            reader.read_line(&mut header).expect("header line");
            let header = header.trim_end().to_ascii_lowercase();
            if header.is_empty() {
                break;
            }
            if let Some(v) = header.strip_prefix("content-length: ") {
                assert!(length.is_none(), "two Content-Length headers");
                length = Some(v.parse::<usize>().expect("numeric Content-Length"));
            }
            if let Some(v) = header.strip_prefix("connection: ") {
                close = Some(v == "close");
            }
        }
        if status == 100 {
            continue;
        }
        let mut body = vec![0; length.expect("every final response has a Content-Length")];
        reader.read_exact(&mut body).expect("body of the announced length");
        return Some((status, close.expect("every final response has Connection"), body));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Up to five requests written at once on one keep-alive connection
    /// come back as framed responses in request order, and the server
    /// sends nothing after its first `Connection: close` response.
    #[test]
    fn pipelined_requests_answer_in_order(items in proptest::collection::vec(arb_item(), 1..6)) {
        let mut stream = TcpStream::connect(server_addr()).expect("connect");
        stream.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
        let raw: Vec<u8> = items.iter().flat_map(Item::bytes).collect();
        // the server may already have answered an early request with a
        // close and shut the connection while the rest was still in flight
        if let Err(e) = stream.write_all(&raw) {
            prop_assert!(matches!(e.kind(), ErrorKind::BrokenPipe | ErrorKind::ConnectionReset));
        }
        let _ = stream.shutdown(Shutdown::Write);
        let mut reader = BufReader::new(stream);
        let mut responses = Vec::new();
        while let Some(response) = read_framed(&mut reader) {
            let close = response.1;
            responses.push(response);
            if close {
                // a reset instead of a FIN is fine: the server closed with
                // pipelined bytes unread, and none may follow the close
                let mut rest = Vec::new();
                let read = reader.read_to_end(&mut rest);
                prop_assert!(
                    read.is_ok() || read.unwrap_err().kind() == ErrorKind::ConnectionReset
                );
                prop_assert!(rest.is_empty(), "{} bytes after the close", rest.len());
                break;
            }
        }
        let valid = items.iter().take_while(|item| !matches!(item, Item::Fuzz(_))).count();
        for (i, item) in items[..valid].iter().enumerate() {
            let (status, close, body) = responses.get(i).expect("one response per valid request");
            prop_assert_eq!(*status, 200, "request {}: {:?}", i, String::from_utf8_lossy(body));
            let v: serde_json::Value = serde_json::from_slice(body).expect("JSON body");
            let wants_close = match item {
                Item::Health { close } => {
                    prop_assert_eq!(v["status"].as_str(), Some("ok"), "request {}", i);
                    *close
                }
                Item::Stats { links, close } => {
                    prop_assert_eq!(v["links"].as_u64(), Some(*links), "request {}", i);
                    *close
                }
                Item::Fuzz(_) => unreachable!("only the valid prefix"),
            };
            prop_assert_eq!(*close, wants_close, "request {}", i);
            if wants_close {
                prop_assert_eq!(responses.len(), i + 1);
                break;
            }
        }
        if valid == items.len() && !responses.iter().any(|r| r.1) {
            prop_assert_eq!(responses.len(), items.len());
        }
    }
}
