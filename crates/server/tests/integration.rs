//! End-to-end tests of the analysis service over real sockets.

use saturn_server::{Server, ServerConfig};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

/// Starts a server with `tweak` applied to a small test-friendly config.
fn start(tweak: impl FnOnce(&mut ServerConfig)) -> saturn_server::ServerHandle {
    let mut config = ServerConfig {
        addr: "127.0.0.1:0".into(),
        threads: 2,
        cache_bytes: 8 << 20,
        queue_depth: 16,
        max_body_bytes: 1 << 20,
        max_connections: 64,
        ..ServerConfig::default()
    };
    tweak(&mut config);
    Server::bind(&config).expect("bind").spawn().expect("spawn")
}

/// A deterministic trace with enough structure for a non-degenerate sweep.
fn trace(nodes: u32, events: i64, gap: i64) -> String {
    let mut text = String::new();
    for i in 0..events {
        text.push_str(&format!(
            "n{} n{} {}\n",
            i % nodes as i64,
            (i + 1) % nodes as i64,
            i * gap + (i % 3)
        ));
    }
    text
}

struct Response {
    status: u16,
    body: Vec<u8>,
    retry_after: Option<u32>,
    content_type: Option<String>,
}

/// Writes `count` requests over one connection, reading each response before
/// sending the next (keep-alive path when `count > 1`).
fn requests_on(
    stream: &mut TcpStream,
    method: &str,
    target: &str,
    body: &[u8],
    count: usize,
) -> Vec<Response> {
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut responses = Vec::new();
    for _ in 0..count {
        write!(
            stream,
            "{method} {target} HTTP/1.1\r\nHost: saturn\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )
        .expect("write head");
        stream.write_all(body).expect("write body");
        responses.push(read_response(&mut reader));
    }
    responses
}

fn request(addr: SocketAddr, method: &str, target: &str, body: &[u8]) -> Response {
    let mut stream = TcpStream::connect(addr).expect("connect");
    requests_on(&mut stream, method, target, body, 1).pop().expect("one response")
}

fn read_response<R: BufRead>(reader: &mut R) -> Response {
    let mut status_line = String::new();
    reader.read_line(&mut status_line).expect("status line");
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line {status_line:?}"));
    let mut content_length = 0usize;
    let mut retry_after = None;
    let mut content_type = None;
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).expect("header line");
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        let lowered = line.to_ascii_lowercase();
        if let Some(v) = lowered.strip_prefix("content-length:") {
            content_length = v.trim().parse().expect("content length");
        }
        if let Some(v) = lowered.strip_prefix("retry-after:") {
            retry_after = Some(v.trim().parse().expect("retry-after"));
        }
        if let Some(v) = lowered.strip_prefix("content-type:") {
            content_type = Some(v.trim().to_string());
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).expect("body");
    Response { status, body, retry_after, content_type }
}

fn json(response: &Response) -> serde_json::Value {
    serde_json::from_slice(&response.body).unwrap_or_else(|e| {
        panic!("invalid JSON ({e}): {}", String::from_utf8_lossy(&response.body))
    })
}

#[test]
fn stats_endpoint_shares_the_cli_shape() {
    let server = start(|_| {});
    let body = trace(6, 200, 40);
    let response = request(server.addr(), "POST", "/v1/stats?directed=1", body.as_bytes());
    assert_eq!(response.status, 200);
    let v = json(&response);
    assert_eq!(v["nodes"].as_u64(), Some(6));
    assert_eq!(v["links"].as_u64(), Some(200));
    assert_eq!(v["dropped_duplicates"].as_u64(), Some(0));
    assert!(v["mean_inter_contact"].as_f64().unwrap() > 0.0);
    server.stop();
}

/// The sweep sizes its own tiles: `?tile=` is retired (a `400` naming it,
/// on analyze and on a session refresh alike), and the layouts that
/// different pool sizes pick return byte-identical reports.
#[test]
fn tile_parameter_is_retired_and_threads_keep_report_bytes() {
    // caching disabled: every request is a genuinely cold sweep, so the
    // byte equality below is tiling determinism, not a cache hit
    let one = start(|config| {
        config.cache_bytes = 0;
        config.threads = 1;
    });
    let four = start(|config| {
        config.cache_bytes = 0;
        config.threads = 4;
    });
    let body = trace(8, 200, 30);
    let reference = request(one.addr(), "POST", "/v1/analyze?points=8", body.as_bytes());
    assert_eq!(reference.status, 200);
    assert!(!json(&reference)["results"].as_array().unwrap().is_empty());
    let wide = request(four.addr(), "POST", "/v1/analyze?points=8", body.as_bytes());
    assert_eq!(wide.status, 200);
    assert_eq!(reference.body, wide.body, "thread count must not change report bytes");

    let created =
        request(four.addr(), "POST", "/v1/streams?t_begin=0&t_end=6000", body.as_bytes());
    assert_eq!(created.status, 201);
    let sid = json(&created)["stream"].as_u64().expect("stream id");
    for target in [
        "/v1/analyze?points=8&tile=7".to_string(),
        "/v1/analyze?points=8&tile=0".to_string(),
        format!("/v1/streams/{sid}/analyze?points=8&tile=7"),
    ] {
        let retired = request(four.addr(), "POST", &target, body.as_bytes());
        assert_eq!(retired.status, 400, "{target}");
        let v = json(&retired);
        assert_eq!(v["error"]["code"].as_str(), Some("bad_request"), "{target}");
        let message = v["error"]["message"].as_str().unwrap();
        assert!(message.contains("tile=") && message.contains("retired"), "{message}");
    }
    one.stop();
    four.stop();
}

#[test]
fn analyze_cold_then_cached_is_byte_identical() {
    let server = start(|_| {});
    let body = trace(6, 240, 40);
    let target = "/v1/analyze?points=10";
    let cold = request(server.addr(), "POST", target, body.as_bytes());
    assert_eq!(cold.status, 200);
    assert!(json(&cold)["results"].as_array().unwrap().len() >= 5);

    let health = json(&request(server.addr(), "GET", "/v1/health", b""));
    let misses_before = health["cache"]["misses"].as_u64().unwrap();
    let hits_before = health["cache"]["hits"].as_u64().unwrap();

    let cached = request(server.addr(), "POST", target, body.as_bytes());
    assert_eq!(cached.status, 200);
    assert_eq!(cold.body, cached.body, "cache hit must be byte-identical");

    let health = json(&request(server.addr(), "GET", "/v1/health", b""));
    assert_eq!(health["cache"]["misses"].as_u64().unwrap(), misses_before);
    assert_eq!(health["cache"]["hits"].as_u64().unwrap(), hits_before + 1);
    // content addressing: same triplets in a different line order also hit
    let reversed: String = body.lines().rev().map(|l| format!("{l}\n")).collect();
    let reordered = request(server.addr(), "POST", target, reversed.as_bytes());
    assert_eq!(cold.body, reordered.body, "content-addressed, not byte-addressed");
    server.stop();
}

#[test]
fn concurrent_clients_get_byte_identical_reports_cold_and_cached() {
    const CLIENTS: usize = 6;
    let server = start(|_| {});
    let addr = server.addr();
    let body: Arc<String> = Arc::new(trace(7, 280, 35));
    let target = "/v1/analyze?points=12";

    let round = || -> Vec<Vec<u8>> {
        let workers: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let body = Arc::clone(&body);
                std::thread::spawn(move || {
                    let response = request(addr, "POST", target, body.as_bytes());
                    assert_eq!(response.status, 200);
                    response.body
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().expect("client thread")).collect()
    };

    // cold: every client races the empty cache; in-flight coalescing must
    // still hand all of them one identical report
    let cold = round();
    for other in &cold[1..] {
        assert_eq!(&cold[0], other, "cold concurrent responses diverged");
    }
    // cached: the same fan-out served from the report cache
    let cached = round();
    for other in &cached {
        assert_eq!(&cold[0], other, "cached responses diverged from cold");
    }

    let health = json(&request(addr, "GET", "/v1/health", b""));
    let executed = health["jobs"]["executed"].as_u64().unwrap();
    assert_eq!(executed, 1, "one sweep must have served all {CLIENTS} cold clients");
    server.stop();
}

/// "Key first, parse on miss": a repeated body finds its cache key in the
/// parse memo. On every trace endpoint the repeat runs no job and serves
/// the first response's bytes, counted as one cache hit.
#[test]
fn same_bytes_twice_run_one_job_and_give_identical_bodies() {
    let server = start(|_| {});
    let addr = server.addr();
    let body = trace(6, 220, 35);
    for target in ["/v1/analyze?points=9", "/v1/validate?points=6", "/v1/stats"] {
        let first = request(addr, "POST", target, body.as_bytes());
        assert_eq!(first.status, 200, "{target}");
        let second = request(addr, "POST", target, body.as_bytes());
        assert_eq!(second.status, 200, "{target}");
        assert_eq!(first.body, second.body, "{target}: repeat must be byte-identical");
    }
    let health = json(&request(addr, "GET", "/v1/health", b""));
    assert_eq!(health["jobs"]["executed"].as_u64(), Some(2), "one job per sweep endpoint");
    assert_eq!(health["cache"]["hits"].as_u64(), Some(3));
    assert_eq!(health["cache"]["misses"].as_u64(), Some(3));
    server.stop();
}

/// The memo key is the body *and* its directedness, and the request key
/// adds every report parameter: the same bytes under another `directed`,
/// `points` or `sample` get their own report, equal to what a server that
/// never saw the bytes computes.
#[test]
fn same_bytes_with_other_parameters_get_their_own_reports() {
    let server = start(|_| {});
    let body = trace(7, 240, 30);
    let base = request(server.addr(), "POST", "/v1/analyze?points=8", body.as_bytes());
    assert_eq!(base.status, 200);
    for target in [
        "/v1/analyze?points=8&directed=1",
        "/v1/analyze?points=10",
        "/v1/analyze?points=8&sample=4&seed=3",
    ] {
        let seen = request(server.addr(), "POST", target, body.as_bytes());
        assert_eq!(seen.status, 200, "{target}");
        assert_ne!(seen.body, base.body, "{target} must not be served the base report");
        let fresh_server = start(|_| {});
        let fresh = request(fresh_server.addr(), "POST", target, body.as_bytes());
        fresh_server.stop();
        assert_eq!(seen.body, fresh.body, "{target}: memoized key diverged from a fresh parse");
    }
    // a mirrored pair is one link undirected, two directed: stats differ
    let mirrored = b"a b 1\nb a 1\nb c 2\n";
    let stats = |target: &str| request(server.addr(), "POST", target, mirrored).body;
    let undirected = stats("/v1/stats");
    assert_ne!(undirected, stats("/v1/stats?directed=1"));
    assert_eq!(undirected, stats("/v1/stats?directed=0"));
    assert_eq!(undirected, stats("/v1/stats"));
    let health = json(&request(server.addr(), "GET", "/v1/health", b""));
    assert_eq!(health["jobs"]["executed"].as_u64(), Some(4));
    server.stop();
}

/// A body that does not parse has no key: it is a `400` every time, and
/// never reaches the cache (no lookup is counted for it).
#[test]
fn malformed_bodies_are_rejected_every_time_and_never_memoized() {
    let server = start(|_| {});
    let bodies: [&[u8]; 3] =
        [b"a b\n", b"a b 1\nc d banana\n", &[0xff, 0xfe, b' ', b'1', b'\n']];
    for body in bodies {
        for target in ["/v1/analyze?points=8", "/v1/validate?points=6", "/v1/stats"] {
            for _ in 0..3 {
                let response = request(server.addr(), "POST", target, body);
                assert_envelope(&response, 400, "bad_request");
                let message = json(&response)["error"]["message"].as_str().unwrap().to_string();
                assert!(message.contains("trace body"), "{target}: {message}");
            }
        }
    }
    let health = json(&request(server.addr(), "GET", "/v1/health", b""));
    assert_eq!(health["cache"]["hits"].as_u64(), Some(0));
    assert_eq!(health["cache"]["misses"].as_u64(), Some(0));
    assert_eq!(health["jobs"]["executed"].as_u64(), Some(0));
    server.stop();
}

/// The memo holds keys, not reports: when the report behind a memo hit
/// was evicted from a tiny cache, the request falls through, parses, and
/// recomputes the same bytes.
#[test]
fn memo_hit_on_an_evicted_report_recomputes_the_same_bytes() {
    let (a, b) = (trace(6, 200, 30), trace(6, 200, 31));
    let target = "/v1/analyze?points=8";
    let sizing = start(|_| {});
    let size = |body: &str| request(sizing.addr(), "POST", target, body.as_bytes()).body.len();
    let room = size(&a).max(size(&b)) + 16;
    sizing.stop();
    // room for either report, not for both
    let server = start(|c| c.cache_bytes = room);
    let first = request(server.addr(), "POST", target, a.as_bytes());
    assert_eq!(request(server.addr(), "POST", target, b.as_bytes()).status, 200);
    let again = request(server.addr(), "POST", target, a.as_bytes());
    assert_eq!(again.status, 200);
    assert_eq!(first.body, again.body, "recomputed report must be byte-identical");
    let text = scrape_metrics(server.addr());
    assert!(metric_sample(&text, "saturn_cache_evictions_total") >= 1.0);
    assert_eq!(metric_sample(&text, "saturn_cache_hits_total"), 0.0);
    assert_eq!(metric_sample(&text, "saturn_cache_misses_total"), 3.0);
    assert_eq!(metric_sample(&text, "saturn_jobs_executed_total"), 3.0);
    server.stop();
}

#[test]
fn async_jobs_roundtrip_matches_sync() {
    let server = start(|_| {});
    let body = trace(5, 150, 50);
    let sync = request(server.addr(), "POST", "/v1/analyze?points=8", body.as_bytes());
    assert_eq!(sync.status, 200);

    // different points so the async submission is a genuinely new job
    let submitted =
        request(server.addr(), "POST", "/v1/analyze?points=9&async=1", body.as_bytes());
    assert_eq!(submitted.status, 202);
    let id = json(&submitted)["job"].as_u64().expect("job id");

    let result = request(server.addr(), "GET", &format!("/v1/jobs/{id}?wait=1"), b"");
    assert_eq!(result.status, 200);
    assert!(json(&result)["results"].as_array().unwrap().len() >= 4);

    // polled again after completion: the same outcome body
    let again = request(server.addr(), "GET", &format!("/v1/jobs/{id}"), b"");
    assert_eq!(again.body, result.body);

    let missing = request(server.addr(), "GET", "/v1/jobs/99999", b"");
    assert_eq!(missing.status, 404);
    server.stop();
}

#[test]
fn validate_endpoint_returns_loss_curves() {
    let server = start(|_| {});
    let body = trace(8, 160, 7);
    let response =
        request(server.addr(), "POST", "/v1/validate?points=8&weighted=1", body.as_bytes());
    assert_eq!(response.status, 200);
    let v = json(&response);
    assert!(v["reference_trips"].as_u64().unwrap() > 0);
    let points = v["points"].as_array().unwrap();
    assert!(points.len() >= 8);
    let last = &points[points.len() - 1];
    assert_eq!(last["k"].as_u64(), Some(1));
    assert!((last["lost_transitions"].as_f64().unwrap() - 1.0).abs() < 1e-9);
    server.stop();
}

#[test]
fn keep_alive_serves_multiple_requests_on_one_connection() {
    let server = start(|_| {});
    let body = trace(5, 100, 20);
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    let responses = requests_on(&mut stream, "POST", "/v1/stats", body.as_bytes(), 3);
    assert_eq!(responses.len(), 3);
    for response in &responses {
        assert_eq!(response.status, 200);
        assert_eq!(response.body, responses[0].body);
    }
    server.stop();
}

#[test]
fn error_paths_have_proper_statuses() {
    let server = start(|c| c.max_body_bytes = 512);
    let addr = server.addr();
    assert_eq!(request(addr, "GET", "/nope", b"").status, 404);
    assert_eq!(request(addr, "GET", "/v1/analyze", b"").status, 405);
    assert_eq!(request(addr, "POST", "/v1/analyze", b"not a trace").status, 400);
    assert_eq!(request(addr, "POST", "/v1/analyze?points=x", b"a b 1\na c 2\n").status, 400);
    let big = trace(10, 200, 10);
    assert!(big.len() > 512);
    assert_eq!(request(addr, "POST", "/v1/analyze", big.as_bytes()).status, 413);
    let error = request(addr, "POST", "/v1/stats", b"a b nine\n");
    assert_eq!(error.status, 400);
    assert!(json(&error)["error"]["message"].as_str().unwrap().contains("not an integer"));
    server.stop();
}

#[test]
fn zero_queue_depth_yields_backpressure_503() {
    let server = start(|c| c.queue_depth = 0);
    let response =
        request(server.addr(), "POST", "/v1/analyze?points=8", trace(5, 100, 20).as_bytes());
    assert_eq!(response.status, 503);
    let error = json(&response);
    assert_eq!(error["error"]["code"].as_str(), Some("queue_full"));
    assert_eq!(error["error"]["retryable"].as_bool(), Some(true));
    assert!(error["error"]["message"].as_str().unwrap().contains("queue"));
    assert!(
        response.retry_after.unwrap_or(0) >= 1,
        "backpressure 503 must carry a Retry-After hint"
    );
    // non-queued endpoints still work
    let stats = request(server.addr(), "POST", "/v1/stats", trace(5, 100, 20).as_bytes());
    assert_eq!(stats.status, 200);
    server.stop();
}

/// A request that stalls mid-transmission gets `408 Request Timeout`; a
/// connection that goes idle *between* requests is closed silently (no
/// status), since nothing was half-sent.
#[test]
fn stalls_get_408_but_idle_keep_alive_closes_silently() {
    let server = start(|c| c.read_timeout = Duration::from_millis(200));
    let addr = server.addr();

    // stall inside the head: the request line never finishes
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(b"POST /v1/stats HTTP/1.1\r\nContent-Le").expect("partial head");
    let response = read_response(&mut BufReader::new(stream.try_clone().expect("clone")));
    assert_eq!(response.status, 408);

    // stall inside the body: head complete, body short of Content-Length
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(b"POST /v1/stats HTTP/1.1\r\nContent-Length: 50\r\n\r\na b 1\n")
        .expect("partial body");
    let response = read_response(&mut BufReader::new(stream.try_clone().expect("clone")));
    assert_eq!(response.status, 408);

    // idle before any byte: silent close, not a status line
    let stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut leftovers = Vec::new();
    reader.read_to_end(&mut leftovers).expect("read to close");
    assert!(leftovers.is_empty(), "idle close must not write a response");
    server.stop();
}

/// `?deadline_ms=` turns an over-budget sweep into a structured `504`
/// reporting partial progress, while a generous per-request deadline
/// overrides a tight server-wide default.
#[test]
fn deadlines_yield_structured_504s_and_per_request_override() {
    // The supervisor fires a running job's token on its 10 ms tick, and a
    // small sweep can finish inside one tick; holding each analyze job for
    // 50 ms keeps the expired one running until the token fires, so it
    // ends as a cancelled job and not as a completed one.
    let server = start(|c| {
        c.default_deadline_ms = 1;
        c.faults =
            Some(Arc::new(saturn_server::FaultPlan::parse("slow:analyze:50ms").expect("plan")));
    });
    let body = trace(10, 400, 30);

    // server-wide 1ms default: the sweep cannot finish in time
    let expired = request(server.addr(), "POST", "/v1/analyze?points=12", body.as_bytes());
    assert_eq!(expired.status, 504);
    let v = json(&expired);
    assert_eq!(v["error"]["code"].as_str(), Some("deadline_exceeded"));
    assert_eq!(v["error"]["retryable"].as_bool(), Some(true));
    assert!(v["error"]["message"].as_str().unwrap().contains("deadline"));
    let done = v["error"]["scales_done"].as_u64().expect("scales_done");
    let total = v["error"]["scales_total"].as_u64().expect("scales_total");
    assert!(total >= 1 && done <= total, "progress {done}/{total} must be coherent");

    // per-request override beats the default; the result is a normal report
    let relaxed = request(
        server.addr(),
        "POST",
        "/v1/analyze?points=12&deadline_ms=60000",
        body.as_bytes(),
    );
    assert_eq!(relaxed.status, 200);
    assert!(!json(&relaxed)["results"].as_array().unwrap().is_empty());

    // a timed-out sweep must not have poisoned the cache: the same content
    // served fresh equals a repeat (cache-hit) request byte for byte
    let repeat = request(
        server.addr(),
        "POST",
        "/v1/analyze?points=12&deadline_ms=60000",
        body.as_bytes(),
    );
    assert_eq!(repeat.status, 200);
    assert_eq!(relaxed.body, repeat.body, "cache hit must be byte-identical");

    let health = json(&request(server.addr(), "GET", "/v1/health", b""));
    assert!(health["jobs"]["cancelled"].as_u64().unwrap() >= 1);
    server.stop();
}

#[test]
fn deadline_ms_zero_and_malformed_values() {
    let server = start(|c| c.default_deadline_ms = 1);
    let body = trace(6, 150, 40);
    // deadline_ms=0 disables the server-wide default entirely
    let unlimited =
        request(server.addr(), "POST", "/v1/analyze?points=8&deadline_ms=0", body.as_bytes());
    assert_eq!(unlimited.status, 200);
    let bad = request(
        server.addr(),
        "POST",
        "/v1/analyze?points=8&deadline_ms=soon",
        body.as_bytes(),
    );
    assert_eq!(bad.status, 400);
    server.stop();
}

#[test]
fn health_reports_lifecycle_counters() {
    let server = start(|_| {});
    let body = trace(5, 120, 30);
    assert_eq!(
        request(server.addr(), "POST", "/v1/analyze?points=8", body.as_bytes()).status,
        200
    );
    let health = json(&request(server.addr(), "GET", "/v1/health", b""));
    let jobs = &health["jobs"];
    assert_eq!(jobs["executed"].as_u64(), Some(1));
    assert_eq!(jobs["completed"].as_u64(), Some(1));
    assert_eq!(jobs["cancelled"].as_u64(), Some(0));
    assert_eq!(jobs["panicked"].as_u64(), Some(0));
    assert_eq!(jobs["deadline_rejected"].as_u64(), Some(0));
    assert!(jobs["ewma_job_secs"].as_f64().unwrap() > 0.0);
    assert_eq!(health["draining"].as_bool(), Some(false));
    server.stop();
}

/// After `drain`, in-flight results were allowed to finish and new
/// connections are refused with `503 + Retry-After` (lame-duck mode).
#[test]
fn drain_completes_work_then_goes_lame_duck() {
    let server = start(|_| {});
    let body = trace(6, 150, 40);
    assert_eq!(
        request(server.addr(), "POST", "/v1/analyze?points=8", body.as_bytes()).status,
        200
    );
    let stats = server.drain(Duration::from_secs(30));
    assert_eq!(stats.queued, 0);
    assert_eq!(stats.running, 0);
    assert_eq!(stats.completed, 1);

    // the lame-duck 503 is written as soon as the connection is accepted,
    // possibly before our request bytes land -- write best-effort, then read
    let stream = TcpStream::connect(server.addr()).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let _ = writer.write_all(b"GET /v1/health HTTP/1.1\r\nContent-Length: 0\r\n\r\n");
    let refused = read_response(&mut BufReader::new(stream));
    assert_eq!(refused.status, 503);
    assert!(refused.retry_after.unwrap_or(0) >= 1, "lame-duck 503 must carry Retry-After");
    server.stop();
}

/// The 503s the accept thread writes itself reach a client that pipelined
/// two requests as a complete envelope, for the lame-duck refusal and the
/// connection-limit one alike: the unread input is discarded before the
/// socket closes, so the kernel does not reset the connection over it.
#[test]
fn accept_thread_503s_survive_pipelined_requests() {
    let pipelined = b"GET /v1/health HTTP/1.1\r\nContent-Length: 0\r\n\r\n\
                      GET /v1/health HTTP/1.1\r\nContent-Length: 0\r\n\r\n";
    let refused = |addr: SocketAddr| {
        let stream = TcpStream::connect(addr).expect("connect");
        // the 503 may be written before the requests land: write best-effort
        let _ = stream.try_clone().expect("clone").write_all(pipelined);
        read_response(&mut BufReader::new(stream))
    };

    let server = start(|_| {});
    server.drain(Duration::from_secs(5));
    for _ in 0..3 {
        assert_envelope(&refused(server.addr()), 503, "draining");
    }
    server.stop();

    // one connection slot, held by a served keep-alive connection
    let server = start(|c| c.max_connections = 1);
    let mut held = TcpStream::connect(server.addr()).expect("connect");
    assert_eq!(requests_on(&mut held, "GET", "/v1/health", b"", 1)[0].status, 200);
    for _ in 0..3 {
        assert_envelope(&refused(server.addr()), 503, "connection_limit");
    }
    drop(held);
    server.stop();
}

/// The value of a sample line in a Prometheus scrape. `name` includes the
/// label set for labelled families (`foo{a="b"}`).
fn metric_sample(text: &str, name: &str) -> f64 {
    text.lines()
        .find_map(|line| line.strip_prefix(name).and_then(|rest| rest.strip_prefix(' ')))
        .unwrap_or_else(|| panic!("metric {name} not in scrape"))
        .parse()
        .expect("numeric sample")
}

fn scrape_metrics(addr: SocketAddr) -> String {
    let response = request(addr, "GET", "/v1/metrics", b"");
    assert_eq!(response.status, 200);
    assert_eq!(
        response.content_type.as_deref(),
        Some("text/plain; version=0.0.4; charset=utf-8"),
        "metrics must be Prometheus text, not JSON"
    );
    String::from_utf8(response.body).expect("metrics utf8")
}

/// Polls the scrape until `name` reaches at least `want` — request counters
/// are bumped on the connection thread just *after* the response bytes go
/// out, so an immediate re-scrape can race the previous request's count.
fn await_metric_at_least(addr: SocketAddr, name: &str, want: f64) -> f64 {
    for _ in 0..200 {
        let got = metric_sample(&scrape_metrics(addr), name);
        if got >= want {
            return got;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    panic!("metric {name} never reached {want}");
}

#[test]
fn metrics_exposition_is_wellformed() {
    let server = start(|_| {});
    let body = trace(5, 120, 30);
    assert_eq!(
        request(server.addr(), "POST", "/v1/analyze?points=8", body.as_bytes()).status,
        200
    );
    let text = scrape_metrics(server.addr());
    // every family the crate documents is present from the first scrape
    for family in [
        "saturn_requests_total",
        "saturn_queue_depth",
        "saturn_cache_bytes",
        "saturn_cache_entries",
        "saturn_cache_hits_total",
        "saturn_cache_misses_total",
        "saturn_cache_evictions_total",
        "saturn_jobs_executed_total",
        "saturn_jobs_completed_total",
        "saturn_jobs_cancelled_total",
        "saturn_jobs_panicked_total",
        "saturn_jobs_coalesced_total",
        "saturn_jobs_rejected_total",
        "saturn_jobs_deadline_rejected_total",
        "saturn_executor_restarts_total",
        "saturn_sweep_tiles_total",
        "saturn_sweep_scales_total",
        "saturn_dp_trips_total",
        "saturn_dp_traversals_total",
        "saturn_dp_chain_offers_total",
        "saturn_dp_snap_entries_total",
        "saturn_dp_degree1_steps_total",
        "saturn_stream_sessions_open",
        "saturn_stream_sessions_opened_total",
        "saturn_stream_sessions_expired_total",
        "saturn_stream_events_appended_total",
        "saturn_stream_refreshes_total",
        "saturn_stream_scales_reused_total",
        "saturn_stream_tiles_skipped_total",
        "saturn_stream_suffix_windows_rebuilt_total",
        "saturn_stream_stale_refreshes_total",
        "saturn_parse_seconds",
        "saturn_handle_seconds",
        "saturn_serialize_seconds",
        "saturn_request_seconds",
        "saturn_queue_wait_seconds",
        "saturn_sweep_seconds",
        "saturn_tile_seconds",
    ] {
        assert!(text.contains(&format!("# TYPE {family} ")), "missing family {family}");
    }
    // exposition shape: every line is `# HELP`, `# TYPE`, or `name[{labels}] value`
    for line in text.lines() {
        assert!(!line.is_empty(), "blank line in exposition");
        if line.starts_with("# HELP ") || line.starts_with("# TYPE ") {
            continue;
        }
        let (name, value) = line.rsplit_once(' ').expect("sample line");
        assert!(!name.is_empty());
        assert!(value.parse::<f64>().is_ok(), "unparsable value in `{line}`");
    }
    server.stop();
}

/// One cold analyze + one cache hit: request counters move, the sweep
/// aggregates fill in, and every number `/v1/health` reports matches the
/// scrape exactly — they are the same atomics.
#[test]
fn metrics_count_requests_and_agree_with_health() {
    let server = start(|_| {});
    let addr = server.addr();
    let body = trace(6, 150, 40);
    assert_eq!(request(addr, "POST", "/v1/analyze?points=8", body.as_bytes()).status, 200);
    assert_eq!(request(addr, "POST", "/v1/analyze?points=8", body.as_bytes()).status, 200);
    let analyze = await_metric_at_least(
        addr,
        "saturn_requests_total{route=\"analyze\",status=\"2xx\"}",
        2.0,
    );
    assert_eq!(analyze, 2.0, "exactly two analyze requests");

    let text = scrape_metrics(addr);
    // one executed job (the second request hit the cache), sealed end to end
    assert_eq!(metric_sample(&text, "saturn_jobs_executed_total"), 1.0);
    assert_eq!(metric_sample(&text, "saturn_queue_wait_seconds_count"), 1.0);
    assert_eq!(metric_sample(&text, "saturn_sweep_seconds_count"), 1.0);
    // the sweep decomposed into at least one tile per scale, and the DP
    // aggregates flowed up from the engines
    let scales = metric_sample(&text, "saturn_sweep_scales_total");
    let tiles = metric_sample(&text, "saturn_sweep_tiles_total");
    assert!(scales >= 1.0, "at least one scale analyzed");
    assert!(tiles >= scales, "tiles cover scales");
    assert_eq!(metric_sample(&text, "saturn_tile_seconds_count"), tiles);
    assert!(metric_sample(&text, "saturn_dp_trips_total") > 0.0);
    assert!(metric_sample(&text, "saturn_dp_traversals_total") > 0.0);

    // health and metrics can never disagree: same atomics, read twice
    let health = json(&request(addr, "GET", "/v1/health", b""));
    let text = scrape_metrics(addr);
    let cache = &health["cache"];
    assert_eq!(
        cache["hits"].as_u64().unwrap() as f64,
        metric_sample(&text, "saturn_cache_hits_total")
    );
    assert_eq!(
        cache["misses"].as_u64().unwrap() as f64,
        metric_sample(&text, "saturn_cache_misses_total")
    );
    assert_eq!(
        cache["bytes"].as_u64().unwrap() as f64,
        metric_sample(&text, "saturn_cache_bytes")
    );
    assert_eq!(
        cache["entries"].as_u64().unwrap() as f64,
        metric_sample(&text, "saturn_cache_entries")
    );
    let jobs = &health["jobs"];
    assert_eq!(
        jobs["executed"].as_u64().unwrap() as f64,
        metric_sample(&text, "saturn_jobs_executed_total")
    );
    assert_eq!(
        jobs["completed"].as_u64().unwrap() as f64,
        metric_sample(&text, "saturn_jobs_completed_total")
    );
    assert_eq!(
        jobs["queued"].as_u64().unwrap() as f64,
        metric_sample(&text, "saturn_queue_depth")
    );
    server.stop();
}

/// `--executors 3` on two threads runs two executors: `/v1/health`
/// reports the effective count, and its counters are the scrape's
/// counters.
#[test]
fn health_reports_executors_capped_by_threads() {
    let server = start(|c| c.executors = 3);
    let addr = server.addr();
    let body = trace(6, 150, 40);
    // distinct points → distinct fingerprints → four cold sweeps, plus one
    // cache hit that runs no job at all
    for points in [6, 7, 8, 9] {
        let target = format!("/v1/analyze?points={points}");
        assert_eq!(request(addr, "POST", &target, body.as_bytes()).status, 200);
    }
    assert_eq!(request(addr, "POST", "/v1/analyze?points=6", body.as_bytes()).status, 200);

    let health = json(&request(addr, "GET", "/v1/health", b""));
    let jobs = &health["jobs"];
    assert_eq!(jobs["executors"].as_u64(), Some(2), "capped at --threads 2");
    assert_eq!(jobs["executed"].as_u64(), Some(4));
    assert_eq!(jobs["executor_restarts"].as_u64(), Some(0));
    assert!(jobs.get("shards").is_none(), "no per-executor rows: {jobs:?}");
    let text = scrape_metrics(addr);
    assert_eq!(metric_sample(&text, "saturn_jobs_executed_total"), 4.0);
    assert_eq!(metric_sample(&text, "saturn_executor_restarts_total"), 0.0);
    server.stop();
}

/// The acceptance invariant: the executor count is an execution knob, so
/// a cold sweep returns byte-identical reports at `--executors 1`, `2`,
/// and `4` (caching disabled — every run is genuinely cold).
#[test]
fn executor_count_never_changes_report_bytes() {
    let body = trace(8, 220, 30);
    let run = |executors: usize| -> Vec<u8> {
        let server = start(|c| {
            c.executors = executors;
            c.cache_bytes = 0;
            c.threads = 4;
        });
        let response = request(server.addr(), "POST", "/v1/analyze?points=10", body.as_bytes());
        assert_eq!(response.status, 200, "--executors {executors}");
        server.stop();
        response.body
    };
    let reference = run(1);
    for executors in [2, 4] {
        assert_eq!(
            reference,
            run(executors),
            "--executors {executors} must not change report bytes"
        );
    }
}

#[test]
fn metrics_rejects_wrong_method_and_counts_errors() {
    let server = start(|_| {});
    let addr = server.addr();
    assert_eq!(request(addr, "POST", "/v1/metrics", b"").status, 405);
    assert_eq!(request(addr, "GET", "/nope", b"").status, 404);
    await_metric_at_least(addr, "saturn_requests_total{route=\"metrics\",status=\"4xx\"}", 1.0);
    await_metric_at_least(addr, "saturn_requests_total{route=\"other\",status=\"4xx\"}", 1.0);
    server.stop();
}

/// A unique, clean temp directory for one disk-tier test.
fn disk_dir(name: &str) -> std::path::PathBuf {
    let dir =
        std::env::temp_dir().join(format!("saturn-integration-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn warm_restart_serves_byte_identical_reports_from_disk() {
    let dir = disk_dir("warm-restart");
    let bodies: Vec<String> = (0..3).map(|k| trace(6 + k, 240, 35)).collect();
    let target = "/v1/analyze?points=10";
    let cold: Vec<Vec<u8>> = {
        let server = start(|c| {
            c.cache_dir = Some(dir.clone());
            c.cache_disk_bytes = 8 << 20;
        });
        let cold = bodies
            .iter()
            .map(|body| {
                let response = request(server.addr(), "POST", target, body.as_bytes());
                assert_eq!(response.status, 200);
                response.body
            })
            .collect();
        await_metric_at_least(server.addr(), "saturn_cache_disk_writes_total", 3.0);
        // drain flushes pending spills before the server goes away
        server.drain(Duration::from_secs(5));
        server.stop();
        cold
    };
    // A fresh process-equivalent on the same --cache-dir, with no memory
    // tier: every repeat is one disk read and checksum verify, no sweep.
    let server = start(|c| {
        c.cache_bytes = 0;
        c.cache_dir = Some(dir.clone());
        c.cache_disk_bytes = 8 << 20;
    });
    for (body, cold) in bodies.iter().zip(&cold) {
        for _ in 0..2 {
            let warm = request(server.addr(), "POST", target, body.as_bytes());
            assert_eq!(warm.status, 200);
            assert_eq!(&warm.body, cold, "disk-served report must be byte-identical");
        }
    }
    let text = scrape_metrics(server.addr());
    assert_eq!(metric_sample(&text, "saturn_cache_disk_hits_total"), 6.0);
    assert_eq!(metric_sample(&text, "saturn_jobs_executed_total"), 0.0);
    assert_eq!(metric_sample(&text, "saturn_cache_disk_corrupt_total"), 0.0);
    server.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn disk_only_cache_serves_repeats_without_a_memory_tier() {
    let dir = disk_dir("disk-only");
    let server = start(|c| {
        c.cache_bytes = 0; // memory tier disabled entirely
        c.cache_dir = Some(dir.clone());
        c.cache_disk_bytes = 8 << 20;
    });
    let body = trace(5, 180, 40);
    let first = request(server.addr(), "POST", "/v1/analyze?points=8", body.as_bytes());
    assert_eq!(first.status, 200);
    await_metric_at_least(server.addr(), "saturn_cache_disk_writes_total", 1.0);
    let second = request(server.addr(), "POST", "/v1/analyze?points=8", body.as_bytes());
    assert_eq!(second.status, 200);
    assert_eq!(second.body, first.body, "disk hit must serve the cold bytes");
    let text = scrape_metrics(server.addr());
    assert!(metric_sample(&text, "saturn_cache_disk_hits_total") >= 1.0);
    assert_eq!(metric_sample(&text, "saturn_cache_entries"), 0.0, "no memory tier");
    server.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn disk_write_errors_degrade_to_memory_only_without_failing_requests() {
    let dir = disk_dir("degrade");
    let server = start(|c| {
        c.cache_dir = Some(dir.clone());
        c.cache_disk_bytes = 8 << 20;
        c.faults =
            Some(Arc::new(saturn_server::FaultPlan::parse("disk_write_err:1").expect("plan")));
    });
    let body = trace(5, 160, 30);
    let first = request(server.addr(), "POST", "/v1/analyze?points=8", body.as_bytes());
    assert_eq!(first.status, 200, "a failing disk must never fail a request");
    await_metric_at_least(server.addr(), "saturn_cache_disk_errors_total", 1.0);
    let second = request(server.addr(), "POST", "/v1/analyze?points=8", body.as_bytes());
    assert_eq!(second.status, 200);
    assert_eq!(second.body, first.body, "memory tier still serves identically");
    let health = json(&request(server.addr(), "GET", "/v1/health", b""));
    assert_eq!(health["cache_disk"]["degraded"].as_bool(), Some(true));
    assert!(health["cache_disk"]["errors"].as_u64().unwrap_or(0) >= 1);
    assert_eq!(
        metric_sample(&scrape_metrics(server.addr()), "saturn_cache_disk_writes_total"),
        0.0
    );
    server.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn health_reports_disk_tier_fields_only_when_configured() {
    let without = start(|_| {});
    let health = json(&request(without.addr(), "GET", "/v1/health", b""));
    assert!(health["cache_disk"].is_null(), "no disk tier ⇒ no cache_disk object");
    without.stop();

    let dir = disk_dir("health");
    let server = start(|c| {
        c.cache_dir = Some(dir.clone());
        c.cache_disk_bytes = 4 << 20;
    });
    let health = json(&request(server.addr(), "GET", "/v1/health", b""));
    let disk = &health["cache_disk"];
    assert_eq!(disk["capacity_bytes"].as_u64(), Some(4 << 20));
    assert_eq!(disk["degraded"].as_bool(), Some(false));
    for field in
        ["entries", "bytes", "hits", "misses", "writes", "evictions", "corrupt", "errors"]
    {
        assert!(disk[field].as_u64().is_some(), "cache_disk.{field} missing");
    }
    server.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Asserts one failure response conforms to the error envelope:
/// `{"error": {"code", "message", "retryable"}}` with the code from the
/// documented registry and `retryable` matching the status semantics.
fn assert_envelope(response: &Response, status: u16, code: &str) {
    assert_eq!(response.status, status, "expected {status} {code}");
    let v = json(response);
    let error = &v["error"];
    assert_eq!(error["code"].as_str(), Some(code), "status {status}");
    assert!(!error["message"].as_str().expect("message").is_empty(), "status {status}");
    assert_eq!(
        error["retryable"].as_bool().expect("retryable"),
        matches!(status, 408 | 500 | 503 | 504),
        "status {status}: retryable must follow the status class"
    );
}

/// Every documented failure status, produced for real over the wire, must
/// carry the structured envelope — no route or layer may emit a bespoke
/// error shape.
#[test]
fn every_error_status_conforms_to_the_envelope_schema() {
    let server = start(|c| {
        c.max_body_bytes = 512;
        c.stream_ttl = Duration::ZERO; // sessions expire on the next request
    });
    let addr = server.addr();
    // allocate a session id, then let the TTL reap it for the 410
    let created = request(addr, "POST", "/v1/streams?t_begin=0&t_end=100", b"a b 1\n");
    assert_eq!(created.status, 201);
    let sid = json(&created)["stream"].as_u64().expect("stream id");
    std::thread::sleep(Duration::from_millis(5));
    let big = trace(10, 200, 10);
    assert!(big.len() > 512);
    for (response, status, code) in [
        (request(addr, "GET", "/nope", b""), 404, "not_found"),
        (request(addr, "GET", "/v1/analyze", b""), 405, "method_not_allowed"),
        (request(addr, "GET", "/v1/streams", b""), 405, "method_not_allowed"),
        (request(addr, "POST", "/v1/analyze", b"not a trace"), 400, "bad_request"),
        (request(addr, "POST", "/v1/analyze?points=x", b"a b 1\na c 2\n"), 400, "bad_request"),
        (request(addr, "POST", "/v1/analyze", big.as_bytes()), 413, "payload_too_large"),
        (request(addr, "POST", "/v1/streams?t_begin=9&t_end=1", b""), 400, "bad_request"),
        (request(addr, "POST", "/v1/streams", b""), 400, "bad_request"),
        (request(addr, "POST", &format!("/v1/streams/{sid}/events"), b"a b 1\n"), 410, "gone"),
        (request(addr, "POST", "/v1/streams/no/events", b""), 404, "not_found"),
        (request(addr, "POST", "/v1/streams/99999/events", b""), 404, "not_found"),
    ] {
        assert_envelope(&response, status, code);
    }
    server.stop();

    // backpressure and deadline failures carry the envelope too
    let tight = start(|c| c.queue_depth = 0);
    let refused =
        request(tight.addr(), "POST", "/v1/analyze?points=8", trace(5, 100, 20).as_bytes());
    assert_envelope(&refused, 503, "queue_full");
    tight.stop();
    let slow = start(|c| c.default_deadline_ms = 1);
    let expired =
        request(slow.addr(), "POST", "/v1/analyze?points=12", trace(10, 400, 30).as_bytes());
    assert_envelope(&expired, 504, "deadline_exceeded");
    slow.stop();

    // the executor failure path emits the registered `panicked` code
    let armed = start(|c| {
        c.faults =
            Some(Arc::new(saturn_server::FaultPlan::parse("panic:analyze:1").expect("plan")));
    });
    let panicked =
        request(armed.addr(), "POST", "/v1/analyze?points=8", trace(5, 100, 20).as_bytes());
    assert_envelope(&panicked, 500, "panicked");
    armed.stop();
}

/// The tentpole acceptance test: a session grown by repeated appends and
/// re-analyzed incrementally returns, at every step, byte-for-byte the
/// report `/v1/analyze` computes from scratch on the concatenated trace.
/// Caching is disabled so both sides genuinely compute.
#[test]
fn streaming_refresh_is_byte_identical_to_scratch_analyze() {
    let server = start(|c| {
        c.cache_bytes = 0;
        c.threads = 2;
    });
    let addr = server.addr();
    // events at both period endpoints, so the scratch run's observed
    // period equals the session's pinned [0, 2000] and fingerprints align
    let mut base = String::from("a z 0\na z 2000\n");
    for i in 0..120i64 {
        base.push_str(&format!("n{} n{} {}\n", i % 6, (i + 1) % 6, (i * 12) % 1500));
    }
    let batches: Vec<String> = (0..2)
        .map(|round| {
            (0..40i64)
                .map(|i| {
                    format!(
                        "m{} m{} {}\n",
                        i % 4,
                        (i + 1) % 4,
                        1500 + round * 250 + (i * 6) % 250
                    )
                })
                .collect()
        })
        .collect();

    let created =
        request(addr, "POST", "/v1/streams?t_begin=0&t_end=2000&directed=1", base.as_bytes());
    assert_eq!(created.status, 201);
    let v = json(&created);
    let sid = v["stream"].as_u64().expect("stream id");
    assert_eq!(v["events"].as_u64(), Some(122));
    assert!(v["ttl_secs"].as_u64().unwrap() >= 1);

    let mut concatenated = base.clone();
    let mut refreshed = Vec::new();
    for (round, batch) in std::iter::once(None).chain(batches.iter().map(Some)).enumerate() {
        if let Some(batch) = batch {
            let appended =
                request(addr, "POST", &format!("/v1/streams/{sid}/events"), batch.as_bytes());
            assert_eq!(appended.status, 200, "round {round}");
            assert_eq!(json(&appended)["appended"].as_u64(), Some(40));
            concatenated.push_str(batch);
        }
        let refresh = request(
            addr,
            "POST",
            &format!("/v1/streams/{sid}/analyze?points=10&directed=1"),
            b"",
        );
        assert_eq!(refresh.status, 200, "round {round}");
        let scratch =
            request(addr, "POST", "/v1/analyze?points=10&directed=1", concatenated.as_bytes());
        assert_eq!(scratch.status, 200, "round {round}");
        assert_eq!(
            refresh.body, scratch.body,
            "round {round}: incremental refresh must be byte-identical to scratch"
        );
        refreshed.push(refresh.body);
    }
    let last: serde_json::Value =
        serde_json::from_slice(refreshed.last().unwrap()).expect("report JSON");
    assert!(!last["results"].as_array().unwrap().is_empty());

    // a clean re-refresh (no append in between) serves every scale from
    // the session's sweep cache and still matches
    let again =
        request(addr, "POST", &format!("/v1/streams/{sid}/analyze?points=10&directed=1"), b"");
    assert_eq!(again.status, 200);
    assert_eq!(&again.body, refreshed.last().unwrap());

    // the incremental machinery demonstrably ran: dirty refreshes spliced
    // suffix windows, the clean one reused scales and skipped DP tiles
    let text = scrape_metrics(addr);
    assert!(metric_sample(&text, "saturn_stream_refreshes_total") >= 4.0);
    assert!(metric_sample(&text, "saturn_stream_suffix_windows_rebuilt_total") >= 1.0);
    assert!(metric_sample(&text, "saturn_stream_scales_reused_total") >= 1.0);
    assert!(metric_sample(&text, "saturn_stream_tiles_skipped_total") >= 1.0);
    assert!(metric_sample(&text, "saturn_stream_events_appended_total") >= 202.0);

    let health = json(&request(addr, "GET", "/v1/health", b""));
    assert_eq!(health["streams"]["open"].as_u64(), Some(1));
    assert!(health["streams"]["ttl_secs"].as_u64().unwrap() >= 1);
    server.stop();
}

/// Session-side failure semantics: required creation parameters, period
/// fencing with all-or-nothing batches, empty-session analyze, unknown
/// actions, and the session limit's `stream_limit` 503.
#[test]
fn stream_sessions_enforce_period_batches_and_limits() {
    let server = start(|c| c.max_streams = 1);
    let addr = server.addr();
    assert_envelope(&request(addr, "POST", "/v1/streams?t_begin=0", b""), 400, "bad_request");

    let created = request(addr, "POST", "/v1/streams?t_begin=0&t_end=1000", b"");
    assert_eq!(created.status, 201);
    let v = json(&created);
    let sid = v["stream"].as_u64().expect("stream id");
    assert_eq!(v["events"].as_u64(), Some(0));

    // an empty session has nothing to analyze
    let empty = request(addr, "POST", &format!("/v1/streams/{sid}/analyze"), b"");
    assert_envelope(&empty, 400, "bad_request");

    // a batch with one out-of-period event commits nothing...
    let rejected =
        request(addr, "POST", &format!("/v1/streams/{sid}/events"), b"a b 10\na b 5000\n");
    assert_envelope(&rejected, 400, "bad_request");
    assert!(json(&rejected)["error"]["message"].as_str().unwrap().contains("study period"));
    // ...so the next append starts from zero events
    let accepted =
        request(addr, "POST", &format!("/v1/streams/{sid}/events"), b"a b 10\nb c 20\n");
    assert_eq!(accepted.status, 200);
    assert_eq!(json(&accepted)["appended"].as_u64(), Some(2));
    assert_eq!(json(&accepted)["events"].as_u64(), Some(2));

    // unknown session action
    let unknown = request(addr, "POST", &format!("/v1/streams/{sid}/nope"), b"");
    assert_envelope(&unknown, 404, "not_found");

    // the session limit answers with its own 503 code and a retry hint
    let refused = request(addr, "POST", "/v1/streams?t_begin=0&t_end=10", b"");
    assert_envelope(&refused, 503, "stream_limit");
    assert!(refused.retry_after.unwrap_or(0) >= 1, "stream_limit 503 carries Retry-After");
    server.stop();
}

/// With caching on, a refresh and a scratch analyze of the same
/// concatenated trace are the same artifact: they share one cache entry,
/// whichever side computes first.
#[test]
fn streams_share_the_report_cache_with_scratch_analyze() {
    let server = start(|_| {});
    let addr = server.addr();
    let body = trace(6, 180, 10);
    let t_end = json(&request(addr, "POST", "/v1/stats", body.as_bytes()))["t_end"]
        .as_i64()
        .expect("t_end");
    let created =
        request(addr, "POST", &format!("/v1/streams?t_begin=0&t_end={t_end}"), body.as_bytes());
    assert_eq!(created.status, 201);
    let sid = json(&created)["stream"].as_u64().expect("stream id");

    let refresh = request(addr, "POST", &format!("/v1/streams/{sid}/analyze?points=8"), b"");
    assert_eq!(refresh.status, 200);
    let hits_before =
        json(&request(addr, "GET", "/v1/health", b""))["cache"]["hits"].as_u64().unwrap();
    let scratch = request(addr, "POST", "/v1/analyze?points=8", body.as_bytes());
    assert_eq!(scratch.status, 200);
    assert_eq!(refresh.body, scratch.body, "shared cache entry must serve both");
    let hits_after =
        json(&request(addr, "GET", "/v1/health", b""))["cache"]["hits"].as_u64().unwrap();
    assert_eq!(hits_after, hits_before + 1, "the scratch analyze must hit the refresh's entry");
    server.stop();
}

#[test]
fn bind_fails_fast_on_unwritable_cache_dir() {
    // A regular file where the directory should go: create_dir_all fails.
    let blocker =
        std::env::temp_dir().join(format!("saturn-integration-{}-blocker", std::process::id()));
    std::fs::write(&blocker, b"not a dir").expect("blocker");
    let config = ServerConfig {
        addr: "127.0.0.1:0".into(),
        cache_dir: Some(blocker.join("cache")),
        ..ServerConfig::default()
    };
    let err = Server::bind(&config).err().expect("bind must fail fast");
    assert!(err.to_string().contains("cache dir"), "error names the cache dir: {err}");
    let _ = std::fs::remove_file(&blocker);
}

/// A trace whose study period spans more than `i64::MAX` ticks.
fn overflowing_trace() -> String {
    format!("a b {}\na c {}\n", i64::MIN, i64::MAX)
}

/// Posts `body` to `target` on a fresh server and asserts a non-retryable
/// `400 bad_request` naming the study period — a client error, not a
/// panic or a wrong answer.
fn assert_period_rejected(target: &str, body: &str) {
    let server = start(|_| {});
    let response = request(server.addr(), "POST", target, body.as_bytes());
    assert_envelope(&response, 400, "bad_request");
    let message = json(&response)["error"]["message"].as_str().unwrap().to_string();
    assert!(message.contains("study period"), "{message}");
    server.stop();
}

#[test]
fn analyze_rejects_an_overflowing_study_period() {
    assert_period_rejected("/v1/analyze", &overflowing_trace());
}

#[test]
fn validate_rejects_an_overflowing_study_period() {
    assert_period_rejected("/v1/validate", &overflowing_trace());
}

#[test]
fn stats_rejects_an_overflowing_study_period() {
    assert_period_rejected("/v1/stats", &overflowing_trace());
}

#[test]
fn stream_create_rejects_an_overflowing_study_period() {
    let target = format!("/v1/streams?t_begin={}&t_end={}", i64::MIN, i64::MAX);
    assert_period_rejected(&target, "");
}

/// A grid too large to materialize is a `400 bad_request` on every route
/// that sweeps, answered before any work, and the daemon keeps serving.
#[test]
fn oversized_grids_are_rejected_before_any_work() {
    let server = start(|c| c.threads = 1);
    let addr = server.addr();
    let body = trace(6, 200, 10);
    let created = request(addr, "POST", "/v1/streams?t_begin=0&t_end=2000", body.as_bytes());
    assert_eq!(created.status, 201);
    let sid = json(&created)["stream"].as_u64().expect("stream id");
    let probe = "points=1099511627776";
    for target in [
        format!("/v1/analyze?{probe}"),
        format!("/v1/validate?{probe}"),
        format!("/v1/streams/{sid}/analyze?{probe}"),
    ] {
        let response = request(addr, "POST", &target, body.as_bytes());
        assert_envelope(&response, 400, "bad_request");
        let message = json(&response)["error"]["message"].as_str().unwrap().to_string();
        assert!(message.contains("at most 4096"), "{target}: {message}");
    }
    assert_eq!(request(addr, "GET", "/v1/health", b"").status, 200);
    server.stop();
}
