//! Fault-injection chaos test: a mixed workload against a server armed
//! with a [`FaultPlan`] (injected panics, slowdowns, and cancel races)
//! plus misbehaving clients (mid-body disconnects and stalls).
//!
//! The properties under test are the lifecycle invariants from the
//! request-lifecycle work, not any particular success rate:
//!
//! * the server never hangs: every well-formed request gets a complete
//!   response with a status from the documented set
//! * a fault never corrupts state: after the storm, a cold sweep and its
//!   cache hit are byte-identical, and the job queue is empty
//! * drain under load completes within its budget and leaves coherent
//!   counters
//! * a trace too wide for an untiled DP table never takes the process
//!   down: the analyze sweep runs memory-bounded tiles, and the untiled
//!   validation DP fails as a structured 500

use saturn_server::{FaultPlan, Server, ServerConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

/// Statuses a client may legitimately observe under chaos: success,
/// client error, request timeout, injected-panic 500, backpressure 503,
/// and deadline/cancellation 504.
const ALLOWED: &[u16] = &[200, 400, 408, 500, 503, 504];

fn start_chaotic() -> saturn_server::ServerHandle {
    let config = ServerConfig {
        addr: "127.0.0.1:0".into(),
        threads: 2,
        cache_bytes: 8 << 20,
        queue_depth: 32,
        max_connections: 64,
        read_timeout: Duration::from_millis(300),
        // no `parse` faults: a panic in a connection thread drops the
        // socket without a response, which would make "every request gets
        // a complete reply" unobservable for well-behaved clients
        faults: Some(Arc::new(
            FaultPlan::parse("panic:analyze:0.15,slow:job:15ms,cancel_race:0.2")
                .expect("fault plan"),
        )),
        ..ServerConfig::default()
    };
    Server::bind(&config).expect("bind").spawn().expect("spawn")
}

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
}

/// One request on a fresh connection; panics unless the server writes a
/// complete, well-formed response (the "never hangs, never truncates"
/// property — socket timeouts below turn a hang into a test failure).
fn request(addr: SocketAddr, method: &str, target: &str, body: &[u8]) -> Response {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(60))).expect("timeout");
    let mut writer = stream.try_clone().expect("clone");
    // best-effort writes: a lame-duck server answers 503 and closes before
    // reading, so the write may hit a broken pipe while a complete response
    // is already in flight -- read_response below is the real assertion
    let head = format!(
        "{method} {target} HTTP/1.1\r\nHost: saturn\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    let _ = writer.write_all(head.as_bytes());
    let _ = writer.write_all(body);
    read_response(&mut BufReader::new(stream))
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
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).expect("header line");
        if line.trim_end().is_empty() {
            break;
        }
        if let Some(v) = line.to_ascii_lowercase().trim_end().strip_prefix("content-length:") {
            content_length = v.trim().parse().expect("content length");
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).expect("complete body");
    Response { status, body }
}

/// Scrapes `/v1/metrics` and returns the value of an unlabelled counter.
fn counter_sample(addr: SocketAddr, name: &str) -> u64 {
    let scrape = request(addr, "GET", "/v1/metrics", b"");
    assert_eq!(scrape.status, 200);
    let text = String::from_utf8(scrape.body).expect("metrics utf8");
    text.lines()
        .find_map(|line| line.strip_prefix(name).and_then(|rest| rest.strip_prefix(' ')))
        .unwrap_or_else(|| panic!("metric {name} not in scrape"))
        .parse::<f64>()
        .expect("numeric sample") as u64
}

/// Mixed storm: unique and repeated sweeps, tight deadlines, health polls,
/// plus clients that disconnect or stall mid-body. Every well-formed
/// request must complete with an allowed status, and the server must be
/// fully consistent afterwards.
#[test]
fn chaos_storm_never_hangs_or_corrupts_the_cache() {
    let server = start_chaotic();
    let addr = server.addr();

    let mut clients = Vec::new();
    for worker in 0..6u32 {
        clients.push(std::thread::spawn(move || {
            for round in 0..4u32 {
                match (worker + round) % 6 {
                    // unique body: a genuinely new sweep every time
                    0 | 1 => {
                        let body = trace(5 + worker, 120 + round as i64 * 7, 30);
                        let target = format!("/v1/analyze?points={}", 6 + round);
                        let r = request(addr, "POST", &target, body.as_bytes());
                        assert!(ALLOWED.contains(&r.status), "analyze got {}", r.status);
                    }
                    // shared body: exercises coalescing under faults
                    2 => {
                        let body = trace(6, 140, 25);
                        let r = request(addr, "POST", "/v1/analyze?points=8", body.as_bytes());
                        assert!(ALLOWED.contains(&r.status), "shared analyze got {}", r.status);
                    }
                    // hopeless deadline: admission reject or structured 504
                    // (or 200 if an earlier round already cached the body)
                    3 => {
                        let body = trace(7, 160, 20);
                        let r = request(
                            addr,
                            "POST",
                            "/v1/analyze?points=9&deadline_ms=1",
                            body.as_bytes(),
                        );
                        assert!(ALLOWED.contains(&r.status), "deadline got {}", r.status);
                    }
                    // rude client: half a body, then gone
                    4 => {
                        let mut stream = TcpStream::connect(addr).expect("connect");
                        let _ = stream.write_all(
                            b"POST /v1/stats HTTP/1.1\r\nContent-Length: 999\r\n\r\nn0 n1 5\n",
                        );
                        drop(stream);
                    }
                    // stalled client: half a body, then silence -> 408
                    _ => {
                        let stream = TcpStream::connect(addr).expect("connect");
                        stream
                            .set_read_timeout(Some(Duration::from_secs(60)))
                            .expect("timeout");
                        let mut writer = stream.try_clone().expect("clone");
                        writer
                            .write_all(
                                b"POST /v1/stats HTTP/1.1\r\nContent-Length: 99\r\n\r\nn0 n1 5\n",
                            )
                            .expect("partial body");
                        let r = read_response(&mut BufReader::new(stream));
                        assert_eq!(r.status, 408, "stall must time out, not hang");
                    }
                }
                let health = request(addr, "GET", "/v1/health", b"");
                assert_eq!(health.status, 200);
            }
        }));
    }
    for client in clients {
        client.join().expect("chaos client");
    }

    // post-storm consistency: a brand-new trace sweeps cold, then hits the
    // cache byte-identically -- no partial or corrupt entry survived.
    // injected faults may 500/504 the cold attempt; retry until it lands.
    let body = trace(9, 180, 35);
    let target = "/v1/analyze?points=11";
    let cold = (0..50)
        .map(|_| request(addr, "POST", target, body.as_bytes()))
        .find(|r| r.status == 200)
        .expect("a clean sweep must eventually succeed");
    // that it *hit* is checked against the server's own counters, not
    // inferred from response bytes or timing
    let hits_before = counter_sample(addr, "saturn_cache_hits_total");
    let misses_before = counter_sample(addr, "saturn_cache_misses_total");
    let cached = request(addr, "POST", target, body.as_bytes());
    assert_eq!(cached.status, 200);
    assert_eq!(cold.body, cached.body, "cache hit must be byte-identical to cold");
    assert_eq!(
        counter_sample(addr, "saturn_cache_hits_total"),
        hits_before + 1,
        "the repeat request must be an explicit cache hit"
    );
    assert_eq!(
        counter_sample(addr, "saturn_cache_misses_total"),
        misses_before,
        "the repeat request must not miss"
    );

    let health = request(addr, "GET", "/v1/health", b"");
    let text = String::from_utf8(health.body).expect("health utf8");
    assert!(text.contains("\"draining\": false"), "not draining: {text}");
    server.stop();
}

/// The unlabeled `saturn_executor_restarts_total` sample.
fn restarts_total(addr: SocketAddr) -> u64 {
    let scrape = request(addr, "GET", "/v1/metrics", b"");
    assert_eq!(scrape.status, 200);
    let text = String::from_utf8(scrape.body).expect("metrics utf8");
    let line = text
        .lines()
        .find(|line| line.starts_with("saturn_executor_restarts_total "))
        .expect("unlabeled restarts sample");
    line.rsplit_once(' ').expect("sample").1.parse::<f64>().expect("numeric") as u64
}

/// The executor storm: `--executors 4` with executor deaths and stalls
/// armed. Every request still completes with a documented status while
/// executors die underneath it, the supervisor's restarts are observable
/// in the scrape, and the post-storm cold-vs-hit byte identity holds.
#[test]
fn sharded_storm_restarts_executors_and_keeps_answering() {
    let config = ServerConfig {
        addr: "127.0.0.1:0".into(),
        threads: 4,
        executors: 4,
        stall_budget: Duration::from_millis(250),
        cache_bytes: 8 << 20,
        queue_depth: 32,
        max_connections: 64,
        read_timeout: Duration::from_millis(300),
        faults: Some(Arc::new(
            FaultPlan::parse(
                "executor_die:0.25,executor_stall:analyze:20ms,panic:analyze:0.1,cancel_race:0.1",
            )
            .expect("fault plan"),
        )),
        ..ServerConfig::default()
    };
    let server = Server::bind(&config).expect("bind").spawn().expect("spawn");
    let addr = server.addr();

    let mut clients = Vec::new();
    for worker in 0..6u32 {
        clients.push(std::thread::spawn(move || {
            for round in 0..4u32 {
                // unique bodies keep all four executors busy; every request
                // must complete even while executors are dying under it
                let body = trace(5 + worker, 110 + round as i64 * 9, 28);
                let target = format!("/v1/analyze?points={}", 6 + (worker + round) % 4);
                let r = request(addr, "POST", &target, body.as_bytes());
                assert!(ALLOWED.contains(&r.status), "storm analyze got {}", r.status);
                let health = request(addr, "GET", "/v1/health", b"");
                assert_eq!(health.status, 200, "health must answer while executors restart");
            }
        }));
    }
    for client in clients {
        client.join().expect("storm client");
    }

    // the supervisor was exercised: with die:0.25 armed the storm alone
    // almost surely killed an executor; feed a few more cold sweeps if the
    // deterministic draw sequence spared them all
    let mut extra = 0i64;
    while restarts_total(addr) == 0 && extra < 100 {
        let body = trace(4, 60 + extra, 17);
        let _ = request(addr, "POST", "/v1/analyze?points=6", body.as_bytes());
        extra += 1;
    }
    assert!(restarts_total(addr) > 0, "the storm must have restarted at least one executor");

    // post-storm consistency: a cold sweep (retried past injected faults)
    // then a byte-identical cache hit
    let body = trace(9, 170, 33);
    let target = "/v1/analyze?points=11";
    let cold = (0..50)
        .map(|_| request(addr, "POST", target, body.as_bytes()))
        .find(|r| r.status == 200)
        .expect("a clean sweep must eventually succeed");
    let hits_before = counter_sample(addr, "saturn_cache_hits_total");
    let cached = request(addr, "POST", target, body.as_bytes());
    assert_eq!(cached.status, 200);
    assert_eq!(cold.body, cached.body, "cache hit must be byte-identical to cold");
    assert_eq!(
        counter_sample(addr, "saturn_cache_hits_total"),
        hits_before + 1,
        "the repeat request must be an explicit cache hit"
    );
    server.stop();
}

/// Drain called while sweeps are still arriving: the handle's drain must
/// return within its budget with an empty queue, and later connections get
/// lame-duck 503s instead of hanging.
#[test]
fn drain_under_load_completes_within_budget() {
    let server = start_chaotic();
    let addr = server.addr();

    let feeders: Vec<_> = (0..4u32)
        .map(|worker| {
            std::thread::spawn(move || {
                for round in 0..3u32 {
                    let body = trace(5 + worker, 110 + round as i64 * 9, 28);
                    let stream = TcpStream::connect(addr);
                    if let Ok(stream) = stream {
                        stream
                            .set_read_timeout(Some(Duration::from_secs(60)))
                            .expect("timeout");
                        let mut writer = stream.try_clone().expect("clone");
                        let head = format!(
                            "POST /v1/analyze?points=7 HTTP/1.1\r\nHost: s\r\nContent-Length: {}\r\n\r\n",
                            body.len()
                        );
                        if writer.write_all(head.as_bytes()).is_ok()
                            && writer.write_all(body.as_bytes()).is_ok()
                        {
                            // the server may close mid-drain; any complete
                            // response must still be an allowed status
                            let reader = &mut BufReader::new(stream);
                            let mut status_line = String::new();
                            if reader.read_line(&mut status_line).is_ok()
                                && !status_line.is_empty()
                            {
                                let status: u16 = status_line
                                    .split_whitespace()
                                    .nth(1)
                                    .and_then(|s| s.parse().ok())
                                    .unwrap_or_else(|| {
                                        panic!("bad status line {status_line:?}")
                                    });
                                assert!(ALLOWED.contains(&status), "drain got {status}");
                            }
                        }
                    }
                }
            })
        })
        .collect();

    std::thread::sleep(Duration::from_millis(40));
    let started = std::time::Instant::now();
    let stats = server.drain(Duration::from_secs(20));
    assert!(started.elapsed() < Duration::from_secs(25), "drain blew its budget");
    assert_eq!(stats.queued, 0, "drain must leave the queue empty");
    assert_eq!(stats.running, 0, "drain must leave nothing running");

    for feeder in feeders {
        feeder.join().expect("feeder");
    }
    let refused = request(addr, "GET", "/v1/health", b"");
    assert_eq!(refused.status, 503, "lame-duck connections get 503");
    server.stop();
}

/// Disk-fault storm: a server with no memory tier at all (so every repeat
/// lookup really reads the disk) and every disk fault armed — write errors,
/// full disk, silent corruption, and slow I/O. The invariants: only
/// documented statuses, corrupt entries quarantined (counter observed), the
/// breaker degrades the tier to memory-only (error counter observed), and
/// no request ever fails because of the disk.
#[test]
fn disk_fault_storm_degrades_without_failing_requests() {
    let dir =
        std::env::temp_dir().join(format!("saturn-chaos-{}-disk-storm", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = ServerConfig {
        addr: "127.0.0.1:0".into(),
        threads: 2,
        // memory tier off: repeats miss memory by construction, so every
        // revisit exercises the disk lookup / quarantine / breaker paths
        cache_bytes: 0,
        cache_dir: Some(dir.clone()),
        cache_disk_bytes: 8 << 20,
        queue_depth: 32,
        max_connections: 64,
        // moderate write-fault rates: high enough to trip the breaker
        // repeatedly, low enough that successful probes keep closing it so
        // the read path (where corruption is detected) stays reachable
        faults: Some(Arc::new(
            FaultPlan::parse(
                "seed:42,disk_write_err:0.25,disk_corrupt:0.5,disk_slow:1ms,disk_full:0.1",
            )
            .expect("fault plan"),
        )),
        ..ServerConfig::default()
    };
    let server = Server::bind(&config).expect("bind").spawn().expect("spawn");
    let addr = server.addr();

    let mut clients = Vec::new();
    for worker in 0..4u32 {
        clients.push(std::thread::spawn(move || {
            for i in 0..12u32 {
                // a few distinct traces, revisited: misses, spills, disk
                // lookups, and corrupt-entry quarantines all interleave
                let body = trace(4 + (i % 3), 120, 25 + (worker as i64 % 2));
                let response = request(addr, "POST", "/v1/analyze?points=6", body.as_bytes());
                assert!(
                    ALLOWED.contains(&response.status),
                    "disk storm got {}",
                    response.status
                );
                assert_ne!(response.status, 500, "disk faults must never 500 a request");
            }
        }));
    }
    for client in clients {
        client.join().expect("storm client");
    }

    // Keep feeding cold sweeps and revisiting *older* ones (bounded) until
    // the armed faults have demonstrably fired: at least one quarantined
    // corruption and at least one breaker-tripping I/O error. Corruption is
    // only detectable on a later read of an already-spilled entry, so each
    // round walks back over earlier targets — by then written, possibly
    // corrupted, and (whenever the breaker is closed) actually read.
    let mut history: Vec<(String, String)> = Vec::new();
    let mut extra = 0u32;
    while (counter_sample(addr, "saturn_cache_disk_corrupt_total") == 0
        || counter_sample(addr, "saturn_cache_disk_errors_total") == 0)
        && extra < 200
    {
        let body = trace(3 + (extra % 5), 100 + (extra as i64 % 7) * 10, 20);
        let target = format!("/v1/analyze?points=6&seed={}", 1000 + extra);
        let response = request(addr, "POST", &target, body.as_bytes());
        assert!(ALLOWED.contains(&response.status));
        history.push((target, body));
        // revisit a few earlier entries: disk lookups over settled spills
        for back in [1usize, 3, 7] {
            if let Some((target, body)) =
                history.len().checked_sub(back + 1).map(|i| &history[i])
            {
                let revisit = request(addr, "POST", target, body.as_bytes());
                assert!(ALLOWED.contains(&revisit.status));
            }
        }
        extra += 1;
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(
        counter_sample(addr, "saturn_cache_disk_corrupt_total") >= 1,
        "corruption fault armed at 0.4 never quarantined an entry"
    );
    assert!(
        counter_sample(addr, "saturn_cache_disk_errors_total") >= 1,
        "write faults armed at 0.4+0.2 never tripped the breaker"
    );

    // After the storm the service is still coherent: a cold sweep and its
    // repeat are byte-identical (by body comparison — whether the repeat is
    // served from memory, disk, or recomputed is the tier's business).
    let body = trace(7, 150, 45);
    let cold = request(addr, "POST", "/v1/analyze?points=7", body.as_bytes());
    assert_eq!(cold.status, 200, "a healthy sweep must succeed after the storm");
    let repeat = request(addr, "POST", "/v1/analyze?points=7", body.as_bytes());
    assert_eq!(repeat.status, 200);
    assert_eq!(repeat.body, cold.body, "post-storm bytes diverged");

    server.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A 60k-node path trace: the untiled `n × n` DP table would be ~58 GB.
/// Analyze and validate both run in memory-capped tiles until their
/// deadlines; the server keeps serving, with the same bytes as a fresh one.
#[test]
fn wide_trace_never_takes_the_server_down() {
    let start = || {
        let config = ServerConfig {
            addr: "127.0.0.1:0".into(),
            threads: 2,
            cache_bytes: 8 << 20,
            ..ServerConfig::default()
        };
        Server::bind(&config).expect("bind").spawn().expect("spawn")
    };
    let server = start();
    let addr = server.addr();
    let wide: String = (0..60_000).map(|i| format!("n{i} n{} {i}\n", i + 1)).collect();

    let analyzed =
        request(addr, "POST", "/v1/analyze?points=8&deadline_ms=1500", wide.as_bytes());
    let v: serde_json::Value = serde_json::from_slice(&analyzed.body).expect("json envelope");
    assert_eq!(
        (analyzed.status, v["error"]["code"].as_str()),
        (504, Some("deadline_exceeded")),
        "{v}"
    );

    let validated =
        request(addr, "POST", "/v1/validate?points=4&deadline_ms=1500", wide.as_bytes());
    let v: serde_json::Value = serde_json::from_slice(&validated.body).expect("json envelope");
    assert_eq!(
        (validated.status, v["error"]["code"].as_str()),
        (504, Some("deadline_exceeded")),
        "{v}"
    );

    assert_eq!(request(addr, "GET", "/v1/health", b"").status, 200);
    let small = trace(6, 200, 30);
    let after = request(addr, "POST", "/v1/analyze?points=8", small.as_bytes());
    assert_eq!(after.status, 200);
    server.stop();
    let fresh = start();
    let reference = request(fresh.addr(), "POST", "/v1/analyze?points=8", small.as_bytes());
    assert_eq!(reference.status, 200);
    assert_eq!(after.body, reference.body, "the wide trace must leave no trace in later bytes");
    fresh.stop();
}
