//! Model-based test of streaming ingest sessions over a real server.
//!
//! Seeded random sequences of create / append / refresh (some `async=1`,
//! so several refreshes of one session, with appends between them, are in
//! flight at once) / scratch analyze / expire run at one and at four
//! executors, with the report cache off so every request really sweeps.
//! The model tracks each session's events and when it was last touched.
//! Every session request must answer as the model predicts, and every 200
//! refresh body must equal, byte for byte, a scratch `POST /v1/analyze` of
//! the events its snapshot held.

use saturn_server::{Server, ServerConfig, ServerHandle};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Session idle TTL: short, so the expire step only has to sleep past it.
const TTL: Duration = Duration::from_millis(400);
/// Every session's pinned study period is `[0, SPAN]`.
const SPAN: i64 = 600;
const STEPS: usize = 80;

/// splitmix64: a fixed, seeded op sequence per run.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) % n
    }

    /// `count` events `n<i> n<j> t` with `i != j` and `t` in `[0, SPAN]`.
    fn events(&mut self, count: u64) -> String {
        let mut text = String::new();
        for _ in 0..count {
            let u = self.below(6);
            let v = (u + 1 + self.below(5)) % 6;
            text.push_str(&format!("n{u} n{v} {}\n", self.below(SPAN as u64 + 1)));
        }
        text
    }
}

/// One HTTP exchange on a fresh connection, with its send and receive
/// instants (the server handled it somewhere in between).
struct Exchange {
    status: u16,
    body: Vec<u8>,
    sent: Instant,
    received: Instant,
}

fn request(addr: SocketAddr, method: &str, target: &str, body: &[u8]) -> Exchange {
    let sent = Instant::now();
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(
        stream,
        "{method} {target} HTTP/1.1\r\nHost: saturn\r\nConnection: close\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .expect("write head");
    stream.write_all(body).expect("write body");
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).expect("status line");
    let status = line.split_whitespace().nth(1).and_then(|s| s.parse().ok()).expect("status");
    let mut length = 0;
    loop {
        line.clear();
        reader.read_line(&mut line).expect("header line");
        let header = line.trim_end().to_ascii_lowercase();
        if header.is_empty() {
            break;
        }
        if let Some(v) = header.strip_prefix("content-length:") {
            length = v.trim().parse().expect("content length");
        }
    }
    let mut body = vec![0; length];
    reader.read_exact(&mut body).expect("body");
    Exchange { status, body, sent, received: Instant::now() }
}

fn json(body: &[u8]) -> serde_json::Value {
    serde_json::from_slice(body).expect("JSON body")
}

struct Session {
    id: u64,
    directed: bool,
    /// Every committed event, in commit order.
    events: String,
    count: u64,
    /// Send and receive instants of the last request that touched it.
    touched: (Instant, Instant),
    gone: bool,
}

impl Session {
    /// Whether `exchange` may find this session alive: `Some(false)` when
    /// it sat idle past the TTL for certain, `Some(true)` when it cannot
    /// have, `None` when the timings allow either.
    fn alive(&self, exchange: &Exchange) -> Option<bool> {
        if self.gone || exchange.sent.duration_since(self.touched.1) > TTL {
            Some(false)
        } else if exchange.received.duration_since(self.touched.0) <= TTL {
            Some(true)
        } else {
            None
        }
    }
}

/// A refresh to check against scratch: the snapshot it saw and its body
/// (a job id to collect, for `async=1`).
struct Refresh {
    directed: bool,
    points: u64,
    events: String,
    outcome: Result<Vec<u8>, u64>,
}

fn analyze_target(directed: bool, points: u64) -> String {
    format!("/v1/analyze?points={points}&directed={}", u8::from(directed))
}

fn run(seed: u64, executors: usize) {
    let server: ServerHandle = Server::bind(&ServerConfig {
        addr: "127.0.0.1:0".into(),
        threads: 4,
        executors,
        cache_bytes: 0,
        stream_ttl: TTL,
        ..ServerConfig::default()
    })
    .expect("bind")
    .spawn()
    .expect("spawn");
    let addr = server.addr();
    let mut rng = Rng(seed);
    let mut sessions: Vec<Session> = Vec::new();
    let mut refreshes: Vec<Refresh> = Vec::new();
    let mut scratch: HashMap<(bool, u64, String), Vec<u8>> = HashMap::new();
    let mut expired_once = false;
    let ctx = |step: usize| format!("seed {seed}, executors {executors}, step {step}");

    for step in 0..STEPS {
        let live = sessions.iter().filter(|s| !s.gone).count();
        let op = if live == 0 { 0 } else { rng.below(20) };
        match op {
            // create, seeded with events at both period ends so a scratch
            // analyze of the same events observes the same period
            0..=2 if live < 3 => {
                let directed = rng.below(2) == 1;
                let count = 2 + rng.below(20);
                let events = format!("a z 0\na z {SPAN}\n{}", rng.events(count - 2));
                let target = format!(
                    "/v1/streams?t_begin=0&t_end={SPAN}&directed={}",
                    u8::from(directed)
                );
                let created = request(addr, "POST", &target, events.as_bytes());
                assert_eq!(created.status, 201, "{}", ctx(step));
                let v = json(&created.body);
                assert_eq!(v["events"].as_u64(), Some(count), "{}", ctx(step));
                sessions.push(Session {
                    id: v["stream"].as_u64().expect("stream id"),
                    directed,
                    events,
                    count,
                    touched: (created.sent, created.received),
                    gone: false,
                });
            }
            // expire: idle past the TTL, so every session is gone
            19 if !expired_once => {
                expired_once = true;
                std::thread::sleep(TTL + Duration::from_millis(50));
            }
            // scratch analyze of some session's events: the oracle itself,
            // run on the same executors as the refreshes
            16..=18 => {
                let s = &sessions[rng.below(sessions.len() as u64) as usize];
                let points = 5 + rng.below(3);
                let body = request(
                    addr,
                    "POST",
                    &analyze_target(s.directed, points),
                    s.events.as_bytes(),
                );
                assert_eq!(body.status, 200, "{}", ctx(step));
                scratch.insert((s.directed, points, s.events.clone()), body.body);
            }
            // append (one in five batches strays out of the period and
            // must leave the session untouched) or refresh
            _ => {
                let pick = rng.below(sessions.len() as u64) as usize;
                let s = &mut sessions[pick];
                let (target, batch, stray, points) = if op < 8 {
                    let count = 1 + rng.below(12);
                    let mut batch = rng.events(count);
                    let stray = rng.below(5) == 0;
                    if stray {
                        batch.push_str(&format!("n0 n1 {}\n", SPAN + 1));
                    }
                    (format!("/v1/streams/{}/events", s.id), batch, stray, None)
                } else {
                    let points = 5 + rng.below(3);
                    let asynchronous = if rng.below(2) == 1 { "&async=1" } else { "" };
                    let target = format!(
                        "/v1/streams/{}/analyze?points={points}&directed={}{asynchronous}",
                        s.id,
                        u8::from(s.directed)
                    );
                    (target, String::new(), false, Some(points))
                };
                let exchange = request(addr, "POST", &target, batch.as_bytes());
                let alive = s.alive(&exchange);
                if exchange.status == 410 {
                    assert_ne!(alive, Some(true), "{}: live session answered 410", ctx(step));
                    s.gone = true;
                    continue;
                }
                assert_ne!(alive, Some(false), "{}: expired session answered", ctx(step));
                s.touched = (exchange.sent, exchange.received);
                match points {
                    None if stray => {
                        assert_eq!(exchange.status, 400, "{}: out-of-period batch", ctx(step))
                    }
                    None => {
                        assert_eq!(exchange.status, 200, "{}", ctx(step));
                        let appended = batch.lines().count() as u64;
                        s.events.push_str(&batch);
                        s.count += appended;
                        let v = json(&exchange.body);
                        assert_eq!(v["appended"].as_u64(), Some(appended), "{}", ctx(step));
                        assert_eq!(v["events"].as_u64(), Some(s.count), "{}", ctx(step));
                    }
                    Some(points) => {
                        let outcome = match exchange.status {
                            200 => Ok(exchange.body),
                            202 => Err(json(&exchange.body)["job"].as_u64().expect("job id")),
                            other => panic!("{}: refresh answered {other}", ctx(step)),
                        };
                        let (directed, events) = (s.directed, s.events.clone());
                        refreshes.push(Refresh { directed, points, events, outcome });
                    }
                }
            }
        }
    }

    assert!(refreshes.len() >= 3, "seed {seed} drew too few refreshes to mean anything");
    for (i, refresh) in refreshes.into_iter().enumerate() {
        let body = match refresh.outcome {
            Ok(body) => body,
            Err(job) => {
                let done = request(addr, "GET", &format!("/v1/jobs/{job}?wait=1"), b"");
                assert_eq!(done.status, 200, "seed {seed}, refresh {i}: async job {job}");
                done.body
            }
        };
        let key = (refresh.directed, refresh.points, refresh.events);
        let oracle = scratch.entry(key).or_insert_with_key(|(directed, points, events)| {
            let r =
                request(addr, "POST", &analyze_target(*directed, *points), events.as_bytes());
            assert_eq!(r.status, 200, "seed {seed}, refresh {i}: scratch analyze");
            r.body
        });
        assert!(
            body == *oracle,
            "seed {seed}, executors {executors}, refresh {i}: refresh differs from scratch"
        );
    }
    server.stop();
}

#[test]
fn sessions_follow_the_model_at_one_executor() {
    for seed in [1, 2, 3] {
        run(seed, 1);
    }
}

#[test]
fn sessions_follow_the_model_at_four_executors() {
    for seed in [1, 2, 3] {
        run(seed, 4);
    }
}
