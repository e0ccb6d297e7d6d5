//! A minimal keep-alive HTTP/1.1 client for the in-process server.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One keep-alive connection; reconnects transparently when the server
/// closes it.
pub struct Conn {
    addr: SocketAddr,
    reader: Option<BufReader<TcpStream>>,
}

impl Conn {
    pub fn new(addr: SocketAddr) -> Conn {
        Conn { addr, reader: None }
    }

    fn stream(&mut self) -> std::io::Result<&mut BufReader<TcpStream>> {
        if self.reader.is_none() {
            let stream = TcpStream::connect(self.addr)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(Duration::from_secs(60)))?;
            self.reader = Some(BufReader::new(stream));
        }
        Ok(self.reader.as_mut().expect("just connected"))
    }

    /// Sends one request and reads the whole response: `(status, body)`.
    pub fn request(
        &mut self,
        method: &str,
        target: &str,
        body: &[u8],
    ) -> std::io::Result<(u16, Vec<u8>)> {
        let out = self.exchange(method, target, body);
        if out.is_err() {
            self.reader = None;
        }
        out
    }

    fn exchange(
        &mut self,
        method: &str,
        target: &str,
        body: &[u8],
    ) -> std::io::Result<(u16, Vec<u8>)> {
        // head and body in one write: no Nagle / delayed-ACK stall between them
        let mut wire = format!(
            "{method} {target} HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        wire.extend_from_slice(body);
        let reader = self.stream()?;
        reader.get_mut().write_all(&wire)?;

        let bad =
            |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string());
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            return Err(bad("connection closed before the status line"));
        }
        let status: u16 = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("status line"))?;
        let (mut length, mut close) = (None, false);
        loop {
            line.clear();
            reader.read_line(&mut line)?;
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                let value = value.trim();
                if name.eq_ignore_ascii_case("content-length") {
                    length = value.parse::<usize>().ok();
                } else if name.eq_ignore_ascii_case("connection") {
                    close = value.eq_ignore_ascii_case("close");
                }
            }
        }
        let mut payload = vec![0u8; length.ok_or_else(|| bad("no Content-Length"))?];
        reader.read_exact(&mut payload)?;
        if close {
            self.reader = None;
        }
        Ok((status, payload))
    }
}

/// The value of an unlabelled sample `name` in a Prometheus exposition.
pub fn sample(text: &str, name: &str) -> f64 {
    text.lines()
        .find_map(|line| line.strip_prefix(name).and_then(|rest| rest.strip_prefix(' ')))
        .and_then(|v| v.trim().parse::<f64>().ok())
        .unwrap_or(0.0)
}

/// Cumulative `(le_seconds, count)` buckets of histogram `name`.
pub fn buckets(text: &str, name: &str) -> Vec<(f64, f64)> {
    let prefix = format!("{name}_bucket{{le=\"");
    text.lines()
        .filter_map(|line| {
            let rest = line.strip_prefix(&prefix)?;
            let (le, count) = rest.split_once("\"} ")?;
            let le = if le == "+Inf" { f64::INFINITY } else { le.parse().ok()? };
            Some((le, count.trim().parse().ok()?))
        })
        .collect()
}

/// The `q` quantile, in milliseconds, of the observations a histogram
/// gained between two scrapes (bucket upper bound, so within 2x); NaN when
/// nothing was observed.
pub fn bucket_quantile_ms(before: &[(f64, f64)], after: &[(f64, f64)], q: f64) -> f64 {
    let delta: Vec<(f64, f64)> = after
        .iter()
        .map(|&(le, c)| (le, c - before.iter().find(|b| b.0 == le).map_or(0.0, |b| b.1)))
        .collect();
    let total = delta.last().map_or(0.0, |b| b.1);
    if total <= 0.0 {
        return f64::NAN;
    }
    delta.iter().find(|b| b.1 >= q * total).map_or(f64::NAN, |b| b.0 * 1e3)
}
