//! HTTP load against the in-process server: an open loop at a fixed rate
//! and a closed loop, both over keep-alive connections, with every
//! response checked against the in-process solve of its body.

use crate::http;
use crate::workload::{Passes, Rng};
use faircap_core::Json;
use std::collections::VecDeque;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// What one load phase measured.
#[derive(Default)]
pub struct LoadResult {
    /// Latency of each checked 200 response, ms (open loop: from the
    /// scheduled send time).
    pub latency_ms: Vec<f64>,
    /// The sweep variant each `latency_ms` entry answered.
    pub latency_variant: Vec<usize>,
    /// Open loop only: how late each request was written, ms.
    pub send_lag_ms: Vec<f64>,
    /// Requests sent.
    pub attempted: u64,
    /// 429 / 503 / 504 answers.
    pub rejected: u64,
    /// First failure messages (for the log).
    pub errors: Vec<String>,
    /// Closed loop only: when each checked response arrived, seconds
    /// since the phase started.
    pub done_at: Vec<f64>,
}

impl LoadResult {
    /// Requests that failed, were refused, or returned wrong rules: every
    /// request sent that did not produce a checked latency.
    pub fn failed(&self) -> u64 {
        self.attempted - self.latency_ms.len() as u64
    }

    /// Note why a request failed (the first few reasons are kept).
    fn fail(&mut self, msg: String) {
        if self.errors.len() < 5 {
            self.errors.push(msg);
        }
    }

    /// Record the response to a request for variant `v`; its latency
    /// counts when it is a 200 whose `rules` equal the in-process rules.
    fn record(
        &mut self,
        status: u16,
        body: &str,
        expected_rules: &[String],
        v: usize,
        latency: Duration,
    ) {
        if matches!(status, 429 | 503 | 504) {
            self.rejected += 1;
        }
        if status != 200 {
            let head: String = body.chars().take(120).collect();
            return self.fail(format!("HTTP {status}: {head}"));
        }
        let rules = Json::parse(body)
            .ok()
            .and_then(|doc| doc.get("rules").map(Json::render));
        if rules.as_deref() != Some(expected_rules[v].as_str()) {
            return self.fail("HTTP rules differ from the in-process solve of the body".into());
        }
        self.latency_ms.push(latency.as_secs_f64() * 1e3);
        self.latency_variant.push(v);
    }

    /// Latencies grouped by the variant they answered.
    pub fn latency_by_variant(&self, variants: usize) -> Vec<Vec<f64>> {
        let mut out = vec![Vec::new(); variants];
        for (&v, &ms) in self.latency_variant.iter().zip(&self.latency_ms) {
            out[v].push(ms);
        }
        out
    }

    /// Closed loop: checked responses per whole second of the phase.
    pub fn per_second(&self, seconds: f64) -> Vec<f64> {
        let mut counts = vec![0.0; (seconds.floor() as usize).max(1)];
        for &t in &self.done_at {
            if let Some(c) = counts.get_mut(t as usize) {
                *c += 1.0;
            }
        }
        counts
    }

    pub fn merge(&mut self, other: LoadResult) {
        self.latency_ms.extend(other.latency_ms);
        self.latency_variant.extend(other.latency_variant);
        self.done_at.extend(other.done_at);
        self.send_lag_ms.extend(other.send_lag_ms);
        self.attempted += other.attempted;
        self.rejected += other.rejected;
        for e in other.errors {
            if self.errors.len() < 5 {
                self.errors.push(e);
            }
        }
    }
}

/// One in-flight request on an open-loop connection; `None` marks the
/// closing health check.
struct Pending {
    due: Instant,
    variant: Option<usize>,
}

struct Lane {
    writer: Mutex<http::Writer>,
    fifo: Mutex<VecDeque<Pending>>,
    outstanding: AtomicUsize,
}

/// Open loop: `round(rate × seconds)` requests due at fixed intervals,
/// bodies in seeded passes, each written to the connection with the
/// fewest outstanding requests (pipelining when all are busy). Latency
/// runs from the due time to the response, so a stall also counts
/// against the requests queued behind it.
pub fn open_loop(
    addr: SocketAddr,
    bodies: &[String],
    expected_rules: &[String],
    rate: f64,
    seconds: f64,
    connections: usize,
    seed: u64,
) -> std::io::Result<LoadResult> {
    let n = (rate * seconds).round().max(1.0) as usize;
    let schedule: Vec<usize> = Passes::new(bodies.len(), Rng::new(seed)).take(n).collect();
    let mut lanes = Vec::new();
    let mut readers = Vec::new();
    for _ in 0..connections.max(1) {
        let (writer, reader) = http::connect(addr)?;
        lanes.push(Lane {
            writer: Mutex::new(writer),
            fifo: Mutex::new(VecDeque::new()),
            outstanding: AtomicUsize::new(0),
        });
        readers.push(reader);
    }
    let lanes = &lanes;
    let mut result = LoadResult::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = readers
            .into_iter()
            .zip(lanes.iter())
            .map(|(mut reader, lane)| {
                scope.spawn(move || {
                    let mut local = LoadResult::default();
                    loop {
                        let response = reader.read();
                        let done = Instant::now();
                        let pending = lane.fifo.lock().expect("lane fifo lock").pop_front();
                        lane.outstanding.fetch_sub(1, Ordering::Relaxed);
                        let Some(pending) = pending else { break };
                        let Some(v) = pending.variant else { break };
                        match response {
                            Ok((status, body)) => {
                                local.record(status, &body, expected_rules, v, done - pending.due)
                            }
                            Err(e) => {
                                // The connection is gone, and with it every
                                // request still queued on it.
                                local.fail(format!("open loop read: {e}"));
                                break;
                            }
                        }
                    }
                    local
                })
            })
            .collect();

        let start = Instant::now() + Duration::from_millis(5);
        let send = |lane: &Lane, pending: Pending, method: &str, path: &str, body: &str| {
            lane.fifo.lock().expect("lane fifo lock").push_back(pending);
            lane.outstanding.fetch_add(1, Ordering::Relaxed);
            lane.writer
                .lock()
                .expect("lane writer lock")
                .send(method, path, body)
        };
        for (k, &v) in schedule.iter().enumerate() {
            let due = start + Duration::from_secs_f64(k as f64 / rate);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let lane = lanes
                .iter()
                .enumerate()
                .min_by_key(|(i, l)| (l.outstanding.load(Ordering::Relaxed), (i + k) % lanes.len()))
                .map(|(_, l)| l)
                .expect("at least one connection");
            result.attempted += 1;
            let pending = Pending {
                due,
                variant: Some(v),
            };
            match send(lane, pending, "POST", "/v1/solve", &bodies[v]) {
                Ok(()) => result.send_lag_ms.push(due.elapsed().as_secs_f64() * 1e3),
                Err(e) => result.fail(format!("open loop write: {e}")),
            }
        }
        for lane in lanes {
            let closing = Pending {
                due: Instant::now(),
                variant: None,
            };
            if send(lane, closing, "GET", "/healthz", "").is_err() {
                // The reader sees the broken connection and stops.
            }
        }
        for h in handles {
            result.merge(h.join().expect("open-loop reader thread"));
        }
    });
    Ok(result)
}

/// Requests each closed-loop client keeps in flight (pipelined on its
/// connection), so the solve pool stays busy while a client turns a
/// response around.
const CLOSED_DEPTH: usize = 2;

/// Closed loop: `connections` clients, each keeping [`CLOSED_DEPTH`]
/// requests in flight (bodies in its own seeded passes) and sending the
/// next as soon as one is answered, until `seconds` have passed.
pub fn closed_loop(
    addr: SocketAddr,
    bodies: &[String],
    expected_rules: &[String],
    seconds: f64,
    connections: usize,
    seed: u64,
) -> std::io::Result<LoadResult> {
    let mut conns = Vec::new();
    for _ in 0..connections.max(1) {
        conns.push(http::connect(addr)?);
    }
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut result = LoadResult::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .into_iter()
            .enumerate()
            .map(|(c, (mut writer, mut reader))| {
                scope.spawn(move || {
                    let mut local = LoadResult::default();
                    let mut order = Passes::new(bodies.len(), Rng::new(seed ^ (c as u64 + 1)));
                    let mut in_flight = VecDeque::new();
                    loop {
                        while in_flight.len() < CLOSED_DEPTH && Instant::now() < deadline {
                            let v = order.next().expect("passes are endless");
                            local.attempted += 1;
                            match writer.send("POST", "/v1/solve", &bodies[v]) {
                                Ok(()) => in_flight.push_back((Instant::now(), v)),
                                Err(e) => {
                                    local.fail(format!("closed loop write: {e}"));
                                    return local;
                                }
                            }
                        }
                        let Some((sent, v)) = in_flight.pop_front() else {
                            return local;
                        };
                        match reader.read() {
                            Ok((status, body)) => {
                                let done = Instant::now();
                                let ok = local.latency_ms.len();
                                local.record(status, &body, expected_rules, v, done - sent);
                                if local.latency_ms.len() > ok {
                                    local.done_at.push((done - start).as_secs_f64());
                                }
                            }
                            Err(e) => {
                                local.fail(format!("closed loop read: {e}"));
                                return local;
                            }
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            result.merge(h.join().expect("closed-loop client thread"));
        }
    });
    Ok(result)
}
