//! # faircap-serve
//!
//! A concurrent prescription-serving front end over
//! [`PrescriptionSession`]s: the ROADMAP's "serving v2" item, built
//! dependency-free on `std::net` plus the `poll(2)` readiness syscall
//! (no tokio/hyper/mio).
//!
//! ## Architecture
//!
//! ```text
//!                 ┌──────────────────────────────────────────────┐
//!  TCP listener → │ reactor thread (poll(2)):                    │
//!                 │ accept, read, parse HTTP/1.1 keep-alive +    │
//!                 │ pipelining, write; per-conn response slots   │
//!                 └───────┬──────────────────────────▲───────────┘
//!     POST /v1/solve      │ admission + coalescing   │ completions
//!                 ┌───────▼──────────────────────────┴───────────┐
//!                 │ solve pool (max_concurrent_solves workers,   │
//!                 │ solve_queue_depth bounded queue)             │
//!                 └───────┬──────────────────────────────────────┘
//!                         │ RegisteredSession::solve
//!                 ┌───────▼─────────────────────────┐
//!                 │ SessionRegistry (one warm       │
//!                 │ PrescriptionSession per dataset)│
//!                 └─────────────────────────────────┘
//! ```
//!
//! One [`reactor`] thread multiplexes every connection, so a connection
//! costs a map entry — not a thread — and keep-alive clients pay the TCP
//! handshake once. Quick endpoints are answered inline on the reactor;
//! solves are admitted to the bounded [`pool::WorkerPool`] and their
//! responses flow back through the reactor's completion queue:
//!
//! * identical in-flight solve requests **coalesce** ([`coalesce`]): one
//!   underlying solve, its report fanned out to every waiter;
//! * a full solve queue sheds load with **429** (+`Retry-After`);
//! * a draining server answers **503** to new solves;
//! * a solve exceeding the per-request timeout answers **504** (the solve
//!   finishes on its worker and still warms the shared caches);
//! * [`Server::shutdown`] stops accepting, finishes every admitted
//!   request — pipelined and pending ones included — then returns.
//!
//! ## Endpoints
//!
//! | Method | Path           | Purpose                                      |
//! |--------|----------------|----------------------------------------------|
//! | POST   | `/v1/solve`    | JSON [`SolveRequest`] → JSON solution report |
//! | GET    | `/v1/sessions` | Registered sessions and their counters       |
//! | GET    | `/v1/metrics`  | Admission gauges, latencies, cache stats     |
//! | GET    | `/v1/trace`    | Recent/slowest solve traces (`?session=`, `?min_ms=`) |
//! | GET    | `/metrics`     | Prometheus text-format exposition            |
//! | POST   | `/v1/snapshot` | Persist warm caches to the snapshot dir      |
//! | POST   | `/v1/shutdown` | Request a graceful drain                     |
//! | GET    | `/healthz`     | Liveness probe                               |
//!
//! ## Observability
//!
//! Every solve can be traced end to end (`docs/observability.md`): send
//! `"trace": true` in the solve body (or an `X-Faircap-Trace-Id` header,
//! or set `FAIRCAP_TRACE=1` server-wide) and the solve runs with a span
//! tree — queue wait, Step 1/2/3, per-group and per-estimate spans — that
//! is echoed in the response (`trace` field + `X-Faircap-Trace-Id`
//! header) and retained in a bounded ring served from `GET /v1/trace`
//! (the slowest traces are sticky). Traced requests bypass coalescing so
//! the spans describe a real underlying solve. Latency accounting uses
//! log-bucketed histograms ([`metrics::LatencyRecorder`]). Every metric is
//! declared once, in the [`metrics`] table, which renders `/v1/metrics`,
//! `/v1/sessions` and `GET /metrics` alike.
//!
//! JSON schemas are documented in `docs/serving.md`; the request/report
//! wire format lives in `faircap_core::wire` so rulesets served over HTTP
//! are bit-identical to direct [`PrescriptionSession::solve`] calls.
//!
//! [`PrescriptionSession`]: faircap_core::PrescriptionSession
//! [`PrescriptionSession::solve`]: faircap_core::PrescriptionSession::solve
//! [`SolveRequest`]: faircap_core::SolveRequest

#![warn(missing_docs)]

pub mod client;
pub mod coalesce;
pub mod http;
pub mod metrics;
pub mod pool;
pub mod reactor;

pub use client::{ClientConnection, ClientResponse, ServeClient};

use coalesce::{Attach, Coalescer};
use faircap_core::wire::{solution_report_to_json, solve_request_from_json};
use faircap_core::{Error, Json, RegisteredSession, SessionRegistry, SolveRequest};
use faircap_obs::{FinishedTrace, Trace, TraceRing};
use http::{ParseError, Request, Response};
use metrics::{ConnGauges, ServerMetrics};
use pool::{SubmitError, WorkerPool};
use reactor::{
    App, Completion, Completions, Dispatch, ReactorHandle, ReactorOptions, ReactorPhase,
};
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Recent finished traces retained for `GET /v1/trace`.
const TRACE_RING_RECENT: usize = 64;
/// Slowest finished traces retained beyond the recent ring.
const TRACE_RING_SLOW: usize = 8;

/// Server configuration: bind address, solve-pool sizes, connection
/// limits, and the snapshot directory for warm boots.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address. Use port 0 to let the OS pick (tests do).
    pub addr: String,
    /// Solve worker threads — the max-concurrent-solves budget.
    pub max_concurrent_solves: usize,
    /// Bound on admitted-but-not-started solves (overflow answers 429).
    pub solve_queue_depth: usize,
    /// Per-request solve timeout (exceeding answers 504).
    pub solve_timeout: Duration,
    /// Where `POST /v1/snapshot` persists warm caches (`<dir>/<name>.fc`).
    pub snapshot_dir: Option<PathBuf>,
    /// Open-connection cap; excess connections get an immediate 503.
    pub max_connections: usize,
    /// Keep-alive connections with no outstanding requests are closed
    /// after this long.
    pub idle_timeout: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            max_concurrent_solves: 2,
            solve_queue_depth: 16,
            solve_timeout: Duration::from_secs(120),
            snapshot_dir: None,
            max_connections: 1024,
            idle_timeout: Duration::from_secs(30),
        }
    }
}

struct Inner {
    registry: Arc<SessionRegistry>,
    config: ServeConfig,
    metrics: ServerMetrics,
    gauges: Arc<ConnGauges>,
    solve_pool: WorkerPool,
    coalescer: Coalescer,
    completions: Arc<Completions>,
    started: Instant,
    traces: TraceRing,
    /// `FAIRCAP_TRACE` was set at boot: trace every solve server-wide
    /// (bypassing coalescing), so slow solves always land in the ring.
    trace_all: bool,
    shutdown_flag: Mutex<bool>,
    shutdown_cv: Condvar,
}

/// A running server. Dropping it performs a graceful [`shutdown`].
///
/// [`shutdown`]: Server::shutdown
pub struct Server {
    inner: Arc<Inner>,
    addr: SocketAddr,
    reactor: ReactorHandle,
}

impl Server {
    /// Bind and start serving `registry` under `config`. Returns once the
    /// listener is accepting; everything else happens on the reactor
    /// thread and the solve pool.
    pub fn start(config: ServeConfig, registry: Arc<SessionRegistry>) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let completions = Completions::new()?;
        let gauges = Arc::new(ConnGauges::default());
        let options = ReactorOptions {
            max_connections: config.max_connections,
            idle_timeout: config.idle_timeout,
            pending_timeout: config.solve_timeout,
        };
        let inner = Arc::new(Inner {
            solve_pool: WorkerPool::new(
                "faircap-solve",
                config.max_concurrent_solves,
                config.solve_queue_depth,
            ),
            metrics: ServerMetrics::default(),
            gauges: Arc::clone(&gauges),
            coalescer: Coalescer::new(),
            completions: Arc::clone(&completions),
            started: Instant::now(),
            traces: TraceRing::new(TRACE_RING_RECENT, TRACE_RING_SLOW),
            trace_all: std::env::var("FAIRCAP_TRACE")
                .map(|v| !v.is_empty() && v != "0")
                .unwrap_or(false),
            shutdown_flag: Mutex::new(false),
            shutdown_cv: Condvar::new(),
            registry,
            config,
        });
        let reactor = reactor::spawn(listener, Arc::clone(&inner), completions, options, gauges)?;
        Ok(Server {
            inner,
            addr,
            reactor,
        })
    }

    /// The bound address (with the OS-assigned port when `addr` used 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The registry this server fronts.
    pub fn registry(&self) -> &Arc<SessionRegistry> {
        &self.inner.registry
    }

    /// A [`ServeClient`] bound to this server.
    pub fn client(&self) -> ServeClient {
        ServeClient::new(self.addr)
    }

    /// Whether a graceful shutdown has been requested (via
    /// [`request_shutdown`](Self::request_shutdown) or `POST /v1/shutdown`).
    pub fn shutdown_requested(&self) -> bool {
        *self.inner.shutdown_flag.lock().expect("shutdown flag lock")
    }

    /// Ask the server to shut down; unblocks
    /// [`wait_for_shutdown_request`](Self::wait_for_shutdown_request).
    /// New solve requests are refused with 503 from this point on; quick
    /// endpoints keep answering until [`shutdown`](Self::shutdown).
    pub fn request_shutdown(&self) {
        request_shutdown(&self.inner);
    }

    /// Block until someone requests a shutdown, then return (the caller —
    /// typically the CLI — performs the actual [`shutdown`](Self::shutdown)).
    pub fn wait_for_shutdown_request(&self) {
        let mut flag = self.inner.shutdown_flag.lock().expect("shutdown flag lock");
        while !*flag {
            flag = self.inner.shutdown_cv.wait(flag).expect("shutdown cv wait");
        }
    }

    /// Graceful shutdown: close the listener, finish every admitted
    /// request (pipelined and in-solve ones included), flush, then join
    /// the reactor and the solve pool. Idempotent.
    pub fn shutdown(&self) {
        // The reactor drains first — its pending slots need live solve
        // workers to complete — then the pool.
        self.reactor.shutdown();
        self.inner.solve_pool.shutdown();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn request_shutdown(inner: &Inner) {
    let mut flag = inner.shutdown_flag.lock().expect("shutdown flag lock");
    *flag = true;
    inner.shutdown_cv.notify_all();
}

impl Inner {
    fn draining(&self) -> bool {
        *self.shutdown_flag.lock().expect("shutdown flag lock")
    }

    /// Admission for `POST /v1/solve`: validate, coalesce, submit.
    fn dispatch_solve(self: &Arc<Self>, request: &Request, waiter: u64) -> Dispatch {
        let body_text = match request.body_utf8() {
            Ok(text) if !text.trim().is_empty() => text,
            Ok(_) => "{}",
            Err(e) => return Dispatch::Immediate(Response::error(400, e.to_string())),
        };
        let body = match Json::parse(body_text) {
            Ok(body) => body,
            Err(e) => {
                return Dispatch::Immediate(Response::error(400, format!("invalid JSON body: {e}")))
            }
        };
        let entry = match resolve_session(self, &body) {
            Ok(entry) => entry,
            Err(response) => return Dispatch::Immediate(response),
        };
        let solve_request = match admitted_solve_request(&body) {
            Ok(r) => r,
            Err(e) => return Dispatch::Immediate(Response::error(400, e.to_string())),
        };
        if self.draining() {
            ServerMetrics::bump(&self.metrics.rejected_shutdown);
            return Dispatch::Immediate(Response::error(503, "server is draining for shutdown"));
        }

        // Tracing: opt in per request (`"trace": true` in the body or an
        // `X-Faircap-Trace-Id` header) or server-wide (`FAIRCAP_TRACE`).
        let header_id = request
            .header("x-faircap-trace-id")
            .and_then(Trace::parse_id);
        let traced = solve_request.trace || header_id.is_some() || self.trace_all;
        let trace = traced.then(|| match header_id {
            Some(id) => Trace::with_id(id),
            None => Trace::new(entry.name()),
        });

        // Coalesce: identical in-flight (session, request) pairs share one
        // underlying solve. `attach`/`abort` both run here on the reactor
        // thread, so a leader's failed submission can never strand a
        // follower. Traced solves never coalesce: their spans must
        // describe a real underlying solve, not an attach to someone
        // else's.
        let key = if traced {
            None
        } else {
            coalesce::fingerprint(entry.name(), &solve_request)
        };
        if let Some(key) = &key {
            match self.coalescer.attach(key.clone(), waiter) {
                Attach::Attached => {
                    ServerMetrics::bump(&self.metrics.coalesce_hits);
                    entry.record_coalesced();
                    return Dispatch::Pending;
                }
                Attach::Leader => {}
            }
        }

        // The root and queue-wait spans open here on the reactor thread,
        // so the queue-wait span measures exactly the time between
        // admission and a pool worker picking the job up.
        let root = trace.as_ref().map(|t| t.root("request"));
        let queue_span = root.as_ref().map(|r| r.child("queue_wait"));
        let queued_at = Instant::now();
        let embed = solve_request.trace;
        let job_inner = Arc::clone(self);
        let job_key = key.clone();
        let job_entry = Arc::clone(&entry);
        let job_trace = trace.clone();
        let submitted = self.solve_pool.try_submit(move |in_flight| {
            job_inner.metrics.queue_wait.record(queued_at.elapsed());
            drop(queue_span);
            let solve_span = root.as_ref().map(|r| r.child("solve"));
            let solve_request = match &solve_span {
                Some(s) => solve_request.span(s.handle()),
                None => solve_request,
            };
            let result = job_entry.solve(&solve_request);
            drop(solve_span);
            let response = match result {
                Ok(report) => {
                    let respond_span = root.as_ref().map(|r| r.child("respond"));
                    let mut doc =
                        vec![("session".to_owned(), Json::Str(job_entry.name().to_owned()))];
                    match solution_report_to_json(&report) {
                        Json::Obj(fields) => doc.extend(fields),
                        other => doc.push(("report".to_owned(), other)),
                    }
                    drop(respond_span);
                    drop(root);
                    if let Some(trace) = &job_trace {
                        let finished = trace.finish(job_entry.name());
                        if embed {
                            doc.push(("trace".to_owned(), finished_trace_json(&finished)));
                        }
                        job_inner.traces.push(finished);
                    }
                    Response::json(200, &Json::Obj(doc))
                }
                Err(e) => {
                    drop(root);
                    if let Some(trace) = &job_trace {
                        job_inner.traces.push(trace.finish(job_entry.name()));
                    }
                    let status = match e {
                        Error::InvalidRequest(_) => 422,
                        _ => 500,
                    };
                    Response::error(status, e.to_string())
                }
            };
            let response = match &job_trace {
                Some(trace) => response.with_header("x-faircap-trace-id", trace.id_hex()),
                None => response,
            };
            let waiters = match &job_key {
                Some(k) => job_inner.coalescer.take(k),
                None => vec![waiter],
            };
            // Leave the in-flight count before anyone can see the response,
            // so a client's next metrics scrape never counts its own solve.
            drop(in_flight);
            job_inner
                .completions
                .complete(Completion { waiters, response });
        });
        match submitted {
            Ok(()) => Dispatch::Pending,
            Err(SubmitError::QueueFull) => {
                if let Some(key) = &key {
                    self.coalescer.abort(key);
                }
                ServerMetrics::bump(&self.metrics.rejected_queue_full);
                Dispatch::Immediate(
                    Response::error(
                        429,
                        format!(
                            "solve queue is full ({} queued, {} in flight); retry shortly",
                            self.solve_pool.queue_depth(),
                            self.solve_pool.in_flight()
                        ),
                    )
                    .with_header("retry-after", "1"),
                )
            }
            Err(SubmitError::ShuttingDown) => {
                if let Some(key) = &key {
                    self.coalescer.abort(key);
                }
                ServerMetrics::bump(&self.metrics.rejected_shutdown);
                Dispatch::Immediate(Response::error(503, "server is draining for shutdown"))
            }
        }
    }
}

impl App for Inner {
    fn handle(self: &Arc<Self>, request: &Request, waiter: u64) -> Dispatch {
        ServerMetrics::bump(&self.metrics.http_requests);
        // Routes are the path with any query string stripped; only
        // `/v1/trace` currently reads the query.
        let (route, query) = match request.path.split_once('?') {
            Some((route, query)) => (route, Some(query)),
            None => (request.path.as_str(), None),
        };
        match (request.method.as_str(), route) {
            ("POST", "/v1/solve") => self.dispatch_solve(request, waiter),
            ("GET", "/healthz") => Dispatch::Immediate(Response::json(
                200,
                &Json::Obj(vec![
                    ("ok".into(), Json::Bool(true)),
                    (
                        "uptime_ms".into(),
                        Json::Num(self.started.elapsed().as_secs_f64() * 1e3),
                    ),
                ]),
            )),
            ("GET", "/v1/sessions") => {
                Dispatch::Immediate(Response::json(200, &metrics::sessions_json(self)))
            }
            ("GET", "/v1/metrics") => {
                Dispatch::Immediate(Response::json(200, &metrics::metrics_json(self)))
            }
            ("GET", "/v1/trace") => Dispatch::Immediate(trace_response(self, query)),
            ("GET", "/metrics") => {
                Dispatch::Immediate(Response::prometheus(200, metrics::prometheus_text(self)))
            }
            ("POST", "/v1/snapshot") => Dispatch::Immediate(snapshot_response(self, request)),
            ("POST", "/v1/shutdown") => {
                request_shutdown(self);
                Dispatch::Immediate(Response::json(
                    200,
                    &Json::Obj(vec![("draining".into(), Json::Bool(true))]),
                ))
            }
            (
                _,
                "/v1/solve" | "/v1/snapshot" | "/v1/shutdown" | "/v1/sessions" | "/v1/metrics"
                | "/v1/trace" | "/metrics",
            ) => Dispatch::Immediate(Response::error(
                405,
                format!("method {} not allowed here", request.method),
            )),
            (_, path) => {
                Dispatch::Immediate(Response::error(404, format!("no such endpoint `{path}`")))
            }
        }
    }

    fn on_phase(&self, phase: ReactorPhase, took: Duration) {
        let recorder = match phase {
            ReactorPhase::Read => &self.metrics.reactor_read,
            ReactorPhase::Dispatch => &self.metrics.request_latency,
            ReactorPhase::Write => &self.metrics.reactor_write,
        };
        recorder.record(took);
    }

    fn on_timeout(&self, _waiter: u64) -> Response {
        ServerMetrics::bump(&self.metrics.timeouts);
        Response::error(
            504,
            format!(
                "solve exceeded the {:?} request timeout; it keeps running and will warm the caches",
                self.config.solve_timeout
            ),
        )
    }

    fn on_parse_error(&self, error: &ParseError) -> Response {
        ServerMetrics::bump(&self.metrics.http_errors);
        match error {
            ParseError::BodyTooLarge(_) => Response::error(413, error.to_string()),
            ParseError::Malformed(_) => Response::error(400, error.to_string()),
        }
    }

    fn on_delivered(&self, status: u16, waited: Duration) {
        // Delivered-response accounting: a coalesced fan-out of one
        // underlying solve counts once per served request (per-session
        // counters track underlying solves).
        if status == 200 {
            ServerMetrics::bump(&self.metrics.solves_ok);
            self.metrics.solve_latency.record(waited);
        } else {
            ServerMetrics::bump(&self.metrics.solves_err);
        }
    }
}

/// Resolve the target session: the body's `session` field, or the sole
/// registered session when the field is absent.
fn resolve_session(inner: &Inner, body: &Json) -> Result<Arc<RegisteredSession>, Response> {
    match body.get("session") {
        Some(Json::Str(name)) => inner.registry.get(name).ok_or_else(|| {
            Response::error(
                404,
                format!(
                    "no session `{name}` (registered: {})",
                    inner.registry.names().join(", ")
                ),
            )
        }),
        Some(_) => Err(Response::error(400, "`session` must be a string")),
        None => inner.registry.single().ok_or_else(|| {
            Response::error(
                400,
                format!(
                    "{} sessions registered; specify `session` (one of: {})",
                    inner.registry.len(),
                    inner.registry.names().join(", ")
                ),
            )
        }),
    }
}

fn snapshot_response(inner: &Inner, request: &Request) -> Response {
    let Some(dir) = &inner.config.snapshot_dir else {
        return Response::error(
            400,
            "no snapshot directory configured (start the server with --snapshot-dir)",
        );
    };
    let body_text = match request.body_utf8() {
        Ok(text) if !text.trim().is_empty() => text,
        Ok(_) => "{}",
        Err(e) => return Response::error(400, e.to_string()),
    };
    let body = match Json::parse(body_text) {
        Ok(body) => body,
        Err(e) => return Response::error(400, format!("invalid JSON body: {e}")),
    };
    let entries = match body.get("session") {
        Some(Json::Str(name)) => match inner.registry.get(name) {
            Some(entry) => vec![entry],
            None => return Response::error(404, format!("no session `{name}`")),
        },
        Some(_) => return Response::error(400, "`session` must be a string"),
        None => inner.registry.entries(),
    };
    if let Err(e) = std::fs::create_dir_all(dir) {
        return Response::error(500, format!("creating {}: {e}", dir.display()));
    }
    let mut written = Vec::new();
    for entry in entries {
        let path = dir.join(format!("{}.fc", entry.name()));
        let encoded = entry.session().snapshot().encode();
        if let Err(e) = std::fs::write(&path, &encoded) {
            return Response::error(500, format!("writing {}: {e}", path.display()));
        }
        written.push(Json::Obj(vec![
            ("session".into(), Json::Str(entry.name().to_owned())),
            ("path".into(), Json::Str(path.display().to_string())),
            ("bytes".into(), Json::Num(encoded.len() as f64)),
        ]));
    }
    Response::json(
        200,
        &Json::Obj(vec![("snapshots".into(), Json::Arr(written))]),
    )
}

/// Render one finished trace as the wire JSON shared by the embedded
/// solve-response `trace` field and `GET /v1/trace`.
fn finished_trace_json(t: &FinishedTrace) -> Json {
    let spans: Vec<Json> = t
        .spans
        .iter()
        .map(|s| {
            Json::Obj(vec![
                ("id".into(), Json::Num(s.id as f64)),
                (
                    "parent".into(),
                    s.parent.map(|p| Json::Num(p as f64)).unwrap_or(Json::Null),
                ),
                ("name".into(), Json::Str(s.name.clone())),
                ("start_ns".into(), Json::Num(s.start_ns as f64)),
                ("end_ns".into(), Json::Num(s.end_ns as f64)),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("trace_id".into(), Json::Str(format!("{:016x}", t.id))),
        ("session".into(), Json::Str(t.session.clone())),
        ("duration_ms".into(), Json::Num(t.duration_ns as f64 / 1e6)),
        ("dropped_spans".into(), Json::Num(t.dropped as f64)),
        ("spans".into(), Json::Arr(spans)),
    ])
}

/// Parse a `POST /v1/solve` body into the request the server runs. Its
/// `workers` is capped at the machine's cores, because one solve spawns up
/// to that many threads and a thread that fails to spawn panics. The cap
/// applies before the coalescing key is taken, so requests that differ
/// only above it share a solve. The library and the CLI leave `workers`
/// as given.
fn admitted_solve_request(body: &Json) -> faircap_core::Result<SolveRequest> {
    let mut request = solve_request_from_json(body)?;
    if let Some(workers) = &mut request.workers {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        *workers = (*workers).min(cores);
    }
    Ok(request)
}

/// Parse the query string of `GET /v1/trace` into its `session` filter
/// and its `min_ms` threshold (0 when absent). Later values of a
/// parameter win. An unknown parameter, or a `min_ms` that is not a
/// finite non-negative number, is an `Err` carrying the 400 message.
pub fn parse_trace_query(query: Option<&str>) -> Result<(Option<String>, f64), String> {
    let mut session: Option<String> = None;
    let mut min_ms = 0.0f64;
    for pair in query.unwrap_or("").split('&').filter(|p| !p.is_empty()) {
        let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
        match k {
            "session" => session = Some(v.to_owned()),
            "min_ms" => match v.parse::<f64>() {
                Ok(ms) if ms >= 0.0 && ms.is_finite() => min_ms = ms,
                _ => return Err(format!("`min_ms` must be a non-negative number, got `{v}`")),
            },
            other => return Err(format!("unknown query parameter `{other}`")),
        }
    }
    Ok((session, min_ms))
}

/// `GET /v1/trace`: recent and slowest traces, filterable with
/// `?session=<name>` and `?min_ms=<float>`.
fn trace_response(inner: &Inner, query: Option<&str>) -> Response {
    let (session, min_ms) = match parse_trace_query(query) {
        Ok(filters) => filters,
        Err(message) => return Response::error(400, message),
    };
    let traces: Vec<Json> = inner
        .traces
        .snapshot(session.as_deref(), (min_ms * 1e6) as u64)
        .iter()
        .map(finished_trace_json)
        .collect();
    Response::json(200, &Json::Obj(vec![("traces".into(), Json::Arr(traces))]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admission_caps_request_workers_at_the_cores() {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let workers = |body: &str| {
            admitted_solve_request(&Json::parse(body).unwrap())
                .unwrap()
                .workers
        };
        assert_eq!(workers(r#"{"workers": 1000000}"#), Some(cores));
        assert_eq!(workers(r#"{"workers": 1}"#), Some(1));
        assert_eq!(workers("{}"), None);
        // Requests differing only above the cap share a coalescing key.
        let key = |body: &str| {
            let request = admitted_solve_request(&Json::parse(body).unwrap()).unwrap();
            coalesce::fingerprint("so", &request)
        };
        let capped = key(&format!(r#"{{"workers": {cores}}}"#));
        assert!(capped.is_some());
        assert_eq!(key(r#"{"workers": 1000000}"#), capped);
    }
}
