//! Live serving metrics: the counters and histograms the request path
//! updates, and the one table that renders them.
//!
//! Everything updated on the request path is lock-free: plain atomics for
//! counters, [`faircap_obs::Histogram`]s for latencies. The table —
//! `SERVER` rows for the server and `SESSION` rows for each registered
//! session — declares every metric the server exposes exactly once: its
//! Prometheus name, kind and help, its label, its JSON location and one
//! reader. `metrics_json`, `sessions_json` and `prometheus_text` walk
//! it to render `/v1/metrics`, `/v1/sessions` and `/metrics`, so a new row
//! appears on all of them. The table only reads state; the counters stay
//! with whatever updates them (this module, the solve pool, the coalescer,
//! the session's caches and its registry entry's solve ledger).
//!
//! ## Units
//!
//! A metric's unit is the suffix of its Prometheus name (`_seconds`, `_ms`,
//! `_us` or `_ns`, ahead of any `_total`). A JSON key ending in `_ms` gets
//! the value converted to milliseconds; every other key gets it as read.
//! Histograms render on JSON as `{count, p50_ms, p90_ms, p99_ms, max_ms}`
//! (`null` before the first sample) and on Prometheus as `_bucket` /
//! `_sum` / `_count` series in the name's unit.

use crate::Inner;
use faircap_core::wire::exec_stats_to_json;
use faircap_core::{Json, RegisteredSession};
use faircap_obs::{Histogram, HistogramSnapshot, PromText};
use faircap_table::CacheCounters;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

#[cfg(test)]
mod parity;

/// A latency histogram with percentile readout.
///
/// Backed by a fixed log-bucketed [`Histogram`] recording **microseconds**,
/// so every percentile is exact to within
/// [`faircap_obs::RELATIVE_ERROR_BOUND`] (3.125 %) over *all* samples ever
/// recorded — unlike the sampled ring it replaced, nothing is evicted and
/// the serve-layer and bench-layer quantiles share one semantics.
#[derive(Default)]
pub struct LatencyRecorder {
    hist: Histogram,
}

impl LatencyRecorder {
    /// Record one latency.
    pub fn record(&self, latency: Duration) {
        let micros = latency.as_micros().min(u128::from(u64::MAX)) as u64;
        self.hist.record(micros);
    }

    /// Total latencies ever recorded.
    pub fn count(&self) -> u64 {
        self.hist.count()
    }

    /// Percentile summary in milliseconds: `(p50, p90, p99, max)`. `None`
    /// when nothing was recorded yet; see [`HistogramSnapshot::summary_ms`].
    pub fn summary_ms(&self) -> Option<(f64, f64, f64, f64)> {
        let s = self.hist.snapshot().summary_ms(|us| us as f64 / 1e3)?;
        Some((s.p50_ms, s.p90_ms, s.p99_ms, s.max_ms))
    }

    /// A point-in-time copy of the underlying histogram, in microseconds —
    /// the raw material for Prometheus `_bucket` exposition.
    pub fn snapshot_us(&self) -> HistogramSnapshot {
        self.hist.snapshot()
    }
}

/// Counter block of one server instance.
#[derive(Default)]
pub struct ServerMetrics {
    /// HTTP requests accepted and parsed (any endpoint).
    pub http_requests: AtomicU64,
    /// Requests that failed to parse as HTTP (answered 400 where possible).
    pub http_errors: AtomicU64,
    /// Solves that completed and returned a ruleset.
    pub solves_ok: AtomicU64,
    /// Solves that failed with a typed error.
    pub solves_err: AtomicU64,
    /// Solve requests shed because the bounded queue was full (429).
    pub rejected_queue_full: AtomicU64,
    /// Solve requests refused because the server was draining (503).
    pub rejected_shutdown: AtomicU64,
    /// Solves that exceeded the per-request timeout (504; the solve itself
    /// keeps running on its pool worker and still warms the caches).
    pub timeouts: AtomicU64,
    /// Requests answered by attaching to an already-in-flight identical
    /// solve instead of submitting a new one.
    pub coalesce_hits: AtomicU64,
    /// End-to-end latency of completed solves (admission → delivery).
    pub solve_latency: LatencyRecorder,
    /// Time admitted solves spent queued before a pool worker picked them
    /// up.
    pub queue_wait: LatencyRecorder,
    /// Per-request reactor dispatch latency: parse → routed response or
    /// admission, for every keep-alive request (quick endpoints included).
    pub request_latency: LatencyRecorder,
    /// Reactor read-side servicing per readable connection (drain + parse
    /// + dispatch + opportunistic flush).
    pub reactor_read: LatencyRecorder,
    /// Reactor write-side flushes (queued response bytes → socket).
    pub reactor_write: LatencyRecorder,
}

impl ServerMetrics {
    /// Relaxed increment helper.
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Relaxed read helper.
    pub fn read(counter: &AtomicU64) -> u64 {
        counter.load(Ordering::Relaxed)
    }
}

/// Connection-level gauges maintained by the reactor and reported under
/// `connections` in `/v1/metrics`. Monotonic counters; currently-open
/// connections are `accepted - closed`.
#[derive(Default)]
pub struct ConnGauges {
    /// Connections accepted from the listener (including ones immediately
    /// rejected over capacity).
    pub accepted: AtomicU64,
    /// Connections fully closed by the reactor.
    pub closed: AtomicU64,
    /// Connections answered with an immediate 503 because the
    /// `max_connections` cap was reached.
    pub rejected_over_capacity: AtomicU64,
}

impl ConnGauges {
    /// Record an accepted connection.
    pub fn bump_accepted(&self) {
        self.accepted.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a closed connection.
    pub fn bump_closed(&self) {
        self.closed.fetch_add(1, Ordering::Relaxed);
    }

    /// Record an over-capacity rejection.
    pub fn bump_rejected_over_capacity(&self) {
        self.rejected_over_capacity.fetch_add(1, Ordering::Relaxed);
    }

    /// Connections currently open (accepted minus closed).
    pub fn open(&self) -> u64 {
        let accepted = self.accepted.load(Ordering::Relaxed);
        accepted.saturating_sub(self.closed.load(Ordering::Relaxed))
    }
}

/// How a row renders on Prometheus.
#[derive(Clone, Copy)]
enum Kind {
    Counter,
    Gauge,
    Histogram,
}

/// How a row reads its scope `C` (the server, or one session).
enum Read<C> {
    /// A number.
    Num(fn(&C) -> f64),
    /// A distribution.
    Hist(fn(&C) -> HistogramSnapshot),
    /// A string or structured value. On Prometheus the string is the value
    /// of the named label on an info gauge: `name{label="…"} 1`.
    Info(&'static str, fn(&C) -> Json),
    /// One sample per value of the named label.
    Each(&'static str, fn(&C) -> Vec<Sample>),
}

/// One reading of a row.
enum Value {
    Num(f64),
    Hist(HistogramSnapshot),
    Json(Json),
}

/// One sample of a [`Read::Each`] row: its label's value, the key that
/// replaces `{}` in the row's JSON path, and the reading.
type Sample = (String, String, Value);

/// A sample's `(name, value)` label, on rows that have one.
type Label = Option<(&'static str, String)>;

/// One metric, declared once and rendered to every endpoint.
struct Metric<C> {
    /// Prometheus family name; `None` for a JSON-only field.
    prom: Option<&'static str>,
    kind: Kind,
    /// Dot-separated JSON path(s), comma-separated, relative to the
    /// `/v1/metrics` root (server rows) or the session object.
    json: &'static str,
    help: &'static str,
    read: Read<C>,
}

const fn metric<C>(
    kind: Kind,
    prom: &'static str,
    json: &'static str,
    help: &'static str,
    read: Read<C>,
) -> Metric<C> {
    let prom = Some(prom);
    Metric {
        prom,
        kind,
        json,
        help,
        read,
    }
}

const fn counter<C>(
    prom: &'static str,
    json: &'static str,
    help: &'static str,
    read: Read<C>,
) -> Metric<C> {
    metric(Kind::Counter, prom, json, help, read)
}

const fn gauge<C>(
    prom: &'static str,
    json: &'static str,
    help: &'static str,
    read: Read<C>,
) -> Metric<C> {
    metric(Kind::Gauge, prom, json, help, read)
}

const fn histogram<C>(
    prom: &'static str,
    json: &'static str,
    help: &'static str,
    read: Read<C>,
) -> Metric<C> {
    metric(Kind::Histogram, prom, json, help, read)
}

/// A JSON-only field: identity or structure, not a metric.
const fn info<C>(json: &'static str, read: fn(&C) -> Json) -> Metric<C> {
    let read = Info("", read);
    Metric {
        prom: None,
        kind: Kind::Gauge,
        json,
        help: "",
        read,
    }
}

use Read::{Each, Hist, Info, Num};

/// Server-wide rows: the `/v1/metrics` root and the unlabelled families.
static SERVER: &[Metric<Inner>] = &[
    gauge(
        "faircap_serve_uptime_seconds",
        "uptime_ms,uptime_seconds",
        "Seconds since the server started",
        Num(|s| s.started.elapsed().as_secs_f64()),
    ),
    gauge(
        "faircap_build_info",
        "version",
        "Build metadata carried in labels; the value is always 1",
        Info("version", |_| Json::Str(env!("CARGO_PKG_VERSION").into())),
    ),
    counter(
        "faircap_serve_http_requests_total",
        "requests.http_requests",
        "HTTP requests accepted and parsed (any endpoint)",
        Num(|s| count(&s.metrics.http_requests)),
    ),
    counter(
        "faircap_serve_http_errors_total",
        "requests.http_errors",
        "Requests that failed to parse as HTTP",
        Num(|s| count(&s.metrics.http_errors)),
    ),
    counter(
        "faircap_serve_solves_ok_total",
        "requests.solves_ok",
        "Solve responses delivered with status 200",
        Num(|s| count(&s.metrics.solves_ok)),
    ),
    counter(
        "faircap_serve_solves_err_total",
        "requests.solves_err",
        "Solve responses delivered with an error status",
        Num(|s| count(&s.metrics.solves_err)),
    ),
    counter(
        "faircap_serve_coalesce_hits_total",
        "requests.coalesce_hits",
        "Requests attached to an identical in-flight solve",
        Num(|s| count(&s.metrics.coalesce_hits)),
    ),
    counter(
        "faircap_serve_rejected_queue_full_total",
        "requests.rejected_429",
        "Solves shed with 429 because the bounded queue was full",
        Num(|s| count(&s.metrics.rejected_queue_full)),
    ),
    counter(
        "faircap_serve_rejected_shutdown_total",
        "requests.rejected_503",
        "Solves refused with 503 while draining",
        Num(|s| count(&s.metrics.rejected_shutdown)),
    ),
    counter(
        "faircap_serve_timeouts_total",
        "requests.timeouts_504",
        "Solves that exceeded the per-request timeout (504)",
        Num(|s| count(&s.metrics.timeouts)),
    ),
    gauge(
        "faircap_serve_max_concurrent_solves",
        "admission.max_concurrent_solves",
        "Configured solve worker count",
        Num(|s| s.solve_pool.workers() as f64),
    ),
    gauge(
        "faircap_serve_solve_queue_limit",
        "admission.solve_queue_limit",
        "Configured bound on admitted-but-not-started solves",
        Num(|s| s.solve_pool.queue_cap() as f64),
    ),
    gauge(
        "faircap_serve_queue_depth",
        "admission.queue_depth",
        "Admitted solves waiting for a pool worker",
        Num(|s| s.solve_pool.queue_depth() as f64),
    ),
    gauge(
        "faircap_serve_queue_depth_max",
        "admission.max_queue_depth",
        "High-water mark of the solve queue",
        Num(|s| s.solve_pool.max_queue_depth() as f64),
    ),
    gauge(
        "faircap_serve_in_flight",
        "admission.in_flight",
        "Solves currently running on the pool",
        Num(|s| s.solve_pool.in_flight() as f64),
    ),
    gauge(
        "faircap_serve_solve_timeout_seconds",
        "admission.solve_timeout_ms",
        "Configured per-request solve timeout (exceeding it answers 504)",
        Num(|s| s.config.solve_timeout.as_secs_f64()),
    ),
    gauge(
        "faircap_serve_coalesce_in_flight",
        "admission.coalesce_in_flight",
        "Coalesce groups currently in flight",
        Num(|s| s.coalescer.in_flight() as f64),
    ),
    gauge(
        "faircap_serve_connections_open",
        "connections.open",
        "Currently open connections",
        Num(|s| s.gauges.open() as f64),
    ),
    counter(
        "faircap_serve_connections_accepted_total",
        "connections.accepted",
        "Connections accepted from the listener",
        Num(|s| count(&s.gauges.accepted)),
    ),
    counter(
        "faircap_serve_connections_closed_total",
        "connections.closed",
        "Connections fully closed by the reactor",
        Num(|s| count(&s.gauges.closed)),
    ),
    counter(
        "faircap_serve_connections_rejected_over_capacity_total",
        "connections.rejected_over_capacity",
        "Connections answered 503 over the open-connection cap",
        Num(|s| count(&s.gauges.rejected_over_capacity)),
    ),
    gauge(
        "faircap_serve_max_connections",
        "connections.max_connections",
        "Configured open-connection cap",
        Num(|s| s.config.max_connections as f64),
    ),
    gauge(
        "faircap_serve_idle_timeout_seconds",
        "connections.idle_timeout_ms",
        "Configured keep-alive idle timeout before an idle connection is closed",
        Num(|s| s.config.idle_timeout.as_secs_f64()),
    ),
    histogram(
        "faircap_serve_solve_latency_us",
        "solve_latency",
        "End-to-end solve latency, admission to delivery",
        Hist(|s| s.metrics.solve_latency.snapshot_us()),
    ),
    histogram(
        "faircap_serve_queue_wait_us",
        "queue_wait",
        "Time admitted solves spent queued before a worker picked them up",
        Hist(|s| s.metrics.queue_wait.snapshot_us()),
    ),
    histogram(
        "faircap_serve_request_latency_us",
        "request_latency",
        "Reactor dispatch latency per keep-alive request",
        Hist(|s| s.metrics.request_latency.snapshot_us()),
    ),
    histogram(
        "faircap_serve_reactor_read_us",
        "reactor_read",
        "Reactor read-side servicing per readable connection",
        Hist(|s| s.metrics.reactor_read.snapshot_us()),
    ),
    histogram(
        "faircap_serve_reactor_write_us",
        "reactor_write",
        "Reactor write-side flushes of queued response bytes",
        Hist(|s| s.metrics.reactor_write.snapshot_us()),
    ),
];

/// Per-session rows: one `/v1/sessions` object per session, and families
/// labelled `session="<name>"`.
static SESSION: &[Metric<RegisteredSession>] = &[
    info("name", |e| Json::Str(e.name().into())),
    gauge(
        "faircap_session_rows",
        "rows",
        "Rows in the session's dataframe",
        Num(|e| e.session().df().n_rows() as f64),
    ),
    info("outcome", |e| Json::Str(e.session().outcome().into())),
    counter(
        "faircap_session_solves_ok_total",
        "solves_ok",
        "Completed underlying solves on the session",
        Num(|e| e.solves_ok() as f64),
    ),
    counter(
        "faircap_session_solves_err_total",
        "solves_err",
        "Failed solves on the session",
        Num(|e| e.solves_err() as f64),
    ),
    counter(
        "faircap_session_solves_coalesced_total",
        "solves_coalesced",
        "Requests served by attaching to an in-flight solve",
        Num(|e| e.solves_coalesced() as f64),
    ),
    // Warm-boot provenance: `null` on a cold boot; on Prometheus the
    // restore gauge below is absent instead.
    info("warm_boot", |e| match e.warm_boot() {
        Some(w) => Json::Obj(vec![("snapshot_path".into(), Json::Str(w.snapshot_path))]),
        None => Json::Null,
    }),
    gauge(
        "faircap_session_warm_boot_restore_ms",
        "warm_boot.restore_ms",
        "Milliseconds spent restoring the session's snapshot at warm boot",
        Each("snapshot", |e| {
            let warm = e.warm_boot().into_iter();
            warm.map(|w| (w.snapshot_path, String::new(), Value::Num(w.restore_ms)))
                .collect()
        }),
    ),
    // Present (empty) before any estimator has run; the
    // `cache="estimate/<estimator>"` samples below fill it.
    info("estimate_cache_by_estimator", |_| Json::Obj(Vec::new())),
    counter(
        "faircap_session_cache_hits_total",
        "{}.hits",
        "Session cache hits by cache (estimate, grouping, intervention, match_index, cell_table, group_rows, estimate/<estimator>)",
        Each("cache", |e| caches(e, |c| c.hits)),
    ),
    counter(
        "faircap_session_cache_misses_total",
        "{}.misses",
        "Session cache misses by cache",
        Each("cache", |e| caches(e, |c| c.misses)),
    ),
    gauge(
        "faircap_session_cache_entries",
        "{}.entries",
        "Live session cache entries by cache",
        Each("cache", |e| caches(e, |c| c.entries as u64)),
    ),
    counter(
        "faircap_session_cache_evictions_total",
        "{}.evictions",
        "Session cache evictions by cache",
        Each("cache", |e| caches(e, |c| c.evictions)),
    ),
    counter(
        "faircap_session_solve_step_ns_total",
        "solve_stats.{}_ms",
        "Cumulative per-step solve time (step: mine, intervene, select)",
        Each("step", |e| {
            let (t, _) = e.solve_totals();
            let ns = |d: Duration| d.as_nanos() as u64;
            by_label([
                ("mine", ns(t.grouping)),
                ("intervene", ns(t.intervention)),
                ("select", ns(t.greedy)),
            ])
        }),
    ),
    counter(
        "faircap_session_solve_work_total",
        "solve_stats.{}",
        "Solve-path work items (kind: solves, candidates, pruned, evaluated, greedy_evaluations, greedy_reevaluations)",
        Each("kind", |e| {
            let (_, s) = e.solve_totals();
            let mut mining = s.grouping;
            mining.merge(&s.lattice);
            by_label([
                ("solves", e.solves_ok()),
                ("candidates", mining.candidates),
                ("pruned", mining.pruned()),
                ("evaluated", mining.evaluated),
                ("greedy_evaluations", s.greedy.evaluations),
                ("greedy_reevaluations", s.greedy.reevaluations),
            ])
        }),
    ),
    counter(
        "faircap_session_estimate_work_total",
        "estimate_timing.{}",
        "Estimator work items (kind: estimates, tree_visits)",
        Each("kind", |e| {
            let (estimates, hot) = e.session().engine().hot_stats();
            by_label([
                ("estimates", estimates),
                ("tree_visits", hot.tree_visits),
            ])
        }),
    ),
    counter(
        "faircap_session_estimate_stage_ns_total",
        "estimate_timing.{}_ms",
        "Cumulative estimator hot-path time (stage: build, index, solve)",
        Each("stage", |e| {
            let (_, hot) = e.session().engine().hot_stats();
            by_label([
                ("build", hot.build_ns),
                ("index", hot.index_ns),
                ("solve", hot.solve_ns),
            ])
        }),
    ),
    histogram(
        "faircap_estimator_estimate_duration_ns",
        "estimate_duration.{}",
        "Per-estimate wall time by estimator (cache misses only)",
        Each("estimator", |e| {
            let hists = e.session().engine().estimate_histograms().into_iter();
            hists.map(|(est, snap)| (est.clone(), est, Value::Hist(snap))).collect()
        }),
    ),
    info("exec", |e| {
        let exec = e.last_exec();
        exec.map_or(Json::Null, |x| exec_stats_to_json(&x))
    }),
];

fn count(counter: &AtomicU64) -> f64 {
    ServerMetrics::read(counter) as f64
}

/// Samples whose JSON key is their label value.
fn by_label<const N: usize>(pairs: [(&str, u64); N]) -> Vec<Sample> {
    let samples = pairs.into_iter();
    samples
        .map(|(label, v)| (label.into(), label.into(), Value::Num(v as f64)))
        .collect()
}

/// One counter of every session cache: labelled `cache="<name>"` and keyed
/// `<name>_cache` on JSON. The estimate cache also splits per estimator as
/// `cache="estimate/<estimator>"`, keyed under `estimate_cache_by_estimator`
/// (a separate row, not double-counted into `cache="estimate"`).
fn caches(e: &RegisteredSession, pick: fn(&CacheCounters) -> u64) -> Vec<Sample> {
    let s = e.session();
    let mut caches = vec![("estimate".to_owned(), s.cache_stats())];
    for (est, c) in s.cache_stats_by_estimator() {
        caches.push((format!("estimate/{est}"), c));
    }
    caches.push(("grouping".into(), s.grouping_cache_stats()));
    caches.push(("intervention".into(), s.intervention_cache_stats()));
    caches.push(("match_index".into(), s.engine().match_index_cache_stats()));
    caches.push(("cell_table".into(), s.engine().cell_table_cache_stats()));
    caches.push(("group_rows".into(), s.engine().group_rows_cache_stats()));
    let samples = caches.into_iter().map(|(label, c)| {
        let key = match label.strip_prefix("estimate/") {
            Some(est) => format!("estimate_cache_by_estimator.{est}"),
            None => format!("{label}_cache"),
        };
        (label, key, Value::Num(pick(&c) as f64))
    });
    samples.collect()
}

/// `v`, in the time unit that ends the metric `name` (`_seconds`, `_ms`,
/// `_us` or `_ns`, ahead of any `_total`), in milliseconds; unchanged for
/// a unitless name.
fn to_ms(name: &str, v: f64) -> f64 {
    match name.trim_end_matches("_total").rsplit('_').next() {
        Some("seconds") => v * 1e3,
        Some("us") => v / 1e3,
        Some("ns") => v / 1e6,
        _ => v,
    }
}

impl<C> Metric<C> {
    /// The row's readings over `scope` as `(label, JSON key, value)`.
    fn samples(&self, scope: &C) -> Vec<(Label, String, Value)> {
        let one = |value| vec![(None, String::new(), value)];
        match self.read {
            Num(read) => one(Value::Num(read(scope))),
            Hist(read) => one(Value::Hist(read(scope))),
            Info(label, read) => {
                let json = read(scope);
                let label = json.as_str().map(|v| (label, v.to_owned()));
                vec![(label, String::new(), Value::Json(json))]
            }
            Each(label, read) => {
                let samples = read(scope).into_iter();
                samples
                    .map(|(v, key, value)| (Some((label, v)), key, value))
                    .collect()
            }
        }
    }

    fn put_json(&self, doc: &mut Vec<(String, Json)>, scope: &C) {
        let name = self.prom.unwrap_or_default();
        for (_, key, value) in self.samples(scope) {
            for path in self.json.split(',') {
                let path = path.replace("{}", &key);
                let json = match &value {
                    Value::Num(v) if path.ends_with("_ms") => Json::Num(to_ms(name, *v)),
                    Value::Num(v) => Json::Num(*v),
                    Value::Hist(snap) => match snap.summary_ms(|v| to_ms(name, v as f64)) {
                        Some(s) => Json::Obj(vec![
                            ("count".into(), Json::Num(s.count as f64)),
                            ("p50_ms".into(), Json::Num(s.p50_ms)),
                            ("p90_ms".into(), Json::Num(s.p90_ms)),
                            ("p99_ms".into(), Json::Num(s.p99_ms)),
                            ("max_ms".into(), Json::Num(s.max_ms)),
                        ]),
                        None => Json::Null,
                    },
                    Value::Json(json) => json.clone(),
                };
                insert(doc, &path, json);
            }
        }
    }

    /// One family over `scopes` (`(session name, scope)` pairs); declared
    /// only once it has a sample, since a histogram family without bucket
    /// series is invalid.
    fn put_prom(&self, pt: &mut PromText, scopes: &[(Option<&str>, &C)]) {
        let Some(name) = self.prom else {
            return;
        };
        let mut declared = false;
        for (session, scope) in scopes {
            for (label, _, value) in self.samples(scope) {
                if !declared {
                    let kind = match self.kind {
                        Kind::Counter => "counter",
                        Kind::Gauge => "gauge",
                        Kind::Histogram => "histogram",
                    };
                    pt.family(name, kind, self.help);
                    declared = true;
                }
                let session = session.map(|s| ("session", s));
                let label = label.as_ref().map(|(k, v)| (*k, v.as_str()));
                let labels: Vec<_> = session.into_iter().chain(label).collect();
                match &value {
                    Value::Num(v) => pt.sample(name, &labels, *v),
                    Value::Hist(snap) => pt.histogram(name, &labels, snap),
                    Value::Json(_) => pt.sample(name, &labels, 1.0),
                }
            }
        }
    }
}

/// Set the dot-separated `path` in `doc` to `value`, creating (or
/// replacing `null` with) objects on the way.
fn insert(doc: &mut Vec<(String, Json)>, path: &str, value: Json) {
    let (head, rest) = match path.split_once('.') {
        Some((head, rest)) => (head, Some(rest)),
        None => (path, None),
    };
    let slot = match doc.iter().position(|(k, _)| k == head) {
        Some(i) => &mut doc[i].1,
        None => {
            doc.push((head.to_owned(), Json::Null));
            &mut doc.last_mut().expect("just pushed").1
        }
    };
    match rest {
        None => *slot = value,
        Some(rest) => {
            if !matches!(slot, Json::Obj(_)) {
                *slot = Json::Obj(Vec::new());
            }
            if let Json::Obj(fields) = slot {
                insert(fields, rest, value);
            }
        }
    }
}

/// One session's object, as listed by `/v1/sessions` and nested under
/// `sessions.<name>` in `/v1/metrics`.
fn session_json(entry: &RegisteredSession) -> Json {
    let mut doc = Vec::new();
    for row in SESSION {
        row.put_json(&mut doc, entry);
    }
    Json::Obj(doc)
}

/// `GET /v1/metrics`: every server row, then each session under
/// `sessions.<name>`.
pub(crate) fn metrics_json(inner: &Inner) -> Json {
    let mut doc = Vec::new();
    for row in SERVER {
        row.put_json(&mut doc, inner);
    }
    let sessions = inner.registry.entries();
    let sessions = sessions
        .iter()
        .map(|e| (e.name().to_owned(), session_json(e)));
    doc.push(("sessions".into(), Json::Obj(sessions.collect())));
    Json::Obj(doc)
}

/// `GET /v1/sessions`: the session objects as an array.
pub(crate) fn sessions_json(inner: &Inner) -> Json {
    let sessions = inner
        .registry
        .entries()
        .iter()
        .map(|e| session_json(e))
        .collect();
    Json::Obj(vec![("sessions".into(), Json::Arr(sessions))])
}

/// `GET /metrics`: every row with a Prometheus name as one family in text
/// format 0.0.4, session rows labelled `session="<name>"`.
pub(crate) fn prometheus_text(inner: &Inner) -> String {
    let mut pt = PromText::new();
    for row in SERVER {
        row.put_prom(&mut pt, &[(None, inner)]);
    }
    let entries = inner.registry.entries();
    let sessions: Vec<_> = entries.iter().map(|e| (Some(e.name()), &**e)).collect();
    for row in SESSION {
        row.put_prom(&mut pt, &sessions);
    }
    pt.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use faircap_obs::RELATIVE_ERROR_BOUND;

    #[test]
    fn percentiles_over_known_samples() {
        let rec = LatencyRecorder::default();
        assert!(rec.summary_ms().is_none());
        for ms in 1..=100u64 {
            rec.record(Duration::from_millis(ms));
        }
        let (p50, p90, p99, max) = rec.summary_ms().unwrap();
        // Log-bucketed percentiles: ≥ the exact sample, within the bound.
        for (got, exact) in [(p50, 50.0), (p90, 90.0), (p99, 99.0)] {
            assert!(got >= exact, "{got} < exact {exact}");
            assert!(
                got <= exact * (1.0 + RELATIVE_ERROR_BOUND),
                "{got} exceeds the error bound over exact {exact}"
            );
        }
        assert_eq!(max, 100.0, "max is exact");
        assert_eq!(rec.count(), 100);
    }

    #[test]
    fn nothing_is_evicted() {
        let rec = LatencyRecorder::default();
        for _ in 0..10_000 {
            rec.record(Duration::from_millis(5));
        }
        rec.record(Duration::from_millis(500));
        assert_eq!(rec.count(), 10_001);
        let (p50, _, _, max) = rec.summary_ms().unwrap();
        assert!(p50 <= 5.0 * (1.0 + RELATIVE_ERROR_BOUND));
        assert_eq!(max, 500.0, "the one slow sample survives any volume");
        assert_eq!(rec.snapshot_us().count, 10_001);
    }
}
