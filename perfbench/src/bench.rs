//! One benchmark run: set-up reps with cold solves, the in-process warm
//! sweep, the HTTP open and closed loops and, when traced, the step
//! replays that attribute time to layers.

use crate::replay::{self, Evaluations};
use crate::serve_load::{self, LoadResult};
use crate::stats::{median, quantile, reportable_percentile};
use crate::trace::{self, SpanRecord, TimingEstimator, Tracer};
use crate::workload::{self, Inputs, Passes, Rng, Workload};
use faircap_causal::{Dag, EstimatorKind};
use faircap_core::algorithm::greedy::GreedyOutcome;
use faircap_core::{
    solution_report_to_json, solve_request_from_json, FairCap, Json, PrescriptionSession,
    RegisteredSession, Rule, RulesetUtility, SessionRegistry, SolutionReport, SolveRequest,
};
use faircap_serve::{ServeConfig, Server};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything a run reports.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Human-readable log lines, printed before the JSON result.
    pub log: Vec<String>,
}

/// Operation counters plus the first few failure messages.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Tally {
    fn ok(&mut self) {
        self.attempted += 1;
    }

    fn fail(&mut self, msg: String) {
        self.attempted += 1;
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(msg);
        }
    }

    /// A check on an operation already counted as attempted failed.
    fn check_failed(&mut self, msg: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(msg);
        }
    }

    fn absorb(&mut self, what: &str, load: &LoadResult) {
        self.attempted += load.attempted;
        self.failed += load.failed();
        for e in &load.errors {
            if self.errors.len() < 8 {
                self.errors.push(format!("{what}: {e}"));
            }
        }
    }
}

/// The bit-level identity of a ruleset: every rule with its benefit's f64
/// bits, the summary (f64 `Debug` is exact) and the constraint verdict.
fn canonical(rules: &[Rule], summary: &RulesetUtility, constraints_met: bool) -> String {
    let mut s = String::new();
    for r in rules {
        let _ = writeln!(s, "{r}|{:016x}", r.benefit.to_bits());
    }
    let _ = write!(s, "{summary:?}|{constraints_met}");
    s
}

fn canonical_report(report: &SolutionReport) -> String {
    canonical(&report.rules, &report.summary, report.constraints_met)
}

fn canonical_outcome(outcome: &GreedyOutcome) -> String {
    canonical(&outcome.selected, &outcome.summary, outcome.constraints_met)
}

/// FNV-1a 64 of a canonical ruleset, for logs and cross-run checks.
fn digest(canonical: &str) -> u64 {
    canonical.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn request_of(body: &str) -> Result<SolveRequest, String> {
    let json = Json::parse(body).map_err(|e| format!("request body `{body}`: {e}"))?;
    solve_request_from_json(&json).map_err(|e| format!("request body `{body}`: {e}"))
}

/// Time `f`, under a span when tracing.
fn timed<T>(
    tracer: Option<&Tracer>,
    name: &'static str,
    op: u64,
    f: impl FnOnce() -> T,
) -> (T, f64) {
    let _span = tracer.map(|t| t.span(name, op));
    let t0 = Instant::now();
    let value = f();
    (value, t0.elapsed().as_secs_f64())
}

/// Set-up timings of one rep, seconds.
struct Setup {
    csv: f64,
    build: f64,
    total: f64,
}

/// A session behind a running server.
struct Served {
    server: Server,
    entry: Arc<RegisteredSession>,
}

/// What the set-up reps measured.
#[derive(Default)]
struct Reps {
    setups: Vec<Setup>,
    /// Cold solves: seconds, canonical ruleset, report.
    colds: Vec<(f64, String, SolutionReport)>,
    loaded_fps: Vec<u64>,
    /// Match-index cache (hits, lookups) after the latest cold solve.
    match_index: (u64, u64),
}

impl Reps {
    /// One timed set-up rep.
    fn setup(
        &mut self,
        inputs: &Inputs,
        pool: usize,
        tracer: Option<&Tracer>,
        op: u64,
    ) -> Result<Served, String> {
        let (served, setup, loaded_fp) = setup_once(inputs, pool, tracer, op)?;
        self.setups.push(setup);
        self.loaded_fps.push(loaded_fp);
        Ok(served)
    }

    /// One cold rep: set up a fresh session and time `request` as its
    /// first solve.
    fn cold(
        &mut self,
        inputs: &Inputs,
        pool: usize,
        request: &SolveRequest,
        tracer: Option<&Tracer>,
        op: u64,
        tally: &mut Tally,
    ) -> Result<Served, String> {
        let (served, _, loaded_fp) = setup_once(inputs, pool, tracer, op)?;
        self.loaded_fps.push(loaded_fp);
        let (result, secs) = timed(tracer, "cold_solve", op, || served.entry.solve(request));
        match result {
            Ok(report) => {
                tally.ok();
                self.colds.push((secs, canonical_report(&report), report));
                let stats = served.entry.session().engine().match_index_cache_stats();
                self.match_index = (stats.hits, stats.hits + stats.misses);
            }
            Err(e) => tally.fail(format!("cold solve: {e}")),
        }
        Ok(served)
    }
}

fn build_session(
    inputs: &Inputs,
    df: faircap_table::DataFrame,
    dag: Dag,
) -> Result<PrescriptionSession, String> {
    FairCap::builder()
        .data(df)
        .dag(dag)
        .outcome(&inputs.outcome)
        .immutable(inputs.immutable.iter().cloned())
        .mutable(inputs.mutable.iter().cloned())
        .protected(inputs.protected.clone())
        .build()
        .map_err(|e| format!("session build: {e}"))
}

/// Load the CSV + DAG files and build a session, timing the load and the
/// build.
fn load_session(
    inputs: &Inputs,
    tracer: Option<&Tracer>,
    op: u64,
) -> Result<(PrescriptionSession, f64, f64), String> {
    let (df, csv) = timed(tracer, "csv_load", op, || {
        faircap_table::csv::read_csv(&inputs.csv)
    });
    let df = df.map_err(|e| format!("{}: {e}", inputs.csv.display()))?;
    let dag = std::fs::read_to_string(&inputs.dag)
        .map_err(|e| format!("{}: {e}", inputs.dag.display()))
        .and_then(|text| Dag::parse_edge_list(&text).map_err(|e| format!("DAG: {e}")))?;
    let (session, build) = timed(tracer, "session_build", op, || {
        build_session(inputs, df, dag)
    });
    Ok((session?, csv, build))
}

/// One set-up rep: load + build + server boot until `/healthz` answers.
/// Also returns the fingerprint of the loaded frame, taken after the
/// clock stops.
fn setup_once(
    inputs: &Inputs,
    pool: usize,
    tracer: Option<&Tracer>,
    op: u64,
) -> Result<(Served, Setup, u64), String> {
    let span = tracer.map(|t| t.span("setup", op));
    let t0 = Instant::now();
    let (session, csv, build) = load_session(inputs, tracer, op)?;
    let registry = Arc::new(SessionRegistry::new());
    let entry = registry
        .register("bench", session)
        .ok_or("session name registered twice")?;
    let (server, _) = timed(tracer, "server_boot", op, || -> Result<Server, String> {
        let server = Server::start(
            ServeConfig {
                max_concurrent_solves: pool,
                solve_queue_depth: 1024,
                ..ServeConfig::default()
            },
            registry,
        )
        .map_err(|e| format!("server boot: {e}"))?;
        server
            .client()
            .wait_ready(Duration::from_secs(30))
            .map_err(|e| format!("server boot: {e}"))?;
        Ok(server)
    });
    let server = server?;
    let setup = Setup {
        csv,
        build,
        total: t0.elapsed().as_secs_f64(),
    };
    drop(span);
    let fingerprint = faircap_scenario::frame_fingerprint(entry.session().df());
    Ok((Served { server, entry }, setup, fingerprint))
}

/// What the in-process sweep recorded, per variant.
struct Sweep {
    /// Cached re-solve times, ms.
    warm_ms: Vec<Vec<f64>>,
    /// Uncached (rewalk) solve times, ms.
    rewalk_ms: Vec<Vec<f64>>,
    /// Every answer: variant, cached?, canonical ruleset.
    results: Vec<(usize, bool, String)>,
    /// The first cached report of each variant.
    reports: Vec<Option<SolutionReport>>,
}

impl Sweep {
    fn new(variants: usize) -> Sweep {
        Sweep {
            warm_ms: vec![Vec::new(); variants],
            rewalk_ms: vec![Vec::new(); variants],
            results: Vec::new(),
            reports: vec![None; variants],
        }
    }

    /// Time one solve of variant `v` and record its answer.
    fn solve(
        &mut self,
        entry: &RegisteredSession,
        request: &SolveRequest,
        v: usize,
        rewalk: bool,
        label: &str,
        tally: &mut Tally,
    ) {
        let t0 = Instant::now();
        let result = entry.solve(request);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        match result {
            Ok(report) => {
                tally.ok();
                let samples = if rewalk {
                    &mut self.rewalk_ms
                } else {
                    &mut self.warm_ms
                };
                samples[v].push(ms);
                self.results.push((v, !rewalk, canonical_report(&report)));
                if !rewalk && self.reports[v].is_none() {
                    self.reports[v] = Some(report);
                }
            }
            Err(e) => tally.fail(format!("{label}: {e}")),
        }
    }
}

/// The mean over variants of each variant's median time: the cost of the
/// request mix with every variant weighted once. A median over the pooled
/// samples jumps between the variants' price clusters as the seeded data
/// shifts them.
fn mean_of_medians(per_variant: &[Vec<f64>]) -> f64 {
    per_variant.iter().map(|s| median(s)).sum::<f64>() / per_variant.len() as f64
}

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// `VmHWM` of this process, MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

/// Read a number off `GET /v1/metrics`.
fn server_metric(served: &Served, path: &str) -> f64 {
    served
        .server
        .client()
        .get("/v1/metrics")
        .ok()
        .and_then(|r| Json::parse(&r.body).ok())
        .and_then(|doc| doc.get_path(path).and_then(Json::as_f64))
        .unwrap_or(0.0)
}

/// Compare this run's cold ruleset with the one an earlier run with the
/// same workload and seed recorded in `dir`, then record it.
fn check_across_runs(dir: &Path, name: &str, value: &str) -> Result<(), String> {
    let path = dir.join(name);
    if let Ok(previous) = std::fs::read_to_string(&path) {
        if previous != value {
            return Err(format!(
                "{name} differs from an earlier run with the same seed ({} vs {})",
                previous.trim(),
                value.trim()
            ));
        }
    }
    std::fs::write(&path, value).map_err(|e| format!("{}: {e}", path.display()))
}

fn summary_line(name: &str, values: &[f64], unit: &str) -> String {
    let reportable =
        reportable_percentile(values.len()).map_or("none".to_owned(), |p| format!("p{p}"));
    format!(
        "{name}: n={} p50={:.3}{unit} p95={:.3}{unit} p99={:.3}{unit} max={:.3}{unit} (highest percentile with ≥10 samples beyond: {reportable})",
        values.len(),
        quantile(values, 0.5),
        quantile(values, 0.95),
        quantile(values, 0.99),
        quantile(values, 1.0),
    )
}

/// Rounds a run is split into (see [`run`]).
const ROUNDS: usize = 3;

/// Cold replays of a traced run, each on a fresh session: untraced (bare
/// estimator, no spans) or traced (timing estimator, spans), in this
/// order, so drift during the run weighs on both kinds alike.
const REPLAY_ORDER: [bool; 4] = [false, true, true, false];

/// Run one workload.
pub fn run(wl: &Workload, args: &Args) -> Result<Outcome, String> {
    let tracer = args.trace.then(|| Arc::new(Tracer::default()));
    let t = tracer.as_deref();
    let dir = PathBuf::from(".bench_work").join(format!("{}-{}", wl.name, args.seed));
    let inputs = workload::prepare(wl, args.seed, &dir)?;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let connections = nproc.min(2);
    let mut tally = Tally::default();
    let mut log = vec![format!(
        "perfbench: workload {} seed {} rows {} frame_fingerprint {:#018x} nproc {nproc} connections {connections} seconds {} trace {}",
        wl.name, args.seed, inputs.rows, inputs.fingerprint, args.seconds, args.trace
    )];
    let mut next_op = 0u64;
    let mut op = || {
        next_op += 1;
        next_op
    };
    if let Err(e) = check_across_runs(
        &dir,
        "frame_fingerprint",
        &format!("{:#018x}\n", inputs.fingerprint),
    ) {
        tally.check_failed(e);
    }

    // ---- The run goes in ROUNDS rounds (one in a traced run, whose cold
    // replays add cold solves of their own). Each round has its share of
    // the timed set-up reps, then one cold solve on a fresh session, which
    // then serves the round's share of the in-process sweep and of the HTTP
    // open and closed loops (its cold solve wrote the caches they read).
    // So every figure draws on samples from the whole run rather than from
    // one stretch of it: on a shared host the speed can switch within
    // seconds. At most one session with caches is alive at a time. ----
    let cold_request = request_of(&workload::cold_body(wl))?;
    let variants = workload::sweep(wl);
    let bodies: Vec<String> = variants.iter().map(|v| v.body.clone()).collect();
    let cached: Vec<SolveRequest> = variants
        .iter()
        .map(|v| request_of(&v.body))
        .collect::<Result<_, _>>()?;
    let uncached: Vec<SolveRequest> = variants
        .iter()
        .map(|v| request_of(&v.uncached_body))
        .collect::<Result<_, _>>()?;
    for _ in 0..wl.warmup_reps {
        let (served, ..) = setup_once(&inputs, nproc, None, 0)?;
        served.server.shutdown();
    }
    let rounds = if args.trace { 1 } else { ROUNDS };
    let mut reps = Reps::default();
    let mut rng = Rng::new(args.seed);
    let mut order = Passes::new(variants.len(), Rng::new(rng.next_u64()));
    let rewalks = workload::rewalk_order(&variants, &mut rng);
    let mut sweep = Sweep::new(variants.len());
    // Hits and lookups of the estimate and intervention caches during the
    // sweeps, and HTTP requests answered by coalescing, summed over rounds.
    let (mut est, mut ic, mut coalesce_hits) = ((0, 0), (0, 0), 0.0);
    let mut queue_wait_p99 = 0.0f64;
    let mut expected: Vec<String> = Vec::new();
    let mut open = LoadResult::default();
    let mut closed = LoadResult::default();
    let closed_secs = args.seconds * wl.closed_share / rounds as f64;
    let mut per_second = Vec::new();
    let mut served: Option<Served> = None;
    let mut i = 0usize;
    for round in 0..rounds {
        if let Some(previous) = served.take() {
            previous.server.shutdown();
        }
        // This round's share of the set-up reps.
        let setups = (round + 1) * wl.setup_reps / rounds - round * wl.setup_reps / rounds;
        for _ in 0..setups {
            reps.setup(&inputs, nproc, t, op())?.server.shutdown();
        }
        let current = reps.cold(&inputs, nproc, &cold_request, t, op(), &mut tally)?;
        let session = current.entry.session();
        let (est0, ic0) = (session.cache_stats(), session.intervention_cache_stats());
        let coalesce0 = server_metric(&current, "requests.coalesce_hits");

        // In-process sweep: every 10th request uncached.
        let deadline =
            Instant::now() + Duration::from_secs_f64(args.seconds * wl.warm_share / rounds as f64);
        while Instant::now() < deadline {
            let (v, rewalk) = if i % 10 == 9 {
                (rewalks[(i / 10) % rewalks.len()], true)
            } else {
                (order.next().expect("passes are endless"), false)
            };
            let request = if rewalk { &uncached[v] } else { &cached[v] };
            sweep.solve(&current.entry, request, v, rewalk, &variants[v].label, &mut tally);
            i += 1;
        }
        if round == 0 {
            // Every variant needs both kinds of solve before the HTTP loops:
            // its uncached answer is the reference its cached answers are
            // checked against, its first cached report holds the rules its
            // HTTP answers must carry, and both figures average over all
            // variants. Variants the window missed run now.
            for v in 0..variants.len() {
                let label = &variants[v].label;
                if sweep.rewalk_ms[v].is_empty() {
                    sweep.solve(&current.entry, &uncached[v], v, true, label, &mut tally);
                }
                if sweep.warm_ms[v].is_empty() {
                    sweep.solve(&current.entry, &cached[v], v, false, label, &mut tally);
                }
            }
            expected = sweep
                .reports
                .iter()
                .map(|r| {
                    r.as_ref()
                        .and_then(|r| solution_report_to_json(r).get("rules").map(Json::render))
                        .unwrap_or_default()
                })
                .collect();
        }

        let (est1, ic1) = (session.cache_stats(), session.intervention_cache_stats());
        est.0 += est1.hits - est0.hits;
        est.1 += est1.hits + est1.misses - est0.hits - est0.misses;
        ic.0 += ic1.hits - ic0.hits;
        ic.1 += ic1.hits + ic1.misses - ic0.hits - ic0.misses;

        // HTTP: open loop, then closed loop, bodies in a per-round order.
        let addr = current.server.addr();
        let round_seed = args.seed.wrapping_add(round as u64);
        let part = serve_load::open_loop(
            addr,
            &bodies,
            &expected,
            wl.open_rate_rps,
            args.seconds * wl.open_share / rounds as f64,
            connections,
            round_seed,
        )
        .map_err(|e| format!("open loop: {e}"))?;
        open.merge(part);
        let part = serve_load::closed_loop(
            addr,
            &bodies,
            &expected,
            closed_secs,
            connections,
            round_seed,
        )
        .map_err(|e| format!("closed loop: {e}"))?;
        // Throughput as the median over whole seconds, so a burst of
        // stolen CPU costs one window rather than the whole figure.
        per_second.extend(part.per_second(closed_secs));
        closed.merge(part);
        coalesce_hits += server_metric(&current, "requests.coalesce_hits") - coalesce0;
        queue_wait_p99 = queue_wait_p99.max(server_metric(&current, "queue_wait.p99_ms"));
        served = Some(current);
    }
    tally.absorb("open loop", &open);
    tally.absorb("closed loop", &closed);
    let peak_rss = peak_rss_mb()?;
    if let Some(last) = served {
        last.server.shutdown();
    }
    let Sweep {
        warm_ms,
        rewalk_ms,
        results,
        reports,
    } = sweep;
    let mut reference: Vec<Option<String>> = vec![None; variants.len()];
    for (v, is_cached, canon) in &results {
        if !is_cached && reference[*v].is_none() {
            reference[*v] = Some(canon.clone());
        }
    }
    for (v, is_cached, canon) in &results {
        if reference[*v].as_ref() != Some(canon) {
            let kind = if *is_cached { "cached" } else { "uncached" };
            tally.check_failed(format!(
                "{}: {kind} re-solve differs from the uncached solve of the same request",
                variants[*v].label
            ));
        }
    }
    let reports: Vec<SolutionReport> = reports.into_iter().flatten().collect();
    if reports.len() != variants.len() {
        return Err(format!("sweep solves failed: {:?}", tally.errors));
    }
    let warm_all: Vec<f64> = warm_ms.concat();
    log.push(summary_line("warm_solve", &warm_all, "ms"));
    log.push(summary_line("rewalk_solve", &rewalk_ms.concat(), "ms"));

    let http_rps = median(&per_second);
    let http_latency = mean_of_medians(&open.latency_by_variant(variants.len()));
    let lag_p99 = quantile(&open.send_lag_ms, 0.99);
    log.push(summary_line("http_open_latency", &open.latency_ms, "ms"));
    log.push(summary_line("http_open_send_lag", &open.send_lag_ms, "ms"));
    log.push(format!(
        "http_closed: {} ok over {connections} connections; per second {per_second:?}; open rate {} req/s = {:.3} of this capacity",
        closed.latency_ms.len(),
        wl.open_rate_rps,
        wl.open_rate_rps / http_rps
    ));

    // The CSV round trip may retype columns, so the loaded frame has its
    // own fingerprint; it must be the same on every load.
    log.push(format!(
        "loaded frame_fingerprint {:#018x}",
        reps.loaded_fps[0]
    ));
    if reps.loaded_fps.iter().any(|fp| *fp != reps.loaded_fps[0]) {
        tally.check_failed("the same files loaded into different frames".into());
    }
    let Some((_, cold_canonical, cold_report)) = reps.colds.last().cloned() else {
        return Err(format!("every cold solve failed: {:?}", tally.errors));
    };
    for (_, canon, _) in &reps.colds {
        if *canon != cold_canonical {
            tally.check_failed("cold rulesets differ between rounds".into());
        }
    }
    if let Err(e) = check_across_runs(
        &dir,
        "cold_ruleset",
        &format!("{:#018x}\n", digest(&cold_canonical)),
    ) {
        tally.check_failed(e);
    }
    let cold_secs: Vec<f64> = reps.colds.iter().map(|c| c.0).collect();
    let setup_secs: Vec<f64> = reps.setups.iter().map(|s| s.total).collect();
    log.push(format!(
        "setup_s reps: {setup_secs:.4?}; cold_solve_s reps: {cold_secs:.4?}"
    ));
    log.push(format!(
        "cold ruleset {:#018x}: {} rules, {} groups, {} candidates",
        digest(&cold_canonical),
        cold_report.rules.len(),
        cold_report.n_grouping_patterns,
        cold_report.n_candidates
    ));

    let mut valid = true;
    if lag_p99 > wl.max_send_lag_ms {
        valid = false;
        log.push(format!(
            "INVALID: open-loop p99 send lag {lag_p99:.3} ms exceeds {} ms",
            wl.max_send_lag_ms
        ));
    }

    let mut metrics = Vec::new();
    let mut metric = |name, value, unit| metrics.push(Metric { name, value, unit });
    if let Some(tracer) = tracer.as_ref() {
        // ---- Cold replays on fresh sessions, untraced and traced. ----
        let kind = EstimatorKind::parse(&wl.estimator)
            .ok_or_else(|| format!("unknown estimator `{}`", wl.estimator))?;
        let mut bare_secs = Vec::new();
        // Per traced replay: op, seconds, its timing wrapper.
        let mut traced: Vec<(u64, f64, Arc<TimingEstimator>)> = Vec::new();
        let mut last = None;
        for traced_rep in REPLAY_ORDER {
            let (fresh, ..) = load_session(&inputs, None, 0)?;
            let replay_op = op();
            let timing = Arc::new(TimingEstimator::new(kind, Arc::clone(tracer), replay_op));
            let request = if traced_rep {
                cold_request.clone().estimator(timing.clone())
            } else {
                cold_request.clone()
            };
            let evaluations = Evaluations::default();
            let rep_tracer = if traced_rep { t } else { None };
            let t0 = Instant::now();
            let replayed = replay::replay(
                &fresh,
                &request,
                Some(&evaluations),
                rep_tracer,
                replay_op,
            );
            let secs = t0.elapsed().as_secs_f64();
            let replayed = replayed.map_err(|e| format!("cold replay: {e}"))?;
            tally.ok();
            if canonical_outcome(&replayed.outcome) != cold_canonical {
                let kind = if traced_rep { "traced" } else { "untraced" };
                tally.check_failed(format!(
                    "{kind} cold replay differs from the untraced cold solve"
                ));
            }
            if traced_rep {
                traced.push((replay_op, secs, timing));
                last = Some((fresh, evaluations, replayed));
            } else {
                bare_secs.push(secs);
            }
        }
        let (fresh, evaluations, replayed) = last.ok_or("no traced cold replay ran")?;
        let requested = fresh.cache_stats();
        let requested = requested.hits + requested.misses;

        // Replay the sweep (cached, over the cold replay's evaluations) and
        // three rewalks (uncached), each checked against the untraced solve.
        let mut replay_checked = |request: &SolveRequest,
                                  v: usize,
                                  cached: Option<&Evaluations>| {
            let op = op();
            let timing = Arc::new(TimingEstimator::new(kind, Arc::clone(tracer), op));
            let request = request.clone().estimator(timing);
            match replay::replay(&fresh, &request, cached, t, op) {
                Ok(r) => {
                    tally.ok();
                    if reference[v].as_deref() != Some(canonical_outcome(&r.outcome).as_str()) {
                        tally.check_failed(format!("{}: traced replay differs", variants[v].label));
                    }
                }
                Err(e) => tally.fail(format!("{} replay: {e}", variants[v].label)),
            }
            op
        };
        let sweep_ops: Vec<u64> = (0..cached.len())
            .map(|v| replay_checked(&cached[v], v, Some(&evaluations)))
            .collect();
        let rewalk_ops: Vec<u64> = rewalks
            .iter()
            .take(3)
            .map(|&v| replay_checked(&uncached[v], v, None))
            .collect();

        // ---- Wire codec, in process, over the sweep's bodies and reports. ----
        const CODEC_REPS: usize = 20;
        let mut decode_us = Vec::new();
        let mut encode_us = Vec::new();
        for _ in 0..CODEC_REPS {
            for body in &bodies {
                let t0 = Instant::now();
                let request = Json::parse(body)
                    .ok()
                    .and_then(|j| solve_request_from_json(&j).ok());
                decode_us.push(t0.elapsed().as_secs_f64() * 1e6);
                std::hint::black_box(request);
            }
            for report in &reports {
                let t0 = Instant::now();
                let text = solution_report_to_json(report).render();
                encode_us.push(t0.elapsed().as_secs_f64() * 1e6);
                std::hint::black_box(text);
            }
        }

        let spans = tracer.spans();
        let own = trace::self_times(&spans);
        let of = |name: &str, ops: &[u64]| -> Vec<&SpanRecord> {
            spans
                .iter()
                .filter(|s| s.name == name && ops.contains(&s.op))
                .collect()
        };
        let ms = |ns: u64| ns as f64 / 1e6;
        let per_op_ms = |name: &str, ops: &[u64]| -> Vec<f64> {
            ops.iter()
                .map(|op| ms(of(name, &[*op]).iter().map(|s| s.duration()).sum()))
                .collect()
        };
        let traced_ops: Vec<u64> = traced.iter().map(|r| r.0).collect();
        let last_op = traced_ops[traced_ops.len() - 1];
        let estimate_us: Vec<f64> = of("estimate", &traced_ops)
            .iter()
            .map(|s| s.duration() as f64 / 1e3)
            .collect();
        let evaluate_self_ms: Vec<f64> = traced_ops
            .iter()
            .map(|op| ms(of("evaluate_group", &[*op]).iter().map(|s| own[&s.id]).sum()))
            .collect();
        let traced_secs: Vec<f64> = traced.iter().map(|r| r.1).collect();
        let build_ms: Vec<f64> = traced.iter().map(|r| ms(r.2.build_ns())).collect();
        let index_ms: Vec<f64> = traced.iter().map(|r| ms(r.2.index_ns())).collect();
        let setup_csv: Vec<f64> = reps.setups.iter().map(|s| s.csv * 1e3).collect();
        let setup_build: Vec<f64> = reps.setups.iter().map(|s| s.build * 1e3).collect();
        let utilization: Vec<f64> = reps
            .colds
            .iter()
            .map(|c| c.2.exec.as_ref().map_or(0.0, |e| e.utilization()))
            .collect();
        let open_p50 = median(&open.latency_ms);
        let http_requests = open.attempted + closed.attempted;

        metric("table.csv_load_ms", median(&setup_csv), "ms");
        metric("core.session_build_ms", median(&setup_build), "ms");
        metric(
            "core.step1.ms",
            median(&per_op_ms("step1", &rewalk_ops)),
            "ms",
        );
        metric(
            "core.step2.evaluate_self_ms",
            median(&evaluate_self_ms),
            "ms",
        );
        metric(
            "core.step2.filter_ms",
            median(&per_op_ms("filter", &sweep_ops)),
            "ms",
        );
        metric(
            "core.step3.greedy_ms",
            median(&per_op_ms("step3", &sweep_ops)),
            "ms",
        );
        metric("core.intervention_cache.hit_ratio", ratio(ic.0, ic.1), "ratio");
        metric("core.exec.utilization", median(&utilization), "ratio");
        metric(
            "core.groups",
            cold_report.n_grouping_patterns as f64,
            "count",
        );
        metric("core.candidates", cold_report.n_candidates as f64, "count");
        metric(
            "core.lattice.useful_ratio",
            ratio(replayed.useful_nodes as u64, requested),
            "ratio",
        );
        metric(
            "causal.estimate.calls",
            of("estimate", &[last_op]).len() as f64,
            "count",
        );
        metric(
            "causal.estimate.ms_total",
            median(&per_op_ms("estimate", &traced_ops)),
            "ms",
        );
        metric("causal.estimate.us_p50", quantile(&estimate_us, 0.5), "us");
        metric("causal.estimate.us_p99", quantile(&estimate_us, 0.99), "us");
        metric("causal.estimate.build_ms", median(&build_ms), "ms");
        metric("causal.estimate.index_ms", median(&index_ms), "ms");
        metric("causal.estimate_cache.hit_ratio", ratio(est.0, est.1), "ratio");
        metric(
            "causal.match_index_cache.hit_ratio",
            ratio(reps.match_index.0, reps.match_index.1),
            "ratio",
        );
        metric("serve.http_latency_ms", http_latency, "ms");
        metric("serve.http_rps", http_rps, "1/s");
        metric("serve.wire_decode_us", median(&decode_us), "us");
        metric("serve.wire_encode_us", median(&encode_us), "us");
        metric("serve.overhead_ms_p50", open_p50 - median(&warm_all), "ms");
        metric("serve.queue_wait_ms_p99", queue_wait_p99, "ms");
        metric(
            "serve.coalesce_hit_ratio",
            ratio(coalesce_hits as u64, http_requests),
            "ratio",
        );
        metric(
            "serve.rejected",
            (open.rejected + closed.rejected) as f64,
            "count",
        );
        metric("http.send_lag_ms_p99", lag_p99, "ms");
        metric(
            "trace.overhead_frac",
            median(&traced_secs) / median(&bare_secs) - 1.0,
            "ratio",
        );
        log.push(format!(
            "cold replays: untraced {bare_secs:.4?} s, traced {traced_secs:.4?} s; {} spans; estimates requested {requested}",
            spans.len()
        ));
        let path = dir.join("trace.json");
        std::fs::write(&path, trace::spans_json(&spans).render())
            .map_err(|e| format!("{}: {e}", path.display()))?;
        log.push(format!("spans written to {}", path.display()));
    } else {
        metric("setup_s", median(&setup_secs), "s");
        metric("cold_solve_s", median(&cold_secs), "s");
        metric("warm_solve_ms", mean_of_medians(&warm_ms), "ms");
        metric("rewalk_solve_ms", mean_of_medians(&rewalk_ms), "ms");
        metric("peak_rss_mb", peak_rss, "MB");
        // Printed but not gated: on a small shared VM the tails, and every
        // HTTP figure (which moves with the host's scheduling far more than
        // in-process solves do), swing more between runs than any bound the
        // gate allows. A traced run reports the two HTTP figures as
        // serve.http_latency_ms and serve.http_rps.
        log.push(format!(
            "ungated: warm_solve_ms_p50 {} ms; warm_solve_ms_p95 {} ms; http_latency_ms {http_latency} ms; http_latency_ms_p50 {} ms; http_latency_ms_p99 {} ms; http_rps {http_rps} 1/s",
            median(&warm_all),
            quantile(&warm_all, 0.95),
            median(&open.latency_ms),
            quantile(&open.latency_ms, 0.99)
        ));
    }
    log.push(format!(
        "attempted {} failed {} failed_frac {}",
        tally.attempted,
        tally.failed,
        ratio(tally.failed, tally.attempted)
    ));
    for e in &tally.errors {
        log.push(format!("FAILED: {e}"));
    }
    Ok(Outcome {
        correct: valid && tally.failed == 0 && metrics.iter().all(|m| m.value.is_finite()),
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        log,
    })
}
