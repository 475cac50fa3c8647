//! Serving latency/throughput benchmark: the perf trajectory of the
//! `faircap-serve` front end, recorded machine-readably.
//!
//! Boots an in-process server over the German-credit session, warms the
//! caches with one solve, then drives three closed-loop phases:
//!
//! 1. **per_conn** — one fresh connection per request (the v1
//!    thread-per-connection client model), the historical baseline;
//! 2. **keepalive** — the same workload over persistent keep-alive
//!    connections, one per client thread (the acceptance number: ≥5× the
//!    v1 ~18 req/s);
//! 3. **coalesce** — a duplicate-heavy mix (16 clients sharing 4 distinct
//!    request bodies) where in-flight coalescing folds identical solves;
//!    the phase entry records the observed coalesce hits.
//!
//! Results go to stdout *and* to `BENCH_serve.json` (CWD, or the
//! directory given as the first argument) so CI can archive the trend.
//! With `--gate BASELINE.json`, the keep-alive phase's throughput goes
//! through the shared gate ([`faircap_bench::enforce_gate`] with
//! [`faircap_bench::SERVE_GATE`]): the run exits 1 when it falls more than
//! 20% below the committed baseline's.
//!
//! ```sh
//! cargo run --release -p faircap-bench --bin serve_bench [-- OUT_DIR] [--gate BASELINE.json]
//! ```

use faircap_bench::{enforce_gate, json_obj, session_of, write_json, BenchArgs, SERVE_GATE};
use faircap_core::{Json, SessionRegistry};
use faircap_serve::{ServeClient, ServeConfig, Server};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Client threads in the per_conn and keepalive phases.
const CONCURRENCY: usize = 8;
/// Requests per client thread in the per_conn and keepalive phases.
const REQUESTS_PER_CLIENT: usize = 25;
/// Client threads in the duplicate-heavy coalescing phase.
const COALESCE_CLIENTS: usize = 16;
/// Requests per client thread in the coalescing phase.
const COALESCE_REQUESTS: usize = 25;
/// Distinct request bodies shared across the coalescing phase's clients.
const COALESCE_DISTINCT: usize = 4;
/// Data seed for the benchmark dataset, recorded in every result entry.
const SEED: u64 = 42;

struct PhaseResult {
    phase: &'static str,
    clients: usize,
    completed: usize,
    wall: Duration,
    throughput: f64,
    mean: f64,
    p50: f64,
    p90: f64,
    p99: f64,
    max: f64,
    coalesce_hits: Option<u64>,
}

impl PhaseResult {
    fn to_json(&self) -> Json {
        let num = Json::Num;
        let fields = [
            ("phase", Json::Str(self.phase.into())),
            ("concurrency", num(self.clients as f64)),
            ("requests", num(self.completed as f64)),
            ("wall_s", num(self.wall.as_secs_f64())),
            ("throughput_rps", num(self.throughput)),
            ("mean_ms", num(self.mean)),
            ("p50_ms", num(self.p50)),
            ("p90_ms", num(self.p90)),
            ("p99_ms", num(self.p99)),
            ("max_ms", num(self.max)),
        ];
        let hits = self.coalesce_hits.map(|h| ("coalesce_hits", num(h as f64)));
        json_obj(fields.into_iter().chain(hits))
    }
}

/// Drive one closed-loop phase: `clients` threads × `requests` solves
/// each, body chosen per (client, request). `keepalive` reuses one
/// connection per client; otherwise every request opens a fresh one.
fn run_phase(
    phase: &'static str,
    client: &ServeClient,
    clients: usize,
    requests: usize,
    keepalive: bool,
    body_of: impl Fn(usize, usize) -> String + Sync,
) -> PhaseResult {
    let started = Instant::now();
    let latencies_ms: Vec<f64> = std::thread::scope(|scope| {
        let body_of = &body_of;
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let client = client.clone();
                scope.spawn(move || {
                    let mut conn = if keepalive {
                        Some(client.connect().expect("keep-alive connect"))
                    } else {
                        None
                    };
                    let mut local = Vec::with_capacity(requests);
                    let mut rejected = 0u64;
                    for r in 0..requests {
                        let body = body_of(c, r);
                        let t0 = Instant::now();
                        let response = match &mut conn {
                            Some(conn) => conn
                                .request("POST", "/v1/solve", Some(&body))
                                .expect("bench request"),
                            None => client.post_json("/v1/solve", &body).expect("bench request"),
                        };
                        match response.status {
                            200 => local.push(t0.elapsed().as_secs_f64() * 1e3),
                            429 => rejected += 1,
                            other => panic!("unexpected status {other}: {}", response.body),
                        }
                    }
                    (local, rejected)
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| {
                let (local, rejected) = h.join().expect("bench client thread");
                assert_eq!(rejected, 0, "sized queue must admit the bench load");
                local
            })
            .collect()
    });
    let wall = started.elapsed();
    let completed = latencies_ms.len();
    // Percentiles share the serve layer's log-bucketed histogram
    // semantics (`faircap_obs::summarize_ms`), so BENCH_serve rows agree
    // with `/v1/metrics` and `/metrics` on the same run.
    let summary = faircap_obs::summarize_ms(&latencies_ms).expect("non-empty phase");
    let result = PhaseResult {
        phase,
        clients,
        completed,
        wall,
        throughput: completed as f64 / wall.as_secs_f64(),
        mean: summary.mean_ms,
        p50: summary.p50_ms,
        p90: summary.p90_ms,
        p99: summary.p99_ms,
        max: summary.max_ms,
        coalesce_hits: None,
    };
    println!(
        "serve_bench[{phase}]: {completed} solves in {:.2?} → {:.1} req/s \
         (p50 {:.2} ms, p90 {:.2} ms, p99 {:.2} ms, max {:.2} ms)",
        result.wall, result.throughput, result.p50, result.p90, result.p99, result.max
    );
    result
}

/// Read `requests.coalesce_hits` off `/v1/metrics`.
fn coalesce_hits(client: &ServeClient) -> u64 {
    let metrics = client.get("/v1/metrics").expect("metrics request");
    let doc = Json::parse(&metrics.body).expect("metrics JSON");
    match doc.get("requests").and_then(|r| r.get("coalesce_hits")) {
        Some(Json::Num(n)) => *n as u64,
        _ => 0,
    }
}

fn main() {
    let args = BenchArgs::from_env("serve_bench", &[]);

    let ds = faircap_data::german::generate(faircap_data::german::GERMAN_DEFAULT_ROWS, SEED);
    let rows = ds.df.n_rows();
    let session = session_of(&ds).expect("german dataset is well-formed");
    let registry = Arc::new(SessionRegistry::new());
    registry.register("german", session);

    let server = Server::start(
        ServeConfig {
            max_concurrent_solves: CONCURRENCY,
            solve_queue_depth: COALESCE_CLIENTS * 4,
            ..ServeConfig::default()
        },
        registry,
    )
    .expect("binding an ephemeral port");
    let client = server.client();
    client
        .wait_ready(Duration::from_secs(30))
        .expect("server boots");

    // Warm-up: the first solve pays full estimation; the measured phases
    // are the serving steady state (cache-hit solves), which is what a
    // production front end actually serves per request.
    let warm = client
        .post_json("/v1/solve", r#"{"max_rules": 5}"#)
        .expect("warm-up request");
    assert_eq!(warm.status, 200, "warm-up failed: {}", warm.body);
    println!("serve_bench: german ({rows} rows) warmed");

    let warm_body = |_c: usize, _r: usize| r#"{"max_rules": 5}"#.to_owned();
    let per_conn = run_phase(
        "per_conn",
        &client,
        CONCURRENCY,
        REQUESTS_PER_CLIENT,
        false,
        warm_body,
    );
    let keepalive = run_phase(
        "keepalive",
        &client,
        CONCURRENCY,
        REQUESTS_PER_CLIENT,
        true,
        warm_body,
    );

    // Duplicate-heavy mix: 16 clients share 4 distinct bodies, so at any
    // instant ~4 clients race on each body and coalescing folds them.
    let hits_before = coalesce_hits(&client);
    let mut coalesce = run_phase(
        "coalesce",
        &client,
        COALESCE_CLIENTS,
        COALESCE_REQUESTS,
        true,
        |c: usize, _r: usize| format!(r#"{{"max_rules": {}}}"#, 3 + (c % COALESCE_DISTINCT)),
    );
    coalesce.coalesce_hits = Some(coalesce_hits(&client).saturating_sub(hits_before));
    println!(
        "serve_bench[coalesce]: {} requests folded into running solves",
        coalesce.coalesce_hits.unwrap_or(0)
    );

    let num = Json::Num;
    let doc = json_obj([
        ("benchmark", Json::Str("serve".into())),
        ("dataset", Json::Str("german".into())),
        ("rows", num(rows as f64)),
        ("seed", num(SEED as f64)),
        ("warm", Json::Bool(true)),
        // Schema note: percentiles are log-bucketed-histogram quantiles
        // shared with the serve layer, not exact sorted-sample ranks as in
        // pre-observability rows.
        (
            "quantile_method",
            Json::Str(faircap_obs::QUANTILE_METHOD.into()),
        ),
        (
            "phases",
            Json::Arr(vec![
                per_conn.to_json(),
                keepalive.to_json(),
                coalesce.to_json(),
            ]),
        ),
    ]);
    write_json("serve_bench", &args.out_dir, "BENCH_serve.json", &doc);
    server.shutdown();

    if let Some(gate_path) = &args.gate {
        let measured = [(vec![keepalive.phase.to_owned()], keepalive.throughput)];
        enforce_gate("serve_bench", &SERVE_GATE, gate_path, &measured);
    }
}
