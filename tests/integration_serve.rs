//! Integration tests for the `faircap-serve` front end: admission control,
//! concurrency correctness, metrics, snapshot warm boot, keep-alive
//! conformance, request coalescing, and graceful drain.
//!
//! The headline acceptance criteria live here:
//!
//! * a booted server answers ≥ 8 concurrent `POST /v1/solve` requests
//!   against one shared session with rulesets **bit-identical** to direct
//!   `session.solve()` calls;
//! * `GET /v1/metrics` shows nonzero estimate-cache hits;
//! * the overload test observes at least one **429** while the bounded
//!   queue's high-water mark never exceeds its configured depth;
//! * N identical in-flight solves coalesce into **one** underlying solve
//!   with byte-identical fan-out bodies, and a waiter disconnecting
//!   mid-solve never cancels the shared computation;
//! * pipelined responses come back strictly in request order,
//!   `connection: close` is honoured, the idle reaper only closes idle
//!   connections, and graceful drain finishes every admitted pipelined
//!   request.

use faircap::causal::Dag;
use faircap::core::{FairCap, PrescriptionSession, SessionRegistry, SolutionReport, SolveRequest};
use faircap::core::{Json, SessionSnapshot};
use faircap::serve::{ServeClient, ServeConfig, Server};
use faircap::table::{DataFrame, Pattern, Value};
use std::sync::Arc;
use std::time::Duration;

/// The Stack Overflow stand-in trimmed to five columns (as in the CLI
/// round-trip test) so debug-mode solves stay fast while still exercising
/// real mining and estimation.
fn dataset(rows: usize) -> (DataFrame, Dag, Pattern) {
    let ds = faircap::data::so::generate(rows, 3);
    let keep = ["gdp_group", "age", "certifications", "training", "salary"];
    let df = ds.df.select(&keep).unwrap();
    let dag = Dag::parse_edge_list(
        "gdp_group -> salary\nage -> salary\ncertifications -> salary\ntraining -> salary",
    )
    .unwrap();
    let protected = Pattern::of_eq(&[("gdp_group", Value::from("low"))]);
    (df, dag, protected)
}

fn so_session(rows: usize) -> PrescriptionSession {
    let (df, dag, protected) = dataset(rows);
    FairCap::builder()
        .data(df)
        .dag(dag)
        .outcome("salary")
        .immutable(["gdp_group", "age"])
        .mutable(["certifications", "training"])
        .protected(protected)
        .build()
        .unwrap()
}

fn boot(config: ServeConfig) -> (Server, ServeClient) {
    let registry = Arc::new(SessionRegistry::new());
    registry.register("so", so_session(2_000));
    let server = Server::start(config, registry).unwrap();
    let client = server.client();
    client.wait_ready(Duration::from_secs(30)).unwrap();
    (server, client)
}

/// A session whose cold solve takes long enough (~150 ms debug, ~20 ms
/// release) for a metrics poll loop to observe it in flight — the 2k-row
/// fixture above now solves in single-digit milliseconds since the kernel
/// layer landed, faster than any reasonable polling interval.
fn slow_session() -> PrescriptionSession {
    so_session(60_000)
}

fn rule_strings(doc: &Json) -> Vec<String> {
    doc.get("rules")
        .and_then(Json::as_arr)
        .expect("rules array")
        .iter()
        .map(|r| r.get("rule").and_then(Json::as_str).unwrap().to_owned())
        .collect()
}

#[test]
fn concurrent_solves_match_direct_session_bit_exactly() {
    let (server, client) = boot(ServeConfig {
        max_concurrent_solves: 4,
        solve_queue_depth: 32,
        ..ServeConfig::default()
    });

    // Direct ground truth on an identical (separately built) session.
    let direct = so_session(2_000)
        .solve(&SolveRequest::default().max_rules(5))
        .unwrap();
    let direct_rules: Vec<String> = direct.rules.iter().map(|r| r.to_string()).collect();
    assert!(!direct_rules.is_empty());

    let n = 8;
    let responses: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n)
            .map(|_| {
                let client = client.clone();
                scope.spawn(move || {
                    client
                        .post_json("/v1/solve", r#"{"max_rules": 5}"#)
                        .unwrap()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for response in &responses {
        assert_eq!(response.status, 200, "{}", response.body);
        let doc = Json::parse(&response.body).unwrap();
        assert_eq!(
            rule_strings(&doc),
            direct_rules,
            "served ruleset must match a direct solve"
        );
        // Bit-exactness: the served summary floats reparse to the same
        // bits as the in-process report.
        let summary = doc.get("summary").unwrap();
        for (field, expected) in [
            ("expected", direct.summary.expected),
            ("unfairness", direct.summary.unfairness),
            ("coverage", direct.summary.coverage),
        ] {
            assert_eq!(
                summary.get(field).unwrap().as_f64().unwrap().to_bits(),
                expected.to_bits(),
                "summary.{field} must survive the wire bit-exactly"
            );
        }
        assert_eq!(doc.get("session").unwrap().as_str(), Some("so"));
    }

    // The shared session served all 8; later solves hit the warm caches.
    let metrics = client.get("/v1/metrics").unwrap();
    assert_eq!(metrics.status, 200);
    let doc = Json::parse(&metrics.body).unwrap();
    let so = doc.get("sessions").unwrap().get("so").unwrap();
    let hits = so
        .get("estimate_cache")
        .unwrap()
        .get("hits")
        .unwrap()
        .as_f64()
        .unwrap();
    assert!(hits > 0.0, "metrics must show nonzero cache hits");
    // The new solve-path blocks: intervention-cache counters and the
    // per-step hot accounting.
    let icache = so.get("intervention_cache").unwrap();
    assert!(
        icache.get("misses").unwrap().as_f64().unwrap() > 0.0,
        "first solves must populate the intervention cache"
    );
    let solve_stats = so.get("solve_stats").unwrap();
    let solves = solve_stats.get("solves").unwrap().as_f64().unwrap();
    // Coalescing may collapse identical in-flight requests, so the session
    // executed between 1 and n solves.
    assert!((1.0..=f64::from(n)).contains(&solves), "solves = {solves}");
    assert!(solve_stats.get("intervene_ms").unwrap().as_f64().unwrap() > 0.0);
    assert!(solve_stats.get("candidates").unwrap().as_f64().unwrap() > 0.0);
    assert_eq!(
        doc.get("requests")
            .unwrap()
            .get("solves_ok")
            .unwrap()
            .as_f64(),
        Some(f64::from(n)),
    );
    assert!(doc.get("solve_latency").unwrap().get("p50_ms").is_some());
    server.shutdown();
}

#[test]
fn overload_sheds_with_429_and_bounded_queue() {
    let queue_depth = 1;
    let (server, client) = boot(ServeConfig {
        max_concurrent_solves: 1,
        solve_queue_depth: queue_depth,
        ..ServeConfig::default()
    });

    let n = 10;
    let statuses: Vec<u16> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n)
            .map(|i| {
                let client = client.clone();
                scope.spawn(move || {
                    // Distinct max_rules per request defeats whole-queue
                    // collapse into instant cache hits on the same key
                    // while still sharing the estimate cache.
                    let body = format!(r#"{{"max_rules": {}}}"#, 1 + (i % 3));
                    client.post_json("/v1/solve", &body).unwrap()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                let response = h.join().unwrap();
                if response.status == 200 {
                    // Every admitted request completes with a valid,
                    // non-empty ruleset.
                    let doc = Json::parse(&response.body).unwrap();
                    assert!(
                        !rule_strings(&doc).is_empty(),
                        "admitted solve returned an empty ruleset"
                    );
                }
                response.status
            })
            .collect()
    });

    let ok = statuses.iter().filter(|&&s| s == 200).count();
    let shed = statuses.iter().filter(|&&s| s == 429).count();
    assert!(
        ok >= 1,
        "at least one request must be admitted: {statuses:?}"
    );
    assert!(
        shed >= 1,
        "a 1-worker/1-slot server under 10 concurrent requests must shed: {statuses:?}"
    );
    assert_eq!(ok + shed, n, "only 200 and 429 are expected: {statuses:?}");

    let metrics = Json::parse(&client.get("/v1/metrics").unwrap().body).unwrap();
    let admission = metrics.get("admission").unwrap();
    let max_depth = admission.get("max_queue_depth").unwrap().as_f64().unwrap();
    assert!(
        max_depth <= queue_depth as f64,
        "queue high-water mark {max_depth} exceeded the bound {queue_depth}"
    );
    assert_eq!(
        metrics
            .get("requests")
            .unwrap()
            .get("rejected_429")
            .unwrap()
            .as_f64(),
        Some(shed as f64)
    );
    server.shutdown();
}

#[test]
fn solve_timeout_answers_504_and_counts() {
    let (server, client) = boot(ServeConfig {
        max_concurrent_solves: 1,
        solve_queue_depth: 4,
        // Far below any real solve on this dataset, so the timeout path
        // fires deterministically.
        solve_timeout: Duration::from_nanos(1),
        ..ServeConfig::default()
    });
    let response = client.post_json("/v1/solve", "{}").unwrap();
    assert_eq!(response.status, 504, "{}", response.body);
    let metrics = Json::parse(&client.get("/v1/metrics").unwrap().body).unwrap();
    assert_eq!(
        metrics
            .get("requests")
            .unwrap()
            .get("timeouts_504")
            .unwrap()
            .as_f64(),
        Some(1.0)
    );
    server.shutdown();
}

#[test]
fn request_validation_and_routing_errors() {
    let (server, client) = boot(ServeConfig::default());
    // Unknown endpoint / wrong method.
    assert_eq!(client.get("/v1/nope").unwrap().status, 404);
    assert_eq!(client.get("/v1/solve").unwrap().status, 405);
    // Malformed JSON and bad request fields are 400s.
    assert_eq!(
        client.post_json("/v1/solve", "{not json").unwrap().status,
        400
    );
    assert_eq!(
        client
            .post_json("/v1/solve", r#"{"bogus_knob": 1}"#)
            .unwrap()
            .status,
        400
    );
    // Unknown session is a 404 naming the registered ones.
    let response = client
        .post_json("/v1/solve", r#"{"session": "ghost"}"#)
        .unwrap();
    assert_eq!(response.status, 404);
    assert!(response.body.contains("so"), "{}", response.body);
    // Invalid constraint values pass parsing but fail engine validation: 422.
    assert_eq!(
        client
            .post_json("/v1/solve", r#"{"apriori_threshold": 7.5}"#)
            .unwrap()
            .status,
        422
    );
    // Sessions listing.
    let sessions = client.get("/v1/sessions").unwrap();
    assert_eq!(sessions.status, 200);
    let doc = Json::parse(&sessions.body).unwrap();
    let list = doc.get("sessions").unwrap().as_arr().unwrap();
    assert_eq!(list.len(), 1);
    assert_eq!(list[0].get("name").unwrap().as_str(), Some("so"));
    assert_eq!(list[0].get("outcome").unwrap().as_str(), Some("salary"));
    server.shutdown();
}

/// A request configures one solve: a body that tries to size the session's
/// caches is refused with a 400 naming the field, and leaves the warm
/// caches as they were, so the next plain solve estimates nothing new.
#[test]
fn cache_bound_fields_are_refused_and_leave_the_caches_warm() {
    let (server, client) = boot(ServeConfig::default());
    let plain = client.post_json("/v1/solve", "{}").unwrap();
    assert_eq!(plain.status, 200, "{}", plain.body);
    let misses = metric(&client, "sessions.so.estimate_cache.misses");
    assert!(misses > 0.0, "the cold solve estimates");
    for body in [
        r#"{"estimate_cache_bound": 0}"#,
        r#"{"grouping_cache_bound": 0}"#,
        r#"{"intervention_cache_bound": 0}"#,
    ] {
        let field = body.split('"').nth(1).unwrap();
        let response = client.post_json("/v1/solve", body).unwrap();
        assert_eq!(response.status, 400, "{body}: {}", response.body);
        assert!(
            response
                .body
                .contains(&format!("unknown request field `{field}`")),
            "{body}: {}",
            response.body
        );
    }
    let plain = client.post_json("/v1/solve", "{}").unwrap();
    assert_eq!(plain.status, 200, "{}", plain.body);
    assert_eq!(
        metric(&client, "sessions.so.estimate_cache.misses"),
        misses,
        "a warm plain solve must not estimate again"
    );
    server.shutdown();
}

/// A session's `solve_stats` are its registry entry's ledger: the sums of
/// the completed solves' own report timings and work counters.
#[test]
fn solve_stats_are_the_sums_of_the_reports() {
    let registry = Arc::new(SessionRegistry::new());
    let entry = registry.register("so", so_session(2_000)).unwrap();
    let server = Server::start(ServeConfig::default(), registry).unwrap();
    let client = server.client();
    client.wait_ready(Duration::from_secs(30)).unwrap();
    let requests = [
        SolveRequest::default(),
        SolveRequest::default().max_rules(3),
        SolveRequest::default().use_solve_cache(false),
    ];
    let reports: Vec<SolutionReport> = requests.iter().map(|r| entry.solve(r).unwrap()).collect();
    let doc = Json::parse(&client.get("/v1/metrics").unwrap().body).unwrap();
    let sum = |read: fn(&SolutionReport) -> u64| reports.iter().map(read).sum::<u64>() as f64;
    for (key, total) in [
        ("solves", reports.len() as f64),
        (
            "candidates",
            sum(|r| r.stats.grouping.candidates + r.stats.lattice.candidates),
        ),
        (
            "pruned",
            sum(|r| r.stats.grouping.pruned() + r.stats.lattice.pruned()),
        ),
        (
            "evaluated",
            sum(|r| r.stats.grouping.evaluated + r.stats.lattice.evaluated),
        ),
        ("greedy_evaluations", sum(|r| r.stats.greedy.evaluations)),
        (
            "greedy_reevaluations",
            sum(|r| r.stats.greedy.reevaluations),
        ),
        (
            "mine_ms",
            sum(|r| r.timings.grouping.as_nanos() as u64) / 1e6,
        ),
        (
            "intervene_ms",
            sum(|r| r.timings.intervention.as_nanos() as u64) / 1e6,
        ),
        (
            "select_ms",
            sum(|r| r.timings.greedy.as_nanos() as u64) / 1e6,
        ),
    ] {
        let read = field(&doc, &format!("sessions.so.solve_stats.{key}"));
        assert!(
            (read - total).abs() <= 1e-9 * total.max(1.0),
            "{key}: {read} vs {total}"
        );
    }
    assert!(field(&doc, "sessions.so.solve_stats.candidates") > 0.0);
    server.shutdown();
}

/// A request's `workers` is capped at the machine's cores before the solve
/// runs: a million asked for still answers 200, and the executor reports
/// no more workers than there are cores.
#[test]
fn oversized_worker_requests_are_capped_at_the_cores() {
    let (server, client) = boot(ServeConfig::default());
    let response = client
        .post_json("/v1/solve", r#"{"workers": 1000000}"#)
        .unwrap();
    assert_eq!(response.status, 200, "{}", response.body);
    let doc = Json::parse(&response.body).unwrap();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workers = field(&doc, "exec.workers");
    assert!(
        workers >= 1.0 && workers <= cores as f64,
        "{workers} workers on {cores} cores"
    );
    server.shutdown();
}

#[test]
fn snapshot_endpoint_writes_and_warm_boot_reuses() {
    let dir = std::env::temp_dir().join("faircap_serve_snapshot_test");
    let _ = std::fs::remove_dir_all(&dir);
    let (server, client) = boot(ServeConfig {
        snapshot_dir: Some(dir.clone()),
        ..ServeConfig::default()
    });
    // Warm the caches, persist them over the API.
    assert_eq!(client.post_json("/v1/solve", "{}").unwrap().status, 200);
    let response = client.post_json("/v1/snapshot", "{}").unwrap();
    assert_eq!(response.status, 200, "{}", response.body);
    let path = dir.join("so.fc");
    assert!(path.exists(), "snapshot endpoint must write {path:?}");
    server.shutdown();

    // Boot a second server warm-started from the persisted snapshot: the
    // same workload re-solves without a single estimate-cache miss.
    let snapshot = SessionSnapshot::decode(&std::fs::read_to_string(&path).unwrap()).unwrap();
    let (df, dag, protected) = dataset(2_000);
    let warm = FairCap::builder()
        .data(df)
        .dag(dag)
        .outcome("salary")
        .immutable(["gdp_group", "age"])
        .mutable(["certifications", "training"])
        .protected(protected)
        .warm_start(snapshot)
        .build()
        .unwrap();
    let registry = Arc::new(SessionRegistry::new());
    registry.register("so", warm);
    let server = Server::start(ServeConfig::default(), Arc::clone(&registry)).unwrap();
    let client = server.client();
    client.wait_ready(Duration::from_secs(30)).unwrap();
    assert_eq!(client.post_json("/v1/solve", "{}").unwrap().status, 200);
    let metrics = Json::parse(&client.get("/v1/metrics").unwrap().body).unwrap();
    let cache = metrics
        .get("sessions")
        .unwrap()
        .get("so")
        .unwrap()
        .get("estimate_cache")
        .unwrap();
    assert_eq!(
        cache.get("misses").unwrap().as_f64(),
        Some(0.0),
        "warm-booted server must re-solve with zero estimate-cache misses"
    );
    assert!(cache.get("hits").unwrap().as_f64().unwrap() > 0.0);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn graceful_shutdown_drains_in_flight_solves() {
    // Boot over the slow fixture: the drain assertion needs a solve that is
    // reliably still running when the shutdown request lands.
    let registry = Arc::new(SessionRegistry::new());
    registry.register("so", slow_session());
    let server = Server::start(
        ServeConfig {
            max_concurrent_solves: 1,
            solve_queue_depth: 4,
            ..ServeConfig::default()
        },
        registry,
    )
    .unwrap();
    let client = server.client();
    client.wait_ready(Duration::from_secs(30)).unwrap();
    // Launch a solve and wait until the solve pool reports it in flight.
    let solver = {
        let client = client.clone();
        std::thread::spawn(move || client.post_json("/v1/solve", "{}").unwrap())
    };
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        let metrics = Json::parse(&client.get("/v1/metrics").unwrap().body).unwrap();
        let in_flight = metrics
            .get("admission")
            .unwrap()
            .get("in_flight")
            .unwrap()
            .as_f64()
            .unwrap();
        if in_flight >= 1.0 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "solve never became in-flight"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    // POST /v1/shutdown flips the request flag; the owner then drains.
    assert_eq!(client.post_json("/v1/shutdown", "{}").unwrap().status, 200);
    assert!(server.shutdown_requested());
    server.shutdown();
    // The in-flight solve was drained, not dropped.
    let response = solver.join().unwrap();
    assert_eq!(response.status, 200, "{}", response.body);
    // After shutdown the listener is gone.
    assert!(client.get("/healthz").is_err());
}

/// A numeric field of a `/v1/metrics` document by dotted path.
fn field(doc: &Json, path: &str) -> f64 {
    doc.get_path(path)
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("metrics missing {path}"))
}

/// Read a numeric field off `/v1/metrics` by dotted path.
fn metric(client: &ServeClient, path: &str) -> f64 {
    field(
        &Json::parse(&client.get("/v1/metrics").unwrap().body).unwrap(),
        path,
    )
}

/// Poll `/v1/metrics` until `ready` holds, failing after 30 s: a barrier on
/// observable server state where a sleep would only guess at it.
fn await_metrics(client: &ServeClient, what: &str, ready: impl Fn(&Json) -> bool) {
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while !ready(&Json::parse(&client.get("/v1/metrics").unwrap().body).unwrap()) {
        assert!(
            std::time::Instant::now() < deadline,
            "timed out waiting for {what}"
        );
    }
}

#[test]
fn pipelined_identical_solves_coalesce_into_one_underlying_solve() {
    // One worker and a deep queue. A cold solve of a second, 30k-row
    // session holds the only worker first, so the leader of the pipelined
    // batch is admitted and queued behind it, and every duplicate attaches
    // to the queued leader in the coalescer. The leader's own solve time no
    // longer has to outlast the parse of its duplicates.
    let registry = Arc::new(SessionRegistry::new());
    registry.register("so", so_session(2_000));
    registry.register("blocker", so_session(30_000));
    let server = Server::start(
        ServeConfig {
            max_concurrent_solves: 1,
            solve_queue_depth: 16,
            ..ServeConfig::default()
        },
        registry,
    )
    .unwrap();
    let client = server.client();
    client.wait_ready(Duration::from_secs(30)).unwrap();
    let blocker = {
        let client = client.clone();
        std::thread::spawn(move || {
            let mut conn = client.connect().unwrap();
            conn.request(
                "POST",
                "/v1/solve",
                Some(r#"{"session": "blocker", "max_rules": 4}"#),
            )
            .unwrap()
        })
    };
    await_metrics(&client, "the blocker to hold the worker", |m| {
        field(m, "admission.in_flight") == 1.0
    });

    let n = 6;
    let body = r#"{"session": "so", "max_rules": 4}"#;
    let mut conn = client.connect().unwrap();
    let requests: Vec<(&str, &str, Option<&str>)> =
        (0..n).map(|_| ("POST", "/v1/solve", Some(body))).collect();
    let responses = conn.pipeline(&requests).unwrap();
    let blocked = blocker.join().unwrap();
    assert_eq!(blocked.status, 200, "{}", blocked.body);

    assert_eq!(responses.len(), n);
    for response in &responses {
        assert_eq!(response.status, 200, "{}", response.body);
        // Bit-identity: the fan-out duplicates the leader's encoded report
        // byte for byte.
        assert_eq!(
            response.body.as_bytes(),
            responses[0].body.as_bytes(),
            "coalesced responses must be byte-identical"
        );
    }
    assert!(!rule_strings(&Json::parse(&responses[0].body).unwrap()).is_empty());

    // Exactly one underlying solve served all N requests.
    assert_eq!(metric(&client, "sessions.so.solves_ok"), 1.0);
    assert_eq!(
        metric(&client, "sessions.so.solves_coalesced"),
        (n - 1) as f64
    );
    assert_eq!(metric(&client, "requests.coalesce_hits"), (n - 1) as f64);
    // Delivered-response accounting still counts every waiter, plus the
    // blocker's own response.
    assert_eq!(metric(&client, "requests.solves_ok"), (n + 1) as f64);
    assert_eq!(metric(&client, "admission.coalesce_in_flight"), 0.0);
    server.shutdown();
}

#[test]
fn waiter_disconnect_does_not_cancel_the_shared_solve() {
    // Conn B must attach while conn A's cold solve is still running, so
    // this test serves a 15× larger dataset than the other tests (a 2 k-row
    // cold solve can finish in tens of milliseconds in a debug build).
    let slow = so_session(30_000);
    let registry = Arc::new(SessionRegistry::new());
    registry.register("so", slow);
    let server = Server::start(
        ServeConfig {
            max_concurrent_solves: 1,
            solve_queue_depth: 16,
            ..ServeConfig::default()
        },
        registry,
    )
    .unwrap();
    let client = server.client();
    client.wait_ready(Duration::from_secs(30)).unwrap();
    let body = r#"{"max_rules": 4}"#;

    // Conn A leads with a cold (slow) solve.
    let survivor = {
        let client = client.clone();
        std::thread::spawn(move || {
            let mut conn = client.connect().unwrap();
            conn.request("POST", "/v1/solve", Some(body)).unwrap()
        })
    };
    await_metrics(&client, "conn A to lead the solve", |m| {
        field(m, "admission.coalesce_in_flight") == 1.0
    });
    // Conn B attaches the identical request, then disconnects mid-solve.
    let mut deserter = client.connect().unwrap();
    deserter
        .send("POST", "/v1/solve", Some(body), false)
        .unwrap();
    await_metrics(&client, "conn B to attach", |m| {
        field(m, "requests.coalesce_hits") == 1.0
    });
    drop(deserter);

    // The surviving waiter still gets its 200 — the shared solve is owned
    // by the pool, not by any one connection.
    let response = survivor.join().unwrap();
    assert_eq!(response.status, 200, "{}", response.body);
    assert!(!rule_strings(&Json::parse(&response.body).unwrap()).is_empty());
    // The duplicate folded: one underlying solve, whichever conn led.
    assert_eq!(metric(&client, "sessions.so.solves_ok"), 1.0);
    assert_eq!(metric(&client, "requests.coalesce_hits"), 1.0);
    server.shutdown();
}

#[test]
fn pipelined_responses_come_back_in_request_order() {
    let (server, client) = boot(ServeConfig::default());
    let mut conn = client.connect().unwrap();
    // A slow solve first, then two instantly-answerable requests: the
    // reactor must hold the quick responses behind the pending solve slot.
    let responses = conn
        .pipeline(&[
            ("POST", "/v1/solve", Some(r#"{"max_rules": 3}"#)),
            ("GET", "/healthz", None),
            ("GET", "/v1/sessions", None),
        ])
        .unwrap();
    assert_eq!(responses.len(), 3);
    assert_eq!(responses[0].status, 200, "{}", responses[0].body);
    assert!(
        responses[0].body.contains("\"rules\""),
        "first response must be the solve report: {}",
        responses[0].body
    );
    assert_eq!(responses[1].status, 200);
    assert!(
        responses[1].body.contains("\"ok\""),
        "second response must be the health check: {}",
        responses[1].body
    );
    assert_eq!(responses[2].status, 200);
    assert!(
        responses[2].body.contains("\"sessions\""),
        "third response must be the session listing: {}",
        responses[2].body
    );
    // The connection is still usable for further exchanges.
    for _ in 0..3 {
        assert_eq!(conn.request("GET", "/healthz", None).unwrap().status, 200);
    }
    server.shutdown();
}

#[test]
fn connection_close_is_honoured_after_the_response() {
    let (server, client) = boot(ServeConfig::default());
    let mut conn = client.connect().unwrap();
    assert_eq!(conn.request("GET", "/healthz", None).unwrap().status, 200);
    // `connection: close` still gets its answer, then EOF.
    conn.send("GET", "/healthz", None, true).unwrap();
    let last = conn.read_response().unwrap();
    assert_eq!(last.status, 200);
    let eof = conn.read_response();
    assert!(
        eof.is_err(),
        "server must close after `connection: close`, got {eof:?}"
    );
    server.shutdown();
}

#[test]
fn idle_timeout_reaps_idle_connections_but_not_in_flight_solves() {
    let idle = Duration::from_millis(250);
    let (server, client) = boot(ServeConfig {
        max_concurrent_solves: 1,
        solve_queue_depth: 16,
        idle_timeout: idle,
        ..ServeConfig::default()
    });

    // A connection with an in-flight cold solve (slow in a debug build,
    // typically well past the idle timeout) must NOT be reaped: the idle
    // clock only applies to connections with no outstanding requests.
    let busy = {
        let client = client.clone();
        std::thread::spawn(move || {
            let mut conn = client.connect().unwrap();
            conn.request("POST", "/v1/solve", Some(r#"{"max_rules": 5}"#))
                .unwrap()
        })
    };

    // Meanwhile an idle keep-alive connection gets reaped.
    let mut lazy = client.connect().unwrap();
    assert_eq!(lazy.request("GET", "/healthz", None).unwrap().status, 200);
    std::thread::sleep(idle + Duration::from_millis(400));
    let outcome = lazy
        .send("GET", "/healthz", None, false)
        .and_then(|()| lazy.read_response());
    assert!(
        outcome.is_err(),
        "idle connection must be closed by the reaper, got {outcome:?}"
    );

    let response = busy.join().unwrap();
    assert_eq!(response.status, 200, "{}", response.body);
    server.shutdown();
}

#[test]
fn graceful_drain_finishes_admitted_pipelined_requests() {
    // The drain must land while the solve is still running, so this test
    // serves the 30 k-row dataset the waiter-disconnect test uses.
    let registry = Arc::new(SessionRegistry::new());
    registry.register("so", so_session(30_000));
    let config = ServeConfig {
        max_concurrent_solves: 1,
        solve_queue_depth: 16,
        ..ServeConfig::default()
    };
    let server = Server::start(config, registry).unwrap();
    let client = server.client();
    client.wait_ready(Duration::from_secs(30)).unwrap();
    let body = r#"{"max_rules": 4}"#;
    let mut conn = client.connect().unwrap();
    // Three pipelined requests — a slow cold solve, a quick endpoint, and
    // an identical (coalescing) solve — all written before any response is
    // read, so all are admitted while the leader's solve runs.
    for request in [
        ("POST", "/v1/solve", Some(body)),
        ("GET", "/healthz", None),
        ("POST", "/v1/solve", Some(body)),
    ] {
        conn.send(request.0, request.1, request.2, false).unwrap();
    }
    // Wait until the reactor has dispatched all three: the solve is
    // admitted and still running, and the duplicate has attached to it.
    await_metrics(&client, "the pipeline to be dispatched", |m| {
        field(m, "admission.in_flight") + field(m, "admission.queue_depth") >= 1.0
            && field(m, "requests.coalesce_hits") == 1.0
    });

    let reader = std::thread::spawn(move || {
        let responses: Vec<_> = (0..3).map(|_| conn.read_response()).collect();
        let eof = conn.read_response();
        (responses, eof)
    });
    // Drain while the solve is in flight and the pipeline is unanswered.
    server.shutdown();

    let (responses, eof) = reader.join().unwrap();
    let statuses: Vec<_> = responses
        .iter()
        .map(|r| r.as_ref().map(|r| r.status))
        .collect();
    for (i, response) in responses.iter().enumerate() {
        let response = response
            .as_ref()
            .unwrap_or_else(|e| panic!("admitted request {i} dropped during drain: {e}"));
        assert_eq!(response.status, 200, "request {i}: {statuses:?}");
    }
    assert!(responses[0].as_ref().unwrap().body.contains("\"rules\""));
    assert_eq!(
        responses[0].as_ref().unwrap().body,
        responses[2].as_ref().unwrap().body,
        "the coalesced duplicate drains with the leader's bytes"
    );
    // After the last admitted response the drained connection closes.
    assert!(
        eof.is_err(),
        "connection must close after drain, got {eof:?}"
    );
    assert!(client.get("/healthz").is_err(), "listener must be gone");
}

/// Open-loop overload soak at roughly 10× serving capacity, driven by the
/// scenario workload replayer. Long and load-bearing on wall-clock, so it
/// is `#[ignore]`d in the default CI tier; run with `--ignored`.
#[test]
#[ignore = "soak test: run explicitly with cargo test -- --ignored"]
fn overload_soak_sheds_cleanly_and_never_drops_admitted_requests() {
    use faircap::scenario::{
        default_epsilon, generate, replay, Arrival, ReplayOptions, ReplayTarget, ScenarioSpec,
        WorkloadMix,
    };
    let spec = ScenarioSpec {
        name: "soak".into(),
        rows: 4_000,
        ..ScenarioSpec::default()
    };
    let sc = generate(&spec).unwrap();
    let registry = Arc::new(SessionRegistry::new());
    registry.register("soak", sc.session().unwrap()).unwrap();
    let queue_depth = 2;
    let server = Server::start(
        ServeConfig {
            max_concurrent_solves: 1,
            solve_queue_depth: queue_depth,
            ..ServeConfig::default()
        },
        registry,
    )
    .unwrap();
    let client = server.client();
    client.wait_ready(Duration::from_secs(30)).unwrap();
    let target = ReplayTarget::Http {
        client: server.client(),
        session: "soak".into(),
    };
    let mix = WorkloadMix::preset("sweep", default_epsilon(&spec)).unwrap();

    // Capacity of the 1-worker server is one solve per solve time. Time
    // one solve shaped like the soak's (a cold-path request that re-mines
    // grouping patterns), after one untimed solve that pays the cold CATE
    // estimates every later request shares.
    let solve = |cold_fraction| {
        let options = ReplayOptions {
            mix: mix.clone(),
            arrival: Arrival::Closed { clients: 1 },
            total: 1,
            cold_fraction,
        };
        let report = replay(&target, &options, &spec).unwrap();
        assert_eq!(report.ok, 1, "{}", report.summary());
        report.mean_ms
    };
    solve(0.0);
    let capacity_hz = 1e3 / solve(1.0).max(1e-3);

    // Open loop at 10× that capacity. The sweep mix with a high cold
    // fraction keeps fingerprints distinct so coalescing cannot flatten
    // the overload.
    let options = ReplayOptions {
        mix,
        arrival: Arrival::Open {
            clients: 32,
            rate_hz: 10.0 * capacity_hz,
        },
        total: 200,
        cold_fraction: 0.8,
    };
    let report = replay(&target, &options, &spec).unwrap();

    // Every request is answered with a deliberate status: successes and
    // admission-control sheds only — never a transport error, reset, or
    // invalid-request surprise.
    assert_eq!(report.failed_other, 0, "{}", report.summary());
    assert_eq!(report.invalid, 0, "{}", report.summary());
    assert_eq!(
        report.ok + report.rejected_429 + report.rejected_503 + report.timeout_504,
        report.total,
        "{}",
        report.summary()
    );
    assert!(report.ok >= 1, "{}", report.summary());
    assert!(
        report.rejected_429 >= report.total / 4,
        "10× overload of {capacity_hz:.0} req/s must shed hard: {}",
        report.summary()
    );
    // The bounded queue held its bound through the whole soak.
    let high_water = metric(&client, "admission.max_queue_depth");
    assert!(
        high_water <= queue_depth as f64,
        "queue high-water {high_water} exceeded bound {queue_depth}"
    );
    // Connection accounting stayed consistent under churn.
    let accepted = metric(&client, "connections.accepted");
    let closed = metric(&client, "connections.closed");
    assert!(accepted >= report.total as f64);
    assert!(closed <= accepted);
    server.shutdown();
}
