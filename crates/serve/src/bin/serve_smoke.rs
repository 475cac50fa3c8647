//! CI smoke driver for a running `faircap serve` instance.
//!
//! ```sh
//! faircap serve --data … --addr 127.0.0.1:7341 &
//! serve_smoke 127.0.0.1:7341
//! ```
//!
//! Exercises the serving acceptance criteria end to end and exits non-zero
//! on any violation:
//!
//! 1. waits for `/healthz` (boot synchronization, up to 120 s);
//! 2. runs one warm-up solve and a second request on the same keep-alive
//!    connection (persistent-connection conformance);
//! 3. posts a solve carrying a cache bound, which a request cannot set:
//!    it must be refused with `400` naming an unknown request field;
//! 4. fires 8 concurrent `POST /v1/solve` requests — every response must be
//!    `200` with a **non-empty** ruleset, and all rulesets must be
//!    identical (one shared warm session serves all of them; identical
//!    in-flight requests may coalesce into one underlying solve);
//! 5. `GET /v1/metrics` must be `200` and report **nonzero estimate-cache
//!    hits**, ≥8 delivered solves, and the `coalesce_hits` counter;
//! 6. a solve with `"trace": true` must return an embedded span tree
//!    covering the full pipeline (queue wait, Step 1/2/3, an estimate
//!    span), echo `X-Faircap-Trace-Id`, and land in `GET /v1/trace`;
//! 7. `GET /metrics` must parse as valid Prometheus exposition, pass the
//!    `faircap_` naming gate, and its solve-latency p99 must agree with
//!    `/v1/metrics` within one log-bucket's relative error;
//! 8. `POST /v1/shutdown` asks the server to drain so the CI job's
//!    background process exits cleanly.

use faircap_core::Json;
use faircap_serve::ServeClient;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

const CONCURRENCY: usize = 8;

fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("serve_smoke: FAIL: {msg}");
    std::process::exit(1);
}

fn rules_of(body: &str) -> Vec<String> {
    let doc = Json::parse(body).unwrap_or_else(|e| fail(format_args!("bad solve JSON: {e}")));
    let Some(rules) = doc.get("rules").and_then(Json::as_arr) else {
        fail("solve response has no `rules` array");
    };
    rules
        .iter()
        .map(|r| {
            r.get("rule")
                .and_then(Json::as_str)
                .unwrap_or_else(|| fail("rule without `rule` string"))
                .to_owned()
        })
        .collect()
}

/// Nearest-rank quantile over a family's Prometheus `_bucket` lines:
/// cumulative `le` buckets, rank `ceil(q·count)`, value = the first
/// bucket bound whose cumulative count reaches the rank.
fn prom_bucket_quantile(text: &str, family: &str, q: f64) -> Option<f64> {
    let prefix = format!("{family}_bucket{{");
    let mut buckets: Vec<(f64, u64)> = Vec::new();
    for line in text.lines() {
        let Some(rest) = line.strip_prefix(&prefix) else {
            continue;
        };
        let le = rest
            .split("le=\"")
            .nth(1)
            .and_then(|s| s.split('"').next())?;
        let bound = if le == "+Inf" {
            f64::INFINITY
        } else {
            le.parse().ok()?
        };
        let count: u64 = rest.rsplit(' ').next()?.trim().parse().ok()?;
        buckets.push((bound, count));
    }
    buckets.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite-or-inf bounds"));
    let total = buckets.last()?.1;
    if total == 0 {
        return None;
    }
    let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
    buckets
        .iter()
        .find(|(_, cum)| *cum >= rank)
        .map(|(bound, _)| *bound)
}

fn main() {
    let addr: SocketAddr = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "127.0.0.1:7341".into())
        .parse()
        .unwrap_or_else(|e| fail(format_args!("bad address: {e}")));
    let client = ServeClient::new(addr).with_timeout(Duration::from_secs(300));

    client
        .wait_ready(Duration::from_secs(120))
        .unwrap_or_else(|e| fail(e));
    println!("serve_smoke: server at {addr} is ready");

    let request = r#"{"max_rules": 5}"#;
    // Sequential warm-up on a keep-alive connection: pays the cold-cache
    // cost once so the concurrent batch below measures the cache-hit
    // steady state even when coalescing folds it into one solve, and
    // exercises the persistent-connection path end to end.
    let mut conn = client
        .connect()
        .unwrap_or_else(|e| fail(format_args!("keep-alive connect failed: {e}")));
    let warm = conn
        .request("POST", "/v1/solve", Some(request))
        .unwrap_or_else(|e| fail(format_args!("warm-up solve failed: {e}")));
    if warm.status != 200 {
        fail(format_args!(
            "warm-up solve returned {}: {}",
            warm.status, warm.body
        ));
    }
    let health = conn
        .request("GET", "/healthz", None)
        .unwrap_or_else(|e| fail(format_args!("keep-alive reuse failed: {e}")));
    if health.status != 200 {
        fail(format_args!(
            "keep-alive health check returned {}",
            health.status
        ));
    }
    drop(conn);
    println!("serve_smoke: warm-up solve + keep-alive reuse OK");

    // A request configures one solve; cache sizes are not request fields.
    let refused = client
        .post_json("/v1/solve", r#"{"estimate_cache_bound": 0}"#)
        .unwrap_or_else(|e| fail(format_args!("cache-bound request failed: {e}")));
    if refused.status != 400 || !refused.body.contains("unknown request field") {
        fail(format_args!(
            "cache-bound request returned {}, expected 400 naming an unknown request field: {}",
            refused.status, refused.body
        ));
    }
    println!("serve_smoke: cache-bound request refused with 400");

    let rulesets: Vec<Vec<String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONCURRENCY)
            .map(|_| {
                let client = client.clone();
                scope.spawn(move || {
                    let response = client
                        .post_json("/v1/solve", request)
                        .unwrap_or_else(|e| fail(format_args!("solve request failed: {e}")));
                    if response.status != 200 {
                        fail(format_args!(
                            "solve returned {}: {}",
                            response.status, response.body
                        ));
                    }
                    rules_of(&response.body)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("smoke solver thread"))
            .collect()
    });
    for (i, rules) in rulesets.iter().enumerate() {
        if rules.is_empty() {
            fail(format_args!("solve {i} returned an empty ruleset"));
        }
        if rules != &rulesets[0] {
            fail(format_args!(
                "solve {i} ruleset diverged from solve 0:\n{rules:?}\nvs\n{:?}",
                rulesets[0]
            ));
        }
    }
    println!(
        "serve_smoke: {CONCURRENCY} concurrent solves OK, {} identical rules each",
        rulesets[0].len()
    );

    let metrics = client
        .get("/v1/metrics")
        .unwrap_or_else(|e| fail(format_args!("metrics request failed: {e}")));
    if metrics.status != 200 {
        fail(format_args!("metrics returned {}", metrics.status));
    }
    let doc =
        Json::parse(&metrics.body).unwrap_or_else(|e| fail(format_args!("bad metrics JSON: {e}")));
    let solves_ok = doc
        .get("requests")
        .and_then(|r| r.get("solves_ok"))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| fail("metrics without requests.solves_ok"));
    if (solves_ok as usize) < CONCURRENCY {
        fail(format_args!(
            "expected ≥{CONCURRENCY} solves_ok, got {solves_ok}"
        ));
    }
    let Some(Json::Obj(sessions)) = doc.get("sessions") else {
        fail("metrics without sessions object");
    };
    let hits: f64 = sessions
        .iter()
        .filter_map(|(_, s)| {
            s.get("estimate_cache")
                .and_then(|c| c.get("hits"))
                .and_then(Json::as_f64)
        })
        .sum();
    if hits <= 0.0 {
        fail("metrics report zero estimate-cache hits after 8 solves");
    }
    // The new serving stack must report its coalescing counter; with 8
    // identical concurrent solves against a warm session, folding is
    // expected but not guaranteed (timing), so only the field's presence
    // is asserted.
    let coalesce_hits = doc
        .get("requests")
        .and_then(|r| r.get("coalesce_hits"))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| fail("metrics without requests.coalesce_hits"));
    println!(
        "serve_smoke: metrics OK ({solves_ok} solves, {hits} cache hits, {coalesce_hits} coalesce hits)"
    );

    // Traced solve: the embedded span tree must cover the full pipeline
    // and the trace id must round-trip through the header and the ring.
    // The non-default estimator misses the intervention cache (its key
    // includes the estimator name), so Step 2 actually evaluates groups
    // and the estimate-layer spans appear even on a warm session.
    let t0 = Instant::now();
    let traced = client
        .post_json(
            "/v1/solve",
            r#"{"max_rules": 5, "estimator": "ipw", "trace": true}"#,
        )
        .unwrap_or_else(|e| fail(format_args!("traced solve failed: {e}")));
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    if traced.status != 200 {
        fail(format_args!(
            "traced solve returned {}: {}",
            traced.status, traced.body
        ));
    }
    let Some(header_id) = traced.header("x-faircap-trace-id").map(str::to_owned) else {
        fail("traced solve response has no x-faircap-trace-id header");
    };
    let doc =
        Json::parse(&traced.body).unwrap_or_else(|e| fail(format_args!("bad traced JSON: {e}")));
    let Some(trace) = doc.get("trace") else {
        fail("traced solve response has no `trace` field");
    };
    let body_id = trace
        .get("trace_id")
        .and_then(Json::as_str)
        .unwrap_or_else(|| fail("trace without trace_id"));
    if body_id != header_id {
        fail(format_args!(
            "trace_id mismatch: body {body_id} vs header {header_id}"
        ));
    }
    let duration_ms = trace
        .get("duration_ms")
        .and_then(Json::as_f64)
        .unwrap_or_else(|| fail("trace without duration_ms"));
    if duration_ms <= 0.0 || duration_ms > wall_ms {
        fail(format_args!(
            "trace root duration {duration_ms:.3} ms outside (0, wall {wall_ms:.3} ms]"
        ));
    }
    let Some(spans) = trace.get("spans").and_then(Json::as_arr) else {
        fail("trace without spans array");
    };
    let names: Vec<&str> = spans
        .iter()
        .filter_map(|s| s.get("name").and_then(Json::as_str))
        .collect();
    for required in [
        "request",
        "queue_wait",
        "solve",
        "respond",
        "step1_grouping",
        "step2_interventions",
        "step3_greedy",
    ] {
        if !names.contains(&required) {
            fail(format_args!(
                "trace missing span `{required}` (got {names:?})"
            ));
        }
    }
    if !names.iter().any(|n| n.starts_with("estimate")) {
        fail(format_args!("trace has no estimate span (got {names:?})"));
    }
    println!(
        "serve_smoke: traced solve OK ({} spans, root {duration_ms:.2} ms, id {header_id})",
        spans.len()
    );

    let ring = client
        .get("/v1/trace")
        .unwrap_or_else(|e| fail(format_args!("trace-ring request failed: {e}")));
    if ring.status != 200 {
        fail(format_args!("/v1/trace returned {}", ring.status));
    }
    let ring_doc =
        Json::parse(&ring.body).unwrap_or_else(|e| fail(format_args!("bad /v1/trace JSON: {e}")));
    let Some(traces) = ring_doc.get("traces").and_then(Json::as_arr) else {
        fail("/v1/trace without traces array");
    };
    if !traces
        .iter()
        .any(|t| t.get("trace_id").and_then(Json::as_str) == Some(header_id.as_str()))
    {
        fail(format_args!(
            "/v1/trace does not contain the traced solve {header_id}"
        ));
    }
    println!("serve_smoke: /v1/trace contains the traced solve");

    // Prometheus exposition: structurally valid, naming-gated, and its
    // solve-latency p99 agrees with /v1/metrics (same histogram, scraped
    // back to back with no solves in between).
    let json_metrics = client
        .get("/v1/metrics")
        .unwrap_or_else(|e| fail(format_args!("metrics re-read failed: {e}")));
    let prom = client
        .get("/metrics")
        .unwrap_or_else(|e| fail(format_args!("prometheus request failed: {e}")));
    if prom.status != 200 {
        fail(format_args!("/metrics returned {}", prom.status));
    }
    if let Err(e) = faircap_obs::validate_exposition(&prom.body) {
        fail(format_args!("invalid Prometheus exposition: {e}"));
    }
    if let Err(bad) = faircap_obs::validate_naming(&prom.body, "faircap_") {
        fail(format_args!("metric names outside faircap_*: {bad:?}"));
    }
    let json_doc = Json::parse(&json_metrics.body)
        .unwrap_or_else(|e| fail(format_args!("bad metrics JSON: {e}")));
    let json_p99_ms = json_doc
        .get("solve_latency")
        .and_then(|l| l.get("p99_ms"))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| fail("metrics without solve_latency.p99_ms"));
    let prom_p99_ms = prom_bucket_quantile(&prom.body, "faircap_serve_solve_latency_us", 0.99)
        .unwrap_or_else(|| fail("no faircap_serve_solve_latency_us buckets"))
        / 1e3;
    // The JSON p99 clamps its bucket bound to the exact max; the bucket
    // quantile cannot, so it may exceed the JSON value by at most one
    // bucket's relative width.
    let ceiling = json_p99_ms * (1.0 + faircap_obs::RELATIVE_ERROR_BOUND) + 1e-3;
    if prom_p99_ms + 1e-9 < json_p99_ms || prom_p99_ms > ceiling {
        fail(format_args!(
            "solve-latency p99 disagrees: /metrics {prom_p99_ms:.3} ms vs /v1/metrics \
             {json_p99_ms:.3} ms (ceiling {ceiling:.3} ms)"
        ));
    }
    println!(
        "serve_smoke: /metrics OK (exposition valid, p99 {prom_p99_ms:.2} ms vs JSON {json_p99_ms:.2} ms)"
    );

    let shutdown = client
        .post_json("/v1/shutdown", "{}")
        .unwrap_or_else(|e| fail(format_args!("shutdown request failed: {e}")));
    if shutdown.status != 200 {
        fail(format_args!("shutdown returned {}", shutdown.status));
    }
    println!("serve_smoke: PASS");
}
