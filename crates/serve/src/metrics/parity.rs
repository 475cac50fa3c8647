//! The metric table's contracts: every Prometheus name follows the naming
//! scheme, and every row reads the same on `/v1/metrics` and `/metrics`.

use super::*;
use crate::{ServeConfig, Server};
use faircap_causal::Dag;
use faircap_core::{FairCap, SessionRegistry};
use faircap_obs::{validate_exposition, validate_naming, RELATIVE_ERROR_BOUND};
use faircap_table::{Pattern, Value as Cell};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Rows whose value may move between two back-to-back scrapes because the
/// scrapes themselves are traffic.
const VOLATILE: [&str; 8] = [
    "faircap_serve_uptime_seconds",
    "faircap_serve_http_requests_total",
    "faircap_serve_connections_open",
    "faircap_serve_connections_accepted_total",
    "faircap_serve_connections_closed_total",
    "faircap_serve_request_latency_us",
    "faircap_serve_reactor_read_us",
    "faircap_serve_reactor_write_us",
];

/// Every row's Prometheus name (if any), kind, JSON paths, and whether it
/// is an info row, over both tables.
fn rows() -> Vec<(Option<&'static str>, Kind, Vec<&'static str>, bool)> {
    let info = |read: &Read<_>| matches!(read, Info(..));
    let server = SERVER
        .iter()
        .map(|m| (m.prom, m.kind, m.json, info(&m.read)));
    let session = SESSION
        .iter()
        .map(|m| (m.prom, m.kind, m.json, matches!(m.read, Info(..))));
    server
        .chain(session)
        .map(|(prom, kind, json, info)| (prom, kind, json.split(',').collect(), info))
        .collect()
}

#[test]
fn every_prometheus_name_follows_the_scheme() {
    let mut names = BTreeSet::new();
    for (prom, kind, paths, info) in rows() {
        let Some(name) = prom else {
            assert!(info, "{paths:?}: only info fields may skip /metrics");
            continue;
        };
        assert!(names.insert(name), "{name} is declared twice");
        validate_naming(&format!("{name} 1"), "faircap_")
            .unwrap_or_else(|bad| panic!("{bad:?} breaks the faircap_ naming scheme"));
        let timed = ["_seconds", "_ms", "_us", "_ns"]
            .iter()
            .any(|unit| name.trim_end_matches("_total").ends_with(unit));
        match kind {
            Kind::Counter => assert!(name.ends_with("_total"), "counter {name} lacks _total"),
            Kind::Gauge => assert!(!name.ends_with("_total"), "gauge {name} ends in _total"),
            Kind::Histogram => assert!(timed, "histogram {name} lacks a time unit"),
        }
        assert_eq!(
            info,
            name.ends_with("_info"),
            "{name}: info gauges end in _info"
        );
        for path in paths {
            if path.ends_with("_ms") {
                assert!(timed, "{path} is in ms but {name} carries no time unit");
            }
            if path.ends_with("_seconds") {
                assert!(name.ends_with("_seconds"), "{path} vs {name}");
            }
        }
    }
}

/// The 2k-row Stack Overflow stand-in the integration tests serve.
fn small_server() -> Server {
    let ds = faircap_data::so::generate(2_000, 3);
    let keep = ["gdp_group", "age", "certifications", "training", "salary"];
    let session = FairCap::builder()
        .data(ds.df.select(&keep).unwrap())
        .dag(
            Dag::parse_edge_list(
                "gdp_group -> salary\nage -> salary\ncertifications -> salary\ntraining -> salary",
            )
            .unwrap(),
        )
        .outcome("salary")
        .immutable(["gdp_group", "age"])
        .mutable(["certifications", "training"])
        .protected(Pattern::of_eq(&[("gdp_group", Cell::from("low"))]))
        .build()
        .unwrap();
    let registry = Arc::new(SessionRegistry::new());
    registry.register("so", session);
    let config = ServeConfig {
        max_concurrent_solves: 1,
        ..ServeConfig::default()
    };
    Server::start(config, registry).unwrap()
}

type Labels = Vec<(String, String)>;

/// Every sample line of an exposition, keyed by name and sorted labels.
fn parse_prom(text: &str) -> BTreeMap<(String, Labels), f64> {
    let mut out = BTreeMap::new();
    for line in text.lines().filter(|l| !l.starts_with('#')) {
        let (series, value) = line.rsplit_once(' ').unwrap();
        let (name, labels) = series.split_once('{').unwrap_or((series, ""));
        let mut labels: Labels = labels
            .trim_end_matches('}')
            .split("\",")
            .filter(|pair| !pair.is_empty())
            .map(|pair| {
                let (k, v) = pair.split_once("=\"").unwrap();
                (k.to_owned(), v.trim_end_matches('"').to_owned())
            })
            .collect();
        labels.sort();
        let value = if value == "+Inf" {
            f64::INFINITY
        } else {
            value.parse().unwrap()
        };
        out.insert((name.to_owned(), labels), value);
    }
    out
}

/// Nearest-rank p99 over a histogram's cumulative `_bucket` series.
fn bucket_p99(prom: &BTreeMap<(String, Labels), f64>, name: &str, labels: &Labels) -> f64 {
    let bucket = format!("{name}_bucket");
    let mut buckets: Vec<(f64, f64)> = prom
        .iter()
        .filter(|((n, l), _)| *n == bucket && l.iter().filter(|(k, _)| k != "le").eq(labels))
        .map(|((_, l), &cum)| {
            let le = &l.iter().find(|(k, _)| k == "le").unwrap().1;
            (
                if le == "+Inf" {
                    f64::INFINITY
                } else {
                    le.parse().unwrap()
                },
                cum,
            )
        })
        .collect();
    buckets.sort_by(|a, b| a.0.total_cmp(&b.0));
    let total = buckets.last().unwrap().1;
    let rank = (0.99 * total).ceil().max(1.0);
    buckets.iter().find(|(_, cum)| *cum >= rank).unwrap().0
}

fn num(doc: &Json, path: &str) -> f64 {
    doc.get_path(path)
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("/v1/metrics lacks {path}"))
}

/// Check one row's sample at JSON `path` and as `name{labels}` on
/// Prometheus; `before` and `after` are the JSON scrapes around `prom`.
fn check_sample(
    name: &str,
    path: &str,
    labels: Labels,
    value: &Value,
    before: &Json,
    after: &Json,
    prom: &BTreeMap<(String, Labels), f64>,
) {
    let moved = before.get_path(path) != after.get_path(path);
    assert!(
        !moved || VOLATILE.contains(&name),
        "{path} moved between scrapes"
    );
    match value {
        Value::Num(_) => {
            let scraped = prom
                .get(&(name.to_owned(), labels.clone()))
                .unwrap_or_else(|| panic!("/metrics lacks {name}{labels:?}"));
            let scraped = if path.ends_with("_ms") {
                to_ms(name, *scraped)
            } else {
                *scraped
            };
            let (a, b) = (num(before, path), num(after, path));
            let slack = 1e-9 * a.abs().max(b.abs()).max(1.0);
            assert!(
                a.min(b) - slack <= scraped && scraped <= a.max(b) + slack,
                "{path} = {a}..{b} on JSON but {name}{labels:?} = {scraped}"
            );
        }
        Value::Hist(_) => {
            let count = prom
                .get(&(format!("{name}_count"), labels.clone()))
                .unwrap_or_else(|| panic!("/metrics lacks {name}_count{labels:?}"));
            let json_count = |doc: &Json| match doc.get_path(path) {
                Some(Json::Null) => 0.0,
                _ => num(doc, &format!("{path}.count")),
            };
            let (a, b) = (json_count(before), json_count(after));
            assert!(
                a <= *count && *count <= b,
                "{path}.count {a}..{b} vs {count}"
            );
            if a == b && a > 0.0 {
                let json_p99 = num(before, &format!("{path}.p99_ms"));
                let prom_p99 = to_ms(name, bucket_p99(prom, name, &labels));
                let ceiling = json_p99 * (1.0 + RELATIVE_ERROR_BOUND) + 1e-9;
                assert!(
                    json_p99 <= prom_p99 && prom_p99 <= ceiling,
                    "{path}.p99_ms {json_p99} vs {name} bucket p99 {prom_p99}"
                );
            }
        }
        Value::Json(json) => {
            assert_eq!(before.get_path(path), Some(json), "{path}");
            let (key, label) = labels.last().unwrap();
            assert_eq!(Some(label.as_str()), json.as_str(), "{name} label {key}");
            assert_eq!(prom.get(&(name.to_owned(), labels.clone())), Some(&1.0));
        }
    }
}

#[test]
fn json_and_prometheus_agree_on_every_row() {
    let server = small_server();
    let client = server.client();
    client.wait_ready(Duration::from_secs(30)).unwrap();
    let mut conn = client.connect().unwrap();

    // One cold solve with a coalesced duplicate, then a traced solve.
    let body = Some(r#"{"max_rules": 4}"#);
    for response in conn.pipeline(&[("POST", "/v1/solve", body); 2]).unwrap() {
        assert_eq!(response.status, 200, "{}", response.body);
    }
    let traced = conn.request(
        "POST",
        "/v1/solve",
        Some(r#"{"max_rules": 4, "trace": true}"#),
    );
    assert_eq!(traced.unwrap().status, 200);

    let mut scrape = |path: &str| {
        let response = conn.request("GET", path, None).unwrap();
        assert_eq!(response.status, 200, "{path}: {}", response.body);
        response.body
    };
    let before = Json::parse(&scrape("/v1/metrics")).unwrap();
    let text = scrape("/metrics");
    let after = Json::parse(&scrape("/v1/metrics")).unwrap();
    let listed = Json::parse(&scrape("/v1/sessions")).unwrap();
    validate_exposition(&text).unwrap();
    validate_naming(&text, "faircap_").unwrap();
    let prom = parse_prom(&text);
    assert_eq!(
        num(&before, "requests.coalesce_hits"),
        1.0,
        "the duplicate coalesced"
    );

    let inner = &server.inner;
    for row in SERVER {
        let Some(name) = row.prom else { continue };
        for (label, key, value) in row.samples(inner) {
            let labels: Labels = label.map(|(k, v)| (k.to_owned(), v)).into_iter().collect();
            for path in row.json.split(',') {
                let path = path.replace("{}", &key);
                check_sample(name, &path, labels.clone(), &value, &before, &after, &prom);
            }
        }
    }
    for entry in server.registry().entries() {
        for row in SESSION {
            let Some(name) = row.prom else { continue };
            for (label, key, value) in row.samples(&entry) {
                let mut labels = vec![("session".to_owned(), entry.name().to_owned())];
                labels.extend(label.map(|(k, v)| (k.to_owned(), v)));
                labels.sort();
                let path = format!("sessions.{}.{}", entry.name(), row.json.replace("{}", &key));
                check_sample(name, &path, labels, &value, &before, &after, &prom);
            }
        }
    }

    // The JSON-only fields: identity and structure, not metrics.
    let json_only: Vec<&str> = rows()
        .into_iter()
        .filter(|(prom, ..)| prom.is_none())
        .flat_map(|(_, _, paths, _)| paths)
        .collect();
    assert_eq!(
        json_only,
        [
            "name",
            "outcome",
            "warm_boot",
            "estimate_cache_by_estimator",
            "exec"
        ]
    );
    let version = before.get("version").and_then(Json::as_str);
    assert_eq!(version, Some(env!("CARGO_PKG_VERSION")));
    let so = before.get_path("sessions.so").unwrap();
    assert_eq!(so.get("name").and_then(Json::as_str), Some("so"));
    assert_eq!(so.get("outcome").and_then(Json::as_str), Some("salary"));
    assert_eq!(so.get("warm_boot"), Some(&Json::Null), "a cold boot");
    assert!(so
        .get_path("estimate_cache_by_estimator.linear.hits")
        .is_some());
    // The linear solves built cell tables (each sample of the cache rows,
    // `cell_table` among them, was checked against `/metrics` above).
    let tables = so
        .get_path("cell_table_cache.misses")
        .and_then(Json::as_f64);
    assert!(tables.is_some_and(|m| m > 0.0), "{tables:?}");
    let exec = so.get("exec").unwrap();
    assert!(
        *exec == Json::Null || exec.get("workers").is_some(),
        "{exec:?}"
    );

    // `/v1/sessions` lists the very objects `/v1/metrics` nests.
    let listed = listed.get("sessions").and_then(Json::as_arr).unwrap();
    assert_eq!(listed, [after.get_path("sessions.so").unwrap().clone()]);
    server.shutdown();
}
