//! Scale-harness integration tests for `faircap-scenario`: the planted
//! ground truth is actually recovered by the adjusted estimators at
//! benchmark sizes, the unadjusted estimate is provably biased (the
//! confounding has teeth), covariate-free matching refuses
//! scenario-scale groups through its brute-force pair budget (the
//! KD-tree index keeps the adjusted runs inside it), generation is
//! bit-reproducible at 10⁵ rows, and the
//! replayer drives a real served instance end to end.

use faircap::causal::{CausalError, Estimator as _, EstimatorKind};
use faircap::core::SessionRegistry;
use faircap::scenario::{
    check_recovery, default_epsilon, generate, naive_bias, replay, Arrival, RecoveryOptions,
    ReplayOptions, ReplayTarget, ScenarioSpec, TruthGroup, WorkloadMix,
};
use faircap::serve::{ServeConfig, Server};
use faircap::table::{Pattern, Value};
use std::sync::Arc;
use std::time::Duration;

/// Big enough that the recovery tolerance (1.0 + 4·se) is a real test and
/// the matching budget trips; small enough for a debug-profile test run.
fn scale_spec() -> ScenarioSpec {
    ScenarioSpec {
        name: "itest".into(),
        rows: 20_000,
        ..ScenarioSpec::default()
    }
}

#[test]
fn adjusted_estimators_recover_planted_truth_at_scale() {
    let sc = generate(&scale_spec()).unwrap();
    let checks = check_recovery(&sc, &RecoveryOptions::default()).unwrap();
    // flexible × {protected, non-protected, all}
    //          × {stratified, ipw, aipw, matching}.
    assert_eq!(checks.len(), sc.spec.flexible * 3 * 4);
    let failures: Vec<String> = checks
        .iter()
        .filter(|c| !c.pass)
        .map(|c| c.to_string())
        .collect();
    assert!(failures.is_empty(), "{failures:#?}");
}

#[test]
fn unadjusted_estimate_is_provably_biased() {
    let sc = generate(&scale_spec()).unwrap();
    for treatment in &sc.dataset.mutable {
        let r = naive_bias(&sc, treatment).unwrap();
        assert!(
            r.biased(1.0, 4.0),
            "difference-in-means on {treatment} should be confounded: {r}"
        );
    }
}

#[test]
fn matching_budget_refuses_covariate_free_scenario_groups() {
    // With covariates the KD-tree index now carries scenario-scale groups
    // within budget (asserted by the recovery test above), so the refusal
    // path is exercised where the tree genuinely cannot help: an empty
    // adjustment set has no matching dimensions, the brute-force pair
    // scan is the only path, and 40 000 rows with treated fractions in
    // the generator's [0.2, 0.8] band mean at least
    // 8 000 × 32 000 = 2.56·10⁸ pair distances — over the 2·10⁸ default
    // budget, so matching must refuse with the typed error instead of
    // grinding quadratically.
    let sc = generate(&ScenarioSpec {
        rows: 40_000,
        ..scale_spec()
    })
    .unwrap();
    let treated = Pattern::of_eq(&[("f0", Value::from("yes"))])
        .coverage(&sc.dataset.df)
        .unwrap();
    let err = EstimatorKind::Matching
        .estimate(
            &sc.dataset.df,
            &sc.group_mask(TruthGroup::All),
            &treated,
            &sc.dataset.outcome,
            &[],
        )
        .unwrap_err();
    match err {
        CausalError::EstimatorBudget { work, budget, .. } => {
            assert!(work > budget, "{work} vs {budget}")
        }
        other => panic!("expected EstimatorBudget, got {other}"),
    }
}

#[test]
fn generation_is_bit_reproducible_at_benchmark_scale() {
    let spec = ScenarioSpec {
        rows: 100_000,
        ..ScenarioSpec::default()
    };
    let a = generate(&spec).unwrap();
    let b = generate(&spec).unwrap();
    assert_eq!(a.fingerprint(), b.fingerprint());
    // The planted truth is closed-form — identical across re-generations
    // by construction, not by sampling luck.
    assert_eq!(a.truth, b.truth);
}

#[test]
fn replayer_drives_a_served_scenario_end_to_end() {
    let spec = ScenarioSpec {
        name: "served".into(),
        rows: 4_000,
        ..ScenarioSpec::default()
    };
    let sc = generate(&spec).unwrap();
    let registry = Arc::new(SessionRegistry::new());
    registry
        .register("syn", sc.session().unwrap())
        .expect("fresh registry");
    let server = Server::start(
        ServeConfig {
            max_concurrent_solves: 2,
            solve_queue_depth: 64,
            ..ServeConfig::default()
        },
        registry,
    )
    .expect("ephemeral port");
    let client = server.client();
    client.wait_ready(Duration::from_secs(30)).unwrap();

    let options = ReplayOptions {
        mix: WorkloadMix::preset("sweep", default_epsilon(&spec)).unwrap(),
        arrival: Arrival::Closed { clients: 2 },
        total: 10,
        cold_fraction: 0.2,
    };
    let target = ReplayTarget::Http {
        client,
        session: "syn".into(),
    };
    let report = replay(&target, &options, &spec).unwrap();
    assert_eq!(report.ok, 10, "{}", report.summary());
    assert_eq!(report.rows, 4_000);
    assert_eq!(report.seed, 7);
    assert!(
        report.cache_hits + report.cache_misses > 0,
        "server-side cache counters must flow into the report: {}",
        report.summary()
    );
    // A misrouted session yields zero successes, not a false benchmark.
    let lost = ReplayTarget::Http {
        client: server.client(),
        session: "no-such-session".into(),
    };
    let report = replay(&lost, &options, &spec).unwrap();
    assert_eq!(report.ok, 0, "{}", report.summary());
    server.shutdown();
}
