//! Session snapshot / warm-start integration tests on the German Credit
//! stand-in — the serving-restart story: solve, snapshot to disk, restart
//! into a fresh session, and re-solve with **zero** estimate-cache misses
//! and a bit-identical ruleset.

use faircap::causal::EstimatorKind;
use faircap::core::{SessionSnapshot, SolutionReport};
use faircap::data::{german, Dataset};
use faircap::{FairCap, PrescriptionSession, SolveRequest};

fn dataset() -> Dataset {
    german::generate(1_200, 7)
}

fn session(ds: &Dataset) -> faircap::core::SessionBuilder {
    FairCap::builder()
        .data(ds.df.clone())
        .dag(ds.dag.clone())
        .outcome(&ds.outcome)
        .immutable(ds.immutable.iter().cloned())
        .mutable(ds.mutable.iter().cloned())
        .protected(ds.protected.clone())
}

fn fingerprint(report: &SolutionReport) -> (Vec<String>, String) {
    (
        report.rules.iter().map(|r| r.to_string()).collect(),
        format!("{:?}", report.summary),
    )
}

#[test]
fn warm_started_session_solves_with_zero_misses() {
    let ds = dataset();
    let cold: PrescriptionSession = session(&ds).build().unwrap();
    let cold_report = cold.solve(&SolveRequest::default()).unwrap();
    assert!(cold.cache_stats().misses > 0, "cold solve estimates");

    // Serialize to disk and restore — the restart path, not just an
    // in-process handoff.
    let path = std::env::temp_dir().join("faircap_snapshot_integration.fc");
    std::fs::write(&path, cold.snapshot().encode()).unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    let snapshot = SessionSnapshot::decode(&text).unwrap();
    assert_eq!(snapshot.n_rows, ds.df.n_rows());

    let warm: PrescriptionSession = session(&ds).warm_start(snapshot).build().unwrap();
    let warm_report = warm.solve(&SolveRequest::default()).unwrap();

    let stats = warm.cache_stats();
    assert_eq!(
        stats.misses, 0,
        "a warm-started re-solve of the identical workload must not estimate anything"
    );
    assert!(stats.hits > 0, "…and must actually hit the restored cache");
    assert_eq!(
        fingerprint(&warm_report),
        fingerprint(&cold_report),
        "warm and cold solves must produce identical rulesets"
    );
}

#[test]
fn warm_start_covers_constraint_sweeps_seen_before_the_snapshot() {
    use faircap::core::{FairnessConstraint, FairnessScope};
    let ds = dataset();
    let cold = session(&ds).build().unwrap();
    let sweep = [
        FairnessConstraint::None,
        FairnessConstraint::StatisticalParity {
            scope: FairnessScope::Group,
            epsilon: 0.05,
        },
    ];
    for fairness in sweep {
        cold.solve(&SolveRequest::default().fairness(fairness))
            .unwrap();
    }
    let snapshot = SessionSnapshot::decode(&cold.snapshot().encode()).unwrap();
    let warm = session(&ds).warm_start(snapshot).build().unwrap();
    for fairness in sweep {
        warm.solve(&SolveRequest::default().fairness(fairness))
            .unwrap();
    }
    assert_eq!(
        warm.cache_stats().misses,
        0,
        "the snapshot covers the whole sweep, not just the last solve"
    );
}

/// A snapshot carries estimates only, so a warm session asked for an
/// estimator the snapshot never ran re-derives each adjustment set from the
/// DAG and estimates exactly what a cold session would.
#[test]
fn warm_start_with_an_unsnapshotted_estimator_matches_a_cold_session() {
    let ds = dataset();
    let linear = SolveRequest::default().estimator_kind(EstimatorKind::Linear);
    let stratified = SolveRequest::default().estimator_kind(EstimatorKind::Stratified);

    let snapshotted = session(&ds).build().unwrap();
    snapshotted.solve(&linear).unwrap();
    let text = snapshotted.snapshot().encode();
    assert!(text.starts_with("faircap-snapshot v4\n"), "{}", &text[..40]);
    let snapshot = SessionSnapshot::decode(&text).unwrap();
    assert!(snapshot.state.estimates.iter().all(|e| e.0 == "linear"));

    let warm = session(&ds).warm_start(snapshot).build().unwrap();
    let warm_report = warm.solve(&stratified).unwrap();
    let cold = session(&ds).build().unwrap();
    let cold_report = cold.solve(&stratified).unwrap();

    assert!(cold.cache_stats().misses > 0, "the cold solve estimates");
    assert_eq!(
        warm.cache_stats().misses,
        cold.cache_stats().misses,
        "the warm session estimates exactly what the cold one does"
    );
    assert_eq!(fingerprint(&warm_report), fingerprint(&cold_report));
}
