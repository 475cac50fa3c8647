//! Estimator-correctness integration tests: the double-robustness property
//! of AIPW under deliberately misspecified nuisance models, matching vs.
//! stratification agreement on exactly matched covariates, and end-to-end
//! German-credit rulesets under the new estimators.
//!
//! The misspecification fixtures are deterministic (no sampling noise), so
//! the consistency assertions are tight: when the nuisance model that AIPW
//! still gets right is *exactly* fitted, the doubly-robust score cancels
//! the other model's bias to machine precision.

use faircap::causal::{Estimator, EstimatorKind};
use faircap::data::german;
use faircap::table::{DataFrame, Mask};
use faircap::{FairCap, SolveRequest};

/// Planted treatment effect shared by the misspecification fixtures.
const TAU: f64 = 10.0;

/// Fixture 1 — **outcome model misspecified, propensity model correct.**
///
/// `z ∈ {−1, 0, 1}`, treatment rates `p(z) = σ(ln3 + ln3·z)` =
/// (0.5, 0.75, 0.9) — exactly on a logistic curve, so the IRLS propensity
/// fit is exact. The outcome `y = τ·T + 20·z²` is *quadratic* in `z`, so
/// the linear per-arm outcome regressions are misspecified and the
/// outcome-regression estimator is biased.
fn quadratic_outcome_frame() -> (DataFrame, Mask) {
    let mut z = Vec::new();
    let mut t = Vec::new();
    let mut y = Vec::new();
    // (z value, rows, treated rows): empirical rates exactly 0.5/0.75/0.9.
    for &(zv, n_z, n_t) in &[(-1.0, 400usize, 200usize), (0.0, 400, 300), (1.0, 400, 360)] {
        for i in 0..n_z {
            let ti = i < n_t;
            z.push(zv);
            t.push(ti);
            y.push(if ti { TAU } else { 0.0 } + 20.0 * zv * zv);
        }
    }
    let treated = Mask::from_bools(&t);
    let df = DataFrame::builder()
        .float("z", z)
        .float("y", y)
        .build()
        .unwrap();
    (df, treated)
}

/// Fixture 2 — **propensity model misspecified, outcome model correct.**
///
/// Treatment rates (0.9, 0.1, 0.6) over `z ∈ {−1, 0, 1}` are non-monotone,
/// so no logistic-in-`z` model can represent them — the propensity fit is
/// misspecified and plain IPW is biased. The outcome `y = τ·T + 50·z` is
/// exactly linear, so the per-arm outcome regressions are exact (and the
/// steep slope amplifies any covariate imbalance the wrong weights leave).
fn nonlogistic_propensity_frame() -> (DataFrame, Mask) {
    let mut z = Vec::new();
    let mut t = Vec::new();
    let mut y = Vec::new();
    for &(zv, n_z, n_t) in &[(-1.0, 100usize, 90usize), (0.0, 100, 10), (1.0, 100, 60)] {
        for i in 0..n_z {
            let ti = i < n_t;
            z.push(zv);
            t.push(ti);
            y.push(if ti { TAU } else { 0.0 } + 50.0 * zv);
        }
    }
    let treated = Mask::from_bools(&t);
    let df = DataFrame::builder()
        .float("z", z)
        .float("y", y)
        .build()
        .unwrap();
    (df, treated)
}

fn cate_of(kind: EstimatorKind, df: &DataFrame, treated: &Mask) -> f64 {
    let all = Mask::ones(df.n_rows());
    kind.estimate(df, &all, treated, "y", &["z".into()])
        .unwrap()
        .cate
}

#[test]
fn aipw_survives_misspecified_outcome_model() {
    let (df, treated) = quadratic_outcome_frame();
    let aipw = cate_of(EstimatorKind::Aipw, &df, &treated);
    assert!(
        (aipw - TAU).abs() < 1e-3,
        "AIPW must stay consistent when only the propensity model is correct: {aipw}"
    );
    // The test has teeth: the outcome-regression estimator alone is biased
    // by the omitted quadratic term.
    let linear = cate_of(EstimatorKind::Linear, &df, &treated);
    assert!(
        (linear - TAU).abs() > 0.2,
        "fixture must actually misspecify the outcome model (linear = {linear})"
    );
}

#[test]
fn aipw_survives_misspecified_propensity_model() {
    let (df, treated) = nonlogistic_propensity_frame();
    let aipw = cate_of(EstimatorKind::Aipw, &df, &treated);
    // The outcome regressions are exact here, so the residual terms of the
    // doubly-robust score vanish identically — machine precision.
    assert!(
        (aipw - TAU).abs() < 1e-9,
        "AIPW must stay consistent when only the outcome model is correct: {aipw}"
    );
    let ipw = cate_of(EstimatorKind::Ipw, &df, &treated);
    assert!(
        (ipw - TAU).abs() > 0.5,
        "fixture must actually misspecify the propensity model (ipw = {ipw})"
    );
}

#[test]
fn aipw_matches_truth_when_both_models_correct() {
    // Linear outcome and logistic propensity: every estimator's happy path.
    let mut z = Vec::new();
    let mut t = Vec::new();
    let mut y = Vec::new();
    for &(zv, n_z, n_t) in &[(-1.0, 200usize, 50usize), (1.0, 200, 150)] {
        for i in 0..n_z {
            let ti = i < n_t;
            z.push(zv);
            t.push(ti);
            y.push(if ti { TAU } else { 0.0 } + 7.0 * zv);
        }
    }
    let treated = Mask::from_bools(&t);
    let df = DataFrame::builder()
        .float("z", z)
        .float("y", y)
        .build()
        .unwrap();
    let aipw = cate_of(EstimatorKind::Aipw, &df, &treated);
    assert!((aipw - TAU).abs() < 1e-6, "aipw = {aipw}");
}

#[test]
fn matching_agrees_with_stratification_on_exact_matches() {
    // Two categorical covariates, every joint stratum holding both arms:
    // tie-inclusive k-NN matching at distance zero reproduces the exact
    // stratification estimate.
    let mut a = Vec::new();
    let mut b = Vec::new();
    let mut t = Vec::new();
    let mut y = Vec::new();
    for (si, (av, bv)) in [("u", "x"), ("u", "w"), ("v", "x"), ("v", "w")]
        .into_iter()
        .enumerate()
    {
        for i in 0..24 {
            let ti = i % 3 == 0 || (si % 2 == 0 && i % 2 == 0);
            a.push(av);
            b.push(bv);
            t.push(ti);
            // Stratum-specific baseline and effect.
            y.push(si as f64 * 30.0 + if ti { 4.0 + si as f64 } else { 0.0 });
        }
    }
    let treated = Mask::from_bools(&t);
    let df = DataFrame::builder()
        .cat("a", &a)
        .cat("b", &b)
        .float("y", y)
        .build()
        .unwrap();
    let all = Mask::ones(df.n_rows());
    let adjustment = vec!["a".to_string(), "b".to_string()];
    let m = EstimatorKind::Matching
        .estimate(&df, &all, &treated, "y", &adjustment)
        .unwrap();
    let s = EstimatorKind::Stratified
        .estimate(&df, &all, &treated, "y", &adjustment)
        .unwrap();
    assert!(
        (m.cate - s.cate).abs() < 1e-9,
        "matching {} vs stratified {}",
        m.cate,
        s.cate
    );
    assert_eq!(m.n_treated, s.n_treated);
    assert_eq!(m.n_control, s.n_control);
}

#[test]
fn new_estimators_produce_german_credit_rulesets() {
    // Acceptance: `session.solve()` with AIPW and matching yields rulesets
    // on the German-credit example, and the per-estimator cache stats are
    // keyed by estimator name.
    let ds = german::generate(german::GERMAN_DEFAULT_ROWS, 42);
    let session = FairCap::builder()
        .data(ds.df)
        .dag(ds.dag)
        .outcome(ds.outcome)
        .immutable(ds.immutable)
        .mutable(ds.mutable)
        .protected(ds.protected)
        .build()
        .unwrap();
    // Single-predicate patterns keep the candidate lattice small enough for
    // a debug-build test; the release-mode `paper ablation_estimators`
    // section runs the full-size sweep.
    let mut config = faircap::core::FairCapConfig {
        apriori_threshold: 0.2,
        max_group_len: 1,
        max_intervention_len: 1,
        ..Default::default()
    };
    for kind in [EstimatorKind::Aipw, EstimatorKind::Matching] {
        config.estimator = kind;
        let report = session.solve(&SolveRequest::from(config.clone())).unwrap();
        assert!(
            !report.rules.is_empty(),
            "{} produced an empty ruleset",
            kind.name()
        );
        let stats = session.engine().cache_stats_for(kind.name());
        assert!(stats.misses > 0, "{} did no estimation work?", kind.name());
    }
    let per = session.cache_stats_by_estimator();
    assert!(per.contains_key("aipw") && per.contains_key("matching"));
}
