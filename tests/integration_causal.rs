//! Integration tests for the causal substrate against the data generators'
//! planted ground truth, including the Table 6 DAG variants and PC
//! discovery.

use faircap::causal::{CateEngine, EstimatorKind};
use faircap::data::{build_dag_variant, german, so, DagVariant};
use faircap::table::{Mask, Pattern, Value};
use std::sync::Arc;

#[test]
fn linear_and_stratified_agree_on_so() {
    let ds = so::generate(12_000, 5);
    let engine =
        CateEngine::new(Arc::new(ds.df.clone()), Arc::new(ds.dag.clone()), "salary").unwrap();
    let all = Mask::ones(ds.df.n_rows());
    for (attr, value) in [
        ("certifications", "yes"),
        ("open_source", "yes"),
        ("training", "yes"),
    ] {
        let p = Pattern::of_eq(&[(attr, Value::from(value))]);
        let linear = engine.cate(&all, &p, &EstimatorKind::Linear);
        let strat = engine.cate(&all, &p, &EstimatorKind::Stratified);
        let a = linear.expect("linear estimable").cate;
        let b = strat.expect("stratified estimable").cate;
        let scale = a.abs().max(1_000.0);
        assert!(
            (a - b).abs() / scale < 0.5,
            "{attr}: linear {a} vs stratified {b}"
        );
    }
}

#[test]
fn ipw_agrees_with_linear_on_so() {
    let ds = so::generate(12_000, 5);
    let engine =
        CateEngine::new(Arc::new(ds.df.clone()), Arc::new(ds.dag.clone()), "salary").unwrap();
    let all = Mask::ones(ds.df.n_rows());
    for (attr, value) in [("certifications", "yes"), ("training", "yes")] {
        let p = Pattern::of_eq(&[(attr, Value::from(value))]);
        let linear = engine.cate(&all, &p, &EstimatorKind::Linear);
        let ipw = engine.cate(&all, &p, &EstimatorKind::Ipw);
        let a = linear.expect("linear estimable").cate;
        let b = ipw.expect("ipw estimable").cate;
        assert!((a - b).abs() < 2_000.0, "{attr}: linear {a} vs ipw {b}");
    }
}

#[test]
fn planted_effects_recovered_within_tolerance() {
    let ds = so::generate(25_000, 13);
    let engine =
        CateEngine::new(Arc::new(ds.df.clone()), Arc::new(ds.dag.clone()), "salary").unwrap();
    let linear = |group: &Mask, p: &Pattern| {
        let est = engine.cate(group, p, &EstimatorKind::Linear);
        est.expect("estimable").cate
    };
    let prot = ds.protected_mask();
    let nonprot = !&prot;
    // (pattern, group, planted effect)
    let cases = [
        ("certifications", so::CERTIFICATIONS_EFFECT),
        ("open_source", so::OPEN_SOURCE_EFFECT),
        ("training", so::TRAINING_EFFECT),
        ("remote_work", so::REMOTE_EFFECT),
    ];
    for (attr, (effect_np, effect_p)) in cases {
        let p = Pattern::of_eq(&[(attr, Value::from("yes"))]);
        let est_np = linear(&nonprot, &p);
        let est_p = linear(&prot, &p);
        assert!(
            (est_np - effect_np).abs() < 2_000.0,
            "{attr} non-protected: {est_np} vs planted {effect_np}"
        );
        assert!(
            (est_p - effect_p).abs() < 2_500.0,
            "{attr} protected: {est_p} vs planted {effect_p}"
        );
    }
}

#[test]
fn adjustment_matters_education_is_confounded() {
    // Education is confounded by age / parents' education / GDP; the
    // 1-layer DAG (no adjustment) must disagree with the original DAG.
    let ds = so::generate(20_000, 21);
    let one_layer = build_dag_variant(&ds, DagVariant::OneLayerIndep);
    let df = Arc::new(ds.df.clone());
    let adjusted_engine =
        CateEngine::new(Arc::clone(&df), Arc::new(ds.dag.clone()), "salary").unwrap();
    let naive_engine =
        CateEngine::new(Arc::clone(&df), Arc::new(one_layer.clone()), "salary").unwrap();
    let nonprot = !&ds.protected_mask();
    let p = Pattern::of_eq(&[("education", Value::from("phd"))]);
    let est_adj = adjusted_engine
        .cate(&nonprot, &p, &EstimatorKind::Linear)
        .expect("estimable")
        .cate;
    let est_naive = naive_engine
        .cate(&nonprot, &p, &EstimatorKind::Linear)
        .expect("estimable")
        .cate;
    // Ground truth: CATE contrasts phd against the *control mix* of
    // education levels, so the planted phd premium (18k vs `none`) minus
    // the control rows' average planted premium is the target.
    let control = nonprot.andnot(&p.coverage(&ds.df).unwrap());
    let mut control_mean_effect = 0.0;
    for (level, effect) in [("none", 0.0), ("bachelor", 12_000.0), ("master", 16_000.0)] {
        let level_mask = Pattern::of_eq(&[("education", Value::from(level))])
            .coverage(&ds.df)
            .unwrap();
        let share = control.intersect_count(&level_mask) as f64 / control.count() as f64;
        control_mean_effect += share * effect;
    }
    let truth = 18_000.0 - control_mean_effect;
    assert!(
        (est_adj - truth).abs() < 2_500.0,
        "adjusted {est_adj} should be near control-mix truth {truth}"
    );
    assert!(
        (est_naive - truth).abs() > (est_adj - truth).abs(),
        "naive {est_naive} should be further from truth {truth} than adjusted {est_adj}"
    );
}

#[test]
fn dag_variants_have_expected_structure() {
    let ds = so::generate(1_000, 3);
    let one = build_dag_variant(&ds, DagVariant::OneLayerIndep);
    assert_eq!(one.n_edges(), ds.attributes().len());
    let two_mut = build_dag_variant(&ds, DagVariant::TwoLayerMutable);
    assert_eq!(
        two_mut.n_edges(),
        ds.immutable.len() * ds.mutable.len() + ds.mutable.len()
    );
    let two = build_dag_variant(&ds, DagVariant::TwoLayer);
    assert_eq!(two.n_edges(), two_mut.n_edges() + ds.immutable.len());
    // all are DAGs over the same vocabulary
    for dag in [&one, &two_mut, &two] {
        assert!(dag.has_node("salary"));
        assert_eq!(dag.topological_order().len(), dag.n_nodes());
    }
}

#[test]
fn pc_recovers_signal_on_german_subset() {
    // Full 21-column PC is slow; a focused subset must find the strong
    // planted edges (checking_balance and savings drive good_credit).
    let ds = german::generate(8_000, 17);
    let vars: Vec<String> = ["employment", "checking_balance", "savings", "good_credit"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let dag = faircap::causal::discovery::pc_dag(
        &ds.df,
        &vars,
        faircap::causal::discovery::PcConfig::default(),
    )
    .unwrap();
    let credit = dag.node("good_credit").unwrap();
    let checking = dag.node("checking_balance").unwrap();
    // the dependency must be detected (either orientation acceptable for a
    // Markov-equivalent structure)
    assert!(
        dag.has_edge(checking, credit) || dag.has_edge(credit, checking),
        "checking_balance–good_credit edge missing:\n{}",
        dag.to_dot()
    );
    assert_eq!(dag.topological_order().len(), dag.n_nodes());
}

#[test]
fn estimates_stable_across_reasonable_dags() {
    // Table 6's SO claim: estimates are robust to DAG misspecification for
    // a treatment whose confounders are included either way.
    let ds = so::generate(15_000, 29);
    let all = Mask::ones(ds.df.n_rows());
    let p = Pattern::of_eq(&[("computer_hours", Value::from("9-12"))]);
    let mut estimates = Vec::new();
    for variant in [
        DagVariant::Original,
        DagVariant::TwoLayerMutable,
        DagVariant::TwoLayer,
    ] {
        let dag = build_dag_variant(&ds, variant);
        let engine =
            CateEngine::new(Arc::new(ds.df.clone()), Arc::new(dag.clone()), "salary").unwrap();
        estimates.push(
            engine
                .cate(&all, &p, &EstimatorKind::Linear)
                .expect("estimable")
                .cate,
        );
    }
    let min = estimates.iter().copied().fold(f64::INFINITY, f64::min);
    let max = estimates.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    assert!(
        max - min < 6_000.0,
        "estimates should be stable across DAGs: {estimates:?}"
    );
}
