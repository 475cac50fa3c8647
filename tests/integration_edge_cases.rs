//! Failure-injection and edge-case tests: degenerate inputs must produce
//! clean errors or empty solutions, never panics or nonsense.

use faircap::causal::{CateEngine, CausalError, Dag, Estimator as _, EstimatorKind};
use faircap::core::FairCapConfig;
use faircap::table::{DataFrame, Mask, Pattern, Value};
use faircap::{FairCap, SolveRequest};
use std::sync::Arc;

fn solve_with(
    df: &DataFrame,
    dag: &Dag,
    outcome: &str,
    immutable: &[String],
    mutable: &[String],
    protected: &Pattern,
    cfg: FairCapConfig,
) -> faircap::core::SolutionReport {
    FairCap::builder()
        .data(df.clone())
        .dag(dag.clone())
        .outcome(outcome)
        .immutable(immutable.iter().cloned())
        .mutable(mutable.iter().cloned())
        .protected(protected.clone())
        .build()
        .expect("structurally valid instance")
        .solve(&SolveRequest::from(cfg))
        .expect("config is valid")
}

/// A tiny fully-specified problem for degenerate-input probes.
fn tiny_problem() -> (DataFrame, Dag, Vec<String>, Vec<String>) {
    let n = 60;
    let seg: Vec<&str> = (0..n).map(|i| if i % 2 == 0 { "a" } else { "b" }).collect();
    let t: Vec<&str> = (0..n)
        .map(|i| if i % 3 == 0 { "yes" } else { "no" })
        .collect();
    let o: Vec<f64> = (0..n)
        .map(|i| 10.0 + (i % 3 == 0) as u8 as f64 * 5.0 + (i % 7) as f64)
        .collect();
    let df = DataFrame::builder()
        .cat("seg", &seg)
        .cat("t", &t)
        .float("o", o)
        .build()
        .unwrap();
    let dag = Dag::from_edges(&[("seg", "t"), ("seg", "o"), ("t", "o")]).unwrap();
    (df, dag, vec!["seg".into()], vec!["t".into()])
}

#[test]
fn empty_protected_group_runs_cleanly() {
    let (df, dag, imm, mt) = tiny_problem();
    // A protected pattern matching nothing.
    let protected = Pattern::of_eq(&[("seg", Value::from("nobody"))]);
    let report = solve_with(
        &df,
        &dag,
        "o",
        &imm,
        &mt,
        &protected,
        FairCapConfig::default(),
    );
    // With no protected rows, protected metrics degrade to 0 but the run
    // completes and still finds utility for the rest.
    assert_eq!(report.summary.coverage_protected, 0.0);
    assert_eq!(report.summary.expected_protected, 0.0);
}

#[test]
fn protected_group_is_everyone() {
    let (df, dag, imm, mt) = tiny_problem();
    let protected = Pattern::empty(); // covers all rows
    let report = solve_with(
        &df,
        &dag,
        "o",
        &imm,
        &mt,
        &protected,
        FairCapConfig::default(),
    );
    if !report.rules.is_empty() {
        // Everyone protected → non-protected side is empty → its expected
        // utility defaults to 0.
        assert_eq!(report.summary.expected_non_protected, 0.0);
        assert!(report.summary.coverage_protected > 0.0);
    }
}

#[test]
fn single_valued_mutable_yields_no_rules() {
    // The mutable attribute is constant: no contrast exists anywhere.
    let n = 40;
    let seg: Vec<&str> = (0..n).map(|i| if i % 2 == 0 { "a" } else { "b" }).collect();
    let t = vec!["same"; n];
    let o: Vec<f64> = (0..n).map(|i| i as f64).collect();
    let df = DataFrame::builder()
        .cat("seg", &seg)
        .cat("t", &t)
        .float("o", o)
        .build()
        .unwrap();
    let dag = Dag::from_edges(&[("t", "o"), ("seg", "o")]).unwrap();
    let imm = vec!["seg".to_string()];
    let mt = vec!["t".to_string()];
    let protected = Pattern::of_eq(&[("seg", Value::from("a"))]);
    let report = solve_with(
        &df,
        &dag,
        "o",
        &imm,
        &mt,
        &protected,
        FairCapConfig::default(),
    );
    assert!(report.rules.is_empty());
}

#[test]
fn constant_outcome_yields_no_significant_rules() {
    let (df, dag, imm, mt) = tiny_problem();
    let constant = df
        .with_column("o", faircap::table::Column::Float(vec![7.0; df.n_rows()]))
        .unwrap();
    let protected = Pattern::of_eq(&[("seg", Value::from("a"))]);
    let report = solve_with(
        &constant,
        &dag,
        "o",
        &imm,
        &mt,
        &protected,
        FairCapConfig::default(),
    );
    // Zero effect everywhere: either no rules, or none with positive utility.
    assert!(report.rules.is_empty(), "{:?}", report.rules.len());
}

#[test]
fn collinear_covariates_survive_via_ridge() {
    // Two identical covariate columns make XᵀX singular; the ridge fallback
    // must still produce a sane effect estimate.
    let n = 200;
    let z: Vec<&str> = (0..n).map(|i| if i % 2 == 0 { "u" } else { "v" }).collect();
    let t: Vec<bool> = (0..n).map(|i| i % 4 < 2).collect();
    let o: Vec<f64> = (0..n)
        .map(|i| if i % 4 < 2 { 20.0 } else { 10.0 } + (i % 2) as f64)
        .collect();
    let df = DataFrame::builder()
        .cat("z1", &z)
        .cat("z2", &z) // exact duplicate of z1
        .float("o", o)
        .build()
        .unwrap();
    let treated = Mask::from_bools(&t);
    let est = EstimatorKind::Linear
        .estimate(
            &df,
            &Mask::ones(n),
            &treated,
            "o",
            &["z1".into(), "z2".into()],
        )
        .unwrap();
    assert!((est.cate - 10.0).abs() < 0.5, "cate = {}", est.cate);
}

#[test]
fn engine_rejects_missing_outcome_with_typed_error() {
    // Pre-0.2 the engine silently answered `None` forever; now the bad
    // outcome is rejected at construction with the column named.
    let (df, dag, _, _) = tiny_problem();
    let err = CateEngine::new(Arc::new(df), Arc::new(dag), "no_such_column").unwrap_err();
    assert!(err.to_string().contains("no_such_column"));
    assert!(matches!(err, CausalError::Table(_)));
}

#[test]
fn builder_rejects_missing_outcome_with_typed_error() {
    let (df, dag, imm, mt) = tiny_problem();
    let err = FairCap::builder()
        .data(df)
        .dag(dag)
        .outcome("no_such_column")
        .immutable(imm)
        .mutable(mt)
        .protected(Pattern::of_eq(&[("seg", Value::from("a"))]))
        .build()
        .unwrap_err();
    assert!(err.to_string().contains("no_such_column"), "{err}");
}

#[test]
fn zero_row_frame_degenerates_cleanly() {
    let df = DataFrame::builder()
        .cat("seg", &Vec::<&str>::new())
        .cat("t", &Vec::<&str>::new())
        .float("o", vec![])
        .build()
        .unwrap();
    let dag = Dag::from_edges(&[("seg", "o"), ("t", "o")]).unwrap();
    let imm = vec!["seg".to_string()];
    let mt = vec!["t".to_string()];
    let protected = Pattern::of_eq(&[("seg", Value::from("a"))]);
    let report = solve_with(
        &df,
        &dag,
        "o",
        &imm,
        &mt,
        &protected,
        FairCapConfig::default(),
    );
    assert!(report.rules.is_empty());
    assert_eq!(report.summary.coverage, 0.0);
}

#[test]
fn max_rules_zero_yields_empty_solution() {
    let (df, dag, imm, mt) = tiny_problem();
    let protected = Pattern::of_eq(&[("seg", Value::from("a"))]);
    let cfg = FairCapConfig {
        max_rules: 0,
        ..FairCapConfig::default()
    };
    let report = solve_with(&df, &dag, "o", &imm, &mt, &protected, cfg);
    assert!(report.rules.is_empty());
}
