//! # faircap-bench
//!
//! Shared harness code for the experiment binaries (`table3` … `table6`,
//! `fig3` … `fig5`) and the criterion benches. Each binary regenerates one
//! table or figure of the paper's evaluation section.
//!
//! The experiment loops follow the session model: one
//! [`PrescriptionSession`] per dataset (built by [`session_of`]), re-solved
//! per constraint variant — quality tables share the session's CATE caches
//! across variants, while runtime figures build a cold session per
//! measurement so timings keep the paper's cold-start semantics.

#![warn(missing_docs)]

use faircap_baselines::{adapt_if_clauses, IfClauseRole};
use faircap_core::{
    all_structural_variants, FairCap, FairCapConfig, FairnessKind, PrescriptionSession,
    SolutionReport,
};
use faircap_data::Dataset;
use faircap_table::Pattern;
use std::sync::Arc;

/// Build a [`PrescriptionSession`] from a dataset bundle (frame and DAG are
/// cloned into the session; the bundle stays usable).
pub fn session_of(ds: &Dataset) -> faircap_core::Result<PrescriptionSession> {
    FairCap::builder()
        .data(ds.df.clone())
        .dag(ds.dag.clone())
        .outcome(&ds.outcome)
        .immutable(ds.immutable.iter().cloned())
        .mutable(ds.mutable.iter().cloned())
        .protected(ds.protected.clone())
        .build()
}

/// Build a session that shares (rather than clones) an already-`Arc`ed
/// frame and DAG — what a serving deployment would do.
pub fn session_of_shared(
    df: Arc<faircap_table::DataFrame>,
    dag: Arc<faircap_causal::Dag>,
    ds: &Dataset,
) -> faircap_core::Result<PrescriptionSession> {
    FairCap::builder()
        .data(df)
        .dag(dag)
        .outcome(&ds.outcome)
        .immutable(ds.immutable.iter().cloned())
        .mutable(ds.mutable.iter().cloned())
        .protected(ds.protected.clone())
        .build()
}

/// The nine Table-4 FairCap rows: every structural variant of Figure 2
/// instantiated with the given thresholds.
pub fn nine_variants(
    kind: FairnessKind,
    fairness_threshold: f64,
    theta: f64,
    theta_protected: f64,
) -> Vec<(String, FairCapConfig)> {
    all_structural_variants(kind, fairness_threshold, theta, theta_protected)
        .into_iter()
        .map(|(label, fairness, coverage)| {
            let cfg = FairCapConfig {
                fairness,
                coverage,
                ..FairCapConfig::default()
            };
            (label, cfg)
        })
        .collect()
}

/// Mine baseline IF clauses with IDS over all attributes of a dataset.
pub fn ids_if_clauses(ds: &Dataset) -> Vec<Pattern> {
    let attrs = ds.attributes();
    // A low interpretability weight yields the fuller rule sets the paper
    // reports for IDS (12–16 rules) instead of a 2-rule summary.
    let cfg = faircap_baselines::IdsConfig {
        lambda_interp: 0.1,
        ..Default::default()
    };
    let set = faircap_baselines::learn_decision_set(&ds.df, &attrs, &ds.outcome, &cfg)
        .expect("IDS runs on generated data");
    set.rules.into_iter().map(|r| r.pattern).collect()
}

/// Mine baseline IF clauses with FRL over all attributes of a dataset.
pub fn frl_if_clauses(ds: &Dataset) -> Vec<Pattern> {
    let attrs = ds.attributes();
    let frl = faircap_baselines::learn_falling_rule_list(
        &ds.df,
        &attrs,
        &ds.outcome,
        &faircap_baselines::FrlConfig::default(),
    )
    .expect("FRL runs on generated data");
    frl.rules.into_iter().map(|r| r.pattern).collect()
}

/// The four baseline rows of Table 4 for one dataset: IDS / FRL × grouping /
/// intervention adaptations, evaluated against the shared session (so their
/// CATE queries hit the same caches as the FairCap variants).
pub fn baseline_rows(
    session: &PrescriptionSession,
    ds: &Dataset,
    config: &FairCapConfig,
) -> faircap_core::Result<Vec<SolutionReport>> {
    let ids = ids_if_clauses(ds);
    let frl = frl_if_clauses(ds);
    Ok(vec![
        adapt_if_clauses(
            session,
            &ids,
            IfClauseRole::Grouping,
            "IDS (IF clause as grouping pattern)",
            config,
        )?,
        adapt_if_clauses(
            session,
            &ids,
            IfClauseRole::Intervention,
            "IDS (IF clause as intervention pattern)",
            config,
        )?,
        adapt_if_clauses(
            session,
            &frl,
            IfClauseRole::Grouping,
            "FRL (IF clause as grouping pattern)",
            config,
        )?,
        adapt_if_clauses(
            session,
            &frl,
            IfClauseRole::Intervention,
            "FRL (IF clause as intervention pattern)",
            config,
        )?,
    ])
}

/// Row-count used by the criterion benches: large enough for stable CATEs,
/// small enough for tractable sampling (shape, not absolute numbers).
pub const BENCH_ROWS: usize = 6_000;

/// Seed shared by the benches for reproducibility.
pub const BENCH_SEED: u64 = 42;

#[cfg(test)]
mod tests {
    use super::*;
    use faircap_core::SolveRequest;

    #[test]
    fn nine_variants_enumerated() {
        let v = nine_variants(FairnessKind::StatisticalParity, 10_000.0, 0.5, 0.5);
        assert_eq!(v.len(), 9);
        assert!(v[0].0.contains("no fairness"));
        assert!(v.iter().any(|(l, _)| l.contains("individual fairness")));
    }

    #[test]
    fn baseline_clauses_minable() {
        let ds = faircap_data::so::generate(1_500, 7);
        let ids = ids_if_clauses(&ds);
        assert!(!ids.is_empty());
        let frl = frl_if_clauses(&ds);
        assert!(!frl.is_empty());
    }

    #[test]
    fn session_of_solves_and_reuses_caches_across_variants() {
        let ds = faircap_data::so::generate(1_500, 7);
        let session = session_of(&ds).unwrap();
        let variants = nine_variants(FairnessKind::StatisticalParity, 10_000.0, 0.5, 0.5);
        let mut misses_per_variant = Vec::new();
        for (_, cfg) in &variants {
            let before = session.cache_stats().misses;
            session.solve(&SolveRequest::from(cfg.clone())).unwrap();
            misses_per_variant.push(session.cache_stats().misses - before);
        }
        assert!(misses_per_variant[0] > 0, "first solve estimates");
        // Later fairness-only variants with the same coverage settings reuse
        // the warmed cache entirely.
        assert!(
            misses_per_variant.iter().skip(1).any(|&m| m == 0),
            "at least one re-solve must be fully cache-served: {misses_per_variant:?}"
        );
    }
}
