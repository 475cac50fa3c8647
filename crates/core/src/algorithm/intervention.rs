//! Step 2 (§5.2): mine the best (fairness-aware) intervention pattern for a
//! grouping pattern via positive-parent lattice traversal.
//!
//! The step is split in two phases so sessions can cache the expensive
//! half across constraint-only re-solves:
//!
//! 1. [`evaluate_group_interventions`] — items, lattice traversal, CATE
//!    estimation, and the protected / non-protected sub-utilities. The
//!    output ([`GroupEvaluation`]) depends only on the group's coverage,
//!    the estimator, the lattice depth, and the significance level α —
//!    **not** on the fairness/coverage constraints or the cost model.
//! 2. [`rules_from_evaluation`] — cost feasibility, fairness-penalized
//!    benefit, the individual-fairness filter, and the top-`k` truncation:
//!    pure arithmetic over phase 1's numbers, re-run cheaply per solve.

use crate::benefit::benefit;
use crate::config::FairCapConfig;
use crate::constraints::rule_satisfies_fairness;
use crate::rule::{Rule, RuleUtility};
use faircap_causal::{CateQuery, GroupHandle};
use faircap_mining::{positive_lattice_with_stats, single_attribute_items, MiningStats};
use faircap_table::{Mask, Pattern};

/// One evaluated intervention pattern of a group's positive lattice that
/// passed the significance gate: its overall CATE and the sub-coverage
/// utilities, everything later phases need that involves estimation.
#[derive(Debug, Clone)]
pub struct EvaluatedIntervention {
    /// The intervention pattern.
    pub pattern: Pattern,
    /// Overall CATE on the group (positive by construction).
    pub cate: f64,
    /// Significance of the overall CATE (≤ the α it was mined under).
    pub p_value: f64,
    /// Utility on the protected sub-coverage (Definition 4.4 conventions).
    pub u_protected: f64,
    /// Utility on the non-protected sub-coverage.
    pub u_non_protected: f64,
}

/// Phase-1 output for one grouping pattern: every positive, significant,
/// fully estimated intervention candidate. Fairness- and cost-independent,
/// hence cacheable on the session across constraint sweeps (keyed by group,
/// estimator, lattice depth, and α — see `core::session`).
#[derive(Debug, Clone, Default)]
pub struct GroupEvaluation {
    /// Evaluated candidates, in lattice traversal order.
    pub nodes: Vec<EvaluatedIntervention>,
}

/// Phase 1: evaluate one group's intervention lattice.
///
/// Runs the item enumeration, the positive-parent traversal scored by the
/// overall CATE, and — for every node passing `cate > 0 ∧ p ≤ alpha` — the
/// protected / non-protected sub-coverage utilities. Returns the evaluation
/// plus the lattice's [`MiningStats`].
pub fn evaluate_group_interventions(
    query: &CateQuery<'_>,
    coverage: &Mask,
    protected: &Mask,
    mutable: &[String],
    max_intervention_len: usize,
    alpha: f64,
) -> (GroupEvaluation, MiningStats) {
    let df = query.df();
    // Optimization (i): only attributes causally connected to the outcome.
    let causal_mutable: Vec<String> = mutable
        .iter()
        .filter(|a| query.affects_outcome(a))
        .cloned()
        .collect();
    if causal_mutable.is_empty() {
        return (GroupEvaluation::default(), MiningStats::default());
    }
    let Ok(items) = single_attribute_items(df, &causal_mutable, coverage, 24) else {
        return (GroupEvaluation::default(), MiningStats::default());
    };
    // Drop items without a usable contrast inside the group (everything /
    // nothing treated) before paying for a regression.
    let n_cov = coverage.count();
    let items: Vec<_> = items
        .into_iter()
        .filter(|(_, m)| {
            let treated = m.intersect_count(coverage);
            treated >= faircap_causal::estimate::MIN_ARM_SIZE
                && n_cov - treated >= faircap_causal::estimate::MIN_ARM_SIZE
        })
        .collect();

    // Lattice traversal scored by overall CATE. Each group is
    // fingerprinted once per walk, not once per query.
    let group = GroupHandle::new(coverage);
    let (nodes, stats) = positive_lattice_with_stats(
        &items,
        max_intervention_len,
        |pattern, _mask| query.cate_in(group, pattern),
        |est| est.cate > 0.0,
    );

    let coverage_p = coverage & protected;
    let coverage_np = coverage.andnot(protected);
    let (group_p, group_np) = (
        GroupHandle::new(&coverage_p),
        GroupHandle::new(&coverage_np),
    );
    let mut evaluated = Vec::new();
    for node in nodes {
        let est = node.score;
        if est.cate <= 0.0 || est.p_value > alpha {
            continue;
        }
        // Utilities for the protected / non-protected sub-coverages
        // (Definition 4.4: 0 when the sub-coverage is empty; when it is
        // non-empty but too small to estimate, the overall CATE is the best
        // available prediction for those rows — see DESIGN.md).
        let u_p = subgroup_utility(query, group_p, &node.pattern, est.cate);
        let u_np = subgroup_utility(query, group_np, &node.pattern, est.cate);
        evaluated.push(EvaluatedIntervention {
            pattern: node.pattern,
            cate: est.cate,
            p_value: est.p_value,
            u_protected: u_p,
            u_non_protected: u_np,
        });
    }
    (GroupEvaluation { nodes: evaluated }, stats)
}

/// Phase 2: turn a [`GroupEvaluation`] into the group's top-`k` rules under
/// the request's constraints and cost model. No estimation happens here.
pub fn rules_from_evaluation(
    evaluation: &GroupEvaluation,
    grouping: &Pattern,
    coverage: &Mask,
    protected: &Mask,
    config: &FairCapConfig,
    k: usize,
) -> Vec<Rule> {
    if k == 0 || evaluation.nodes.is_empty() {
        return Vec::new();
    }
    let coverage_p = coverage & protected;
    let mut candidates: Vec<Rule> = Vec::new();
    for node in &evaluation.nodes {
        // §8 extension: infeasible (over-budget) interventions are skipped.
        let cost = config.cost_model.pattern_cost(&node.pattern);
        if !config.cost_policy.is_feasible(cost) {
            continue;
        }
        let utility = RuleUtility {
            overall: node.cate,
            protected: node.u_protected,
            non_protected: node.u_non_protected,
            p_value: node.p_value,
        };
        let rule = Rule {
            grouping: grouping.clone(),
            intervention: node.pattern.clone(),
            coverage: coverage.clone(),
            coverage_protected: coverage_p.clone(),
            utility,
            benefit: config
                .cost_policy
                .adjust_benefit(benefit(&utility, &config.fairness), cost),
        };
        if !rule_satisfies_fairness(&rule, &config.fairness) {
            continue;
        }
        candidates.push(rule);
    }
    candidates.sort_by(|a, b| {
        b.benefit
            .total_cmp(&a.benefit)
            .then_with(|| a.intervention.cmp(&b.intervention))
    });
    candidates.truncate(k);
    candidates
}

/// Mine the best intervention for one grouping pattern.
///
/// * Items come from the mutable attributes that have a causal path to the
///   outcome (§5.2 optimization (i)), with values from the active domain
///   inside the group's coverage.
/// * The lattice is expanded only below treatments with positive overall
///   CATE (§5.2's materialization rule).
/// * Every positive, statistically significant node becomes a candidate;
///   its protected / non-protected utilities are then estimated and the
///   node with the highest fairness-penalized [`benefit`] that satisfies
///   any individual-scope fairness constraint wins.
///
/// Returns `None` when no estimable positive treatment exists.
pub fn mine_intervention(
    query: &CateQuery<'_>,
    grouping: &Pattern,
    coverage: &Mask,
    protected: &Mask,
    mutable: &[String],
    config: &FairCapConfig,
) -> Option<Rule> {
    mine_top_interventions(query, grouping, coverage, protected, mutable, config, 1)
        .into_iter()
        .next()
}

/// Mine the `k` best interventions for one grouping pattern, ordered by
/// descending benefit (ties broken by pattern order).
///
/// The paper's Algorithm 1 keeps only the single best treatment per group
/// (`k = 1`); larger `k` hands the greedy phase a richer candidate pool at
/// extra estimation cost — exposed as the `interventions_per_group` knob
/// and evaluated by the `ablation_lattice` bench.
pub fn mine_top_interventions(
    query: &CateQuery<'_>,
    grouping: &Pattern,
    coverage: &Mask,
    protected: &Mask,
    mutable: &[String],
    config: &FairCapConfig,
    k: usize,
) -> Vec<Rule> {
    if k == 0 {
        return Vec::new();
    }
    let (evaluation, _) = evaluate_group_interventions(
        query,
        coverage,
        protected,
        mutable,
        config.max_intervention_len,
        config.alpha,
    );
    rules_from_evaluation(&evaluation, grouping, coverage, protected, config, k)
}

/// Utility of an intervention on a sub-coverage: the estimated CATE when
/// available, the paper's 0 convention for an empty sub-coverage, and the
/// overall CATE as the fallback prediction for a non-empty sub-coverage
/// that is too small to estimate on its own.
pub fn subgroup_utility(
    query: &CateQuery<'_>,
    sub_coverage: GroupHandle<'_>,
    intervention: &Pattern,
    overall: f64,
) -> f64 {
    if sub_coverage.mask().none() {
        return 0.0;
    }
    query
        .cate_in(sub_coverage, intervention)
        .map(|e| e.cate)
        .unwrap_or(overall)
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)] // config tweaking reads better imperatively
mod tests {
    use super::*;
    use crate::config::{FairnessConstraint, FairnessScope};
    use faircap_causal::scm::{bernoulli, normal, Scm};
    use faircap_causal::{CateEngine, Dag, EstimatorKind};
    use faircap_table::{DataFrame, Value};
    use std::sync::Arc;

    /// Two binary treatments: `big` has a large but unfair effect
    /// (+30 non-protected / +6 protected), `fair` a smaller parity effect
    /// (+12 / +11). Group = everyone.
    fn fixture() -> (Arc<DataFrame>, Arc<Dag>, Mask) {
        let scm = Scm::new()
            .categorical("grp", &[("p", 0.3), ("np", 0.7)])
            .unwrap()
            .node(
                "big",
                &[],
                Box::new(|_, rng| {
                    Value::Str(if bernoulli(rng, 0.4) { "yes" } else { "no" }.into())
                }),
            )
            .unwrap()
            .node(
                "fair",
                &[],
                Box::new(|_, rng| {
                    Value::Str(if bernoulli(rng, 0.4) { "yes" } else { "no" }.into())
                }),
            )
            .unwrap()
            .node(
                "outcome",
                &["grp", "big", "fair"],
                Box::new(|row, rng| {
                    let p = row.str("grp") == "p";
                    let mut v = 50.0;
                    if row.str("big") == "yes" {
                        v += if p { 6.0 } else { 30.0 };
                    }
                    if row.str("fair") == "yes" {
                        v += if p { 11.0 } else { 12.0 };
                    }
                    Value::Float(v + normal(rng, 0.0, 4.0))
                }),
            )
            .unwrap();
        let df = Arc::new(scm.sample(6000, 17).unwrap());
        let dag = Arc::new(scm.dag());
        let protected = Pattern::of_eq(&[("grp", Value::from("p"))])
            .coverage(&df)
            .unwrap();
        (df, dag, protected)
    }

    fn mutables() -> Vec<String> {
        vec!["big".into(), "fair".into()]
    }

    #[test]
    fn unconstrained_picks_highest_cate() {
        let (df, dag, protected) = fixture();
        let engine = CateEngine::new(df.clone(), dag, "outcome").unwrap();
        let query = engine.with_estimator(&EstimatorKind::Linear);
        let cfg = FairCapConfig::default();
        let all = Mask::ones(df.n_rows());
        let rule = mine_intervention(
            &query,
            &Pattern::empty(),
            &all,
            &protected,
            &mutables(),
            &cfg,
        )
        .expect("should find a treatment");
        assert!(
            rule.intervention.to_string().contains("big"),
            "unconstrained should pick the big treatment, got {}",
            rule.intervention
        );
        assert!(rule.utility.overall > 15.0);
    }

    #[test]
    fn sp_constraint_redirects_to_fair_treatment() {
        let (df, dag, protected) = fixture();
        let engine = CateEngine::new(df.clone(), dag, "outcome").unwrap();
        let query = engine.with_estimator(&EstimatorKind::Linear);
        let mut cfg = FairCapConfig::default();
        cfg.fairness = FairnessConstraint::StatisticalParity {
            scope: FairnessScope::Group,
            epsilon: 5.0,
        };
        let all = Mask::ones(df.n_rows());
        let rule = mine_intervention(
            &query,
            &Pattern::empty(),
            &all,
            &protected,
            &mutables(),
            &cfg,
        )
        .expect("should find a treatment");
        assert!(
            rule.intervention.to_string().starts_with("fair"),
            "SP benefit should pick the parity treatment, got {}",
            rule.intervention
        );
        // and its utilities are near parity
        assert!(rule.utility.gap() < 4.0, "gap {}", rule.utility.gap());
    }

    #[test]
    fn individual_sp_filters_unfair_candidates() {
        let (df, dag, protected) = fixture();
        let engine = CateEngine::new(df.clone(), dag, "outcome").unwrap();
        let query = engine.with_estimator(&EstimatorKind::Linear);
        let mut cfg = FairCapConfig::default();
        cfg.fairness = FairnessConstraint::StatisticalParity {
            scope: FairnessScope::Individual,
            epsilon: 4.0,
        };
        let all = Mask::ones(df.n_rows());
        let rule = mine_intervention(
            &query,
            &Pattern::empty(),
            &all,
            &protected,
            &mutables(),
            &cfg,
        )
        .expect("the fair treatment satisfies ε=4");
        assert!(rule.utility.gap() <= 4.0);
        assert!(rule.intervention.to_string().starts_with("fair"));
    }

    #[test]
    fn top_k_returns_ordered_distinct_interventions() {
        let (df, dag, protected) = fixture();
        let engine = CateEngine::new(df.clone(), dag, "outcome").unwrap();
        let query = engine.with_estimator(&EstimatorKind::Linear);
        let cfg = FairCapConfig::default();
        let all = Mask::ones(df.n_rows());
        let rules = mine_top_interventions(
            &query,
            &Pattern::empty(),
            &all,
            &protected,
            &mutables(),
            &cfg,
            3,
        );
        assert!(rules.len() >= 2, "both treatments are positive");
        // descending benefit, distinct patterns
        for w in rules.windows(2) {
            assert!(w[0].benefit >= w[1].benefit);
            assert_ne!(w[0].intervention, w[1].intervention);
        }
        // k = 1 equals the single-best wrapper
        let single = mine_intervention(
            &query,
            &Pattern::empty(),
            &all,
            &protected,
            &mutables(),
            &cfg,
        )
        .unwrap();
        assert_eq!(single.intervention, rules[0].intervention);
    }

    #[test]
    fn no_causal_mutables_yields_none() {
        let (df, dag, protected) = fixture();
        let engine = CateEngine::new(df.clone(), dag, "outcome").unwrap();
        let query = engine.with_estimator(&EstimatorKind::Linear);
        let cfg = FairCapConfig::default();
        let all = Mask::ones(df.n_rows());
        // "grp" is immutable here, but pretend it's the only mutable: it has
        // a path to outcome, so use a truly disconnected name instead.
        let rule = mine_intervention(
            &query,
            &Pattern::empty(),
            &all,
            &protected,
            &["nonexistent".into()],
            &cfg,
        );
        assert!(rule.is_none());
    }

    #[test]
    fn small_group_without_contrast_yields_none() {
        let (df, dag, protected) = fixture();
        let engine = CateEngine::new(df.clone(), dag, "outcome").unwrap();
        let query = engine.with_estimator(&EstimatorKind::Linear);
        let cfg = FairCapConfig::default();
        // a 6-row group: too small for both arms of any treatment
        let tiny = Mask::from_indices(df.n_rows(), &[0, 1, 2, 3, 4, 5]);
        let rule = mine_intervention(
            &query,
            &Pattern::empty(),
            &tiny,
            &protected,
            &mutables(),
            &cfg,
        );
        assert!(rule.is_none());
    }
}
