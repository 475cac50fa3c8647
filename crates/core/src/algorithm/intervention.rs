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
//!    benefit, the individual-fairness filter, and the top-`k` selection:
//!    pure arithmetic over phase 1's numbers, re-run cheaply per solve.
//!    Nodes are scored in place; only the top `k` survivors are
//!    materialized as [`Rule`]s (patterns and masks cloned), so a group
//!    with no survivor allocates no mask at all.

use crate::benefit::benefit;
use crate::config::FairCapConfig;
use crate::constraints::utility_satisfies_fairness;
use crate::rule::{Rule, RuleUtility};
use faircap_causal::{CateQuery, Estimate, GroupHandle, PredicateCode};
use faircap_mining::{
    coded_lattice, items_from_levels, single_attribute_items, MiningStats, MAX_VALUES_PER_ATTR,
};
use faircap_table::{Mask, Pattern, Predicate};

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

impl EvaluatedIntervention {
    /// The node's utility triple, as its rule would carry it.
    pub(crate) fn utility(&self) -> RuleUtility {
        RuleUtility {
            overall: self.cate,
            protected: self.u_protected,
            non_protected: self.u_non_protected,
            p_value: self.p_value,
        }
    }
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
///
/// The walk runs on codes: each item carries its predicate's code in the
/// engine ([`faircap_causal::CateEngine::predicate_code`]), a lattice node
/// is the indices of its items, and estimates are looked up by the node's
/// codes. A node's [`Pattern`] is spelled out only for the nodes that
/// pass, as their [`EvaluatedIntervention`]s.
pub fn evaluate_group_interventions(
    query: &CateQuery<'_>,
    coverage: &Mask,
    protected: &Mask,
    mutable: &[String],
    max_intervention_len: usize,
    alpha: f64,
) -> (GroupEvaluation, MiningStats) {
    // Optimization (i): only attributes causally connected to the outcome.
    let causal_mutable: Vec<String> = mutable
        .iter()
        .filter(|a| query.affects_outcome(a))
        .cloned()
        .collect();
    if causal_mutable.is_empty() {
        return (GroupEvaluation::default(), MiningStats::default());
    }
    let Ok(items) = group_items(query, &causal_mutable, coverage) else {
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
    let codes: Vec<PredicateCode> = items
        .iter()
        .map(|(p, _)| query.engine().predicate_code(p))
        .collect();

    // Lattice traversal scored by overall CATE. Each group is
    // fingerprinted once per walk, not once per query, and its handle
    // holds the estimators' group state until this function returns. A
    // node's mask (`coverage ∧ pattern`) is its treated mask: only its rows
    // inside the group, or inside either sub-coverage, matter to an
    // estimate.
    let mut walk = query.walk();
    let group = GroupHandle::new(coverage);
    let (nodes, stats) = coded_lattice(
        &items,
        max_intervention_len,
        |node, mask| walk.cate(&group, node_codes(&codes, node), mask),
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
        // (Definition 4.4: 0 when the sub-coverage is empty; when its
        // estimate is refused, the overall CATE stands in — see
        // "Sub-coverage utilities" in `docs/architecture.md`, Step 2).
        let mut utility = |sub: &GroupHandle<'_>| {
            subgroup_utility(sub.mask(), est.cate, || {
                walk.cate(sub, node_codes(&codes, &node.items), &node.mask)
            })
        };
        let u_p = utility(&group_p);
        let u_np = utility(&group_np);
        let pattern = node
            .items
            .iter()
            .map(|&i| items[i as usize].0.clone())
            .collect();
        evaluated.push(EvaluatedIntervention {
            pattern,
            cate: est.cate,
            p_value: est.p_value,
            u_protected: u_p,
            u_non_protected: u_np,
        });
    }
    (GroupEvaluation { nodes: evaluated }, stats)
}

/// The predicate codes of a lattice node's items.
fn node_codes<'a>(
    codes: &'a [PredicateCode],
    node: &'a [u32],
) -> impl Iterator<Item = PredicateCode> + 'a {
    node.iter().map(|&i| codes[i as usize])
}

/// The intervention items of `attrs` inside `coverage`, attribute by
/// attribute: by word AND from the engine's full-frame level masks for an
/// attribute with at most [`MAX_VALUES_PER_ATTR`] levels, by a pass over
/// the group's rows ([`single_attribute_items`], which also caps the
/// levels) otherwise. Either way the items are the ones
/// `single_attribute_items` returns for all of `attrs`, in its order.
fn group_items(
    query: &CateQuery<'_>,
    attrs: &[String],
    coverage: &Mask,
) -> faircap_table::Result<Vec<(Predicate, Mask)>> {
    let mut items = Vec::new();
    for attr in attrs {
        match query.engine().level_masks(attr, MAX_VALUES_PER_ATTR) {
            Some(levels) => items.extend(items_from_levels(attr, &levels, coverage)),
            None => items.extend(single_attribute_items(
                query.df(),
                std::slice::from_ref(attr),
                coverage,
                MAX_VALUES_PER_ATTR,
            )?),
        }
    }
    Ok(items)
}

/// Phase 2: turn a [`GroupEvaluation`] into the group's top-`k` rules under
/// the request's constraints and cost model. No estimation happens here.
///
/// Every node is scored in place — cost, feasibility, utility, the
/// individual-fairness verdict and the benefit — and only the top `k`
/// survivors, ranked by benefit descending (`total_cmp`) then intervention
/// pattern ascending, become [`Rule`]s. Equal keys keep lattice order.
pub fn rules_from_evaluation(
    evaluation: &GroupEvaluation,
    grouping: &Pattern,
    coverage: &Mask,
    protected: &Mask,
    config: &FairCapConfig,
    k: usize,
) -> Vec<Rule> {
    if k == 0 {
        return Vec::new();
    }
    // (benefit, lattice index, node): the index makes the order total, so
    // the unstable selection below returns what a stable sort would.
    type Scored<'a> = (f64, usize, &'a EvaluatedIntervention);
    let mut ranked: Vec<Scored<'_>> = evaluation
        .nodes
        .iter()
        .enumerate()
        .filter_map(|(i, node)| {
            // §8 extension: infeasible (over-budget) interventions are skipped.
            let cost = config.cost_model.pattern_cost(&node.pattern);
            if !config.cost_policy.is_feasible(cost) {
                return None;
            }
            let utility = node.utility();
            if !utility_satisfies_fairness(&utility, &config.fairness) {
                return None;
            }
            let benefit = config
                .cost_policy
                .adjust_benefit(benefit(&utility, &config.fairness), cost);
            Some((benefit, i, node))
        })
        .collect();
    let order = |a: &Scored<'_>, b: &Scored<'_>| {
        b.0.total_cmp(&a.0)
            .then_with(|| a.2.pattern.cmp(&b.2.pattern))
            .then(a.1.cmp(&b.1))
    };
    if ranked.len() > k {
        ranked.select_nth_unstable_by(k - 1, order);
        ranked.truncate(k);
    }
    ranked.sort_unstable_by(order);
    ranked
        .into_iter()
        .map(|(benefit, _, node)| Rule {
            grouping: grouping.clone(),
            intervention: node.pattern.clone(),
            coverage: coverage.clone(),
            coverage_protected: coverage & protected,
            utility: node.utility(),
            benefit,
        })
        .collect()
}

/// Utility of an intervention on a sub-coverage: the CATE `estimate`
/// returns when available, the paper's 0 convention for an empty
/// sub-coverage (without calling `estimate`), and the overall CATE as the
/// fallback for a non-empty sub-coverage whose estimate is refused. The
/// sub-estimate's p-value is not used. The rule is written down in the
/// "Sub-coverage utilities" part of the Step 2 section of
/// `docs/architecture.md`.
pub fn subgroup_utility(
    sub_coverage: &Mask,
    overall: f64,
    estimate: impl FnOnce() -> Option<Estimate>,
) -> f64 {
    if sub_coverage.none() {
        return 0.0;
    }
    estimate().map(|e| e.cate).unwrap_or(overall)
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)] // config tweaking reads better imperatively
mod tests {
    use super::*;
    use crate::config::{FairnessConstraint, FairnessScope};
    use crate::cost::{CostModel, CostPolicy};
    use faircap_causal::scm::{bernoulli, normal, Scm};
    use faircap_causal::{CateEngine, Dag, EstimatorKind};
    use faircap_table::{DataFrame, Value};
    use proptest::prelude::*;
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

    /// Both phases for the group `⊤` over `coverage`: its top `k` rules.
    fn mine_top(
        query: &CateQuery<'_>,
        coverage: &Mask,
        protected: &Mask,
        mutable: &[String],
        config: &FairCapConfig,
        k: usize,
    ) -> Vec<Rule> {
        let (evaluation, _) = evaluate_group_interventions(
            query,
            coverage,
            protected,
            mutable,
            config.max_intervention_len,
            config.alpha,
        );
        rules_from_evaluation(
            &evaluation,
            &Pattern::empty(),
            coverage,
            protected,
            config,
            k,
        )
    }

    #[test]
    fn unconstrained_picks_highest_cate() {
        let (df, dag, protected) = fixture();
        let engine = CateEngine::new(df.clone(), dag, "outcome").unwrap();
        let query = engine.with_estimator(&EstimatorKind::Linear);
        let cfg = FairCapConfig::default();
        let all = Mask::ones(df.n_rows());
        let rule = mine_top(&query, &all, &protected, &mutables(), &cfg, 1)
            .into_iter()
            .next()
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
        let rule = mine_top(&query, &all, &protected, &mutables(), &cfg, 1)
            .into_iter()
            .next()
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
        let rule = mine_top(&query, &all, &protected, &mutables(), &cfg, 1)
            .into_iter()
            .next()
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
        let rules = mine_top(&query, &all, &protected, &mutables(), &cfg, 3);
        assert!(rules.len() >= 2, "both treatments are positive");
        // descending benefit, distinct patterns
        for w in rules.windows(2) {
            assert!(w[0].benefit >= w[1].benefit);
            assert_ne!(w[0].intervention, w[1].intervention);
        }
        // k = 1 keeps the first of them
        let single = mine_top(&query, &all, &protected, &mutables(), &cfg, 1)
            .into_iter()
            .next()
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
        let rules = mine_top(&query, &all, &protected, &["nonexistent".into()], &cfg, 1);
        assert!(rules.is_empty());
    }

    #[test]
    fn small_group_without_contrast_yields_none() {
        let (df, dag, protected) = fixture();
        let engine = CateEngine::new(df.clone(), dag, "outcome").unwrap();
        let query = engine.with_estimator(&EstimatorKind::Linear);
        let cfg = FairCapConfig::default();
        // a 6-row group: too small for both arms of any treatment
        let tiny = Mask::from_indices(df.n_rows(), &[0, 1, 2, 3, 4, 5]);
        let rules = mine_top(&query, &tiny, &protected, &mutables(), &cfg, 1);
        assert!(rules.is_empty());
    }

    /// Phase 2 as it was first written — materialize every feasible, fair
    /// node as a [`Rule`], sort, truncate — kept as the oracle for the
    /// in-place scoring of [`rules_from_evaluation`].
    fn rules_from_evaluation_oracle(
        evaluation: &GroupEvaluation,
        grouping: &Pattern,
        coverage: &Mask,
        protected: &Mask,
        config: &FairCapConfig,
        k: usize,
    ) -> Vec<Rule> {
        use crate::constraints::rule_satisfies_fairness;
        if k == 0 || evaluation.nodes.is_empty() {
            return Vec::new();
        }
        let coverage_p = coverage & protected;
        let mut candidates: Vec<Rule> = Vec::new();
        for node in &evaluation.nodes {
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

    const ROWS: usize = 40;
    const ATTRS: [&str; 3] = ["a", "b", "c"];

    /// A node drawn from small value sets, so patterns repeat and benefits
    /// and utilities tie across nodes.
    fn node_strategy() -> impl Strategy<Value = EvaluatedIntervention> {
        let level = |i: u32| [-2.0, 0.0, 0.5, 1.0, 2.0, 4.0][i as usize];
        (
            0usize..3,
            0i64..3,
            0usize..3,
            0i64..3,
            2u32..6,
            0u32..6,
            0u32..6,
        )
            .prop_map(move |(a1, v1, a2, v2, cate, u_p, u_np)| {
                let mut pairs = vec![(ATTRS[a1], Value::Int(v1))];
                // a second predicate on another attribute, or none
                if a2 != 0 {
                    pairs.push((ATTRS[(a1 + a2) % 3], Value::Int(v2)));
                }
                EvaluatedIntervention {
                    pattern: Pattern::of_eq(&pairs),
                    cate: level(cate),
                    p_value: 0.01,
                    u_protected: level(u_p),
                    u_non_protected: level(u_np),
                }
            })
    }

    fn mask_strategy() -> impl Strategy<Value = Mask> {
        prop::collection::vec(any::<bool>(), ROWS).prop_map(|bits| Mask::from_bools(&bits))
    }

    /// Per-assignment, per-attribute and default costs, drawn from a few
    /// levels so costs (and penalized benefits) tie too.
    fn cost_model_strategy() -> impl Strategy<Value = CostModel> {
        (0u32..4, 0u32..4, 0u32..4, 0u32..4).prop_map(|(on_a1, on_a2, on_b, default)| {
            let level = |i: u32| f64::from(i) * 0.5;
            CostModel::with_default(level(default))
                .set("a", Value::Int(1), level(on_a1))
                .set("a", Value::Int(2), level(on_a2))
                .set_attribute("b", level(on_b))
        })
    }

    fn every_fairness() -> Vec<FairnessConstraint> {
        let mut all = vec![FairnessConstraint::None];
        for scope in [FairnessScope::Group, FairnessScope::Individual] {
            all.push(FairnessConstraint::StatisticalParity {
                scope,
                epsilon: 1.0,
            });
            all.push(FairnessConstraint::BoundedGroupLoss { scope, tau: 1.0 });
        }
        all
    }

    fn every_cost_policy() -> [CostPolicy; 3] {
        [
            CostPolicy::Ignore,
            CostPolicy::Budget { max_rule_cost: 1.0 },
            CostPolicy::Penalize { weight: 0.5 },
        ]
    }

    fn same_rule(a: &Rule, b: &Rule) -> bool {
        let bits = |u: &RuleUtility| {
            [u.overall, u.protected, u.non_protected, u.p_value].map(f64::to_bits)
        };
        a.grouping == b.grouping
            && a.intervention == b.intervention
            && a.coverage == b.coverage
            && a.coverage_protected == b.coverage_protected
            && bits(&a.utility) == bits(&b.utility)
            && a.benefit.to_bits() == b.benefit.to_bits()
    }

    /// A frame with a categorical column of 1–30 levels, an int column of
    /// 1–30 values, a bool and a float column, and a row subset that is
    /// empty in about a quarter of the cases.
    fn items_case_strategy() -> impl Strategy<Value = (DataFrame, Mask)> {
        (
            1u16..31,
            1i64..31,
            prop::collection::vec((0u16..1000, 0i64..1000, any::<bool>(), any::<bool>()), ROWS),
            0u32..4,
        )
            .prop_map(|(n_cat, n_int, rows, keep)| {
                let names: Vec<String> = rows.iter().map(|r| format!("v{}", r.0 % n_cat)).collect();
                let df = DataFrame::builder()
                    .cat("c", &names)
                    .int("i", rows.iter().map(|r| r.1 % n_int).collect())
                    .bool("b", rows.iter().map(|r| r.2).collect())
                    .float("f", rows.iter().map(|r| f64::from(r.0)).collect())
                    .float("o", vec![1.0; ROWS])
                    .build()
                    .unwrap();
                let within: Vec<bool> = rows.iter().map(|r| keep > 0 && r.3).collect();
                (df, Mask::from_bools(&within))
            })
    }

    proptest! {
        /// Items built by word AND from the engine's level masks are the
        /// reference row pass's items, attribute by attribute and in order;
        /// an attribute with more than `MAX_VALUES_PER_ATTR` levels gets no
        /// level masks and takes the row pass, cap included.
        #[test]
        fn word_and_items_match_the_row_pass(case in items_case_strategy()) {
            let (df, within) = case;
            let df = Arc::new(df);
            let dag = Arc::new(Dag::parse_edge_list("c -> o\ni -> o\nb -> o").unwrap());
            let engine = CateEngine::new(Arc::clone(&df), dag, "o").unwrap();
            let query = engine.with_estimator(&EstimatorKind::Linear);
            let attrs: Vec<String> = ["c", "i", "b", "f"].map(String::from).to_vec();
            let got = group_items(&query, &attrs, &within).unwrap();
            let want = single_attribute_items(&df, &attrs, &within, MAX_VALUES_PER_ATTR).unwrap();
            prop_assert_eq!(got, want);
            for attr in ["c", "i"] {
                let levels = df.column(attr).unwrap().unique().len();
                prop_assert_eq!(
                    engine.level_masks(attr, MAX_VALUES_PER_ATTR).is_some(),
                    levels <= MAX_VALUES_PER_ATTR
                );
            }
            prop_assert!(engine.level_masks("b", MAX_VALUES_PER_ATTR).is_some());
            prop_assert!(engine.level_masks("f", MAX_VALUES_PER_ATTR).is_none());
        }

        /// In-place scoring returns exactly the oracle's rules, in its order,
        /// under every fairness kind × scope, cost policy and `k`.
        #[test]
        fn phase2_matches_the_materializing_oracle(
            nodes in prop::collection::vec(node_strategy(), 0..40),
            coverage in mask_strategy(),
            protected in mask_strategy(),
            cost_model in cost_model_strategy(),
        ) {
            let evaluation = GroupEvaluation { nodes };
            let grouping = Pattern::of_eq(&[("g", Value::Int(1))]);
            let n = evaluation.nodes.len();
            for fairness in every_fairness() {
                for cost_policy in every_cost_policy() {
                    let mut config = FairCapConfig::default();
                    config.fairness = fairness;
                    config.cost_model = cost_model.clone();
                    config.cost_policy = cost_policy;
                    for k in [0, 1, 2, 3, n + 1] {
                        let got = rules_from_evaluation(
                            &evaluation, &grouping, &coverage, &protected, &config, k,
                        );
                        let want = rules_from_evaluation_oracle(
                            &evaluation, &grouping, &coverage, &protected, &config, k,
                        );
                        prop_assert_eq!(got.len(), want.len(), "k = {}, {:?}", k, config.fairness);
                        for (g, w) in got.iter().zip(&want) {
                            prop_assert!(same_rule(g, w), "k = {}: {:?} vs {:?}", k, g, w);
                        }
                    }
                }
            }
        }
    }
}
