//! The paper's two adaptations of prediction-rule baselines (§7.1): treat
//! the IF clauses mined by IDS/FRL either as FairCap *grouping patterns*
//! (then run FairCap's step 2 to find interventions) or as *intervention
//! patterns* applied to the entire population.

use faircap_causal::GroupHandle;
use faircap_core::algorithm::intervention::{
    evaluate_group_interventions, rules_from_evaluation, subgroup_utility,
};
use faircap_core::{
    ruleset_utility, FairCapConfig, PrescriptionSession, Result, Rule, RuleUtility, SolutionReport,
    StepTimings,
};
use faircap_table::{Mask, Pattern};
use std::time::Instant;

/// Which adaptation to apply to baseline IF clauses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IfClauseRole {
    /// IF clause → grouping pattern; interventions mined by step 2.
    Grouping,
    /// IF clause → intervention pattern; grouping = entire dataset.
    Intervention,
}

/// Adapt baseline IF clauses into prescription rules and evaluate them with
/// FairCap's metrics (the IDS/FRL rows of Table 4).
///
/// Following the paper, clauses are used **as mined**: baseline prediction
/// rules freely mix mutable and immutable attributes (one of the paper's
/// qualitative criticisms — their "interventions" can be non-actionable,
/// e.g. `gdp_group = high`). Duplicate clauses are merged.
///
/// Runs against a prepared [`PrescriptionSession`], sharing its CATE
/// caches; a clause whose pattern references unknown columns surfaces as a
/// typed error instead of a panic.
pub fn adapt_if_clauses(
    session: &PrescriptionSession,
    if_clauses: &[Pattern],
    role: IfClauseRole,
    label: &str,
    config: &FairCapConfig,
) -> Result<SolutionReport> {
    let start = Instant::now();
    let df = session.df();
    let protected_mask = session.protected_mask();
    let query = session.engine().with_estimator(&config.estimator);

    let mut clauses: Vec<Pattern> = if_clauses
        .iter()
        .filter(|p| !p.is_empty())
        .cloned()
        .collect();
    clauses.sort();
    clauses.dedup();

    let mut rules: Vec<Rule> = Vec::new();
    match role {
        IfClauseRole::Grouping => {
            for grouping in &clauses {
                let coverage = grouping.coverage(df)?;
                let (evaluation, _) = evaluate_group_interventions(
                    &query,
                    &coverage,
                    protected_mask,
                    session.mutable(),
                    config.max_intervention_len,
                    config.alpha,
                );
                rules.extend(rules_from_evaluation(
                    &evaluation,
                    grouping,
                    &coverage,
                    protected_mask,
                    config,
                    1,
                ));
            }
        }
        IfClauseRole::Intervention => {
            let everyone = Mask::ones(df.n_rows());
            let cov_p = &everyone & protected_mask;
            let cov_np = everyone.andnot(protected_mask);
            let group = GroupHandle::new(&everyone);
            let (group_p, group_np) = (GroupHandle::new(&cov_p), GroupHandle::new(&cov_np));
            let mut walk = query.walk();
            for intervention in &clauses {
                // The clause's coverage is the treated rows of all three
                // queries.
                let treated = intervention.coverage(df)?;
                let codes = session.engine().pattern_codes(intervention);
                let Some(est) = walk.cate(&group, codes.iter().copied(), &treated) else {
                    continue;
                };
                if est.cate <= 0.0 {
                    continue; // negative-utility rules are discarded (§4.3)
                }
                let mut utility = |sub: &GroupHandle<'_>| {
                    subgroup_utility(sub.mask(), est.cate, || {
                        walk.cate(sub, codes.iter().copied(), &treated)
                    })
                };
                let (u_p, u_np) = (utility(&group_p), utility(&group_np));
                let utility = RuleUtility {
                    overall: est.cate,
                    protected: u_p,
                    non_protected: u_np,
                    p_value: est.p_value,
                };
                rules.push(Rule {
                    grouping: Pattern::empty(),
                    intervention: intervention.clone(),
                    coverage: everyone.clone(),
                    coverage_protected: cov_p.clone(),
                    utility,
                    benefit: utility.overall,
                });
            }
        }
    }

    let refs: Vec<&Rule> = rules.iter().collect();
    let summary = ruleset_utility(&refs, df.n_rows(), protected_mask);
    let elapsed = start.elapsed();
    Ok(SolutionReport {
        label: label.to_owned(),
        n_candidates: rules.len(),
        n_grouping_patterns: clauses.len(),
        rules,
        summary,
        constraints_met: true, // baselines carry no constraints
        timings: StepTimings {
            grouping: std::time::Duration::ZERO,
            intervention: elapsed,
            greedy: std::time::Duration::ZERO,
        },
        stats: faircap_core::SolveStats::default(),
        exec: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use faircap_causal::scm::{bernoulli, normal, Scm};
    use faircap_core::FairCap;
    use faircap_table::Value;

    fn session() -> PrescriptionSession {
        let scm = Scm::new()
            .categorical("seg", &[("a", 0.5), ("b", 0.5)])
            .unwrap()
            .categorical("grp", &[("p", 0.3), ("np", 0.7)])
            .unwrap()
            .node(
                "t",
                &[],
                Box::new(|_, rng| {
                    Value::Str(if bernoulli(rng, 0.4) { "yes" } else { "no" }.into())
                }),
            )
            .unwrap()
            .node(
                "o",
                &["grp", "t", "seg"],
                Box::new(|row, rng| {
                    let mut v = 10.0;
                    if row.str("seg") == "a" {
                        v += 3.0;
                    }
                    if row.str("t") == "yes" {
                        v += if row.str("grp") == "p" { 4.0 } else { 12.0 };
                    }
                    Value::Float(v + normal(rng, 0.0, 2.0))
                }),
            )
            .unwrap();
        let df = scm.sample(4000, 77).unwrap();
        let dag = scm.dag();
        FairCap::builder()
            .data(df)
            .dag(dag)
            .outcome("o")
            .immutable(["seg", "grp"])
            .mutable(["t"])
            .protected(Pattern::of_eq(&[("grp", Value::from("p"))]))
            .build()
            .unwrap()
    }

    #[test]
    fn grouping_adaptation_mines_interventions() {
        let s = session();
        // Baseline IF clauses mixing mutable + immutable attributes.
        let clauses = vec![
            Pattern::of_eq(&[("seg", Value::from("a")), ("t", Value::from("yes"))]),
            Pattern::of_eq(&[("seg", Value::from("b"))]),
        ];
        let report = adapt_if_clauses(
            &s,
            &clauses,
            IfClauseRole::Grouping,
            "IDS (IF as grouping)",
            &FairCapConfig::default(),
        )
        .unwrap();
        // The first clause pins `t = yes`, so no contrast exists within its
        // group and only the `seg = b` clause yields a rule.
        assert_eq!(report.rules.len(), 1);
        assert_eq!(report.rules[0].grouping.to_string(), "seg = b");
        assert!(report.rules[0].intervention.to_string().contains("t ="));
        assert!(report.summary.expected > 0.0);
    }

    #[test]
    fn intervention_adaptation_covers_everyone() {
        let s = session();
        let clauses = vec![Pattern::of_eq(&[("t", Value::from("yes"))])];
        let report = adapt_if_clauses(
            &s,
            &clauses,
            IfClauseRole::Intervention,
            "FRL (IF as intervention)",
            &FairCapConfig::default(),
        )
        .unwrap();
        assert_eq!(report.rules.len(), 1);
        assert!((report.summary.coverage - 1.0).abs() < 1e-12);
        // measured effect ≈ planted mix (0.3·4 + 0.7·12 = 9.6)
        assert!(
            (report.rules[0].utility.overall - 9.6).abs() < 1.5,
            "overall {}",
            report.rules[0].utility.overall
        );
        // and the protected/non-protected split shows the planted disparity
        let u = &report.rules[0].utility;
        assert!(u.non_protected > u.protected + 4.0);
    }

    #[test]
    fn mixed_clauses_are_kept_as_is() {
        // Baseline clauses mixing mutable and immutable attributes stay
        // intact — the paper's criticism that such "interventions" are not
        // actionable is part of the reproduction.
        let s = session();
        let clauses = vec![Pattern::of_eq(&[
            ("seg", Value::from("a")),
            ("t", Value::from("yes")),
        ])];
        let report = adapt_if_clauses(
            &s,
            &clauses,
            IfClauseRole::Intervention,
            "x",
            &FairCapConfig::default(),
        )
        .unwrap();
        assert_eq!(report.rules.len(), 1);
        assert!(report.rules[0].intervention.to_string().contains("seg = a"));
    }

    #[test]
    fn duplicate_clauses_merged() {
        let s = session();
        let clause = Pattern::of_eq(&[("t", Value::from("yes"))]);
        let report = adapt_if_clauses(
            &s,
            &[clause.clone(), clause],
            IfClauseRole::Intervention,
            "x",
            &FairCapConfig::default(),
        )
        .unwrap();
        assert_eq!(report.rules.len(), 1);
    }

    #[test]
    fn unknown_clause_column_is_a_typed_error() {
        let s = session();
        let clauses = vec![Pattern::of_eq(&[("ghost", Value::from("x"))])];
        for role in [IfClauseRole::Grouping, IfClauseRole::Intervention] {
            let err =
                adapt_if_clauses(&s, &clauses, role, "x", &FairCapConfig::default()).unwrap_err();
            assert!(err.to_string().contains("ghost"), "{role:?}: {err}");
        }
    }
}
