//! Constraint validity checks (`R ⊨ F`, `R ⊨ C` of Definition 4.6).

use crate::config::{CoverageConstraint, FairnessConstraint, FairnessScope};
use crate::rule::{Rule, RuleUtility};
use crate::utility::RulesetUtility;

/// Does a rule with this utility triple satisfy an **individual-scope**
/// fairness constraint? Group-scope (and `None`) constraints never reject
/// individual rules here. Step 2 asks this before it builds the rule.
pub fn utility_satisfies_fairness(utility: &RuleUtility, fairness: &FairnessConstraint) -> bool {
    match fairness {
        FairnessConstraint::StatisticalParity {
            scope: FairnessScope::Individual,
            epsilon,
        } => utility.gap() <= *epsilon,
        FairnessConstraint::BoundedGroupLoss {
            scope: FairnessScope::Individual,
            tau,
        } => utility.protected >= *tau,
        _ => true,
    }
}

/// Does a single rule satisfy an **individual-scope** fairness constraint?
/// See [`utility_satisfies_fairness`].
pub fn rule_satisfies_fairness(rule: &Rule, fairness: &FairnessConstraint) -> bool {
    utility_satisfies_fairness(&rule.utility, fairness)
}

/// Does a single rule satisfy a **rule-scope** coverage constraint?
/// Group-scope (and `None`) constraints never reject individual rules here.
pub fn rule_satisfies_coverage(
    rule: &Rule,
    coverage: &CoverageConstraint,
    n_rows: usize,
    n_protected: usize,
) -> bool {
    match coverage {
        CoverageConstraint::Rule {
            theta,
            theta_protected,
        } => {
            rule.coverage_count() as f64 >= theta * n_rows as f64
                && rule.coverage_protected_count() as f64 >= theta_protected * n_protected as f64
        }
        _ => true,
    }
}

/// Does a ruleset-level summary satisfy a **group-scope** fairness
/// constraint? Individual-scope constraints are vacuously true here (they
/// are enforced per rule).
pub fn summary_satisfies_fairness(summary: &RulesetUtility, fairness: &FairnessConstraint) -> bool {
    match fairness {
        FairnessConstraint::StatisticalParity {
            scope: FairnessScope::Group,
            epsilon,
        } => (summary.expected_protected - summary.expected_non_protected).abs() <= *epsilon,
        FairnessConstraint::BoundedGroupLoss {
            scope: FairnessScope::Group,
            tau,
        } => summary.expected_protected >= *tau,
        _ => true,
    }
}

/// Does a ruleset-level summary satisfy a **group-scope** coverage
/// constraint? Rule-scope constraints are vacuously true here.
pub fn summary_satisfies_coverage(summary: &RulesetUtility, coverage: &CoverageConstraint) -> bool {
    match coverage {
        CoverageConstraint::Group {
            theta,
            theta_protected,
        } => summary.coverage >= *theta && summary.coverage_protected >= *theta_protected,
        _ => true,
    }
}

/// Full validity of a solution: per-rule checks for individual/rule scopes
/// plus summary checks for group scopes.
pub fn solution_is_valid(
    rules: &[&Rule],
    summary: &RulesetUtility,
    fairness: &FairnessConstraint,
    coverage: &CoverageConstraint,
    n_rows: usize,
    n_protected: usize,
) -> bool {
    rules.iter().all(|r| {
        rule_satisfies_fairness(r, fairness)
            && rule_satisfies_coverage(r, coverage, n_rows, n_protected)
    }) && summary_satisfies_fairness(summary, fairness)
        && summary_satisfies_coverage(summary, coverage)
}

#[cfg(test)]
mod tests {
    use super::*;
    use faircap_table::{Mask, Pattern};

    fn rule(cov: usize, cov_p: usize, prot: f64, np: f64) -> Rule {
        Rule {
            grouping: Pattern::empty(),
            intervention: Pattern::empty(),
            coverage: Mask::from_indices(100, &(0..cov).collect::<Vec<_>>()),
            coverage_protected: Mask::from_indices(100, &(0..cov_p).collect::<Vec<_>>()),
            utility: RuleUtility {
                overall: (prot + np) / 2.0,
                protected: prot,
                non_protected: np,
                p_value: 0.0,
            },
            benefit: 0.0,
        }
    }

    #[test]
    fn individual_sp_gates_rules() {
        let f = FairnessConstraint::StatisticalParity {
            scope: FairnessScope::Individual,
            epsilon: 5.0,
        };
        assert!(rule_satisfies_fairness(&rule(10, 5, 10.0, 14.0), &f));
        assert!(!rule_satisfies_fairness(&rule(10, 5, 10.0, 16.0), &f));
        // group scope never rejects a single rule
        let g = FairnessConstraint::StatisticalParity {
            scope: FairnessScope::Group,
            epsilon: 5.0,
        };
        assert!(rule_satisfies_fairness(&rule(10, 5, 10.0, 100.0), &g));
    }

    #[test]
    fn individual_bgl_gates_rules() {
        let f = FairnessConstraint::BoundedGroupLoss {
            scope: FairnessScope::Individual,
            tau: 8.0,
        };
        assert!(rule_satisfies_fairness(&rule(10, 5, 8.0, 20.0), &f));
        assert!(!rule_satisfies_fairness(&rule(10, 5, 7.9, 20.0), &f));
    }

    #[test]
    fn rule_coverage_gates_rules() {
        let c = CoverageConstraint::Rule {
            theta: 0.3,
            theta_protected: 0.5,
        };
        // 100 rows, 20 protected → needs cov ≥ 30 and cov_p ≥ 10.
        assert!(rule_satisfies_coverage(
            &rule(30, 10, 0.0, 0.0),
            &c,
            100,
            20
        ));
        assert!(!rule_satisfies_coverage(
            &rule(29, 10, 0.0, 0.0),
            &c,
            100,
            20
        ));
        assert!(!rule_satisfies_coverage(
            &rule(30, 9, 0.0, 0.0),
            &c,
            100,
            20
        ));
        // group scope never rejects a single rule
        let g = CoverageConstraint::Group {
            theta: 0.9,
            theta_protected: 0.9,
        };
        assert!(rule_satisfies_coverage(&rule(1, 0, 0.0, 0.0), &g, 100, 20));
    }

    #[test]
    fn group_constraints_check_summary() {
        let mut s = RulesetUtility::empty();
        s.expected_protected = 10.0;
        s.expected_non_protected = 18.0;
        s.coverage = 0.6;
        s.coverage_protected = 0.4;
        let sp = FairnessConstraint::StatisticalParity {
            scope: FairnessScope::Group,
            epsilon: 8.0,
        };
        assert!(summary_satisfies_fairness(&s, &sp));
        let sp_tight = FairnessConstraint::StatisticalParity {
            scope: FairnessScope::Group,
            epsilon: 7.9,
        };
        assert!(!summary_satisfies_fairness(&s, &sp_tight));
        let bgl = FairnessConstraint::BoundedGroupLoss {
            scope: FairnessScope::Group,
            tau: 10.0,
        };
        assert!(summary_satisfies_fairness(&s, &bgl));
        let cov = CoverageConstraint::Group {
            theta: 0.5,
            theta_protected: 0.5,
        };
        assert!(!summary_satisfies_coverage(&s, &cov));
        let cov_ok = CoverageConstraint::Group {
            theta: 0.5,
            theta_protected: 0.4,
        };
        assert!(summary_satisfies_coverage(&s, &cov_ok));
    }

    #[test]
    fn matroid_property_of_individual_constraints() {
        // Hereditary: any subset of a valid set is valid (Prop. 9.2).
        let f = FairnessConstraint::StatisticalParity {
            scope: FairnessScope::Individual,
            epsilon: 5.0,
        };
        let c = CoverageConstraint::Rule {
            theta: 0.1,
            theta_protected: 0.1,
        };
        let rules = [
            rule(20, 5, 10.0, 12.0),
            rule(30, 8, 8.0, 11.0),
            rule(15, 4, 9.0, 13.0),
        ];
        let all_valid = rules
            .iter()
            .all(|r| rule_satisfies_fairness(r, &f) && rule_satisfies_coverage(r, &c, 100, 20));
        assert!(all_valid);
        // every subset is valid because validity is per-rule
        for i in 0..rules.len() {
            let subset: Vec<&Rule> = rules
                .iter()
                .enumerate()
                .filter(|(j, _)| *j != i)
                .map(|(_, r)| r)
                .collect();
            assert!(subset.iter().all(|r| rule_satisfies_fairness(r, &f)));
        }
    }
}
