//! Problem configuration: the fairness/coverage constraint system (§4.5,
//! §4.6) and algorithm knobs.

use serde::Serialize;
use std::fmt;

/// Group vs. individual scope of a fairness constraint (§4.6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum FairnessScope {
    /// Constrains ruleset-level expected utilities.
    Group,
    /// Constrains every selected rule.
    Individual,
}

/// Fairness constraint `F` (§4.6).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub enum FairnessConstraint {
    /// No fairness requirement.
    None,
    /// Statistical parity: protected and non-protected gains within `epsilon`.
    ///
    /// * Group: `|ExpUtility_p(R) − ExpUtility_p̄(R)| ≤ ε`.
    /// * Individual: for every rule, `|utility_p(r) − utility_p̄(r)| ≤ ε`.
    StatisticalParity {
        /// Scope of the requirement.
        scope: FairnessScope,
        /// Maximum allowed gap ε.
        epsilon: f64,
    },
    /// Bounded group loss: protected gains above `tau`.
    ///
    /// * Group: `ExpUtility_p(R) ≥ τ`.
    /// * Individual: for every rule, `utility_p(r) ≥ τ`.
    BoundedGroupLoss {
        /// Scope of the requirement.
        scope: FairnessScope,
        /// Minimum protected utility τ.
        tau: f64,
    },
}

impl FairnessConstraint {
    /// Short label used in experiment tables.
    pub fn label(&self) -> String {
        match self {
            FairnessConstraint::None => "no fairness".into(),
            FairnessConstraint::StatisticalParity { scope, epsilon } => {
                format!("{} SP(ε={epsilon})", scope_label(*scope))
            }
            FairnessConstraint::BoundedGroupLoss { scope, tau } => {
                format!("{} BGL(τ={tau})", scope_label(*scope))
            }
        }
    }

    /// Scope, if any.
    pub fn scope(&self) -> Option<FairnessScope> {
        match self {
            FairnessConstraint::None => None,
            FairnessConstraint::StatisticalParity { scope, .. }
            | FairnessConstraint::BoundedGroupLoss { scope, .. } => Some(*scope),
        }
    }
}

fn scope_label(s: FairnessScope) -> &'static str {
    match s {
        FairnessScope::Group => "group",
        FairnessScope::Individual => "individual",
    }
}

/// Coverage constraint `C` (§4.5).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub enum CoverageConstraint {
    /// No coverage requirement.
    None,
    /// Group coverage: the *ruleset* must cover ≥ `theta` of the population
    /// and ≥ `theta_protected` of the protected group.
    Group {
        /// Fraction of the whole population.
        theta: f64,
        /// Fraction of the protected group.
        theta_protected: f64,
    },
    /// Rule coverage: *every rule* must cover ≥ `theta` of the population
    /// and ≥ `theta_protected` of the protected group.
    Rule {
        /// Fraction of the whole population.
        theta: f64,
        /// Fraction of the protected group.
        theta_protected: f64,
    },
}

impl CoverageConstraint {
    /// Short label used in experiment tables.
    pub fn label(&self) -> String {
        match self {
            CoverageConstraint::None => "no coverage".into(),
            CoverageConstraint::Group {
                theta,
                theta_protected,
            } => format!("group cov(θ={theta},θp={theta_protected})"),
            CoverageConstraint::Rule {
                theta,
                theta_protected,
            } => format!("rule cov(θ={theta},θp={theta_protected})"),
        }
    }
}

/// Full configuration of a [Prescription Ruleset Selection] run
/// (Definition 4.6 + FairCap's algorithmic knobs, §5/§6 defaults).
#[derive(Debug, Clone, Serialize)]
pub struct FairCapConfig {
    /// Fairness constraint `F`.
    pub fairness: FairnessConstraint,
    /// Coverage constraint `C`.
    pub coverage: CoverageConstraint,
    /// Apriori support threshold for grouping patterns (τ in §5.1; paper
    /// default 0.1).
    pub apriori_threshold: f64,
    /// Maximum predicates per grouping pattern.
    pub max_group_len: usize,
    /// Maximum predicates per intervention pattern.
    pub max_intervention_len: usize,
    /// Hard cap on selected rules (the paper's tables report ≤ 20).
    pub max_rules: usize,
    /// Greedy stop threshold: stop when the marginal score of the best rule
    /// falls below this fraction of the best first-iteration score.
    pub min_marginal_gain: f64,
    /// Significance level for the per-rule effect filter.
    pub alpha: f64,
    /// Treatments kept per grouping pattern in step 2 (the paper keeps 1;
    /// larger values hand step 3 a richer pool at no extra estimation
    /// cost, since phase 1 evaluates the whole lattice either way).
    pub interventions_per_group: usize,
    /// Which CATE estimator to use.
    #[serde(skip)]
    pub estimator: faircap_causal::EstimatorKind,
    /// Intervention cost model (§8 extension; all-zero by default).
    #[serde(skip)]
    pub cost_model: crate::cost::CostModel,
    /// How costs constrain/re-rank interventions (§8 extension).
    pub cost_policy: crate::cost::CostPolicy,
    /// Parallelize intervention mining across grouping patterns (§5.2
    /// optimization (ii)).
    pub parallel: bool,
}

impl Default for FairCapConfig {
    fn default() -> Self {
        FairCapConfig {
            fairness: FairnessConstraint::None,
            coverage: CoverageConstraint::None,
            apriori_threshold: 0.1,
            max_group_len: 2,
            max_intervention_len: 2,
            max_rules: 20,
            min_marginal_gain: 0.01,
            alpha: 0.05,
            interventions_per_group: 1,
            estimator: faircap_causal::EstimatorKind::Linear,
            cost_model: crate::cost::CostModel::default(),
            cost_policy: crate::cost::CostPolicy::Ignore,
            parallel: true,
        }
    }
}

impl FairCapConfig {
    /// Label combining both constraints, as in the paper's Table 4 rows.
    pub fn label(&self) -> String {
        format!("{} + {}", self.fairness.label(), self.coverage.label())
    }
}

impl fmt::Display for FairCapConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_descriptive() {
        let f = FairnessConstraint::StatisticalParity {
            scope: FairnessScope::Group,
            epsilon: 10_000.0,
        };
        assert_eq!(f.label(), "group SP(ε=10000)");
        let b = FairnessConstraint::BoundedGroupLoss {
            scope: FairnessScope::Individual,
            tau: 0.1,
        };
        assert!(b.label().contains("individual BGL"));
        let c = CoverageConstraint::Rule {
            theta: 0.5,
            theta_protected: 0.5,
        };
        assert!(c.label().contains("rule cov"));
    }

    #[test]
    fn default_matches_paper_defaults() {
        let cfg = FairCapConfig::default();
        assert_eq!(cfg.apriori_threshold, 0.1);
        assert_eq!(cfg.max_rules, 20);
        assert!(matches!(cfg.fairness, FairnessConstraint::None));
        assert!(matches!(cfg.coverage, CoverageConstraint::None));
    }

    #[test]
    fn scope_extraction() {
        assert_eq!(FairnessConstraint::None.scope(), None);
        assert_eq!(
            FairnessConstraint::StatisticalParity {
                scope: FairnessScope::Individual,
                epsilon: 1.0
            }
            .scope(),
            Some(FairnessScope::Individual)
        );
    }
}
