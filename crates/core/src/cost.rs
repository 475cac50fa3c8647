//! Intervention costs — the paper's §8 "future work" extension.
//!
//! > *"Future research will incorporate intervention costs to generate
//! > budget-constrained rules…"*
//!
//! A [`CostModel`] assigns a cost to every `attr = value` assignment (e.g.
//! "pursue a PhD" is expensive, "learn another language" cheap). The cost of
//! an intervention pattern is the sum over its predicates. Costs integrate
//! with the miner in two ways, selected by [`CostPolicy`]:
//!
//! * **Budget** — interventions costing more than a per-rule budget are
//!   infeasible and never mined.
//! * **Penalize** — the benefit of a rule is divided by `1 + weight · cost`,
//!   favoring cheap treatments with comparable effects (a
//!   "utility-per-dollar" view).

use faircap_table::{Pattern, Value};
use serde::Serialize;
use std::collections::HashMap;

/// Per-assignment intervention costs.
///
/// Unknown assignments fall back to an attribute-level default, then to the
/// global default (so a partially specified model stays usable).
///
/// Assignment costs are keyed by attribute, then by value, so a lookup
/// borrows the predicate's `&str` and `&Value` and allocates nothing:
/// Step 2 prices every cached lattice node on every re-solve.
#[derive(Debug, Clone, Default)]
pub struct CostModel {
    by_assignment: HashMap<String, HashMap<Value, f64>>,
    by_attribute: HashMap<String, f64>,
    default: f64,
}

impl CostModel {
    /// A model where every assignment costs `default`.
    pub fn with_default(default: f64) -> CostModel {
        CostModel {
            default,
            ..CostModel::default()
        }
    }

    /// Set the cost of one `attr = value` assignment.
    pub fn set(mut self, attr: &str, value: Value, cost: f64) -> CostModel {
        self.by_assignment
            .entry(attr.to_owned())
            .or_default()
            .insert(value, cost);
        self
    }

    /// Set the fallback cost for any assignment of an attribute.
    pub fn set_attribute(mut self, attr: &str, cost: f64) -> CostModel {
        self.by_attribute.insert(attr.to_owned(), cost);
        self
    }

    /// Cost of one assignment.
    pub fn assignment_cost(&self, attr: &str, value: &Value) -> f64 {
        if let Some(&c) = self
            .by_assignment
            .get(attr)
            .and_then(|by_value| by_value.get(value))
        {
            return c;
        }
        self.by_attribute.get(attr).copied().unwrap_or(self.default)
    }

    /// Cost of an intervention pattern: the sum over its predicates.
    pub fn pattern_cost(&self, intervention: &Pattern) -> f64 {
        intervention
            .predicates()
            .iter()
            .map(|p| self.assignment_cost(&p.attr, &p.value))
            .sum()
    }
}

/// How costs constrain or re-rank interventions.
#[derive(Debug, Clone, Serialize, Default)]
pub enum CostPolicy {
    /// Costs are ignored (the paper's published algorithm).
    #[default]
    Ignore,
    /// Interventions costing more than `max_rule_cost` are infeasible.
    Budget {
        /// Per-rule cost budget.
        max_rule_cost: f64,
    },
    /// Benefit is divided by `1 + weight · cost` (cost-effectiveness).
    Penalize {
        /// Strength of the penalty.
        weight: f64,
    },
}

impl CostPolicy {
    /// Is an intervention with the given cost feasible at all?
    pub fn is_feasible(&self, cost: f64) -> bool {
        match self {
            CostPolicy::Budget { max_rule_cost } => cost <= *max_rule_cost,
            _ => true,
        }
    }

    /// Apply the policy to a benefit score.
    pub fn adjust_benefit(&self, benefit: f64, cost: f64) -> f64 {
        match self {
            CostPolicy::Penalize { weight } if benefit > 0.0 => {
                benefit / (1.0 + weight * cost.max(0.0))
            }
            _ => benefit,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> CostModel {
        CostModel::with_default(1.0)
            .set("education", Value::from("phd"), 10.0)
            .set("education", Value::from("bachelor"), 4.0)
            .set_attribute("languages_count", 0.5)
    }

    #[test]
    fn lookup_precedence() {
        let m = model();
        assert_eq!(m.assignment_cost("education", &Value::from("phd")), 10.0);
        // attribute fallback
        assert_eq!(
            m.assignment_cost("languages_count", &Value::from("6+")),
            0.5
        );
        // global default
        assert_eq!(m.assignment_cost("remote_work", &Value::from("yes")), 1.0);
    }

    #[test]
    fn assignment_cost_is_per_attribute() {
        let m = CostModel::with_default(1.0).set("a", Value::from("v"), 7.0);
        assert_eq!(m.assignment_cost("a", &Value::from("v")), 7.0);
        // the same value under another attribute takes that attribute's
        // fallback, not `a = v`'s cost
        assert_eq!(m.assignment_cost("b", &Value::from("v")), 1.0);
    }

    #[test]
    fn later_set_overrides_earlier() {
        let m =
            CostModel::default()
                .set("a", Value::from("v"), 7.0)
                .set("a", Value::from("v"), 2.0);
        assert_eq!(m.assignment_cost("a", &Value::from("v")), 2.0);
    }

    #[test]
    fn attribute_with_assignments_falls_back_for_other_values() {
        let m = model();
        // `education` has assignment entries but no attribute cost: any
        // other value takes the global default
        assert_eq!(m.assignment_cost("education", &Value::from("none")), 1.0);
        // with an attribute cost, other values take it instead
        let m = m.set_attribute("education", 3.0);
        assert_eq!(m.assignment_cost("education", &Value::from("none")), 3.0);
        assert_eq!(m.assignment_cost("education", &Value::from("phd")), 10.0);
    }

    #[test]
    fn pattern_cost_is_additive() {
        let m = model();
        let p = Pattern::of_eq(&[
            ("education", Value::from("phd")),
            ("languages_count", Value::from("6+")),
        ]);
        assert_eq!(m.pattern_cost(&p), 10.5);
        assert_eq!(m.pattern_cost(&Pattern::empty()), 0.0);
    }

    #[test]
    fn budget_policy_gates() {
        let policy = CostPolicy::Budget { max_rule_cost: 5.0 };
        assert!(policy.is_feasible(4.0));
        assert!(policy.is_feasible(5.0));
        assert!(!policy.is_feasible(5.1));
        // budget does not change scores
        assert_eq!(policy.adjust_benefit(7.0, 4.0), 7.0);
    }

    #[test]
    fn penalty_policy_scales() {
        let policy = CostPolicy::Penalize { weight: 0.5 };
        assert!(policy.is_feasible(f64::MAX));
        assert_eq!(policy.adjust_benefit(10.0, 2.0), 5.0);
        // zero cost → unchanged
        assert_eq!(policy.adjust_benefit(10.0, 0.0), 10.0);
        // non-positive benefits pass through
        assert_eq!(policy.adjust_benefit(-1.0, 10.0), -1.0);
    }

    #[test]
    fn ignore_policy_is_identity() {
        let policy = CostPolicy::Ignore;
        assert!(policy.is_feasible(f64::MAX));
        assert_eq!(policy.adjust_benefit(3.0, 100.0), 3.0);
    }
}
