//! Prescription rules (Definition 4.3) and their per-rule statistics.

use faircap_table::{Mask, Pattern};
use serde::Serialize;
use std::fmt;

/// Utility triple of a rule (Definition 4.4): overall, protected,
/// non-protected CATE, plus significance diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct RuleUtility {
    /// `utility(r)` — CATE over the whole coverage.
    pub overall: f64,
    /// `utility_p(r)` — CATE over the protected part of the coverage
    /// (0 when the protected sub-coverage is empty / not estimable,
    /// following the paper's convention).
    pub protected: f64,
    /// `utility_{\bar p}(r)` — CATE over the non-protected part.
    pub non_protected: f64,
    /// p-value of the overall effect (statistical-significance filter §5).
    pub p_value: f64,
}

impl RuleUtility {
    /// Absolute protected/non-protected utility gap (the SP quantity).
    pub fn gap(&self) -> f64 {
        (self.non_protected - self.protected).abs()
    }
}

/// A prescription rule `r = (P_grp, P_int)` with materialized coverage and
/// utilities.
#[derive(Debug, Clone)]
pub struct Rule {
    /// Grouping pattern over immutable attributes.
    pub grouping: Pattern,
    /// Intervention pattern over mutable attributes.
    pub intervention: Pattern,
    /// `Coverage(P_grp)` over the full frame.
    pub coverage: Mask,
    /// Coverage restricted to the protected group.
    pub coverage_protected: Mask,
    /// Utility triple.
    pub utility: RuleUtility,
    /// Fairness-penalized benefit (§5.2 / §5.4), set by the miner for the
    /// active constraint.
    pub benefit: f64,
}

impl Rule {
    /// Number of covered tuples.
    pub fn coverage_count(&self) -> usize {
        self.coverage.count()
    }

    /// Number of covered protected tuples.
    pub fn coverage_protected_count(&self) -> usize {
        self.coverage_protected.count()
    }

    /// Render the rule as the paper's rule cards do ("For \[group\], \[action\]").
    pub fn describe(&self) -> String {
        format!(
            "For [{}], set [{}]  (utility: {:.0} overall / {:.0} protected / {:.0} non-protected)",
            self.grouping,
            self.intervention,
            self.utility.overall,
            self.utility.protected,
            self.utility.non_protected,
        )
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "IF {} THEN {}", self.grouping, self.intervention)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faircap_table::{DataFrame, Value};

    fn frame() -> DataFrame {
        DataFrame::builder()
            .cat("age", &["young", "young", "old", "old"])
            .cat("edu", &["none", "phd", "none", "phd"])
            .cat("grp", &["p", "np", "p", "np"])
            .build()
            .unwrap()
    }

    #[test]
    fn utility_gap() {
        let u = RuleUtility {
            overall: 10.0,
            protected: 4.0,
            non_protected: 12.0,
            p_value: 0.01,
        };
        assert_eq!(u.gap(), 8.0);
    }

    #[test]
    fn display_and_describe() {
        let df = frame();
        let protected = Pattern::of_eq(&[("grp", Value::from("p"))])
            .coverage(&df)
            .unwrap();
        let grouping = Pattern::of_eq(&[("age", Value::from("young"))]);
        let coverage = grouping.coverage(&df).unwrap();
        let coverage_protected = &coverage & &protected;
        let r = Rule {
            grouping,
            intervention: Pattern::of_eq(&[("edu", Value::from("phd"))]),
            coverage,
            coverage_protected,
            utility: RuleUtility {
                overall: 100.0,
                protected: 50.0,
                non_protected: 110.0,
                p_value: 0.001,
            },
            benefit: 42.0,
        };
        assert_eq!(r.to_string(), "IF age = young THEN edu = phd");
        assert!(r.describe().contains("edu = phd"));
        assert_eq!(r.coverage_count(), 2);
        assert_eq!(r.coverage_protected_count(), 1);
    }
}
