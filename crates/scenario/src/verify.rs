//! Grading estimators against a scenario's planted ground truth.
//!
//! Two graders, mirroring the two claims the recovery tests make:
//!
//! * [`check_recovery`] — adjusted estimators (stratified / IPW / AIPW /
//!   matching by default) must land within a CI-stable tolerance of the
//!   planted CATE in every (treatment × group) cell;
//! * [`naive_bias`] — the *unadjusted* difference-in-means on the same data
//!   must be provably biased (large error, many standard errors from the
//!   truth), demonstrating that the scenario's confounding has teeth.

use crate::error::Result;
use crate::generate::GeneratedScenario;
use crate::spec::TruthGroup;
use faircap_causal::{Estimator as _, EstimatorKind, Recovery};
use faircap_table::{Pattern, Value};

/// What to grade and how tight.
#[derive(Debug, Clone)]
pub struct RecoveryOptions {
    /// Estimators under test.
    pub estimators: Vec<EstimatorKind>,
    /// Absolute error slack (outcome units).
    pub abs_tol: f64,
    /// Additional slack in units of each estimate's standard error.
    pub z_tol: f64,
}

impl Default for RecoveryOptions {
    fn default() -> Self {
        RecoveryOptions {
            // The estimators whose estimand is the group ATE even under
            // heterogeneous effects. `matching` rides its KD-tree index at
            // scenario sizes, so it now fits the default pair budget; OLS
            // `linear` variance-weights strata and stays opt-in.
            estimators: vec![
                EstimatorKind::Stratified,
                EstimatorKind::Ipw,
                EstimatorKind::Aipw,
                EstimatorKind::Matching,
            ],
            abs_tol: 1.0,
            z_tol: 4.0,
        }
    }
}

/// One graded (estimator × treatment × group) cell.
#[derive(Debug, Clone)]
pub struct RecoveryCheck {
    /// The estimator under test.
    pub estimator: EstimatorKind,
    /// The flexible attribute treated.
    pub treatment: String,
    /// The subpopulation.
    pub group: TruthGroup,
    /// Estimate-vs-truth comparison.
    pub recovery: Recovery,
    /// Whether the cell passed `recovery.within(abs_tol, z_tol)`.
    pub pass: bool,
}

impl std::fmt::Display for RecoveryCheck {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} {} on {} [{}]: {}",
            if self.pass { "PASS" } else { "FAIL" },
            self.estimator.name(),
            self.treatment,
            self.group.name(),
            self.recovery
        )
    }
}

/// The backdoor adjustment set for a group: all stable attributes, minus
/// `s0` when the group is defined by it (a within-group constant is not a
/// confounder, and a constant covariate would degenerate some designs).
fn adjustment_for(sc: &GeneratedScenario, group: TruthGroup) -> Vec<String> {
    match group {
        TruthGroup::All => sc.dataset.immutable.clone(),
        TruthGroup::Protected | TruthGroup::NonProtected => sc
            .dataset
            .immutable
            .iter()
            .filter(|a| a.as_str() != "s0")
            .cloned()
            .collect(),
    }
}

/// Grade every (estimator × treatment × group) cell of a scenario.
/// A failed cell is a `pass: false` row, not an error; estimation errors
/// (e.g. an exhausted matching budget) do propagate.
pub fn check_recovery(
    sc: &GeneratedScenario,
    options: &RecoveryOptions,
) -> Result<Vec<RecoveryCheck>> {
    let df = &sc.dataset.df;
    let mut out = Vec::new();
    for treatment in &sc.dataset.mutable {
        let treated = Pattern::of_eq(&[(treatment, Value::from("yes"))]).coverage(df)?;
        for group in TruthGroup::ALL {
            let mask = sc.group_mask(group);
            let adjustment = adjustment_for(sc, group);
            let truth = sc
                .truth_for(treatment, group)
                .expect("truth table covers every flexible attribute");
            for &estimator in &options.estimators {
                let est =
                    estimator.estimate(df, &mask, &treated, &sc.dataset.outcome, &adjustment)?;
                let recovery = Recovery::of(&est, truth);
                out.push(RecoveryCheck {
                    estimator,
                    treatment: treatment.clone(),
                    group,
                    pass: recovery.within(options.abs_tol, options.z_tol),
                    recovery,
                });
            }
        }
    }
    Ok(out)
}

/// The unadjusted (difference-in-means) estimate of one treatment over the
/// whole population, compared against the planted ATE. On any scenario
/// with `confounding > 0` this must fail [`Recovery::biased`]'s test —
/// asserted by the recovery integration test, and the reason `--check`
/// reports it separately.
pub fn naive_bias(sc: &GeneratedScenario, treatment: &str) -> Result<Recovery> {
    let df = &sc.dataset.df;
    let treated = Pattern::of_eq(&[(treatment, Value::from("yes"))]).coverage(df)?;
    let est = EstimatorKind::Linear.estimate(
        df,
        &sc.group_mask(TruthGroup::All),
        &treated,
        &sc.dataset.outcome,
        &[],
    )?;
    let truth = sc
        .truth_for(treatment, TruthGroup::All)
        .expect("truth table covers every flexible attribute");
    Ok(Recovery::of(&est, truth))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::generate;
    use crate::spec::ScenarioSpec;

    #[test]
    fn adjustment_drops_s0_only_for_restricted_groups() {
        let sc = generate(&ScenarioSpec {
            rows: 200,
            ..Default::default()
        })
        .unwrap();
        assert!(adjustment_for(&sc, TruthGroup::All).contains(&"s0".to_owned()));
        let within = adjustment_for(&sc, TruthGroup::Protected);
        assert!(!within.contains(&"s0".to_owned()));
        assert_eq!(within.len(), sc.dataset.immutable.len() - 1);
    }

    #[test]
    fn check_covers_every_cell() {
        let sc = generate(&ScenarioSpec {
            rows: 4_000,
            ..Default::default()
        })
        .unwrap();
        let checks = check_recovery(&sc, &RecoveryOptions::default()).unwrap();
        // flexible × 3 groups × 4 estimators.
        assert_eq!(checks.len(), sc.spec.flexible * 3 * 4);
        for c in &checks {
            assert!(c.recovery.std_err > 0.0, "{c}");
        }
    }

    #[test]
    fn display_names_the_cell() {
        let sc = generate(&ScenarioSpec {
            rows: 2_000,
            ..Default::default()
        })
        .unwrap();
        let checks = check_recovery(
            &sc,
            &RecoveryOptions {
                estimators: vec![EstimatorKind::Stratified],
                ..Default::default()
            },
        )
        .unwrap();
        let line = checks[0].to_string();
        assert!(line.contains("stratified") && line.contains("f0"), "{line}");
    }
}
