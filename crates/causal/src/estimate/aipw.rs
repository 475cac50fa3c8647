//! Doubly-robust (AIPW) CATE estimator.
//!
//! Augmented inverse propensity weighting combines the two nuisance models
//! the other estimators use alone — an outcome regression per arm (as in
//! [`linear`](super::linear), fit separately on treated and control rows)
//! and a logistic propensity model (as in [`ipw`](mod@super::ipw)) — into the
//! efficient-influence-function score:
//!
//! `ψ_i = m̂₁(z_i) − m̂₀(z_i) + T_i (y_i − m̂₁(z_i)) / p̂_i
//!        − (1 − T_i)(y_i − m̂₀(z_i)) / (1 − p̂_i)`
//!
//! `CATE = mean(ψ)`, with the standard error the sample standard deviation
//! of `ψ` over `√n` (the influence-function variance).
//!
//! The estimator is **doubly robust**: it is consistent when *either* the
//! outcome regressions *or* the propensity model is correctly specified —
//! the augmentation term cancels the bias of whichever nuisance model is
//! wrong. `tests/integration_estimators.rs` asserts this property against a
//! synthetic SCM with a known ground-truth effect under deliberately
//! misspecified nuisance models. When both models are correct AIPW is
//! semiparametrically efficient, which is why it is the recommended default
//! once estimator choice matters more than raw speed.
//!
//! Propensities are clipped away from {0, 1} exactly as in
//! [`ipw`](mod@super::ipw), and the estimator *refuses* (typed error) when
//! the fitted propensity model (near-)separates the arms — over half the
//! rows at a clipped propensity — because the per-arm outcome models would
//! then pure-extrapolate while the influence-function variance understates
//! the error. Cache key: `"aipw"`.

use super::{ipw, kernel, normal_inference, Estimate, HotStats, MIN_ARM_SIZE};
use crate::error::{CausalError, Result};
use crate::linalg::solve_spd;
use faircap_table::{DataFrame, Mask};
use std::time::Instant;

/// Estimate the CATE by augmented inverse propensity weighting over the
/// columnar kernels (see module docs), with hot-path cost accounting.
pub fn estimate_with(
    df: &DataFrame,
    group: &Mask,
    treated: &Mask,
    outcome: &str,
    adjustment: &[String],
    stats: &mut HotStats,
) -> Result<Estimate> {
    let n = group.count();
    let n_treated = group.intersect_count(treated);
    let n_control = n - n_treated;
    if n_treated < MIN_ARM_SIZE || n_control < MIN_ARM_SIZE {
        return Err(CausalError::Estimation(format!(
            "insufficient overlap: {n_treated} treated / {n_control} control"
        )));
    }

    // Shared design [1, Z...] over the group rows: the propensity model and
    // both per-arm outcome regressions all read the same columnar encoding.
    let t0 = Instant::now();
    let x = kernel::build_columns(df, adjustment, group, None)?;
    let y = kernel::gather_outcome(df, outcome, group)?;
    let t = kernel::gather_indicator(group, treated);
    stats.build_ns += t0.elapsed().as_nanos() as u64;

    let propensities = ipw::logistic_fit(x.cols(), &t)?;
    // Positivity guard: when the propensity model (near-)separates the
    // arms, the per-arm outcome regressions extrapolate into covariate
    // regions their arm never observed and the influence-function variance
    // wildly understates the error. Refuse rather than report a confident
    // artifact — mirrors the stratified estimator's positivity refusal.
    let clipped = propensities
        .iter()
        .filter(|p| **p < ipw::CLIP || **p > 1.0 - ipw::CLIP)
        .count();
    if clipped * 2 > n {
        return Err(CausalError::Estimation(format!(
            "insufficient overlap: propensity model separates arms \
             ({clipped}/{n} rows with extreme propensity)"
        )));
    }
    let beta_t = fit_arm(x.cols(), &y, &t, true)?;
    let beta_c = fit_arm(x.cols(), &y, &t, false)?;

    // Doubly-robust scores; counterfactual means stream column-major.
    let m1s = kernel::mat_vec_columns(x.cols(), &beta_t);
    let m0s = kernel::mat_vec_columns(x.cols(), &beta_c);
    let mut psi = vec![0.0; n];
    for i in 0..n {
        let m1 = m1s[i];
        let m0 = m0s[i];
        let p = propensities[i].clamp(ipw::CLIP, 1.0 - ipw::CLIP);
        psi[i] = m1 - m0
            + if t[i] {
                (y[i] - m1) / p
            } else {
                -(y[i] - m0) / (1.0 - p)
            };
    }
    let cate = psi.iter().sum::<f64>() / n as f64;
    // Influence-function variance: Var(ψ)/n.
    let var_psi =
        psi.iter().map(|v| (v - cate) * (v - cate)).sum::<f64>() / (n as f64 - 1.0).max(1.0);
    let var = var_psi / n as f64;
    let (std_err, t_stat, p_value) = normal_inference(cate, var);
    Ok(Estimate {
        cate,
        std_err,
        t_stat,
        p_value,
        n_treated,
        n_control,
    })
}

/// OLS fit of the outcome on `[1, Z]` restricted to one arm; returns the
/// coefficient vector used to predict counterfactual means for *all* rows.
/// The arm restriction is a dense 0/1 multiplier so the masked gram and
/// right-hand side run through the blocked arm kernel without branching.
/// Shared with the matching estimator's bias-adjustment step.
pub(crate) fn fit_arm(cols: &[Vec<f64>], y: &[f64], t: &[bool], arm: bool) -> Result<Vec<f64>> {
    let mask: Vec<f64> = t.iter().map(|&tr| (tr == arm) as u8 as f64).collect();
    let (gram, xty) = kernel::arm_gram_xty(cols, y, &mask);
    solve_spd(&gram, &xty)
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)]
mod tests {
    use super::*;
    use crate::estimate::{
        Estimator as _,
        EstimatorKind::{Aipw, Linear},
    };
    use faircap_table::DataFrame;

    /// Same confounded fixture as the other estimators:
    /// z ∈ {low, high}; treatment more likely when z=high; O = 10·T + 50·z.
    fn confounded_frame() -> (DataFrame, Mask) {
        let mut z = Vec::new();
        let mut t = Vec::new();
        let mut o = Vec::new();
        for i in 0..40 {
            z.push("low");
            let ti = i < 10;
            t.push(ti);
            o.push(if ti { 10.0 } else { 0.0 });
        }
        for i in 0..40 {
            z.push("high");
            let ti = i < 30;
            t.push(ti);
            o.push(50.0 + if ti { 10.0 } else { 0.0 });
        }
        let treated = Mask::from_bools(&t);
        let df = DataFrame::builder()
            .cat("z", &z)
            .float("o", o)
            .build()
            .unwrap();
        (df, treated)
    }

    #[test]
    fn recovers_true_effect_under_confounding() {
        let (df, treated) = confounded_frame();
        let all = Mask::ones(df.n_rows());
        let est = Aipw
            .estimate(&df, &all, &treated, "o", &["z".into()])
            .unwrap();
        assert!((est.cate - 10.0).abs() < 1e-6, "cate = {}", est.cate);
        assert_eq!(est.n_treated, 40);
        assert_eq!(est.n_control, 40);
    }

    #[test]
    fn empty_adjustment_is_difference_in_means() {
        let (df, treated) = confounded_frame();
        let all = Mask::ones(df.n_rows());
        let est = Aipw.estimate(&df, &all, &treated, "o", &[]).unwrap();
        // With a marginal propensity and arm-mean outcome models the score
        // collapses to the naive contrast: 47.5 − 12.5 = 35.
        assert!((est.cate - 35.0).abs() < 1e-6, "cate = {}", est.cate);
    }

    #[test]
    fn agrees_with_linear_on_clean_design() {
        let (df, treated) = confounded_frame();
        let all = Mask::ones(df.n_rows());
        let aipw = Aipw
            .estimate(&df, &all, &treated, "o", &["z".into()])
            .unwrap();
        let lin = Linear
            .estimate(&df, &all, &treated, "o", &["z".into()])
            .unwrap();
        assert!(
            (aipw.cate - lin.cate).abs() < 1e-6,
            "aipw {} vs linear {}",
            aipw.cate,
            lin.cate
        );
    }

    #[test]
    fn zero_effect_not_significant() {
        // Outcome independent of treatment; deterministic pseudo-noise.
        let n = 200;
        let mut t = Vec::new();
        let mut o = Vec::new();
        let mut state = 0x9e3779b9u64;
        for i in 0..n {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            t.push(i % 2 == 0);
            o.push((state as f64 / u64::MAX as f64) * 8.0);
        }
        let treated = Mask::from_bools(&t);
        let df = DataFrame::builder().float("o", o).build().unwrap();
        let all = Mask::ones(n);
        let est = Aipw.estimate(&df, &all, &treated, "o", &[]).unwrap();
        assert!(!est.is_significant(0.01), "p = {}", est.p_value);
    }

    #[test]
    fn insufficient_overlap_rejected() {
        let df = DataFrame::builder()
            .float("o", vec![1.0; 20])
            .build()
            .unwrap();
        let all = Mask::ones(20);
        let treated = Mask::from_indices(20, &[0, 1]);
        assert!(Aipw.estimate(&df, &all, &treated, "o", &[]).is_err());
    }

    #[test]
    fn complete_separation_rejected() {
        // Treatment perfectly determined by the covariate: every z=a row
        // treated, every z=b row control. No overlap → the per-arm outcome
        // models would pure-extrapolate; the positivity guard must refuse.
        let mut z = Vec::new();
        let mut t = Vec::new();
        let mut o = Vec::new();
        for i in 0..40 {
            let a = i < 20;
            z.push(if a { "a" } else { "b" });
            t.push(a);
            o.push(if a { 67.0 } else { 50.0 } + (i % 7) as f64 * 0.1);
        }
        let treated = Mask::from_bools(&t);
        let df = DataFrame::builder()
            .cat("z", &z)
            .float("o", o)
            .build()
            .unwrap();
        let all = Mask::ones(40);
        let err = Aipw
            .estimate(&df, &all, &treated, "o", &["z".into()])
            .unwrap_err();
        assert!(err.to_string().contains("overlap"), "{err}");
    }
}
