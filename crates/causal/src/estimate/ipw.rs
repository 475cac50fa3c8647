//! Inverse-propensity-weighting (IPW) CATE estimator.
//!
//! Fits a logistic-regression propensity model `P(T = 1 | Z)` by iteratively
//! reweighted least squares (IRLS, from scratch on our Cholesky solver),
//! then forms the Hájek (self-normalized) IPW contrast:
//!
//! `CATE = Σ_T w_i y_i / Σ_T w_i − Σ_C v_i y_i / Σ_C v_i`,
//! with `w_i = 1/p̂_i`, `v_i = 1/(1 − p̂_i)`.
//!
//! Propensities are clipped away from {0, 1} (overlap enforcement). This is
//! the third estimator ablation — DoWhy exposes the same trio (linear /
//! stratification / IPW) for backdoor adjustment.

use super::{kernel, normal_inference, Estimate, HotStats, MIN_ARM_SIZE};
use crate::error::{CausalError, Result};
use crate::linalg::solve_spd;
use faircap_table::{DataFrame, Mask};
use std::time::Instant;

/// Propensity clip bounds (positivity enforcement); shared with the AIPW
/// estimator so both enforce the same overlap region.
pub(crate) const CLIP: f64 = 0.01;
/// IRLS iteration cap; logistic fits on clean designs converge in < 10.
const MAX_IRLS_ITERS: usize = 25;

/// Estimate the CATE by inverse propensity weighting over the columnar
/// kernels (see module docs), with hot-path cost accounting.
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

    // Propensity design: [1, Z...]; with an empty adjustment set the model
    // degenerates to the marginal treatment rate (as it should).
    let t0 = Instant::now();
    let x = kernel::build_columns(df, adjustment, group, None)?;
    let y = kernel::gather_outcome(df, outcome, group)?;
    let t = kernel::gather_indicator(group, treated);
    stats.build_ns += t0.elapsed().as_nanos() as u64;
    let propensities = logistic_fit(x.cols(), &t)?;

    // Hájek-weighted means per arm, with clipped propensities.
    let mut sw_t = 0.0;
    let mut swy_t = 0.0;
    let mut sw_c = 0.0;
    let mut swy_c = 0.0;
    for i in 0..n {
        let p = propensities[i].clamp(CLIP, 1.0 - CLIP);
        if t[i] {
            let w = 1.0 / p;
            sw_t += w;
            swy_t += w * y[i];
        } else {
            let w = 1.0 / (1.0 - p);
            sw_c += w;
            swy_c += w * y[i];
        }
    }
    let mean_t = swy_t / sw_t;
    let mean_c = swy_c / sw_c;
    let cate = mean_t - mean_c;

    // Variance of the Hájek contrast via the weighted linearization:
    // Var(μ̂) ≈ Σ w_i²(y_i − μ̂)² / (Σ w_i)² per arm.
    let mut var_t = 0.0;
    let mut var_c = 0.0;
    for i in 0..n {
        let p = propensities[i].clamp(CLIP, 1.0 - CLIP);
        if t[i] {
            let w = 1.0 / p;
            var_t += w * w * (y[i] - mean_t) * (y[i] - mean_t);
        } else {
            let w = 1.0 / (1.0 - p);
            var_c += w * w * (y[i] - mean_c) * (y[i] - mean_c);
        }
    }
    let var = var_t / (sw_t * sw_t) + var_c / (sw_c * sw_c);
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

/// Logistic regression by IRLS over column-major design columns; returns
/// fitted probabilities per row. Each iteration's `XᵀWX` and `Xᵀ(t − p)`
/// reductions run through the fused blocked kernel
/// ([`kernel::weighted_gram_score`]).
/// Shared with the AIPW estimator, which augments the same propensity
/// model with per-arm outcome regressions.
pub(crate) fn logistic_fit(cols: &[Vec<f64>], t: &[bool]) -> Result<Vec<f64>> {
    let n = cols.first().map_or(0, Vec::len);
    let k = cols.len();
    let mut beta = vec![0.0; k];
    let mut probs: Vec<f64> = vec![0.5; n];
    let mut w = vec![0.0; n];
    let mut resid = vec![0.0; n];
    for _ in 0..MAX_IRLS_ITERS {
        for r in 0..n {
            let p = probs[r];
            w[r] = (p * (1.0 - p)).max(1e-6_f64);
            resid[r] = (t[r] as u8 as f64) - p;
        }
        let (gram, score) = kernel::weighted_gram_score(cols, &w, &resid);
        let delta = solve_spd(&gram, &score)?;
        let step: f64 = delta.iter().map(|d| d * d).sum::<f64>().sqrt();
        for (b, d) in beta.iter_mut().zip(&delta) {
            *b += d;
        }
        // Refresh probabilities.
        let eta = kernel::mat_vec_columns(cols, &beta);
        for (p, e) in probs.iter_mut().zip(&eta) {
            *p = 1.0 / (1.0 + (-e).exp());
        }
        if step < 1e-8 {
            break;
        }
    }
    Ok(probs)
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)]
mod tests {
    use super::*;
    use crate::estimate::{
        Estimator as _,
        EstimatorKind::{Ipw, Linear},
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
        let est = Ipw
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
        let est = Ipw.estimate(&df, &all, &treated, "o", &[]).unwrap();
        // Weights are uniform when the propensity model is marginal:
        // E[O|T=1] − E[O|T=0] = 47.5 − 12.5 = 35 (the biased naive value).
        assert!((est.cate - 35.0).abs() < 1e-6, "cate = {}", est.cate);
    }

    #[test]
    fn logistic_fit_recovers_rates() {
        // Propensity differs by group: 25% vs 75%.
        let n = 400;
        let mut indicator = vec![0.0f64; n];
        let mut t = Vec::with_capacity(n);
        for i in 0..n {
            let g = i % 2 == 0;
            indicator[i] = g as u8 as f64;
            // deterministic pattern with exact rates: within each parity
            // class, (i/2) cycles 0,1,2,3 → 75% treated in-group, 25% out.
            t.push(if g {
                (i / 2) % 4 != 0
            } else {
                (i / 2) % 4 == 0
            });
        }
        let cols = vec![vec![1.0; n], indicator];
        let probs = logistic_fit(&cols, &t).unwrap();
        let mean_g: f64 =
            (0..n).filter(|i| i % 2 == 0).map(|i| probs[i]).sum::<f64>() / (n / 2) as f64;
        let mean_ng: f64 =
            (0..n).filter(|i| i % 2 == 1).map(|i| probs[i]).sum::<f64>() / (n / 2) as f64;
        assert!((mean_g - 0.75).abs() < 0.02, "group rate {mean_g}");
        assert!((mean_ng - 0.25).abs() < 0.02, "non-group rate {mean_ng}");
    }

    #[test]
    fn agrees_with_linear_on_clean_design() {
        let (df, treated) = confounded_frame();
        let all = Mask::ones(df.n_rows());
        let ipw = Ipw
            .estimate(&df, &all, &treated, "o", &["z".into()])
            .unwrap();
        let lin = Linear
            .estimate(&df, &all, &treated, "o", &["z".into()])
            .unwrap();
        assert!(
            (ipw.cate - lin.cate).abs() < 1e-6,
            "ipw {} vs linear {}",
            ipw.cate,
            lin.cate
        );
    }

    #[test]
    fn insufficient_overlap_rejected() {
        let df = DataFrame::builder()
            .float("o", vec![1.0; 20])
            .build()
            .unwrap();
        let all = Mask::ones(20);
        let treated = Mask::from_indices(20, &[0, 1]);
        assert!(Ipw.estimate(&df, &all, &treated, "o", &[]).is_err());
    }
}
