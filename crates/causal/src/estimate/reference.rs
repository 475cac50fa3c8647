//! Naive reference implementations of the estimator hot path.
//!
//! These are the straightforward row-major / per-entry loops the blocked
//! columnar kernels in [`kernel`](super::kernel) replaced, and the per-unit matching
//! loop the cell-level pass in [`matching`] replaced. They are kept —
//! and kept public — for two reasons: `tests/prop_kernels.rs` property-tests
//! every kernel against its naive counterpart **bit for bit** (the kernels
//! promise identical f64 results for any block size; the
//! one documented exception is the inference statistics of `linear`'s
//! count path, held to [`linear::INFERENCE_TOLERANCE`](super::linear::INFERENCE_TOLERANCE)), and
//! `estimator_bench` measures the kernels' speedups against them so the
//! committed `BENCH_estimators.json` records the win, not just the absolute
//! numbers.
//!
//! Nothing here is reachable from the serving hot path; correctness of the
//! fast path is what these functions are *for*.

use super::matching::{self, brute_ties, Fit, MatchParams, K_NEIGHBORS, MATCH_PARTS};
use super::{design, normal_inference, Estimate, HotStats, MIN_ARM_SIZE};
use crate::error::{CausalError, Result};
use crate::estimate::ipw::CLIP;
use crate::linalg::{inverse_spd, solve_spd, Matrix};
use faircap_table::stats::t_sf_two_sided;
use faircap_table::{DataFrame, Mask};

/// Row-by-row design assembly (`[1, T?, Z…]`), transposed into column
/// vectors so results compare directly against
/// [`kernel::build_columns`](super::kernel::build_columns).
pub fn design_columns_naive(
    df: &DataFrame,
    adjustment: &[String],
    group: &Mask,
    treated: Option<&Mask>,
) -> Result<Vec<Vec<f64>>> {
    let rows = group.to_indices();
    let n = rows.len();
    let (blocks, z_width) = design::build_blocks(df, adjustment, group)?;
    let t_cols = treated.is_some() as usize;
    let k = 1 + t_cols + z_width;
    let mut cols = vec![vec![0.0f64; n]; k];
    let mut scratch = vec![0.0f64; z_width];
    for (r, &row) in rows.iter().enumerate() {
        cols[0][r] = 1.0;
        if let Some(t) = treated {
            cols[1][r] = if t.get(row) { 1.0 } else { 0.0 };
        }
        scratch.fill(0.0);
        let mut offset = 0;
        for b in &blocks {
            b.fill(row, &mut scratch[offset..offset + b.width()]);
            offset += b.width();
        }
        for (j, &v) in scratch.iter().enumerate() {
            cols[1 + t_cols + j][r] = v;
        }
    }
    Ok(cols)
}

/// Per-entry `XᵀX`: one ascending-row accumulator per `(i, j)` entry, no
/// zero-skipping — the order the blocked kernel reproduces exactly.
pub fn gram_naive(cols: &[Vec<f64>]) -> Matrix {
    let k = cols.len();
    let n = cols.first().map_or(0, Vec::len);
    let mut g = Matrix::zeros(k, k);
    for j in 0..k {
        for i in 0..=j {
            let mut acc = 0.0f64;
            for (x, y) in cols[i].iter().take(n).zip(&cols[j]) {
                acc += x * y;
            }
            g.set(i, j, acc);
            g.set(j, i, acc);
        }
    }
    g
}

/// Per-entry `Xᵀy` in ascending row order.
pub fn xty_naive(cols: &[Vec<f64>], y: &[f64]) -> Vec<f64> {
    cols.iter()
        .map(|cj| {
            let mut a = 0.0f64;
            for (x, v) in cj.iter().zip(y) {
                a += x * v;
            }
            a
        })
        .collect()
}

/// One IRLS step's reductions, per entry: weighted gram terms accumulate as
/// `(w·xᵢ)·xⱼ`, score entries as `xⱼ·r`, both in ascending row order.
pub fn weighted_gram_score_naive(
    cols: &[Vec<f64>],
    w: &[f64],
    resid: &[f64],
) -> (Matrix, Vec<f64>) {
    let k = cols.len();
    let n = cols.first().map_or(0, Vec::len);
    let mut g = Matrix::zeros(k, k);
    let mut score = vec![0.0f64; k];
    for j in 0..k {
        for i in 0..=j {
            let mut acc = 0.0f64;
            for r in 0..n {
                acc += (w[r] * cols[i][r]) * cols[j][r];
            }
            g.set(i, j, acc);
            g.set(j, i, acc);
        }
        let mut s = 0.0f64;
        for r in 0..n {
            s += cols[j][r] * resid[r];
        }
        score[j] = s;
    }
    (g, score)
}

/// Arm-restricted `XᵀX` / `Xᵀy` with a dense 0/1 arm multiplier: gram terms
/// `(m·xᵢ)·xⱼ`, right-hand side `(m·xⱼ)·y`, ascending row order.
pub fn arm_gram_xty_naive(cols: &[Vec<f64>], y: &[f64], arm: &[f64]) -> (Matrix, Vec<f64>) {
    let k = cols.len();
    let n = cols.first().map_or(0, Vec::len);
    let mut g = Matrix::zeros(k, k);
    let mut xty = vec![0.0f64; k];
    for j in 0..k {
        for i in 0..=j {
            let mut acc = 0.0f64;
            for r in 0..n {
                acc += (arm[r] * cols[i][r]) * cols[j][r];
            }
            g.set(i, j, acc);
            g.set(j, i, acc);
        }
        let mut rhs = 0.0f64;
        for r in 0..n {
            rhs += (arm[r] * cols[j][r]) * y[r];
        }
        xty[j] = rhs;
    }
    (g, xty)
}

/// Row-major `X·β`: per row, an ascending-column dot product.
pub fn mat_vec_naive(cols: &[Vec<f64>], beta: &[f64]) -> Vec<f64> {
    let k = cols.len();
    let n = cols.first().map_or(0, Vec::len);
    let mut out = vec![0.0f64; n];
    for (r, o) in out.iter_mut().enumerate() {
        let mut acc = 0.0f64;
        for c in 0..k {
            acc += cols[c][r] * beta[c];
        }
        *o = acc;
    }
    out
}

/// The pre-kernel OLS estimator: row-major design assembly and dense
/// `Matrix` reductions. Bench baseline for `linear`.
pub fn linear_naive(
    df: &DataFrame,
    group: &Mask,
    treated: &Mask,
    outcome: &str,
    adjustment: &[String],
) -> Result<Estimate> {
    let in_group: Vec<usize> = group.to_indices();
    let n = in_group.len();
    let n_treated = group.intersect_count(treated);
    let n_control = n - n_treated;
    if n_treated < MIN_ARM_SIZE || n_control < MIN_ARM_SIZE {
        return Err(CausalError::Estimation(format!(
            "insufficient overlap: {n_treated} treated / {n_control} control"
        )));
    }

    // Column layout: [intercept, T, covariate blocks...].
    let (blocks, z_width) = design::build_blocks(df, adjustment, group)?;
    let k: usize = 2 + z_width;
    if n <= k + 1 {
        return Err(CausalError::Estimation(format!(
            "too few rows ({n}) for {k} regressors"
        )));
    }

    let outcome_col = df.column(outcome)?;
    let mut x = Matrix::zeros(n, k);
    let mut y = vec![0.0; n];
    for (r, &row) in in_group.iter().enumerate() {
        y[r] = outcome_col.get_f64(row).ok_or_else(|| {
            CausalError::Estimation(format!("outcome `{outcome}` is not numeric"))
        })?;
        let xr = x.row_mut(r);
        xr[0] = 1.0;
        xr[1] = if treated.get(row) { 1.0 } else { 0.0 };
        let mut offset = 2;
        for b in &blocks {
            b.fill(row, &mut xr[offset..offset + b.width()]);
            offset += b.width();
        }
    }

    let gram = x.gram();
    let xty = x.t_mul_vec(&y);
    let beta = solve_spd(&gram, &xty)?;

    let fitted = x.mul_vec(&beta);
    let rss: f64 = y
        .iter()
        .zip(&fitted)
        .map(|(yi, fi)| (yi - fi) * (yi - fi))
        .sum();
    let dof = (n - k) as f64;
    let sigma2 = rss / dof;
    let inv = inverse_spd(&gram)?;
    let var_t = sigma2 * inv.get(1, 1);
    let cate = beta[1];
    if var_t <= 0.0 || !var_t.is_finite() {
        return Err(CausalError::Estimation(
            "degenerate variance for treatment coefficient".into(),
        ));
    }
    let std_err = var_t.sqrt();
    let t_stat = cate / std_err;
    Ok(Estimate {
        cate,
        std_err,
        t_stat,
        p_value: t_sf_two_sided(t_stat, dof),
        n_treated,
        n_control,
    })
}

/// The pre-kernel IPW estimator: row-major IRLS with per-row gram
/// accumulation (and its original zero-skip). Bench baseline for `ipw`.
pub fn ipw_naive(
    df: &DataFrame,
    group: &Mask,
    treated: &Mask,
    outcome: &str,
    adjustment: &[String],
) -> Result<Estimate> {
    const MAX_IRLS_ITERS: usize = 25;
    let rows: Vec<usize> = group.to_indices();
    let n = rows.len();
    let n_treated = group.intersect_count(treated);
    let n_control = n - n_treated;
    if n_treated < MIN_ARM_SIZE || n_control < MIN_ARM_SIZE {
        return Err(CausalError::Estimation(format!(
            "insufficient overlap: {n_treated} treated / {n_control} control"
        )));
    }

    let y = design::outcome_values(df, outcome, &rows)?;
    let t: Vec<bool> = rows.iter().map(|&r| treated.get(r)).collect();
    let x = design::build_intercept_design(df, adjustment, group, &rows)?;

    // Row-major IRLS.
    let k = x.cols();
    let mut beta = vec![0.0; k];
    let mut probs: Vec<f64> = vec![0.5; n];
    for _ in 0..MAX_IRLS_ITERS {
        let mut gram = Matrix::zeros(k, k);
        let mut score = vec![0.0; k];
        for r in 0..n {
            let row = x.row(r);
            let p = probs[r];
            let w = (p * (1.0 - p)).max(1e-6_f64);
            for i in 0..k {
                score[i] += row[i] * ((t[r] as u8 as f64) - p);
                for j in i..k {
                    let v = w * row[i] * row[j];
                    gram.set(i, j, gram.get(i, j) + v);
                }
            }
        }
        for i in 0..k {
            for j in 0..i {
                gram.set(i, j, gram.get(j, i));
            }
        }
        let delta = solve_spd(&gram, &score)?;
        let step: f64 = delta.iter().map(|d| d * d).sum::<f64>().sqrt();
        for (b, d) in beta.iter_mut().zip(&delta) {
            *b += d;
        }
        for (r, p) in probs.iter_mut().enumerate() {
            let eta: f64 = x.row(r).iter().zip(&beta).map(|(a, b)| a * b).sum();
            *p = 1.0 / (1.0 + (-eta).exp());
        }
        if step < 1e-8 {
            break;
        }
    }

    // Hájek contrast + linearization variance, as in the live estimator.
    let mut sw_t = 0.0;
    let mut swy_t = 0.0;
    let mut sw_c = 0.0;
    let mut swy_c = 0.0;
    for i in 0..n {
        let p = probs[i].clamp(CLIP, 1.0 - CLIP);
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
    let mut var_t = 0.0;
    let mut var_c = 0.0;
    for i in 0..n {
        let p = probs[i].clamp(CLIP, 1.0 - CLIP);
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

/// The per-unit matching estimator the cell-level pass replaced: every
/// unit walks its own tie-inclusive matched set (tree searches memoized
/// per part on (cell, arm), brute scans repeated per unit), imputes from
/// it, and adds `1/m` per matched unit into an n-length weight vector per
/// `MATCH_PARTS` part; parts fold in partition order. The overlap check,
/// budget, index and bias-adjustment regressions are the live
/// [`matching::estimate_with`]'s own code, so this pins exactly the search
/// and accumulation loop. Bench baseline and proptest oracle for `matching`.
pub fn matching_naive(
    df: &DataFrame,
    group: &Mask,
    treated: &Mask,
    outcome: &str,
    adjustment: &[String],
    params: &MatchParams<'_>,
) -> Result<Estimate> {
    matching::estimate_by(
        df,
        group,
        treated,
        outcome,
        adjustment,
        params,
        &mut HotStats::default(),
        per_unit_contrasts,
    )
}

/// Per-unit `τ_i` and match weights `K_i`, one matched set per unit.
fn per_unit_contrasts(fit: &Fit<'_>, _stats: &mut HotStats) -> (Vec<f64>, Vec<f64>) {
    let idx = fit.idx;
    let t = &fit.t;
    let n = idx.n();
    let treated_ids: Vec<u32> = (0..n as u32).filter(|&i| t[i as usize]).collect();
    let control_ids: Vec<u32> = (0..n as u32).filter(|&i| !t[i as usize]).collect();
    let part_len = n.div_ceil(MATCH_PARTS).max(1);
    let mut tau = Vec::with_capacity(n);
    let mut match_weight = vec![0.0f64; n];
    let mut part_weight = vec![0.0f64; n];
    let mut matched: Vec<u32> = Vec::new();
    let mut d2s: Vec<f64> = Vec::new();
    let mut sel: Vec<f64> = Vec::new();
    let mut memo: std::collections::HashMap<(u32, bool), Vec<u32>> =
        std::collections::HashMap::new();
    for start in (0..n).step_by(part_len) {
        part_weight.fill(0.0);
        memo.clear();
        for i in start..(start + part_len).min(n) {
            let (pool, pred) = if t[i] {
                (&control_ids, &fit.pred_c)
            } else {
                (&treated_ids, &fit.pred_t)
            };
            let q = &idx.points[i * idx.dim..][..idx.dim];
            if fit.use_tree {
                let own_arm = t[i];
                if let Some(cached) = memo.get(&(idx.cell_of[i], own_arm)) {
                    matched.clear();
                    matched.extend_from_slice(cached);
                } else {
                    let tree = idx.tree.as_ref().expect("use_tree implies a tree");
                    tree.query_ties(
                        &idx.points,
                        q,
                        K_NEIGHBORS,
                        |j| t[j as usize] != own_arm,
                        &mut matched,
                    );
                    memo.insert((idx.cell_of[i], own_arm), matched.clone());
                }
            } else {
                brute_ties(
                    &idx.points,
                    idx.dim,
                    pool,
                    q,
                    &mut d2s,
                    &mut sel,
                    &mut matched,
                );
            }
            let m = matched.len();
            let mut acc = 0.0;
            let pred_i = pred[i];
            for &j in &matched {
                let j = j as usize;
                acc += idx.y[j] + pred_i - pred[j];
                part_weight[j] += 1.0 / m as f64;
            }
            let imputed = acc / m as f64;
            tau.push(if t[i] {
                idx.y[i] - imputed
            } else {
                imputed - idx.y[i]
            });
        }
        for (acc, w) in match_weight.iter_mut().zip(&part_weight) {
            *acc += w;
        }
    }
    (tau, match_weight)
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)]
mod tests {
    use super::*;
    use crate::estimate::kernel;
    use crate::estimate::{
        Estimator as _,
        EstimatorKind::{Ipw, Linear, Matching},
    };

    fn fixture() -> (DataFrame, Mask, Mask) {
        let mut z = Vec::new();
        let mut t = Vec::new();
        let mut o = Vec::new();
        for i in 0..60 {
            z.push(if i % 3 == 0 { "a" } else { "b" });
            t.push(i % 2 == 0);
            o.push((i % 7) as f64 * 1.25 - 3.0);
        }
        let treated = Mask::from_bools(&t);
        let df = DataFrame::builder()
            .cat("z", &z)
            .float("o", o)
            .build()
            .unwrap();
        let group = Mask::ones(60);
        (df, group, treated)
    }

    #[test]
    fn naive_design_matches_kernel_bitwise() {
        let (df, group, treated) = fixture();
        let adj = vec!["z".to_string()];
        for with_t in [None, Some(&treated)] {
            let naive = design_columns_naive(&df, &adj, &group, with_t).unwrap();
            let fast = kernel::build_columns(&df, &adj, &group, with_t).unwrap();
            assert_eq!(naive.len(), fast.k());
            for (a, b) in naive.iter().zip(fast.cols()) {
                let a_bits: Vec<u64> = a.iter().map(|v| v.to_bits()).collect();
                let b_bits: Vec<u64> = b.iter().map(|v| v.to_bits()).collect();
                assert_eq!(a_bits, b_bits);
            }
        }
    }

    #[test]
    fn naive_reductions_match_kernels_bitwise() {
        let (df, group, treated) = fixture();
        let adj = vec!["z".to_string()];
        let x = kernel::build_columns(&df, &adj, &group, Some(&treated)).unwrap();
        let y = kernel::gather_outcome(&df, "o", &group).unwrap();
        let k = x.k();

        let g_naive = gram_naive(x.cols());
        let g_fast = kernel::gram_columns(x.cols());
        let xty_n = xty_naive(x.cols(), &y);
        let xty_f = kernel::xty_columns(x.cols(), &y);
        for i in 0..k {
            assert_eq!(xty_n[i].to_bits(), xty_f[i].to_bits());
            for j in 0..k {
                assert_eq!(g_naive.get(i, j).to_bits(), g_fast.get(i, j).to_bits());
            }
        }

        let w: Vec<f64> = (0..y.len()).map(|r| 0.1 + (r % 5) as f64 * 0.2).collect();
        let resid: Vec<f64> = y.iter().map(|v| v * 0.5 - 1.0).collect();
        let (wg_n, s_n) = weighted_gram_score_naive(x.cols(), &w, &resid);
        let (wg_f, s_f) = kernel::weighted_gram_score(x.cols(), &w, &resid);
        let arm: Vec<f64> = (0..y.len()).map(|r| (r % 2 == 0) as u8 as f64).collect();
        let (ag_n, ay_n) = arm_gram_xty_naive(x.cols(), &y, &arm);
        let (ag_f, ay_f) = kernel::arm_gram_xty(x.cols(), &y, &arm);
        for i in 0..k {
            assert_eq!(s_n[i].to_bits(), s_f[i].to_bits());
            assert_eq!(ay_n[i].to_bits(), ay_f[i].to_bits());
            for j in 0..k {
                assert_eq!(wg_n.get(i, j).to_bits(), wg_f.get(i, j).to_bits());
                assert_eq!(ag_n.get(i, j).to_bits(), ag_f.get(i, j).to_bits());
            }
        }

        let beta: Vec<f64> = (0..k).map(|c| 0.3 * c as f64 - 0.5).collect();
        let mv_n = mat_vec_naive(x.cols(), &beta);
        let mv_f = kernel::mat_vec_columns(x.cols(), &beta);
        for (a, b) in mv_n.iter().zip(&mv_f) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn naive_estimators_agree_with_live_ones() {
        let (df, group, treated) = fixture();
        let adj = vec!["z".to_string()];
        // `linear`'s count path: `cate` and arms exact, the inference
        // within its documented tolerance.
        let lin_n = linear_naive(&df, &group, &treated, "o", &adj).unwrap();
        let lin_f = Linear.estimate(&df, &group, &treated, "o", &adj).unwrap();
        let tol = crate::estimate::linear::INFERENCE_TOLERANCE;
        assert_eq!(lin_n.cate.to_bits(), lin_f.cate.to_bits());
        assert_eq!(
            (lin_n.n_treated, lin_n.n_control),
            (lin_f.n_treated, lin_f.n_control)
        );
        assert!((lin_n.std_err - lin_f.std_err).abs() <= tol * lin_n.std_err.abs());
        assert!((lin_n.t_stat - lin_f.t_stat).abs() <= tol * lin_n.t_stat.abs());
        assert!((lin_n.p_value - lin_f.p_value).abs() <= tol);
        let bits = |e: &Estimate| [e.cate, e.std_err, e.t_stat, e.p_value].map(f64::to_bits);
        let ipw_n = ipw_naive(&df, &group, &treated, "o", &adj).unwrap();
        let ipw_f = Ipw.estimate(&df, &group, &treated, "o", &adj).unwrap();
        assert!((ipw_n.cate - ipw_f.cate).abs() < 1e-9);
        let params = MatchParams::default();
        let match_n = matching_naive(&df, &group, &treated, "o", &adj, &params).unwrap();
        let match_f = Matching.estimate(&df, &group, &treated, "o", &adj).unwrap();
        assert_eq!(bits(&match_n), bits(&match_f));
    }
}
