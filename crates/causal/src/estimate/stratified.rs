//! Exact-stratification CATE estimator.
//!
//! Implements the adjustment formula literally:
//!
//! `CATE = Σ_z P(z | group) · ( E[O | T=1, z] − E[O | T=0, z] )`
//!
//! where `z` ranges over the joint values of the adjustment covariates inside
//! the subgroup. Numeric covariates are quantile-binned (4 bins) first.
//! Strata violating positivity (an empty arm) are skipped; the estimate is
//! reweighted over the valid strata, and the fraction of rows in valid
//! strata is exposed for diagnostics via the returned arm counts.

use super::{normal_inference, Estimate, MIN_ARM_SIZE};
use crate::error::{CausalError, Result};
use faircap_table::{Column, DataFrame, Mask};
use std::collections::HashMap;

/// Number of quantile bins for numeric covariates.
const NUMERIC_BINS: usize = 4;

/// Estimate the CATE by stratification. See module docs.
pub fn estimate(
    df: &DataFrame,
    group: &Mask,
    treated: &Mask,
    outcome: &str,
    adjustment: &[String],
) -> Result<Estimate> {
    let n = group.count();
    let n_treated_all = group.intersect_count(treated);
    let n_control_all = n - n_treated_all;
    if n_treated_all < MIN_ARM_SIZE || n_control_all < MIN_ARM_SIZE {
        return Err(CausalError::Estimation(format!(
            "insufficient overlap: {n_treated_all} treated / {n_control_all} control"
        )));
    }
    let outcome_col = df.column(outcome)?;
    if !outcome_col.data_type().is_numeric()
        && outcome_col.data_type() != faircap_table::DataType::Bool
    {
        return Err(CausalError::Estimation(format!(
            "outcome `{outcome}` is not numeric"
        )));
    }

    // Stratum id per row, numbered densely in order of first appearance.
    let (ids, n_strata) = stratum_ids(df, group, adjustment)?;

    // Aggregate per (stratum, arm): count, sum, sumsq. Strata are summed
    // in id order, so the same input always gives the same bits.
    #[derive(Default, Clone)]
    struct Arm {
        n: usize,
        sum: f64,
        sumsq: f64,
    }
    let mut strata: Vec<(Arm, Arm)> = vec![Default::default(); n_strata];
    for (pos, row) in group.iter_ones().enumerate() {
        let y = outcome_col
            .get_f64(row)
            .ok_or_else(|| CausalError::Estimation("non-numeric outcome cell".into()))?;
        let entry = &mut strata[ids[pos]];
        let arm = if treated.get(row) {
            &mut entry.0
        } else {
            &mut entry.1
        };
        arm.n += 1;
        arm.sum += y;
        arm.sumsq += y * y;
    }

    // Adjustment formula over strata with positivity.
    let mut weight_total = 0.0;
    let mut effect = 0.0;
    let mut variance = 0.0;
    let mut n_treated = 0;
    let mut n_control = 0;
    for (t_arm, c_arm) in &strata {
        if t_arm.n == 0 || c_arm.n == 0 {
            continue;
        }
        let w = (t_arm.n + c_arm.n) as f64;
        let mean_t = t_arm.sum / t_arm.n as f64;
        let mean_c = c_arm.sum / c_arm.n as f64;
        effect += w * (mean_t - mean_c);
        // Per-arm sample variances for the delta's variance.
        let var_t = sample_var(t_arm.n, t_arm.sum, t_arm.sumsq);
        let var_c = sample_var(c_arm.n, c_arm.sum, c_arm.sumsq);
        variance += w * w * (var_t / t_arm.n.max(1) as f64 + var_c / c_arm.n.max(1) as f64);
        weight_total += w;
        n_treated += t_arm.n;
        n_control += c_arm.n;
    }
    if weight_total == 0.0 || n_treated < MIN_ARM_SIZE || n_control < MIN_ARM_SIZE {
        return Err(CausalError::Estimation(
            "no stratum satisfies positivity".into(),
        ));
    }
    let cate = effect / weight_total;
    let (std_err, t_stat, p_value) =
        normal_inference(cate, variance / (weight_total * weight_total));
    Ok(Estimate {
        cate,
        std_err,
        t_stat,
        p_value,
        n_treated,
        n_control,
    })
}

fn sample_var(n: usize, sum: f64, sumsq: f64) -> f64 {
    if n < 2 {
        return 0.0;
    }
    let nf = n as f64;
    ((sumsq - sum * sum / nf) / (nf - 1.0)).max(0.0)
}

/// Joint stratum id per group row, in `group.iter_ones()` order, and the
/// number of strata. Ids are dense and numbered in order of first
/// appearance; they are re-densified after each covariate, so any number
/// of covariates of any cardinality fits without overflow.
fn stratum_ids(df: &DataFrame, group: &Mask, adjustment: &[String]) -> Result<(Vec<usize>, usize)> {
    let rows: Vec<usize> = group.to_indices();
    let mut ids = vec![0usize; rows.len()];
    let mut n_strata = usize::from(!rows.is_empty());
    for name in adjustment {
        let col = df.column(name)?;
        let codes: Vec<u64> = match col {
            Column::Cat(c) => rows.iter().map(|&r| c.codes()[r] as u64).collect(),
            Column::Bool(v) => rows.iter().map(|&r| v[r] as u64).collect(),
            Column::Int(_) | Column::Float(_) => quantile_bins(col, &rows),
        };
        let mut dense: HashMap<(usize, u64), usize> = HashMap::new();
        for (id, code) in ids.iter_mut().zip(codes) {
            let next = dense.len();
            *id = *dense.entry((*id, code)).or_insert(next);
        }
        n_strata = dense.len();
    }
    Ok((ids, n_strata))
}

/// Quantile-bin a numeric column over the given rows into `NUMERIC_BINS`
/// bins; ties collapse bins naturally.
fn quantile_bins(col: &Column, rows: &[usize]) -> Vec<u64> {
    let mut values: Vec<f64> = rows
        .iter()
        .map(|&r| col.get_f64(r).unwrap_or(0.0))
        .collect();
    let mut sorted = values.clone();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let cuts: Vec<f64> = (1..NUMERIC_BINS)
        .map(|q| sorted[(q * sorted.len() / NUMERIC_BINS).min(sorted.len() - 1)])
        .collect();
    values
        .drain(..)
        .map(|v| cuts.iter().take_while(|&&c| v >= c).count() as u64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimate::{Estimator as _, EstimatorKind::Linear};
    use faircap_table::DataFrame;

    /// Same confounded fixture as the linear estimator tests.
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
    fn recovers_true_effect() {
        let (df, treated) = confounded_frame();
        let all = Mask::ones(df.n_rows());
        let est = estimate(&df, &all, &treated, "o", &["z".into()]).unwrap();
        assert!((est.cate - 10.0).abs() < 1e-9, "cate = {}", est.cate);
        assert_eq!(est.n_treated, 40);
        assert_eq!(est.n_control, 40);
    }

    #[test]
    fn agrees_with_linear_on_clean_design() {
        let (df, treated) = confounded_frame();
        let all = Mask::ones(df.n_rows());
        let s = estimate(&df, &all, &treated, "o", &["z".into()]).unwrap();
        let l = Linear
            .estimate(&df, &all, &treated, "o", &["z".into()])
            .unwrap();
        assert!((s.cate - l.cate).abs() < 1e-6, "{} vs {}", s.cate, l.cate);
    }

    #[test]
    fn strata_without_positivity_are_skipped() {
        // Stratum "only" has no control rows at all → excluded.
        let z = [
            "a", "a", "a", "a", "a", "a", "a", "a", "a", "a", "a", "a", "only", "only", "only",
            "only", "only", "only",
        ];
        let t = vec![
            true, false, true, false, true, false, true, false, true, false, true, false, true,
            true, true, true, true, true,
        ];
        let o: Vec<f64> = t.iter().map(|&ti| if ti { 7.0 } else { 0.0 }).collect();
        let treated = Mask::from_bools(&t);
        let df = DataFrame::builder()
            .cat("z", &z)
            .float("o", o)
            .build()
            .unwrap();
        let all = Mask::ones(df.n_rows());
        let est = estimate(&df, &all, &treated, "o", &["z".into()]).unwrap();
        assert!((est.cate - 7.0).abs() < 1e-9);
        // Only stratum "a" contributes.
        assert_eq!(est.n_treated, 6);
        assert_eq!(est.n_control, 6);
    }

    #[test]
    fn numeric_covariates_are_binned() {
        // O = 3·T + age; T independent of age within bins by construction.
        let n = 240;
        let mut age = Vec::new();
        let mut t = Vec::new();
        let mut o = Vec::new();
        for i in 0..n {
            let a = (i / 10) as i64; // 24 distinct ages
            let ti = i % 2 == 0;
            age.push(a);
            t.push(ti);
            o.push(3.0 * ti as i64 as f64 + a as f64);
        }
        let treated = Mask::from_bools(&t);
        let df = DataFrame::builder()
            .int("age", age)
            .float("o", o)
            .build()
            .unwrap();
        let all = Mask::ones(n);
        let est = estimate(&df, &all, &treated, "o", &["age".into()]).unwrap();
        // Within each quantile bin the treated/control age distributions are
        // identical, so the bias of coarse binning vanishes here.
        assert!((est.cate - 3.0).abs() < 1e-9, "cate = {}", est.cate);
    }

    #[test]
    fn no_positivity_anywhere_errors() {
        // Every stratum fully treated or fully control.
        let z = ["a", "a", "a", "a", "a", "a", "b", "b", "b", "b", "b", "b"];
        let t = vec![
            true, true, true, true, true, true, false, false, false, false, false, false,
        ];
        let o = vec![1.0; 12];
        let treated = Mask::from_bools(&t);
        let df = DataFrame::builder()
            .cat("z", &z)
            .float("o", o)
            .build()
            .unwrap();
        let all = Mask::ones(12);
        assert!(estimate(&df, &all, &treated, "o", &["z".into()]).is_err());
    }

    #[test]
    fn empty_adjustment_is_difference_in_means() {
        let t = [
            true, true, true, true, true, false, false, false, false, false,
        ];
        let o = [5.0, 5.0, 5.0, 5.0, 5.0, 2.0, 2.0, 2.0, 2.0, 2.0];
        let treated = Mask::from_bools(&t);
        let df = DataFrame::builder().float("o", o.to_vec()).build().unwrap();
        let all = Mask::ones(10);
        let est = estimate(&df, &all, &treated, "o", &[]).unwrap();
        assert!((est.cate - 3.0).abs() < 1e-12);
        assert_eq!(est.p_value, 0.0); // deterministic outcome
    }

    /// 1200 rows over 8 categorical covariates of 300 levels each: 300
    /// strata of four rows (two treated, two control). The joint code space
    /// (300^8) does not fit in a `u64`. Also returns the 8 columns' names
    /// and a ninth column joining them, which names the same strata.
    fn wide_frame() -> (DataFrame, Mask, Vec<String>) {
        const LEVELS: usize = 300;
        const STEPS: [usize; 8] = [7, 11, 13, 17, 19, 23, 29, 31]; // coprime to 300
        let n = 4 * LEVELS;
        let mut builder = DataFrame::builder();
        let mut names = Vec::new();
        let mut joined = vec![String::new(); n];
        for (j, step) in STEPS.iter().enumerate() {
            let values: Vec<String> = (0..n)
                .map(|i| format!("c{j}v{}", (i / 4 * step + j) % LEVELS))
                .collect();
            for (key, v) in joined.iter_mut().zip(&values) {
                key.push_str(v);
                key.push('|');
            }
            let refs: Vec<&str> = values.iter().map(String::as_str).collect();
            builder = builder.cat(&format!("z{j}"), &refs);
            names.push(format!("z{j}"));
        }
        let refs: Vec<&str> = joined.iter().map(String::as_str).collect();
        let t: Vec<bool> = (0..n).map(|i| i % 2 == 0).collect();
        let o: Vec<f64> = (0..n)
            .map(|i| ((i * 37) % 101) as f64 * 0.1 + if t[i] { 2.0 } else { 0.0 })
            .collect();
        let df = builder.cat("joined", &refs).float("o", o).build().unwrap();
        (df, Mask::from_bools(&t), names)
    }

    fn bits(e: &Estimate) -> (u64, u64) {
        (e.cate.to_bits(), e.std_err.to_bits())
    }

    #[test]
    fn repeated_calls_are_bit_identical() {
        // Two covariates already name all 300 strata and keep the joint
        // code small, so only the summation order is under test.
        let (df, treated, names) = wide_frame();
        let all = Mask::ones(df.n_rows());
        let adjustment = &names[..2];
        let first = bits(&estimate(&df, &all, &treated, "o", adjustment).unwrap());
        for _ in 0..20 {
            let again = estimate(&df, &all, &treated, "o", adjustment).unwrap();
            assert_eq!(bits(&again), first);
        }
    }

    #[test]
    fn many_wide_covariates_equal_their_joined_column() {
        let (df, treated, names) = wide_frame();
        let all = Mask::ones(df.n_rows());
        let wide = estimate(&df, &all, &treated, "o", &names).unwrap();
        let joined = estimate(&df, &all, &treated, "o", &["joined".into()]).unwrap();
        assert_eq!(bits(&wide), bits(&joined));
        assert_eq!((wide.n_treated, wide.n_control), (600, 600));
    }

    #[test]
    fn binary_outcome_supported() {
        // Boolean outcome behaves as 0/1 (German Credit's credit score).
        let t = [
            true, true, true, true, true, true, false, false, false, false, false, false,
        ];
        let o = vec![
            true, true, true, true, true, false, false, false, false, false, false, true,
        ];
        let treated = Mask::from_bools(&t);
        let df = DataFrame::builder().bool("o", o).build().unwrap();
        let all = Mask::ones(12);
        let est = estimate(&df, &all, &treated, "o", &[]).unwrap();
        assert!((est.cate - (5.0 / 6.0 - 1.0 / 6.0)).abs() < 1e-9);
    }
}
