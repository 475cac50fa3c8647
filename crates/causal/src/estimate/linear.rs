//! OLS linear-adjustment CATE estimator.
//!
//! Fits `O ~ 1 + T + Z` on the subgroup rows, where `T` is the 0/1 treatment
//! indicator and `Z` the one-hot-encoded adjustment covariates (first level
//! dropped per covariate; numeric covariates enter directly). The coefficient
//! on `T` is the CATE; its standard error comes from `σ̂²(XᵀX)⁻¹`.
//!
//! Two paths compute the normal equations, and both are bit-identical to
//! [`reference::linear_naive`](super::reference::linear_naive):
//!
//! * **Count path** — when every adjustment column is categorical, the
//!   design is a set of 0/1 columns and `XᵀX` is a matrix of integer
//!   counts. It runs in two halves. The group half, a [`CellTable`], is
//!   built once per (group, adjustment set): one pass over the group's set
//!   words per covariate codes each row's level (the `design::LevelCoder`
//!   rule the design blocks use: the first observed level is the
//!   reference), folds it into the row's covariate-level *cell*, and adds
//!   the outcome to that level's `Xᵀy` entry. The table keeps each row's
//!   outcome and cell, the rows per cell, `Xᵀy` without its treatment
//!   entry, and a per-word rank of the group mask. The per-intervention
//!   half walks only the set bits of `group ∧ treated` to count treated
//!   rows per cell (control counts are the cell totals minus those) and
//!   sum the treatment entry of `Xᵀy`; `XᵀX` is built from the row count
//!   of each *slot* — a (cell, arm) pair — and the RSS from one pass over
//!   the group's words that reads each row's treated bit inline and looks
//!   up its slot's fitted value. Integer counts are exact in any order and
//!   every other sum keeps the columnar kernels' ascending row order, so
//!   nothing rounds differently. The table costs `O(n·p)` time for `p`
//!   covariates and 12 bytes per group row; each intervention then costs
//!   `O(treated + cells·(k + p²))` for `k` design columns plus the one RSS
//!   pass, against the columnar path's `O(n·k²)` gram over an `O(n·k)`
//!   design.
//! * **Columnar path** — the fused column-major design of
//!   [`kernel::build_columns`] and the blocked [`kernel`] reductions. It
//!   runs when a covariate is numeric or Bool, when an outcome in the group
//!   is not finite (`0·∞` terms make every sum NaN, which counts cannot
//!   reproduce), or when the cell space `2·∏ observed levels` exceeds the
//!   group's row count.
//!
//! Both paths share the solve: one ridge-stabilized Cholesky factor of
//! `XᵀX` gives `β` and, from one more triangular solve against `e₁`, the
//! `(1,1)` entry of `(XᵀX)⁻¹`.
//!
//! The [`CateEngine`](crate::cate::CateEngine) caches one table (or the
//! verdict that the columnar path must run) per (group fingerprint,
//! adjustment set), so an intervention sweep over a group builds its table
//! once.

use super::design::LevelCoder;
use super::{kernel, Estimate, HotStats, MIN_ARM_SIZE};
use crate::cate::CellTableCache;
use crate::error::{CausalError, Result};
use crate::linalg::{cholesky_solve, spd_factor, Matrix};
use faircap_table::stats::t_sf_two_sided;
use faircap_table::{Column, DataFrame, Mask};
use std::sync::Arc;
use std::time::Instant;

/// Estimate the CATE by linear regression with automatic worker
/// selection. See module docs.
pub fn estimate(
    df: &DataFrame,
    group: &Mask,
    treated: &Mask,
    outcome: &str,
    adjustment: &[String],
) -> Result<Estimate> {
    let workers = kernel::auto_workers(group.count());
    estimate_with(
        df,
        group,
        treated,
        outcome,
        adjustment,
        workers,
        None,
        &mut HotStats::default(),
    )
}

/// Linear-regression estimate with an explicit worker count (used by the
/// columnar path's kernels; the count path is serial) and hot-path cost
/// accounting. With `cells` — a table cache and the group's fingerprint
/// keying it — the count path's [`CellTable`] comes from the cache (built
/// and cached on a miss); without, it is built for this estimate alone.
#[allow(clippy::too_many_arguments)] // the estimator signature plus the cache handle
pub fn estimate_with(
    df: &DataFrame,
    group: &Mask,
    treated: &Mask,
    outcome: &str,
    adjustment: &[String],
    workers: usize,
    cells: Option<(&CellTableCache, u64)>,
    stats: &mut HotStats,
) -> Result<Estimate> {
    let n = group.count();
    let arms = arms(n, group, treated)?;

    let t0 = Instant::now();
    let build = || Ok(CellTable::build(df, group, outcome, adjustment)?.map(Arc::new));
    let table = match cells {
        Some((cache, group_fp)) => cache.get_or_build(group_fp, adjustment, build)?,
        None => build()?,
    };
    if let Some(table) = table {
        let slots = table.slots(group, treated);
        stats.build_ns += t0.elapsed().as_nanos() as u64;
        return table.fit(&slots, group, treated, arms);
    }
    stats.build_ns += t0.elapsed().as_nanos() as u64;

    // Column layout: [intercept, T, covariate blocks...], assembled
    // column-major with the fused word-at-a-time gather.
    let t0 = Instant::now();
    let x = kernel::build_columns(
        df,
        adjustment,
        group,
        Some(treated),
        workers,
        &mut stats.tasks,
    )?;
    let y = kernel::gather_outcome(df, outcome, group)?;
    stats.build_ns += t0.elapsed().as_nanos() as u64;
    check_rows(n, x.k())?;

    let gram = kernel::gram_columns(x.cols(), workers, &mut stats.tasks);
    let xty = kernel::xty_columns(x.cols(), &y, workers, &mut stats.tasks);
    fit(&gram, &xty, n, arms, |beta| {
        let fitted = kernel::mat_vec_columns(x.cols(), beta);
        residual_sum_of_squares(&y, |r| fitted[r])
    })
}

/// `(treated, control)` rows of the `n`-row group, or the refusal when an
/// arm is smaller than [`MIN_ARM_SIZE`].
fn arms(n: usize, group: &Mask, treated: &Mask) -> Result<(usize, usize)> {
    let n_treated = group.intersect_count(treated);
    let n_control = n - n_treated;
    if n_treated < MIN_ARM_SIZE || n_control < MIN_ARM_SIZE {
        return Err(CausalError::Estimation(format!(
            "insufficient overlap: {n_treated} treated / {n_control} control"
        )));
    }
    Ok((n_treated, n_control))
}

/// Refuse a design with no residual degrees of freedom to spare.
fn check_rows(n: usize, k: usize) -> Result<()> {
    if n <= k + 1 {
        return Err(CausalError::Estimation(format!(
            "too few rows ({n}) for {k} regressors"
        )));
    }
    Ok(())
}

/// `Σ (yᵣ − fitted(r))²` in ascending row order.
fn residual_sum_of_squares(y: &[f64], fitted: impl Fn(usize) -> f64) -> f64 {
    y.iter()
        .enumerate()
        .map(|(r, yi)| {
            let d = yi - fitted(r);
            d * d
        })
        .sum()
}

/// Solve the normal equations `XᵀX β = Xᵀy` and derive the inference for
/// the treatment coefficient `β₁`. `rss(β)` supplies the residual sum of
/// squares; `Var(β₁) = σ̂²·[(XᵀX)⁻¹]₁₁` comes from one triangular solve
/// against `e₁` on `β`'s own (possibly ridged) factor.
fn fit(
    gram: &Matrix,
    xty: &[f64],
    n: usize,
    (n_treated, n_control): (usize, usize),
    rss: impl FnOnce(&[f64]) -> f64,
) -> Result<Estimate> {
    let k = xty.len();
    let factor = spd_factor(gram)?;
    let beta = cholesky_solve(&factor, xty);
    let dof = (n - k) as f64;
    let sigma2 = rss(&beta) / dof;
    let mut e1 = vec![0.0; k];
    e1[1] = 1.0;
    let var_t = sigma2 * cholesky_solve(&factor, &e1)[1];
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

/// The group half of an all-categorical OLS design (the count path; see
/// module docs): everything that depends on the group rows and the
/// adjustment set but not on the intervention. Design columns are `[1, T]`
/// followed, per covariate, by one column for each observed level after
/// the reference level 0. A row's `cell` numbers its joint levels in mixed
/// radix with covariate 0 varying fastest; its *slot* is `2·cell + T`.
///
/// A table answers for the group mask it was built from only: every
/// method taking a `group` must be passed that same mask.
#[derive(Debug)]
pub struct CellTable {
    /// Observed levels per covariate.
    levels: Vec<usize>,
    /// Design column of each covariate's level 1.
    offsets: Vec<usize>,
    /// Outcome per group row, ascending.
    y: Vec<f64>,
    /// `2·cell` per group row, ascending: the row's control slot.
    slot0: Vec<u32>,
    /// Group rows per cell.
    rows: Vec<u32>,
    /// `Xᵀy` with the treatment entry zero, each entry summed in ascending
    /// row order.
    xty: Vec<f64>,
    /// Group rows in the mask words before each word.
    rank: Vec<u32>,
}

/// The per-intervention half: rows per slot and the full `Xᵀy`.
struct Slots {
    counts: Vec<usize>,
    xty: Vec<f64>,
}

impl CellTable {
    /// Build the table, or `None` when the columnar path must run instead:
    /// a numeric or Bool covariate, a non-finite outcome, or more slots
    /// than rows. After gathering each row's outcome, one pass over the
    /// group's set words per covariate codes each row's level (the
    /// `design::LevelCoder` rule), adds it into the row's cell and the
    /// row's outcome into that level's `Xᵀy` entry. Errors match the
    /// columnar path's (unknown column, non-numeric outcome).
    pub fn build(
        df: &DataFrame,
        group: &Mask,
        outcome: &str,
        adjustment: &[String],
    ) -> Result<Option<CellTable>> {
        let mut covariates = Vec::with_capacity(adjustment.len());
        for name in adjustment {
            match df.column(name)? {
                Column::Cat(c) => covariates.push(c),
                _ => return Ok(None),
            }
        }
        let n = group.count();
        let y = kernel::gather_outcome(df, outcome, group)?;
        if !y.iter().all(|v| v.is_finite()) || u32::try_from(n).is_err() {
            return Ok(None);
        }

        let mut xty = vec![y.iter().fold(0.0, |sum, yi| sum + yi), 0.0];
        let mut slot0 = vec![0u32; n];
        let mut levels = Vec::with_capacity(covariates.len());
        let mut offsets = Vec::with_capacity(covariates.len());
        let mut stride = 2usize;
        for cat in covariates {
            let codes = cat.codes();
            let mut coder = LevelCoder::new(cat.cardinality());
            let mut sums = vec![0.0f64; cat.cardinality()];
            let mut dense = 0usize;
            group.view().for_each_set_word(|wi, word| {
                let base = wi * 64;
                let mut w = word;
                while w != 0 {
                    let level = coder.level(codes[base + w.trailing_zeros() as usize]) as usize;
                    // `stride · level < stride · l ≤ n` once the check
                    // below passes, so the slot fits in `u32`; a covariate
                    // that fails the check discards the table.
                    slot0[dense] = slot0[dense].wrapping_add((level * stride) as u32);
                    sums[level] += y[dense];
                    dense += 1;
                    w &= w - 1;
                }
            });
            let l = coder.levels();
            stride = match stride.checked_mul(l) {
                Some(next) if next <= n => next,
                _ => return Ok(None),
            };
            offsets.push(xty.len());
            levels.push(l);
            xty.extend_from_slice(&sums[1..l]);
        }

        let mut rows = vec![0u32; stride / 2];
        for &s in &slot0 {
            rows[s as usize / 2] += 1;
        }
        let mut rank = Vec::with_capacity(group.as_words().len());
        let mut seen = 0u32;
        for &w in group.as_words() {
            rank.push(seen);
            seen += w.count_ones();
        }
        Ok(Some(CellTable {
            levels,
            offsets,
            y,
            slot0,
            rows,
            xty,
            rank,
        }))
    }

    /// Estimate the CATE of `treated` within `group` (the mask the table
    /// was built from) — exactly [`estimate`]'s answer, refusals included.
    pub fn estimate(&self, group: &Mask, treated: &Mask) -> Result<Estimate> {
        let arms = arms(self.y.len(), group, treated)?;
        self.fit(&self.slots(group, treated), group, treated, arms)
    }

    /// Rows per slot and `Xᵀy` for one intervention, from the set bits of
    /// `group ∧ treated` alone, in ascending row order.
    fn slots(&self, group: &Mask, treated: &Mask) -> Slots {
        let mut counts = vec![0usize; 2 * self.rows.len()];
        let mut xty = self.xty.clone();
        let words = group.as_words().iter().zip(treated.as_words());
        for ((&g, &t), &rank) in words.zip(&self.rank) {
            let mut w = g & t;
            while w != 0 {
                let below = g & ((1u64 << w.trailing_zeros()) - 1);
                let r = (rank + below.count_ones()) as usize;
                counts[self.slot0[r] as usize + 1] += 1;
                xty[1] += self.y[r];
                w &= w - 1;
            }
        }
        for (c, &rows) in self.rows.iter().enumerate() {
            counts[2 * c] = rows as usize - counts[2 * c + 1];
        }
        Slots { counts, xty }
    }

    /// The design columns set to 1 in slot `s`, ascending.
    fn active_columns(&self, s: usize, out: &mut Vec<usize>) {
        out.clear();
        out.push(0);
        if s & 1 == 1 {
            out.push(1);
        }
        let mut cell = s >> 1;
        for (&l, &off) in self.levels.iter().zip(&self.offsets) {
            let level = cell % l;
            cell /= l;
            if level > 0 {
                out.push(off + level - 1);
            }
        }
    }

    /// Solve the normal equations from one intervention's slot counts.
    fn fit(
        &self,
        slots: &Slots,
        group: &Mask,
        treated: &Mask,
        arms: (usize, usize),
    ) -> Result<Estimate> {
        let (n, k) = (self.y.len(), slots.xty.len());
        check_rows(n, k)?;
        // Upper triangle from the slot counts (integers, so exact in f64),
        // then the mirror.
        let mut gram = Matrix::zeros(k, k);
        let mut active = Vec::with_capacity(2 + self.levels.len());
        for (s, &c) in slots.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            self.active_columns(s, &mut active);
            for (a, &i) in active.iter().enumerate() {
                for &j in &active[a..] {
                    gram.set(i, j, gram.get(i, j) + c as f64);
                }
            }
        }
        for i in 0..k {
            for j in 0..i {
                gram.set(i, j, gram.get(j, i));
            }
        }
        fit(&gram, &slots.xty, n, arms, |beta| {
            // Each slot's fitted value is the ascending-column dot product
            // of its 0/1 design row with β, zero terms included, exactly
            // as `kernel::mat_vec_columns` forms it per row.
            let mut row = vec![0.0f64; k];
            let fitted: Vec<f64> = (0..slots.counts.len())
                .map(|s| {
                    if slots.counts[s] == 0 {
                        return 0.0;
                    }
                    self.active_columns(s, &mut active);
                    for &c in &active {
                        row[c] = 1.0;
                    }
                    let mut f = 0.0f64;
                    for (x, b) in row.iter().zip(beta) {
                        f += x * b;
                    }
                    for &c in &active {
                        row[c] = 0.0;
                    }
                    f
                })
                .collect();
            // One pass over the group's rows, ascending, each row's arm
            // read from its treated bit.
            let mut r = 0usize;
            let mut rss = 0.0f64;
            for (&g, &t) in group.as_words().iter().zip(treated.as_words()) {
                let mut w = g;
                while w != 0 {
                    let arm = (t >> w.trailing_zeros()) & 1;
                    let d = self.y[r] - fitted[self.slot0[r] as usize + arm as usize];
                    rss += d * d;
                    r += 1;
                    w &= w - 1;
                }
            }
            rss
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faircap_table::{CatColumn, DataFrame};

    /// Confounded data where the truth is known exactly:
    /// z ∈ {0,1}; T more likely when z=1; O = 10·T + 50·z (no noise).
    /// Naive difference-in-means is biased upward; adjustment recovers 10.
    fn confounded_frame() -> (DataFrame, Mask) {
        let mut z = Vec::new();
        let mut t = Vec::new();
        let mut o = Vec::new();
        // z=0: 40 rows, 10 treated; z=1: 40 rows, 30 treated.
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
            .bool("t", t)
            .float("o", o)
            .build()
            .unwrap();
        (df, treated)
    }

    #[test]
    fn count_path_runs_only_on_categorical_designs() {
        let (df, _) = confounded_frame();
        let n = df.n_rows();
        let all = Mask::ones(n);
        let gather = |df: &DataFrame, adj: &[&str]| {
            let adj: Vec<String> = adj.iter().map(|a| a.to_string()).collect();
            CellTable::build(df, &all, "o", &adj).unwrap().is_some()
        };
        assert!(gather(&df, &["z"]));
        assert!(gather(&df, &[]));
        // Bool covariates enter as numeric columns.
        let flags = df
            .with_column("b", Column::Bool((0..n).map(|r| r % 2 == 0).collect()))
            .unwrap();
        assert!(!gather(&flags, &["z", "b"]));
        // 80 levels: 2·80 slots > 80 rows.
        let ids: Vec<String> = (0..n).map(|r| format!("id{r}")).collect();
        let wide = df
            .with_column("id", Column::Cat(CatColumn::from_values(&ids)))
            .unwrap();
        assert!(!gather(&wide, &["z", "id"]));
        let mut o: Vec<f64> = (0..n).map(|r| r as f64).collect();
        o[7] = f64::NAN;
        let nan = df.with_column("o", Column::Float(o)).unwrap();
        assert!(!gather(&nan, &["z"]));
        // Errors are the columnar path's.
        let adj = vec!["missing".to_string()];
        assert!(CellTable::build(&df, &all, "o", &adj).is_err());
    }

    #[test]
    fn recovers_true_effect_under_confounding() {
        let (df, treated) = confounded_frame();
        let all = Mask::ones(df.n_rows());
        let est = estimate(&df, &all, &treated, "o", &["z".into()]).unwrap();
        assert!((est.cate - 10.0).abs() < 1e-8, "cate = {}", est.cate);
        assert!(est.p_value < 1e-6);
        assert_eq!(est.n_treated, 40);
        assert_eq!(est.n_control, 40);
    }

    #[test]
    fn naive_estimate_is_biased() {
        let (df, treated) = confounded_frame();
        let all = Mask::ones(df.n_rows());
        // No adjustment: E[O|T=1] = (10·10 + 30·60)/40 = 47.5,
        // E[O|T=0] = (30·0 + 10·50)/40 = 12.5 → naive effect 35.
        let est = estimate(&df, &all, &treated, "o", &[]).unwrap();
        assert!((est.cate - 35.0).abs() < 1e-8, "naive = {}", est.cate);
    }

    #[test]
    fn numeric_covariate_adjustment() {
        // O = 5·T + 2·age, T correlated with age.
        let n = 200;
        let mut age = Vec::new();
        let mut t = Vec::new();
        let mut o = Vec::new();
        for i in 0..n {
            let a = 20 + (i % 40) as i64;
            let ti = a >= 40;
            age.push(a);
            t.push(ti);
            o.push(5.0 * ti as i64 as f64 + 2.0 * a as f64);
        }
        let treated = Mask::from_bools(&t);
        let df = DataFrame::builder()
            .int("age", age)
            .float("o", o)
            .build()
            .unwrap();
        let all = Mask::ones(n);
        let est = estimate(&df, &all, &treated, "o", &["age".into()]).unwrap();
        assert!((est.cate - 5.0).abs() < 1e-8, "cate = {}", est.cate);
    }

    #[test]
    fn subgroup_estimation_restricts_rows() {
        let (df, treated) = confounded_frame();
        // Only the z=low stratum: effect is exactly 10 with no confounding.
        let low = faircap_table::Pattern::of_eq(&[("z", "low".into())])
            .coverage(&df)
            .unwrap();
        let est = estimate(&df, &low, &treated, "o", &[]).unwrap();
        assert!((est.cate - 10.0).abs() < 1e-8);
        assert_eq!(est.n_treated + est.n_control, 40);
    }

    #[test]
    fn insufficient_overlap_rejected() {
        let df = DataFrame::builder()
            .float("o", vec![1.0; 20])
            .build()
            .unwrap();
        let all = Mask::ones(20);
        let treated = Mask::from_indices(20, &[0, 1]); // 2 treated < MIN_ARM_SIZE
        assert!(estimate(&df, &all, &treated, "o", &[]).is_err());
        let all_treated = Mask::ones(20);
        assert!(estimate(&df, &all, &all_treated, "o", &[]).is_err());
    }

    #[test]
    fn categorical_outcome_rejected() {
        let df = DataFrame::builder()
            .cat("o", &["a"; 20])
            .bool("t", vec![true; 20])
            .build()
            .unwrap();
        let all = Mask::ones(20);
        let treated = Mask::from_indices(20, &(0..10).collect::<Vec<_>>());
        assert!(estimate(&df, &all, &treated, "o", &[]).is_err());
    }

    #[test]
    fn noisy_effect_significant_and_null_not() {
        // Deterministic pseudo-noise (no rand dependency needed here).
        let n = 400;
        let mut t = Vec::new();
        let mut o_effect = Vec::new();
        let mut o_null = Vec::new();
        let mut state = 0x12345678u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state as f64 / u64::MAX as f64) - 0.5
        };
        for i in 0..n {
            let ti = i % 2 == 0;
            t.push(ti);
            let noise = rng() * 4.0;
            o_effect.push(if ti { 8.0 } else { 0.0 } + noise);
            o_null.push(noise);
        }
        let treated = Mask::from_bools(&t);
        let all = Mask::ones(n);
        let df = DataFrame::builder()
            .float("oe", o_effect)
            .float("on", o_null)
            .build()
            .unwrap();
        let sig = estimate(&df, &all, &treated, "oe", &[]).unwrap();
        assert!(sig.is_significant(0.01), "p = {}", sig.p_value);
        let null = estimate(&df, &all, &treated, "on", &[]).unwrap();
        assert!(!null.is_significant(0.01), "p = {}", null.p_value);
    }
}
