//! OLS linear-adjustment CATE estimator.
//!
//! Fits `O ~ 1 + T + Z` on the subgroup rows, where `T` is the 0/1 treatment
//! indicator and `Z` the one-hot-encoded adjustment covariates (first level
//! dropped per covariate; numeric covariates enter directly). The coefficient
//! on `T` is the CATE; its standard error comes from `σ̂²(XᵀX)⁻¹`.
//!
//! Two paths compute the normal equations. Both give `β` — so the CATE and
//! every refusal — bit-identical to
//! [`reference::linear_naive`](super::reference::linear_naive):
//!
//! * **Count path** — when every adjustment column is categorical, the
//!   design is a set of 0/1 columns and `XᵀX` is a matrix of integer
//!   counts. It runs in three tiers:
//!   1. A [`GroupRows`] per group holds the group's outcomes, `Σy`, the
//!      mean `ȳ` that deviations `d = y − ȳ` are taken from, the total sum
//!      of squares `Σd²`, and a per-word rank of the group mask. Per
//!      covariate, on first use, it codes each row's level (the
//!      `design::LevelCoder` rule: the first observed level is the
//!      reference; one byte per row up to 256 levels) and sums `y` per
//!      level in ascending row order. A [`CellTable`] per group and set of
//!      covariates that vary in it is then put together from integers:
//!      each row's covariate-level *cell* (numbered densely by first
//!      appearance, however wide the space of level combinations), the
//!      rows per cell, the intervention-independent part of `XᵀX`, and
//!      each cell's design columns. One more pass sums `d` per cell. The
//!      table shares the group's rows by `Arc` and adds 4 bytes per row.
//!      A covariate with one level in the group splits no cell and adds no
//!      design column, so adjustment sets that differ only by such
//!      covariates share one table.
//!   2. Per intervention, one walk over the set bits of `group ∧ treated`
//!      counts treated rows per cell, sums treated `y` in ascending order
//!      for `Xᵀy`'s treatment entry, and sums treated `d` per cell. A
//!      (cell, arm) pair is a *slot*; control sums are the cell's minus
//!      the treated ones. The treatment row of `XᵀX` is added to the
//!      table's, and the RSS comes from the slots alone:
//!      `Σd² + Σ_slots (m·(d̄ − f)² − m·d̄²)` for a slot's `m` rows, mean
//!      deviation `d̄` and fitted deviation `f`. That costs
//!      `O(treated + cells·p + k³)` for `p` covariates and `k` design
//!      columns, with no pass over the whole group.
//!   3. The per-slot RSS sums in a different order than the naive row
//!      loop, so `std_err`, `t_stat` and `p_value` may differ from the
//!      oracle's in the last bits (within [`INFERENCE_TOLERANCE`]). Where
//!      that order could matter — a non-finite per-slot RSS, or one not
//!      above [`EXACT_RSS_FRACTION`] of `Σd²` (a near-perfect fit, or a
//!      constant outcome) — the exact pass runs instead. It walks every
//!      group row in ascending order, reading each row's arm from its
//!      treated bit, and is bit-identical to the oracle.
//!
//!   Integer counts are exact in any order, and every `Xᵀy` entry keeps
//!   the columnar kernels' ascending row order, so `β` never rounds
//!   differently.
//! * **Columnar path** — the fused column-major design of
//!   [`kernel::build_columns`] and the blocked [`kernel`] reductions,
//!   bit-identical to the oracle in all four fields. It runs only when a
//!   covariate is numeric or Bool, or when an outcome in the group is not
//!   finite (`0·∞` terms make every sum NaN, which counts cannot
//!   reproduce).
//!
//! Both paths share the solve: one ridge-stabilized Cholesky factor of
//! `XᵀX` gives `β` and, from one more triangular solve against `e₁`, the
//! `(1,1)` entry of `(XᵀX)⁻¹`.
//!
//! The [`CateEngine`](crate::cate::CateEngine) caches one [`GroupRows`]
//! per group fingerprint and, per (group fingerprint, adjustment
//! fingerprint), the table (or the verdict that the columnar path must
//! run), so an intervention sweep over a group builds its table once. On
//! a miss, the group entry hands out the live table of the same varying
//! covariates if another adjustment set has one, so the cache builds one
//! table per distinct design.

use super::design::LevelCoder;
use super::{kernel, Estimate, HotStats, MIN_ARM_SIZE};
use crate::cate::GroupCacheRef;
use crate::error::{CausalError, Result};
use crate::linalg::{cholesky_solve, spd_factor, Matrix};
use faircap_table::stats::t_sf_two_sided;
use faircap_table::{CatColumn, Column, DataFrame, Mask};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::ops::{AddAssign, Mul};
use std::sync::{Arc, Weak};
use std::time::Instant;

/// The count path's contract against
/// [`reference::linear_naive`](super::reference::linear_naive): `cate`,
/// the arm sizes and every refusal are bit-identical, and `std_err` and
/// `t_stat` lie within this relative distance of the oracle's (`p_value`
/// within this absolute distance). The per-slot RSS errs by about
/// `ε·Σd²` times a small summation factor, and the exact pass takes over
/// at or below [`EXACT_RSS_FRACTION`]` · Σd²`, so the RSS's relative error
/// stays near `ε·10⁶ ≈ 2·10⁻¹⁰` times that factor at worst. Over 360k
/// random estimates (`tests/prop_kernels.rs`, `linear_oracle_sweep`) the
/// largest deviation measured was 7.9·10⁻¹¹ (`std_err`, relative). It
/// comes from cell spaces wider than the group, whose slots hold a row or
/// two and whose fits leave little residual: while those designs took the
/// columnar path, the sweep's largest was 6·10⁻¹⁵.
pub const INFERENCE_TOLERANCE: f64 = 1e-9;

/// The per-slot RSS stands only when it exceeds this fraction of the
/// group's total sum of squares `Σd²`; otherwise (near-perfect fits,
/// constant outcomes) the exact row pass recomputes it.
pub const EXACT_RSS_FRACTION: f64 = 1e-6;

/// Estimate the CATE by linear regression (see module docs), with
/// hot-path cost accounting. With `caches` — the engine's group caches and
/// the group and adjustment fingerprints keying them — the count path's
/// [`GroupRows`] and [`CellTable`] come from the caches (shared or built,
/// and cached, on a miss); without, both are built for this estimate
/// alone.
pub fn estimate_with(
    df: &DataFrame,
    group: &Mask,
    treated: &Mask,
    outcome: &str,
    adjustment: &[String],
    caches: Option<GroupCacheRef<'_>>,
    stats: &mut HotStats,
) -> Result<Estimate> {
    let n = group.count();
    let arms = arms(n, group, treated)?;

    let t0 = Instant::now();
    let table = match caches {
        Some(cache) => {
            let caches = cache.caches;
            caches
                .cell_table
                .get_or_resolve(cache.table_key(), || -> Result<_> {
                    let rows = || {
                        let build = || GroupRows::build(df, group, outcome);
                        caches.group_rows.get_or_build(cache.group_fp, build)
                    };
                    CellTable::assemble(df, group, adjustment, rows)
                })?
        }
        None => CellTable::build(df, group, outcome, adjustment)?,
    };
    if let Some(table) = table {
        let walk = table.walk(group, treated);
        stats.build_ns += t0.elapsed().as_nanos() as u64;
        return table.fit(&walk, group, treated, arms);
    }
    stats.build_ns += t0.elapsed().as_nanos() as u64;

    // Column layout: [intercept, T, covariate blocks...], assembled
    // column-major with the fused word-at-a-time gather.
    let t0 = Instant::now();
    let x = kernel::build_columns(df, adjustment, group, Some(treated))?;
    let y = kernel::gather_outcome(df, outcome, group)?;
    stats.build_ns += t0.elapsed().as_nanos() as u64;
    check_rows(n, x.k())?;

    let gram = kernel::gram_columns(x.cols());
    let xty = kernel::xty_columns(x.cols(), &y);
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

/// The count path's first tier (see module docs): what depends on the
/// group rows alone, shared by the [`CellTable`]s of every adjustment set
/// over the group. Covariate levels are coded on first use.
///
/// An entry answers for the frame, outcome and group mask it was built
/// from only: every method taking a `group` must be passed that same mask.
#[derive(Debug)]
pub struct GroupRows {
    /// Outcome per group row, ascending.
    y: Vec<f64>,
    /// `Σy` in ascending row order: `Xᵀy`'s intercept entry.
    sum_y: f64,
    /// `ȳ`; the per-slot RSS works on deviations `d = y − ȳ`.
    mean: f64,
    /// `Σd²`, the total sum of squares.
    tss: f64,
    /// Group rows in the mask words before each word.
    rank: Vec<u32>,
    /// Coded covariates by column name.
    covariates: Mutex<HashMap<String, Arc<Levels>>>,
    /// The live tables assembled over the group, by the [`Levels::id`]s of
    /// the covariates they were built from. Weak, so a table (which holds
    /// its group entry) and the entry form no cycle.
    tables: Mutex<HashMap<Vec<u32>, Weak<CellTable>>>,
}

/// One categorical covariate coded within a group.
#[derive(Debug)]
struct Levels {
    /// The covariate's number within its group entry, in coding order.
    id: u32,
    /// Each group row's level, ascending.
    column: LevelColumn,
    /// `Σy` per level, each in ascending row order; one entry per level.
    sums: Vec<f64>,
}

/// Per-row levels: one byte per row for covariates of at most 256 levels
/// in the group (every paper dataset), four otherwise.
#[derive(Debug)]
enum LevelColumn {
    Byte(Vec<u8>),
    Word(Vec<u32>),
}

impl LevelColumn {
    /// Add `radix · level` to each row's cell code.
    fn add_to<C>(&self, cell: &mut [C], radix: C)
    where
        C: Copy + AddAssign + Mul<Output = C> + From<u8> + From<u32>,
    {
        fn add<C, L>(cell: &mut [C], levels: &[L], radix: C)
        where
            C: Copy + AddAssign + Mul<Output = C>,
            L: Copy + Into<C>,
        {
            for (c, &l) in cell.iter_mut().zip(levels) {
                *c += radix * l.into();
            }
        }
        match self {
            LevelColumn::Byte(levels) => add(cell, levels, radix),
            LevelColumn::Word(levels) => add(cell, levels, radix),
        }
    }

    /// Group row `r`'s level.
    fn level(&self, r: usize) -> usize {
        match self {
            LevelColumn::Byte(levels) => usize::from(levels[r]),
            LevelColumn::Word(levels) => levels[r] as usize,
        }
    }
}

impl GroupRows {
    /// Gather the group's outcomes, or `None` when the columnar path must
    /// run for every adjustment set: an outcome is not finite, or the group
    /// has `2³²` rows or more. Errors are the columnar path's (unknown or
    /// non-numeric outcome).
    fn build(df: &DataFrame, group: &Mask, outcome: &str) -> Result<Option<Arc<GroupRows>>> {
        let y = kernel::gather_outcome(df, outcome, group)?;
        if !y.iter().all(|v| v.is_finite()) || u32::try_from(y.len()).is_err() {
            return Ok(None);
        }
        let sum_y = y.iter().fold(0.0, |sum, yi| sum + yi);
        let mean = sum_y / y.len() as f64;
        let tss = y.iter().map(|yi| (yi - mean) * (yi - mean)).sum();
        let mut rank = Vec::with_capacity(group.as_words().len());
        let mut seen = 0u32;
        for &w in group.as_words() {
            rank.push(seen);
            seen += w.count_ones();
        }
        Ok(Some(Arc::new(GroupRows {
            y,
            sum_y,
            mean,
            tss,
            rank,
            covariates: Mutex::new(HashMap::new()),
            tables: Mutex::new(HashMap::new()),
        })))
    }

    /// Covariate `name` (column `cat`) coded within the group: one pass
    /// over the group's set words on first use codes each row's level and
    /// adds its outcome to that level's sum.
    fn levels(&self, name: &str, cat: &CatColumn, group: &Mask) -> Arc<Levels> {
        if let Some(hit) = self.covariates.lock().get(name) {
            return Arc::clone(hit);
        }
        let codes = cat.codes();
        let mut coder = LevelCoder::new(cat.cardinality());
        let mut sums = vec![0.0f64; cat.cardinality()];
        let mut levels = Vec::with_capacity(self.y.len());
        group.view().for_each_set_word(|wi, word| {
            let base = wi * 64;
            let mut w = word;
            while w != 0 {
                let level = coder.level(codes[base + w.trailing_zeros() as usize]);
                sums[level as usize] += self.y[levels.len()];
                levels.push(level);
                w &= w - 1;
            }
        });
        sums.truncate(coder.levels());
        let column = if coder.levels() <= 256 {
            LevelColumn::Byte(levels.into_iter().map(|l| l as u8).collect())
        } else {
            LevelColumn::Word(levels)
        };
        // A racing thread may have coded the same covariate; both codings
        // are equal, and the first one stays.
        let mut covariates = self.covariates.lock();
        let id = covariates.len() as u32;
        let coded = covariates
            .entry(name.to_owned())
            .or_insert_with(|| Arc::new(Levels { id, column, sums }));
        Arc::clone(coded)
    }
}

/// Each group row's cell, numbered densely by first appearance in
/// ascending row order, and each cell's first row. `coded` are the
/// covariates that split cells; each row's mixed-radix code (covariate 0
/// varying fastest) names its cell.
///
/// When the code space `∏ levels` fits the group, the codes are `u32`s
/// renumbered through a code-indexed array, as large as the space. A wider
/// space (a sub-coverage of a few dozen rows under covariates of a dozen
/// levels) takes `u64` codes renumbered through a map, so memory stays
/// O(rows + cells) however many levels there are; should the next
/// covariate overflow `u64`, the codes are first renumbered densely
/// (below `2³²`). Both renumber by first appearance of the same level
/// tuples, so they number cells alike.
fn number_cells(coded: &[Arc<Levels>], n: usize) -> (Vec<u32>, Vec<u32>) {
    let space = coded
        .iter()
        .try_fold(1usize, |space, levels| space.checked_mul(levels.sums.len()));
    let mut first = Vec::new();
    if let Some(space) = space.filter(|&space| space <= n) {
        // `radix · level < space ≤ n < 2³²`.
        let mut cell = vec![0u32; n];
        let mut radix = 1u32;
        for levels in coded {
            levels.column.add_to(&mut cell, radix);
            radix *= levels.sums.len() as u32;
        }
        let mut dense_of = vec![u32::MAX; space];
        for (r, c) in cell.iter_mut().enumerate() {
            let slot = &mut dense_of[*c as usize];
            if *slot == u32::MAX {
                *slot = first.len() as u32;
                first.push(r as u32);
            }
            *c = *slot;
        }
        return (cell, first);
    }
    let mut code = vec![0u64; n];
    let mut radix = 1u64;
    for levels in coded {
        let l = levels.sums.len() as u64;
        if radix.checked_mul(l).is_none() {
            radix = renumber(&mut code, &mut Vec::new()) as u64;
        }
        levels.column.add_to(&mut code, radix);
        radix *= l;
    }
    renumber(&mut code, &mut first);
    (code.into_iter().map(|c| c as u32).collect(), first)
}

/// Renumber `codes` densely by first appearance, pushing each number's
/// first row to `first`; returns how many numbers there are.
fn renumber(codes: &mut [u64], first: &mut Vec<u32>) -> usize {
    let mut dense_of: HashMap<u64, u64> = HashMap::new();
    for (r, c) in codes.iter_mut().enumerate() {
        *c = *dense_of.entry(*c).or_insert_with(|| {
            first.push(r as u32);
            first.len() as u64 - 1
        });
    }
    dense_of.len()
}

/// Row count and `Σd` over a set of group rows.
#[derive(Debug, Clone, Copy, Default)]
struct Moments {
    rows: u32,
    sum_d: f64,
}

impl Moments {
    #[inline]
    fn add(&mut self, d: f64) {
        self.rows += 1;
        self.sum_d += d;
    }

    /// `Σ (d − f)² − Σ d²` over the rows, as `m·(d̄ − f)² − m·d̄²` (zero
    /// without rows).
    fn excess(&self, f: f64) -> f64 {
        if self.rows == 0 {
            return 0.0;
        }
        let m = f64::from(self.rows);
        let mean = self.sum_d / m;
        let gap = mean - f;
        m * gap * gap - self.sum_d * mean
    }
}

/// The group half of an all-categorical OLS design for one adjustment set
/// (the count path's first tier; see module docs). Design columns are
/// `[1, T]` followed, per covariate, by one column for each observed level
/// after the reference level 0. Cells are numbered densely in order of
/// first appearance; slot `2·cell + T` is a (cell, arm) pair.
///
/// A table answers for the group mask it was built from only: every
/// method taking a `group` must be passed that same mask.
#[derive(Debug)]
pub struct CellTable {
    /// The group entry the table was assembled from.
    rows: Arc<GroupRows>,
    /// Cell of each group row, ascending.
    cell: Vec<u32>,
    /// Rows and `Σd` per cell.
    cells: Vec<Moments>,
    /// Covariate design columns set in each cell, ascending: cell `c`'s
    /// are `columns[starts[c]..starts[c + 1]]`.
    columns: Vec<u32>,
    starts: Vec<u32>,
    /// Upper triangle of `XᵀX` with the treatment row zero.
    gram: Matrix,
    /// `Xᵀy` with the treatment entry zero.
    xty: Vec<f64>,
}

/// The per-intervention half (tier 2): treated rows and `Σd` per cell, and
/// `Xᵀy`'s treatment entry.
struct Treated {
    cells: Vec<Moments>,
    sum_y: f64,
}

impl CellTable {
    /// Build the group entry and the table for this one adjustment set, or
    /// `None` when the columnar path must run instead: a numeric or Bool
    /// covariate, or a non-finite outcome. Errors match the columnar
    /// path's (unknown column, non-numeric outcome).
    pub fn build(
        df: &DataFrame,
        group: &Mask,
        outcome: &str,
        adjustment: &[String],
    ) -> Result<Option<Arc<CellTable>>> {
        let rows = || GroupRows::build(df, group, outcome);
        Ok(CellTable::assemble(df, group, adjustment, rows)?.0)
    }

    /// The table of this adjustment set over the group entry `rows()`
    /// supplies, or `None` when the columnar path must run instead: a
    /// numeric or Bool covariate (checked before `rows` is called) or no
    /// entry (a non-finite outcome). Errors match the columnar path's
    /// (unknown column, non-numeric outcome).
    ///
    /// A covariate with one level in the group splits no cell and adds no
    /// design column, so the table depends only on the covariates that
    /// vary there. The entry keeps the live table of each such set, and an
    /// adjustment set that differs from one already assembled only by
    /// covariates constant in the group shares that table. The flag is
    /// `false` for a shared table, `true` for a table or verdict built
    /// here.
    fn assemble(
        df: &DataFrame,
        group: &Mask,
        adjustment: &[String],
        rows: impl FnOnce() -> Result<Option<Arc<GroupRows>>>,
    ) -> Result<(Option<Arc<CellTable>>, bool)> {
        let mut covariates = Vec::with_capacity(adjustment.len());
        for name in adjustment {
            match df.column(name)? {
                Column::Cat(c) => covariates.push((name, c)),
                _ => return Ok((None, true)),
            }
        }
        let Some(rows) = rows()? else {
            return Ok((None, true));
        };
        let coded: Vec<Arc<Levels>> = covariates
            .iter()
            .map(|&(name, cat)| rows.levels(name, cat, group))
            .filter(|levels| levels.sums.len() > 1)
            .collect();
        let design: Vec<u32> = coded.iter().map(|levels| levels.id).collect();
        if let Some(shared) = rows.tables.lock().get(&design).and_then(Weak::upgrade) {
            return Ok((Some(shared), false));
        }
        let table = Arc::new(CellTable::from_levels(Arc::clone(&rows), &coded));
        // A racing thread may have built the same design; both tables are
        // equal, and the first one stays.
        let mut tables = rows.tables.lock();
        tables.retain(|_, live| live.strong_count() > 0);
        let kept = tables
            .entry(design)
            .or_insert_with(|| Arc::downgrade(&table));
        Ok((Some(kept.upgrade().unwrap_or(table)), true))
    }

    /// Put the table together over `rows` from the covariates that split
    /// its cells, in adjustment order.
    fn from_levels(rows: Arc<GroupRows>, coded: &[Arc<Levels>]) -> CellTable {
        let (cell, first) = number_cells(coded, rows.y.len());
        let mut cells = vec![Moments::default(); first.len()];
        for (&c, &yi) in cell.iter().zip(&rows.y) {
            cells[c as usize].add(yi - rows.mean);
        }

        // `Xᵀy` without its treatment entry, each cell's design columns
        // (read off the cell's first row), and `XᵀX` without its treatment
        // row (integers, so exact).
        let mut xty = vec![rows.sum_y, 0.0];
        let mut offsets = Vec::with_capacity(coded.len());
        for levels in coded {
            offsets.push(xty.len());
            xty.extend(levels.sums.iter().skip(1));
        }
        let k = xty.len();
        let mut gram = Matrix::zeros(k, k);
        let mut columns = Vec::new();
        let mut starts = Vec::with_capacity(cells.len() + 1);
        starts.push(0u32);
        let mut active = Vec::with_capacity(1 + coded.len());
        for (moments, &r) in cells.iter().zip(&first) {
            active.clear();
            active.push(0);
            for (levels, &offset) in coded.iter().zip(&offsets) {
                let level = levels.column.level(r as usize);
                if level > 0 {
                    active.push(offset + level - 1);
                    columns.push((offset + level - 1) as u32);
                }
            }
            starts.push(columns.len() as u32);
            let m = f64::from(moments.rows);
            for (a, &i) in active.iter().enumerate() {
                for &j in &active[a..] {
                    gram.set(i, j, gram.get(i, j) + m);
                }
            }
        }
        CellTable {
            rows,
            cell,
            cells,
            columns,
            starts,
            gram,
            xty,
        }
    }

    /// Estimate the CATE of `treated` within `group` (the mask the table
    /// was built from) — [`estimate_with`]'s answer, refusals included.
    pub fn estimate(&self, group: &Mask, treated: &Mask) -> Result<Estimate> {
        let arms = arms(self.cell.len(), group, treated)?;
        self.fit(&self.walk(group, treated), group, treated, arms)
    }

    /// Cell `c`'s covariate design columns, ascending.
    fn columns(&self, c: usize) -> &[u32] {
        &self.columns[self.starts[c] as usize..self.starts[c + 1] as usize]
    }

    /// Tier 2: one walk over the set bits of `group ∧ treated`, ascending.
    fn walk(&self, group: &Mask, treated: &Mask) -> Treated {
        let (y, mean) = (&self.rows.y, self.rows.mean);
        let mut cells = vec![Moments::default(); self.cells.len()];
        let mut sum_y = 0.0f64;
        let words = group.as_words().iter().zip(treated.as_words());
        for ((&g, &t), &rank) in words.zip(&self.rows.rank) {
            let mut w = g & t;
            while w != 0 {
                let below = g & ((1u64 << w.trailing_zeros()) - 1);
                let r = (rank + below.count_ones()) as usize;
                sum_y += y[r];
                cells[self.cell[r] as usize].add(y[r] - mean);
                w &= w - 1;
            }
        }
        Treated { cells, sum_y }
    }

    /// Complete the normal equations with one intervention's treated half
    /// and solve them; the RSS comes from the per-slot moments, or from
    /// the exact row pass (tier 3) where those cannot be trusted.
    fn fit(
        &self,
        treated_half: &Treated,
        group: &Mask,
        treated: &Mask,
        arms: (usize, usize),
    ) -> Result<Estimate> {
        let (n, k) = (self.cell.len(), self.xty.len());
        check_rows(n, k)?;
        let mut gram = self.gram.clone();
        let n_treated = arms.0 as f64;
        gram.set(0, 1, n_treated);
        gram.set(1, 1, n_treated);
        for (c, t) in treated_half.cells.iter().enumerate() {
            if t.rows > 0 {
                for &j in self.columns(c) {
                    let j = j as usize;
                    gram.set(1, j, gram.get(1, j) + f64::from(t.rows));
                }
            }
        }
        for i in 0..k {
            for j in 0..i {
                gram.set(i, j, gram.get(j, i));
            }
        }
        let mut xty = self.xty.clone();
        xty[1] = treated_half.sum_y;
        fit(&gram, &xty, n, arms, |beta| {
            // Each slot's fitted value sums β over its set design columns
            // in ascending order from 0.0 — bit for bit the naive dense
            // product, whose `0·βⱼ` terms are signed zeros that leave a
            // sum started at +0.0 unchanged. (A non-finite `β` makes both
            // RSS values non-finite.)
            let fitted: Vec<f64> = (0..2 * self.cells.len())
                .map(|s| {
                    let mut f = 0.0f64;
                    f += beta[0];
                    if s & 1 == 1 {
                        f += beta[1];
                    }
                    for &j in self.columns(s >> 1) {
                        f += beta[j as usize];
                    }
                    f
                })
                .collect();
            let rss = self.slot_rss(treated_half, &fitted);
            let floor = EXACT_RSS_FRACTION * self.rows.tss;
            if rss.is_finite() && rss > floor && floor > 0.0 {
                rss
            } else {
                self.exact_rss(group, treated, &fitted)
            }
        })
    }

    /// The RSS from each slot's moments and fitted value (tier 2):
    /// `Σd²` over the group plus each slot's [`Moments::excess`]. Control
    /// moments are the cell's minus the treated ones.
    fn slot_rss(&self, treated_half: &Treated, fitted: &[f64]) -> f64 {
        let mean = self.rows.mean;
        let mut rss = self.rows.tss;
        for (c, (all, t)) in self.cells.iter().zip(&treated_half.cells).enumerate() {
            let control = Moments {
                rows: all.rows - t.rows,
                sum_d: all.sum_d - t.sum_d,
            };
            rss += control.excess(fitted[2 * c] - mean);
            rss += t.excess(fitted[2 * c + 1] - mean);
        }
        rss
    }

    /// The RSS in one pass over the group's rows, ascending, each row's arm
    /// read from its treated bit (tier 3) — bit-identical to the oracle's.
    fn exact_rss(&self, group: &Mask, treated: &Mask, fitted: &[f64]) -> f64 {
        let mut r = 0usize;
        let mut rss = 0.0f64;
        for (&g, &t) in group.as_words().iter().zip(treated.as_words()) {
            let mut w = g;
            while w != 0 {
                let arm = (t >> w.trailing_zeros()) & 1;
                let d = self.rows.y[r] - fitted[2 * self.cell[r] as usize + arm as usize];
                rss += d * d;
                r += 1;
                w &= w - 1;
            }
        }
        rss
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimate::{Estimator as _, EstimatorKind::Linear};
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
        // 80 levels: a cell space wider than the 80 rows.
        let ids: Vec<String> = (0..n).map(|r| format!("id{r}")).collect();
        let wide = df
            .with_column("id", Column::Cat(CatColumn::from_values(&ids)))
            .unwrap();
        assert!(gather(&wide, &["z", "id"]));
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
        let est = Linear
            .estimate(&df, &all, &treated, "o", &["z".into()])
            .unwrap();
        assert!((est.cate - 10.0).abs() < 1e-8, "cate = {}", est.cate);
        assert!(est.p_value < 1e-6);
        assert_eq!(est.n_treated, 40);
        assert_eq!(est.n_control, 40);
    }

    #[test]
    fn covariates_past_256_levels_code_four_bytes_per_row() {
        // 300 levels over 1,200 rows: 2·300 slots fit, so the count path
        // runs on four-byte levels next to a one-byte covariate.
        let n = 1200;
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let ids: Vec<String> = (0..n).map(|r| format!("id{}", r % 300)).collect();
        let flags: Vec<&str> = (0..n).map(|r| ["a", "b"][r % 7 % 2]).collect();
        let t: Vec<bool> = (0..n).map(|_| next().is_multiple_of(3)).collect();
        let o: Vec<f64> = (0..n)
            .map(|r| {
                (r % 300) as f64 * 0.01 + 2.0 * t[r] as u8 as f64 + (next() % 1000) as f64 / 500.0
            })
            .collect();
        let df = DataFrame::builder()
            .cat("id", &ids)
            .cat("flag", &flags)
            .float("o", o)
            .build()
            .unwrap();
        let (all, treated) = (Mask::ones(n), Mask::from_bools(&t));
        let adj = vec!["flag".to_string(), "id".to_string()];
        let table = CellTable::build(&df, &all, "o", &adj).unwrap().unwrap();
        let live = table.estimate(&all, &treated).unwrap();
        let naive = super::super::reference::linear_naive(&df, &all, &treated, "o", &adj).unwrap();
        assert_eq!(live.cate.to_bits(), naive.cate.to_bits());
        let se = (live.std_err - naive.std_err).abs() / naive.std_err;
        assert!(se <= INFERENCE_TOLERANCE, "std_err {se:e} off");
    }

    /// Cells are numbered by first appearance of each row's level tuple
    /// whether the code space fits the group (a space-sized array), is
    /// wider (a map), or passes `u64` (codes compacted on the way), and the
    /// estimate keeps the oracle's contract in every case.
    #[test]
    fn wide_cell_spaces_number_cells_by_first_appearance() {
        let n = 2000;
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let levels: Vec<Vec<u64>> = (0..17)
            .map(|_| (0..n).map(|_| next() % 16).collect())
            .collect();
        let t: Vec<bool> = (0..n).map(|_| next() % 3 == 0).collect();
        let o: Vec<f64> = (0..n)
            .map(|r| {
                levels[0][r] as f64
                    + 3.0 * f64::from(u8::from(t[r]))
                    + (next() % 1000) as f64 / 250.0
            })
            .collect();
        let mut builder = DataFrame::builder().float("o", o);
        let names: Vec<String> = (0..levels.len()).map(|a| format!("z{a}")).collect();
        for (name, col) in names.iter().zip(&levels) {
            let labels: Vec<String> = col.iter().map(|l| format!("l{l}")).collect();
            builder = builder.cat(name, &labels);
        }
        let df = builder.build().unwrap();
        let (all, treated) = (Mask::ones(n), Mask::from_bools(&t));
        let rows = GroupRows::build(&df, &all, "o").unwrap().unwrap();
        // Spaces of 16² (fits), 16³ (wider than the rows) and 16¹⁷ = 2⁶⁸.
        for p in [2, 3, 17] {
            let coded: Vec<Arc<Levels>> = names[..p]
                .iter()
                .map(|name| match df.column(name).unwrap() {
                    Column::Cat(cat) => rows.levels(name, cat, &all),
                    _ => unreachable!(),
                })
                .collect();
            let (cell, first) = number_cells(&coded, n);
            let mut seen: HashMap<Vec<usize>, u32> = HashMap::new();
            for (r, &numbered) in cell.iter().enumerate() {
                let tuple: Vec<usize> = coded.iter().map(|l| l.column.level(r)).collect();
                let fresh = seen.len() as u32;
                let c = *seen.entry(tuple).or_insert(fresh);
                assert_eq!(numbered, c, "{p} covariates, row {r}");
                if c == fresh {
                    assert_eq!(first[c as usize] as usize, r);
                }
            }
            assert_eq!(first.len(), seen.len());

            let adj = names[..p].to_vec();
            let live = CellTable::build(&df, &all, "o", &adj).unwrap().unwrap();
            let live = live.estimate(&all, &treated);
            let naive = super::super::reference::linear_naive(&df, &all, &treated, "o", &adj);
            match (live, naive) {
                (Ok(live), Ok(naive)) => {
                    assert_eq!(live.cate.to_bits(), naive.cate.to_bits(), "{p}");
                    let se = (live.std_err - naive.std_err).abs() / naive.std_err;
                    assert!(se <= INFERENCE_TOLERANCE, "{p}: std_err {se:e} off");
                }
                (Err(_), Err(_)) => assert_eq!(p, 17, "only the widest design refuses"),
                (live, naive) => panic!("{p}: {live:?} vs {naive:?}"),
            }
        }
    }

    #[test]
    fn near_perfect_fits_take_the_exact_pass() {
        // O = 10·T + 50·z with no noise: the per-slot RSS is rounding
        // noise far below 10⁻⁶·Σd², so the exact row pass recomputes it
        // and every field equals the oracle's bit for bit.
        let (df, treated) = confounded_frame();
        let all = Mask::ones(df.n_rows());
        let adj = vec!["z".to_string()];
        let bits = |e: Estimate| [e.cate, e.std_err, e.t_stat, e.p_value].map(f64::to_bits);
        let live = Linear.estimate(&df, &all, &treated, "o", &adj).unwrap();
        let naive = super::super::reference::linear_naive(&df, &all, &treated, "o", &adj);
        assert_eq!(bits(live), bits(naive.unwrap()));
    }

    #[test]
    fn naive_estimate_is_biased() {
        let (df, treated) = confounded_frame();
        let all = Mask::ones(df.n_rows());
        // No adjustment: E[O|T=1] = (10·10 + 30·60)/40 = 47.5,
        // E[O|T=0] = (30·0 + 10·50)/40 = 12.5 → naive effect 35.
        let est = Linear.estimate(&df, &all, &treated, "o", &[]).unwrap();
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
        let est = Linear
            .estimate(&df, &all, &treated, "o", &["age".into()])
            .unwrap();
        assert!((est.cate - 5.0).abs() < 1e-8, "cate = {}", est.cate);
    }

    #[test]
    fn subgroup_estimation_restricts_rows() {
        let (df, treated) = confounded_frame();
        // Only the z=low stratum: effect is exactly 10 with no confounding.
        let low = faircap_table::Pattern::of_eq(&[("z", "low".into())])
            .coverage(&df)
            .unwrap();
        let est = Linear.estimate(&df, &low, &treated, "o", &[]).unwrap();
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
        assert!(Linear.estimate(&df, &all, &treated, "o", &[]).is_err());
        let all_treated = Mask::ones(20);
        assert!(Linear.estimate(&df, &all, &all_treated, "o", &[]).is_err());
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
        assert!(Linear.estimate(&df, &all, &treated, "o", &[]).is_err());
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
        let sig = Linear.estimate(&df, &all, &treated, "oe", &[]).unwrap();
        assert!(sig.is_significant(0.01), "p = {}", sig.p_value);
        let null = Linear.estimate(&df, &all, &treated, "on", &[]).unwrap();
        assert!(!null.is_significant(0.01), "p = {}", null.p_value);
    }
}
