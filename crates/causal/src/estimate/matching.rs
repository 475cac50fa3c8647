//! k-nearest-neighbor covariate-matching CATE estimator.
//!
//! Abadie–Imbens-style matching with regression bias adjustment, run on the
//! same encoded design the regression estimators use (the crate's shared
//! `design`/`kernel` modules): categorical covariates one-hot encoded,
//! numeric covariates standardized to unit variance within the subgroup so
//! no single covariate dominates the Euclidean metric.
//!
//! Every unit is matched (with replacement, ties included) to its
//! [`K_NEIGHBORS`] nearest neighbors in the *opposite* arm; the missing
//! potential outcome is imputed as the neighbors' mean outcome plus the
//! bias-adjustment term `μ̂(z_i) − μ̂(z_j)`, where `μ̂` is an OLS outcome
//! regression fit on the opposite arm (Abadie & Imbens 2011). Including
//! distance ties makes the estimator deterministic and means that on
//! *exactly matched* covariates it reproduces exact stratification — a
//! property the integration tests assert against
//! [`stratified`](super::stratified).
//!
//! The reported variance is the Abadie–Imbens (2006) estimator with the
//! **match-reuse correction**: on top of the between-unit variance of the
//! matched contrasts, each unit `i` contributes an extra
//! `(K_i² + K_i)·σ̂²_{arm(i)}` term, where `K_i` is the (tie-weighted)
//! number of times `i` served as a match for opposite-arm units and
//! `σ̂²_arm` is the within-arm residual variance of the bias-adjustment
//! regression.
//!
//! # The hot path
//!
//! Neighbor search runs through a [`MatchIndex`]: the standardized design,
//! a median-split [`KdTree`] over it, and each unit's *cell* — the units
//! sharing its exact standardized point, keyed on the f64 bit patterns.
//! The index depends only on the (subgroup, adjustment-set) pair — arm
//! membership is applied as a query filter — so the
//! [`CateEngine`](crate::cate::CateEngine) caches and reuses one index
//! across every intervention of a pattern sweep. Queries are
//! tie-inclusive two-phase lookups ([`KdTree::query_ties`]) that reproduce
//! the brute-force matched sets *exactly*; the brute path (kept for tiny
//! arms and covariate-free designs, see [`MatchStrategy`]) and the tree
//! path produce **bit-identical** CATEs, property-tested in
//! `tests/prop_kernels.rs`.
//!
//! An estimate works per (cell, arm) key, not per unit, in two phases:
//!
//! 1. **One search per key.** The key's first unit runs the neighbour
//!    search; from its matched set of size `m` the key records the
//!    imputed outcome — the mean of `y_j + μ̂(z_i) − μ̂(z_j)`, summed in
//!    ascending unit order — `1/m`, and the distinct keys of the matched
//!    units.
//! 2. **One pass over the units.** Each unit takes its contrast `τ_i` from
//!    its key's imputation and adds its key's `1/m` once to every target
//!    key's match weight, over the fixed `MATCH_PARTS` partition of the
//!    units, parts folded in partition order.
//!
//! That is `O(n + keys · m)` time and key-length weight vectors where the
//! per-unit loop took `O(n · m)` and n-length ones. It is **bit-identical**
//! to that loop, preserved as
//! [`reference::matching_naive`](super::reference::matching_naive) and
//! proptested against it: units of one key have bit-equal points, hence
//! bit-equal predictions and the same matched set, so every one computes
//! the same imputation; and they are in every matched set together or not
//! at all (equal points, equal distances), so each key's weight sees the
//! same sequence of additions each of its units' weights did. The
//! per-unit `K_i`, the reuse correction, the standard error and the
//! p-value follow unchanged.
//! [`HotStats::tree_visits`] counts the nodes of one search per distinct
//! (cell, arm) key per estimate.
//!
//! The complexity budget ([`DEFAULT_MATCHING_BUDGET`], overridable via
//! `FAIRCAP_MATCHING_BUDGET`) is expressed in the index's work units —
//! estimated tree-node visits under the post-index cost model
//! ([`estimated_work`]), or raw pair distances when the brute path would
//! run — and refuses subgroups that would still grind, naming scalable
//! alternatives in the typed
//! [`CausalError::EstimatorBudget`]. The model deliberately prices one
//! query per *unit*, although an estimate searches once per (cell, arm):
//! it stays a function of the arm sizes alone, so which subgroups are
//! refused (and so which rules a solve can select) does not depend on
//! their cell structure.

use super::kdtree::{self, KdTree, LEAF_SIZE};
use super::{aipw, design, kernel, normal_inference, Estimate, HotStats, MIN_ARM_SIZE};
use crate::error::{CausalError, Result};
use faircap_table::{DataFrame, Mask};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::OnceLock;
use std::time::Instant;

/// Number of opposite-arm neighbors matched per unit (before tie
/// expansion). Four is the usual bias/variance sweet spot for k-NN
/// matching; ties at the k-th distance are all included.
pub const K_NEIGHBORS: usize = 4;

/// Default complexity budget in work units: estimated KD-tree node visits
/// for indexed estimates ([`estimated_work`]), raw `n_t · n_c` pair
/// distances when the brute-force path would run (tiny arms or a
/// covariate-free design). Under the post-index cost model a 10⁶-row
/// subgroup estimates in ~10⁸ units, so the default admits paper-scale
/// subgroups while still refusing degenerate covariate-free sweeps that
/// would grind quadratically. Override per process with the
/// `FAIRCAP_MATCHING_BUDGET` environment variable (`0` disables the
/// guard).
pub const DEFAULT_MATCHING_BUDGET: u64 = 200_000_000;

/// Smallest arm size that justifies tree-indexed queries under
/// [`MatchStrategy::Auto`]; at or below it the brute-force scan is faster
/// than tree traversal overhead.
pub const BRUTE_ARM_MAX: usize = 128;

/// Fixed number of unit partitions per estimate. Match weights accumulate
/// per partition and the partitions fold in order, so this constant fixes
/// the summation order of the weights — and therefore the bits of the
/// CATE's variance — shared by the live estimator and
/// [`reference::matching_naive`](super::reference::matching_naive).
pub(super) const MATCH_PARTS: usize = 8;

/// The effective work budget, from `FAIRCAP_MATCHING_BUDGET` as read once
/// per process: a unit count, `0` to disable the guard, and
/// [`DEFAULT_MATCHING_BUDGET`] when the variable is unset or not a number.
pub fn matching_budget() -> u64 {
    static BUDGET: OnceLock<u64> = OnceLock::new();
    *BUDGET.get_or_init(|| {
        parse_matching_budget(std::env::var("FAIRCAP_MATCHING_BUDGET").ok().as_deref())
    })
}

/// The budget a `FAIRCAP_MATCHING_BUDGET` value sets; see
/// [`matching_budget`].
fn parse_matching_budget(value: Option<&str>) -> u64 {
    match value.map(|v| v.trim().parse::<u64>()) {
        Some(Ok(0)) => u64::MAX,
        Some(Ok(n)) => n,
        _ => DEFAULT_MATCHING_BUDGET,
    }
}

/// A-priori cost model for one estimate, in budget work units.
///
/// Without a tree the brute path evaluates every `n_t · n_c` pair
/// distance. With one, each of the `n` queries descends the median-split
/// tree twice (k-th bound phase and tie-collect phase, ~`log₂ pool`
/// internal nodes each), touches `K_NEIGHBORS` candidates for the bound,
/// and scans on the order of two [`LEAF_SIZE`] buckets — the model the
/// budget refusal reports, deliberately a-priori (a function of arm sizes
/// only) so refusal never depends on data values. It prices one query per
/// unit although an estimate searches once per distinct (cell, arm):
/// re-pricing would change which estimates are refused. Actual visited
/// nodes are recorded on [`HotStats::tree_visits`].
pub fn estimated_work(n_treated: u64, n_control: u64, tree: bool) -> u64 {
    if !tree {
        return n_treated.saturating_mul(n_control);
    }
    let per_query = |pool: u64| -> u64 {
        let log2 = (u64::BITS - pool.max(2).leading_zeros()) as u64;
        2 * log2 + K_NEIGHBORS as u64 + 2 * LEAF_SIZE as u64
    };
    n_treated
        .saturating_mul(per_query(n_control))
        .saturating_add(n_control.saturating_mul(per_query(n_treated)))
}

/// Which neighbor-search path an estimate uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MatchStrategy {
    /// Tree-indexed when the design has covariates and both arms exceed
    /// [`BRUTE_ARM_MAX`]; brute-force otherwise.
    #[default]
    Auto,
    /// Always scan every opposite-arm pair.
    Brute,
    /// Always query the KD-tree (falls back to brute only for
    /// covariate-free designs, which have no tree). The property tests
    /// force both paths and compare CATEs by bits.
    Tree,
}

/// The reusable matching index of one (subgroup, adjustment-set) pair:
/// outcome values, the standardized `[1, Z…]` design (column-major), the
/// same covariates as row-major points, the KD-tree over them, and each
/// unit's covariate cell.
///
/// Deliberately treatment-*independent* — arm membership is a query-time
/// filter — so one index serves every intervention of a pattern sweep;
/// the engine caches these per (group fingerprint, adjustment
/// fingerprint).
#[derive(Debug)]
pub struct MatchIndex {
    pub(super) y: Vec<f64>,
    pub(super) design: kernel::ColumnDesign,
    pub(super) points: Vec<f64>,
    pub(super) dim: usize,
    pub(super) tree: Option<KdTree>,
    /// Per unit, the id of its covariate cell: units whose standardized
    /// points are equal bit for bit share one id, numbered in first-unit
    /// order.
    pub(super) cell_of: Vec<u32>,
    n_cells: usize,
}

impl MatchIndex {
    /// Build the index: fused columnar design assembly, in-place
    /// standardization (constant columns carry no matching information
    /// and are zeroed), transpose to row-major points, KD-tree
    /// construction, cell numbering. Assembly time lands in
    /// [`HotStats::build_ns`], the rest in [`HotStats::index_ns`].
    pub fn build(
        df: &DataFrame,
        group: &Mask,
        outcome: &str,
        adjustment: &[String],
        stats: &mut HotStats,
    ) -> Result<MatchIndex> {
        let t0 = Instant::now();
        let mut design = kernel::build_columns(df, adjustment, group, None)?;
        let y = kernel::gather_outcome(df, outcome, group)?;
        let n = design.n();
        for col in &mut design.cols_mut()[1..] {
            let mean = col.iter().sum::<f64>() / n as f64;
            let var = col.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n as f64;
            let scale = if var > 1e-24 { 1.0 / var.sqrt() } else { 0.0 };
            for v in col.iter_mut() {
                *v = (*v - mean) * scale;
            }
        }
        stats.build_ns += t0.elapsed().as_nanos() as u64;

        let t1 = Instant::now();
        let dim = design.k() - 1;
        let mut points = vec![0.0f64; n * dim];
        for (c, col) in design.cols()[1..].iter().enumerate() {
            for (r, &v) in col.iter().enumerate() {
                points[r * dim + c] = v;
            }
        }
        let tree = if dim > 0 && n > 0 {
            Some(KdTree::build(&points, dim))
        } else {
            None
        };
        let (cell_of, n_cells) = number_cells(&points, n, dim);
        stats.index_ns += t1.elapsed().as_nanos() as u64;
        Ok(MatchIndex {
            y,
            design,
            points,
            dim,
            tree,
            cell_of,
            n_cells,
        })
    }

    /// Number of (group-dense) units indexed.
    pub fn n(&self) -> usize {
        self.design.n()
    }

    /// Covariate dimensionality of the matching metric (design width
    /// minus the intercept).
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Whether a KD-tree was built (covariate-free designs have none).
    pub fn has_tree(&self) -> bool {
        self.tree.is_some()
    }
}

/// One unit's standardized point, compared and hashed by its exact f64
/// bit patterns. Every key of one index has the same width.
struct CellKey<'a>(&'a [f64]);

impl PartialEq for CellKey<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.0
            .iter()
            .zip(other.0)
            .all(|(a, b)| a.to_bits() == b.to_bits())
    }
}

impl Eq for CellKey<'_> {}

impl Hash for CellKey<'_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        for v in self.0 {
            state.write_u64(v.to_bits());
        }
    }
}

/// Multiply-rotate hasher for [`CellKey`]s: one multiply per coordinate
/// word, where SipHash spends several rounds. Only speed depends on it:
/// cell ids are numbered in first-unit order.
#[derive(Default)]
struct WordHasher(u64);

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn finish(&self) -> u64 {
        // The table buckets on the low bits, which a multiply mixes least.
        self.0.rotate_left(26)
    }
}

/// Cell id of every unit, and the number of cells. Keys borrow `dim`-wide
/// slices of the row-major `points`, so numbering allocates nothing per
/// row.
fn number_cells(points: &[f64], n: usize, dim: usize) -> (Vec<u32>, usize) {
    let mut ids: HashMap<CellKey<'_>, u32, BuildHasherDefault<WordHasher>> = HashMap::default();
    let cell_of = (0..n)
        .map(|i| {
            let next = ids.len() as u32;
            *ids.entry(CellKey(&points[i * dim..][..dim]))
                .or_insert(next)
        })
        .collect();
    (cell_of, ids.len())
}

/// Per-call knobs of [`estimate_with`].
#[derive(Debug, Clone, Copy, Default)]
pub struct MatchParams<'a> {
    /// A prebuilt index for this (subgroup, adjustment-set); `None`
    /// builds one for the call.
    pub index: Option<&'a MatchIndex>,
    /// Neighbor-search path selection.
    pub strategy: MatchStrategy,
}

/// Estimate the CATE by k-NN covariate matching with bias adjustment (see
/// module docs): explicit index reuse and search strategy, with hot-path
/// cost accounting on `stats`.
///
/// The result is a pure function of the data — bit-identical across
/// strategies (brute vs. tree) and index reuse vs. rebuild, and to the
/// per-unit oracle
/// [`reference::matching_naive`](super::reference::matching_naive).
pub fn estimate_with(
    df: &DataFrame,
    group: &Mask,
    treated: &Mask,
    outcome: &str,
    adjustment: &[String],
    params: &MatchParams<'_>,
    stats: &mut HotStats,
) -> Result<Estimate> {
    estimate_by(
        df,
        group,
        treated,
        outcome,
        adjustment,
        params,
        stats,
        cell_contrasts,
    )
}

/// What a contrast pass reads: the index, the group-dense treatment
/// indicator, each arm's bias-adjustment predictions over every unit, and
/// the search path.
pub(super) struct Fit<'a> {
    pub(super) idx: &'a MatchIndex,
    pub(super) t: Vec<bool>,
    pub(super) pred_t: Vec<f64>,
    pub(super) pred_c: Vec<f64>,
    pub(super) use_tree: bool,
}

/// The matching estimate around a pluggable contrast pass: the overlap
/// check, path decision and budget refusal, the index, the two
/// bias-adjustment regressions, then `contrasts` — which returns every
/// unit's matched contrast `τ_i` and match weight `K_i` — and finally the
/// Abadie–Imbens variance. [`estimate_with`] passes the cell-level pass;
/// the per-unit oracle in [`reference`](super::reference) passes its own.
#[allow(clippy::too_many_arguments)]
pub(super) fn estimate_by(
    df: &DataFrame,
    group: &Mask,
    treated: &Mask,
    outcome: &str,
    adjustment: &[String],
    params: &MatchParams<'_>,
    stats: &mut HotStats,
    contrasts: impl FnOnce(&Fit<'_>, &mut HotStats) -> (Vec<f64>, Vec<f64>),
) -> Result<Estimate> {
    let n = group.count();
    let n_treated = group.intersect_count(treated);
    let n_control = n - n_treated;
    if n_treated < MIN_ARM_SIZE || n_control < MIN_ARM_SIZE {
        return Err(CausalError::Estimation(format!(
            "insufficient overlap: {n_treated} treated / {n_control} control"
        )));
    }

    // Path decision and budget refusal happen before any heavy work: with
    // a prebuilt index the width is known; otherwise a cheap block scan
    // determines it without assembling the design.
    let dim = match params.index {
        Some(idx) => idx.dim(),
        None => design::build_blocks(df, adjustment, group)?.1,
    };
    let use_tree = match params.strategy {
        MatchStrategy::Brute => false,
        MatchStrategy::Tree => dim > 0,
        MatchStrategy::Auto => dim > 0 && n_treated.min(n_control) > BRUTE_ARM_MAX,
    };
    let work = estimated_work(n_treated as u64, n_control as u64, use_tree);
    let budget = matching_budget();
    if work > budget {
        return Err(CausalError::EstimatorBudget {
            estimator: "matching",
            work,
            budget,
            unit: if use_tree {
                "estimated KD-tree node visits"
            } else {
                "brute-force pair distances (arms too small or covariate-free, so the tree index cannot help)"
            },
        });
    }

    let owned;
    let idx = match params.index {
        Some(idx) => idx,
        None => {
            owned = MatchIndex::build(df, group, outcome, adjustment, stats)?;
            &owned
        }
    };
    debug_assert_eq!(idx.n(), n, "index must cover the subgroup");

    let t = kernel::gather_indicator(group, treated);

    // Bias-adjustment regressions, one per arm, on the standardized
    // design; predictions materialized once (ascending-column dot order).
    let beta_t = aipw::fit_arm(idx.design.cols(), &idx.y, &t, true)?;
    let beta_c = aipw::fit_arm(idx.design.cols(), &idx.y, &t, false)?;
    let fit = Fit {
        idx,
        pred_t: kernel::mat_vec_columns(idx.design.cols(), &beta_t),
        pred_c: kernel::mat_vec_columns(idx.design.cols(), &beta_c),
        t,
        use_tree,
    };
    let (tau, match_weight) = contrasts(&fit, stats);
    let Fit {
        t, pred_t, pred_c, ..
    } = fit;

    let cate = tau.iter().sum::<f64>() / n as f64;
    let var_tau =
        tau.iter().map(|v| (v - cate) * (v - cate)).sum::<f64>() / (n as f64 - 1.0).max(1.0);

    // Abadie–Imbens reuse correction: within-arm residual variances of the
    // bias-adjustment regressions proxy the conditional outcome variance
    // σ̂²(z, arm), and each unit adds (K_i² + K_i)·σ̂²_arm(i) — the reuse
    // variance a unit matched K_i times injects into the estimator.
    let resid_var = |pred: &[f64], arm: bool| -> f64 {
        let p = idx.design.k() as f64;
        let (mut ss, mut m) = (0.0, 0usize);
        for i in 0..n {
            if t[i] == arm {
                let r = idx.y[i] - pred[i];
                ss += r * r;
                m += 1;
            }
        }
        ss / (m as f64 - p).max(1.0)
    };
    let (s2_t, s2_c) = (resid_var(&pred_t, true), resid_var(&pred_c, false));
    let reuse: f64 = (0..n)
        .map(|i| {
            let k = match_weight[i];
            (k * k + k) * if t[i] { s2_t } else { s2_c }
        })
        .sum();
    let var = var_tau / n as f64 + reuse / (n as f64 * n as f64);
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

/// The cell-level contrast pass (see "The hot path" in the module docs):
/// one neighbour search and one imputation per distinct (cell, arm) key,
/// then one pass over the units for `τ_i` and the match weights.
fn cell_contrasts(fit: &Fit<'_>, stats: &mut HotStats) -> (Vec<f64>, Vec<f64>) {
    let idx = fit.idx;
    let t = &fit.t;
    let n = idx.n();

    // Dense (cell, arm) key ids in first-unit order; `reps[k]` is key k's
    // first unit, the one whose search stands for all of them.
    let mut slot = vec![u32::MAX; 2 * idx.n_cells];
    let mut reps: Vec<u32> = Vec::new();
    let key_of: Vec<u32> = (0..n)
        .map(|i| {
            let s = &mut slot[2 * idx.cell_of[i] as usize + t[i] as usize];
            if *s == u32::MAX {
                *s = reps.len() as u32;
                reps.push(i as u32);
            }
            *s
        })
        .collect();
    drop(slot);
    let n_keys = reps.len();

    // Phase A: per key, the tie-inclusive matched set of its first unit,
    // the imputation accumulated exactly as the per-unit loop does, `1/m`
    // and the distinct target keys. `targets` holds every key's run back
    // to back, ascending within a run; `bounds[k]..bounds[k + 1]` is key
    // k's.
    let (treated_ids, control_ids): (Vec<u32>, Vec<u32>) = if fit.use_tree {
        Default::default()
    } else {
        (0..n as u32).partition(|&i| t[i as usize])
    };
    let mut imputed = Vec::with_capacity(n_keys);
    let mut inv_m = Vec::with_capacity(n_keys);
    let mut targets: Vec<u32> = Vec::new();
    let mut bounds = vec![0usize];
    let mut matched: Vec<u32> = Vec::new();
    let mut d2s: Vec<f64> = Vec::new();
    let mut sel: Vec<f64> = Vec::new();
    let mut keys: Vec<u32> = Vec::new();
    for &i in &reps {
        let i = i as usize;
        let own_arm = t[i];
        let q = &idx.points[i * idx.dim..][..idx.dim];
        if fit.use_tree {
            let tree = idx.tree.as_ref().expect("use_tree implies a tree");
            stats.tree_visits += tree.query_ties(
                &idx.points,
                q,
                K_NEIGHBORS,
                |j| t[j as usize] != own_arm,
                &mut matched,
            );
        } else {
            let pool = if own_arm { &control_ids } else { &treated_ids };
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
        // The opposite arm's regression imputes i's missing outcome.
        let pred = if own_arm { &fit.pred_c } else { &fit.pred_t };
        let pred_i = pred[i];
        let mut acc = 0.0;
        keys.clear();
        for &j in &matched {
            let j = j as usize;
            acc += idx.y[j] + pred_i - pred[j];
            if keys.last() != Some(&key_of[j]) {
                keys.push(key_of[j]);
            }
        }
        let m = matched.len() as f64;
        imputed.push(acc / m);
        inv_m.push(1.0 / m);
        keys.sort_unstable();
        keys.dedup();
        targets.extend_from_slice(&keys);
        bounds.push(targets.len());
    }

    // Phase B: per unit, its contrast from its key's imputation, and `1/m`
    // of its key added once to each target key. A unit's (cell, arm)
    // mates are in every matched set together or not at all, so each
    // key's weight sees the addition sequence each of its units sees in
    // the per-unit loop: over the same MATCH_PARTS partition, parts
    // accumulated in unit order and folded in partition order.
    let part_len = n.div_ceil(MATCH_PARTS).max(1);
    let mut tau = Vec::with_capacity(n);
    let mut key_weight = vec![0.0f64; n_keys];
    let mut part_weight = vec![0.0f64; n_keys];
    for start in (0..n).step_by(part_len) {
        part_weight.fill(0.0);
        for i in start..(start + part_len).min(n) {
            let k = key_of[i] as usize;
            tau.push(if t[i] {
                idx.y[i] - imputed[k]
            } else {
                imputed[k] - idx.y[i]
            });
            for &target in &targets[bounds[k]..bounds[k + 1]] {
                part_weight[target as usize] += inv_m[k];
            }
        }
        for (acc, w) in key_weight.iter_mut().zip(&part_weight) {
            *acc += w;
        }
    }
    let match_weight = key_of.iter().map(|&k| key_weight[k as usize]).collect();
    (tau, match_weight)
}

/// Brute-force tie-inclusive matched set: the canonical algorithm the
/// tree reproduces. Distances to every pool unit (ascending pool order,
/// shared [`kdtree::dist2`]), exact k-th smallest by selection, the
/// [`kdtree::tie_cutoff`] band, members collected in ascending id order.
pub(super) fn brute_ties(
    points: &[f64],
    dim: usize,
    pool: &[u32],
    q: &[f64],
    d2s: &mut Vec<f64>,
    sel: &mut Vec<f64>,
    out: &mut Vec<u32>,
) {
    d2s.clear();
    for &j in pool {
        d2s.push(kdtree::dist2(q, &points[j as usize * dim..][..dim]));
    }
    let kth_pos = K_NEIGHBORS.min(d2s.len()) - 1;
    sel.clear();
    sel.extend_from_slice(d2s);
    sel.select_nth_unstable_by(kth_pos, f64::total_cmp);
    let cutoff = kdtree::tie_cutoff(sel[kth_pos]);
    out.clear();
    for (&j, d2) in pool.iter().zip(d2s.iter()) {
        if d2.total_cmp(&cutoff).is_le() {
            out.push(j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimate::{
        Estimator as _,
        EstimatorKind::{Matching, Stratified},
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
        let est = Matching
            .estimate(&df, &all, &treated, "o", &["z".into()])
            .unwrap();
        assert!((est.cate - 10.0).abs() < 1e-9, "cate = {}", est.cate);
        assert_eq!(est.n_treated, 40);
        assert_eq!(est.n_control, 40);
    }

    #[test]
    fn exact_matches_reproduce_stratification() {
        let (df, treated) = confounded_frame();
        let all = Mask::ones(df.n_rows());
        let m = Matching
            .estimate(&df, &all, &treated, "o", &["z".into()])
            .unwrap();
        let s = Stratified
            .estimate(&df, &all, &treated, "o", &["z".into()])
            .unwrap();
        assert!(
            (m.cate - s.cate).abs() < 1e-9,
            "matching {} vs stratified {}",
            m.cate,
            s.cate
        );
    }

    #[test]
    fn empty_adjustment_is_difference_in_means() {
        let (df, treated) = confounded_frame();
        let all = Mask::ones(df.n_rows());
        let est = Matching.estimate(&df, &all, &treated, "o", &[]).unwrap();
        // Zero covariates → every opposite-arm unit ties at distance 0 →
        // imputation by the opposite arm mean: 47.5 − 12.5 = 35.
        assert!((est.cate - 35.0).abs() < 1e-9, "cate = {}", est.cate);
    }

    #[test]
    fn bias_adjustment_corrects_inexact_matches() {
        // Controls sit at z = i, treated at z = i + 0.4; O = 2·z + 5·T.
        // Raw nearest-neighbor imputation is off by 2·0.4 per match; the
        // linear bias adjustment removes it exactly.
        let mut z = Vec::new();
        let mut t = Vec::new();
        let mut o = Vec::new();
        for i in 0..20 {
            z.push(i as f64);
            t.push(false);
            o.push(2.0 * i as f64);
            z.push(i as f64 + 0.4);
            t.push(true);
            o.push(2.0 * (i as f64 + 0.4) + 5.0);
        }
        let treated = Mask::from_bools(&t);
        let df = DataFrame::builder()
            .float("z", z)
            .float("o", o)
            .build()
            .unwrap();
        let all = Mask::ones(df.n_rows());
        let est = Matching
            .estimate(&df, &all, &treated, "o", &["z".into()])
            .unwrap();
        assert!((est.cate - 5.0).abs() < 1e-9, "cate = {}", est.cate);
    }

    #[test]
    fn tree_and_brute_agree_bit_for_bit() {
        let (df, treated) = confounded_frame();
        let all = Mask::ones(df.n_rows());
        let adj = ["z".to_owned()];
        let mut stats = HotStats::default();
        let brute = estimate_with(
            &df,
            &all,
            &treated,
            "o",
            &adj,
            &MatchParams {
                strategy: MatchStrategy::Brute,
                ..MatchParams::default()
            },
            &mut stats,
        )
        .unwrap();
        let tree = estimate_with(
            &df,
            &all,
            &treated,
            "o",
            &adj,
            &MatchParams {
                strategy: MatchStrategy::Tree,
                ..MatchParams::default()
            },
            &mut stats,
        )
        .unwrap();
        assert_eq!(brute.cate.to_bits(), tree.cate.to_bits());
        assert_eq!(brute.std_err.to_bits(), tree.std_err.to_bits());
        assert!(stats.tree_visits > 0, "tree path must count visits");
    }

    #[test]
    fn prebuilt_index_reused_across_interventions() {
        let (df, treated) = confounded_frame();
        let all = Mask::ones(df.n_rows());
        let adj = ["z".to_owned()];
        let mut stats = HotStats::default();
        let idx = MatchIndex::build(&df, &all, "o", &adj, &mut stats).unwrap();
        assert!(idx.has_tree());
        let params = MatchParams {
            index: Some(&idx),
            ..MatchParams::default()
        };
        // Same index serves the original intervention and its complement —
        // the index is treatment-independent.
        let a = estimate_with(&df, &all, &treated, "o", &adj, &params, &mut stats).unwrap();
        let fresh = Matching.estimate(&df, &all, &treated, "o", &adj).unwrap();
        assert_eq!(a.cate.to_bits(), fresh.cate.to_bits());
        let flipped = !&treated;
        let b = estimate_with(&df, &all, &flipped, "o", &adj, &params, &mut stats).unwrap();
        assert!(
            (b.cate + a.cate).abs() < 1e-9,
            "flipped arms negate the CATE"
        );
    }

    #[test]
    fn heavy_control_reuse_inflates_standard_error() {
        // 50 treated, 5 controls, no covariates: every treated unit matches
        // all 5 controls (distance ties), so each control serves as a match
        // with weight K = 50/5 = 10 — the heavy-reuse regime. The analytic
        // Abadie–Imbens variance is recomputed here from first principles
        // and must match; the naive (uncorrected) contrast variance must be
        // a substantial under-estimate.
        let n_t = 50usize;
        let n_c = 5usize;
        let mut t = Vec::new();
        let mut o = Vec::new();
        for i in 0..n_t {
            t.push(true);
            o.push(10.0 + (i % 7) as f64 - 3.0);
        }
        for j in 0..n_c {
            t.push(false);
            o.push((j % 5) as f64 - 2.0);
        }
        let treated = Mask::from_bools(&t);
        let df = DataFrame::builder().float("o", o.clone()).build().unwrap();
        let all = Mask::ones(df.n_rows());
        let est = Matching.estimate(&df, &all, &treated, "o", &[]).unwrap();

        let n = (n_t + n_c) as f64;
        let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
        let (yt, yc) = (&o[..n_t], &o[n_t..]);
        let (mt, mc) = (mean(yt), mean(yc));
        // τ_i with no covariates: treated y_i − ȳ_c, control ȳ_t − y_j.
        let tau: Vec<f64> = yt
            .iter()
            .map(|y| y - mc)
            .chain(yc.iter().map(|y| mt - y))
            .collect();
        let tbar = mean(&tau);
        let var_tau = tau.iter().map(|v| (v - tbar) * (v - tbar)).sum::<f64>() / (n - 1.0);
        // Within-arm residual variance of the intercept-only fit, dof m − 1.
        let s2 = |ys: &[f64]| {
            let m = mean(ys);
            ys.iter().map(|y| (y - m) * (y - m)).sum::<f64>() / (ys.len() as f64 - 1.0)
        };
        let (k_t, k_c) = (n_c as f64 / n_t as f64, n_t as f64 / n_c as f64);
        let reuse =
            n_t as f64 * (k_t * k_t + k_t) * s2(yt) + n_c as f64 * (k_c * k_c + k_c) * s2(yc);
        let expected_var = var_tau / n + reuse / (n * n);
        assert!(
            (est.std_err * est.std_err - expected_var).abs() < 1e-9,
            "variance {} vs analytic {}",
            est.std_err * est.std_err,
            expected_var
        );
        let naive_se = (var_tau / n).sqrt();
        assert!(
            est.std_err > 2.0 * naive_se,
            "reuse correction must dominate here: corrected {} vs naive {}",
            est.std_err,
            naive_se
        );
    }

    #[test]
    fn balanced_arms_barely_affected_by_correction() {
        // With balanced arms and spread-out matches, K_i ≈ K_NEIGHBORS-ish
        // weights distribute evenly and the correction stays the same order
        // as the naive term — the planted-effect recovery (and its
        // significance) in the engine tests must survive. Here: the
        // confounded fixture stays exactly significant because its
        // deterministic outcomes have zero within-stratum residuals.
        let (df, treated) = confounded_frame();
        let all = Mask::ones(df.n_rows());
        let est = Matching
            .estimate(&df, &all, &treated, "o", &["z".into()])
            .unwrap();
        assert_eq!(est.p_value, 0.0, "deterministic outcome stays exact");
    }

    #[test]
    fn oversized_group_refused_with_budget_hint() {
        // Covariate-free design → no tree can help, so the brute pair
        // model applies: 15 000 × 15 000 pairs = 2.25·10⁸ > the 2·10⁸
        // default budget. The guard fires before any distance work, so
        // building the frame is the only cost here.
        let n = 30_000usize;
        let o: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let t: Vec<bool> = (0..n).map(|i| i < n / 2).collect();
        let df = DataFrame::builder().float("o", o).build().unwrap();
        let all = Mask::ones(n);
        let treated = Mask::from_bools(&t);
        let err = Matching
            .estimate(&df, &all, &treated, "o", &[])
            .unwrap_err();
        match &err {
            crate::error::CausalError::EstimatorBudget {
                estimator,
                work,
                budget,
                unit,
            } => {
                assert_eq!(*estimator, "matching");
                assert_eq!(*work, 225_000_000);
                assert_eq!(*budget, DEFAULT_MATCHING_BUDGET);
                assert!(unit.contains("pair distances"), "brute unit: {unit}");
            }
            other => panic!("expected EstimatorBudget, got {other:?}"),
        }
        let msg = err.to_string();
        assert!(
            msg.contains("linear") && msg.contains("FAIRCAP_MATCHING_BUDGET"),
            "hint must name alternatives and the knob: {msg}"
        );
        assert!(
            msg.contains("pair distances"),
            "refusal must state its work unit: {msg}"
        );
    }

    #[test]
    fn indexed_work_model_admits_paper_scale() {
        // Post-index cost model: 10⁶ rows ≈ 1.1·10⁸ visits — inside the
        // default budget — while the same subgroup would be 2.5·10¹¹ pair
        // distances, hopelessly over it.
        let indexed = estimated_work(500_000, 500_000, true);
        assert!(indexed <= DEFAULT_MATCHING_BUDGET, "indexed = {indexed}");
        let brute = estimated_work(500_000, 500_000, false);
        assert!(brute > DEFAULT_MATCHING_BUDGET, "brute = {brute}");
        // And the model grows with both the query count and the pool size.
        assert!(estimated_work(1000, 1000, true) < estimated_work(2000, 2000, true));
    }

    #[test]
    fn budget_env_override_parses() {
        assert_eq!(parse_matching_budget(None), DEFAULT_MATCHING_BUDGET);
        assert_eq!(parse_matching_budget(Some("2000000")), 2_000_000);
        assert_eq!(parse_matching_budget(Some(" 7 ")), 7);
        assert_eq!(
            parse_matching_budget(Some("0")),
            u64::MAX,
            "0 disables the guard"
        );
        assert_eq!(parse_matching_budget(Some("lots")), DEFAULT_MATCHING_BUDGET);
        assert_eq!(parse_matching_budget(Some("-1")), DEFAULT_MATCHING_BUDGET);
    }

    #[test]
    fn insufficient_overlap_rejected() {
        let df = DataFrame::builder()
            .float("o", vec![1.0; 20])
            .build()
            .unwrap();
        let all = Mask::ones(20);
        let treated = Mask::from_indices(20, &[0, 1]);
        assert!(Matching.estimate(&df, &all, &treated, "o", &[]).is_err());
    }
}
