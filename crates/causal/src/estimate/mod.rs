//! CATE estimation under backdoor adjustment.
//!
//! All estimators compute `CATE(T, O | B)` (Section 3 of the paper): the
//! expected difference in outcome between treated and control rows of a
//! subgroup, adjusting for a confounder set `Z` identified from the causal
//! DAG.
//!
//! * [`linear`] — OLS with a treatment indicator and one-hot-encoded
//!   covariates; equivalent to DoWhy's `backdoor.linear_regression`, the
//!   estimator used by the paper's reference implementation. On
//!   all-categorical adjustment sets it solves from integer cell counts
//!   instead of a design matrix (its count path), falling back to the
//!   columnar kernels for numeric or Bool covariates, non-finite outcomes
//!   and cell spaces larger than the group; both paths are bit-identical
//!   to [`reference::linear_naive`].
//! * [`stratified`] — exact stratification on the joint values of `Z`
//!   (numeric covariates quantile-binned), i.e. the literal adjustment
//!   formula; used as an ablation and as ground-truth cross-check.
//! * [`ipw`] — inverse propensity weighting with an IRLS logistic
//!   propensity model; the third member of DoWhy's backdoor trio.
//! * [`aipw`] — augmented IPW (doubly robust): per-arm outcome regressions
//!   plus the IPW propensity model, consistent when *either* nuisance model
//!   is correct.
//! * [`matching`] — k-nearest-neighbor covariate matching with regression
//!   bias adjustment on the encoded design matrix, served by a reusable
//!   KD-tree index ([`kdtree`]) over the standardized design.
//!
//! The estimators share a hot-path layer: [`kernel`] holds the blocked
//! column-major design-assembly and reduction kernels (with within-estimate
//! parallel fan-out through the work-stealing executor), and [`mod@reference`]
//! preserves the naive row-major implementations the kernels are
//! property-tested against bit for bit.
//!
//! `docs/estimators.md` in the repository root documents the assumptions
//! and bias/variance trade-offs of each estimator and when the doubly
//! robust one is worth its extra cost.

pub mod aipw;
pub(crate) mod design;
pub mod ipw;
pub mod kdtree;
pub mod kernel;
pub mod linear;
pub mod matching;
pub mod reference;
pub mod stratified;

use faircap_table::{DataFrame, Mask};
use std::sync::Arc;

use crate::error::Result;

/// Normal-approximation inference shared by the weighting, stratification,
/// and matching estimators: `(std_err, t_stat, p_value)` from a point
/// estimate and its variance. Zero variance means a deterministic outcome,
/// where a non-zero effect is treated as exact (p = 0) and a zero effect
/// as uninformative (p = 1).
pub(crate) fn normal_inference(cate: f64, var: f64) -> (f64, f64, f64) {
    use faircap_table::stats::normal_cdf;
    if var > 0.0 {
        let se = var.sqrt();
        let z = cate / se;
        (se, z, 2.0 * (1.0 - normal_cdf(z.abs())))
    } else {
        (
            0.0,
            f64::INFINITY * cate.signum(),
            if cate == 0.0 { 1.0 } else { 0.0 },
        )
    }
}

/// Hot-path cost accounting for one estimate (or an aggregate over many):
/// wall-clock nanoseconds split by pipeline stage, plus executor and tree
/// counters. Estimators accumulate into a `&mut HotStats` threaded through
/// [`EstimateCtx`]; the [`CateEngine`](crate::cate::CateEngine) aggregates
/// them across queries and the serving layer surfaces the totals in
/// `/v1/metrics`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HotStats {
    /// Nanoseconds spent assembling the columnar design (and gathering the
    /// outcome / treatment indicator). For `linear`'s count path it covers
    /// the cell-table lookup — and on a miss the table build (outcomes,
    /// per-covariate levels, cell counts) — plus the walk over the treated
    /// rows that counts each slot; building `XᵀX` from the counts and the
    /// RSS pass count as solve time.
    pub build_ns: u64,
    /// Nanoseconds spent constructing reusable indices (the KD-tree over
    /// the standardized design; zero for estimators without one or when a
    /// cached index was reused).
    pub index_ns: u64,
    /// Nanoseconds in everything downstream — reductions, solves, queries.
    /// Filled in by the engine as `total − build − index`.
    pub solve_ns: u64,
    /// Task units handed to the work-stealing executor by kernel fan-out
    /// (zero when every kernel ran serially, and always zero for
    /// `linear`'s serial count path).
    pub tasks: u64,
    /// KD-tree nodes visited across matching queries — one query per
    /// distinct (covariate cell, arm) of the subgroup per estimate (zero
    /// for the brute path and the non-matching estimators).
    pub tree_visits: u64,
}

impl HotStats {
    /// Fold another accounting record into this one (saturating).
    pub fn absorb(&mut self, other: &HotStats) {
        self.build_ns = self.build_ns.saturating_add(other.build_ns);
        self.index_ns = self.index_ns.saturating_add(other.index_ns);
        self.solve_ns = self.solve_ns.saturating_add(other.solve_ns);
        self.tasks = self.tasks.saturating_add(other.tasks);
        self.tree_visits = self.tree_visits.saturating_add(other.tree_visits);
    }
}

/// Per-query context threaded through [`Estimator::estimate_with_ctx`]:
/// the kernel worker count, the cost-accounting sink, and the engine's
/// group caches together with the querying subgroup's fingerprint, so the
/// matching estimator's KD-tree index and the linear estimator's cell
/// table are built once per `(subgroup, adjustment set)` and reused across
/// the intervention sweep.
pub struct EstimateCtx<'a> {
    /// Worker count for kernel fan-out (1 = serial; results are
    /// bit-identical either way).
    pub workers: usize,
    /// Accumulated hot-path costs for this query.
    pub stats: HotStats,
    /// Group caches and the subgroup fingerprint keying them.
    pub group_cache: Option<(&'a crate::cate::GroupCaches, u64)>,
}

/// A treatment-effect estimate with inference statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    /// Point estimate of the (conditional) average treatment effect.
    pub cate: f64,
    /// Standard error of the estimate.
    pub std_err: f64,
    /// t-statistic (`cate / std_err`).
    pub t_stat: f64,
    /// Two-sided p-value.
    pub p_value: f64,
    /// Number of treated rows used.
    pub n_treated: usize,
    /// Number of control rows used.
    pub n_control: usize,
}

impl Estimate {
    /// Whether the estimate is statistically significant at level `alpha`.
    pub fn is_significant(&self, alpha: f64) -> bool {
        self.p_value <= alpha
    }
}

/// Which estimator to use; see module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EstimatorKind {
    /// OLS linear adjustment (paper default).
    #[default]
    Linear,
    /// Exact stratification on the adjustment set.
    Stratified,
    /// Inverse propensity weighting (Hájek-normalized).
    Ipw,
    /// Augmented IPW — doubly robust outcome-regression + propensity score.
    Aipw,
    /// k-NN covariate matching with regression bias adjustment.
    Matching,
}

impl EstimatorKind {
    /// Every built-in estimator, in ablation order — what the CLI accepts
    /// and the bench drivers sweep.
    pub const ALL: [EstimatorKind; 5] = [
        EstimatorKind::Linear,
        EstimatorKind::Stratified,
        EstimatorKind::Ipw,
        EstimatorKind::Aipw,
        EstimatorKind::Matching,
    ];

    /// Parse a built-in estimator from its stable name (the same string
    /// [`Estimator::name`] returns).
    ///
    /// # Examples
    ///
    /// ```
    /// use faircap_causal::EstimatorKind;
    /// assert_eq!(EstimatorKind::parse("aipw"), Some(EstimatorKind::Aipw));
    /// assert_eq!(EstimatorKind::parse("nope"), None);
    /// ```
    pub fn parse(name: &str) -> Option<EstimatorKind> {
        EstimatorKind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// Minimum rows per arm below which an estimate is refused. The paper
/// requires statistically significant interventions; tiny arms make the
/// inference meaningless.
pub const MIN_ARM_SIZE: usize = 5;

/// A pluggable CATE estimator.
///
/// [`EstimatorKind`] implements this for the built-in estimators;
/// downstream crates can implement it to bring their own and pass it per
/// solve request without rebuilding a session. The
/// [`CateEngine`](crate::cate::CateEngine) caches estimates keyed by
/// [`Estimator::name`], so implementations must return a name that uniquely
/// identifies the estimator's behaviour — cache hits and misses are also
/// reported per name (see
/// [`CateEngine::cache_stats_by_estimator`](crate::cate::CateEngine::cache_stats_by_estimator)).
///
/// # Examples
///
/// Wrapping a built-in estimator under a distinct cache identity:
///
/// ```
/// use faircap_causal::{Estimate, Estimator, EstimatorKind};
/// use faircap_table::{DataFrame, Mask};
///
/// struct PinnedLinear;
///
/// impl Estimator for PinnedLinear {
///     fn name(&self) -> &str {
///         "pinned-linear-v1" // distinct name → distinct cache scope
///     }
///
///     fn estimate(
///         &self,
///         df: &DataFrame,
///         group: &Mask,
///         treated: &Mask,
///         outcome: &str,
///         adjustment: &[String],
///     ) -> faircap_causal::Result<Estimate> {
///         EstimatorKind::Linear.estimate(df, group, treated, outcome, adjustment)
///     }
/// }
///
/// assert_eq!(PinnedLinear.name(), "pinned-linear-v1");
/// ```
pub trait Estimator: Send + Sync {
    /// Stable identifier used in cache keys and labels.
    fn name(&self) -> &str;

    /// Estimate the CATE of `treated` vs. control within `group`, adjusting
    /// for the backdoor set `adjustment`.
    fn estimate(
        &self,
        df: &DataFrame,
        group: &Mask,
        treated: &Mask,
        outcome: &str,
        adjustment: &[String],
    ) -> Result<Estimate>;

    /// [`estimate`](Self::estimate) with an [`EstimateCtx`]: an explicit
    /// worker count, hot-path cost accounting, and (for index-aware
    /// estimators) access to the engine's match-index cache. The default
    /// implementation ignores the context and delegates to
    /// [`estimate`](Self::estimate), so custom estimators keep working
    /// unchanged; the built-in [`EstimatorKind`] overrides it to thread the
    /// context into the columnar kernels.
    fn estimate_with_ctx(
        &self,
        ctx: &mut EstimateCtx<'_>,
        df: &DataFrame,
        group: &Mask,
        treated: &Mask,
        outcome: &str,
        adjustment: &[String],
    ) -> Result<Estimate> {
        let _ = ctx;
        self.estimate(df, group, treated, outcome, adjustment)
    }
}

impl Estimator for EstimatorKind {
    fn name(&self) -> &str {
        match self {
            EstimatorKind::Linear => "linear",
            EstimatorKind::Stratified => "stratified",
            EstimatorKind::Ipw => "ipw",
            EstimatorKind::Aipw => "aipw",
            EstimatorKind::Matching => "matching",
        }
    }

    fn estimate(
        &self,
        df: &DataFrame,
        group: &Mask,
        treated: &Mask,
        outcome: &str,
        adjustment: &[String],
    ) -> Result<Estimate> {
        estimate_cate(*self, df, group, treated, outcome, adjustment)
    }

    fn estimate_with_ctx(
        &self,
        ctx: &mut EstimateCtx<'_>,
        df: &DataFrame,
        group: &Mask,
        treated: &Mask,
        outcome: &str,
        adjustment: &[String],
    ) -> Result<Estimate> {
        let EstimateCtx {
            workers,
            stats,
            group_cache,
        } = ctx;
        let workers = *workers;
        match self {
            EstimatorKind::Linear => {
                // One cell table per (subgroup, adjustment set).
                let cells = group_cache.map(|(caches, group_fp)| (&caches.cell_table, group_fp));
                linear::estimate_with(
                    df, group, treated, outcome, adjustment, workers, cells, stats,
                )
            }
            EstimatorKind::Stratified => {
                stratified::estimate(df, group, treated, outcome, adjustment)
            }
            EstimatorKind::Ipw => {
                ipw::estimate_with(df, group, treated, outcome, adjustment, workers, stats)
            }
            EstimatorKind::Aipw => {
                aipw::estimate_with(df, group, treated, outcome, adjustment, workers, stats)
            }
            EstimatorKind::Matching => {
                // One KD-tree index per (subgroup, adjustment set), shared
                // across every intervention swept against this subgroup.
                let shared;
                let index = match group_cache {
                    Some((caches, group_fp)) => {
                        shared = caches.match_index.get_or_build(*group_fp, adjustment, || {
                            let index = matching::MatchIndex::build(
                                df, group, outcome, adjustment, workers, stats,
                            )?;
                            Ok(Arc::new(index))
                        })?;
                        Some(&*shared)
                    }
                    None => None,
                };
                let params = matching::MatchParams {
                    index,
                    strategy: matching::MatchStrategy::Auto,
                    workers,
                };
                matching::estimate_with(df, group, treated, outcome, adjustment, &params, stats)
            }
        }
    }
}

/// Estimate the CATE of `treated` vs. control within `group`.
///
/// * `group` — rows of the subpopulation (full-frame mask).
/// * `treated` — rows satisfying the intervention pattern (full-frame mask;
///   only its intersection with `group` matters).
/// * `adjustment` — covariate column names (the backdoor set `Z`).
pub fn estimate_cate(
    kind: EstimatorKind,
    df: &DataFrame,
    group: &Mask,
    treated: &Mask,
    outcome: &str,
    adjustment: &[String],
) -> Result<Estimate> {
    match kind {
        EstimatorKind::Linear => linear::estimate(df, group, treated, outcome, adjustment),
        EstimatorKind::Stratified => stratified::estimate(df, group, treated, outcome, adjustment),
        EstimatorKind::Ipw => ipw::estimate(df, group, treated, outcome, adjustment),
        EstimatorKind::Aipw => aipw::estimate(df, group, treated, outcome, adjustment),
        EstimatorKind::Matching => matching::estimate(df, group, treated, outcome, adjustment),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_through_parse() {
        for kind in EstimatorKind::ALL {
            assert_eq!(EstimatorKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(EstimatorKind::parse("bogus"), None);
    }

    #[test]
    fn default_is_the_paper_estimator() {
        assert_eq!(EstimatorKind::default(), EstimatorKind::Linear);
        assert_eq!(EstimatorKind::default().name(), "linear");
    }
}
