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
//!   columnar kernels for numeric or Bool covariates and non-finite
//!   outcomes. Both paths give `β` and every
//!   refusal bit-identical to [`reference::linear_naive`]; the count
//!   path's inference statistics agree within
//!   [`linear::INFERENCE_TOLERANCE`].
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
//! column-major design-assembly and reduction kernels, and
//! [`mod@reference`] preserves the naive row-major implementations the
//! kernels are property-tested against bit for bit. Every estimate runs
//! single-threaded on its caller's thread; a solve parallelizes across
//! grouping patterns instead (Step 2's work-stealing fan-out in
//! `faircap_core::exec`).
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
use std::collections::HashMap;
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
/// wall-clock nanoseconds split by pipeline stage, plus the KD-tree visit
/// counter. Estimators accumulate into a `&mut HotStats` threaded through
/// [`EstimateCtx`]; the [`CateEngine`](crate::cate::CateEngine) aggregates
/// them across queries and the serving layer surfaces the totals in
/// `/v1/metrics`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HotStats {
    /// Nanoseconds spent assembling the columnar design (and gathering the
    /// outcome / treatment indicator). For `linear`'s count path it covers
    /// tiers 1 and 2: the cell-table lookup — and on a miss the group
    /// entry's lookup or build (outcomes, their sum and mean), the coding
    /// of covariates the group has not seen, and the table's assembly from
    /// integers or its sharing from another adjustment set — plus the
    /// per-intervention walk over the treated rows.
    pub build_ns: u64,
    /// Nanoseconds spent constructing reusable indices (the KD-tree over
    /// the standardized design; zero for estimators without one or when
    /// the group's index was reused).
    pub index_ns: u64,
    /// Nanoseconds in everything downstream — reductions, solves, queries.
    /// Filled in by the engine as `total − build − index`. For `linear`'s
    /// count path: completing `XᵀX` with the treatment row, the Cholesky
    /// solve, the fitted values and per-slot RSS of tier 2, and tier 3's
    /// exact row pass where it runs.
    pub solve_ns: u64,
    /// KD-tree nodes visited across matching queries — one query per
    /// distinct (covariate cell, arm) of the subgroup per estimate (zero
    /// for the brute path and the non-matching estimators).
    pub tree_visits: u64,
}

/// Per-query context threaded through [`Estimator::estimate_with_ctx`]:
/// the cost-accounting sink, and the querying group's [`GroupState`], from
/// which the built-in estimators take the group-level structures they
/// reuse across the group's intervention sweep. The default context has no
/// state: every group-level structure is built for the one estimate.
#[derive(Default)]
pub struct EstimateCtx<'a> {
    /// Accumulated hot-path costs for this query.
    pub stats: HotStats,
    /// The group's state, owned by its
    /// [`GroupHandle`](crate::cate::GroupHandle); `None` builds every
    /// group-level structure for this query alone.
    pub group: Option<&'a mut GroupState>,
}

/// One group's estimator state, owned by its
/// [`GroupHandle`](crate::cate::GroupHandle) and dropped with it: what
/// depends on the group's rows alone, or on them and an adjustment set,
/// but not on the intervention, so one build serves the group's whole
/// intervention sweep. Each part is built by the first estimate that needs
/// it: `linear`'s group entry and its cell table per distinct design, and
/// `matching`'s KD-tree index per adjustment set. Adjustment sets are
/// keyed by their names, compared in full.
#[derive(Debug, Default)]
pub struct GroupState {
    /// `linear`'s group entry, once a table has needed it; `Some(None)`
    /// when the group's outcomes are not all finite.
    rows: Option<Option<Arc<linear::GroupRows>>>,
    /// `linear`'s table of each adjustment set, or `None` where the
    /// columnar path runs.
    tables: HashMap<Vec<String>, Option<Arc<linear::CellTable>>>,
    /// The same tables by design: the ids of the coded covariates that
    /// vary in the group.
    designs: HashMap<Vec<u32>, Arc<linear::CellTable>>,
    /// `matching`'s index of each adjustment set.
    indices: HashMap<Vec<String>, matching::MatchIndex>,
    /// Lookups into the above, which the engine takes after each
    /// estimate.
    pub(crate) lookups: GroupLookups,
}

/// Hits and misses of one kind of group state; a miss builds.
#[derive(Debug, Default)]
pub(crate) struct Lookups {
    pub(crate) hits: u64,
    pub(crate) misses: u64,
}

impl Lookups {
    fn count(&mut self, hit: bool) {
        if hit {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
    }
}

/// [`Lookups`] of each kind of [`GroupState`].
#[derive(Debug, Default)]
pub(crate) struct GroupLookups {
    pub(crate) match_index: Lookups,
    pub(crate) cell_table: Lookups,
    pub(crate) group_rows: Lookups,
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
    /// for the backdoor set `adjustment` (covariate column names). Both
    /// masks are full-frame; only `treated`'s intersection with `group`
    /// matters.
    fn estimate(
        &self,
        df: &DataFrame,
        group: &Mask,
        treated: &Mask,
        outcome: &str,
        adjustment: &[String],
    ) -> Result<Estimate>;

    /// [`estimate`](Self::estimate) with an [`EstimateCtx`]: hot-path cost
    /// accounting and (for the built-in estimators) the group's
    /// [`GroupState`]. The default
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
        let mut ctx = EstimateCtx::default();
        self.estimate_with_ctx(&mut ctx, df, group, treated, outcome, adjustment)
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
            stats,
            group: state,
        } = ctx;
        match self {
            EstimatorKind::Linear => linear::estimate_with(
                df,
                group,
                treated,
                outcome,
                adjustment,
                state.as_deref_mut(),
                stats,
            ),
            EstimatorKind::Stratified => {
                stratified::estimate(df, group, treated, outcome, adjustment)
            }
            EstimatorKind::Ipw => {
                ipw::estimate_with(df, group, treated, outcome, adjustment, stats)
            }
            EstimatorKind::Aipw => {
                aipw::estimate_with(df, group, treated, outcome, adjustment, stats)
            }
            EstimatorKind::Matching => {
                let index = match state {
                    Some(state) => Some(state.match_index(df, group, outcome, adjustment, stats)?),
                    None => None,
                };
                let params = matching::MatchParams {
                    index,
                    strategy: matching::MatchStrategy::Auto,
                };
                matching::estimate_with(df, group, treated, outcome, adjustment, &params, stats)
            }
        }
    }
}

#[cfg(test)]
impl GroupState {
    /// What the state holds: its group entry, its tables (one per design)
    /// and its indices.
    pub(crate) fn held(
        &self,
    ) -> (
        Option<std::sync::Weak<linear::GroupRows>>,
        Vec<std::sync::Weak<linear::CellTable>>,
        usize,
    ) {
        let rows = self.rows.clone().flatten();
        let tables = self.designs.values().map(Arc::downgrade).collect();
        (
            rows.as_ref().map(Arc::downgrade),
            tables,
            self.indices.len(),
        )
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
