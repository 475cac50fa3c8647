//! High-level CATE queries for prescription rules.
//!
//! [`CateEngine`] owns a dataset (via `Arc`), a causal DAG, and an outcome,
//! and answers "what is the CATE of intervention pattern `P_int` within
//! subgroup mask `g`?" — the quantity behind every utility in the paper
//! (Definition 4.4). The engine is **estimator-agnostic**: the estimator is
//! supplied per query (see [`Estimator`]), so one long-lived engine serves
//! repeated solves under different estimators while sharing its caches.
//!
//! Five caches persist across queries:
//!
//! * adjustment sets, derived from the DAG once per treatment-attribute set;
//! * treated-row masks, one per intervention pattern;
//! * KD-tree match indices ([`MatchIndexCache`]), one per
//!   `(subgroup, adjustment set)` — the matching estimator's standardized
//!   design and tree are built once and reused across the whole
//!   intervention sweep over that subgroup;
//! * cell tables ([`CellTableCache`]), one per `(subgroup, adjustment
//!   set)` — the linear estimator's count-path group half (outcomes,
//!   cells, `Xᵀy`), or the verdict that the group takes the columnar path,
//!   so each intervention only walks its treated rows. Both group caches
//!   are instances of one [`GroupCache`];
//! * full estimates, keyed by `(estimator, group, intervention)` — the cache
//!   the greedy phase and repeated constraint re-solves hit hardest. This
//!   one is a [`ShardedLruCache`]: lookups contend on one of its lock
//!   shards instead of a single engine-wide mutex, and its entry count can
//!   be bounded ([`CateEngine::set_estimate_cache_capacity`]) with
//!   least-recently-used eviction for long-lived serving deployments.
//!
//! Hit/miss/eviction counters ([`CateEngine::cache_stats`]) make the reuse
//! observable — in aggregate and per estimator name
//! ([`CateEngine::cache_stats_by_estimator`]), so estimator sweeps can
//! attribute cache behaviour to each estimator; the session integration
//! tests assert on them.
//!
//! The full cache state (adjustment sets, treated masks, estimates) can be
//! exported and re-imported ([`CateEngine::export_state`] /
//! [`CateEngine::import_state`]) — the substrate of
//! `PrescriptionSession::snapshot()` warm-starts.

use crate::backdoor::find_adjustment_set_names;
use crate::error::{CausalError, Result};
use crate::estimate::linear::CellTable;
use crate::estimate::matching::MatchIndex;
use crate::estimate::{kernel, Estimate, EstimateCtx, Estimator, HotStats};
use crate::graph::Dag;
use faircap_obs::{Histogram, HistogramSnapshot, SpanHandle};
use faircap_table::{
    CacheCounters, DataFrame, DataType, FnvHasher, Mask, Pattern, ShardedLruCache,
};
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Instant;

/// Number of lock shards of the estimate cache. Step-2 mining fans out
/// across worker threads that all funnel their CATE queries through one
/// engine; 16 shards keep them off each other's locks.
const ESTIMATE_CACHE_SHARDS: usize = 16;

/// Default entry bound of the match-index cache. Indices are heavy
/// (standardized design + KD-tree, O(rows·dim) floats each) and a solve
/// only sweeps a handful of subgroups at a time, so a small LRU bound
/// keeps reuse high without letting index memory grow with the sweep.
const MATCH_INDEX_CACHE_CAPACITY: usize = 32;

/// Default entry bound of the cell-table cache. Step 2 queries each group,
/// its protected and its non-protected sub-coverage in turn, on several
/// worker threads at once; 128 entries hold the three tables of some 40
/// groups, at 12 bytes per group row each.
const CELL_TABLE_CACHE_CAPACITY: usize = 128;

/// Lock shards of each group cache; fewer distinct keys than the estimate
/// cache, so fewer shards suffice.
const GROUP_CACHE_SHARDS: usize = 4;

/// Cap glibc's malloc arenas at one per core, once per process.
///
/// glibc gives threads arenas of their own, up to eight per core. The
/// engine's caches are built on solve worker threads and freed by
/// whichever thread evicts them or drops the engine; the freed memory
/// stays resident in its arena, and only threads of that arena reuse it.
/// Which thread lands in which arena depends on timing, so under the
/// default limit the peak RSS of a process that builds one engine after
/// another swung by 10-30 MB from run to run (2 vCPUs, 10k- and 40k-row
/// frames). One arena per core still spreads the solve workers over
/// separate arenas, and memory one solve frees serves the next.
fn limit_malloc_arenas() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        const M_ARENA_MAX: i32 = -8;
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        static ONCE: std::sync::Once = std::sync::Once::new();
        ONCE.call_once(|| {
            let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
            // SAFETY: `mallopt` only sets an allocator parameter, under the
            // allocator's own lock.
            unsafe {
                mallopt(M_ARENA_MAX, i32::try_from(cores).unwrap_or(i32::MAX));
            }
        });
    }
}

/// Session-lived cache of per-group estimator state keyed by `(subgroup
/// fingerprint, adjustment set)`: state that depends only on the subgroup
/// rows and the adjustment covariates — *not* on the intervention — so one
/// entry serves the entire pattern sweep against a subgroup. LRU-bounded
/// because each entry holds O(rows) data. The engine keeps two:
/// [`MatchIndexCache`] and [`CellTableCache`].
pub struct GroupCache<V> {
    cache: ShardedLruCache<(u64, Vec<String>), V>,
}

/// Matching indices ([`MatchIndex`]: standardized columnar design +
/// KD-tree).
pub type MatchIndexCache = GroupCache<Arc<MatchIndex>>;

/// `linear`'s count-path tables ([`CellTable`]), and the `None` verdict
/// for a group and adjustment set that take the columnar path.
pub type CellTableCache = GroupCache<Option<Arc<CellTable>>>;

impl<V: Clone> std::fmt::Debug for GroupCache<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GroupCache")
            .field("stats", &self.cache.counters())
            .finish_non_exhaustive()
    }
}

impl<V: Clone> GroupCache<V> {
    /// A cache bounded to `capacity` entries (LRU eviction).
    pub fn with_capacity(capacity: usize) -> Self {
        GroupCache {
            cache: ShardedLruCache::new(capacity, GROUP_CACHE_SHARDS),
        }
    }

    /// Return the cached entry for `(group_fp, adjustment)`, building (and
    /// caching) it with `build` on a miss. A failed build caches nothing.
    pub fn get_or_build(
        &self,
        group_fp: u64,
        adjustment: &[String],
        build: impl FnOnce() -> Result<V>,
    ) -> Result<V> {
        let key = (group_fp, adjustment.to_vec());
        if let Some(hit) = self.cache.get(&key) {
            return Ok(hit);
        }
        let built = build()?;
        self.cache.insert(key, built.clone());
        Ok(built)
    }

    /// Hit/miss/entry/eviction counters.
    pub fn stats(&self) -> CacheCounters {
        self.cache.counters()
    }
}

/// The engine's per-`(subgroup, adjustment set)` caches, one per
/// estimator that keeps group-level state.
#[derive(Debug)]
pub struct GroupCaches {
    /// KD-tree match indices of the matching estimator.
    pub match_index: MatchIndexCache,
    /// Count-path tables of the linear estimator.
    pub cell_table: CellTableCache,
}

/// Aggregated hot-path cost accounting across every (uncached) estimate an
/// engine ran — see [`CateEngine::hot_stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineHotStats {
    /// Per-stage totals summed over estimates.
    pub stats: HotStats,
    /// Number of estimation runs that contributed (cache hits excluded).
    pub estimates: u64,
}

/// Key of one cached estimate: estimator identity, subgroup fingerprint,
/// intervention pattern. The estimator name is interned per query
/// (`Arc<str>`), so evictions can attribute the departing entry back to its
/// estimator's counters; the group is a 64-bit fingerprint of the mask
/// (masks themselves live in the treated/grouping caches), which together
/// with the full `Pattern` makes the key cheap to hash and —
/// deliberately — serialization-friendly: `(name, fingerprint, pattern)`
/// round-trips through the session snapshot format.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct EstimateKey {
    estimator: Arc<str>,
    group_fp: u64,
    intervention: Pattern,
}

/// Exported cache state of a [`CateEngine`] — everything a warm restart
/// needs (see [`CateEngine::export_state`]). Estimates are keyed by
/// estimator *name*, group fingerprint, and intervention pattern; `None`
/// estimates record "not estimable" answers so a warm solve does not
/// re-discover them.
#[derive(Debug, Clone, Default)]
pub struct CateEngineState {
    /// Backdoor adjustment sets per treatment-attribute set (`None` =
    /// identification failed).
    pub adjustments: Vec<(Vec<String>, Option<Vec<String>>)>,
    /// Treated-row masks per intervention pattern.
    pub treated: Vec<(Pattern, Mask)>,
    /// Cached estimates: `(estimator name, group fingerprint, intervention,
    /// estimate-or-not-estimable)`.
    pub estimates: Vec<(String, u64, Pattern, Option<Estimate>)>,
}

/// Engine answering CATE queries against one dataset + DAG.
pub struct CateEngine {
    df: Arc<DataFrame>,
    dag: Arc<Dag>,
    outcome: String,
    adjustment_cache: Mutex<HashMap<Vec<String>, Option<Vec<String>>>>,
    treated_cache: Mutex<HashMap<Pattern, Mask>>,
    /// Estimates and not-estimable verdicts, sharded and LRU-bounded.
    /// Aggregate hit/miss/eviction counters live inside the cache (per
    /// shard); the per-estimator-name breakdown lives in `per_estimator`.
    estimate_cache: ShardedLruCache<EstimateKey, Option<Estimate>>,
    per_estimator: Mutex<HashMap<String, CacheCounters>>,
    /// Match indices and cell tables, shared across each group's
    /// intervention sweep.
    group_caches: GroupCaches,
    /// Hot-path cost totals across every estimation run.
    hot: Mutex<EngineHotStats>,
    /// Per-estimator-name estimate-duration histograms (nanoseconds per
    /// uncached estimation run), exposed via
    /// [`estimate_histograms`](Self::estimate_histograms) for the serving
    /// layer's `/metrics` exposition.
    estimate_hist: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

impl std::fmt::Debug for CateEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CateEngine")
            .field("outcome", &self.outcome)
            .field("n_rows", &self.df.n_rows())
            .field("cache_stats", &self.cache_stats())
            .finish_non_exhaustive()
    }
}

impl CateEngine {
    /// Create an engine bound to a frame, a DAG, and an outcome column.
    ///
    /// Fails (rather than panicking or silently answering `None` forever)
    /// when the outcome column is missing or non-numeric.
    pub fn new(df: Arc<DataFrame>, dag: Arc<Dag>, outcome: impl Into<String>) -> Result<Self> {
        limit_malloc_arenas();
        let outcome = outcome.into();
        let col = df.column(&outcome)?;
        if col.data_type() == DataType::Cat {
            return Err(CausalError::InvalidOutcome {
                column: outcome,
                reason: "categorical columns cannot be averaged; use a numeric or boolean outcome"
                    .into(),
            });
        }
        Ok(CateEngine {
            df,
            dag,
            outcome,
            adjustment_cache: Mutex::new(HashMap::new()),
            treated_cache: Mutex::new(HashMap::new()),
            estimate_cache: ShardedLruCache::unbounded(ESTIMATE_CACHE_SHARDS),
            per_estimator: Mutex::new(HashMap::new()),
            group_caches: GroupCaches {
                match_index: GroupCache::with_capacity(MATCH_INDEX_CACHE_CAPACITY),
                cell_table: GroupCache::with_capacity(CELL_TABLE_CACHE_CAPACITY),
            },
            hot: Mutex::new(EngineHotStats::default()),
            estimate_hist: Mutex::new(BTreeMap::new()),
        })
    }

    /// The dataset the engine is bound to.
    pub fn df(&self) -> &DataFrame {
        &self.df
    }

    /// The causal DAG the engine is bound to.
    pub fn dag(&self) -> &Dag {
        &self.dag
    }

    /// The outcome attribute.
    pub fn outcome(&self) -> &str {
        &self.outcome
    }

    /// Bind an estimator for a batch of queries; the returned view shares
    /// this engine's caches. The estimator's name is interned once here, so
    /// the per-query hot path builds its cache key without allocating for
    /// the name.
    pub fn with_estimator<'a>(&'a self, estimator: &'a dyn Estimator) -> CateQuery<'a> {
        CateQuery {
            engine: self,
            estimator,
            name: Arc::from(estimator.name()),
            span: None,
        }
    }

    /// Whether an attribute has any causal path to the outcome — the paper's
    /// §5.2 optimization (i): attributes without one cannot change the CATE
    /// and are skipped during intervention mining.
    pub fn affects_outcome(&self, attr: &str) -> bool {
        match (self.dag.node(attr), self.dag.node(&self.outcome)) {
            (Ok(a), Ok(o)) => a != o && self.dag.is_reachable(a, o),
            _ => false,
        }
    }

    /// Backdoor adjustment set for a treatment-attribute set (cached).
    /// `None` when identification fails.
    pub fn adjustment_for(&self, treatment_attrs: &[String]) -> Option<Vec<String>> {
        let key: Vec<String> = treatment_attrs.to_vec();
        if let Some(hit) = self.adjustment_cache.lock().get(&key) {
            return hit.clone();
        }
        let in_dag: Vec<&str> = treatment_attrs
            .iter()
            .map(|s| s.as_str())
            .filter(|a| self.dag.has_node(a))
            .collect();
        let computed = if in_dag.is_empty() {
            None
        } else {
            find_adjustment_set_names(&self.dag, &in_dag, &self.outcome).ok()
        };
        self.adjustment_cache.lock().insert(key, computed.clone());
        computed
    }

    /// Mask of rows satisfying an intervention pattern (cached).
    pub fn treated_mask(&self, intervention: &Pattern) -> Result<Mask> {
        if let Some(hit) = self.treated_cache.lock().get(intervention) {
            return Ok(hit.clone());
        }
        let m = intervention.coverage(&self.df)?;
        self.treated_cache
            .lock()
            .insert(intervention.clone(), m.clone());
        Ok(m)
    }

    /// Bump one estimator's counter slot, allocating its key on first use.
    fn bump(&self, name: &str, f: impl FnOnce(&mut CacheCounters)) {
        let mut per = self.per_estimator.lock();
        match per.get_mut(name) {
            Some(slot) => f(slot),
            None => f(per.entry(name.to_owned()).or_default()),
        }
    }

    /// Account evicted entries back to their estimators' counters.
    fn absorb_evictions(&self, evicted: Vec<(EstimateKey, Option<Estimate>)>) {
        if evicted.is_empty() {
            return;
        }
        let mut per = self.per_estimator.lock();
        for (key, _) in evicted {
            if let Some(slot) = per.get_mut(key.estimator.as_ref()) {
                slot.entries = slot.entries.saturating_sub(1);
                slot.evictions += 1;
            }
        }
    }

    /// CATE of `intervention` within `group` under `estimator`
    /// (Definition 4.4 utilities).
    ///
    /// Returns `None` when the effect is not estimable: unidentified
    /// adjustment, insufficient overlap, or a degenerate design. Both
    /// estimable and non-estimable answers are cached per
    /// `(estimator, group, intervention)`.
    pub fn cate(
        &self,
        group: &Mask,
        intervention: &Pattern,
        estimator: &dyn Estimator,
    ) -> Option<Estimate> {
        self.cate_with_name(
            GroupHandle::new(group),
            intervention,
            &Arc::from(estimator.name()),
            estimator,
            None,
        )
    }

    /// [`cate`](Self::cate) with a pre-interned estimator name —
    /// [`CateQuery`] resolves the `Arc<str>` once per solve so the
    /// per-query key build only clones a pointer. When `span` is set (a
    /// traced solve) every query emits a child span: `estimate_hit:<name>`
    /// for a cache lookup answered from the estimate cache,
    /// `estimate:<name>` covering the actual estimation on a miss.
    fn cate_with_name(
        &self,
        group: GroupHandle<'_>,
        intervention: &Pattern,
        name: &Arc<str>,
        estimator: &dyn Estimator,
        span: Option<&SpanHandle>,
    ) -> Option<Estimate> {
        let key = EstimateKey {
            estimator: Arc::clone(name),
            group_fp: group.fp,
            intervention: intervention.clone(),
        };
        if let Some(hit) = self.estimate_cache.get(&key) {
            self.bump(name, |s| s.hits += 1);
            if let Some(h) = span {
                h.child(format!("estimate_hit:{name}")).finish();
            }
            return hit;
        }
        let result = {
            let _estimate_span = span.map(|h| h.child(format!("estimate:{name}")));
            self.cate_uncached(group.mask, key.group_fp, intervention, estimator)
        };
        // A racing duplicate query may have inserted the same key first;
        // `replaced` distinguishes that (same value — estimation is
        // deterministic), so per-estimator entry counts stay exact.
        let inserted = self.estimate_cache.insert(key, result);
        self.bump(name, |s| {
            s.misses += 1;
            if !inserted.replaced {
                s.entries += 1;
            }
        });
        self.absorb_evictions(inserted.evicted);
        result
    }

    fn cate_uncached(
        &self,
        group: &Mask,
        group_fp: u64,
        intervention: &Pattern,
        estimator: &dyn Estimator,
    ) -> Option<Estimate> {
        if intervention.is_empty() {
            return None;
        }
        let attrs: Vec<String> = intervention
            .attributes()
            .into_iter()
            .map(|s| s.to_owned())
            .collect();
        let adjustment = self.adjustment_for(&attrs)?;
        let treated = self.treated_mask(intervention).ok()?;
        let mut ctx = EstimateCtx {
            workers: kernel::auto_workers(group.count()),
            stats: HotStats::default(),
            group_cache: Some((&self.group_caches, group_fp)),
        };
        let t0 = Instant::now();
        let result = estimator
            .estimate_with_ctx(
                &mut ctx,
                &self.df,
                group,
                &treated,
                &self.outcome,
                &adjustment,
            )
            .ok();
        let total = t0.elapsed().as_nanos() as u64;
        let mut stats = ctx.stats;
        stats.solve_ns = total.saturating_sub(stats.build_ns.saturating_add(stats.index_ns));
        let mut hot = self.hot.lock();
        hot.stats.absorb(&stats);
        hot.estimates += 1;
        drop(hot);
        self.estimate_duration_hist(estimator.name()).record(total);
        result
    }

    /// The estimate-duration histogram of one estimator name, created on
    /// first use. The `Arc` keeps recording lock-free once resolved.
    fn estimate_duration_hist(&self, name: &str) -> Arc<Histogram> {
        let mut map = self.estimate_hist.lock();
        match map.get(name) {
            Some(h) => Arc::clone(h),
            None => {
                let h = Arc::new(Histogram::new());
                map.insert(name.to_owned(), Arc::clone(&h));
                h
            }
        }
    }

    /// Per-estimator estimate-duration histograms (nanoseconds per
    /// uncached estimation), snapshotted in estimator-name order.
    /// Estimators never run on this engine are absent.
    pub fn estimate_histograms(&self) -> Vec<(String, HistogramSnapshot)> {
        self.estimate_hist
            .lock()
            .iter()
            .map(|(name, h)| (name.clone(), h.snapshot()))
            .collect()
    }

    /// Number of cached estimates (diagnostics).
    pub fn cache_len(&self) -> usize {
        self.estimate_cache.len()
    }

    /// Aggregated hot-path cost accounting — per-stage nanoseconds, executor
    /// task counts, and KD-tree visit totals — across every estimation run
    /// this engine performed (cache hits excluded).
    pub fn hot_stats(&self) -> EngineHotStats {
        *self.hot.lock()
    }

    /// Hit/miss counters of the match-index cache.
    pub fn match_index_cache_stats(&self) -> CacheCounters {
        self.group_caches.match_index.stats()
    }

    /// Hit/miss counters of the cell-table cache.
    pub fn cell_table_cache_stats(&self) -> CacheCounters {
        self.group_caches.cell_table.stats()
    }

    /// Bound the estimate cache to at most `capacity` entries, evicting
    /// least-recently-used estimates immediately if it is over the bound.
    /// The engine starts unbounded (`usize::MAX`).
    pub fn set_estimate_cache_capacity(&self, capacity: usize) {
        let evicted = self.estimate_cache.set_capacity(capacity);
        self.absorb_evictions(evicted);
    }

    /// The estimate cache's configured entry bound.
    pub fn estimate_cache_capacity(&self) -> usize {
        self.estimate_cache.capacity()
    }

    /// Estimate-cache hit/miss counters since the engine was built,
    /// aggregated over all estimators.
    ///
    /// `misses` counts actual estimation work; a solve that adds no misses
    /// performed no redundant CATE estimation. Use
    /// [`cache_stats_by_estimator`](Self::cache_stats_by_estimator) for the
    /// per-estimator breakdown.
    ///
    /// # Examples
    ///
    /// ```
    /// use faircap_causal::{CateEngine, Dag, EstimatorKind};
    /// use faircap_table::{DataFrame, Mask, Pattern, Value};
    /// use std::sync::Arc;
    ///
    /// let df = DataFrame::builder()
    ///     .cat("t", &["y", "y", "y", "y", "y", "y", "n", "n", "n", "n", "n", "n"])
    ///     .float("o", vec![7.0, 8.0, 7.5, 8.5, 7.0, 8.0, 1.0, 2.0, 1.5, 2.5, 1.0, 2.0])
    ///     .build()
    ///     .unwrap();
    /// let dag = Dag::parse_edge_list("t -> o").unwrap();
    /// let engine = CateEngine::new(Arc::new(df), Arc::new(dag), "o").unwrap();
    ///
    /// let all = Mask::ones(engine.df().n_rows());
    /// let p = Pattern::of_eq(&[("t", Value::from("y"))]);
    /// engine.cate(&all, &p, &EstimatorKind::Linear); // miss: runs the estimation
    /// engine.cate(&all, &p, &EstimatorKind::Linear); // hit: served from cache
    ///
    /// let stats = engine.cache_stats();
    /// assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
    /// let per = engine.cache_stats_by_estimator();
    /// assert_eq!(per["linear"].misses, 1);
    /// ```
    pub fn cache_stats(&self) -> CacheCounters {
        self.estimate_cache.counters()
    }

    /// Estimate-cache counters broken down by [`Estimator::name`], in
    /// name order.
    ///
    /// Estimators that were never queried on this engine are absent. The
    /// per-name `hits`/`misses`/`entries` sum to the aggregate
    /// [`cache_stats`](Self::cache_stats) (entries may transiently differ
    /// under concurrent insertion, since the aggregate recounts the cache).
    pub fn cache_stats_by_estimator(&self) -> BTreeMap<String, CacheCounters> {
        self.per_estimator
            .lock()
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect()
    }

    /// Estimate-cache counters for one estimator name; zeros if the
    /// estimator was never queried on this engine.
    pub fn cache_stats_for(&self, name: &str) -> CacheCounters {
        self.per_estimator
            .lock()
            .get(name)
            .copied()
            .unwrap_or_default()
    }

    /// Export every cache the engine has warmed — adjustment sets, treated
    /// masks, and estimates — for persistence. The inverse of
    /// [`import_state`](Self::import_state).
    pub fn export_state(&self) -> CateEngineState {
        let adjustments = self
            .adjustment_cache
            .lock()
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        let treated = self
            .treated_cache
            .lock()
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        let mut estimates = Vec::with_capacity(self.estimate_cache.len());
        self.estimate_cache.for_each(|key, est| {
            estimates.push((
                key.estimator.to_string(),
                key.group_fp,
                key.intervention.clone(),
                *est,
            ));
        });
        CateEngineState {
            adjustments,
            treated,
            estimates,
        }
    }

    /// Warm the engine's caches from a previously exported state. Imported
    /// entries count toward per-estimator `entries` but not hits or misses;
    /// if the estimate cache is bounded and the import overflows it, the
    /// overflow is evicted LRU-first (imports are applied in order, so
    /// later records survive).
    pub fn import_state(&self, state: CateEngineState) {
        self.adjustment_cache.lock().extend(state.adjustments);
        self.treated_cache.lock().extend(state.treated);
        for (name, group_fp, intervention, est) in state.estimates {
            let key = EstimateKey {
                estimator: Arc::from(name.as_str()),
                group_fp,
                intervention,
            };
            let inserted = self.estimate_cache.insert(key, est);
            if !inserted.replaced {
                self.bump(&name, |s| s.entries += 1);
            }
            self.absorb_evictions(inserted.evicted);
        }
    }
}

/// A [`CateEngine`] bound to one estimator — the view the mining and greedy
/// phases consume. Cheap to construct per solve (it interns the estimator
/// name once); all caches live on the engine and are shared across views.
#[derive(Clone)]
pub struct CateQuery<'a> {
    engine: &'a CateEngine,
    estimator: &'a dyn Estimator,
    name: Arc<str>,
    /// Parent span of a traced solve; when set, every query emits
    /// estimate/estimate-hit child spans under it.
    span: Option<SpanHandle>,
}

impl<'a> CateQuery<'a> {
    /// The underlying engine.
    pub fn engine(&self) -> &'a CateEngine {
        self.engine
    }

    /// Attach a tracing parent: estimate spans of subsequent queries nest
    /// under `span`. `None` (the default) traces nothing and costs one
    /// branch per query.
    pub fn with_span(mut self, span: Option<SpanHandle>) -> CateQuery<'a> {
        self.span = span;
        self
    }

    /// The bound estimator.
    pub fn estimator(&self) -> &'a dyn Estimator {
        self.estimator
    }

    /// The dataset the engine is bound to.
    pub fn df(&self) -> &'a DataFrame {
        self.engine.df()
    }

    /// See [`CateEngine::affects_outcome`].
    pub fn affects_outcome(&self, attr: &str) -> bool {
        self.engine.affects_outcome(attr)
    }

    /// See [`CateEngine::cate`].
    pub fn cate(&self, group: &Mask, intervention: &Pattern) -> Option<Estimate> {
        self.cate_in(GroupHandle::new(group), intervention)
    }

    /// [`cate`](Self::cate) against a group fingerprinted once by its
    /// [`GroupHandle`], for a sweep of interventions over one group.
    pub fn cate_in(&self, group: GroupHandle<'_>, intervention: &Pattern) -> Option<Estimate> {
        self.engine.cate_with_name(
            group,
            intervention,
            &self.name,
            self.estimator,
            self.span.as_ref(),
        )
    }
}

/// A subgroup mask with its fingerprint — the key under which the engine
/// caches the group's estimates and group tables. Fingerprinting hashes
/// every word of the mask, so a caller that queries many interventions
/// against one group builds the handle once and passes it to
/// [`CateQuery::cate_in`].
#[derive(Debug, Clone, Copy)]
pub struct GroupHandle<'m> {
    mask: &'m Mask,
    fp: u64,
}

impl<'m> GroupHandle<'m> {
    /// Fingerprint `mask`.
    pub fn new(mask: &'m Mask) -> Self {
        GroupHandle {
            mask,
            fp: mask_fingerprint(mask),
        }
    }

    /// The subgroup's rows.
    pub fn mask(&self) -> &'m Mask {
        self.mask
    }
}

/// Deterministic 64-bit fingerprint of a mask's bits: FNV-1a over the
/// mask's length and little-endian bit words. The snapshot format persists
/// these fingerprints, so the function must be stable across processes,
/// platforms, *and Rust toolchain versions* — which rules out
/// `DefaultHasher` (deterministic only within one compiler release) in
/// favour of the in-repo [`FnvHasher`].
fn mask_fingerprint(mask: &Mask) -> u64 {
    let mut h = FnvHasher::new();
    h.write_u64_stable(mask.len() as u64);
    for &word in mask.as_words() {
        h.write_u64_stable(word);
    }
    h.finish64()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimate::EstimatorKind;
    use crate::scm::{bernoulli, normal, Scm};
    use faircap_table::Value;

    /// region → educated → income, region → income. Planted effect: +20.
    fn fixture() -> (Arc<DataFrame>, Arc<Dag>) {
        let scm = Scm::new()
            .categorical("region", &[("north", 0.5), ("south", 0.5)])
            .unwrap()
            .node(
                "educated",
                &["region"],
                Box::new(|row, rng| {
                    let p = if row.str("region") == "north" {
                        0.7
                    } else {
                        0.3
                    };
                    Value::Bool(bernoulli(rng, p))
                }),
            )
            .unwrap()
            .node(
                "income",
                &["region", "educated"],
                Box::new(|row, rng| {
                    let base = if row.str("region") == "north" {
                        60.0
                    } else {
                        40.0
                    };
                    let boost = if row.flag("educated") { 20.0 } else { 0.0 };
                    Value::Float(base + boost + normal(rng, 0.0, 5.0))
                }),
            )
            .unwrap();
        let df = Arc::new(scm.sample(4000, 11).unwrap());
        let dag = Arc::new(scm.dag());
        (df, dag)
    }

    fn engine() -> CateEngine {
        let (df, dag) = fixture();
        CateEngine::new(df, dag, "income").unwrap()
    }

    #[test]
    fn engine_recovers_planted_effect() {
        let engine = engine();
        let all = Mask::ones(engine.df().n_rows());
        let p = Pattern::of_eq(&[("educated", Value::Bool(true))]);
        let est = engine.cate(&all, &p, &EstimatorKind::Linear).unwrap();
        assert!((est.cate - 20.0).abs() < 1.0, "cate = {}", est.cate);
        assert!(est.is_significant(0.01));
    }

    #[test]
    fn caching_returns_identical_results_and_counts_hits() {
        let engine = engine();
        let all = Mask::ones(engine.df().n_rows());
        let p = Pattern::of_eq(&[("educated", Value::Bool(true))]);
        let a = engine.cate(&all, &p, &EstimatorKind::Linear);
        let before = engine.cache_stats();
        assert_eq!(before.hits, 0);
        assert_eq!(before.misses, 1);
        let b = engine.cate(&all, &p, &EstimatorKind::Linear);
        assert_eq!(a, b);
        let after = engine.cache_stats();
        assert_eq!(after.hits, 1);
        assert_eq!(after.misses, 1);
        assert_eq!(after.entries, before.entries);
    }

    #[test]
    fn distinct_estimators_cache_separately() {
        let engine = engine();
        let all = Mask::ones(engine.df().n_rows());
        let p = Pattern::of_eq(&[("educated", Value::Bool(true))]);
        engine.cate(&all, &p, &EstimatorKind::Linear);
        engine.cate(&all, &p, &EstimatorKind::Stratified);
        assert_eq!(engine.cache_stats().misses, 2);
        assert_eq!(engine.cache_len(), 2);
        // Re-querying either is a hit.
        engine.cate(&all, &p, &EstimatorKind::Stratified);
        assert_eq!(engine.cache_stats().hits, 1);
    }

    #[test]
    fn per_estimator_stats_attribute_counters() {
        let engine = engine();
        let all = Mask::ones(engine.df().n_rows());
        let p = Pattern::of_eq(&[("educated", Value::Bool(true))]);
        engine.cate(&all, &p, &EstimatorKind::Linear);
        engine.cate(&all, &p, &EstimatorKind::Linear);
        engine.cate(&all, &p, &EstimatorKind::Stratified);
        let per = engine.cache_stats_by_estimator();
        assert_eq!(
            per["linear"],
            CacheCounters {
                hits: 1,
                misses: 1,
                entries: 1,
                evictions: 0,
            }
        );
        assert_eq!(
            per["stratified"],
            CacheCounters {
                hits: 0,
                misses: 1,
                entries: 1,
                evictions: 0,
            }
        );
        // Never-queried estimators report zeros and are absent from the map.
        assert!(!per.contains_key("aipw"));
        assert_eq!(engine.cache_stats_for("aipw"), CacheCounters::default());
        // The breakdown sums to the aggregate counters.
        let agg = engine.cache_stats();
        assert_eq!(per.values().map(|s| s.hits).sum::<u64>(), agg.hits);
        assert_eq!(per.values().map(|s| s.misses).sum::<u64>(), agg.misses);
        assert_eq!(per.values().map(|s| s.entries).sum::<usize>(), agg.entries);
    }

    #[test]
    fn bounded_cache_evicts_and_counts() {
        let engine = engine();
        engine.set_estimate_cache_capacity(2);
        let all = Mask::ones(engine.df().n_rows());
        let north = Pattern::of_eq(&[("region", Value::from("north"))])
            .coverage(engine.df())
            .unwrap();
        let south = Pattern::of_eq(&[("region", Value::from("south"))])
            .coverage(engine.df())
            .unwrap();
        let p = Pattern::of_eq(&[("educated", Value::Bool(true))]);
        for group in [&all, &north, &south, &all, &north] {
            engine.cate(group, &p, &EstimatorKind::Linear);
        }
        let stats = engine.cache_stats();
        assert!(
            stats.entries <= 2,
            "bounded cache held {} entries",
            stats.entries
        );
        assert!(stats.evictions >= 3, "evictions {}", stats.evictions);
        // The per-estimator breakdown tracks the evictions too.
        let linear = engine.cache_stats_for("linear");
        assert_eq!(linear.evictions, stats.evictions);
        assert_eq!(linear.entries, stats.entries);
    }

    #[test]
    fn one_entry_table_cache_rebuilds_the_same_estimates() {
        let (df, dag) = fixture();
        let mut tiny = CateEngine::new(Arc::clone(&df), Arc::clone(&dag), "income").unwrap();
        tiny.group_caches.cell_table = GroupCache::with_capacity(1);
        let default = CateEngine::new(df, dag, "income").unwrap();
        let region = |r: &str| {
            Pattern::of_eq(&[("region", Value::from(r))])
                .coverage(default.df())
                .unwrap()
        };
        let groups = [
            Mask::ones(default.df().n_rows()),
            region("north"),
            region("south"),
        ];
        // Groups alternate, so every query evicts the one cached table.
        for educated in [true, false] {
            let p = Pattern::of_eq(&[("educated", Value::Bool(educated))]);
            for group in &groups {
                let a = tiny.cate(group, &p, &EstimatorKind::Linear);
                assert!(a.is_some());
                assert_eq!(a, default.cate(group, &p, &EstimatorKind::Linear));
            }
        }
        let t = tiny.cell_table_cache_stats();
        assert_eq!((t.hits, t.misses, t.evictions, t.entries), (0, 6, 5, 1));
        let d = default.cell_table_cache_stats();
        assert_eq!((d.hits, d.misses, d.evictions, d.entries), (3, 3, 0, 3));
    }

    #[test]
    fn export_import_round_trips_state() {
        let engine = engine();
        let all = Mask::ones(engine.df().n_rows());
        let p = Pattern::of_eq(&[("educated", Value::Bool(true))]);
        let original = engine.cate(&all, &p, &EstimatorKind::Linear);
        // Also cache a not-estimable verdict.
        let ghost = Pattern::of_eq(&[("ghost", Value::Int(1))]);
        assert!(engine.cate(&all, &ghost, &EstimatorKind::Linear).is_none());
        let state = engine.export_state();
        assert_eq!(state.estimates.len(), 2);
        assert!(!state.adjustments.is_empty());
        assert!(!state.treated.is_empty());

        let (df, dag) = fixture();
        let fresh = CateEngine::new(df, dag, "income").unwrap();
        fresh.import_state(state);
        assert_eq!(fresh.cache_stats().misses, 0);
        let warm = fresh.cate(&all, &p, &EstimatorKind::Linear);
        assert_eq!(warm, original);
        assert!(fresh.cate(&all, &ghost, &EstimatorKind::Linear).is_none());
        let stats = fresh.cache_stats();
        assert_eq!(stats.misses, 0, "warm queries must all hit");
        assert_eq!(stats.hits, 2);
        assert_eq!(fresh.cache_stats_for("linear").entries, 2);
    }

    #[test]
    fn aipw_and_matching_engines_recover_planted_effect() {
        let engine = engine();
        let all = Mask::ones(engine.df().n_rows());
        let p = Pattern::of_eq(&[("educated", Value::Bool(true))]);
        for kind in [EstimatorKind::Aipw, EstimatorKind::Matching] {
            let est = engine.cate(&all, &p, &kind).unwrap();
            assert!(
                (est.cate - 20.0).abs() < 1.5,
                "{kind:?} cate = {}",
                est.cate
            );
            assert!(est.is_significant(0.01), "{kind:?} p = {}", est.p_value);
        }
    }

    #[test]
    fn subgroup_query_differs_from_global() {
        let engine = engine();
        let north = Pattern::of_eq(&[("region", Value::from("north"))])
            .coverage(engine.df())
            .unwrap();
        let p = Pattern::of_eq(&[("educated", Value::Bool(true))]);
        let est = engine.cate(&north, &p, &EstimatorKind::Linear).unwrap();
        assert!((est.cate - 20.0).abs() < 1.5, "north cate = {}", est.cate);
        assert!(est.n_treated + est.n_control <= north.count());
    }

    #[test]
    fn empty_intervention_yields_none() {
        let engine = engine();
        let all = Mask::ones(engine.df().n_rows());
        assert!(engine
            .cate(&all, &Pattern::empty(), &EstimatorKind::Linear)
            .is_none());
    }

    #[test]
    fn affects_outcome_prunes_unconnected() {
        let engine = engine();
        assert!(engine.affects_outcome("educated"));
        assert!(engine.affects_outcome("region"));
        assert!(!engine.affects_outcome("income")); // the outcome itself
        assert!(!engine.affects_outcome("not_a_column"));
    }

    #[test]
    fn unknown_treatment_attribute_yields_none() {
        let engine = engine();
        let all = Mask::ones(engine.df().n_rows());
        let p = Pattern::of_eq(&[("ghost", Value::Int(1))]);
        assert!(engine.cate(&all, &p, &EstimatorKind::Linear).is_none());
    }

    #[test]
    fn stratified_engine_agrees_with_linear() {
        let engine = engine();
        let all = Mask::ones(engine.df().n_rows());
        let p = Pattern::of_eq(&[("educated", Value::Bool(true))]);
        let a = engine.cate(&all, &p, &EstimatorKind::Linear).unwrap().cate;
        let b = engine
            .cate(&all, &p, &EstimatorKind::Stratified)
            .unwrap()
            .cate;
        assert!((a - b).abs() < 1.0, "linear {a} vs stratified {b}");
    }

    #[test]
    fn missing_outcome_is_a_typed_error() {
        let (df, dag) = fixture();
        let err = CateEngine::new(df, dag, "no_such_column").unwrap_err();
        assert!(matches!(
            err,
            CausalError::Table(faircap_table::TableError::UnknownColumn(_))
        ));
        assert!(err.to_string().contains("no_such_column"));
    }

    #[test]
    fn categorical_outcome_is_a_typed_error() {
        let (df, dag) = fixture();
        let err = CateEngine::new(df, dag, "region").unwrap_err();
        assert!(matches!(err, CausalError::InvalidOutcome { .. }));
        assert!(err.to_string().contains("region"));
    }

    #[test]
    fn query_view_shares_caches() {
        let engine = engine();
        let all = Mask::ones(engine.df().n_rows());
        let p = Pattern::of_eq(&[("educated", Value::Bool(true))]);
        let q = engine.with_estimator(&EstimatorKind::Linear);
        let a = q.cate(&all, &p);
        let b = engine.cate(&all, &p, &EstimatorKind::Linear);
        assert_eq!(a, b);
        let stats = engine.cache_stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }
}
