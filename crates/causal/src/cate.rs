//! High-level CATE queries for prescription rules.
//!
//! [`CateEngine`] owns a dataset (via `Arc`), a causal DAG, and an outcome,
//! and answers "what is the CATE of intervention pattern `P_int` within
//! subgroup mask `g`?" — the quantity behind every utility in the paper
//! (Definition 4.4). The engine is **estimator-agnostic**: the estimator is
//! supplied per query (see [`Estimator`]), so one long-lived engine serves
//! repeated solves under different estimators while sharing its caches.
//!
//! Five kinds of cache persist across queries, all of one type, the
//! sharded LRU [`ShardedLruCache`]: a lookup locks one of its shards,
//! never the whole engine.
//!
//! * adjustment sets ([`Adjustment`]: the covariate names and their 64-bit
//!   FNV fingerprint), derived from the DAG once per treatment-attribute
//!   set;
//! * KD-tree match indices ([`MatchIndexCache`]), one per
//!   `(group fingerprint, adjustment fingerprint)` — the matching
//!   estimator's standardized design and tree are built once and reused
//!   across the whole intervention sweep over that subgroup;
//! * group entries ([`GroupRowsCache`]), one per subgroup — the linear
//!   estimator's count-path tier 1: the group's outcomes, their sum and
//!   mean, and each covariate's per-row levels and per-level outcome sums,
//!   coded on first use and shared by every adjustment set's table;
//! * cell tables ([`CellTableCache`]), one per `(group fingerprint,
//!   adjustment fingerprint)` — each row's cell, rows and outcome
//!   deviations per cell, and the intervention-independent part of `XᵀX`
//!   and `Xᵀy`, assembled from the group entry; or the verdict that the
//!   group takes the columnar path. Each intervention then only walks its
//!   treated rows;
//! * full estimates, one cache per estimator, keyed by `(group
//!   fingerprint, intervention)` — the caches Step 2's re-walks hit
//!   hardest. The intervention is keyed by the codes of its predicates in
//!   the engine's predicate table ([`CateEngine::predicate_code`]), held
//!   inline for short patterns, so a lookup compares integers and reads no
//!   `String`. A key carries one FNV hash of the fingerprint and the
//!   predicates' content hashes, computed once when the key is built;
//!   hashing the key for a shard or a map slot writes only that word, and
//!   the hash is the same in every run.
//!
//! Beside the caches the engine keeps two append-only tables: the
//! predicate table, code → predicate and back, which spells a key out as
//! a [`Pattern`] only on a miss and on export; and per attribute with few
//! levels, the full-frame mask of each level ([`CateEngine::level_masks`]),
//! built at the first walk that needs it, from which Step 2 builds a
//! group's items by word AND.
//!
//! Every capacity is fixed when the engine is built. The estimate caches
//! and the adjustment cache are unbounded: they keep every estimate and
//! every treatment-attribute set's adjustment the engine has computed. The
//! three group caches, whose entries hold O(rows) data, have fixed LRU
//! bounds.
//!
//! There are two ways in, and one estimation path behind them:
//!
//! * a [`CateWalk`] ([`CateQuery::walk`]) serves one group's lattice walk
//!   and its sub-coverage queries. The caller names the intervention by
//!   its predicate codes and passes the treated mask it already holds —
//!   any mask that agrees with the pattern's rows inside the group, such
//!   as a lattice node's `coverage ∧ pattern` — and the walk resolves each
//!   treatment-attribute set's adjustment once, in a memo of its own;
//! * [`CateEngine::cate`] answers one query from the intervention pattern
//!   alone: it codes the pattern's predicates to build the same key, and
//!   on an estimate-cache miss it looks up the adjustment set and computes
//!   the pattern's coverage, which nothing caches.
//!
//! Each estimator name has one record on the engine, resolved once per
//! [`CateQuery`] ([`CateEngine::with_estimator`]): its estimate cache,
//! whose own counters are the estimator's hits, misses, entries and
//! evictions; the duration histogram of its estimation runs; and the
//! hot-path totals of those runs, all atomics. A cache hit thus costs one
//! shard lock and clones nothing, and is counted as it happens. An
//! estimation takes no lock beyond its caches' shards. The
//! records make reuse observable per estimator
//! ([`CateEngine::cache_stats_by_estimator`]) and in aggregate
//! ([`CateEngine::cache_stats`], [`CateEngine::hot_stats`],
//! [`CateEngine::estimate_histograms`]); the session integration tests
//! assert on them.
//!
//! The estimate cache can be exported and re-imported
//! ([`CateEngine::export_state`] / [`CateEngine::import_state`]) — the
//! substrate of `PrescriptionSession::snapshot()` warm-starts. Nothing else
//! is: a warm hit is answered before any adjustment-set lookup, and a miss
//! re-derives its set from the DAG.

use crate::backdoor::find_adjustment_set_names;
use crate::error::{CausalError, Result};
use crate::estimate::linear::{CellTable, GroupRows};
use crate::estimate::matching::MatchIndex;
use crate::estimate::{Estimate, EstimateCtx, Estimator, HotStats};
use crate::graph::Dag;
use faircap_obs::{Histogram, HistogramSnapshot, SpanHandle};
use faircap_table::{
    CacheCounters, Codes, DataFrame, DataType, FnvHasher, LevelMasks, Mask, Pattern, Predicate,
    ShardedLruCache,
};
use parking_lot::{Mutex, RwLock};
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

/// Number of lock shards of each estimator's estimate cache. Step-2
/// mining fans out across worker threads that all funnel their CATE
/// queries through one engine; 16 shards keep them off each other's locks.
const ESTIMATE_CACHE_SHARDS: usize = 16;

/// Default entry bound of the match-index cache. Indices are heavy
/// (standardized design + KD-tree, O(rows·dim) floats each) and a solve
/// only sweeps a handful of subgroups at a time, so a small LRU bound
/// keeps reuse high without letting index memory grow with the sweep.
const MATCH_INDEX_CACHE_CAPACITY: usize = 32;

/// Default entry bound of the cell-table cache. Tables are per (group,
/// adjustment set), at 4 bytes per group row plus the group's shared
/// [`GroupRows`]. Step 2 queries each group, its protected and its
/// non-protected sub-coverage in turn, each under the adjustment sets of
/// its interventions, on several worker threads at once, so most tables
/// serve one group's sweep under one adjustment set and are not used
/// again. A cold `so_session` solve (StackOverflow, 10k rows, seed 1)
/// builds tables for 348 groups under 41 adjustment sets: 14,351 misses
/// against 34,863 hits at 128 entries on one worker (14.56k–14.64k
/// misses on two, where the order of inserts varies), 13,892 with no
/// bound.
const CELL_TABLE_CACHE_CAPACITY: usize = 128;

/// Default entry bound of the count path's per-group cache
/// ([`GroupRows`]: 8 bytes per group row plus one byte per row for each
/// covariate coded). The same `so_session` solve queries 348 distinct
/// groups: 372 misses at 32 or 64 entries, 385 at 16.
const GROUP_ROWS_CACHE_CAPACITY: usize = 32;

/// Lock shards of the adjustment-set cache and each group cache; fewer
/// distinct keys than the estimate cache, so fewer shards suffice.
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

/// Matching indices ([`MatchIndex`]: standardized columnar design +
/// KD-tree), keyed by `(group fingerprint, adjustment fingerprint)`.
pub type MatchIndexCache = ShardedLruCache<(u64, u64), Arc<MatchIndex>>;

/// `linear`'s count-path tables ([`CellTable`]), and the `None` verdict
/// for a group and adjustment set that take the columnar path, keyed by
/// `(group fingerprint, adjustment fingerprint)`.
pub type CellTableCache = ShardedLruCache<(u64, u64), Option<Arc<CellTable>>>;

/// `linear`'s count-path group entries ([`GroupRows`]: outcomes, their
/// sum and mean, the mask rank, and the covariates coded so far), keyed by
/// subgroup fingerprint alone; `None` for a group whose outcomes are not
/// all finite.
pub type GroupRowsCache = ShardedLruCache<u64, Option<Arc<GroupRows>>>;

/// The engine's group caches, one per kind of group-level estimator
/// state: state that depends only on the subgroup rows, or on them and the
/// adjustment covariates — *not* on the intervention — so one entry serves
/// the entire pattern sweep against a subgroup. LRU-bounded because each
/// entry holds O(rows) data.
#[derive(Debug)]
pub struct GroupCaches {
    /// KD-tree match indices of the matching estimator.
    pub match_index: MatchIndexCache,
    /// Count-path tables of the linear estimator, per adjustment set.
    pub cell_table: CellTableCache,
    /// Count-path group entries of the linear estimator, shared by the
    /// tables of every adjustment set over a group.
    pub group_rows: GroupRowsCache,
}

/// One query's way into the engine's [`GroupCaches`]: the caches, the
/// subgroup's mask fingerprint, and the fingerprint of the adjustment set
/// the query adjusts for. Estimators key their group-level state on these
/// fingerprints, so the adjustment slice an estimator is handed must be
/// the set `adjustment_fp` was taken of.
#[derive(Debug, Clone, Copy)]
pub struct GroupCacheRef<'a> {
    /// The engine's group caches.
    pub caches: &'a GroupCaches,
    /// Fingerprint of the subgroup's mask ([`GroupHandle`]).
    pub group_fp: u64,
    /// Fingerprint of the adjustment set ([`Adjustment::fingerprint`]).
    pub adjustment_fp: u64,
}

impl GroupCacheRef<'_> {
    /// Key of the `(group, adjustment set)` caches: match indices and
    /// cell tables.
    pub fn table_key(&self) -> (u64, u64) {
        (self.group_fp, self.adjustment_fp)
    }
}

/// A backdoor adjustment set with its fingerprint: FNV-1a over the number
/// of names and each name, length-prefixed. Built once per
/// treatment-attribute set and shared by `Arc`, so a query hands its
/// estimator the names and keys the group caches on the fingerprint
/// without cloning or rehashing the names.
#[derive(Debug)]
pub struct Adjustment {
    names: Vec<String>,
    fp: u64,
}

impl Adjustment {
    fn new(names: Vec<String>) -> Self {
        let mut h = FnvHasher::new();
        h.write_u64_stable(names.len() as u64);
        for name in &names {
            h.write_str_stable(name);
        }
        Adjustment {
            fp: h.finish64(),
            names,
        }
    }

    /// The covariate names, in the order the backdoor search returned them.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// The 64-bit fingerprint of the names.
    pub fn fingerprint(&self) -> u64 {
        self.fp
    }
}

/// One estimator name on one engine: its estimate cache, whose own
/// counters are the estimator's hits, misses, entries and evictions; the
/// duration histogram of its estimation runs (whose count and sum are the
/// number of runs and their total nanoseconds); and the hot-path totals of
/// those runs, which no cache counts.
struct EstimatorRecord {
    name: Arc<str>,
    /// Estimates and not-estimable verdicts, sharded.
    estimates: ShardedLruCache<EstimateKey, Option<Estimate>>,
    durations: Histogram,
    build_ns: AtomicU64,
    index_ns: AtomicU64,
    tree_visits: AtomicU64,
}

impl EstimatorRecord {
    /// Account one estimation run of `total_ns` wall time.
    fn ran(&self, total_ns: u64, stats: &HotStats) {
        self.durations.record(total_ns);
        self.build_ns.fetch_add(stats.build_ns, Relaxed);
        self.index_ns.fetch_add(stats.index_ns, Relaxed);
        self.tree_visits.fetch_add(stats.tree_visits, Relaxed);
    }
}

/// A predicate's code in its engine's predicate table, with a 64-bit FNV
/// hash of the predicate's content ([`CateEngine::predicate_code`]).
/// Codes are handed out in first-use order, which varies with thread
/// timing; the hash does not, and it is the hash, never the code, that
/// places an estimate key in the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PredicateCode {
    code: u32,
    hash: u64,
}

/// The engine's append-only predicate table: code → predicate, and back.
#[derive(Default)]
struct PredicateTable {
    codes: HashMap<Predicate, PredicateCode>,
    predicates: Vec<Predicate>,
}

impl PredicateTable {
    /// The pattern whose predicates carry `codes`.
    fn pattern(&self, codes: &[u32]) -> Pattern {
        Pattern::new(
            codes
                .iter()
                .map(|&c| self.predicates[c as usize].clone())
                .collect(),
        )
    }
}

/// Key of one cached estimate in its estimator's cache: subgroup
/// fingerprint and intervention pattern. The pattern is the codes of its
/// predicates (inline for up to [`Codes::INLINE`] predicates), sorted by
/// `(predicate hash, code)`, so comparing two keys compares integers only
/// and reads no `String`. The group is a 64-bit fingerprint of the mask.
/// A snapshot spells a key out as `(estimator name, fingerprint, pattern)`
/// ([`CateEngine::export_state`]).
///
/// The key's hash is one FNV digest of the group fingerprint and the
/// predicates' content hashes in that sorted order, taken when the key is
/// built. Its `Hash` writes only that word, so the cache's shard choice
/// and its map slot cost no pass over the pattern; and as it hashes
/// content, not codes, a bounded cache evicts the same entries in every
/// run, whatever order the codes were handed out in.
#[derive(Clone)]
struct EstimateKey {
    hash: u64,
    group_fp: u64,
    pattern: Codes,
}

impl EstimateKey {
    fn new(group_fp: u64, pattern: impl IntoIterator<Item = PredicateCode>) -> Self {
        // Up to `Codes::INLINE` codes are sorted on the stack; a longer
        // pattern spills to the heap.
        let mut inline = [PredicateCode { code: 0, hash: 0 }; Codes::INLINE];
        let mut n = 0;
        let mut iter = pattern.into_iter();
        for (slot, code) in inline.iter_mut().zip(&mut iter) {
            *slot = code;
            n += 1;
        }
        let mut spill: Vec<PredicateCode>;
        let codes: &mut [PredicateCode] = if n < Codes::INLINE {
            &mut inline[..n]
        } else {
            spill = inline.to_vec();
            spill.extend(iter);
            &mut spill
        };
        codes.sort_unstable_by_key(|c| (c.hash, c.code));
        let mut h = FnvHasher::new();
        h.write_u64_stable(group_fp);
        for c in codes.iter() {
            h.write_u64_stable(c.hash);
        }
        EstimateKey {
            hash: h.finish64(),
            group_fp,
            pattern: codes.iter().map(|c| c.code).collect(),
        }
    }
}

impl PartialEq for EstimateKey {
    fn eq(&self, other: &Self) -> bool {
        self.hash == other.hash && self.group_fp == other.group_fp && self.pattern == other.pattern
    }
}

impl Eq for EstimateKey {}

impl Hash for EstimateKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

/// Exported estimate cache of a [`CateEngine`] — everything a warm restart
/// needs (see [`CateEngine::export_state`]). Estimates are keyed by
/// estimator *name*, group fingerprint, and intervention pattern; `None`
/// estimates record "not estimable" answers so a warm solve does not
/// re-discover them.
#[derive(Debug, Clone, Default)]
pub struct CateEngineState {
    /// Cached estimates: `(estimator name, group fingerprint, intervention,
    /// estimate-or-not-estimable)`.
    pub estimates: Vec<(String, u64, Pattern, Option<Estimate>)>,
}

/// Level masks per `(attribute, level bound)`; `None` where the column
/// has more levels or none to mask.
type LevelMasksByAttr = HashMap<(String, usize), Option<Arc<LevelMasks>>>;

/// Engine answering CATE queries against one dataset + DAG.
pub struct CateEngine {
    df: Arc<DataFrame>,
    dag: Arc<Dag>,
    outcome: String,
    adjustment_cache: ShardedLruCache<Vec<String>, Option<Arc<Adjustment>>>,
    /// Entry bound of each estimator's estimate cache: `usize::MAX`
    /// (unbounded) in every engine [`CateEngine::new`] builds.
    estimate_capacity: usize,
    /// Match indices and cell tables, shared across each group's
    /// intervention sweep.
    group_caches: GroupCaches,
    /// Every predicate an estimate key has named, by code. Locked to code
    /// a predicate (read, or write on first sight), to spell a key out on
    /// a miss, and on export — never per cache hit.
    predicates: RwLock<PredicateTable>,
    /// Full-frame level masks per `(attribute, level bound)`
    /// ([`CateEngine::level_masks`]), built on first use.
    level_masks: Mutex<LevelMasksByAttr>,
    /// One record per estimator name, holding its estimate cache. Locked
    /// when a [`CateQuery`] is bound, on import and export, and by the
    /// readers — never per query.
    estimators: Mutex<BTreeMap<Arc<str>, Arc<EstimatorRecord>>>,
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
            adjustment_cache: ShardedLruCache::unbounded(GROUP_CACHE_SHARDS),
            estimate_capacity: usize::MAX,
            group_caches: GroupCaches {
                match_index: ShardedLruCache::new(MATCH_INDEX_CACHE_CAPACITY, GROUP_CACHE_SHARDS),
                cell_table: ShardedLruCache::new(CELL_TABLE_CACHE_CAPACITY, GROUP_CACHE_SHARDS),
                group_rows: ShardedLruCache::new(GROUP_ROWS_CACHE_CAPACITY, GROUP_CACHE_SHARDS),
            },
            predicates: RwLock::new(PredicateTable::default()),
            level_masks: Mutex::new(HashMap::new()),
            estimators: Mutex::new(BTreeMap::new()),
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
    /// this engine's caches. The estimator's record is resolved once here,
    /// so the per-query hot path takes no engine-wide lock and builds its
    /// cache key without allocating for the name.
    pub fn with_estimator<'a>(&'a self, estimator: &'a dyn Estimator) -> CateQuery<'a> {
        CateQuery {
            engine: self,
            estimator,
            record: self.record(estimator.name()),
            span: None,
        }
    }

    /// The record of estimator `name`, created with an empty estimate
    /// cache on first use.
    fn record(&self, name: &str) -> Arc<EstimatorRecord> {
        let mut records = self.estimators.lock();
        if let Some(record) = records.get(name) {
            return Arc::clone(record);
        }
        let name: Arc<str> = Arc::from(name);
        let record = Arc::new(EstimatorRecord {
            name: Arc::clone(&name),
            estimates: ShardedLruCache::new(self.estimate_capacity, ESTIMATE_CACHE_SHARDS),
            durations: Histogram::default(),
            build_ns: AtomicU64::new(0),
            index_ns: AtomicU64::new(0),
            tree_visits: AtomicU64::new(0),
        });
        records.insert(name, Arc::clone(&record));
        record
    }

    /// The code of `predicate` in this engine's predicate table, handed
    /// out on first sight. Equal predicates get equal codes, so a
    /// pattern's codes are an exact identity of the pattern within the
    /// engine; estimate keys are built from them.
    pub fn predicate_code(&self, predicate: &Predicate) -> PredicateCode {
        if let Some(&code) = self.predicates.read().codes.get(predicate) {
            return code;
        }
        let mut table = self.predicates.write();
        if let Some(&code) = table.codes.get(predicate) {
            return code;
        }
        let mut hash = FnvHasher::new();
        predicate.hash(&mut hash);
        let code = PredicateCode {
            code: u32::try_from(table.predicates.len()).expect("fewer than 2^32 predicates"),
            hash: hash.finish64(),
        };
        table.predicates.push(predicate.clone());
        table.codes.insert(predicate.clone(), code);
        code
    }

    /// The codes of `pattern`'s predicates ([`predicate_code`](Self::predicate_code)),
    /// in pattern order: what a [`CateWalk`] is queried with.
    pub fn pattern_codes(&self, pattern: &Pattern) -> Vec<PredicateCode> {
        pattern
            .predicates()
            .iter()
            .map(|p| self.predicate_code(p))
            .collect()
    }

    /// Full-frame masks of `attr`'s levels when it has at most
    /// `max_levels` of them ([`DataFrame::level_masks`]), built on first
    /// use and kept for the engine's lifetime; `None` for a float column,
    /// one with more levels, or an unknown attribute. Step 2 builds a
    /// group's items from them by one word AND per level.
    pub fn level_masks(&self, attr: &str, max_levels: usize) -> Option<Arc<LevelMasks>> {
        let mut built = self.level_masks.lock();
        let key = (attr.to_owned(), max_levels);
        if let Some(levels) = built.get(&key) {
            return levels.clone();
        }
        let levels = self
            .df
            .level_masks(attr, max_levels)
            .ok()
            .flatten()
            .map(Arc::new);
        built.insert(key, levels.clone());
        levels
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
    pub fn adjustment_for(&self, treatment_attrs: &[String]) -> Option<Arc<Adjustment>> {
        let key: Vec<String> = treatment_attrs.to_vec();
        if let Some(hit) = self.adjustment_cache.get(&key) {
            return hit;
        }
        let in_dag: Vec<&str> = treatment_attrs
            .iter()
            .map(|s| s.as_str())
            .filter(|a| self.dag.has_node(a))
            .collect();
        let computed = if in_dag.is_empty() {
            None
        } else {
            find_adjustment_set_names(&self.dag, &in_dag, &self.outcome)
                .ok()
                .map(|names| Arc::new(Adjustment::new(names)))
        };
        self.adjustment_cache.insert(key, computed.clone());
        computed
    }

    /// CATE of `intervention` within `group` under `estimator`
    /// (Definition 4.4 utilities).
    ///
    /// Returns `None` when the effect is not estimable: unidentified
    /// adjustment, insufficient overlap, or a degenerate design. Both
    /// estimable and non-estimable answers are cached per
    /// `(estimator, group, intervention)`, under the key a [`CateWalk`]
    /// builds from the pattern's codes. Only a miss resolves the
    /// adjustment set and then computes the pattern's coverage as the
    /// treated rows; a caller that already holds them, or queries many
    /// patterns against one group, uses a [`CateQuery::walk`] instead.
    pub fn cate(
        &self,
        group: &Mask,
        intervention: &Pattern,
        estimator: &dyn Estimator,
    ) -> Option<Estimate> {
        let query = self.with_estimator(estimator);
        let group = GroupHandle::new(group);
        let codes = intervention
            .predicates()
            .iter()
            .map(|p| self.predicate_code(p));
        query.cached(EstimateKey::new(group.fp, codes), |_| {
            let attrs: Vec<String> = intervention
                .attributes()
                .into_iter()
                .map(str::to_owned)
                .collect();
            let adjustment = self.adjustment_for(&attrs)?;
            let treated = intervention.coverage(&self.df).ok()?;
            query.estimate_uncached(group, &treated, &adjustment)
        })
    }

    /// Per-estimator estimate-duration histograms (nanoseconds per
    /// uncached estimation), snapshotted in estimator-name order.
    /// Estimators never run on this engine are absent.
    pub fn estimate_histograms(&self) -> Vec<(String, HistogramSnapshot)> {
        let records = self.estimators.lock();
        let ran = records.values().filter(|r| r.durations.count() > 0);
        ran.map(|r| (r.name.to_string(), r.durations.snapshot()))
            .collect()
    }

    /// Hot-path cost accounting across every estimation run this engine
    /// performed (cache hits excluded): the number of runs — the summed
    /// counts of [`estimate_histograms`](Self::estimate_histograms) — and
    /// their per-stage nanoseconds and KD-tree visit totals.
    pub fn hot_stats(&self) -> (u64, HotStats) {
        let records = self.estimators.lock();
        let sum = |field: fn(&EstimatorRecord) -> u64| records.values().map(|r| field(r)).sum();
        let total_ns: u64 = sum(|r| r.durations.sum());
        let build_ns = sum(|r| r.build_ns.load(Relaxed));
        let index_ns = sum(|r| r.index_ns.load(Relaxed));
        let stats = HotStats {
            build_ns,
            index_ns,
            solve_ns: total_ns.saturating_sub(build_ns.saturating_add(index_ns)),
            tree_visits: sum(|r| r.tree_visits.load(Relaxed)),
        };
        (sum(|r| r.durations.count()), stats)
    }

    /// Hit/miss counters of the match-index cache.
    pub fn match_index_cache_stats(&self) -> CacheCounters {
        self.group_caches.match_index.counters()
    }

    /// Hit/miss counters of the cell-table cache.
    pub fn cell_table_cache_stats(&self) -> CacheCounters {
        self.group_caches.cell_table.counters()
    }

    /// Hit/miss counters of the count path's per-group cache.
    pub fn group_rows_cache_stats(&self) -> CacheCounters {
        self.group_caches.group_rows.counters()
    }

    /// Estimate-cache hit/miss counters since the engine was built, summed
    /// over the estimators' caches.
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
        let records = self.estimators.lock();
        let each = records.values().map(|r| r.estimates.counters());
        each.fold(CacheCounters::default(), |sum, c| CacheCounters {
            hits: sum.hits + c.hits,
            misses: sum.misses + c.misses,
            evictions: sum.evictions + c.evictions,
            entries: sum.entries + c.entries,
        })
    }

    /// Each estimator's estimate-cache counters, by [`Estimator::name`],
    /// in name order. They sum to [`cache_stats`](Self::cache_stats), and
    /// a [`CateWalk`]'s hits show here as they happen.
    ///
    /// Estimators that were never queried on this engine are absent.
    pub fn cache_stats_by_estimator(&self) -> BTreeMap<String, CacheCounters> {
        let records = self.estimators.lock();
        let counted = records
            .values()
            .map(|r| (r.name.to_string(), r.estimates.counters()));
        counted
            .filter(|(_, c)| *c != CacheCounters::default())
            .collect()
    }

    /// Estimator `name`'s estimate-cache counters; zeros if the estimator
    /// was never queried on this engine.
    pub fn cache_stats_for(&self, name: &str) -> CacheCounters {
        let record = self.estimators.lock().get(name).map(Arc::clone);
        record.map_or_else(CacheCounters::default, |r| r.estimates.counters())
    }

    /// Export the cache a warm restart needs — the estimates — for
    /// persistence, sorted by (estimator name, group fingerprint,
    /// pattern), so two engines holding the same estimates export the
    /// same records in the same order. The inverse of
    /// [`import_state`](Self::import_state).
    pub fn export_state(&self) -> CateEngineState {
        let records: Vec<Arc<EstimatorRecord>> = self.estimators.lock().values().cloned().collect();
        let mut estimates = Vec::with_capacity(records.iter().map(|r| r.estimates.len()).sum());
        {
            let table = self.predicates.read();
            for record in &records {
                record.estimates.for_each(|key, est| {
                    estimates.push((
                        record.name.to_string(),
                        key.group_fp,
                        table.pattern(&key.pattern),
                        *est,
                    ));
                });
            }
        }
        estimates.sort_by(|a, b| (&a.0, a.1, &a.2).cmp(&(&b.0, b.1, &b.2)));
        CateEngineState { estimates }
    }

    /// Warm the engine's caches from a previously exported state. Imported
    /// entries count toward their estimator's `entries` but not its hits
    /// or misses; an import that overflows a bounded estimate cache
    /// evicts like any other insert.
    pub fn import_state(&self, state: CateEngineState) {
        for (name, group_fp, intervention, est) in state.estimates {
            let codes = intervention
                .predicates()
                .iter()
                .map(|p| self.predicate_code(p));
            let key = EstimateKey::new(group_fp, codes);
            self.record(&name).estimates.insert(key, est);
        }
    }
}

/// A [`CateEngine`] bound to one estimator — the view the mining and greedy
/// phases consume. Cheap to construct per solve (it resolves the
/// estimator's record, and with it the estimator's estimate cache, once);
/// all caches live on the engine and are shared across views.
#[derive(Clone)]
pub struct CateQuery<'a> {
    engine: &'a CateEngine,
    estimator: &'a dyn Estimator,
    record: Arc<EstimatorRecord>,
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

    /// Start a walk: the entry point for one group's lattice walk and its
    /// sub-coverage queries. See [`CateWalk`].
    pub fn walk(&self) -> CateWalk<'_, 'a> {
        CateWalk {
            query: self,
            adjustments: AdjustmentMemo::default(),
        }
    }

    /// Answer `key` from the estimator's estimate cache, or run `estimate`
    /// on the key's predicate codes on a miss and cache its answer. When a
    /// span is attached (a traced solve) every query emits a child span:
    /// `estimate_hit:<name>` for a lookup answered from the estimate cache,
    /// `estimate:<name>` covering the actual estimation on a miss. An empty
    /// intervention is not estimable.
    fn cached(
        &self,
        key: EstimateKey,
        estimate: impl FnOnce(&[u32]) -> Option<Estimate>,
    ) -> Option<Estimate> {
        let record = &self.record;
        if let Some(hit) = record.estimates.get(&key) {
            if let Some(h) = &self.span {
                h.child(format!("estimate_hit:{}", record.name)).finish();
            }
            return hit;
        }
        let result = {
            let _span = self
                .span
                .as_ref()
                .map(|h| h.child(format!("estimate:{}", record.name)));
            if key.pattern.is_empty() {
                None
            } else {
                estimate(&key.pattern)
            }
        };
        // A racing duplicate query may have inserted the same key first,
        // with the same value (estimation is deterministic); the cache
        // counts the entry once.
        record.estimates.insert(key, result);
        result
    }

    /// Run one estimation (no estimate-cache lookup), charging its wall
    /// time and hot-path costs to the estimator's record: the one
    /// estimation path behind both entry points. `treated` need only agree
    /// with the intervention's rows inside the group.
    fn estimate_uncached(
        &self,
        group: GroupHandle<'_>,
        treated: &Mask,
        adjustment: &Adjustment,
    ) -> Option<Estimate> {
        let engine = self.engine;
        let mut ctx = EstimateCtx {
            stats: HotStats::default(),
            group_cache: Some(GroupCacheRef {
                caches: &engine.group_caches,
                group_fp: group.fp,
                adjustment_fp: adjustment.fp,
            }),
        };
        let t0 = Instant::now();
        let result = self
            .estimator
            .estimate_with_ctx(
                &mut ctx,
                &engine.df,
                group.mask,
                treated,
                &engine.outcome,
                &adjustment.names,
            )
            .ok();
        self.record.ran(t0.elapsed().as_nanos() as u64, &ctx.stats);
        result
    }
}

/// One group's walk through a [`CateQuery`]: the lattice walk over the
/// group and the queries of its protected and non-protected
/// sub-coverages. Answers are cached exactly as [`CateEngine::cate`]'s,
/// under the same keys, and are bit-identical to them.
///
/// What the walk saves is the bookkeeping around an estimate. The caller
/// names the intervention by its predicate codes
/// ([`CateEngine::predicate_code`]), so a cache hit builds its key from
/// integers and compares integers; it passes the treated mask it already
/// holds (a lattice node's `coverage ∧ pattern`) instead of having the
/// engine compute the pattern's full-frame mask; and the walk keeps a
/// small memo from treatment-attribute set to [`Adjustment`], so each
/// set's names and fingerprint are resolved once per walk rather than
/// once per estimate. A walk is meant for one thread; make one per group.
pub struct CateWalk<'q, 'a> {
    query: &'q CateQuery<'a>,
    adjustments: AdjustmentMemo,
}

impl CateWalk<'_, '_> {
    /// CATE of the intervention whose predicates have codes `pattern` (in
    /// any order) within `group`, with `treated` the rows satisfying the
    /// intervention. Only `treated`'s rows inside `group` matter, so any
    /// mask that agrees with the pattern there serves — the pattern's
    /// coverage within a larger group that contains `group` does.
    pub fn cate(
        &mut self,
        group: GroupHandle<'_>,
        pattern: impl IntoIterator<Item = PredicateCode>,
        treated: &Mask,
    ) -> Option<Estimate> {
        let query = self.query;
        let key = EstimateKey::new(group.fp, pattern);
        let adjustments = &mut self.adjustments;
        query.cached(key, |codes| {
            let adjustment = adjustments.get(query.engine, codes)?;
            query.estimate_uncached(group, treated, &adjustment)
        })
    }
}

/// A walk's memo from treatment-attribute set to adjustment:
/// `(hash of the attribute names, the names, their adjustment)`, in
/// first-use order, one entry per attribute set the walk's misses reach,
/// found by comparing hashes before names.
#[derive(Default)]
struct AdjustmentMemo(Vec<(u64, Vec<String>, Option<Arc<Adjustment>>)>);

impl AdjustmentMemo {
    /// The adjustment set of the attributes of the pattern with predicate
    /// `codes`, from the memo or, on first use in this walk, from the
    /// engine's cache.
    fn get(&mut self, engine: &CateEngine, codes: &[u32]) -> Option<Arc<Adjustment>> {
        let intervention = engine.predicates.read().pattern(codes);
        let attrs = intervention.attributes();
        let mut h = FnvHasher::new();
        for attr in &attrs {
            h.write_str_stable(attr);
        }
        let hash = h.finish64();
        let memo = self.0.iter().find(|(memo_hash, names, _)| {
            *memo_hash == hash && names.iter().map(String::as_str).eq(attrs.iter().copied())
        });
        if let Some((_, _, adjustment)) = memo {
            return adjustment.clone();
        }
        let names: Vec<String> = attrs.into_iter().map(str::to_owned).collect();
        let adjustment = engine.adjustment_for(&names);
        self.0.push((hash, names, adjustment.clone()));
        adjustment
    }
}

/// A subgroup mask with its fingerprint — the key under which the engine
/// caches the group's estimates and group tables. Fingerprinting hashes
/// every word of the mask, so a caller that queries many interventions
/// against one group builds the handle once and passes it to
/// [`CateWalk::cate`].
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

    /// An engine whose estimators' estimate caches each hold at most
    /// `capacity` entries.
    fn engine_with_estimate_capacity(capacity: usize) -> CateEngine {
        let mut engine = engine();
        engine.estimate_capacity = capacity;
        engine
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
        assert_eq!(engine.cache_stats().entries, 2);
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
        assert_breakdown_sums(&engine);
    }

    /// Per-estimator counters sum to the aggregate ones.
    fn assert_breakdown_sums(engine: &CateEngine) {
        let per = engine.cache_stats_by_estimator();
        let agg = engine.cache_stats();
        assert_eq!(per.values().map(|s| s.hits).sum::<u64>(), agg.hits);
        assert_eq!(per.values().map(|s| s.misses).sum::<u64>(), agg.misses);
        assert_eq!(per.values().map(|s| s.entries).sum::<usize>(), agg.entries);
        assert_eq!(
            per.values().map(|s| s.evictions).sum::<u64>(),
            agg.evictions
        );
    }

    #[test]
    fn bounded_cache_evicts_and_counts() {
        let engine = engine_with_estimate_capacity(2);
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
            engine.cate(group, &p, &EstimatorKind::Stratified);
        }
        // Each estimator inserted three keys into its two-entry cache, so
        // each had entries evicted, and its entries and evictions add up
        // to the fresh keys it inserted (its misses).
        for name in ["linear", "stratified"] {
            let c = engine.cache_stats_for(name);
            assert!(c.entries <= 2, "{name}: bounded cache held {c:?}");
            assert_eq!(c.hits + c.misses, 5, "{name}");
            assert!(c.evictions > 0, "{name}: {c:?}");
            assert_eq!(c.entries as u64 + c.evictions, c.misses, "{name}: {c:?}");
        }
        assert_breakdown_sums(&engine);
    }

    #[test]
    fn concurrent_estimators_keep_exact_books() {
        let engine = engine_with_estimate_capacity(4);
        let df = engine.df();
        let region = |r: &str| Pattern::of_eq(&[("region", Value::from(r))]);
        let groups = [
            Mask::ones(df.n_rows()),
            region("north").coverage(df).unwrap(),
            region("south").coverage(df).unwrap(),
        ];
        let mut keys = Vec::new();
        for educated in [true, false] {
            let p = Pattern::of_eq(&[("educated", Value::Bool(educated))]);
            keys.extend(groups.iter().map(|g| (g, p.clone())));
        }
        const ROUNDS: u64 = 3;
        let estimators = [EstimatorKind::Linear, EstimatorKind::Stratified];
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            for t in 0..2 {
                let (engine, keys, start, estimators) = (&engine, &keys, &start, &estimators);
                scope.spawn(move || {
                    start.wait();
                    for _ in 0..ROUNDS {
                        // The threads walk the keys in opposite orders, so
                        // they race on the same keys and evict each
                        // other's entries.
                        for i in 0..keys.len() {
                            let (group, p) = &keys[if t == 0 { i } else { keys.len() - 1 - i }];
                            for e in estimators {
                                engine.cate(group, p, e);
                            }
                        }
                    }
                });
            }
        });
        let issued = 2 * ROUNDS * keys.len() as u64;
        let hists: BTreeMap<String, HistogramSnapshot> =
            engine.estimate_histograms().into_iter().collect();
        for e in estimators {
            let c = engine.cache_stats_for(e.name());
            assert_eq!(c.hits + c.misses, issued, "{}: {c:?}", e.name());
            // Every key's adjustment set is identified, so every miss
            // runs the estimator once.
            assert_eq!(hists[e.name()].count, c.misses, "{}", e.name());
        }
        assert!(engine.cache_stats().evictions > 0);
        assert_breakdown_sums(&engine);
        let runs: u64 = hists.values().map(|h| h.count).sum();
        assert_eq!(engine.hot_stats().0, runs);
    }

    /// A walk's hits show in its estimator's counters while the walk is
    /// still open; and after concurrent walks of two estimators on an
    /// unbounded engine, each estimator's hits and misses add up to the
    /// lookups it issued and its entries to its distinct keys.
    #[test]
    fn walks_count_hits_as_they_happen() {
        let engine = engine();
        let df = engine.df();
        let region = |r: &str| Pattern::of_eq(&[("region", Value::from(r))]);
        let groups = [
            Mask::ones(df.n_rows()),
            region("north").coverage(df).unwrap(),
            region("south").coverage(df).unwrap(),
        ];
        let patterns: Vec<(Vec<PredicateCode>, Mask)> = [true, false]
            .map(|educated| Pattern::of_eq(&[("educated", Value::Bool(educated))]))
            .iter()
            .map(|p| (engine.pattern_codes(p), p.coverage(df).unwrap()))
            .collect();

        let q = engine.with_estimator(&EstimatorKind::Linear);
        let mut walk = q.walk();
        let (codes, treated) = &patterns[0];
        for _ in 0..3 {
            walk.cate(GroupHandle::new(&groups[0]), codes.iter().copied(), treated);
        }
        let open = engine.cache_stats_for("linear");
        assert_eq!((open.hits, open.misses, open.entries), (2, 1, 1));
        drop(walk);
        assert_eq!(engine.cache_stats_for("linear"), open);

        const ROUNDS: u64 = 3;
        let estimators = [EstimatorKind::Linear, EstimatorKind::Stratified];
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|scope| {
            for e in &estimators {
                for t in 0..2 {
                    let (engine, groups, patterns, start) = (&engine, &groups, &patterns, &start);
                    scope.spawn(move || {
                        let q = engine.with_estimator(e);
                        start.wait();
                        for _ in 0..ROUNDS {
                            for i in 0..groups.len() {
                                // Opposite orders, so the two walkers of an
                                // estimator race on the same keys.
                                let group = &groups[if t == 0 { i } else { groups.len() - 1 - i }];
                                let mut walk = q.walk();
                                for (codes, treated) in patterns {
                                    walk.cate(
                                        GroupHandle::new(group),
                                        codes.iter().copied(),
                                        treated,
                                    );
                                }
                            }
                        }
                    });
                }
            }
        });
        let per_walker = ROUNDS * (groups.len() * patterns.len()) as u64;
        let distinct = groups.len() * patterns.len();
        let hists: BTreeMap<String, HistogramSnapshot> =
            engine.estimate_histograms().into_iter().collect();
        for e in estimators {
            let c = engine.cache_stats_for(e.name());
            let before = if e == EstimatorKind::Linear { 3 } else { 0 };
            assert_eq!(
                c.hits + c.misses,
                2 * per_walker + before,
                "{}: {c:?}",
                e.name()
            );
            assert_eq!(
                (c.entries, c.evictions),
                (distinct, 0),
                "{}: {c:?}",
                e.name()
            );
            assert_eq!(hists[e.name()].count, c.misses, "{}", e.name());
        }
        assert_breakdown_sums(&engine);
    }

    /// All three group caches bounded to one entry at once, under `linear`
    /// (cell tables and group entries) and `matching` (match indices):
    /// groups alternate, so every estimate evicts the one cached entry of
    /// the cache it uses, and the rebuilt structures answer bit for bit as
    /// a default engine's cached ones.
    #[test]
    fn one_entry_group_caches_rebuild_the_same_estimates() {
        let (df, dag) = fixture();
        let mut tiny = CateEngine::new(Arc::clone(&df), Arc::clone(&dag), "income").unwrap();
        tiny.group_caches = GroupCaches {
            match_index: ShardedLruCache::new(1, GROUP_CACHE_SHARDS),
            cell_table: ShardedLruCache::new(1, GROUP_CACHE_SHARDS),
            group_rows: ShardedLruCache::new(1, GROUP_CACHE_SHARDS),
        };
        let default = CateEngine::new(df, dag, "income").unwrap();
        let region = |r: &str| Pattern::of_eq(&[("region", Value::from(r))]);
        let groups = [
            Mask::ones(default.df().n_rows()),
            region("north").coverage(default.df()).unwrap(),
            region("south").coverage(default.df()).unwrap(),
        ];
        // Groups alternate, so every query evicts the one cached entry.
        // All six adjust for `region`.
        let mut queries = Vec::new();
        for educated in [true, false] {
            let p = Pattern::of_eq(&[("educated", Value::Bool(educated))]);
            queries.extend(groups.iter().map(|g| (g, p.clone())));
        }
        // `region` itself needs no adjustment: a second table and index
        // over the whole frame, and for `linear` on the group entry the
        // default engine still holds.
        queries.push((&groups[0], region("north")));
        let bits = |e: Option<Estimate>| {
            let e = e.expect("estimable");
            let fields = [e.cate, e.std_err, e.t_stat, e.p_value].map(f64::to_bits);
            (fields, e.n_treated, e.n_control)
        };
        for (group, p) in &queries {
            for kind in [EstimatorKind::Linear, EstimatorKind::Matching] {
                assert_eq!(
                    bits(tiny.cate(group, p, &kind)),
                    bits(default.cate(group, p, &kind)),
                    "{kind:?} {p:?}"
                );
            }
        }
        let counts = |c: CacheCounters| (c.hits, c.misses, c.evictions, c.entries);
        for tiny_cache in [
            tiny.match_index_cache_stats(),
            tiny.cell_table_cache_stats(),
            tiny.group_rows_cache_stats(),
        ] {
            assert_eq!(counts(tiny_cache), (0, 7, 6, 1));
        }
        assert_eq!(counts(default.match_index_cache_stats()), (3, 4, 0, 4));
        assert_eq!(counts(default.cell_table_cache_stats()), (3, 4, 0, 4));
        assert_eq!(counts(default.group_rows_cache_stats()), (1, 3, 0, 3));
    }

    /// The walk entry point, handed `coverage ∧ pattern` as the treated
    /// mask, answers bit for bit as the engine's pattern-only `cate` with
    /// the full-frame mask — for every estimator, on a group and on its
    /// protected and non-protected sub-coverages, refusals included.
    #[test]
    fn walk_with_coverage_masks_matches_cate() {
        let (df, dag) = fixture();
        let n = df.n_rows();
        let coverage = Mask::from_indices(n, &(0..n).filter(|r| r % 3 != 0).collect::<Vec<_>>());
        let south = Pattern::of_eq(&[("region", Value::from("south"))])
            .coverage(&df)
            .unwrap();
        // Too few rows for either arm: every estimator refuses.
        let tiny = Mask::from_indices(n, &coverage.iter_ones().take(8).collect::<Vec<_>>());
        let subs = [
            coverage.clone(),
            &coverage & &south,
            coverage.andnot(&south),
            tiny,
        ];
        let interventions = [
            Pattern::of_eq(&[("educated", Value::Bool(true))]),
            Pattern::of_eq(&[("educated", Value::Bool(false))]),
            Pattern::of_eq(&[("region", Value::from("north"))]),
            // Identification fails: not in the DAG.
            Pattern::of_eq(&[("ghost", Value::Int(1))]),
        ];
        let bits = |e: Option<Estimate>| {
            e.map(|e| {
                let fields = [e.cate, e.std_err, e.t_stat, e.p_value].map(f64::to_bits);
                (fields, e.n_treated, e.n_control)
            })
        };
        for kind in EstimatorKind::ALL {
            let by_pattern = CateEngine::new(Arc::clone(&df), Arc::clone(&dag), "income").unwrap();
            let by_walk = CateEngine::new(Arc::clone(&df), Arc::clone(&dag), "income").unwrap();
            let q_walk = by_walk.with_estimator(&kind);
            let (mut estimated, mut refused) = (0, 0);
            let mut walk = q_walk.walk();
            for p in &interventions {
                let treated = match p.coverage(&df) {
                    Ok(full) => &coverage & &full,
                    Err(_) => Mask::zeros(n),
                };
                let codes = by_walk.pattern_codes(p);
                for sub in &subs {
                    let expected = by_pattern.cate(sub, p, &kind);
                    assert_eq!(
                        bits(walk.cate(GroupHandle::new(sub), codes.iter().copied(), &treated)),
                        bits(expected),
                        "{kind:?} {p} on {} rows",
                        sub.count()
                    );
                    match expected {
                        Some(_) => estimated += 1,
                        None => refused += 1,
                    }
                }
            }
            assert!(
                estimated >= 5 && refused >= 9,
                "{kind:?}: {estimated}/{refused}"
            );
            drop(walk);
            assert_eq!(by_walk.cache_stats(), by_pattern.cache_stats());
            assert_eq!(
                by_walk.cache_stats_for(kind.name()),
                by_pattern.cache_stats_for(kind.name())
            );
            assert_eq!(
                by_walk.cache_stats().misses,
                by_pattern.cache_stats().misses
            );
        }
    }

    #[test]
    fn estimate_keys_hash_once_and_compare_in_full() {
        let engine = engine();
        let p = Pattern::of_eq(&[("educated", Value::Bool(true))]);
        let key = |fp: u64, p: &Pattern| EstimateKey::new(fp, engine.pattern_codes(p));
        let a = key(7, &p);
        assert!(a == key(7, &p));
        assert_eq!(a.hash, key(7, &p).hash);
        assert!(a != key(8, &p));
        let q = Pattern::of_eq(&[("educated", Value::Bool(false))]);
        assert!(a != key(7, &q));
        // Codes in any order make the same key, and its hash follows the
        // predicates' content, not the order codes were handed out in.
        let pq = Pattern::of_eq(&[
            ("region", Value::from("north")),
            ("educated", Value::Bool(true)),
        ]);
        let mut reversed = engine.pattern_codes(&pq);
        reversed.reverse();
        assert!(key(7, &pq) == EstimateKey::new(7, reversed));
        let (df, dag) = fixture();
        let other = CateEngine::new(df, dag, "income").unwrap();
        other.predicate_code(&pq.predicates()[1]);
        let other_key = EstimateKey::new(7, other.pattern_codes(&pq));
        assert_ne!(other_key.pattern, key(7, &pq).pattern);
        assert_eq!(other_key.hash, key(7, &pq).hash);
        // `Hash` feeds the precomputed digest alone.
        let mut h = FnvHasher::new();
        a.hash(&mut h);
        let mut expected = FnvHasher::new();
        expected.write_u64_stable(a.hash);
        assert_eq!(h.finish64(), expected.finish64());
    }

    #[test]
    fn equal_predicates_get_one_code() {
        let engine = engine();
        let one = engine.predicate_code(&Predicate::eq("region", Value::Int(1)));
        assert_eq!(
            engine.predicate_code(&Predicate::eq("region", Value::Float(1.0))),
            one
        );
        assert_ne!(
            engine.predicate_code(&Predicate::eq("region", Value::Float(1.5))),
            one
        );
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

    /// A snapshot bigger than the bounded estimate caches imports within
    /// each estimator's bound: the overflow is evicted from its
    /// estimator's cache, and what stays cached is the snapshot's own
    /// records.
    #[test]
    fn import_into_bounded_cache_keeps_the_bound() {
        let engine = engine();
        let df = engine.df();
        let region = |r: &str| Pattern::of_eq(&[("region", Value::from(r))]);
        let groups = [
            Mask::ones(df.n_rows()),
            region("north").coverage(df).unwrap(),
            region("south").coverage(df).unwrap(),
        ];
        for educated in [true, false] {
            let p = Pattern::of_eq(&[("educated", Value::Bool(educated))]);
            for group in &groups {
                for kind in [EstimatorKind::Linear, EstimatorKind::Stratified] {
                    engine.cate(group, &p, &kind);
                }
            }
        }
        let state = engine.export_state();
        assert_eq!(state.estimates.len(), 12);
        let exported = state.estimates.clone();

        let bounded = engine_with_estimate_capacity(4);
        bounded.import_state(state);
        let stats = bounded.cache_stats();
        assert_eq!((stats.entries, stats.evictions), (8, 4));
        assert_eq!((stats.hits, stats.misses), (0, 0));
        // Each estimator imports 6 records into a bound of 4.
        for name in ["linear", "stratified"] {
            let c = bounded.cache_stats_for(name);
            assert_eq!((c.entries, c.evictions), (4, 2), "{name}: {c:?}");
            assert_eq!(c.entries as u64 + c.evictions, 6, "{name}: {c:?}");
        }
        assert_breakdown_sums(&bounded);
        for record in bounded.export_state().estimates {
            assert!(exported.contains(&record), "{record:?}");
        }
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
        let treated = p.coverage(engine.df()).unwrap();
        let q = engine.with_estimator(&EstimatorKind::Linear);
        let a = q
            .walk()
            .cate(GroupHandle::new(&all), engine.pattern_codes(&p), &treated);
        let b = engine.cate(&all, &p, &EstimatorKind::Linear);
        assert_eq!(a, b);
        let stats = engine.cache_stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }
}
