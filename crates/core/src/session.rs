//! The long-lived engine API: [`FairCap::builder`] →
//! [`PrescriptionSession`] → [`PrescriptionSession::solve`].
//!
//! The paper's workload is inherently interactive: one Prescription Ruleset
//! Selection instance (data + DAG + outcome + attribute split + protected
//! group) is re-solved many times under different fairness/coverage
//! constraints and estimators (Tables 3–6 all re-solve one dataset this
//! way). A session is built — and validated — once, then
//! [`solve`](PrescriptionSession::solve) is called per constraint
//! combination:
//!
//! * the [`CateEngine`]'s adjustment-set and estimate caches persist across
//!   solves, so re-solving under a new fairness constraint performs **no
//!   redundant CATE estimation** (observable via
//!   [`PrescriptionSession::cache_stats`]). Step 2 hands each estimate the
//!   lattice node's own mask as its treated rows, so no estimate
//!   recomputes a pattern's coverage over the whole frame;
//! * grouping-pattern mining output is cached per effective Apriori
//!   parameters;
//! * the estimator is chosen per request ([`SolveRequest::estimator`]), so
//!   comparing estimators does not rebuild the session;
//! * every failure mode is a typed [`Error`] — nothing on the build or
//!   solve path panics on user data.

use crate::algorithm::greedy;
use crate::algorithm::{grouping, mine_all_interventions, InterventionCache};
use crate::config::{CoverageConstraint, FairCapConfig, FairnessConstraint};
use crate::error::{Error, Result};
use crate::report::{SolutionReport, SolveStats, StepTimings};
use crate::snapshot::SessionSnapshot;
use faircap_causal::{CateEngine, Dag, Estimator, EstimatorKind};
use faircap_mining::{FrequentPattern, MiningStats};
use faircap_obs::SpanHandle;
use faircap_table::{frame_fingerprint, CacheCounters, DataFrame, Mask, Pattern, ShardedLruCache};
use std::sync::Arc;
use std::time::Instant;

/// Lock shards of the grouping-pattern cache. Distinct Apriori parameter
/// sets are few, so a handful of shards suffices.
const GROUPING_CACHE_SHARDS: usize = 4;

/// Lock shards of the intervention-evaluation cache. One entry per
/// (grouping pattern, estimator, lattice parameters), looked up
/// concurrently by the Step-2 workers — shard more aggressively than the
/// grouping cache.
const INTERVENTION_CACHE_SHARDS: usize = 8;

/// Entry point to the engine API.
///
/// ```no_run
/// use faircap_core::{FairCap, SolveRequest};
/// # fn inputs() -> (faircap_table::DataFrame, faircap_causal::Dag, faircap_table::Pattern) { unimplemented!() }
/// let (df, dag, protected) = inputs();
/// let session = FairCap::builder()
///     .data(df)
///     .dag(dag)
///     .outcome("salary")
///     .immutable(["country", "age"])
///     .mutable(["education", "training"])
///     .protected(protected)
///     .build()?;
/// let report = session.solve(&SolveRequest::default())?;
/// println!("{report}");
/// # Ok::<(), faircap_core::Error>(())
/// ```
pub struct FairCap;

impl FairCap {
    /// Start building a [`PrescriptionSession`].
    pub fn builder() -> SessionBuilder {
        SessionBuilder::default()
    }
}

/// Builder for [`PrescriptionSession`]; validates the whole problem
/// instance up front so `build` is the only place construction can fail.
#[derive(Default)]
pub struct SessionBuilder {
    df: Option<Arc<DataFrame>>,
    dag: Option<Arc<Dag>>,
    outcome: Option<String>,
    immutable: Vec<String>,
    mutable: Vec<String>,
    protected: Option<Pattern>,
    warm_start: Option<SessionSnapshot>,
}

impl SessionBuilder {
    /// The database `D`. Accepts an owned frame or a shared `Arc`.
    pub fn data(mut self, df: impl Into<Arc<DataFrame>>) -> Self {
        self.df = Some(df.into());
        self
    }

    /// The causal DAG `G_D`. Accepts an owned DAG or a shared `Arc`.
    pub fn dag(mut self, dag: impl Into<Arc<Dag>>) -> Self {
        self.dag = Some(dag.into());
        self
    }

    /// Outcome attribute `O` (numeric or boolean column).
    pub fn outcome(mut self, outcome: impl Into<String>) -> Self {
        self.outcome = Some(outcome.into());
        self
    }

    /// Immutable attributes `I` (grouping-pattern vocabulary).
    pub fn immutable<I, S>(mut self, attrs: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.immutable = attrs.into_iter().map(Into::into).collect();
        self
    }

    /// Mutable attributes `M` (intervention-pattern vocabulary).
    pub fn mutable<I, S>(mut self, attrs: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.mutable = attrs.into_iter().map(Into::into).collect();
        self
    }

    /// Protected-group pattern `P_p`.
    pub fn protected(mut self, pattern: Pattern) -> Self {
        self.protected = Some(pattern);
        self
    }

    /// Warm-start the session from a [`SessionSnapshot`] taken on an
    /// earlier session over the same data and outcome (see
    /// [`PrescriptionSession::snapshot`]). The snapshot's estimates are
    /// imported into the engine's estimate cache, so the first solve
    /// behaves like a re-solve: a solve repeating the snapshotted workload
    /// performs **zero** estimate-cache misses.
    ///
    /// `build` fails with [`Error::Snapshot`] when the snapshot's outcome,
    /// row count, DAG or data fingerprint disagrees with the session being
    /// built.
    pub fn warm_start(mut self, snapshot: SessionSnapshot) -> Self {
        self.warm_start = Some(snapshot);
        self
    }

    /// Validate the instance and assemble the session.
    pub fn build(self) -> Result<PrescriptionSession> {
        let df = self.df.ok_or(Error::MissingField("data"))?;
        let dag = self.dag.ok_or(Error::MissingField("dag"))?;
        let outcome = self.outcome.ok_or(Error::MissingField("outcome"))?;
        let protected = self.protected.ok_or(Error::MissingField("protected"))?;

        for (role, attrs) in [("immutable", &self.immutable), ("mutable", &self.mutable)] {
            for a in attrs {
                if !df.has_column(a) {
                    return Err(Error::UnknownAttribute {
                        role,
                        name: a.clone(),
                    });
                }
            }
        }
        for a in &self.immutable {
            if self.mutable.contains(a) {
                return Err(Error::ConflictingRoles {
                    name: a.clone(),
                    roles: ("immutable", "mutable"),
                });
            }
        }
        for (role, attrs) in [("immutable", &self.immutable), ("mutable", &self.mutable)] {
            if attrs.contains(&outcome) {
                return Err(Error::ConflictingRoles {
                    name: outcome.clone(),
                    roles: (role, "outcome"),
                });
            }
        }
        // A rule that sets the protected attribute leaves the protected
        // group rather than helping it, so it is not actionable.
        if let Some(a) = protected
            .attributes()
            .into_iter()
            .find(|a| self.mutable.iter().any(|m| m == a))
        {
            return Err(Error::ConflictingRoles {
                name: a.to_owned(),
                roles: ("mutable", "protected"),
            });
        }
        // A group selected on the outcome has its utilities decided by the
        // selection, not by any intervention.
        if protected.attributes().contains(&outcome.as_str()) {
            return Err(Error::ConflictingRoles {
                name: outcome,
                roles: ("outcome", "protected"),
            });
        }
        // Validates outcome existence and type — before the DAG-membership
        // check, so a missing column is reported as the missing column
        // rather than as a DAG problem.
        let engine = CateEngine::new(Arc::clone(&df), Arc::clone(&dag), &outcome)?;
        if !dag.has_node(&outcome) {
            return Err(Error::OutcomeNotInDag { outcome });
        }
        // Validates the protected pattern's columns; an empty match is fine
        // (protected metrics then degrade to 0, as in the paper's Eq. 5).
        let protected_mask = protected.coverage(&df)?;

        if let Some(snapshot) = self.warm_start {
            if snapshot.outcome != outcome {
                return Err(Error::Snapshot(format!(
                    "snapshot was taken for outcome `{}`, session outcome is `{outcome}`",
                    snapshot.outcome
                )));
            }
            if snapshot.n_rows != df.n_rows() {
                return Err(Error::Snapshot(format!(
                    "snapshot was taken over {} rows, session data has {}",
                    snapshot.n_rows,
                    df.n_rows()
                )));
            }
            // Estimates are data-derived and adjusted by DAG-derived sets:
            // importing them under a changed DAG or changed data would
            // silently produce wrong causal answers, so a mismatched
            // snapshot is refused outright.
            if snapshot.dag_fp != crate::snapshot::dag_fingerprint(&dag) {
                return Err(Error::Snapshot(
                    "snapshot was taken under a different causal DAG".into(),
                ));
            }
            if snapshot.data_fp != frame_fingerprint(&df) {
                return Err(Error::Snapshot(
                    "snapshot was taken over different data contents".into(),
                ));
            }
            engine.import_state(snapshot.state);
        }

        Ok(PrescriptionSession {
            df,
            dag,
            outcome,
            immutable: self.immutable,
            mutable: self.mutable,
            protected,
            protected_mask,
            engine,
            groupings: ShardedLruCache::unbounded(GROUPING_CACHE_SHARDS),
            interventions: ShardedLruCache::unbounded(INTERVENTION_CACHE_SHARDS),
        })
    }
}

/// One solve invocation: the constraint system plus algorithm knobs, and an
/// optional estimator override.
///
/// `config` carries the constraints (`fairness`, `coverage`), the rule
/// budget (`max_rules`, i.e. the `k` of the greedy phase), and every other
/// knob of [`FairCapConfig`]. `estimator` — when set — overrides
/// `config.estimator` with an arbitrary [`Estimator`] implementation,
/// allowing per-request estimator selection without rebuilding the session.
///
/// # Examples
///
/// Requests are built fluently; the same session can serve each of these
/// without re-estimating anything it already estimated:
///
/// ```
/// use faircap_causal::EstimatorKind;
/// use faircap_core::{FairnessConstraint, FairnessScope, SolveRequest};
///
/// let fair_aipw = SolveRequest::default()
///     .fairness(FairnessConstraint::StatisticalParity {
///         scope: FairnessScope::Group,
///         epsilon: 10_000.0,
///     })
///     .max_rules(5)
///     .estimator_kind(EstimatorKind::Aipw);
/// assert_eq!(fair_aipw.config.max_rules, 5);
/// assert_eq!(fair_aipw.config.estimator, EstimatorKind::Aipw);
/// ```
#[derive(Clone)]
pub struct SolveRequest {
    /// Constraints and algorithm knobs.
    pub config: FairCapConfig,
    /// Estimator override; `None` uses `config.estimator`.
    pub estimator: Option<Arc<dyn Estimator>>,
    /// Step-2 executor worker count. `None` falls back to the
    /// `FAIRCAP_WORKERS` environment variable, then to
    /// `available_parallelism` (see [`crate::exec::resolve_workers`]).
    pub workers: Option<usize>,
    /// Whether this solve may read and populate the session's mining
    /// caches (grouping patterns and intervention evaluations). On by
    /// default; benchmarks turn it off to measure the uncached path.
    pub use_solve_cache: bool,
    /// Whether the caller wants the span tree of this solve echoed back
    /// (the wire-level `trace: true` field). The session itself only
    /// records spans when [`SolveRequest::span`] is set; this flag tells
    /// the serving layer to embed the finished tree in the response.
    pub trace: bool,
    /// Tracing parent: when set, the solve records `step1_grouping` /
    /// `step2_interventions` / `step3_greedy` child spans (and, beneath
    /// Step 2, per-group evaluation and per-estimate spans) under this
    /// handle. `None` (the default) traces nothing.
    pub span: Option<SpanHandle>,
}

impl Default for SolveRequest {
    fn default() -> Self {
        SolveRequest {
            config: FairCapConfig::default(),
            estimator: None,
            workers: None,
            use_solve_cache: true,
            trace: false,
            span: None,
        }
    }
}

impl SolveRequest {
    /// A request with default (unconstrained) configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the fairness constraint.
    pub fn fairness(mut self, fairness: FairnessConstraint) -> Self {
        self.config.fairness = fairness;
        self
    }

    /// Set the coverage constraint.
    pub fn coverage(mut self, coverage: CoverageConstraint) -> Self {
        self.config.coverage = coverage;
        self
    }

    /// Cap the number of selected rules (the greedy `k`).
    pub fn max_rules(mut self, k: usize) -> Self {
        self.config.max_rules = k;
        self
    }

    /// Select one of the built-in estimators.
    pub fn estimator_kind(mut self, kind: EstimatorKind) -> Self {
        self.config.estimator = kind;
        self.estimator = None;
        self
    }

    /// Plug in a custom estimator for this request.
    pub fn estimator(mut self, estimator: Arc<dyn Estimator>) -> Self {
        self.estimator = Some(estimator);
        self
    }

    /// Pin the Step-2 executor to `n` worker threads for this request.
    pub fn workers(mut self, n: usize) -> Self {
        self.workers = Some(n);
        self
    }

    /// Enable or disable the session's mining caches for this solve.
    pub fn use_solve_cache(mut self, on: bool) -> Self {
        self.use_solve_cache = on;
        self
    }

    /// Ask the serving layer to echo this solve's span tree back in the
    /// response (wire `trace: true`). Has no effect on the session itself;
    /// pair with [`SolveRequest::span`] to actually record spans.
    pub fn trace(mut self, on: bool) -> Self {
        self.trace = on;
        self
    }

    /// Record this solve's step spans under `span`.
    pub fn span(mut self, span: SpanHandle) -> Self {
        self.span = Some(span);
        self
    }
}

impl From<FairCapConfig> for SolveRequest {
    fn from(config: FairCapConfig) -> Self {
        SolveRequest {
            config,
            ..SolveRequest::default()
        }
    }
}

impl std::fmt::Debug for SolveRequest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SolveRequest")
            .field("config", &self.config)
            .field(
                "estimator",
                &self.estimator.as_ref().map(|e| e.name().to_owned()),
            )
            .field("workers", &self.workers)
            .field("use_solve_cache", &self.use_solve_cache)
            .field("trace", &self.trace)
            .field("span", &self.span.is_some())
            .finish()
    }
}

/// Cache key for grouping-pattern mining output: the effective Apriori
/// parameters after §5.4's threshold raising and protected-support filter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct GroupingKey {
    support_bits: u64,
    max_len: usize,
    protected_need: usize,
}

impl GroupingKey {
    fn of(config: &FairCapConfig, protected: &Mask) -> GroupingKey {
        let mut min_support = config.apriori_threshold;
        let mut protected_need = 0;
        if let CoverageConstraint::Rule {
            theta,
            theta_protected,
        } = config.coverage
        {
            min_support = min_support.max(theta);
            protected_need = (theta_protected * protected.count() as f64).ceil() as usize;
        }
        GroupingKey {
            support_bits: min_support.to_bits(),
            max_len: config.max_group_len,
            protected_need,
        }
    }
}

/// A validated, long-lived Prescription Ruleset Selection instance.
///
/// Owns the data, the DAG, the [`CateEngine`] (with its adjustment-set
/// and estimate caches), and the grouping-pattern mining cache.
/// Build once via [`FairCap::builder`], then call
/// [`solve`](Self::solve) repeatedly — each call may change constraints,
/// estimator, and rule budget while reusing every cache the previous calls
/// warmed up. All methods take `&self`; the session is `Sync` and can serve
/// concurrent solves.
///
/// # Examples
///
/// Build a session from an in-memory frame and DAG, then solve:
///
/// ```
/// use faircap_causal::Dag;
/// use faircap_core::{FairCap, SolveRequest};
/// use faircap_table::{DataFrame, Pattern, Value};
///
/// // 40 rows: one immutable attribute (`grp`), one mutable treatment.
/// let n = 40;
/// let grp: Vec<&str> = (0..n).map(|i| if i % 4 == 0 { "p" } else { "np" }).collect();
/// let treat: Vec<&str> = (0..n).map(|i| if i % 2 == 0 { "yes" } else { "no" }).collect();
/// let outcome: Vec<f64> = (0..n)
///     .map(|i| {
///         let base = if i % 4 == 0 { 40.0 } else { 50.0 };
///         let lift = if i % 2 == 0 { 10.0 } else { 0.0 };
///         base + lift + (i % 5) as f64 * 0.1 // variation so variances are non-zero
///     })
///     .collect();
/// let df = DataFrame::builder()
///     .cat("grp", &grp)
///     .cat("treat", &treat)
///     .float("outcome", outcome)
///     .build()
///     .unwrap();
/// let dag = Dag::parse_edge_list("grp -> outcome\ntreat -> outcome").unwrap();
///
/// let session = FairCap::builder()
///     .data(df)
///     .dag(dag)
///     .outcome("outcome")
///     .immutable(["grp"])
///     .mutable(["treat"])
///     .protected(Pattern::of_eq(&[("grp", Value::from("p"))]))
///     .build()?;
/// let report = session.solve(&SolveRequest::default())?;
/// assert!(report.size() <= 20);
/// # Ok::<(), faircap_core::Error>(())
/// ```
pub struct PrescriptionSession {
    df: Arc<DataFrame>,
    dag: Arc<Dag>,
    outcome: String,
    immutable: Vec<String>,
    mutable: Vec<String>,
    protected: Pattern,
    protected_mask: Mask,
    engine: CateEngine,
    groupings: ShardedLruCache<GroupingKey, Arc<Vec<FrequentPattern>>>,
    interventions: InterventionCache,
}

impl std::fmt::Debug for PrescriptionSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PrescriptionSession")
            .field("n_rows", &self.df.n_rows())
            .field("outcome", &self.outcome)
            .field("immutable", &self.immutable)
            .field("mutable", &self.mutable)
            .field("protected", &self.protected.to_string())
            .field("cache_stats", &self.cache_stats())
            .finish_non_exhaustive()
    }
}

impl PrescriptionSession {
    /// The database `D`.
    pub fn df(&self) -> &DataFrame {
        &self.df
    }

    /// The causal DAG `G_D`.
    pub fn dag(&self) -> &Dag {
        &self.dag
    }

    /// Outcome attribute `O`.
    pub fn outcome(&self) -> &str {
        &self.outcome
    }

    /// Immutable attributes `I`.
    pub fn immutable(&self) -> &[String] {
        &self.immutable
    }

    /// Mutable attributes `M`.
    pub fn mutable(&self) -> &[String] {
        &self.mutable
    }

    /// Protected-group pattern `P_p`.
    pub fn protected(&self) -> &Pattern {
        &self.protected
    }

    /// Mask of protected rows (precomputed at build time).
    pub fn protected_mask(&self) -> &Mask {
        &self.protected_mask
    }

    /// The underlying CATE engine (shared caches, hit counters).
    pub fn engine(&self) -> &CateEngine {
        &self.engine
    }

    /// Estimate-cache hit/miss counters accumulated over all solves,
    /// aggregated over estimators.
    ///
    /// # Examples
    ///
    /// A constraint-only re-solve is served entirely from cache:
    ///
    /// ```no_run
    /// # use faircap_core::{FairCap, SolveRequest};
    /// # fn session() -> faircap_core::PrescriptionSession { unimplemented!() }
    /// let session = session();
    /// session.solve(&SolveRequest::default())?;
    /// let warm = session.cache_stats();
    /// session.solve(&SolveRequest::default().max_rules(3))?;
    /// assert_eq!(session.cache_stats().misses, warm.misses);
    /// # Ok::<(), faircap_core::Error>(())
    /// ```
    pub fn cache_stats(&self) -> CacheCounters {
        self.engine.cache_stats()
    }

    /// Estimate-cache counters broken down per estimator name — an
    /// estimator sweep on one session can attribute hits and misses to
    /// each estimator it used. See
    /// [`CateEngine::cache_stats_by_estimator`].
    pub fn cache_stats_by_estimator(&self) -> std::collections::BTreeMap<String, CacheCounters> {
        self.engine.cache_stats_by_estimator()
    }

    /// Hit/miss/eviction counters of the grouping-pattern cache (Step-1
    /// output per effective Apriori parameter set).
    pub fn grouping_cache_stats(&self) -> CacheCounters {
        self.groupings.counters()
    }

    /// Hit/miss/eviction counters of the intervention-evaluation cache
    /// (Step-2 phase-1 output per grouping pattern and estimator).
    pub fn intervention_cache_stats(&self) -> CacheCounters {
        self.interventions.counters()
    }

    /// Capture the session's CATE estimates — including not-estimable
    /// verdicts — as a [`SessionSnapshot`] that can be serialized
    /// ([`SessionSnapshot::encode`]) and restored into a new session over
    /// the same data via [`SessionBuilder::warm_start`]. A restored session
    /// re-solving the same workload performs zero estimate-cache misses.
    pub fn snapshot(&self) -> SessionSnapshot {
        SessionSnapshot {
            outcome: self.outcome.clone(),
            n_rows: self.df.n_rows(),
            dag_fp: crate::snapshot::dag_fingerprint(&self.dag),
            data_fp: frame_fingerprint(&self.df),
            state: self.engine.export_state(),
        }
    }

    /// Solve the instance under one constraint/estimator combination.
    ///
    /// Reuses every cache warmed by previous solves on this session; a
    /// repeat solve that only changes the fairness constraint performs no
    /// new CATE estimation at all.
    pub fn solve(&self, request: &SolveRequest) -> Result<SolutionReport> {
        let config = &request.config;
        validate_config(config)?;
        let estimator: &dyn Estimator = request.estimator.as_deref().unwrap_or(&config.estimator);
        let query = self.engine.with_estimator(estimator);
        let span = request.span.as_ref();

        // ---- Step 1: grouping patterns (§5.1), cached per parameters. ----
        let t0 = Instant::now();
        let step1_span = span.map(|h| h.child("step1_grouping"));
        let (groups, grouping_stats) = self.grouping_patterns(config, request.use_solve_cache)?;
        drop(step1_span);
        let grouping_time = t0.elapsed();

        // ---- Step 2: intervention mining (§5.2), work-stealing fan-out
        // across groups, phase-1 evaluations cached per group. ----
        let t1 = Instant::now();
        let step2_span = span.map(|h| h.child("step2_interventions"));
        let step2_handle = step2_span.as_ref().map(|s| s.handle());
        let query = query.with_span(step2_handle.clone());
        let step2 = mine_all_interventions(
            &query,
            &groups,
            &self.protected_mask,
            &self.mutable,
            config,
            request.workers,
            request
                .use_solve_cache
                .then_some((&self.interventions, estimator.name())),
            step2_handle.as_ref(),
        );
        drop(step2_span);
        let n_candidates = step2.rules.len();
        let intervention_time = t1.elapsed();

        // ---- Step 3: greedy selection (§5.3). ----
        let t2 = Instant::now();
        let step3_span = span.map(|h| h.child("step3_greedy"));
        let (outcome, greedy_stats) = greedy::greedy_select_with_stats(
            step2.rules,
            config,
            self.df.n_rows(),
            &self.protected_mask,
        );
        drop(step3_span);
        let greedy_time = t2.elapsed();

        let timings = StepTimings {
            grouping: grouping_time,
            intervention: intervention_time,
            greedy: greedy_time,
        };
        let stats = SolveStats {
            grouping: grouping_stats,
            lattice: step2.lattice,
            greedy: greedy_stats,
            intervention_cache_hits: step2.cache_hits,
            intervention_cache_misses: step2.cache_misses,
        };

        Ok(SolutionReport {
            label: config.label(),
            rules: outcome.selected,
            summary: outcome.summary,
            constraints_met: outcome.constraints_met,
            n_grouping_patterns: groups.len(),
            n_candidates,
            timings,
            stats,
            exec: step2.exec,
        })
    }

    /// Step-1 output for the request's effective Apriori parameters,
    /// mining at most once per distinct parameter set. The returned stats
    /// describe work performed by **this** call — zero on a cache hit.
    fn grouping_patterns(
        &self,
        config: &FairCapConfig,
        use_cache: bool,
    ) -> Result<(Arc<Vec<FrequentPattern>>, MiningStats)> {
        let key = GroupingKey::of(config, &self.protected_mask);
        if use_cache {
            if let Some(hit) = self.groupings.get(&key) {
                return Ok((hit, MiningStats::default()));
            }
        }
        let (mined, stats) = grouping::mine_grouping_patterns_with_stats(
            &self.df,
            &self.immutable,
            &self.protected_mask,
            config,
        )?;
        let mined = Arc::new(mined);
        if use_cache {
            self.groupings.insert(key, Arc::clone(&mined));
        }
        Ok((mined, stats))
    }
}

fn validate_config(config: &FairCapConfig) -> Result<()> {
    let unit = 0.0..=1.0;
    if !config.apriori_threshold.is_finite() || !unit.contains(&config.apriori_threshold) {
        return Err(Error::InvalidRequest(format!(
            "apriori_threshold must be in [0, 1], got {}",
            config.apriori_threshold
        )));
    }
    if !config.alpha.is_finite() || !unit.contains(&config.alpha) {
        return Err(Error::InvalidRequest(format!(
            "alpha must be in [0, 1], got {}",
            config.alpha
        )));
    }
    match config.coverage {
        CoverageConstraint::None => {}
        CoverageConstraint::Group {
            theta,
            theta_protected,
        }
        | CoverageConstraint::Rule {
            theta,
            theta_protected,
        } => {
            for (name, v) in [("theta", theta), ("theta_protected", theta_protected)] {
                if !v.is_finite() || !unit.contains(&v) {
                    return Err(Error::InvalidRequest(format!(
                        "coverage {name} must be in [0, 1], got {v}"
                    )));
                }
            }
        }
    }
    match config.fairness {
        FairnessConstraint::None => {}
        FairnessConstraint::StatisticalParity { epsilon, .. } => {
            if !epsilon.is_finite() || epsilon < 0.0 {
                return Err(Error::InvalidRequest(format!(
                    "statistical-parity epsilon must be finite and non-negative, got {epsilon}"
                )));
            }
        }
        FairnessConstraint::BoundedGroupLoss { tau, .. } => {
            if !tau.is_finite() {
                return Err(Error::InvalidRequest(format!(
                    "bounded-group-loss tau must be finite, got {tau}"
                )));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)] // config tweaking reads better imperatively
mod tests {
    use super::*;
    use crate::config::FairnessScope;
    use faircap_causal::scm::{bernoulli, normal, Scm};
    use faircap_causal::CausalError;
    use faircap_table::{TableError, Value};

    /// One immutable (segment), protected subgroup, two binary treatments
    /// with planted unfair/fair effects.
    fn fixture() -> (DataFrame, Dag, Pattern) {
        fixture_with_seed(23)
    }

    fn fixture_with_seed(seed: u64) -> (DataFrame, Dag, Pattern) {
        let scm = Scm::new()
            .categorical("segment", &[("a", 0.5), ("b", 0.5)])
            .unwrap()
            .categorical("grp", &[("p", 0.3), ("np", 0.7)])
            .unwrap()
            .node(
                "big",
                &[],
                Box::new(|_, rng| {
                    Value::Str(if bernoulli(rng, 0.4) { "yes" } else { "no" }.into())
                }),
            )
            .unwrap()
            .node(
                "fair",
                &[],
                Box::new(|_, rng| {
                    Value::Str(if bernoulli(rng, 0.4) { "yes" } else { "no" }.into())
                }),
            )
            .unwrap()
            .node(
                "outcome",
                &["segment", "grp", "big", "fair"],
                Box::new(|row, rng| {
                    let p = row.str("grp") == "p";
                    let mut v = 50.0;
                    if row.str("segment") == "a" {
                        v += 5.0;
                    }
                    if row.str("big") == "yes" {
                        v += if p { 6.0 } else { 30.0 };
                    }
                    if row.str("fair") == "yes" {
                        v += if p { 11.0 } else { 12.0 };
                    }
                    Value::Float(v + normal(rng, 0.0, 4.0))
                }),
            )
            .unwrap();
        let df = scm.sample(5000, seed).unwrap();
        let dag = scm.dag();
        (df, dag, Pattern::of_eq(&[("grp", Value::from("p"))]))
    }

    fn session() -> PrescriptionSession {
        let (df, dag, prot) = fixture();
        FairCap::builder()
            .data(df)
            .dag(dag)
            .outcome("outcome")
            .immutable(["segment", "grp"])
            .mutable(["big", "fair"])
            .protected(prot)
            .build()
            .unwrap()
    }

    #[test]
    fn end_to_end_unconstrained() {
        let s = session();
        let report = s.solve(&SolveRequest::default()).unwrap();
        assert!(!report.rules.is_empty());
        assert!(report.summary.expected > 0.0);
        assert!(report.n_grouping_patterns > 0);
        // Unconstrained: the big unfair treatment should dominate.
        assert!(
            report.summary.unfairness > 10.0,
            "unconstrained unfairness {}",
            report.summary.unfairness
        );
    }

    #[test]
    fn resolving_under_new_constraint_reuses_estimates() {
        let s = session();
        let unconstrained = s.solve(&SolveRequest::default()).unwrap();
        let after_first = s.cache_stats();
        assert!(after_first.misses > 0);

        let fair = s
            .solve(
                &SolveRequest::default().fairness(FairnessConstraint::StatisticalParity {
                    scope: FairnessScope::Group,
                    epsilon: 5.0,
                }),
            )
            .unwrap();
        let after_second = s.cache_stats();
        assert_eq!(
            after_second.misses, after_first.misses,
            "constraint-only re-solve must not estimate anything new"
        );
        // Stronger than estimate-cache hits: the intervention cache replays
        // whole phase-1 evaluations, so the re-solve never reaches the
        // estimate cache at all.
        assert_eq!(
            after_second.hits, after_first.hits,
            "fully cached re-solve performs no estimate lookups"
        );
        let icache = s.intervention_cache_stats();
        assert!(icache.hits > 0, "re-solve must hit the intervention cache");

        assert!(fair.constraints_met, "group SP must be satisfiable here");
        assert!(fair.summary.unfairness.abs() <= 5.0);
        // Fairness costs utility (Table 4's headline phenomenon).
        assert!(fair.summary.expected <= unconstrained.summary.expected + 1e-9);
        assert!(fair.summary.unfairness.abs() < unconstrained.summary.unfairness.abs());
    }

    #[test]
    fn end_to_end_group_coverage() {
        let s = session();
        let report = s
            .solve(
                &SolveRequest::default().coverage(CoverageConstraint::Group {
                    theta: 0.9,
                    theta_protected: 0.9,
                }),
            )
            .unwrap();
        assert!(report.constraints_met);
        assert!(report.summary.coverage >= 0.9);
        assert!(report.summary.coverage_protected >= 0.9);
    }

    #[test]
    fn parallel_and_serial_agree() {
        let s = session();
        let mut serial_cfg = FairCapConfig::default();
        serial_cfg.parallel = false;
        let mut parallel_cfg = FairCapConfig::default();
        parallel_cfg.parallel = true;
        let a = s.solve(&SolveRequest::from(serial_cfg)).unwrap();
        let b = s.solve(&SolveRequest::from(parallel_cfg)).unwrap();
        let ra: Vec<String> = a.rules.iter().map(|r| r.to_string()).collect();
        let rb: Vec<String> = b.rules.iter().map(|r| r.to_string()).collect();
        assert_eq!(ra, rb);
        assert_eq!(a.summary, b.summary);
    }

    #[test]
    fn per_request_estimator_without_rebuild() {
        let s = session();
        let lin = s
            .solve(&SolveRequest::default().estimator_kind(EstimatorKind::Linear))
            .unwrap();
        let strat = s
            .solve(&SolveRequest::default().estimator_kind(EstimatorKind::Stratified))
            .unwrap();
        assert!(!lin.rules.is_empty() && !strat.rules.is_empty());
        // A custom estimator object routes through the same engine.
        let custom: Arc<dyn Estimator> = Arc::new(EstimatorKind::Linear);
        let via_custom = s.solve(&SolveRequest::default().estimator(custom)).unwrap();
        assert_eq!(
            lin.summary, via_custom.summary,
            "Arc<dyn Estimator> must match the built-in path"
        );
    }

    #[test]
    fn aipw_and_matching_estimators_solve() {
        let s = session();
        for kind in [EstimatorKind::Aipw, EstimatorKind::Matching] {
            let report = s
                .solve(&SolveRequest::default().estimator_kind(kind))
                .unwrap();
            assert!(!report.rules.is_empty(), "{kind:?} selected no rules");
            assert!(report.summary.expected > 0.0, "{kind:?}");
        }
        // The sweep's cache traffic is attributable per estimator name.
        let per = s.cache_stats_by_estimator();
        assert!(per["aipw"].misses > 0);
        assert!(per["matching"].misses > 0);
        assert_eq!(
            per.values().map(|s| s.misses).sum::<u64>(),
            s.cache_stats().misses
        );
    }

    #[test]
    fn timings_are_populated() {
        let s = session();
        let report = s.solve(&SolveRequest::default()).unwrap();
        let t = &report.timings;
        assert!(t.grouping.as_nanos() > 0);
        assert!(t.intervention.as_nanos() > 0);
        assert_eq!(t.total(), t.grouping + t.intervention + t.greedy);
    }

    #[test]
    fn builder_rejects_missing_fields() {
        let (df, dag, prot) = fixture();
        let err = FairCap::builder()
            .data(df.clone())
            .dag(dag.clone())
            .protected(prot.clone())
            .build()
            .unwrap_err();
        assert_eq!(err, Error::MissingField("outcome"));
        let err = FairCap::builder().build().unwrap_err();
        assert_eq!(err, Error::MissingField("data"));
    }

    #[test]
    fn builder_rejects_unknown_attributes() {
        let (df, dag, prot) = fixture();
        let err = FairCap::builder()
            .data(df.clone())
            .dag(dag.clone())
            .outcome("outcome")
            .immutable(["segment", "ghost"])
            .mutable(["big"])
            .protected(prot.clone())
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            Error::UnknownAttribute { role: "immutable", ref name } if name == "ghost"
        ));
        // A column missing from the data is reported as the missing column,
        // even if it is also absent from the DAG.
        let err = FairCap::builder()
            .data(df.clone())
            .dag(dag)
            .outcome("no_such_outcome")
            .protected(prot.clone())
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            Error::Table(TableError::UnknownColumn(ref c)) if c == "no_such_outcome"
        ));
        // A real column that the DAG does not model is a DAG problem.
        let mut tiny_dag = Dag::new();
        tiny_dag.ensure_node("segment");
        let err = FairCap::builder()
            .data(df)
            .dag(tiny_dag)
            .outcome("outcome")
            .protected(prot)
            .build()
            .unwrap_err();
        assert!(matches!(err, Error::OutcomeNotInDag { .. }));
    }

    #[test]
    fn builder_rejects_conflicting_roles() {
        let (df, dag, prot) = fixture();
        let err = FairCap::builder()
            .data(df.clone())
            .dag(dag.clone())
            .outcome("outcome")
            .immutable(["segment", "big"])
            .mutable(["big"])
            .protected(prot.clone())
            .build()
            .unwrap_err();
        assert!(matches!(err, Error::ConflictingRoles { ref name, .. } if name == "big"));
        let err = FairCap::builder()
            .data(df.clone())
            .dag(dag.clone())
            .outcome("outcome")
            .mutable(["outcome"])
            .protected(prot.clone())
            .build()
            .unwrap_err();
        assert!(matches!(err, Error::ConflictingRoles { .. }));
        // The protected pattern's attribute may not be mutable.
        let err = FairCap::builder()
            .data(df.clone())
            .dag(dag.clone())
            .outcome("outcome")
            .immutable(["segment"])
            .mutable(["big", "grp"])
            .protected(prot.clone())
            .build()
            .unwrap_err();
        assert!(
            matches!(err, Error::ConflictingRoles { ref name, roles: ("mutable", "protected") }
                if name == "grp"),
            "{err}"
        );
        // Nor may it be the outcome, even beside another attribute.
        let outcome = df.get(0, "outcome").unwrap();
        let err = FairCap::builder()
            .data(df)
            .dag(dag)
            .outcome("outcome")
            .mutable(["big"])
            .protected(prot.and(&Pattern::of_eq(&[("outcome", outcome)])))
            .build()
            .unwrap_err();
        assert!(
            matches!(err, Error::ConflictingRoles { ref name, roles: ("outcome", "protected") }
                if name == "outcome"),
            "{err}"
        );
    }

    #[test]
    fn builder_rejects_bad_protected_pattern() {
        let (df, dag, _) = fixture();
        let err = FairCap::builder()
            .data(df)
            .dag(dag)
            .outcome("outcome")
            .protected(Pattern::of_eq(&[("ghost", Value::from("x"))]))
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            Error::Table(TableError::UnknownColumn(ref c)) if c == "ghost"
        ));
    }

    #[test]
    fn builder_rejects_categorical_outcome() {
        let (df, dag, prot) = fixture();
        let err = FairCap::builder()
            .data(df)
            .dag(dag)
            .outcome("segment")
            .protected(prot)
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            Error::Causal(CausalError::InvalidOutcome { .. })
        ));
    }

    #[test]
    fn solve_rejects_out_of_range_config() {
        let s = session();
        let mut cfg = FairCapConfig::default();
        cfg.apriori_threshold = f64::NAN;
        assert!(matches!(
            s.solve(&SolveRequest::from(cfg)),
            Err(Error::InvalidRequest(_))
        ));
        let mut cfg = FairCapConfig::default();
        cfg.coverage = CoverageConstraint::Group {
            theta: 1.5,
            theta_protected: 0.5,
        };
        assert!(matches!(
            s.solve(&SolveRequest::from(cfg)),
            Err(Error::InvalidRequest(_))
        ));
    }

    #[test]
    fn grouping_cache_reused_across_constraint_changes() {
        let s = session();
        s.solve(&SolveRequest::default()).unwrap();
        assert_eq!(s.groupings.len(), 1);
        s.solve(
            &SolveRequest::default().fairness(FairnessConstraint::BoundedGroupLoss {
                scope: FairnessScope::Group,
                tau: 0.0,
            }),
        )
        .unwrap();
        assert_eq!(s.groupings.len(), 1, "same key → no re-mine");
        assert!(s.grouping_cache_stats().hits >= 1);
        let mut cfg = FairCapConfig::default();
        cfg.coverage = CoverageConstraint::Rule {
            theta: 0.2,
            theta_protected: 0.1,
        };
        s.solve(&SolveRequest::from(cfg)).unwrap();
        assert_eq!(s.groupings.len(), 2, "rule coverage → new key");
    }

    #[test]
    fn bounded_grouping_cache_evicts_lru() {
        let mut s = session();
        s.groupings = ShardedLruCache::new(1, GROUPING_CACHE_SHARDS);
        // Three distinct grouping keys under a bound of 1.
        for theta in [0.15, 0.2, 0.25] {
            let mut cfg = FairCapConfig::default();
            cfg.coverage = CoverageConstraint::Rule {
                theta,
                theta_protected: 0.0,
            };
            s.solve(&SolveRequest::from(cfg)).unwrap();
            assert!(s.groupings.len() <= 1, "bound violated");
        }
        assert_eq!(s.grouping_cache_stats().evictions, 2);
    }

    #[test]
    fn intervention_cache_equivalence_and_bypass() {
        let s = session();
        let cold = s.solve(&SolveRequest::default()).unwrap();
        assert_eq!(cold.stats.intervention_cache_hits, 0);
        assert!(cold.stats.intervention_cache_misses > 0);
        assert!(cold.stats.lattice.evaluated > 0);

        // Constraint-only re-solve: all groups replay from the cache, no
        // lattice work — and the ruleset matches an uncached re-solve
        // bit-for-bit.
        let fair = SolveRequest::default().fairness(FairnessConstraint::StatisticalParity {
            scope: FairnessScope::Group,
            epsilon: 5.0,
        });
        let warm = s.solve(&fair).unwrap();
        assert_eq!(warm.stats.intervention_cache_misses, 0);
        assert_eq!(
            warm.stats.intervention_cache_hits,
            warm.n_grouping_patterns as u64
        );
        assert_eq!(warm.stats.lattice, faircap_mining::MiningStats::default());

        let uncached = s.solve(&fair.clone().use_solve_cache(false)).unwrap();
        assert_eq!(uncached.stats.intervention_cache_hits, 0);
        assert_eq!(uncached.stats.intervention_cache_misses, 0);
        assert!(uncached.stats.lattice.evaluated > 0);
        let a: Vec<String> = warm.rules.iter().map(|r| r.to_string()).collect();
        let b: Vec<String> = uncached.rules.iter().map(|r| r.to_string()).collect();
        assert_eq!(a, b, "cached and uncached solves must agree exactly");
        assert_eq!(warm.summary, uncached.summary);

        // A different estimator is a different key: misses again.
        let strat = s
            .solve(&SolveRequest::default().estimator_kind(EstimatorKind::Stratified))
            .unwrap();
        assert!(strat.stats.intervention_cache_misses > 0);
    }

    #[test]
    fn bounded_intervention_cache_evicts() {
        let mut s = session();
        s.interventions = ShardedLruCache::new(1, INTERVENTION_CACHE_SHARDS);
        let report = s.solve(&SolveRequest::default()).unwrap();
        assert!(report.n_grouping_patterns > 1);
        let counters = s.intervention_cache_stats();
        assert!(counters.entries <= 1, "bound violated");
        assert!(counters.evictions > 0);
    }

    #[test]
    fn parallel_solve_reports_exec_stats() {
        let s = session();
        let report = s.solve(&SolveRequest::default().workers(3)).unwrap();
        let stats = report.exec.expect("parallel solve has exec stats");
        assert_eq!(stats.tasks, report.n_grouping_patterns);
        assert!(stats.workers <= 3);
        assert!(stats.utilization() > 0.0);
        let mut serial = FairCapConfig::default();
        serial.parallel = false;
        let report = s.solve(&SolveRequest::from(serial)).unwrap();
        assert!(report.exec.is_none());
    }

    #[test]
    fn snapshot_warm_start_solves_without_misses() {
        let (df, dag, prot) = fixture();
        let build = |df: &DataFrame, dag: &Dag| {
            FairCap::builder()
                .data(df.clone())
                .dag(dag.clone())
                .outcome("outcome")
                .immutable(["segment", "grp"])
                .mutable(["big", "fair"])
                .protected(prot.clone())
        };
        let cold = build(&df, &dag).build().unwrap();
        let report_cold = cold.solve(&SolveRequest::default()).unwrap();
        let snapshot = cold.snapshot();
        assert_eq!(snapshot.n_rows, df.n_rows());
        assert!(!snapshot.state.estimates.is_empty());

        // Serialization round trip, then restore into a fresh session.
        let decoded = SessionSnapshot::decode(&snapshot.encode()).unwrap();
        let warm = build(&df, &dag).warm_start(decoded).build().unwrap();
        let report_warm = warm.solve(&SolveRequest::default()).unwrap();
        let stats = warm.cache_stats();
        assert_eq!(stats.misses, 0, "warm solve must be all cache hits");
        assert!(stats.hits > 0);
        let a: Vec<String> = report_cold.rules.iter().map(|r| r.to_string()).collect();
        let b: Vec<String> = report_warm.rules.iter().map(|r| r.to_string()).collect();
        assert_eq!(a, b, "warm solve must reproduce the cold ruleset");
        assert_eq!(report_cold.summary, report_warm.summary);
    }

    #[test]
    fn warm_start_rejects_mismatched_snapshot() {
        let s = session();
        s.solve(&SolveRequest::default()).unwrap();
        let mut snapshot = s.snapshot();
        snapshot.n_rows += 1;
        let (df, dag, prot) = fixture();
        let err = FairCap::builder()
            .data(df.clone())
            .dag(dag.clone())
            .outcome("outcome")
            .immutable(["segment", "grp"])
            .mutable(["big", "fair"])
            .protected(prot.clone())
            .warm_start(snapshot)
            .build()
            .unwrap_err();
        assert!(matches!(err, Error::Snapshot(_)), "{err}");
        let mut snapshot = s.snapshot();
        snapshot.outcome = "other".into();
        let err = FairCap::builder()
            .data(df.clone())
            .dag(dag.clone())
            .outcome("outcome")
            .immutable(["segment", "grp"])
            .mutable(["big", "fair"])
            .protected(prot.clone())
            .warm_start(snapshot)
            .build()
            .unwrap_err();
        assert!(matches!(err, Error::Snapshot(_)), "{err}");
        // A changed DAG invalidates the snapshot (estimates are adjusted by
        // DAG-derived sets) …
        let mut other_dag = dag.clone();
        other_dag.ensure_node("extra");
        other_dag.add_edge_by_name("extra", "outcome").unwrap();
        let err = FairCap::builder()
            .data(df.clone())
            .dag(other_dag)
            .outcome("outcome")
            .immutable(["segment", "grp"])
            .mutable(["big", "fair"])
            .protected(prot.clone())
            .warm_start(s.snapshot())
            .build()
            .unwrap_err();
        assert!(
            matches!(err, Error::Snapshot(ref msg) if msg.contains("DAG")),
            "{err}"
        );
        // … and so does changed data with the same shape (estimates are
        // data-derived): same SCM, different sampling seed.
        let (df2, dag2, prot2) = fixture_with_seed(29);
        let err = FairCap::builder()
            .data(df2)
            .dag(dag2)
            .outcome("outcome")
            .immutable(["segment", "grp"])
            .mutable(["big", "fair"])
            .protected(prot2)
            .warm_start(s.snapshot())
            .build()
            .unwrap_err();
        assert!(
            matches!(err, Error::Snapshot(ref msg) if msg.contains("data")),
            "{err}"
        );
    }
}
