//! A named registry of live [`PrescriptionSession`]s — the unit of state a
//! serving front end holds.
//!
//! The serving model is one warm session per registered dataset: sessions
//! are `Sync`, so any number of request workers can call
//! [`RegisteredSession::solve`] concurrently against the same entry while
//! sharing its CATE and grouping caches. The registry wraps each session
//! with serving-oriented bookkeeping (solve counters, the sums of the
//! solves' own [`StepTimings`] and [`SolveStats`], the last solve's
//! [`ExecStats`]) that the `/v1/metrics` endpoint reports. An entry is the
//! one ledger of its session's solves.

use crate::error::Result;
use crate::exec::ExecStats;
use crate::report::{SolutionReport, SolveStats, StepTimings};
use crate::session::{PrescriptionSession, SolveRequest};
use parking_lot::{Mutex, RwLock};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Provenance of a warm boot: which snapshot file a session was restored
/// from and how long the restore took. Recorded by the serving CLI after a
/// successful [`warm_start`] and surfaced on `/v1/metrics` and `/metrics`.
///
/// [`warm_start`]: crate::session::SessionBuilder::warm_start
#[derive(Debug, Clone, PartialEq)]
pub struct WarmBootInfo {
    /// Path of the snapshot file the session was restored from.
    pub snapshot_path: String,
    /// Wall-clock milliseconds spent reading and importing the snapshot.
    pub restore_ms: f64,
}

/// A session plus its serving bookkeeping. Obtained from
/// [`SessionRegistry::get`]; all methods take `&self` and are safe to call
/// from any number of threads.
pub struct RegisteredSession {
    name: String,
    session: Arc<PrescriptionSession>,
    solves_ok: AtomicU64,
    solves_err: AtomicU64,
    solves_coalesced: AtomicU64,
    ledger: Mutex<Ledger>,
    warm_boot: Mutex<Option<WarmBootInfo>>,
}

/// What [`RegisteredSession::solve`] folds in from each completed report.
#[derive(Default)]
struct Ledger {
    timings: StepTimings,
    stats: SolveStats,
    last_exec: Option<ExecStats>,
}

impl RegisteredSession {
    /// The name the session was registered under.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The underlying session.
    pub fn session(&self) -> &PrescriptionSession {
        &self.session
    }

    /// Completed solves on this entry (via [`Self::solve`]).
    pub fn solves_ok(&self) -> u64 {
        self.solves_ok.load(Ordering::Relaxed)
    }

    /// Failed solves on this entry (via [`Self::solve`]).
    pub fn solves_err(&self) -> u64 {
        self.solves_err.load(Ordering::Relaxed)
    }

    /// Requests served by attaching to an already-running identical solve
    /// instead of starting a new one (recorded by the serving layer's
    /// in-flight coalescer via [`Self::record_coalesced`]). Not counted in
    /// [`Self::solves_ok`], which tracks *underlying* solves.
    pub fn solves_coalesced(&self) -> u64 {
        self.solves_coalesced.load(Ordering::Relaxed)
    }

    /// Record one coalesced (fanned-out) request against this entry.
    pub fn record_coalesced(&self) {
        self.solves_coalesced.fetch_add(1, Ordering::Relaxed);
    }

    /// Executor statistics of the most recent parallel solve, if any.
    pub fn last_exec(&self) -> Option<ExecStats> {
        self.ledger.lock().last_exec.clone()
    }

    /// Per-step times and work counters summed over the completed solves'
    /// reports.
    pub fn solve_totals(&self) -> (StepTimings, SolveStats) {
        let ledger = self.ledger.lock();
        (ledger.timings, ledger.stats)
    }

    /// Record that the wrapped session was warm-booted from a snapshot.
    pub fn set_warm_boot(&self, info: WarmBootInfo) {
        *self.warm_boot.lock() = Some(info);
    }

    /// Warm-boot provenance, if the session was restored from a snapshot.
    pub fn warm_boot(&self) -> Option<WarmBootInfo> {
        self.warm_boot.lock().clone()
    }

    /// Solve on the wrapped session, recording outcome counters and
    /// folding the report's timings, work counters and executor statistics
    /// into the ledger.
    pub fn solve(&self, request: &SolveRequest) -> Result<SolutionReport> {
        match self.session.solve(request) {
            Ok(report) => {
                self.solves_ok.fetch_add(1, Ordering::Relaxed);
                let mut ledger = self.ledger.lock();
                ledger.timings.merge(&report.timings);
                ledger.stats.merge(&report.stats);
                if let Some(exec) = &report.exec {
                    ledger.last_exec = Some(exec.clone());
                }
                Ok(report)
            }
            Err(e) => {
                self.solves_err.fetch_add(1, Ordering::Relaxed);
                Err(e)
            }
        }
    }
}

/// Thread-safe name → session map. Register at boot (or whenever a new
/// dataset is loaded), look up per request.
#[derive(Default)]
pub struct SessionRegistry {
    entries: RwLock<BTreeMap<String, Arc<RegisteredSession>>>,
}

impl SessionRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a session under `name`. Returns the wrapped entry, or
    /// `None` if the name is already taken (the existing entry is kept —
    /// replacing a live session under a serving front end would silently
    /// invalidate in-flight solves' cache assumptions).
    pub fn register(
        &self,
        name: impl Into<String>,
        session: impl Into<Arc<PrescriptionSession>>,
    ) -> Option<Arc<RegisteredSession>> {
        let name = name.into();
        let mut entries = self.entries.write();
        if entries.contains_key(&name) {
            return None;
        }
        let entry = Arc::new(RegisteredSession {
            name: name.clone(),
            session: session.into(),
            solves_ok: AtomicU64::new(0),
            solves_err: AtomicU64::new(0),
            solves_coalesced: AtomicU64::new(0),
            ledger: Mutex::default(),
            warm_boot: Mutex::new(None),
        });
        entries.insert(name, Arc::clone(&entry));
        Some(entry)
    }

    /// Look up a session by name.
    pub fn get(&self, name: &str) -> Option<Arc<RegisteredSession>> {
        self.entries.read().get(name).cloned()
    }

    /// The sole registered session, if exactly one exists — lets
    /// single-dataset deployments omit the `session` routing field.
    pub fn single(&self) -> Option<Arc<RegisteredSession>> {
        let entries = self.entries.read();
        if entries.len() == 1 {
            entries.values().next().cloned()
        } else {
            None
        }
    }

    /// All entries, in name order.
    pub fn entries(&self) -> Vec<Arc<RegisteredSession>> {
        self.entries.read().values().cloned().collect()
    }

    /// Registered names, in order.
    pub fn names(&self) -> Vec<String> {
        self.entries.read().keys().cloned().collect()
    }

    /// Number of registered sessions.
    pub fn len(&self) -> usize {
        self.entries.read().len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.read().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::FairCap;
    use faircap_table::{DataFrame, Pattern, Value};

    fn session() -> PrescriptionSession {
        let n = 40;
        let grp: Vec<&str> = (0..n)
            .map(|i| if i % 4 == 0 { "p" } else { "np" })
            .collect();
        let treat: Vec<&str> = (0..n)
            .map(|i| if i % 2 == 0 { "yes" } else { "no" })
            .collect();
        let outcome: Vec<f64> = (0..n)
            .map(|i| {
                let base = if i % 4 == 0 { 40.0 } else { 50.0 };
                let lift = if i % 2 == 0 { 10.0 } else { 0.0 };
                base + lift + (i % 5) as f64 * 0.1
            })
            .collect();
        let df = DataFrame::builder()
            .cat("grp", &grp)
            .cat("treat", &treat)
            .float("outcome", outcome)
            .build()
            .unwrap();
        let dag = faircap_causal::Dag::parse_edge_list("grp -> outcome\ntreat -> outcome").unwrap();
        FairCap::builder()
            .data(df)
            .dag(dag)
            .outcome("outcome")
            .immutable(["grp"])
            .mutable(["treat"])
            .protected(Pattern::of_eq(&[("grp", Value::from("p"))]))
            .build()
            .unwrap()
    }

    #[test]
    fn register_get_and_list() {
        let registry = SessionRegistry::new();
        assert!(registry.is_empty());
        assert!(registry.register("tiny", session()).is_some());
        assert!(
            registry.register("tiny", session()).is_none(),
            "duplicate names are refused"
        );
        assert_eq!(registry.len(), 1);
        assert_eq!(registry.names(), vec!["tiny"]);
        assert!(registry.get("tiny").is_some());
        assert!(registry.get("ghost").is_none());
        // Exactly one entry: `single` routes to it.
        assert_eq!(registry.single().unwrap().name(), "tiny");
        registry.register("other", session());
        assert!(registry.single().is_none(), "ambiguous with two entries");
    }

    #[test]
    fn solve_records_counters_and_exec() {
        let registry = SessionRegistry::new();
        let entry = registry.register("tiny", session()).unwrap();
        assert_eq!((entry.solves_ok(), entry.solves_err()), (0, 0));
        let report = entry.solve(&SolveRequest::default().workers(2)).unwrap();
        assert_eq!(entry.solves_ok(), 1);
        assert_eq!(entry.last_exec().is_some(), report.exec.is_some());
        // The ledger sums each report's own timings and work counters.
        let again = entry
            .solve(&SolveRequest::default().use_solve_cache(false))
            .unwrap();
        let (mut timings, mut stats) = (report.timings, report.stats);
        timings.merge(&again.timings);
        stats.merge(&again.stats);
        assert_eq!(entry.solve_totals(), (timings, stats));
        assert!(stats.grouping.candidates > report.stats.grouping.candidates);
        // An invalid request is counted as a failure and adds nothing.
        let mut bad = SolveRequest::default();
        bad.config.apriori_threshold = f64::NAN;
        assert!(entry.solve(&bad).is_err());
        assert_eq!(entry.solves_err(), 1);
        assert_eq!(entry.solve_totals(), (timings, stats));
    }
}
