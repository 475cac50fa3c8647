//! # faircap
//!
//! Facade crate for the FairCap workspace — a from-scratch Rust
//! reproduction of *“Fair and Actionable Causal Prescription Ruleset”*
//! (SIGMOD 2025).
//!
//! ## The session engine API
//!
//! The entry point is [`FairCap::builder`]: validate a Prescription Ruleset
//! Selection instance once, get a long-lived [`PrescriptionSession`], and
//! re-solve it under changing fairness/coverage constraints, estimators,
//! and rule budgets. Every cross-solve cache (backdoor adjustment sets,
//! CATE estimates, grouping patterns) lives on the session, so constraint
//! sweeps — the paper's Tables 4–6 workload — pay for estimation once:
//!
//! ```no_run
//! use faircap::{FairCap, SolveRequest};
//! use faircap::core::{FairnessConstraint, FairnessScope};
//! use faircap::data::so;
//!
//! let ds = so::generate(10_000, 42);
//! let session = FairCap::builder()
//!     .data(ds.df)
//!     .dag(ds.dag)
//!     .outcome(ds.outcome)
//!     .immutable(ds.immutable)
//!     .mutable(ds.mutable)
//!     .protected(ds.protected)
//!     .build()?; // typed faircap::Error on any invalid input — never a panic
//!
//! let unconstrained = session.solve(&SolveRequest::default())?;
//! let fair = session.solve(&SolveRequest::default().fairness(
//!     FairnessConstraint::StatisticalParity { scope: FairnessScope::Group, epsilon: 10_000.0 },
//! ))?; // no new CATE estimation: the first solve warmed the caches
//! println!("{unconstrained}\n{fair}");
//! println!("cache: {:?}", session.cache_stats());
//! # Ok::<(), faircap::Error>(())
//! ```
//!
//! Estimators are pluggable per request: `SolveRequest::estimator` takes
//! any `Arc<dyn Estimator>`, and five built-ins ship in
//! [`causal::EstimatorKind`] — `linear`, `stratified`, `ipw`, the doubly
//! robust `aipw`, and k-NN `matching`; `docs/estimators.md` documents
//! their assumptions and trade-offs, and cache statistics are reported per
//! estimator name via [`PrescriptionSession::cache_stats_by_estimator`].
//!
//! ## Execution and caching layer
//!
//! Step 2's fan-out across grouping patterns runs on a work-stealing
//! executor ([`core::exec`]) — worker count set per request
//! (`SolveRequest::workers`) or via `FAIRCAP_WORKERS`, which size this
//! fan-out only, as each CATE estimate runs single-threaded — with
//! per-solve scheduling statistics on `SolutionReport::exec`. Every cache
//! is a sharded map with LRU eviction
//! ([`table::cache::ShardedLruCache`]) whose capacity is fixed when it is
//! built; a solve request configures that one solve and never resizes the
//! session's caches. A session's warmed caches persist across processes:
//! [`PrescriptionSession::snapshot`] serializes them to a versioned format
//! and `FairCap::builder().warm_start(snapshot)` restores them, so a
//! restarted server re-solves with zero new estimations (CLI:
//! `--save-cache` / `--load-cache`). `docs/architecture.md` describes the
//! layer in full. (The pre-0.2 one-shot `run()` shim has been removed;
//! see `docs/building.md` for the migration.)
//!
//! ## Serving front end
//!
//! [`serve`] (`faircap serve` on the CLI) wraps a [`core::SessionRegistry`]
//! of warm sessions in a dependency-free HTTP/1.1 server with real
//! admission control: a bounded solve queue (overflow answers 429), a
//! max-concurrent-solves budget, per-request timeouts (504), live
//! `/v1/metrics` (cache counters per estimator, executor stats, latency
//! percentiles, queue depth), snapshot persistence over `POST
//! /v1/snapshot`, warm boot from a snapshot directory, and graceful
//! drain on shutdown. Endpoint schemas are documented in
//! `docs/serving.md`; the JSON wire format lives in [`core::wire`], and
//! rulesets served over HTTP are bit-identical to direct
//! [`PrescriptionSession::solve`] calls.
//!
//! ## Layers
//!
//! * [`table`] — columnar frames, bitset masks, conjunctive patterns, CSV,
//!   statistics.
//! * [`causal`] — causal DAGs, d-separation, backdoor adjustment, CATE
//!   estimation, PC discovery, SCM sampling.
//! * [`mining`] — Apriori and the positive-parent lattice.
//! * [`core`] — the FairCap algorithm, the session engine, constraints, and
//!   reports.
//! * [`baselines`] — CauSumX / IDS / FRL and the IF-clause adaptations
//!   (session-based entry points).
//! * [`data`] — synthetic Stack Overflow and German Credit stand-ins.
//! * [`scenario`] — SCM-driven scenario generation with planted
//!   ground-truth CATEs and the closed/open-loop workload replayer
//!   (`faircap gen` / `faircap replay`; see `docs/scenarios.md`).
//!
//! See the [README](https://github.com/faircap/faircap-rs), the estimator
//! guide in `docs/estimators.md`, the build notes in `docs/building.md`,
//! and the runnable examples (`cargo run --release --example quickstart`,
//! `--example estimator_tour`).

#![warn(missing_docs)]

pub mod cli;

pub use faircap_baselines as baselines;
pub use faircap_causal as causal;
pub use faircap_core as core;
pub use faircap_data as data;
pub use faircap_mining as mining;
pub use faircap_obs as obs;
pub use faircap_scenario as scenario;
pub use faircap_serve as serve;
pub use faircap_table as table;

pub use faircap_causal::Estimator;
pub use faircap_core::{Error, FairCap, PrescriptionSession, SessionBuilder, SolveRequest};
