//! # faircap-core
//!
//! FairCap — *Fair and Actionable Causal Prescription Ruleset* (SIGMOD 2025)
//! — selects a small set of prescription rules `(P_grp, P_int)` maximizing
//! expected utility (CATE-based, Definition 4.5) under fairness (§4.6) and
//! coverage (§4.5) constraints, via the three-step algorithm of §5:
//! Apriori grouping-pattern mining → fairness-aware intervention mining on a
//! positive-parent lattice → greedy ruleset selection.
//!
//! The entry point is the [`session`] engine API: build a validated,
//! long-lived [`PrescriptionSession`] once, then re-solve it under changing
//! constraints and estimators with full cache reuse:
//!
//! ```no_run
//! use faircap_core::{FairCap, FairnessConstraint, FairnessScope, SolveRequest};
//! # fn inputs() -> (faircap_table::DataFrame, faircap_causal::Dag, faircap_table::Pattern) { unimplemented!() }
//! let (df, dag, protected) = inputs();
//! let session = FairCap::builder()
//!     .data(df)
//!     .dag(dag)
//!     .outcome("salary")
//!     .immutable(["country", "age"])
//!     .mutable(["education", "training"])
//!     .protected(protected)
//!     .build()?;
//! let unconstrained = session.solve(&SolveRequest::default())?;
//! let fair = session.solve(&SolveRequest::default().fairness(
//!     FairnessConstraint::StatisticalParity { scope: FairnessScope::Group, epsilon: 10_000.0 },
//! ))?; // reuses every CATE estimate the first solve computed
//! println!("{unconstrained}\n{fair}");
//! # Ok::<(), faircap_core::Error>(())
//! ```
//!
//! Step 2's fan-out across grouping patterns runs on the [`exec`]
//! work-stealing executor (worker count per request or via
//! `FAIRCAP_WORKERS`) — the solve's one level of parallelism, since every
//! CATE estimate is single-threaded — and a session's warmed
//! caches can be persisted and restored across processes via
//! [`snapshot`] — see [`PrescriptionSession::snapshot`] and
//! [`SessionBuilder::warm_start`].
//!
//! (The pre-0.2 one-shot `run()` shim and its `ProblemInput` were removed
//! after their one release of compatibility; `docs/building.md` covers the
//! migration.)
//!
//! [`PrescriptionSession::snapshot`]: session::PrescriptionSession::snapshot
//! [`SessionBuilder::warm_start`]: session::SessionBuilder::warm_start

#![warn(missing_docs)]

pub mod algorithm;
pub mod benefit;
pub mod config;
pub mod constraints;
pub mod cost;
pub mod decision_tree;
pub mod error;
pub mod exec;
pub mod registry;
pub mod report;
pub mod rule;
pub mod session;
pub mod snapshot;
pub mod utility;
pub mod wire;

pub use algorithm::greedy::GreedyStats;
pub use algorithm::intervention::{EvaluatedIntervention, GroupEvaluation};
pub use algorithm::{InterventionCache, InterventionKey};
pub use benefit::benefit;
pub use config::{CoverageConstraint, FairCapConfig, FairnessConstraint, FairnessScope};
pub use cost::{CostModel, CostPolicy};
pub use decision_tree::{all_structural_variants, choose_variant, FairnessKind, VariantAnswers};
pub use error::{Error, Result};
pub use exec::ExecStats;
pub use faircap_mining::MiningStats;
pub use registry::{RegisteredSession, SessionRegistry, WarmBootInfo};
pub use report::{SolutionReport, SolveStats, StepTimings};
pub use rule::{Rule, RuleUtility};
pub use session::{FairCap, PrescriptionSession, SessionBuilder, SolveRequest};
pub use snapshot::{SessionSnapshot, SNAPSHOT_VERSION};
pub use utility::{ruleset_utility, RulesetUtility};
pub use wire::{solution_report_to_json, solve_request_from_json, Json};
