//! # faircap-scenario
//!
//! SCM-driven synthetic data and workload generation with
//! ground-truth-at-scale benchmarking — the scale harness the real
//! datasets (10³ rows) cannot provide:
//!
//! * [`spec`] — [`ScenarioSpec`]: a configurable structural causal model
//!   (stable/flexible attribute split, cardinality, confounding strength,
//!   treatment-effect heterogeneity, noise) whose every coefficient is
//!   hash-derived from the spec, so the planted ground-truth CATEs are
//!   closed-form and seed-independent.
//! * [`mod@generate`] — sample 10⁵–10⁷-row datasets ([`GeneratedScenario`]);
//!   bit-reproducible per `(spec, seed)` across platforms (the rand shim's
//!   stream is pinned; see `shims/rand`), with a pinned frame
//!   [`frame_fingerprint`] (defined in `faircap-table`, re-exported here)
//!   guarding the contract.
//! * [`store`] — persist/load a scenario directory (`scenario.csv`,
//!   `scenario.dag`, `scenario.json` with the truth table) whose CSV+DAG
//!   half feeds `faircap --data … --dag …` and `faircap serve` directly.
//! * [`verify`] — grade estimators against the planted truth
//!   ([`check_recovery`]) and prove the unadjusted estimate is biased
//!   ([`naive_bias`]) — the ground-truth recovery gate behind
//!   `faircap gen --check`.
//! * [`mod@replay`] — closed/open-loop workload replayer over constraint
//!   sweeps, estimator mixes, and warm/cold ratios, against an in-process
//!   session or a running `faircap serve`; emits [`ReplayReport`]
//!   (`BENCH_scale.json` rows with throughput, latency percentiles,
//!   429/503/504 counts, cache counters, and the data's rows+seed).
//!
//! The CLI front ends are `faircap gen` and `faircap replay`; the format
//! and semantics are documented in `docs/scenarios.md`.

#![warn(missing_docs)]

pub mod error;
pub mod generate;
pub mod replay;
pub mod spec;
pub mod store;
pub mod verify;

pub use error::{Result, ScenarioError};
pub use faircap_table::frame_fingerprint;
pub use generate::{build_scm, generate, GeneratedScenario};
pub use replay::{
    default_epsilon, replay, Arrival, ReplayOptions, ReplayReport, ReplayTarget, RequestVariant,
    WorkloadMix,
};
pub use spec::{ScenarioSpec, TruthEntry, TruthGroup};
pub use store::{load, metadata_from_json, metadata_json, save, FORMAT};
pub use verify::{check_recovery, naive_bias, RecoveryCheck, RecoveryOptions};
