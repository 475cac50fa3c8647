//! # faircap-causal
//!
//! Causal-inference substrate for the FairCap reproduction (Section 3 of the
//! paper), built from scratch:
//!
//! * [`graph::Dag`] — Pearl-style causal DAGs with cycle-checked insertion.
//! * [`dsep`] — d-separation via the moralized-ancestral-graph criterion.
//! * [`backdoor`] — backdoor-criterion validation and adjustment-set search.
//! * [`estimate`] — pluggable CATE estimators ([`Estimator`]): OLS linear
//!   adjustment (the paper's DoWhy default), exact stratification, IPW,
//!   doubly-robust AIPW, and k-NN matching — assumptions and trade-offs
//!   are documented in `docs/estimators.md` at the repository root.
//! * [`cate::CateEngine`] — cached high-level CATE queries for rules.
//! * [`discovery`] — PC-stable causal discovery (Table 6's "PC DAG").
//! * [`scm`] — structural causal models for generating the synthetic
//!   Stack Overflow / German Credit stand-ins with known ground truth.
//! * [`truth`] — ground-truth recovery checks ([`truth::Recovery`]) used by
//!   the `faircap-scenario` generator's planted-effect validation.
//!
//! Every estimator is a plain single-threaded function and the crate
//! spawns no threads: callers parallelize across estimates, as the solve
//! does across grouping patterns (`faircap_core::exec`).

#![warn(missing_docs)]

pub mod backdoor;
pub mod cate;
pub mod dsep;
pub mod error;
pub mod estimate;
pub mod graph;
pub mod linalg;
pub mod scm;
pub mod truth;

pub mod discovery;

pub use backdoor::{find_adjustment_set, find_adjustment_set_names, is_valid_backdoor};
pub use cate::{
    Adjustment, CateEngine, CateEngineState, CateQuery, CateWalk, CellTableCache, GroupCacheRef,
    GroupCaches, GroupHandle, GroupRowsCache, MatchIndexCache, PredicateCode,
};
pub use dsep::{d_separated, d_separated_names};
pub use error::{CausalError, Result};
pub use estimate::matching::{MatchIndex, MatchParams, MatchStrategy};
pub use estimate::{Estimate, EstimateCtx, Estimator, EstimatorKind, HotStats};
pub use graph::{Dag, NodeId};
pub use scm::Scm;
pub use truth::Recovery;
