//! # faircap-mining
//!
//! Frequent-pattern substrate for FairCap:
//!
//! * [`lattice`] — the one level-wise lattice walk, on item indices, with
//!   a caller-supplied gate: step 2 (§5.2) gates expansion on a positive
//!   CATE (the positive-parent rule).
//! * [`apriori`](mod@apriori) — the Apriori algorithm over attribute–value
//!   items, used by step 1 (§5.1) to mine grouping patterns: the lattice
//!   walk gated on a support threshold.
//! * [`item`] — enumeration of `attr = value` items with support masks,
//!   and the per-attribute item cap both steps use.

#![warn(missing_docs)]

pub mod apriori;
pub mod item;
pub mod lattice;

pub use apriori::{apriori, apriori_with_stats, AprioriConfig, FrequentPattern};
pub use item::{items_from_levels, single_attribute_items, MAX_VALUES_PER_ATTR};
pub use lattice::{coded_lattice, CodedNode};

/// Candidate-pipeline accounting for one mining run (Apriori or a
/// positive-parent lattice walk), in the spirit of the causal engine's
/// `HotStats`: where candidates came from and why they were discarded.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MiningStats {
    /// Candidates generated (items at level 1 plus prefix-join products).
    pub candidates: u64,
    /// Candidates discarded because a (k−1)-subset was not frequent
    /// (Apriori) or not positive (lattice).
    pub pruned_parent: u64,
    /// Candidates discarded by the support threshold (Apriori only).
    pub pruned_support: u64,
    /// Candidates that survived pruning: kept (Apriori) or evaluated
    /// (lattice).
    pub evaluated: u64,
}

impl MiningStats {
    /// Merge another run's counters into this one.
    pub fn merge(&mut self, other: &MiningStats) {
        self.candidates += other.candidates;
        self.pruned_parent += other.pruned_parent;
        self.pruned_support += other.pruned_support;
        self.evaluated += other.evaluated;
    }

    /// Total candidates pruned before evaluation.
    pub fn pruned(&self) -> u64 {
        self.pruned_parent + self.pruned_support
    }
}
