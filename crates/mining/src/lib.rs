//! # faircap-mining
//!
//! Frequent-pattern substrate for FairCap:
//!
//! * [`apriori`](mod@apriori) — the Apriori algorithm over attribute–value items, used by
//!   step 1 (§5.1) to mine grouping patterns with a support threshold.
//! * [`lattice`] — the positive-parent lattice traversal of step 2 (§5.2),
//!   generic over the scoring function so the core crate can plug in
//!   fairness-penalized CATE benefits.
//! * [`item`] — enumeration of `attr = value` items with support masks.

#![warn(missing_docs)]

pub mod apriori;
pub mod item;
pub mod lattice;

pub use apriori::{apriori, apriori_with_stats, AprioriConfig, FrequentPattern};
pub use item::{items_from_levels, single_attribute_items};
pub use lattice::{
    coded_lattice, positive_lattice, positive_lattice_with_stats, CodedNode, LatticeNode,
};

/// Candidate-pipeline accounting for one mining run (Apriori level sweep or
/// positive-parent lattice traversal), in the spirit of the causal engine's
/// `HotStats`: where candidates came from and why they were discarded.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MiningStats {
    /// Candidates generated (items at level 1 plus prefix-join products).
    pub candidates: u64,
    /// Candidates discarded because a (k−1)-subset was not frequent
    /// (Apriori) or not positive (lattice).
    pub pruned_parent: u64,
    /// Candidates discarded by the fused AND+popcount support test before
    /// their cover was materialized (Apriori only).
    pub pruned_support: u64,
    /// Candidates that survived pruning and were materialized / evaluated.
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
