//! Ablation: the §5.2 positive-parent lattice pruning vs. exhaustive
//! enumeration of intervention patterns — how many CATE estimations does
//! the materialization rule save? — plus the cost of a cold solve under
//! each of the three cost policies.
//!
//! Each lattice case builds a fresh [`CateEngine`] per rep, so the
//! estimate cache cannot hide the estimator cost; the line reports the
//! node count and the engine's estimate-cache misses beside the time.
//!
//! ```sh
//! cargo run --release -p faircap-bench --bin ablation_lattice
//! ```

use faircap_bench::{best_of, session_of};
use faircap_causal::{CateEngine, EstimatorKind};
use faircap_core::{CostModel, CostPolicy, FairCapConfig, SolveRequest};
use faircap_data::so;
use faircap_mining::{coded_lattice, single_attribute_items, MAX_VALUES_PER_ATTR};
use faircap_table::{Mask, Pattern};
use std::sync::Arc;

/// Stack Overflow rows: large enough for stable CATEs, small enough for
/// repeated cold runs (shape, not absolute numbers).
const ROWS: usize = 6_000;
/// Data seed.
const SEED: u64 = 42;
/// Timed repetitions per case; the line reports the best and the mean.
const REPS: usize = 5;

fn main() {
    let ds = so::generate(ROWS, SEED);
    let df = Arc::new(ds.df.clone());
    let dag = Arc::new(ds.dag.clone());
    let all = Mask::ones(ds.df.n_rows());
    let items = single_attribute_items(&ds.df, &ds.mutable, &all, MAX_VALUES_PER_ATTR)
        .expect("mutable items");
    println!(
        "ablation_lattice: Stack Overflow, {ROWS} rows, {} intervention items, best of {REPS}",
        items.len()
    );

    // Pruned: only positive-CATE parents expand (the paper's rule).
    // Exhaustive: every node expands regardless of sign.
    for (name, prune) in [("positive_parent", true), ("exhaustive", false)] {
        let timed = best_of(REPS, || {
            let engine = CateEngine::new(Arc::clone(&df), Arc::clone(&dag), "salary")
                .expect("salary is numeric");
            let (nodes, _) = coded_lattice(
                &items,
                2,
                |codes, _| {
                    let pattern =
                        Pattern::new(codes.iter().map(|&i| items[i as usize].0.clone()).collect());
                    engine
                        .cate(&all, &pattern, &EstimatorKind::Linear)
                        .map(|e| e.cate)
                },
                |&cate| !prune || cate > 0.0,
            );
            (nodes.len(), engine.cache_stats().misses)
        });
        let (nodes, misses) = timed.best;
        println!(
            "ablation_lattice: lattice {name:<16} min {:9.2} ms  mean {:9.2} ms  nodes {nodes:5}  estimate-cache misses {misses:5}",
            timed.min_ms(),
            timed.mean_ms
        );
    }

    let policies: [(&str, CostPolicy); 3] = [
        ("ignore", CostPolicy::Ignore),
        ("budget", CostPolicy::Budget { max_rule_cost: 5.0 }),
        ("penalize", CostPolicy::Penalize { weight: 0.5 }),
    ];
    for (name, policy) in policies {
        let request = SolveRequest::from(FairCapConfig {
            cost_model: CostModel::with_default(2.0),
            cost_policy: policy,
            ..FairCapConfig::default()
        });
        let timed = best_of(REPS, || {
            let session = session_of(&ds).expect("SO dataset is well-formed");
            session.solve(&request).expect("valid request").size()
        });
        println!(
            "ablation_lattice: cost policy {name:<10} min {:9.2} ms  mean {:9.2} ms  rules {}",
            timed.min_ms(),
            timed.mean_ms,
            timed.best
        );
    }
}
