//! Tour of the pluggable CATE estimators: one German-credit session,
//! re-solved under every built-in estimator — linear, stratified, IPW,
//! doubly-robust AIPW, and k-NN matching — with per-estimator cache stats.
//!
//! ```sh
//! cargo run --release --example estimator_tour
//! ```
//!
//! See `docs/estimators.md` for what each estimator assumes and when the
//! doubly robust one is worth its extra cost.

use faircap::causal::{Estimator, EstimatorKind};
use faircap::data::german;
use faircap::{FairCap, SolveRequest};

fn main() -> Result<(), faircap::Error> {
    let ds = german::generate(german::GERMAN_DEFAULT_ROWS, 42);
    println!(
        "German Credit stand-in: {} rows, protected = {}\n",
        ds.df.n_rows(),
        ds.protected
    );
    // One validated session serves the whole sweep; only the estimator
    // changes per request, so grouping patterns and adjustment sets are
    // computed once.
    let session = FairCap::builder()
        .data(ds.df)
        .dag(ds.dag)
        .outcome(ds.outcome)
        .immutable(ds.immutable)
        .mutable(ds.mutable)
        .protected(ds.protected)
        .build()?;

    for kind in EstimatorKind::ALL {
        let report = session.solve(&SolveRequest::default().estimator_kind(kind))?;
        println!(
            "=== {:<10} === {} rules, expected {:.4}, unfairness {:.4}",
            kind.name(),
            report.size(),
            report.summary.expected,
            report.summary.unfairness
        );
        if let Some(rule) = report.rules.first() {
            println!("    top rule: {rule}");
        }
    }

    // Each estimator has its own cache scope: the hit/miss counters below
    // are keyed by estimator name, so a sweep can see exactly how much
    // estimation work each estimator performed.
    println!("\nPer-estimator cache stats:");
    for (name, stats) in session.cache_stats_by_estimator() {
        println!(
            "  {:<10} hits {:>5}  misses {:>5}  entries {:>5}",
            name, stats.hits, stats.misses, stats.entries
        );
    }
    Ok(())
}
