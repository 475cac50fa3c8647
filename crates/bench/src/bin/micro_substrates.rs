//! Microbenchmarks for the substrates: mask algebra, pattern coverage,
//! Apriori mining, and d-separation — the building blocks whose cost the
//! end-to-end figures aggregate.
//!
//! ```sh
//! cargo run --release -p faircap-bench --bin micro_substrates
//! ```

use faircap_bench::best_of;
use faircap_causal::d_separated_names;
use faircap_data::so;
use faircap_mining::{apriori, AprioriConfig, MAX_VALUES_PER_ATTR};
use faircap_table::{Mask, Pattern, Value};
use std::hint::black_box;

/// Stack Overflow rows for the coverage and Apriori cases.
const ROWS: usize = 6_000;
/// Data seed.
const SEED: u64 = 42;
/// Timed batches per case; the line reports the best and the mean.
const REPS: usize = 10;

/// Time `batch` calls of `f` per rep and print the per-call best and mean.
fn case<T>(name: &str, batch: u32, mut f: impl FnMut() -> T) {
    let timed = best_of(REPS, || {
        for _ in 0..batch {
            black_box(f());
        }
    });
    let per_call_us = |ms: f64| ms * 1e3 / f64::from(batch);
    println!(
        "micro_substrates: {name:<26} min {:10.3} µs  mean {:10.3} µs  ({batch} calls per rep)",
        per_call_us(timed.min_ms()),
        per_call_us(timed.mean_ms)
    );
}

fn main() {
    let n = 38_000;
    let a = Mask::from_indices(n, &(0..n).step_by(3).collect::<Vec<_>>());
    let b = Mask::from_indices(n, &(0..n).step_by(7).collect::<Vec<_>>());
    case("mask_and_38k", 1_000, || &a & &b);
    case("mask_intersect_count_38k", 1_000, || a.intersect_count(&b));
    case("mask_iter_ones_38k", 100, || a.iter_ones().sum::<usize>());

    let ds = so::generate(ROWS, SEED);
    let single = Pattern::of_eq(&[("gdp_group", Value::from("low"))]);
    let triple = Pattern::of_eq(&[
        ("gdp_group", Value::from("high")),
        ("age", Value::from("25-34")),
        ("gender", Value::from("male")),
    ]);
    case("pattern_coverage_1pred", 100, || {
        single.coverage(&ds.df).expect("gdp_group exists")
    });
    case("pattern_coverage_3pred", 100, || {
        triple.coverage(&ds.df).expect("attributes exist")
    });

    let all = Mask::ones(ds.df.n_rows());
    for max_len in [1usize, 2, 3] {
        let cfg = AprioriConfig {
            min_support: 0.1,
            max_len,
            max_values_per_attr: MAX_VALUES_PER_ATTR,
        };
        case(&format!("apriori_immutables/{max_len}"), 10, || {
            apriori(&ds.df, &ds.immutable, &all, &cfg).expect("immutables exist")
        });
    }

    let small = so::generate(1_000, SEED);
    case("d_separation_so_dag", 1_000, || {
        d_separated_names(
            &small.dag,
            &["education"],
            &["salary"],
            &["age", "gdp_group", "parents_education", "student"],
        )
        .expect("SO DAG nodes")
    });
}
