//! The paper's evaluation (§6) in one binary: each section regenerates a
//! table or figure, or times a design choice underneath them.
//!
//! ```sh
//! cargo run --release -p faircap-bench --bin paper [SECTION...]
//! ```
//!
//! With no argument every section runs, in the order of [`SECTIONS`]. The
//! paper-scale Stack Overflow and German datasets are generated once and
//! shared; each section builds its own sessions, so the cache counters a
//! section prints do not depend on which sections ran before it.

use faircap_bench::{
    baseline_rows, best_of, frl_if_clauses, ids_if_clauses, nine_variants, session_of,
};
use faircap_causal::{d_separated_names, CateEngine, Estimator, EstimatorKind};
use faircap_core::{
    CostModel, CostPolicy, FairCap, FairCapConfig, FairnessConstraint, FairnessKind, FairnessScope,
    PrescriptionSession, SolutionReport, SolveRequest,
};
use faircap_data::{build_dag_variant, german, so, DagVariant, Dataset};
use faircap_mining::{
    apriori, coded_lattice, single_attribute_items, AprioriConfig, MAX_VALUES_PER_ATTR,
};
use faircap_table::{Mask, Pattern, Value};
use std::borrow::Borrow;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// A section: its name on the command line and the function that prints it.
type Section = (&'static str, fn(&Datasets));

/// Every section, in the order a bare `paper` runs them.
const SECTIONS: [Section; 10] = [
    ("table3", table3),
    ("table4", table4),
    ("table5", table5),
    ("table6", table6),
    ("fig3", fig3),
    ("fig4", fig4),
    ("fig5", fig5),
    ("ablation_estimators", ablation_estimators),
    ("ablation_lattice", ablation_lattice),
    ("micro_substrates", micro_substrates),
];

/// Seed of every generated dataset.
const SEED: u64 = 42;

/// Stack Overflow rows of the ablation and substrate sections: large enough
/// for stable CATEs, small enough for repeated cold runs (shape, not
/// absolute numbers).
const ABLATION_ROWS: usize = 6_000;

/// A labelled constraint variant per row.
type Variants = Vec<(String, FairCapConfig)>;

/// Stack Overflow's nine Figure 2 variants (Table 4's FairCap rows), at the
/// §6 thresholds: statistical parity within $10k, coverage θ = θp = 0.5.
fn so_variants() -> Variants {
    nine_variants(FairnessKind::StatisticalParity, 10_000.0, 0.5, 0.5)
}

/// German Credit's nine variants: bounded group loss within 0.1, coverage
/// θ = θp = 0.3.
fn german_variants() -> Variants {
    nine_variants(FairnessKind::BoundedGroupLoss, 0.1, 0.3, 0.3)
}

/// The variant labelled `label`, such as `group fairness + no coverage`.
fn variant(variants: Variants, label: &str) -> FairCapConfig {
    let found = variants.into_iter().find(|(l, _)| l == label);
    found.unwrap_or_else(|| panic!("no variant `{label}`")).1
}

/// The datasets the sections share, generated once per process.
struct Datasets {
    /// Stack Overflow at paper scale.
    so: Dataset,
    /// German Credit at paper scale.
    german: Dataset,
    /// Stack Overflow at [`ABLATION_ROWS`].
    ablation_so: Dataset,
}

/// The sections `args` names, in the order given; every section when
/// `args` is empty. An unknown name is an error that lists the known ones.
fn selected(args: &[String]) -> Result<Vec<Section>, String> {
    if args.is_empty() {
        return Ok(SECTIONS.to_vec());
    }
    args.iter()
        .map(|arg| {
            SECTIONS
                .iter()
                .find(|(name, _)| name == arg)
                .copied()
                .ok_or_else(|| {
                    let names: Vec<&str> = SECTIONS.iter().map(|(name, _)| *name).collect();
                    format!(
                        "unknown section `{arg}` (expected one of: {})",
                        names.join(", ")
                    )
                })
        })
        .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let sections = selected(&args).unwrap_or_else(|err| {
        eprintln!("paper: {err}\nusage: paper [SECTION...]");
        std::process::exit(2)
    });
    let data = Datasets {
        so: so::generate(so::SO_DEFAULT_ROWS, SEED),
        german: german::generate(german::GERMAN_DEFAULT_ROWS, SEED),
        ablation_so: so::generate(ABLATION_ROWS, SEED),
    };
    for (i, (_, run)) in sections.iter().enumerate() {
        if i > 0 {
            println!();
        }
        run(&data);
    }
}

/// Print `title`, the solution-table header, and one row per
/// `(label, session, request)`: the request solved on the session, labelled.
fn print_block<S: Borrow<PrescriptionSession>>(
    title: &str,
    rows: impl IntoIterator<Item = (String, S, SolveRequest)>,
) {
    println!("{title}");
    println!("{}", SolutionReport::table_header());
    for (label, session, request) in rows {
        let mut report = session.borrow().solve(&request).expect("request is valid");
        report.label = label;
        println!("{}", report.table_row());
    }
}

/// Table 3 — examined datasets: tuples, attributes, mutable attributes,
/// protected group.
fn table3(data: &Datasets) {
    println!("Table 3: Examined datasets");
    println!(
        "{:<10} {:>8} {:>6} {:>9}  Protected Group",
        "Dataset", "Tuples", "Atts", "Mut Atts"
    );
    for (name, ds) in [("SO", &data.so), ("German", &data.german)] {
        println!(
            "{:<10} {:>8} {:>6} {:>9}  {} ({:.1}% of the data)",
            name,
            ds.df.n_rows(),
            ds.attributes().len(),
            ds.mutable.len(),
            ds.protected,
            ds.protected_fraction() * 100.0
        );
    }
    println!("\nPaper: SO 38K/20/10, low-GDP 21.5%; German 1000/20/15, single females 9.2%.");
}

/// Table 4 — size, coverage, expected utility and unfairness of the nine
/// FairCap constraint variants plus the IDS/FRL IF-clause adaptations, on
/// Stack Overflow (SP fairness) and German Credit (BGL fairness).
fn table4(data: &Datasets) {
    let session = table4_block(
        &data.so,
        "Table 4 (top): Stack Overflow — statistical-parity fairness, ε=$10k, θ=θp=0.5",
        so_variants(),
    );
    let stats = session.cache_stats();
    println!(
        "(cate cache: {} hits / {} misses across all 13 rows)",
        stats.hits, stats.misses
    );
    table4_block(
        &data.german,
        "\nTable 4 (bottom): German Credit — bounded-group-loss fairness, τ=0.1, θ=θp=0.3",
        german_variants(),
    );

    println!("\nShape targets (paper Table 4):");
    println!("  * unconstrained rows maximize utility AND unfairness;");
    println!("  * group fairness keeps unfairness ≤ threshold at a utility cost;");
    println!("  * rule-coverage variants select fewer rules with lower utility;");
    println!("  * FairCap beats the IF-clause adaptations on expected utility.");
}

/// One half of Table 4: the nine variants, then the four baseline rows, all
/// on one session, which is returned for its cache counters.
fn table4_block(ds: &Dataset, title: &str, variants: Variants) -> PrescriptionSession {
    let session = session_of(ds).expect("dataset is well-formed");
    print_block(
        title,
        variants
            .into_iter()
            .map(|(label, cfg)| (label, &session, SolveRequest::from(cfg))),
    );
    for report in baseline_rows(&session, ds, &FairCapConfig::default()).expect("baselines run") {
        println!("{}", report.table_row());
    }
    session
}

/// Table 5 — effect of the fairness threshold ε: group and individual
/// statistical parity on Stack Overflow with ε ∈ {2.5K, 5K, 10K, 20K}, all
/// solved on one session.
fn table5(data: &Datasets) {
    let session = session_of(&data.so).expect("SO dataset is well-formed");
    let rows = [
        (FairnessScope::Group, "Group SP"),
        (FairnessScope::Individual, "Individual SP"),
    ]
    .into_iter()
    .flat_map(|(scope, scope_name)| {
        [2_500.0, 5_000.0, 10_000.0, 20_000.0].map(|epsilon| {
            let request = SolveRequest::default()
                .fairness(FairnessConstraint::StatisticalParity { scope, epsilon });
            let label = format!("{scope_name} ({:.1}K)", epsilon / 1_000.0);
            (label, &session, request)
        })
    });
    print_block(
        "Table 5: Stack Overflow — varying the SP fairness threshold ε",
        rows,
    );
    let stats = session.cache_stats();
    println!(
        "\n(one session, 8 solves: {} cache hits, {} estimations — ε-sweeps re-estimate nothing)",
        stats.hits, stats.misses
    );
    println!("\nShape targets (paper Table 5):");
    println!("  * group SP: unfairness grows with ε and stays ≤ ε; utility grows with ε;");
    println!("  * individual SP: per-rule gaps are ≤ ε but the worst-case ruleset");
    println!("    unfairness stays high (min/max semantics across rules).");
}

/// Table 6 — robustness to the causal DAG: the original generator DAG, a
/// 1-layer independent DAG, the 2-layer variants, and a DAG recovered by
/// the PC algorithm; SO with group SP + group coverage, German with group
/// BGL + group coverage.
fn table6(data: &Datasets) {
    let blocks = [
        (
            &data.so,
            so_variants(),
            "Table 6 (top): Stack Overflow — SP group fairness + group coverage",
        ),
        (
            &data.german,
            german_variants(),
            "\nTable 6 (bottom): German Credit — BGL group fairness + group coverage",
        ),
    ];
    for (ds, variants, title) in blocks {
        let cfg = variant(variants, "group fairness + group coverage");
        // The frame is shared across variants; each DAG variant invalidates
        // the adjustment-set caches, so it gets its own session.
        let df = Arc::new(ds.df.clone());
        let rows = DagVariant::all().into_iter().map(|variant| {
            let session = FairCap::builder()
                .data(Arc::clone(&df))
                .dag(build_dag_variant(ds, variant))
                .outcome(&ds.outcome)
                .immutable(ds.immutable.iter().cloned())
                .mutable(ds.mutable.iter().cloned())
                .protected(ds.protected.clone())
                .build()
                .expect("dataset is well-formed");
            (
                variant.label().to_owned(),
                session,
                SolveRequest::from(cfg.clone()),
            )
        });
        print_block(title, rows);
    }

    println!("\nShape targets (paper Table 6): SO metrics are stable across DAG");
    println!("variants; German varies more, with the original and PC DAGs strongest.");
}

/// Figure 3 — runtime of each FairCap step (group mining, treatment mining,
/// greedy selection) across the nine problem settings on Stack Overflow, as
/// a CSV series matching the figure's stacked bars.
fn fig3(data: &Datasets) {
    println!("Figure 3: runtime by step (seconds), Stack Overflow, SP ε=$10k");
    println!("setting,group_mining_s,treatment_mining_s,greedy_selection_s,total_s");
    for (label, cfg) in so_variants() {
        // Cold session per setting: the figure reports cold-start runtimes,
        // as in the paper (warm re-solves are near-free; see table5).
        let session = session_of(&data.so).expect("SO dataset is well-formed");
        let report = session
            .solve(&SolveRequest::from(cfg))
            .expect("variant config is valid");
        let t = &report.timings;
        println!(
            "{label},{:.3},{:.3},{:.3},{:.3}",
            t.grouping.as_secs_f64(),
            t.intervention.as_secs_f64(),
            t.greedy.as_secs_f64(),
            t.total().as_secs_f64()
        );
    }
    println!("\nShape targets (paper Fig. 3): treatment mining (step 2) dominates;");
    println!("group mining is negligible; rule-coverage settings run fastest because");
    println!("the raised Apriori threshold prunes grouping patterns.");
}

/// Figure 4 — total runtime as a function of the dataset fraction (25%,
/// 50%, 75%, 100% of Stack Overflow) for the nine FairCap settings plus the
/// IDS and FRL baselines.
fn fig4(data: &Datasets) {
    let full = &data.so;
    let samples: Vec<(String, Dataset)> = [0.25, 0.5, 0.75, 1.0]
        .into_iter()
        .map(|f| {
            let ds = if f >= 1.0 {
                full.clone()
            } else {
                full.subsample(f, 7)
            };
            (format!("{:.0}%", f * 100.0), ds)
        })
        .collect();
    runtime_sweep(
        "Figure 4: total runtime (seconds) vs dataset fraction, Stack Overflow",
        &so_variants(),
        &samples,
    );
    println!("\nShape target (paper Fig. 4): runtime grows roughly linearly in rows.");
}

/// Figure 5 — runtime as a function of the number of mutable (2–6, with 10
/// immutable) and immutable (5–10, with 6 mutable) attributes, for the
/// no-constraint / group-fairness / individual-fairness settings plus the
/// IDS and FRL baselines.
fn fig5(data: &Datasets) {
    let full = &data.so;
    let settings = [
        ("No constraint", "no fairness + no coverage"),
        ("Group fairness", "group fairness + no coverage"),
        ("Indi fairness", "individual fairness + no coverage"),
    ]
    .map(|(label, name)| (label.to_owned(), variant(so_variants(), name)));
    println!("Figure 5: runtime (seconds) vs number of attributes, Stack Overflow\n");

    let mutable_sweep: Vec<(String, Dataset)> = (2..=6)
        .map(|m| (format!("10imm/{m}mut"), full.restrict_attrs(10, m)))
        .collect();
    runtime_sweep(
        "Left panel: 10 immutable, 2-6 mutable",
        &settings,
        &mutable_sweep,
    );

    println!();
    let immutable_sweep: Vec<(String, Dataset)> = (5..=10)
        .map(|i| (format!("{i}imm/6mut"), full.restrict_attrs(i, 6)))
        .collect();
    runtime_sweep(
        "Right panel: 5-10 immutable, 6 mutable",
        &settings,
        &immutable_sweep,
    );

    println!("\nShape target (paper Fig. 5): runtime grows with both attribute kinds");
    println!("(mutable → intervention lattice, immutable → grouping patterns), with");
    println!("similar impact; IDS/FRL runtimes grow only mildly.");
}

/// A runtime figure as CSV: `title`, a header naming each dataset, one row
/// per setting (a cold solve's total time on each dataset), then one row
/// each for IDS and FRL (their rule-learning wall time).
fn runtime_sweep(
    title: &str,
    settings: &[(String, FairCapConfig)],
    datasets: &[(String, Dataset)],
) {
    println!("{title}");
    let tags: String = datasets.iter().map(|(tag, _)| format!(",{tag}")).collect();
    println!("setting{tags}");
    let row = |label: &str, seconds: &dyn Fn(&Dataset) -> f64| {
        let cells: String = datasets
            .iter()
            .map(|(_, ds)| format!(",{:.3}", seconds(ds)))
            .collect();
        println!("{label}{cells}");
    };
    for (label, cfg) in settings {
        row(label, &|ds| {
            let session = session_of(ds).expect("dataset is well-formed");
            let report = session
                .solve(&SolveRequest::from(cfg.clone()))
                .expect("variant config is valid");
            report.timings.total().as_secs_f64()
        });
    }
    let ids = ids_if_clauses as fn(&Dataset) -> Vec<Pattern>;
    for (label, learn) in [("IDS", ids), ("FRL", frl_if_clauses)] {
        row(label, &|ds| {
            let t = Instant::now();
            let _ = learn(ds);
            t.elapsed().as_secs_f64()
        });
    }
}

/// Estimator ablation — linear / stratified / IPW / AIPW / matching on the
/// German-credit dataset, sharing one session so the per-estimator cache
/// stats are directly comparable.
///
/// Each estimator re-solves the same Prescription Ruleset Selection
/// instance; because the [`CateEngine`] caches estimates per estimator, the
/// sweep reports exactly how much estimation work each estimator performed
/// (`misses`) and how much was reused within its own solve (`hits`).
/// `docs/estimators.md` discusses the trade-offs the numbers illustrate.
fn ablation_estimators(data: &Datasets) {
    let ds = &data.german;
    let session = session_of(ds).expect("German generator produces a valid instance");
    println!(
        "Estimator ablation on German credit ({} rows, protected = {})\n",
        ds.df.n_rows(),
        ds.protected
    );
    println!(
        "{:<12} {:>6} {:>10} {:>12} {:>10} {:>10} {:>8} {:>8} {:>9}",
        "estimator",
        "rules",
        "expected",
        "exp_protect",
        "unfairness",
        "coverage",
        "hits",
        "misses",
        "solve_ms"
    );
    for kind in EstimatorKind::ALL {
        let t0 = Instant::now();
        let report = session
            .solve(&SolveRequest::default().estimator_kind(kind))
            .expect("solve succeeds on generated data");
        let elapsed = t0.elapsed();
        let stats = session.engine().cache_stats_for(kind.name());
        println!(
            "{:<12} {:>6} {:>10.4} {:>12.4} {:>10.4} {:>10.3} {:>8} {:>8} {:>9.1}",
            kind.name(),
            report.size(),
            report.summary.expected,
            report.summary.expected_protected,
            report.summary.unfairness,
            report.summary.coverage,
            stats.hits,
            stats.misses,
            elapsed.as_secs_f64() * 1e3,
        );
    }
    println!("\nPer-estimator cache stats (accumulated over the sweep):");
    let totals = ("(total)".to_owned(), session.cache_stats());
    for (name, stats) in session
        .cache_stats_by_estimator()
        .into_iter()
        .chain([totals])
    {
        println!(
            "  {:<12} hits {:>6}  misses {:>6}  entries {:>6}",
            name, stats.hits, stats.misses, stats.entries
        );
    }
}

/// Ablation: the §5.2 positive-parent lattice pruning vs. exhaustive
/// enumeration of intervention patterns — how many CATE estimations does
/// the materialization rule save? — plus the cost of a cold solve under
/// each of the three cost policies.
///
/// Each lattice case builds a fresh [`CateEngine`] per rep, so the
/// estimate cache cannot hide the estimator cost; the line reports the
/// node count and the engine's estimate-cache misses beside the time.
fn ablation_lattice(data: &Datasets) {
    /// Timed repetitions per case; the line reports the best and the mean.
    const REPS: usize = 5;
    let ds = &data.ablation_so;
    let df = Arc::new(ds.df.clone());
    let dag = Arc::new(ds.dag.clone());
    let all = Mask::ones(ds.df.n_rows());
    let items = single_attribute_items(&ds.df, &ds.mutable, &all, MAX_VALUES_PER_ATTR)
        .expect("mutable items");
    println!(
        "ablation_lattice: Stack Overflow, {ABLATION_ROWS} rows, {} intervention items, best of {REPS}",
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
            let session = session_of(ds).expect("SO dataset is well-formed");
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

/// Microbenchmarks for the substrates: mask algebra, pattern coverage,
/// Apriori mining, and d-separation — the building blocks whose cost the
/// end-to-end figures aggregate.
fn micro_substrates(data: &Datasets) {
    let n = 38_000;
    let a = Mask::from_indices(n, &(0..n).step_by(3).collect::<Vec<_>>());
    let b = Mask::from_indices(n, &(0..n).step_by(7).collect::<Vec<_>>());
    micro_case("mask_and_38k", 1_000, || &a & &b);
    micro_case("mask_intersect_count_38k", 1_000, || a.intersect_count(&b));
    micro_case("mask_iter_ones_38k", 100, || a.iter_ones().sum::<usize>());

    let ds = &data.ablation_so;
    let single = Pattern::of_eq(&[("gdp_group", Value::from("low"))]);
    let triple = Pattern::of_eq(&[
        ("gdp_group", Value::from("high")),
        ("age", Value::from("25-34")),
        ("gender", Value::from("male")),
    ]);
    micro_case("pattern_coverage_1pred", 100, || {
        single.coverage(&ds.df).expect("gdp_group exists")
    });
    micro_case("pattern_coverage_3pred", 100, || {
        triple.coverage(&ds.df).expect("attributes exist")
    });

    let all = Mask::ones(ds.df.n_rows());
    for max_len in [1usize, 2, 3] {
        let cfg = AprioriConfig {
            min_support: 0.1,
            max_len,
            max_values_per_attr: MAX_VALUES_PER_ATTR,
        };
        micro_case(&format!("apriori_immutables/{max_len}"), 10, || {
            apriori(&ds.df, &ds.immutable, &all, &cfg).expect("immutables exist")
        });
    }

    let small = so::generate(1_000, SEED);
    micro_case("d_separation_so_dag", 1_000, || {
        d_separated_names(
            &small.dag,
            &["education"],
            &["salary"],
            &["age", "gdp_group", "parents_education", "student"],
        )
        .expect("SO DAG nodes")
    });
}

/// Time `batch` calls of `f` per rep, over 10 reps, and print the per-call
/// best and mean.
fn micro_case<T>(name: &str, batch: u32, mut f: impl FnMut() -> T) {
    let timed = best_of(10, || {
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

#[cfg(test)]
mod tests {
    use super::*;

    fn names(sections: &[Section]) -> Vec<&'static str> {
        sections.iter().map(|(name, _)| *name).collect()
    }

    #[test]
    fn sections_are_selected_by_unique_name() {
        let all = names(&SECTIONS);
        let mut unique = all.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), all.len(), "duplicate section name in {all:?}");

        assert_eq!(names(&selected(&[]).unwrap()), all, "no argument runs all");
        let args = ["fig5", "table3"].map(String::from);
        assert_eq!(names(&selected(&args).unwrap()), ["fig5", "table3"]);

        let args = ["table3", "table7"].map(String::from);
        let err = selected(&args).unwrap_err();
        assert!(err.contains("`table7`"), "{err}");
        assert!(err.contains(&all.join(", ")), "{err}");
    }
}
