//! Estimator hot-path benchmark: per-estimator CATE latency across
//! scenario sizes, recorded machine-readably and gated against a committed
//! baseline.
//!
//! For each row tier (10⁴ and 10⁵ by default; `--full` adds 10⁶) the
//! driver generates the default `faircap-scenario` dataset (seed 7, planted
//! ground truth, 27 confounder cells) and times every built-in estimator on
//! the same estimand — `CATE(f0 = yes)` over the whole population with the
//! full stable-attribute adjustment set. Four reference baselines measure
//! the hot-path engine's win rather than just its absolute numbers:
//!
//! * `linear_naive` / `ipw_naive` — the pre-kernel row-major
//!   implementations preserved in `faircap_causal::estimate::reference`;
//! * `matching_naive` — the per-unit matching loop preserved there, which
//!   walks every unit's whole tie-inclusive matched set (`O(n·m)`);
//! * `matching_brute` — the matching estimator forced onto its serial
//!   brute-force scan. Searching once per (cell, arm), it is no longer
//!   quadratic on these 27-cell data, but its budget still prices
//!   `n_t · n_c` pair distances and refuses the larger tiers.
//!
//! Both matching baselines run at the 10⁴ tier only.
//!
//! Results go to stdout *and* `BENCH_estimators.json` (CWD, or the
//! directory given as the first argument). Each row carries the best-of
//! rep's per-estimate [`HotStats`] (`build_ns` / `index_ns` / `solve_ns`
//! / `tree_visits`), so the scale-curve trend lines show where the time
//! goes, not just how much there is. Every case runs single-threaded, as
//! every estimate does.
//! With `--gate BASELINE.json`, each (estimator, rows) entry's best-of-reps
//! time goes through the shared gate ([`faircap_bench::enforce_gate`] with
//! [`faircap_bench::ESTIMATOR_GATE`]): the run exits 1 when one exceeds its
//! baseline by more than 20% plus 1 ms, and entries missing from the
//! baseline warn and skip, so new estimators or tiers can land before
//! their baseline does.
//!
//! ```sh
//! cargo run --release -p faircap-bench --bin estimator_bench \
//!     [-- OUT_DIR] [--gate BASELINE.json] [--full]
//! ```

use faircap_bench::{best_of, enforce_gate, json_obj, write_json, BenchArgs, ESTIMATOR_GATE};
use faircap_causal::estimate::{matching, reference};
use faircap_causal::{
    EstimateCtx, Estimator as _, EstimatorKind, HotStats, MatchParams, MatchStrategy,
};
use faircap_core::Json;
use faircap_scenario::{generate, ScenarioSpec, TruthGroup};
use faircap_table::{Pattern, Value};

/// Scenario seed, recorded in the result document.
const SEED: u64 = 7;
/// Default row tiers; `--full` appends [`FULL_TIER`].
const TIERS: [usize; 2] = [10_000, 100_000];
/// The paper-scale tier (CI's per-PR job runs it; a `--full` run takes
/// seconds).
const FULL_TIER: usize = 1_000_000;
/// Timed repetitions per case (best-of is what the gate compares).
const REPS: usize = 3;
/// Largest tier where the matching baselines run: beyond it the per-unit
/// loop takes seconds to minutes and the brute scan is over budget.
const MATCHING_BASELINE_MAX_ROWS: usize = 10_000;

struct Entry {
    estimator: String,
    rows: usize,
    reps: usize,
    min_ms: f64,
    mean_ms: f64,
    cate: f64,
    /// Hot-path stage accounting of the best-of rep (the rep `min_ms`
    /// came from), with `solve_ns` closed as `total − build − index`
    /// exactly like the engine does. Reference baselines without staged
    /// accounting report everything under `solve_ns`.
    stats: HotStats,
}

impl Entry {
    fn to_json(&self) -> Json {
        json_obj([
            ("estimator", Json::Str(self.estimator.clone())),
            ("rows", Json::Num(self.rows as f64)),
            ("reps", Json::Num(self.reps as f64)),
            ("min_ms", Json::Num(self.min_ms)),
            ("mean_ms", Json::Num(self.mean_ms)),
            ("cate", Json::Num(self.cate)),
            ("build_ns", Json::Num(self.stats.build_ns as f64)),
            ("index_ns", Json::Num(self.stats.index_ns as f64)),
            ("solve_ns", Json::Num(self.stats.solve_ns as f64)),
            ("tree_visits", Json::Num(self.stats.tree_visits as f64)),
        ])
    }
}

/// Time one estimator case. Each rep estimates into a fresh [`HotStats`];
/// the entry keeps the best-of rep's accounting so the JSON row explains
/// where `min_ms` went.
fn time_case(label: &str, rows: usize, mut f: impl FnMut(&mut HotStats) -> f64) -> Entry {
    let timed = best_of(REPS, || {
        let mut stats = HotStats::default();
        (f(&mut stats), stats)
    });
    let (cate, mut stats) = timed.best;
    let total_ns = timed.min.as_nanos() as u64;
    stats.solve_ns = total_ns.saturating_sub(stats.build_ns.saturating_add(stats.index_ns));
    let (min_ms, mean_ms) = (timed.min_ms(), timed.mean_ms);
    println!(
        "estimator_bench: rows={rows} {label:<15} min {min_ms:9.2} ms  mean {mean_ms:9.2} ms  cate {cate:+.3}"
    );
    Entry {
        estimator: label.to_owned(),
        rows,
        reps: REPS,
        min_ms,
        mean_ms,
        cate,
        stats,
    }
}

/// Best-of times of one tier's entries, keyed by estimator label.
fn min_of<'a>(entries: &'a [Entry], label: &str, rows: usize) -> Option<&'a Entry> {
    entries
        .iter()
        .find(|e| e.estimator == label && e.rows == rows)
}

fn run_tier(rows: usize, entries: &mut Vec<Entry>) {
    eprintln!("estimator_bench: generating scenario with {rows} rows (seed {SEED})...");
    let sc = generate(&ScenarioSpec {
        rows,
        seed: SEED,
        ..Default::default()
    })
    .expect("scenario generation");
    let df = &sc.dataset.df;
    let group = sc.group_mask(TruthGroup::All);
    let treated = Pattern::of_eq(&[("f0", Value::from("yes"))])
        .coverage(df)
        .expect("treatment pattern");
    let outcome = sc.dataset.outcome.as_str();
    let adjustment: Vec<String> = sc.dataset.immutable.clone();

    for kind in EstimatorKind::ALL {
        entries.push(time_case(kind.name(), rows, |stats| {
            let mut ctx = EstimateCtx::default();
            let estimate = kind
                .estimate_with_ctx(&mut ctx, df, &group, &treated, outcome, &adjustment)
                .expect("estimate");
            *stats = ctx.stats;
            estimate.cate
        }));
    }
    entries.push(time_case("linear_naive", rows, |_stats| {
        reference::linear_naive(df, &group, &treated, outcome, &adjustment)
            .expect("linear_naive")
            .cate
    }));
    entries.push(time_case("ipw_naive", rows, |_stats| {
        reference::ipw_naive(df, &group, &treated, outcome, &adjustment)
            .expect("ipw_naive")
            .cate
    }));
    if rows <= MATCHING_BASELINE_MAX_ROWS {
        entries.push(time_case("matching_naive", rows, |_stats| {
            reference::matching_naive(
                df,
                &group,
                &treated,
                outcome,
                &adjustment,
                &MatchParams::default(),
            )
            .expect("matching_naive")
            .cate
        }));
        entries.push(time_case("matching_brute", rows, |stats| {
            let params = MatchParams {
                index: None,
                strategy: MatchStrategy::Brute,
            };
            matching::estimate_with(df, &group, &treated, outcome, &adjustment, &params, stats)
                .expect("matching_brute")
                .cate
        }));
    }

    // The headline wins, printed per tier when both sides ran.
    for (fast, slow) in [
        ("matching", "matching_naive"),
        ("matching", "matching_brute"),
        ("linear", "linear_naive"),
        ("ipw", "ipw_naive"),
    ] {
        if let (Some(f), Some(s)) = (min_of(entries, fast, rows), min_of(entries, slow, rows)) {
            println!(
                "estimator_bench: rows={rows} {fast} speedup vs {slow}: {:.1}x",
                s.min_ms / f.min_ms
            );
        }
    }
}

fn main() {
    let args = BenchArgs::from_env("estimator_bench", &["--full"]);
    let mut tiers: Vec<usize> = TIERS.to_vec();
    if args.has("--full") {
        tiers.push(FULL_TIER);
    }

    let mut entries = Vec::new();
    for rows in tiers {
        run_tier(rows, &mut entries);
    }

    let doc = Json::Obj(vec![
        ("benchmark".into(), Json::Str("estimators".into())),
        ("seed".into(), Json::Num(SEED as f64)),
        (
            "entries".into(),
            Json::Arr(entries.iter().map(Entry::to_json).collect()),
        ),
    ]);
    write_json(
        "estimator_bench",
        &args.out_dir,
        "BENCH_estimators.json",
        &doc,
    );

    if let Some(gate_path) = &args.gate {
        let measured: Vec<_> = entries
            .iter()
            .map(|e| (vec![e.estimator.clone(), e.rows.to_string()], e.min_ms))
            .collect();
        enforce_gate("estimator_bench", &ESTIMATOR_GATE, gate_path, &measured);
    }
}
