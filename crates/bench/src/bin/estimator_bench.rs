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
//! / `tasks` / `tree_visits`), so the scale-curve trend lines show where
//! the time goes, not just how much there is.
//! With `--gate BASELINE.json`,
//! each (estimator, rows) entry's best-of-reps time is compared against
//! the committed baseline's and the run exits 1 on a >20% regression
//! (plus a 1 ms absolute slack so sub-millisecond cases don't gate on
//! timer noise); entries missing from the baseline warn and skip, so new
//! estimators or tiers can land before their baseline does.
//!
//! ```sh
//! cargo run --release -p faircap-bench --bin estimator_bench \
//!     [-- OUT_DIR] [--gate BASELINE.json] [--full]
//! ```

use faircap_causal::estimate::{matching, reference};
use faircap_causal::{
    EstimateCtx, Estimator as _, EstimatorKind, HotStats, MatchParams, MatchStrategy,
};
use faircap_core::Json;
use faircap_scenario::{generate, ScenarioSpec, TruthGroup};
use faircap_table::{Pattern, Value};
use std::time::Instant;

/// Scenario seed, recorded in the result document.
const SEED: u64 = 7;
/// Default row tiers; `--full` appends [`FULL_TIER`].
const TIERS: [usize; 2] = [10_000, 100_000];
/// The paper-scale tier (CI's per-PR job runs it; a `--full` run takes
/// seconds).
const FULL_TIER: usize = 1_000_000;
/// Timed repetitions per case (best-of is what the gate compares).
const REPS: usize = 3;
/// Relative min-time increase vs. the baseline that fails the gate.
const GATE_MAX_REGRESSION: f64 = 0.20;
/// Absolute slack added to every gate ceiling: sub-millisecond cases
/// (10⁴-row OLS runs in ~0.6 ms) jitter by more than 20% from scheduler
/// noise alone, and this floor keeps the gate about regressions, not
/// timer variance. Irrelevant for the multi-ms cases the gate guards.
const GATE_ABS_SLACK_MS: f64 = 1.0;
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
        Json::Obj(
            [
                ("estimator", Json::Str(self.estimator.clone())),
                ("rows", Json::Num(self.rows as f64)),
                ("reps", Json::Num(self.reps as f64)),
                ("min_ms", Json::Num(self.min_ms)),
                ("mean_ms", Json::Num(self.mean_ms)),
                ("cate", Json::Num(self.cate)),
                ("build_ns", Json::Num(self.stats.build_ns as f64)),
                ("index_ns", Json::Num(self.stats.index_ns as f64)),
                ("solve_ns", Json::Num(self.stats.solve_ns as f64)),
                ("tasks", Json::Num(self.stats.tasks as f64)),
                ("tree_visits", Json::Num(self.stats.tree_visits as f64)),
            ]
            .into_iter()
            .map(|(k, v)| (k.to_owned(), v))
            .collect(),
        )
    }
}

/// Time one estimator case: `reps` timed runs, best-of and mean recorded.
/// Each rep estimates into a fresh [`HotStats`]; the entry keeps the
/// best-of rep's accounting so the JSON row explains where `min_ms` went.
fn bench_case(label: &str, rows: usize, f: impl Fn(&mut HotStats) -> f64) -> Entry {
    let mut times_ms = Vec::with_capacity(REPS);
    let mut cate = 0.0;
    let mut best: Option<(f64, HotStats)> = None;
    for _ in 0..REPS {
        let mut stats = HotStats::default();
        let t0 = Instant::now();
        cate = f(&mut stats);
        let total_ns = t0.elapsed().as_nanos() as u64;
        let ms = total_ns as f64 / 1e6;
        stats.solve_ns = total_ns.saturating_sub(stats.build_ns.saturating_add(stats.index_ns));
        times_ms.push(ms);
        if best.as_ref().is_none_or(|(t, _)| ms < *t) {
            best = Some((ms, stats));
        }
    }
    let (min_ms, stats) = best.expect("at least one rep");
    let mean_ms = times_ms.iter().sum::<f64>() / times_ms.len() as f64;
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
        entries.push(bench_case(kind.name(), rows, |stats| {
            let mut ctx = EstimateCtx {
                workers: 1,
                stats: HotStats::default(),
                group_cache: None,
            };
            let estimate = kind
                .estimate_with_ctx(&mut ctx, df, &group, &treated, outcome, &adjustment)
                .expect("estimate");
            stats.absorb(&ctx.stats);
            estimate.cate
        }));
    }
    entries.push(bench_case("linear_naive", rows, |_stats| {
        reference::linear_naive(df, &group, &treated, outcome, &adjustment)
            .expect("linear_naive")
            .cate
    }));
    entries.push(bench_case("ipw_naive", rows, |_stats| {
        reference::ipw_naive(df, &group, &treated, outcome, &adjustment)
            .expect("ipw_naive")
            .cate
    }));
    if rows <= MATCHING_BASELINE_MAX_ROWS {
        entries.push(bench_case("matching_naive", rows, |_stats| {
            reference::matching_naive(
                df,
                &group,
                &treated,
                outcome,
                &adjustment,
                &MatchParams {
                    index: None,
                    strategy: MatchStrategy::Auto,
                    workers: 1,
                },
            )
            .expect("matching_naive")
            .cate
        }));
        entries.push(bench_case("matching_brute", rows, |stats| {
            let params = MatchParams {
                index: None,
                strategy: MatchStrategy::Brute,
                workers: 1,
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

/// The committed baseline's `(estimator, rows) → min_ms` map, if the file
/// parses as an estimator-benchmark document.
fn baseline_times(path: &str) -> Option<Vec<(String, usize, f64)>> {
    let text = std::fs::read_to_string(path).ok()?;
    let doc = Json::parse(&text).ok()?;
    let Json::Arr(items) = doc.get("entries")? else {
        return None;
    };
    let mut out = Vec::new();
    for item in items {
        if let (Some(Json::Str(e)), Some(Json::Num(rows)), Some(Json::Num(min))) =
            (item.get("estimator"), item.get("rows"), item.get("min_ms"))
        {
            out.push((e.clone(), *rows as usize, *min));
        }
    }
    Some(out)
}

fn main() {
    let mut out_dir = ".".to_owned();
    let mut gate: Option<String> = None;
    let mut full = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--gate" => gate = Some(args.next().expect("--gate needs a baseline path")),
            "--full" => full = true,
            _ => out_dir = arg,
        }
    }

    let mut tiers: Vec<usize> = TIERS.to_vec();
    if full {
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
    let out_dir = out_dir.trim_end_matches('/');
    std::fs::create_dir_all(out_dir).expect("creating the output directory");
    let path = format!("{out_dir}/BENCH_estimators.json");
    std::fs::write(&path, doc.render()).expect("writing BENCH_estimators.json");
    println!("estimator_bench: wrote {path}");

    if let Some(gate_path) = gate {
        match baseline_times(&gate_path) {
            Some(baseline) if !baseline.is_empty() => {
                let mut regressed = false;
                for entry in &entries {
                    let Some((_, _, base_min)) = baseline
                        .iter()
                        .find(|(e, r, _)| *e == entry.estimator && *r == entry.rows)
                    else {
                        eprintln!(
                            "estimator_bench: warning — no baseline for {} @ {} rows; skipped",
                            entry.estimator, entry.rows
                        );
                        continue;
                    };
                    let ceiling = base_min * (1.0 + GATE_MAX_REGRESSION) + GATE_ABS_SLACK_MS;
                    let verdict = if entry.min_ms > ceiling {
                        regressed = true;
                        "REGRESSED"
                    } else {
                        "ok"
                    };
                    println!(
                        "estimator_bench: gate {} @ {} rows — {:.2} ms vs baseline {:.2} ms (ceiling {:.2}): {}",
                        entry.estimator, entry.rows, entry.min_ms, base_min, ceiling, verdict
                    );
                }
                if regressed {
                    eprintln!(
                        "estimator_bench: FAIL — at least one estimator regressed more than {:.0}% \
                         vs {gate_path}",
                        GATE_MAX_REGRESSION * 100.0
                    );
                    std::process::exit(1);
                }
            }
            _ => {
                // A missing or foreign-format baseline cannot gate; flag it
                // loudly but let the run succeed so the baseline can be
                // established.
                eprintln!(
                    "estimator_bench: warning — no baseline entries in {gate_path}; gate skipped"
                );
            }
        }
    }
}
