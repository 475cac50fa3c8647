//! Solve hot-path benchmark: cold vs. warm constraint-sweep latency,
//! recorded machine-readably and gated against a committed baseline.
//!
//! For each dataset the driver times the same three-constraint sweep
//! (none / statistical parity / bounded group loss) in three regimes:
//!
//! * `cold_sweep` — a fresh session per repetition: every CATE estimated,
//!   every lattice mined, the full Steps 1–3 pipeline;
//! * `warm_sweep_nocache` — a warmed session re-solved with
//!   `use_solve_cache(false)`: the estimate cache stays hot but grouping
//!   and intervention mining re-run per solve. This is the pre-cache warm
//!   path and the denominator of the headline speedup;
//! * `warm_sweep` — the same warmed session with the solve caches on:
//!   constraint-only re-solves skip Steps 1–2 via the intervention cache
//!   and only re-run the per-solve filter + greedy selection.
//!
//! The run **asserts** that the cached warm sweep returns rulesets
//! bit-identical to the uncached one (same rules, same benefit floats,
//! same summary). It also requires the cached sweep to be at least
//! [`MIN_WARM_SPEEDUP`]× faster — the regression the cache exists to
//! prevent — but checks that last, after the JSON is written and the gate
//! has run, so a slow run still leaves its measurements: it then exits 1
//! naming every dataset that missed the factor.
//!
//! Results go to stdout *and* `BENCH_solve.json` (CWD, or the directory
//! given as the first argument). With `--gate BASELINE.json`, each
//! (case, dataset) entry's best-of-reps time goes through the shared gate
//! ([`faircap_bench::enforce_gate`] with [`faircap_bench::SOLVE_GATE`]):
//! the run exits 1 when one exceeds its baseline by more than 20% plus
//! 1 ms, and entries missing from the baseline warn and skip so new
//! datasets can land before their baseline.
//!
//! ```sh
//! cargo run --release -p faircap-bench --bin solve_bench \
//!     [-- OUT_DIR] [--gate BASELINE.json]
//! ```

use faircap_bench::{
    best_of, enforce_gate, json_obj, session_of, write_json, BenchArgs, SOLVE_GATE,
};
use faircap_core::{
    FairnessConstraint, FairnessScope, Json, PrescriptionSession, SolutionReport, SolveRequest,
};
use faircap_data::{german, so, Dataset};

/// Timed repetitions per case (best-of is what the gate compares). Five
/// reps because the warm sweep is fast enough that a single descheduling
/// can double a rep's wall-clock; best-of-5 keeps the gate about
/// regressions rather than scheduler luck.
const REPS: usize = 5;
/// The cached warm sweep must beat the uncached warm sweep by at least
/// this factor or the run fails — the property this PR's solve caches
/// were built to deliver.
const MIN_WARM_SPEEDUP: f64 = 2.0;

struct Entry {
    case: String,
    dataset: String,
    rows: usize,
    reps: usize,
    min_ms: f64,
    mean_ms: f64,
}

impl Entry {
    fn to_json(&self) -> Json {
        json_obj([
            ("case", Json::Str(self.case.clone())),
            ("dataset", Json::Str(self.dataset.clone())),
            ("rows", Json::Num(self.rows as f64)),
            ("reps", Json::Num(self.reps as f64)),
            ("min_ms", Json::Num(self.min_ms)),
            ("mean_ms", Json::Num(self.mean_ms)),
        ])
    }
}

/// The constraint sweep: three solves differing only in the
/// fairness constraint, i.e. the workload the intervention cache targets.
fn sweep(use_solve_cache: bool) -> Vec<SolveRequest> {
    [
        FairnessConstraint::None,
        FairnessConstraint::StatisticalParity {
            scope: FairnessScope::Group,
            epsilon: 10_000.0,
        },
        FairnessConstraint::BoundedGroupLoss {
            scope: FairnessScope::Group,
            tau: 0.1,
        },
    ]
    .into_iter()
    .map(|f| {
        SolveRequest::default()
            .fairness(f)
            .use_solve_cache(use_solve_cache)
    })
    .collect()
}

fn run_sweep(session: &PrescriptionSession, use_solve_cache: bool) -> Vec<SolutionReport> {
    sweep(use_solve_cache)
        .iter()
        .map(|request| session.solve(request).expect("valid request"))
        .collect()
}

/// Time one sweep case; the reports are the best-of rep's.
fn time_case(
    case: &str,
    dataset: &str,
    rows: usize,
    f: impl FnMut() -> Vec<SolutionReport>,
) -> (Entry, Vec<SolutionReport>) {
    let timed = best_of(REPS, f);
    let (min_ms, mean_ms) = (timed.min_ms(), timed.mean_ms);
    println!(
        "solve_bench: {dataset} ({rows} rows) {case:<20} min {min_ms:9.3} ms  mean {mean_ms:9.3} ms"
    );
    let entry = Entry {
        case: case.to_owned(),
        dataset: dataset.to_owned(),
        rows,
        reps: REPS,
        min_ms,
        mean_ms,
    };
    (entry, timed.best)
}

/// Assert two sweeps produced bit-identical rulesets: same rules in the
/// same order with the same benefit floats, and the same summaries.
fn assert_sweeps_identical(a: &[SolutionReport], b: &[SolutionReport], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: sweep lengths differ");
    for (x, y) in a.iter().zip(b) {
        let rx: Vec<String> = x.rules.iter().map(|r| r.to_string()).collect();
        let ry: Vec<String> = y.rules.iter().map(|r| r.to_string()).collect();
        assert_eq!(rx, ry, "{what}: rulesets differ");
        for (rx, ry) in x.rules.iter().zip(&y.rules) {
            assert_eq!(
                rx.benefit.to_bits(),
                ry.benefit.to_bits(),
                "{what}: rule benefits differ"
            );
        }
        assert_eq!(
            format!("{:?}", x.summary),
            format!("{:?}", y.summary),
            "{what}: summaries differ"
        );
        assert_eq!(x.constraints_met, y.constraints_met, "{what}");
    }
}

/// Time `ds`'s sweeps into `entries` and `speedups`, returning the cached
/// warm sweep's speedup over the uncached one.
fn run_dataset(
    name: &str,
    ds: &Dataset,
    entries: &mut Vec<Entry>,
    speedups: &mut Vec<Json>,
) -> f64 {
    let rows = ds.df.n_rows();

    // Cold: a fresh session per repetition, so nothing carries over.
    let (cold, _) = time_case("cold_sweep", name, rows, || {
        let session = session_of(ds).expect("dataset is well-formed");
        run_sweep(&session, true)
    });

    // One warmed session for both warm regimes; the cold reps above used
    // their own sessions, so warm it explicitly once.
    let session = session_of(ds).expect("dataset is well-formed");
    run_sweep(&session, true);

    let (nocache, nocache_reports) = time_case("warm_sweep_nocache", name, rows, || {
        run_sweep(&session, false)
    });
    let (warm, warm_reports) = time_case("warm_sweep", name, rows, || run_sweep(&session, true));

    assert_sweeps_identical(
        &warm_reports,
        &nocache_reports,
        &format!("{name}: cached vs uncached warm sweep"),
    );
    let hot = session.solve_hot_stats();
    let cache = session.intervention_cache_stats();
    println!(
        "solve_bench: {name} session counters — solves {} / intervention-cache {} hits {} misses",
        hot.solves, cache.hits, cache.misses
    );
    assert!(cache.hits > 0, "{name}: warm sweep must hit the cache");

    let speedup = nocache.min_ms / warm.min_ms.max(1e-9);
    println!("solve_bench: {name} warm speedup (cached vs uncached): {speedup:.1}x");
    speedups.push(Json::Obj(vec![
        ("dataset".into(), Json::Str(name.to_owned())),
        ("warm_vs_nocache".into(), Json::Num(speedup)),
    ]));

    entries.push(cold);
    entries.push(nocache);
    entries.push(warm);
    speedup
}

fn main() {
    let args = BenchArgs::from_env("solve_bench", &[]);

    let mut entries = Vec::new();
    let mut speedups = Vec::new();
    let datasets = [
        ("german", german::generate(german::GERMAN_DEFAULT_ROWS, 42)),
        ("stackoverflow", so::generate(10_000, 42)),
    ];
    let mut too_slow = Vec::new();
    for (name, ds) in &datasets {
        let speedup = run_dataset(name, ds, &mut entries, &mut speedups);
        if speedup < MIN_WARM_SPEEDUP {
            too_slow.push(format!("{name} ({speedup:.2}x)"));
        }
    }

    let doc = Json::Obj(vec![
        ("benchmark".into(), Json::Str("solve".into())),
        (
            "entries".into(),
            Json::Arr(entries.iter().map(Entry::to_json).collect()),
        ),
        ("speedups".into(), Json::Arr(speedups)),
    ]);
    write_json("solve_bench", &args.out_dir, "BENCH_solve.json", &doc);

    if let Some(gate_path) = &args.gate {
        let measured: Vec<_> = entries
            .iter()
            .map(|e| (vec![e.case.clone(), e.dataset.clone()], e.min_ms))
            .collect();
        enforce_gate("solve_bench", &SOLVE_GATE, gate_path, &measured);
    }

    if !too_slow.is_empty() {
        eprintln!(
            "solve_bench: FAIL — cached warm sweep less than {MIN_WARM_SPEEDUP}x faster \
             than uncached on {}",
            too_slow.join(", ")
        );
        std::process::exit(1);
    }
}
