//! # faircap-bench
//!
//! The paper's evaluation, one binary per result: `table3` … `table6` and
//! `fig3` … `fig5` regenerate a table or figure, `ablation_estimators`,
//! `ablation_lattice` and `micro_substrates` time the design choices and
//! substrates underneath, and `estimator_bench`, `solve_bench` and
//! `serve_bench` write the `BENCH_*.json` documents CI gates against the
//! committed baselines.
//!
//! The experiment loops follow the session model: one
//! [`PrescriptionSession`] per dataset (built by [`session_of`]), re-solved
//! per constraint variant — quality tables share the session's CATE caches
//! across variants, while runtime figures build a cold session per
//! measurement so timings keep the paper's cold-start semantics.
//!
//! The timing binaries share one harness: [`BenchArgs`] parses
//! `[OUT_DIR] [--gate BASELINE.json]` plus a binary's own switches,
//! [`best_of`] is the timing loop, [`write_json`] writes the document, and
//! [`enforce_gate`] reads the committed baseline through the binary's
//! [`GateSpec`] and exits 1 when a row moves past its [`Bound`].

#![warn(missing_docs)]

use faircap_baselines::{adapt_if_clauses, IfClauseRole};
use faircap_core::{
    all_structural_variants, FairCap, FairCapConfig, FairnessKind, Json, PrescriptionSession,
    SolutionReport,
};
use faircap_data::Dataset;
use faircap_table::Pattern;
use std::path::Path;
use std::time::{Duration, Instant};

/// Build a [`PrescriptionSession`] from a dataset bundle (frame and DAG are
/// cloned into the session; the bundle stays usable).
pub fn session_of(ds: &Dataset) -> faircap_core::Result<PrescriptionSession> {
    FairCap::builder()
        .data(ds.df.clone())
        .dag(ds.dag.clone())
        .outcome(&ds.outcome)
        .immutable(ds.immutable.iter().cloned())
        .mutable(ds.mutable.iter().cloned())
        .protected(ds.protected.clone())
        .build()
}

/// The nine Table-4 FairCap rows: every structural variant of Figure 2
/// instantiated with the given thresholds.
pub fn nine_variants(
    kind: FairnessKind,
    fairness_threshold: f64,
    theta: f64,
    theta_protected: f64,
) -> Vec<(String, FairCapConfig)> {
    all_structural_variants(kind, fairness_threshold, theta, theta_protected)
        .into_iter()
        .map(|(label, fairness, coverage)| {
            let cfg = FairCapConfig {
                fairness,
                coverage,
                ..FairCapConfig::default()
            };
            (label, cfg)
        })
        .collect()
}

/// Mine baseline IF clauses with IDS over all attributes of a dataset.
pub fn ids_if_clauses(ds: &Dataset) -> Vec<Pattern> {
    let attrs = ds.attributes();
    // A low interpretability weight yields the fuller rule sets the paper
    // reports for IDS (12–16 rules) instead of a 2-rule summary.
    let cfg = faircap_baselines::IdsConfig {
        lambda_interp: 0.1,
        ..Default::default()
    };
    let set = faircap_baselines::learn_decision_set(&ds.df, &attrs, &ds.outcome, &cfg)
        .expect("IDS runs on generated data");
    set.rules.into_iter().map(|r| r.pattern).collect()
}

/// Mine baseline IF clauses with FRL over all attributes of a dataset.
pub fn frl_if_clauses(ds: &Dataset) -> Vec<Pattern> {
    let attrs = ds.attributes();
    let frl = faircap_baselines::learn_falling_rule_list(
        &ds.df,
        &attrs,
        &ds.outcome,
        &faircap_baselines::FrlConfig::default(),
    )
    .expect("FRL runs on generated data");
    frl.rules.into_iter().map(|r| r.pattern).collect()
}

/// The four baseline rows of Table 4 for one dataset: IDS / FRL × grouping /
/// intervention adaptations, evaluated against the shared session (so their
/// CATE queries hit the same caches as the FairCap variants).
pub fn baseline_rows(
    session: &PrescriptionSession,
    ds: &Dataset,
    config: &FairCapConfig,
) -> faircap_core::Result<Vec<SolutionReport>> {
    let ids = ids_if_clauses(ds);
    let frl = frl_if_clauses(ds);
    Ok(vec![
        adapt_if_clauses(
            session,
            &ids,
            IfClauseRole::Grouping,
            "IDS (IF clause as grouping pattern)",
            config,
        )?,
        adapt_if_clauses(
            session,
            &ids,
            IfClauseRole::Intervention,
            "IDS (IF clause as intervention pattern)",
            config,
        )?,
        adapt_if_clauses(
            session,
            &frl,
            IfClauseRole::Grouping,
            "FRL (IF clause as grouping pattern)",
            config,
        )?,
        adapt_if_clauses(
            session,
            &frl,
            IfClauseRole::Intervention,
            "FRL (IF clause as intervention pattern)",
            config,
        )?,
    ])
}

// ---------------------------------------------------------------------------
// Bench harness: the command line, the timing loop, the JSON writer and the
// baseline gate shared by every timing binary.
// ---------------------------------------------------------------------------

/// A bench binary's command line: `[OUT_DIR] [--gate BASELINE.json]` plus
/// the binary's own switches (such as `estimator_bench --full`).
#[derive(Debug)]
pub struct BenchArgs {
    /// Directory the `BENCH_*.json` document goes to (default `.`).
    pub out_dir: String,
    /// Committed baseline to gate against, from `--gate PATH`.
    pub gate: Option<String>,
    switches: Vec<String>,
}

impl BenchArgs {
    /// Parse `args` (the program name already skipped). `switches` are the
    /// flags this binary accepts besides `--gate`. An unknown flag, a
    /// `--gate` without a path or a second positional argument is an error,
    /// so a mistyped switch cannot silently become the output directory.
    pub fn parse(
        switches: &[&str],
        args: impl IntoIterator<Item = String>,
    ) -> Result<Self, String> {
        let mut parsed = BenchArgs {
            out_dir: ".".to_owned(),
            gate: None,
            switches: Vec::new(),
        };
        let mut out_dir_given = false;
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            if arg == "--gate" {
                parsed.gate = Some(args.next().ok_or("--gate needs a baseline path")?);
            } else if switches.contains(&arg.as_str()) {
                parsed.switches.push(arg);
            } else if arg.starts_with('-') {
                return Err(format!("unknown flag `{arg}`"));
            } else if out_dir_given {
                return Err(format!("unexpected argument `{arg}` after OUT_DIR"));
            } else {
                parsed.out_dir = arg;
                out_dir_given = true;
            }
        }
        Ok(parsed)
    }

    /// Parse the process arguments; on an error print it with the usage
    /// text and exit 2.
    pub fn from_env(bin: &str, switches: &[&str]) -> Self {
        Self::parse(switches, std::env::args().skip(1)).unwrap_or_else(|err| {
            let extra: String = switches.iter().map(|s| format!(" [{s}]")).collect();
            eprintln!("{bin}: {err}\nusage: {bin} [OUT_DIR] [--gate BASELINE.json]{extra}");
            std::process::exit(2)
        })
    }

    /// Whether `switch` was given.
    pub fn has(&self, switch: &str) -> bool {
        self.switches.iter().any(|s| s == switch)
    }
}

/// What [`best_of`] measured.
#[derive(Debug)]
pub struct Timed<T> {
    /// Wall time of the fastest rep.
    pub min: Duration,
    /// Mean wall time over all reps, in milliseconds.
    pub mean_ms: f64,
    /// What the fastest rep returned.
    pub best: T,
}

impl<T> Timed<T> {
    /// [`min`](Self::min) in milliseconds: the figure the gates compare.
    pub fn min_ms(&self) -> f64 {
        self.min.as_secs_f64() * 1e3
    }
}

/// Run `f` `reps` times (at least once) and keep the fastest rep's time
/// and payload; a tie keeps the earlier rep.
pub fn best_of<T>(reps: usize, mut f: impl FnMut() -> T) -> Timed<T> {
    let reps = reps.max(1);
    let mut total = Duration::ZERO;
    let mut best: Option<(Duration, T)> = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        let payload = f();
        let took = t0.elapsed();
        total += took;
        if best.as_ref().is_none_or(|(min, _)| took < *min) {
            best = Some((took, payload));
        }
    }
    let (min, best) = best.expect("at least one rep");
    Timed {
        min,
        mean_ms: total.as_secs_f64() * 1e3 / reps as f64,
        best,
    }
}

/// A JSON object with `fields` in order.
pub fn json_obj<'a>(fields: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
    Json::Obj(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

/// Write `doc` to `out_dir/file`, creating `out_dir` if needed, and print
/// the path.
pub fn write_json(bin: &str, out_dir: &str, file: &str, doc: &Json) {
    std::fs::create_dir_all(out_dir).expect("creating the output directory");
    let path = Path::new(out_dir).join(file);
    std::fs::write(&path, doc.render())
        .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
    println!("{bin}: wrote {}", path.display());
}

/// Largest relative regression a gate lets through: a min time may grow by
/// 20% and a throughput may drop by 20%.
pub const GATE_MAX_REGRESSION: f64 = 0.20;

/// Absolute slack on every min-time ceiling. Sub-millisecond cases (a
/// 10⁴-row OLS estimate, a warm sweep) jitter by more than 20% from
/// scheduler noise alone; this keeps the gate about regressions, not timer
/// variance. It is irrelevant for multi-millisecond cases.
pub const GATE_ABS_SLACK_MS: f64 = 1.0;

/// Which way a gated value must not move.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bound {
    /// A time: fails above `base·(1 + GATE_MAX_REGRESSION) + GATE_ABS_SLACK_MS`.
    Ceiling,
    /// A throughput: fails below `base·(1 − GATE_MAX_REGRESSION)`.
    Floor,
}

impl Bound {
    /// The limit a value is held to, given its baseline.
    pub fn limit(self, base: f64) -> f64 {
        match self {
            Bound::Ceiling => base * (1.0 + GATE_MAX_REGRESSION) + GATE_ABS_SLACK_MS,
            Bound::Floor => base * (1.0 - GATE_MAX_REGRESSION),
        }
    }

    /// Whether `value` is past `limit`; a value exactly at it passes.
    pub fn regressed(self, value: f64, limit: f64) -> bool {
        match self {
            Bound::Ceiling => value > limit,
            Bound::Floor => value < limit,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Bound::Ceiling => "ceiling",
            Bound::Floor => "floor",
        }
    }
}

/// Where a gated binary's rows sit in its `BENCH_*.json`, and how its value
/// is bounded.
#[derive(Debug)]
pub struct GateSpec {
    /// The top-level array holding one object per row.
    pub array: &'static str,
    /// The fields that identify a row.
    pub keys: &'static [&'static str],
    /// The numeric field the gate compares.
    pub value: &'static str,
    /// Unit of `value`, for the printed verdicts.
    pub unit: &'static str,
    /// Which way `value` must not move.
    pub bound: Bound,
}

/// `estimator_bench`: best-of time per (estimator, rows).
pub const ESTIMATOR_GATE: GateSpec = GateSpec {
    array: "entries",
    keys: &["estimator", "rows"],
    value: "min_ms",
    unit: "ms",
    bound: Bound::Ceiling,
};

/// `solve_bench`: best-of time per (case, dataset).
pub const SOLVE_GATE: GateSpec = GateSpec {
    array: "entries",
    keys: &["case", "dataset"],
    value: "min_ms",
    unit: "ms",
    bound: Bound::Ceiling,
};

/// `serve_bench`: throughput per phase (the binary gates `keepalive` only).
pub const SERVE_GATE: GateSpec = GateSpec {
    array: "phases",
    keys: &["phase"],
    value: "throughput_rps",
    unit: "req/s",
    bound: Bound::Floor,
};

/// One gated row: its key fields as text, and its value.
pub type GateRow = (Vec<String>, f64);

impl GateSpec {
    /// The rows of a baseline document, or `None` when the text does not
    /// parse or lacks the array. Objects missing a key or the value are
    /// left out.
    pub fn read(&self, text: &str) -> Option<Vec<GateRow>> {
        let doc = Json::parse(text).ok()?;
        let rows = doc
            .get(self.array)?
            .as_arr()?
            .iter()
            .filter_map(|item| {
                let key = self
                    .keys
                    .iter()
                    .map(|k| match item.get(k)? {
                        Json::Str(s) => Some(s.clone()),
                        Json::Num(n) => Some(n.to_string()),
                        _ => None,
                    })
                    .collect::<Option<Vec<_>>>()?;
                Some((key, item.get(self.value)?.as_f64()?))
            })
            .collect();
        Some(rows)
    }
}

/// The gate's finding for one measured row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Verdict {
    /// The baseline has no row with this key: skipped.
    NoBaseline,
    /// Compared against the baseline.
    Checked {
        /// The baseline's value.
        base: f64,
        /// The ceiling or floor derived from it.
        limit: f64,
        /// Whether the measured value is past the limit.
        regressed: bool,
    },
}

/// Hold each measured row to its baseline row under `bound`; one verdict
/// per measured row, in order.
pub fn gate(bound: Bound, baseline: &[GateRow], measured: &[GateRow]) -> Vec<Verdict> {
    measured
        .iter()
        .map(|(key, value)| {
            let Some(&(_, base)) = baseline.iter().find(|(k, _)| k == key) else {
                return Verdict::NoBaseline;
            };
            let limit = bound.limit(base);
            Verdict::Checked {
                base,
                limit,
                regressed: bound.regressed(*value, limit),
            }
        })
        .collect()
}

/// Gate `measured` against the baseline file at `path`: print a verdict
/// per row and exit 1 if any row regressed. A missing or unparsable file,
/// or one with no rows, warns and skips the gate.
pub fn enforce_gate(bin: &str, spec: &GateSpec, path: &str, measured: &[GateRow]) {
    let baseline = std::fs::read_to_string(path)
        .ok()
        .and_then(|text| spec.read(&text))
        .filter(|rows| !rows.is_empty());
    let Some(baseline) = baseline else {
        eprintln!("{bin}: warning — no baseline entries in {path}; gate skipped");
        return;
    };
    let unit = spec.unit;
    let mut regressed_rows = Vec::new();
    for ((key, value), verdict) in measured.iter().zip(gate(spec.bound, &baseline, measured)) {
        let label = key.join(" @ ");
        match verdict {
            Verdict::NoBaseline => {
                eprintln!("{bin}: warning — no baseline for {label}; skipped");
            }
            Verdict::Checked {
                base,
                limit,
                regressed,
            } => {
                println!(
                    "{bin}: gate {label} — {value:.3} {unit} vs baseline {base:.3} {unit} ({} {limit:.3}): {}",
                    spec.bound.name(),
                    if regressed { "REGRESSED" } else { "ok" }
                );
                if regressed {
                    regressed_rows.push(label);
                }
            }
        }
    }
    if !regressed_rows.is_empty() {
        eprintln!(
            "{bin}: FAIL — {} regressed more than {:.0}% vs {path}",
            regressed_rows.join(", "),
            GATE_MAX_REGRESSION * 100.0
        );
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faircap_core::SolveRequest;

    fn args(list: &[&str]) -> Result<BenchArgs, String> {
        BenchArgs::parse(&["--full"], list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn args_parse_out_dir_gate_and_switches() {
        let a = args(&[]).unwrap();
        assert_eq!((a.out_dir.as_str(), a.gate.as_deref()), (".", None));
        assert!(!a.has("--full"));
        let a = args(&["target", "--full", "--gate", "BENCH_estimators.json"]).unwrap();
        assert_eq!(a.out_dir, "target");
        assert_eq!(a.gate.as_deref(), Some("BENCH_estimators.json"));
        assert!(a.has("--full"));
    }

    #[test]
    fn args_reject_unknown_flags_and_a_second_positional() {
        // A typo must not become the output directory and skip the tier.
        let err = args(&["target", "--ful", "--gate", "BENCH_estimators.json"]).unwrap_err();
        assert!(err.contains("--ful"), "{err}");
        assert!(args(&["target", "other"]).is_err());
        assert!(args(&["--gate"]).is_err());
        // A switch is only known to the binary that declares it.
        assert!(BenchArgs::parse(&[], ["--full".to_owned()]).is_err());
    }

    #[test]
    fn best_of_keeps_the_fastest_rep_and_its_payload() {
        let mut rep = 0;
        let timed = best_of(3, || {
            rep += 1;
            // Only the second rep does not sleep.
            std::thread::sleep(Duration::from_millis([40, 0, 40][rep - 1]));
            rep
        });
        assert_eq!(rep, 3);
        assert_eq!(timed.best, 2);
        assert!(timed.min_ms() < 40.0 && timed.mean_ms >= 80.0 / 3.0);
        assert_eq!(best_of(0, || 7).best, 7, "zero reps still run once");
    }

    fn row(key: &[&str], value: f64) -> GateRow {
        (key.iter().map(|k| k.to_string()).collect(), value)
    }

    #[test]
    fn ceiling_passes_at_the_limit_and_fails_just_above() {
        let baseline = [row(&["linear", "10000"], 10.0)];
        let ceiling = 10.0 * 1.2 + 1.0;
        assert_eq!(Bound::Ceiling.limit(10.0), ceiling);
        let verdicts = gate(
            Bound::Ceiling,
            &baseline,
            &[
                row(&["linear", "10000"], ceiling),
                row(&["linear", "10000"], ceiling.next_up()),
            ],
        );
        let regressed: Vec<bool> = verdicts
            .iter()
            .map(|v| match v {
                Verdict::Checked {
                    regressed, limit, ..
                } => {
                    assert_eq!(*limit, ceiling);
                    *regressed
                }
                Verdict::NoBaseline => panic!("baseline row exists"),
            })
            .collect();
        assert_eq!(regressed, [false, true]);
    }

    #[test]
    fn floor_passes_at_the_limit_and_fails_just_below() {
        let baseline = [row(&["keepalive"], 2000.0)];
        let floor = 2000.0 * 0.8;
        assert_eq!(Bound::Floor.limit(2000.0), floor);
        let verdicts = gate(
            Bound::Floor,
            &baseline,
            &[
                row(&["keepalive"], floor),
                row(&["keepalive"], floor.next_down()),
            ],
        );
        assert!(matches!(
            verdicts[0],
            Verdict::Checked {
                regressed: false,
                ..
            }
        ));
        assert!(matches!(
            verdicts[1],
            Verdict::Checked {
                regressed: true,
                ..
            }
        ));
    }

    #[test]
    fn a_row_without_a_baseline_entry_is_skipped() {
        let baseline = [row(&["cold_sweep", "german"], 5.0)];
        let verdicts = gate(
            Bound::Ceiling,
            &baseline,
            &[
                row(&["cold_sweep", "adult"], 1e9),
                row(&["warm_sweep", "german"], 1e9),
            ],
        );
        assert_eq!(verdicts, [Verdict::NoBaseline, Verdict::NoBaseline]);
    }

    #[test]
    fn an_unparsable_or_foreign_baseline_reads_as_none() {
        assert_eq!(ESTIMATOR_GATE.read("not json {"), None);
        assert_eq!(
            SERVE_GATE.read(r#"{"entries": []}"#),
            None,
            "no phases array"
        );
        // Rows missing a key or the value are left out, not misread.
        let rows = SOLVE_GATE
            .read(r#"{"entries": [{"case": "a", "min_ms": 1}, {"case": "a", "dataset": "d", "min_ms": 2}]}"#)
            .unwrap();
        assert_eq!(rows, [row(&["a", "d"], 2.0)]);
    }

    #[test]
    fn committed_baselines_read_every_row_through_their_specs() {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        let read = |spec: &GateSpec, file: &str| {
            let text = std::fs::read_to_string(format!("{root}/{file}")).unwrap();
            spec.read(&text)
                .unwrap_or_else(|| panic!("{file} does not parse"))
        };
        let estimators = read(&ESTIMATOR_GATE, "BENCH_estimators.json");
        assert_eq!(estimators.len(), 23);
        assert!(estimators
            .iter()
            .any(|(k, _)| k == &["matching", "1000000"]));
        let solve = read(&SOLVE_GATE, "BENCH_solve.json");
        assert_eq!(solve.len(), 6);
        assert!(solve
            .iter()
            .any(|(k, _)| k == &["warm_sweep", "stackoverflow"]));
        let serve = read(&SERVE_GATE, "BENCH_serve.json");
        assert!(serve.iter().any(|(k, v)| k == &["keepalive"] && *v > 0.0));
    }

    #[test]
    fn nine_variants_enumerated() {
        let v = nine_variants(FairnessKind::StatisticalParity, 10_000.0, 0.5, 0.5);
        assert_eq!(v.len(), 9);
        assert!(v[0].0.contains("no fairness"));
        assert!(v.iter().any(|(l, _)| l.contains("individual fairness")));
    }

    #[test]
    fn baseline_clauses_minable() {
        let ds = faircap_data::so::generate(1_500, 7);
        let ids = ids_if_clauses(&ds);
        assert!(!ids.is_empty());
        let frl = frl_if_clauses(&ds);
        assert!(!frl.is_empty());
    }

    #[test]
    fn session_of_solves_and_reuses_caches_across_variants() {
        let ds = faircap_data::so::generate(1_500, 7);
        let session = session_of(&ds).unwrap();
        let variants = nine_variants(FairnessKind::StatisticalParity, 10_000.0, 0.5, 0.5);
        let mut misses_per_variant = Vec::new();
        for (_, cfg) in &variants {
            let before = session.cache_stats().misses;
            session.solve(&SolveRequest::from(cfg.clone())).unwrap();
            misses_per_variant.push(session.cache_stats().misses - before);
        }
        assert!(misses_per_variant[0] > 0, "first solve estimates");
        // Later fairness-only variants with the same coverage settings reuse
        // the warmed cache entirely.
        assert!(
            misses_per_variant.iter().skip(1).any(|&m| m == 0),
            "at least one re-solve must be fully cache-served: {misses_per_variant:?}"
        );
    }
}
