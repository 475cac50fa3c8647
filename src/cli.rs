//! Argument parsing and orchestration for the `faircap` command-line tool.
//!
//! Kept in the library so the parsing logic is unit-testable; the binary in
//! `src/bin/faircap.rs` is a thin wrapper.
//!
//! Four subcommands:
//!
//! * the default (no subcommand) runs one solve and prints the report;
//! * `faircap serve …` boots the HTTP serving front end
//!   ([`run_serve`], backed by `faircap-serve`) around a long-lived warm
//!   session;
//! * `faircap gen …` samples a synthetic scenario with planted ground-truth
//!   CATEs into a directory ([`run_gen`], backed by `faircap-scenario`),
//!   optionally gating on estimator recovery (`--check`);
//! * `faircap replay …` replays a workload mix against an in-process
//!   session or a running `faircap serve`, appending the report to
//!   `BENCH_scale.json` ([`run_replay`]).
//!
//! Failures are typed ([`CliError`]) so the binary can exit with distinct
//! codes: **2** for configuration problems (bad flags, unreadable inputs,
//! an instance that fails validation), **1** for runtime failures (a solve
//! or the server falling over after a valid start). Engine errors are
//! carried as [`faircap_core::Error`] and rendered through its `Display` —
//! the single formatting path for every engine failure mode.

use faircap_causal::{Dag, Estimator, EstimatorKind};
use faircap_core::{
    CoverageConstraint, FairCap, FairCapConfig, FairnessConstraint, FairnessScope,
    PrescriptionSession, SessionRegistry, SessionSnapshot, SolutionReport, SolveRequest,
    WarmBootInfo,
};
use faircap_scenario::{
    Arrival, RecoveryOptions, ReplayOptions, ReplayTarget, ScenarioSpec, WorkloadMix,
};
use faircap_serve::{ServeConfig, Server};
use faircap_table::{csv, DataFrame, Pattern, Predicate, Value};
use std::time::Duration;

/// A CLI failure with its process exit code.
#[derive(Debug)]
pub enum CliError {
    /// Invalid invocation or problem setup: unknown flags, unreadable
    /// input files, malformed specs, an instance the session builder
    /// refuses. Exit code **2**.
    Config(String),
    /// The engine failed after a valid setup (solve error, serving
    /// failure), carried as the typed [`faircap_core::Error`]. Exit code
    /// **1**.
    Runtime(faircap_core::Error),
    /// A transport/filesystem failure at runtime (writing a snapshot,
    /// serving I/O). Exit code **1**.
    Io(String),
    /// A warm-start snapshot could not be read, decoded, or matched to the
    /// instance. Configuration-class (exit code **2**), but kept distinct
    /// from [`Config`](Self::Config) so the serve warm-boot path can fall
    /// back to a cold boot on snapshot problems *only* — never on broken
    /// data/DAG inputs.
    Snapshot(String),
    /// The `faircap gen --check` recovery gate failed: an adjusted
    /// estimator missed the planted truth, or the unadjusted estimate was
    /// not provably biased. The generated data is still on disk; the gate
    /// judged it. Exit code **1**.
    Check(String),
}

impl CliError {
    /// The process exit code this error maps to.
    pub fn exit_code(&self) -> i32 {
        match self {
            CliError::Config(_) | CliError::Snapshot(_) => 2,
            CliError::Runtime(_) | CliError::Io(_) | CliError::Check(_) => 1,
        }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Config(msg)
            | CliError::Io(msg)
            | CliError::Snapshot(msg)
            | CliError::Check(msg) => f.write_str(msg),
            // The typed engine error renders itself; no re-wording here.
            CliError::Runtime(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CliError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CliError::Runtime(e) => Some(e),
            _ => None,
        }
    }
}

/// Parsed command-line options.
#[derive(Debug, Clone, Default)]
pub struct CliOptions {
    /// CSV file with the data.
    pub data: String,
    /// Edge-list / DOT file with the causal DAG.
    pub dag: String,
    /// Outcome attribute.
    pub outcome: String,
    /// Comma-separated mutable attributes; all other non-outcome columns
    /// are treated as immutable.
    pub mutable: Vec<String>,
    /// Protected-group predicates `attr=value`, comma-separated.
    pub protected: Vec<(String, String)>,
    /// Fairness spec: `none`, `sp-group:EPS`, `sp-individual:EPS`,
    /// `bgl-group:TAU`, `bgl-individual:TAU`.
    pub fairness: String,
    /// Coverage spec: `none`, `group:THETA:THETA_P`, `rule:THETA:THETA_P`.
    pub coverage: String,
    /// Estimator: `linear`, `stratified`, `ipw`, `aipw`, `matching`.
    pub estimator: String,
    /// Maximum rules to select.
    pub max_rules: usize,
    /// Step-2 executor worker count (`None` = `FAIRCAP_WORKERS` env, then
    /// `available_parallelism`).
    pub workers: Option<usize>,
    /// Write the session's cache snapshot here after solving.
    pub save_cache: Option<String>,
    /// Warm-start the session from a snapshot file before solving.
    pub load_cache: Option<String>,
}

/// Usage text printed on `--help` or parse errors.
pub const USAGE: &str = "\
faircap — fair and actionable causal prescription rulesets

USAGE:
  faircap --data FILE.csv --dag DAG.txt --outcome COL \\
          --mutable a,b,c --protected attr=value[,attr=value] \\
          [--fairness sp-group:10000] [--coverage group:0.5:0.5] \\
          [--estimator linear|stratified|ipw|aipw|matching] [--max-rules 20] \\
          [--workers N] [--save-cache FILE] [--load-cache FILE]

The DAG file holds one `parent -> child` edge per line (DOT output of this
tool's own Dag type is accepted). Fairness: none | sp-group:EPS |
sp-individual:EPS | bgl-group:TAU | bgl-individual:TAU. Coverage:
none | group:THETA:THETA_P | rule:THETA:THETA_P. Estimators are documented
in docs/estimators.md.

--workers pins the Step-2 fan-out worker count (default: FAIRCAP_WORKERS,
then all cores). --save-cache writes the warmed CATE caches (adjustment
sets and estimates) to a versioned snapshot after solving;
--load-cache warm-starts from one, so an identical re-solve performs zero
new estimations. Either flag makes the tool print an `estimate-cache:` line
with the solve's hit/miss counters.";

/// Parse CLI arguments (without the program name).
pub fn parse_args(args: &[String]) -> Result<CliOptions, String> {
    let mut opts = CliOptions {
        fairness: "none".into(),
        coverage: "none".into(),
        estimator: "linear".into(),
        max_rules: 20,
        ..CliOptions::default()
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--help" || flag == "-h" {
            return Err(USAGE.to_owned());
        }
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("missing value for {flag}"))
        };
        match flag.as_str() {
            "--data" => opts.data = value()?,
            "--dag" => opts.dag = value()?,
            "--outcome" => opts.outcome = value()?,
            "--mutable" => {
                opts.mutable = value()?
                    .split(',')
                    .map(|s| s.trim().to_owned())
                    .filter(|s| !s.is_empty())
                    .collect()
            }
            "--protected" => {
                for pair in value()?.split(',') {
                    let (attr, v) = pair
                        .split_once('=')
                        .ok_or_else(|| format!("--protected needs attr=value, got `{pair}`"))?;
                    opts.protected
                        .push((attr.trim().to_owned(), v.trim().to_owned()));
                }
            }
            "--fairness" => opts.fairness = value()?,
            "--coverage" => opts.coverage = value()?,
            "--estimator" => opts.estimator = value()?,
            "--max-rules" => {
                opts.max_rules = value()?.parse().map_err(|e| format!("--max-rules: {e}"))?
            }
            "--workers" => {
                opts.workers = Some(value()?.parse().map_err(|e| format!("--workers: {e}"))?)
            }
            "--save-cache" => opts.save_cache = Some(value()?),
            "--load-cache" => opts.load_cache = Some(value()?),
            other => return Err(format!("unknown flag `{other}`\n\n{USAGE}")),
        }
    }
    for (name, val) in [
        ("--data", &opts.data),
        ("--dag", &opts.dag),
        ("--outcome", &opts.outcome),
    ] {
        if val.is_empty() {
            return Err(format!("{name} is required\n\n{USAGE}"));
        }
    }
    if opts.mutable.is_empty() {
        return Err(format!("--mutable is required\n\n{USAGE}"));
    }
    if opts.protected.is_empty() {
        return Err(format!("--protected is required\n\n{USAGE}"));
    }
    Ok(opts)
}

/// Translate the fairness spec string into a constraint.
pub fn parse_fairness(spec: &str) -> Result<FairnessConstraint, String> {
    if spec == "none" {
        return Ok(FairnessConstraint::None);
    }
    let (kind, threshold) = spec
        .split_once(':')
        .ok_or_else(|| format!("fairness spec `{spec}` needs KIND:THRESHOLD"))?;
    let threshold: f64 = threshold
        .parse()
        .map_err(|e| format!("fairness threshold: {e}"))?;
    let scope = |s: &str| {
        if s.ends_with("group") {
            FairnessScope::Group
        } else {
            FairnessScope::Individual
        }
    };
    match kind {
        "sp-group" | "sp-individual" => Ok(FairnessConstraint::StatisticalParity {
            scope: scope(kind),
            epsilon: threshold,
        }),
        "bgl-group" | "bgl-individual" => Ok(FairnessConstraint::BoundedGroupLoss {
            scope: scope(kind),
            tau: threshold,
        }),
        other => Err(format!("unknown fairness kind `{other}`")),
    }
}

/// Translate the coverage spec string into a constraint.
pub fn parse_coverage(spec: &str) -> Result<CoverageConstraint, String> {
    if spec == "none" {
        return Ok(CoverageConstraint::None);
    }
    let parts: Vec<&str> = spec.split(':').collect();
    if parts.len() != 3 {
        return Err(format!("coverage spec `{spec}` needs KIND:THETA:THETA_P"));
    }
    let theta: f64 = parts[1].parse().map_err(|e| format!("theta: {e}"))?;
    let theta_protected: f64 = parts[2].parse().map_err(|e| format!("theta_p: {e}"))?;
    match parts[0] {
        "group" => Ok(CoverageConstraint::Group {
            theta,
            theta_protected,
        }),
        "rule" => Ok(CoverageConstraint::Rule {
            theta,
            theta_protected,
        }),
        other => Err(format!("unknown coverage kind `{other}`")),
    }
}

/// Translate the estimator spec string; accepts every built-in estimator
/// by its stable name (`linear`, `stratified`, `ipw`, `aipw`, `matching`).
pub fn parse_estimator(spec: &str) -> Result<EstimatorKind, String> {
    EstimatorKind::parse(spec).ok_or_else(|| {
        let known: Vec<&str> = EstimatorKind::ALL.iter().map(|k| k.name()).collect();
        format!(
            "unknown estimator `{spec}` (expected one of: {})",
            known.join(", ")
        )
    })
}

/// Build the protected pattern, inferring value types from the frame.
pub fn protected_pattern(df: &DataFrame, pairs: &[(String, String)]) -> Result<Pattern, String> {
    let mut preds = Vec::with_capacity(pairs.len());
    for (attr, raw) in pairs {
        let col = df
            .column(attr)
            .map_err(|e| format!("protected attribute: {e}"))?;
        let value = match col.data_type() {
            faircap_table::DataType::Int => Value::Int(
                raw.parse::<i64>()
                    .map_err(|e| format!("protected value for {attr}: {e}"))?,
            ),
            faircap_table::DataType::Float => Value::Float(
                raw.parse::<f64>()
                    .map_err(|e| format!("protected value for {attr}: {e}"))?,
            ),
            faircap_table::DataType::Bool => Value::Bool(raw == "true"),
            faircap_table::DataType::Cat => Value::from(raw.as_str()),
        };
        preds.push(Predicate::eq(attr, value));
    }
    Ok(Pattern::new(preds))
}

/// Load the data/DAG/protected-pattern inputs and build the session,
/// optionally warm-starting from a snapshot file. Every failure here is a
/// [`CliError::Config`]: the user handed us something unusable.
fn build_session(
    data: &str,
    dag: &str,
    outcome: &str,
    mutable: &[String],
    protected: &[(String, String)],
    load_cache: Option<&str>,
) -> Result<PrescriptionSession, CliError> {
    let df = csv::read_csv(data).map_err(|e| CliError::Config(format!("reading {data}: {e}")))?;
    let dag_text = std::fs::read_to_string(dag)
        .map_err(|e| CliError::Config(format!("reading {dag}: {e}")))?;
    let dag = Dag::parse_edge_list(&dag_text)
        .map_err(|e| CliError::Config(format!("parsing DAG: {e}")))?;
    let immutable: Vec<String> = df
        .names()
        .iter()
        .filter(|c| **c != outcome && !mutable.contains(c))
        .cloned()
        .collect();
    let protected = protected_pattern(&df, protected).map_err(CliError::Config)?;
    let mut builder = FairCap::builder()
        .data(df)
        .dag(dag)
        .outcome(outcome)
        .immutable(immutable)
        .mutable(mutable.iter().cloned())
        .protected(protected);
    if let Some(path) = load_cache {
        let text = std::fs::read_to_string(path)
            .map_err(|e| CliError::Snapshot(format!("reading cache {path}: {e}")))?;
        let snapshot =
            SessionSnapshot::decode(&text).map_err(|e| CliError::Snapshot(e.to_string()))?;
        builder = builder.warm_start(snapshot);
    }
    builder.build().map_err(|e| match e {
        // A refused snapshot (wrong DAG/data/outcome/rows) is a snapshot
        // problem, not a data problem — serve falls back to a cold boot.
        faircap_core::Error::Snapshot(_) => CliError::Snapshot(e.to_string()),
        other => CliError::Config(other.to_string()),
    })
}

/// Load inputs and run FairCap according to the options.
///
/// Builds a [`FairCap`] session — all input validation (missing columns,
/// ill-typed outcome, outcome absent from the DAG, role conflicts) surfaces
/// as [`CliError::Config`] (exit code 2); a failing solve surfaces as
/// [`CliError::Runtime`] (exit code 1) rendered through the typed engine
/// error's `Display`.
///
/// `--load-cache` warm-starts the session from a snapshot file before
/// solving; `--save-cache` persists the warmed caches afterwards. When
/// either is given, the solve's estimate-cache counters are printed (the
/// CI snapshot round-trip job asserts `misses=0` on a warm re-solve).
pub fn execute(opts: &CliOptions) -> Result<SolutionReport, CliError> {
    let cfg = FairCapConfig {
        fairness: parse_fairness(&opts.fairness).map_err(CliError::Config)?,
        coverage: parse_coverage(&opts.coverage).map_err(CliError::Config)?,
        estimator: parse_estimator(&opts.estimator).map_err(CliError::Config)?,
        max_rules: opts.max_rules,
        ..FairCapConfig::default()
    };
    let session = build_session(
        &opts.data,
        &opts.dag,
        &opts.outcome,
        &opts.mutable,
        &opts.protected,
        opts.load_cache.as_deref(),
    )?;
    let mut request = SolveRequest::from(cfg);
    request.workers = opts.workers;
    let report = session.solve(&request).map_err(CliError::Runtime)?;
    if let Some(path) = &opts.save_cache {
        std::fs::write(path, session.snapshot().encode())
            .map_err(|e| CliError::Io(format!("writing cache {path}: {e}")))?;
    }
    if opts.save_cache.is_some() || opts.load_cache.is_some() {
        let stats = session.cache_stats();
        println!(
            "estimate-cache: hits={} misses={} entries={} evictions={}",
            stats.hits, stats.misses, stats.entries, stats.evictions
        );
        for (label, c) in [
            ("grouping-cache", session.grouping_cache_stats()),
            ("intervention-cache", session.intervention_cache_stats()),
        ] {
            println!(
                "{label}: hits={} misses={} entries={} evictions={}",
                c.hits, c.misses, c.entries, c.evictions
            );
        }
    }
    Ok(report)
}

/// One dataset group of the `faircap serve` subcommand: the session it
/// registers and the inputs that build it.
#[derive(Debug, Clone)]
pub struct ServeDatasetSpec {
    /// CSV file with the data.
    pub data: String,
    /// Edge-list / DOT file with the causal DAG.
    pub dag: String,
    /// Outcome attribute.
    pub outcome: String,
    /// Comma-separated mutable attributes.
    pub mutable: Vec<String>,
    /// Protected-group predicates `attr=value`.
    pub protected: Vec<(String, String)>,
    /// Session name the dataset registers under (default: `default`).
    pub name: String,
}

/// Parsed options of the `faircap serve` subcommand.
#[derive(Debug, Clone)]
pub struct ServeCliOptions {
    /// Datasets to register, one warm session each. The dataset flags
    /// (`--name/--data/--dag/--outcome/--mutable/--protected`) are
    /// repeatable: re-specifying one that is already set starts the next
    /// dataset group.
    pub datasets: Vec<ServeDatasetSpec>,
    /// Bind address.
    pub addr: String,
    /// Max concurrent solves (solve-pool workers).
    pub solve_workers: usize,
    /// Bounded solve-queue depth (admission control; overflow → 429).
    pub queue_depth: usize,
    /// Per-request solve timeout in milliseconds (overrun → 504).
    pub timeout_ms: u64,
    /// Snapshot directory: warm-boot source and `POST /v1/snapshot` sink.
    pub snapshot_dir: Option<String>,
}

/// Usage text of the `serve` subcommand.
pub const SERVE_USAGE: &str = "\
faircap serve — HTTP serving front end over warm prescription sessions

USAGE:
  faircap serve --data FILE.csv --dag DAG.txt --outcome COL \\
                --mutable a,b,c --protected attr=value[,attr=value] \\
                [--name default] \\
                [--data FILE2.csv --dag DAG2.txt --outcome COL2 \\
                 --mutable d,e --protected attr=value --name second] ... \\
                [--addr 127.0.0.1:7341] \\
                [--solve-workers 2] [--queue-depth 16] [--timeout-ms 120000] \\
                [--snapshot-dir DIR]

Boots one warm PrescriptionSession per dataset group and serves
POST /v1/solve, GET /v1/sessions, GET /v1/metrics, POST /v1/snapshot, and
POST /v1/shutdown (graceful drain). The dataset flags are repeatable:
re-specifying one that is already set starts the next dataset group, and
each group registers under its --name (solve requests route with the
`session` body field; it may be omitted when exactly one session is
registered). --solve-workers bounds concurrent solves; --queue-depth
bounds the admission queue (overflow answers 429); --timeout-ms bounds one
solve (overrun answers 504). With --snapshot-dir, the server warm-boots
each session from DIR/<name>.fc when present and POST /v1/snapshot
persists the live caches there. Endpoint schemas: docs/serving.md.";

/// Dataset fields accumulated while parsing one group.
#[derive(Default, Clone)]
struct PartialDataset {
    data: Option<String>,
    dag: Option<String>,
    outcome: Option<String>,
    mutable: Option<Vec<String>>,
    protected: Option<Vec<(String, String)>>,
    name: Option<String>,
}

impl PartialDataset {
    fn is_empty(&self) -> bool {
        self.data.is_none()
            && self.dag.is_none()
            && self.outcome.is_none()
            && self.mutable.is_none()
            && self.protected.is_none()
            && self.name.is_none()
    }

    fn finish(self) -> Result<ServeDatasetSpec, String> {
        let required = |field: Option<String>, flag: &str| {
            field.ok_or_else(|| format!("{flag} is required\n\n{SERVE_USAGE}"))
        };
        Ok(ServeDatasetSpec {
            data: required(self.data, "--data")?,
            dag: required(self.dag, "--dag")?,
            outcome: required(self.outcome, "--outcome")?,
            mutable: self
                .mutable
                .ok_or_else(|| format!("--mutable is required\n\n{SERVE_USAGE}"))?,
            protected: self
                .protected
                .ok_or_else(|| format!("--protected is required\n\n{SERVE_USAGE}"))?,
            name: self.name.unwrap_or_else(|| "default".into()),
        })
    }
}

/// Parse `faircap serve` arguments (after the subcommand word).
pub fn parse_serve_args(args: &[String]) -> Result<ServeCliOptions, String> {
    let mut opts = ServeCliOptions {
        datasets: Vec::new(),
        addr: "127.0.0.1:7341".into(),
        solve_workers: 2,
        queue_depth: 16,
        timeout_ms: 120_000,
        snapshot_dir: None,
    };
    let mut current = PartialDataset::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--help" || flag == "-h" {
            return Err(SERVE_USAGE.to_owned());
        }
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("missing value for {flag}"))
        };
        // Re-specifying a dataset flag that the current group already set
        // closes that group and opens the next one.
        macro_rules! set_dataset_field {
            ($field:ident, $value:expr) => {{
                let v = $value;
                if current.$field.is_some() {
                    opts.datasets.push(std::mem::take(&mut current).finish()?);
                }
                current.$field = Some(v);
            }};
        }
        match flag.as_str() {
            "--data" => set_dataset_field!(data, value()?),
            "--dag" => set_dataset_field!(dag, value()?),
            "--outcome" => set_dataset_field!(outcome, value()?),
            "--mutable" => set_dataset_field!(
                mutable,
                value()?
                    .split(',')
                    .map(|s| s.trim().to_owned())
                    .filter(|s| !s.is_empty())
                    .collect::<Vec<_>>()
            ),
            "--protected" => {
                let mut pairs = Vec::new();
                for pair in value()?.split(',') {
                    let (attr, v) = pair
                        .split_once('=')
                        .ok_or_else(|| format!("--protected needs attr=value, got `{pair}`"))?;
                    pairs.push((attr.trim().to_owned(), v.trim().to_owned()));
                }
                set_dataset_field!(protected, pairs);
            }
            "--name" => set_dataset_field!(name, value()?),
            "--addr" => opts.addr = value()?,
            "--solve-workers" => {
                opts.solve_workers = value()?
                    .parse()
                    .map_err(|e| format!("--solve-workers: {e}"))?
            }
            "--queue-depth" => {
                opts.queue_depth = value()?
                    .parse()
                    .map_err(|e| format!("--queue-depth: {e}"))?
            }
            "--timeout-ms" => {
                opts.timeout_ms = value()?.parse().map_err(|e| format!("--timeout-ms: {e}"))?
            }
            "--snapshot-dir" => opts.snapshot_dir = Some(value()?),
            other => return Err(format!("unknown flag `{other}`\n\n{SERVE_USAGE}")),
        }
    }
    if !current.is_empty() || opts.datasets.is_empty() {
        opts.datasets.push(current.finish()?);
    }
    let mut seen = std::collections::BTreeSet::new();
    for spec in &opts.datasets {
        if !seen.insert(spec.name.as_str()) {
            return Err(format!(
                "duplicate session name `{}`; give each dataset group a distinct --name",
                spec.name
            ));
        }
    }
    if opts.solve_workers == 0 || opts.queue_depth == 0 {
        return Err("--solve-workers and --queue-depth must be at least 1".into());
    }
    Ok(opts)
}

/// Build one dataset group's session, warm-booting from
/// `DIR/<name>.fc` when a snapshot directory is configured and the file
/// exists. An unreadable or incompatible snapshot (e.g. a refused
/// pre-v3 format) is reported on stderr and the session boots cold —
/// availability beats a stale cache. A successful warm boot returns its
/// provenance (snapshot path, wall-clock restore duration) for the
/// observability endpoints.
fn build_serve_session(
    spec: &ServeDatasetSpec,
    snapshot_dir: Option<&str>,
) -> Result<(PrescriptionSession, Option<WarmBootInfo>), CliError> {
    let snapshot_path = snapshot_dir
        .map(|dir| std::path::Path::new(dir).join(format!("{}.fc", spec.name)))
        .filter(|p| p.exists());
    match &snapshot_path {
        Some(path) => {
            let restore_started = std::time::Instant::now();
            match build_session(
                &spec.data,
                &spec.dag,
                &spec.outcome,
                &spec.mutable,
                &spec.protected,
                Some(&path.display().to_string()),
            ) {
                Ok(session) => {
                    let info = WarmBootInfo {
                        snapshot_path: path.display().to_string(),
                        restore_ms: restore_started.elapsed().as_secs_f64() * 1e3,
                    };
                    eprintln!(
                        "faircap-serve: warm boot from {} ({:.1} ms)",
                        path.display(),
                        info.restore_ms
                    );
                    Ok((session, Some(info)))
                }
                // Only a *snapshot* problem (unreadable, refused version,
                // instance mismatch) falls back to a cold boot; broken
                // data/DAG inputs propagate as the config errors they are.
                Err(e @ CliError::Snapshot(_)) => {
                    eprintln!(
                        "faircap-serve: warning: ignoring snapshot {}: {e}; booting cold",
                        path.display()
                    );
                    build_session(
                        &spec.data,
                        &spec.dag,
                        &spec.outcome,
                        &spec.mutable,
                        &spec.protected,
                        None,
                    )
                    .map(|session| (session, None))
                }
                Err(other) => Err(other),
            }
        }
        None => build_session(
            &spec.data,
            &spec.dag,
            &spec.outcome,
            &spec.mutable,
            &spec.protected,
            None,
        )
        .map(|session| (session, None)),
    }
}

/// Boot the serving front end — one warm session per dataset group — and
/// block until a graceful shutdown is requested (`POST /v1/shutdown`),
/// then drain and return.
pub fn run_serve(opts: &ServeCliOptions) -> Result<(), CliError> {
    let registry = std::sync::Arc::new(SessionRegistry::new());
    for spec in &opts.datasets {
        let (session, warm_boot) = build_serve_session(spec, opts.snapshot_dir.as_deref())?;
        let entry = registry
            .register(&spec.name, session)
            .expect("parse_serve_args refuses duplicate names");
        if let Some(info) = warm_boot {
            entry.set_warm_boot(info);
        }
    }
    let config = ServeConfig {
        addr: opts.addr.clone(),
        max_concurrent_solves: opts.solve_workers,
        solve_queue_depth: opts.queue_depth,
        solve_timeout: Duration::from_millis(opts.timeout_ms),
        snapshot_dir: opts.snapshot_dir.as_ref().map(Into::into),
        ..ServeConfig::default()
    };
    let server = Server::start(config, registry)
        .map_err(|e| CliError::Config(format!("binding {}: {e}", opts.addr)))?;
    let names: Vec<&str> = opts.datasets.iter().map(|s| s.name.as_str()).collect();
    println!(
        "faircap-serve listening on http://{} (sessions: {})",
        server.addr(),
        names.join(", ")
    );
    server.wait_for_shutdown_request();
    println!("faircap-serve: draining in-flight solves …");
    server.shutdown();
    println!("faircap-serve: stopped");
    Ok(())
}

/// Parsed options of the `faircap gen` subcommand. The spec knobs default
/// to [`ScenarioSpec::default`] so `faircap gen --out DIR` alone produces
/// the standard benchmark scenario.
#[derive(Debug, Clone)]
pub struct GenCliOptions {
    /// Output directory (`scenario.csv` / `scenario.dag` / `scenario.json`).
    pub out: String,
    /// The scenario spec assembled from the knob flags.
    pub spec: ScenarioSpec,
    /// Run the ground-truth recovery gate after generating.
    pub check: bool,
    /// Recovery gate: absolute error slack (outcome units).
    pub check_tol: f64,
    /// Recovery gate: additional slack in standard-error units.
    pub check_z: f64,
}

/// Usage text of the `gen` subcommand.
pub const GEN_USAGE: &str = "\
faircap gen — sample a synthetic scenario with planted ground-truth CATEs

USAGE:
  faircap gen --out DIR [--rows 100000] [--seed 7] [--name synthetic] \\
              [--stable 3] [--flexible 3] [--cardinality 3] \\
              [--confounding 0.6] [--heterogeneity 0.5] [--noise 10] \\
              [--check] [--check-tol 1.0] [--check-z 4.0]

Samples `--rows` rows from a structural causal model with `--stable`
immutable confounders (each `--cardinality` levels), `--flexible` binary
treatments, and a continuous outcome; every coefficient is hash-derived
from the spec, so the planted per-group CATEs are closed-form and the
sampled frame is bit-reproducible per (spec, seed). Writes scenario.csv,
scenario.dag (both directly usable as --data/--dag for `faircap solve` and
`faircap serve`), and scenario.json (roles + truth table) into DIR.

--check grades stratified/IPW/AIPW/matching against the planted truth in every
(treatment × group) cell (pass: |err| ≤ check-tol + check-z·se) and
requires the unadjusted difference-in-means to be provably biased; any
violation exits 1. Formats and semantics: docs/scenarios.md.";

/// Parse `faircap gen` arguments (after the subcommand word).
pub fn parse_gen_args(args: &[String]) -> Result<GenCliOptions, String> {
    let mut opts = GenCliOptions {
        out: String::new(),
        spec: ScenarioSpec::default(),
        check: false,
        check_tol: 1.0,
        check_z: 4.0,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--help" || flag == "-h" {
            return Err(GEN_USAGE.to_owned());
        }
        if flag == "--check" {
            opts.check = true;
            continue;
        }
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("missing value for {flag}"))
        };
        let spec = &mut opts.spec;
        match flag.as_str() {
            "--out" => opts.out = value()?,
            "--name" => spec.name = value()?,
            "--rows" => spec.rows = value()?.parse().map_err(|e| format!("--rows: {e}"))?,
            "--seed" => spec.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--stable" => spec.stable = value()?.parse().map_err(|e| format!("--stable: {e}"))?,
            "--flexible" => {
                spec.flexible = value()?.parse().map_err(|e| format!("--flexible: {e}"))?
            }
            "--cardinality" => {
                spec.cardinality = value()?
                    .parse()
                    .map_err(|e| format!("--cardinality: {e}"))?
            }
            "--confounding" => {
                spec.confounding = value()?
                    .parse()
                    .map_err(|e| format!("--confounding: {e}"))?
            }
            "--heterogeneity" => {
                spec.heterogeneity = value()?
                    .parse()
                    .map_err(|e| format!("--heterogeneity: {e}"))?
            }
            "--noise" => spec.noise = value()?.parse().map_err(|e| format!("--noise: {e}"))?,
            "--check-tol" => {
                opts.check_tol = value()?.parse().map_err(|e| format!("--check-tol: {e}"))?
            }
            "--check-z" => {
                opts.check_z = value()?.parse().map_err(|e| format!("--check-z: {e}"))?
            }
            other => return Err(format!("unknown flag `{other}`\n\n{GEN_USAGE}")),
        }
    }
    if opts.out.is_empty() {
        return Err(format!("--out is required\n\n{GEN_USAGE}"));
    }
    opts.spec
        .validate()
        .map_err(|e| format!("{e}\n\n{GEN_USAGE}"))?;
    Ok(opts)
}

/// Generate a scenario directory, print its provenance (rows, seed,
/// fingerprint) and truth table, and — with `--check` — gate on
/// ground-truth recovery: every adjusted (estimator × treatment × group)
/// cell must land within tolerance *and* the unadjusted estimate must be
/// provably biased, or the run fails with [`CliError::Check`] (exit 1).
pub fn run_gen(opts: &GenCliOptions) -> Result<(), CliError> {
    let sc = faircap_scenario::generate(&opts.spec).map_err(|e| CliError::Config(e.to_string()))?;
    let dir = std::path::Path::new(&opts.out);
    faircap_scenario::save(&sc, dir)
        .map_err(|e| CliError::Io(format!("writing {}: {e}", dir.display())))?;
    println!(
        "faircap-gen: {} ({} rows, seed {}) -> {} (fingerprint {:#018x})",
        sc.spec.name,
        sc.spec.rows,
        sc.spec.seed,
        dir.display(),
        sc.fingerprint()
    );
    for t in &sc.truth {
        println!(
            "  truth {} [{}] = {:+.4}",
            t.treatment,
            t.group.name(),
            t.cate
        );
    }
    if !opts.check {
        return Ok(());
    }
    let recovery_options = RecoveryOptions {
        abs_tol: opts.check_tol,
        z_tol: opts.check_z,
        ..RecoveryOptions::default()
    };
    let checks = faircap_scenario::check_recovery(&sc, &recovery_options)
        .map_err(|e| CliError::Check(e.to_string()))?;
    let failed = checks.iter().filter(|c| !c.pass).count();
    for c in &checks {
        println!("  {c}");
    }
    let treatment = &sc.dataset.mutable[0];
    let naive =
        faircap_scenario::naive_bias(&sc, treatment).map_err(|e| CliError::Check(e.to_string()))?;
    let biased = naive.biased(opts.check_tol, opts.check_z);
    println!(
        "  {} naive difference-in-means on {}: {naive}",
        if biased {
            "BIASED (expected)"
        } else {
            "UNBIASED"
        },
        treatment
    );
    if failed > 0 {
        return Err(CliError::Check(format!(
            "recovery gate: {failed} of {} cells out of tolerance",
            checks.len()
        )));
    }
    if !biased {
        return Err(CliError::Check(
            "recovery gate: the unadjusted estimate is not provably biased — \
             the scenario's confounding has no teeth at this size"
                .into(),
        ));
    }
    println!(
        "  recovery gate: all {} cells within tolerance",
        checks.len()
    );
    Ok(())
}

/// Parsed options of the `faircap replay` subcommand.
#[derive(Debug, Clone)]
pub struct ReplayCliOptions {
    /// Scenario directory written by `faircap gen`.
    pub scenario: String,
    /// Target server address; `None` replays against an in-process session.
    pub addr: Option<String>,
    /// Session name requests route to (HTTP targets).
    pub session: String,
    /// Workload mix preset name.
    pub mix: String,
    /// Total requests to issue.
    pub requests: usize,
    /// Concurrent client workers.
    pub clients: usize,
    /// Open-loop arrival rate in requests/second; `None` = closed loop.
    pub rate_hz: Option<f64>,
    /// Fraction of requests forced down the cold (re-mining) path.
    pub cold_fraction: f64,
    /// Statistical-parity epsilon for the sweep variants; `None` scales it
    /// from the scenario's planted utility gap.
    pub epsilon: Option<f64>,
    /// Append the report row to this JSON file.
    pub out: Option<String>,
    /// Ask the target server to shut down gracefully after the replay.
    pub shutdown: bool,
}

/// Usage text of the `replay` subcommand.
pub const REPLAY_USAGE: &str = "\
faircap replay — drive a solve workload against a scenario

USAGE:
  faircap replay --scenario DIR [--addr HOST:PORT] [--session default] \\
                 [--mix mixed] [--requests 64] [--clients 4] [--rate HZ] \\
                 [--cold-fraction 0.25] [--epsilon E] \\
                 [--out BENCH_scale.json] [--shutdown]

Loads the scenario directory written by `faircap gen` and replays a solve
mix against it: in-process by default, or over HTTP against a running
`faircap serve` when --addr is given (requests carry `session: --session`).
Mixes: steady | sweep | estimators | mixed (constraint sweep + estimator
rotation). --rate switches from a closed loop (--clients workers
back-to-back) to an open loop pacing request starts at HZ/second.
--cold-fraction interleaves requests that force grouping re-mining.

The report — throughput, latency percentiles, 429/503/504 counts,
estimate-cache counters, and the scenario's rows+seed — is printed and,
with --out, appended to the JSON array in that file. --shutdown posts
/v1/shutdown after the run so CI can tear the server down. Details:
docs/scenarios.md.";

/// Parse `faircap replay` arguments (after the subcommand word).
pub fn parse_replay_args(args: &[String]) -> Result<ReplayCliOptions, String> {
    let mut opts = ReplayCliOptions {
        scenario: String::new(),
        addr: None,
        session: "default".into(),
        mix: "mixed".into(),
        requests: 64,
        clients: 4,
        rate_hz: None,
        cold_fraction: 0.25,
        epsilon: None,
        out: None,
        shutdown: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--help" || flag == "-h" {
            return Err(REPLAY_USAGE.to_owned());
        }
        if flag == "--shutdown" {
            opts.shutdown = true;
            continue;
        }
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("missing value for {flag}"))
        };
        match flag.as_str() {
            "--scenario" => opts.scenario = value()?,
            "--addr" => opts.addr = Some(value()?),
            "--session" => opts.session = value()?,
            "--mix" => opts.mix = value()?,
            "--requests" => {
                opts.requests = value()?.parse().map_err(|e| format!("--requests: {e}"))?
            }
            "--clients" => {
                opts.clients = value()?.parse().map_err(|e| format!("--clients: {e}"))?
            }
            "--rate" => opts.rate_hz = Some(value()?.parse().map_err(|e| format!("--rate: {e}"))?),
            "--cold-fraction" => {
                opts.cold_fraction = value()?
                    .parse()
                    .map_err(|e| format!("--cold-fraction: {e}"))?
            }
            "--epsilon" => {
                opts.epsilon = Some(value()?.parse().map_err(|e| format!("--epsilon: {e}"))?)
            }
            "--out" => opts.out = Some(value()?),
            other => return Err(format!("unknown flag `{other}`\n\n{REPLAY_USAGE}")),
        }
    }
    if opts.scenario.is_empty() {
        return Err(format!("--scenario is required\n\n{REPLAY_USAGE}"));
    }
    if !WorkloadMix::PRESETS.contains(&opts.mix.as_str()) {
        return Err(format!(
            "unknown mix `{}` (expected one of: {})\n\n{REPLAY_USAGE}",
            opts.mix,
            WorkloadMix::PRESETS.join(", ")
        ));
    }
    if opts.requests == 0 || opts.clients == 0 {
        return Err("--requests and --clients must be at least 1".into());
    }
    if !(0.0..=1.0).contains(&opts.cold_fraction) {
        return Err("--cold-fraction must be in [0, 1]".into());
    }
    if opts.shutdown && opts.addr.is_none() {
        return Err("--shutdown needs --addr (there is no server to stop in-process)".into());
    }
    Ok(opts)
}

/// Append one report row to the JSON array in `path` (created as a
/// one-element array when the file is missing or empty).
fn append_bench_entry(path: &str, entry: faircap_core::Json) -> Result<(), CliError> {
    use faircap_core::Json;
    let mut entries = match std::fs::read_to_string(path) {
        Ok(text) if !text.trim().is_empty() => match Json::parse(&text) {
            Ok(Json::Arr(items)) => items,
            // A single-object file (older writers) becomes the first entry.
            Ok(other) => vec![other],
            Err(e) => return Err(CliError::Io(format!("parsing {path}: {e}"))),
        },
        _ => Vec::new(),
    };
    entries.push(entry);
    std::fs::write(path, Json::Arr(entries).render() + "\n")
        .map_err(|e| CliError::Io(format!("writing {path}: {e}")))
}

/// Load the scenario, run the replay, print the summary, and append the
/// report row to `--out`. A run in which **no** request succeeded fails
/// with [`CliError::Io`] — a misrouted session name or a dead server must
/// not pass CI as a "successful" benchmark.
pub fn run_replay(opts: &ReplayCliOptions) -> Result<(), CliError> {
    let dir = std::path::Path::new(&opts.scenario);
    let sc = faircap_scenario::load(dir)
        .map_err(|e| CliError::Config(format!("loading scenario {}: {e}", dir.display())))?;
    let epsilon = opts
        .epsilon
        .unwrap_or_else(|| faircap_scenario::default_epsilon(&sc.spec));
    let mix = WorkloadMix::preset(&opts.mix, epsilon)
        .expect("parse_replay_args validated the preset name");
    let arrival = match opts.rate_hz {
        Some(rate_hz) => Arrival::Open {
            clients: opts.clients,
            rate_hz,
        },
        None => Arrival::Closed {
            clients: opts.clients,
        },
    };
    let replay_options = ReplayOptions {
        mix,
        arrival,
        total: opts.requests,
        cold_fraction: opts.cold_fraction,
    };
    let client = match &opts.addr {
        Some(addr) => {
            let addr: std::net::SocketAddr = addr
                .parse()
                .map_err(|e| CliError::Config(format!("--addr {addr}: {e}")))?;
            let client = faircap_serve::ServeClient::new(addr);
            client
                .wait_ready(Duration::from_secs(30))
                .map_err(|e| CliError::Io(format!("server {addr} not ready: {e}")))?;
            Some(client)
        }
        None => None,
    };
    let report = match &client {
        Some(client) => {
            let target = ReplayTarget::Http {
                client: client.clone(),
                session: opts.session.clone(),
            };
            faircap_scenario::replay(&target, &replay_options, &sc.spec)
        }
        None => {
            let session = sc.session().map_err(|e| CliError::Config(e.to_string()))?;
            faircap_scenario::replay(&ReplayTarget::Session(&session), &replay_options, &sc.spec)
        }
    }
    .map_err(|e| CliError::Io(e.to_string()))?;
    println!("faircap-replay: {}", report.summary());
    if let Some(path) = &opts.out {
        append_bench_entry(path, report.to_json())?;
        println!("faircap-replay: appended to {path}");
    }
    if let (true, Some(client)) = (opts.shutdown, &client) {
        client
            .post_json("/v1/shutdown", "{}")
            .map_err(|e| CliError::Io(format!("shutdown request: {e}")))?;
        println!("faircap-replay: requested server shutdown");
    }
    if report.ok == 0 {
        return Err(CliError::Io(format!(
            "no request succeeded ({})",
            report.summary()
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(|x| x.to_owned()).collect()
    }

    #[test]
    fn parses_full_command_line() {
        let opts = parse_args(&args(
            "--data d.csv --dag g.txt --outcome salary --mutable edu,role \
             --protected gdp=low --fairness sp-group:10000 \
             --coverage group:0.5:0.5 --estimator ipw --max-rules 7",
        ))
        .unwrap();
        assert_eq!(opts.data, "d.csv");
        assert_eq!(opts.mutable, vec!["edu", "role"]);
        assert_eq!(opts.protected, vec![("gdp".into(), "low".into())]);
        assert_eq!(opts.max_rules, 7);
        assert!(matches!(
            parse_fairness(&opts.fairness).unwrap(),
            FairnessConstraint::StatisticalParity {
                scope: FairnessScope::Group,
                ..
            }
        ));
        assert!(matches!(
            parse_coverage(&opts.coverage).unwrap(),
            CoverageConstraint::Group { .. }
        ));
        assert!(matches!(
            parse_estimator(&opts.estimator).unwrap(),
            EstimatorKind::Ipw
        ));
    }

    #[test]
    fn estimator_spec_variants() {
        assert!(matches!(
            parse_estimator("aipw").unwrap(),
            EstimatorKind::Aipw
        ));
        assert!(matches!(
            parse_estimator("matching").unwrap(),
            EstimatorKind::Matching
        ));
        let err = parse_estimator("dowhy").unwrap_err();
        assert!(err.contains("aipw") && err.contains("matching"), "{err}");
    }

    #[test]
    fn missing_required_flags_rejected() {
        assert!(parse_args(&args("--data d.csv")).is_err());
        assert!(parse_args(&args("--data d.csv --dag g.txt --outcome o --mutable m")).is_err()); // no --protected
        assert!(parse_args(&args("--bogus x")).is_err());
        assert!(parse_args(&args("--data")).is_err()); // dangling value
    }

    #[test]
    fn fairness_spec_variants() {
        assert!(matches!(
            parse_fairness("none").unwrap(),
            FairnessConstraint::None
        ));
        assert!(matches!(
            parse_fairness("bgl-individual:0.1").unwrap(),
            FairnessConstraint::BoundedGroupLoss {
                scope: FairnessScope::Individual,
                ..
            }
        ));
        assert!(parse_fairness("sp-group").is_err());
        assert!(parse_fairness("nope:3").is_err());
        assert!(parse_fairness("sp-group:abc").is_err());
    }

    #[test]
    fn coverage_spec_variants() {
        assert!(matches!(
            parse_coverage("rule:0.3:0.2").unwrap(),
            CoverageConstraint::Rule { theta, theta_protected }
                if theta == 0.3 && theta_protected == 0.2
        ));
        assert!(parse_coverage("group:0.5").is_err());
        assert!(parse_coverage("huh:0.5:0.5").is_err());
    }

    #[test]
    fn protected_pattern_infers_types() {
        let df = DataFrame::builder()
            .cat("city", &["x", "y"])
            .int("tier", vec![1, 2])
            .bool("flag", vec![true, false])
            .build()
            .unwrap();
        let p = protected_pattern(
            &df,
            &[
                ("city".into(), "x".into()),
                ("tier".into(), "2".into()),
                ("flag".into(), "true".into()),
            ],
        )
        .unwrap();
        assert_eq!(p.len(), 3);
        assert!(protected_pattern(&df, &[("ghost".into(), "1".into())]).is_err());
        assert!(protected_pattern(&df, &[("tier".into(), "NaNope".into())]).is_err());
    }

    #[test]
    fn executor_and_cache_flags_parse() {
        let opts = parse_args(&args(
            "--data d.csv --dag g.txt --outcome o --mutable m --protected a=b \
             --workers 6 --save-cache snap.fc --load-cache old.fc",
        ))
        .unwrap();
        assert_eq!(opts.workers, Some(6));
        assert_eq!(opts.save_cache.as_deref(), Some("snap.fc"));
        assert_eq!(opts.load_cache.as_deref(), Some("old.fc"));
        assert!(parse_args(&args(
            "--data d --dag g --outcome o --mutable m --protected a=b --workers many"
        ))
        .is_err());
        // Flags default to off.
        let opts = parse_args(&args(
            "--data d --dag g --outcome o --mutable m --protected a=b",
        ))
        .unwrap();
        assert_eq!(opts.workers, None);
        assert!(opts.save_cache.is_none() && opts.load_cache.is_none());
    }

    #[test]
    fn save_then_load_cache_round_trips_through_files() {
        let dir = std::env::temp_dir().join("faircap_cli_cache_test");
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("d.csv");
        let dagf = dir.join("g.txt");
        let snap = dir.join("cache.fc");
        let ds = faircap_data::so::generate(2_000, 3);
        let keep = ["gdp_group", "age", "certifications", "training", "salary"];
        faircap_table::csv::write_csv(&ds.df.select(&keep).unwrap(), &data).unwrap();
        std::fs::write(
            &dagf,
            "gdp_group -> salary\nage -> salary\ncertifications -> salary\ntraining -> salary\n",
        )
        .unwrap();
        let base = format!(
            "--data {} --dag {} --outcome salary --mutable certifications,training \
             --protected gdp_group=low --max-rules 5",
            data.display(),
            dagf.display()
        );
        let cold = parse_args(&args(&format!("{base} --save-cache {}", snap.display()))).unwrap();
        let cold_report = execute(&cold).unwrap();
        assert!(snap.exists(), "--save-cache must write the snapshot");
        let warm = parse_args(&args(&format!("{base} --load-cache {}", snap.display()))).unwrap();
        let warm_report = execute(&warm).unwrap();
        let a: Vec<String> = cold_report.rules.iter().map(|r| r.to_string()).collect();
        let b: Vec<String> = warm_report.rules.iter().map(|r| r.to_string()).collect();
        assert_eq!(a, b, "warm CLI solve must reproduce the cold ruleset");
        let saved = std::fs::read_to_string(&snap).unwrap();
        // A corrupt snapshot is a typed, readable config-class error
        // (exit 2), carried as the Snapshot variant so the serve warm-boot
        // fallback can distinguish it from broken data/DAG inputs.
        std::fs::write(&snap, "faircap-snapshot v99\n").unwrap();
        let err = execute(&warm).unwrap_err();
        assert!(matches!(err, CliError::Snapshot(_)), "{err:?}");
        assert!(err.to_string().contains("snapshot"), "{err}");
        assert_eq!(err.exit_code(), 2);
        // Broken data inputs stay Config even when a snapshot was given —
        // the serve fallback must never blame the snapshot for those.
        let mut broken = warm.clone();
        broken.data = "/no/such/file.csv".into();
        assert!(matches!(execute(&broken).unwrap_err(), CliError::Config(_)));
        // … and so is a refused older snapshot, with the regeneration hint:
        // a bare v1 header, and the saved file relabelled v2.
        for old in [
            "faircap-snapshot v1\n".to_string(),
            saved.replacen("v3", "v2", 1),
        ] {
            std::fs::write(&snap, old).unwrap();
            let err = execute(&warm).unwrap_err();
            assert!(matches!(err, CliError::Snapshot(_)), "{err:?}");
            assert_eq!(err.exit_code(), 2);
            assert!(err.to_string().contains("re-solve and re-save"), "{err}");
        }
    }

    #[test]
    fn exit_codes_distinguish_config_from_runtime() {
        // Unreadable input: config error, exit 2.
        let opts = parse_args(&args(
            "--data /no/such/file.csv --dag /no/such/dag --outcome o \
             --mutable m --protected a=b",
        ))
        .unwrap();
        let err = execute(&opts).unwrap_err();
        assert!(matches!(err, CliError::Config(_)), "{err}");
        assert_eq!(err.exit_code(), 2);
        // A runtime engine failure carries the typed error and exits 1,
        // rendered through faircap::Error's Display.
        let engine_err = faircap_core::Error::InvalidRequest("nope".into());
        let err = CliError::Runtime(engine_err.clone());
        assert_eq!(err.exit_code(), 1);
        assert_eq!(err.to_string(), engine_err.to_string());
    }

    #[test]
    fn serve_args_parse_and_validate() {
        let opts = parse_serve_args(&args(
            "--data d.csv --dag g.txt --outcome o --mutable m,n --protected a=b \
             --addr 127.0.0.1:9000 --name german --solve-workers 3 \
             --queue-depth 5 --timeout-ms 2500 --snapshot-dir /tmp/snaps",
        ))
        .unwrap();
        assert_eq!(opts.addr, "127.0.0.1:9000");
        assert_eq!(opts.datasets.len(), 1);
        assert_eq!(opts.datasets[0].name, "german");
        assert_eq!(opts.datasets[0].mutable, vec!["m", "n"]);
        assert_eq!(opts.solve_workers, 3);
        assert_eq!(opts.queue_depth, 5);
        assert_eq!(opts.timeout_ms, 2500);
        assert_eq!(opts.snapshot_dir.as_deref(), Some("/tmp/snaps"));
        // Defaults.
        let opts = parse_serve_args(&args(
            "--data d.csv --dag g.txt --outcome o --mutable m --protected a=b",
        ))
        .unwrap();
        assert_eq!(opts.datasets[0].name, "default");
        assert_eq!(opts.solve_workers, 2);
        // Required flags and bounds.
        assert!(parse_serve_args(&args("--data d.csv")).is_err());
        assert!(parse_serve_args(&args(
            "--data d --dag g --outcome o --mutable m --protected a=b --queue-depth 0"
        ))
        .is_err());
        assert!(parse_serve_args(&args("--help"))
            .unwrap_err()
            .contains("serve"));
    }

    #[test]
    fn serve_args_multi_dataset_groups() {
        // Repeating a dataset flag that is already set starts the next
        // group; global server flags may appear anywhere.
        let opts = parse_serve_args(&args(
            "--name german --data g.csv --dag g.dag --outcome credit \
             --mutable job --protected sex=female \
             --addr 127.0.0.1:9000 \
             --name so --data so.csv --dag so.dag --outcome salary \
             --mutable edu,hours --protected gender=woman",
        ))
        .unwrap();
        assert_eq!(opts.addr, "127.0.0.1:9000");
        assert_eq!(opts.datasets.len(), 2);
        assert_eq!(opts.datasets[0].name, "german");
        assert_eq!(opts.datasets[0].outcome, "credit");
        assert_eq!(opts.datasets[1].name, "so");
        assert_eq!(opts.datasets[1].mutable, vec!["edu", "hours"]);
        assert_eq!(
            opts.datasets[1].protected,
            vec![("gender".to_owned(), "woman".to_owned())]
        );
        // A second group missing required fields is rejected.
        assert!(parse_serve_args(&args(
            "--data a.csv --dag a.dag --outcome o --mutable m --protected a=b \
             --name x --data b.csv"
        ))
        .is_err());
        // Duplicate session names are rejected.
        let err = parse_serve_args(&args(
            "--data a.csv --dag a.dag --outcome o --mutable m --protected a=b \
             --data b.csv --dag b.dag --outcome o --mutable m --protected a=b",
        ))
        .unwrap_err();
        assert!(err.contains("duplicate session name"), "{err}");
    }

    #[test]
    fn gen_args_parse_and_validate() {
        let opts = parse_gen_args(&args(
            "--out /tmp/sc --rows 5000 --seed 11 --name big --stable 4 \
             --flexible 2 --cardinality 5 --confounding 0.8 \
             --heterogeneity 0.2 --noise 4.5 --check --check-tol 0.5 --check-z 3",
        ))
        .unwrap();
        assert_eq!(opts.out, "/tmp/sc");
        assert_eq!(opts.spec.rows, 5000);
        assert_eq!(opts.spec.seed, 11);
        assert_eq!(opts.spec.stable, 4);
        assert_eq!(opts.spec.confounding, 0.8);
        assert!(opts.check);
        assert_eq!(opts.check_tol, 0.5);
        // Defaults are the standard spec, check off.
        let opts = parse_gen_args(&args("--out d")).unwrap();
        assert_eq!(opts.spec, ScenarioSpec::default());
        assert!(!opts.check);
        // Required flag, bad knobs, unknown flags.
        assert!(parse_gen_args(&args("--rows 10")).is_err());
        assert!(parse_gen_args(&args("--out d --cardinality 1")).is_err());
        assert!(parse_gen_args(&args("--out d --bogus x")).is_err());
        assert!(parse_gen_args(&args("--help")).unwrap_err().contains("gen"));
    }

    #[test]
    fn replay_args_parse_and_validate() {
        let opts = parse_replay_args(&args(
            "--scenario d --addr 127.0.0.1:7341 --session syn --mix sweep \
             --requests 32 --clients 2 --rate 10 --cold-fraction 0.5 \
             --epsilon 99 --out BENCH_scale.json --shutdown",
        ))
        .unwrap();
        assert_eq!(opts.addr.as_deref(), Some("127.0.0.1:7341"));
        assert_eq!(opts.session, "syn");
        assert_eq!(opts.mix, "sweep");
        assert_eq!(opts.rate_hz, Some(10.0));
        assert_eq!(opts.epsilon, Some(99.0));
        assert!(opts.shutdown);
        // Defaults: in-process, closed loop, mixed mix.
        let opts = parse_replay_args(&args("--scenario d")).unwrap();
        assert!(opts.addr.is_none() && opts.rate_hz.is_none());
        assert_eq!(opts.mix, "mixed");
        assert_eq!(opts.cold_fraction, 0.25);
        // Rejections.
        assert!(parse_replay_args(&args("--mix steady")).is_err()); // no --scenario
        assert!(parse_replay_args(&args("--scenario d --mix bogus")).is_err());
        assert!(parse_replay_args(&args("--scenario d --requests 0")).is_err());
        assert!(parse_replay_args(&args("--scenario d --cold-fraction 1.5")).is_err());
        // --shutdown without a server makes no sense.
        assert!(parse_replay_args(&args("--scenario d --shutdown")).is_err());
    }

    #[test]
    fn gen_then_replay_in_process_end_to_end() {
        let dir = std::env::temp_dir().join("faircap_cli_gen_replay_test");
        let _ = std::fs::remove_dir_all(&dir);
        let gen = parse_gen_args(&args(&format!(
            "--out {} --rows 1500 --seed 7 --name cli-e2e",
            dir.display()
        )))
        .unwrap();
        run_gen(&gen).unwrap();
        assert!(dir.join("scenario.csv").exists());
        assert!(dir.join("scenario.dag").exists());
        assert!(dir.join("scenario.json").exists());
        // The generated CSV+DAG feed the plain solve path directly.
        let solve = parse_args(&args(&format!(
            "--data {0}/scenario.csv --dag {0}/scenario.dag --outcome outcome \
             --mutable f0,f1,f2 --protected s0=v0 --max-rules 3",
            dir.display()
        )))
        .unwrap();
        assert!(execute(&solve).unwrap().size() > 0);
        // Replay in-process and append two report rows to the bench file.
        let bench = dir.join("BENCH_scale.json");
        let replay = parse_replay_args(&args(&format!(
            "--scenario {} --mix steady --requests 4 --clients 2 --out {}",
            dir.display(),
            bench.display()
        )))
        .unwrap();
        run_replay(&replay).unwrap();
        run_replay(&replay).unwrap();
        let doc = faircap_core::Json::parse(&std::fs::read_to_string(&bench).unwrap()).unwrap();
        let entries = doc.as_arr().expect("bench file is a JSON array");
        assert_eq!(entries.len(), 2, "each run appends one row");
        assert_eq!(entries[0].get("rows").unwrap().as_f64(), Some(1500.0));
        assert_eq!(entries[0].get("seed").unwrap().as_f64(), Some(7.0));
        // A missing scenario directory is a config error (exit 2).
        let broken = parse_replay_args(&args("--scenario /no/such/dir")).unwrap();
        let err = run_replay(&broken).unwrap_err();
        assert!(matches!(err, CliError::Config(_)), "{err}");
    }

    #[test]
    fn execute_end_to_end_via_files() {
        // Materialize a tiny CSV + DAG, run the whole CLI path.
        let dir = std::env::temp_dir().join("faircap_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("d.csv");
        let dagf = dir.join("g.txt");
        let ds = faircap_data::so::generate(2_000, 3);
        let keep = ["gdp_group", "age", "certifications", "training", "salary"];
        faircap_table::csv::write_csv(&ds.df.select(&keep).unwrap(), &data).unwrap();
        std::fs::write(
            &dagf,
            "gdp_group -> salary\nage -> salary\ncertifications -> salary\ntraining -> salary\n",
        )
        .unwrap();
        let opts = parse_args(&args(&format!(
            "--data {} --dag {} --outcome salary --mutable certifications,training \
             --protected gdp_group=low --max-rules 5",
            data.display(),
            dagf.display()
        )))
        .unwrap();
        let report = execute(&opts).unwrap();
        assert!(report.size() <= 5);
        assert!(!report.rules.is_empty());
    }
}
