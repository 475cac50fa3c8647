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

/// Walks one subcommand's arguments flag by flag. Every parser reads its
/// flags and values through it, so help, missing values, malformed values,
/// unknown flags and missing flags read the same in all four.
struct Flags<'a> {
    args: std::slice::Iter<'a, String>,
    usage: &'static str,
    /// The flag most recently returned by [`next`](Self::next).
    flag: &'a str,
}

impl<'a> Flags<'a> {
    fn new(args: &'a [String], usage: &'static str) -> Self {
        Flags {
            args: args.iter(),
            usage,
            flag: "",
        }
    }

    /// The next flag, `None` at the end. `--help`/`-h` is returned as an
    /// error holding exactly the usage text, which the binary prints and
    /// exits 0 on.
    fn next(&mut self) -> Result<Option<&'a str>, String> {
        let Some(flag) = self.args.next() else {
            return Ok(None);
        };
        if flag == "--help" || flag == "-h" {
            return Err(self.usage.to_owned());
        }
        self.flag = flag;
        Ok(Some(flag))
    }

    /// The current flag's value.
    fn value(&mut self) -> Result<String, String> {
        self.args
            .next()
            .cloned()
            .ok_or_else(|| format!("missing value for {}", self.flag))
    }

    /// The current flag's value, parsed.
    fn parse<T: std::str::FromStr>(&mut self) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        let flag = self.flag;
        self.value()?.parse().map_err(|e| format!("{flag}: {e}"))
    }

    /// The error for a flag this subcommand does not take.
    fn unknown(&self) -> String {
        format!("unknown flag `{}`\n\n{}", self.flag, self.usage)
    }

    /// `value` unless it is empty: `flag` was not given, or given nothing
    /// (`--mutable ,`).
    fn required<T: Default + PartialEq>(&self, value: T, flag: &str) -> Result<T, String> {
        if value == T::default() {
            return Err(format!("{flag} is required\n\n{}", self.usage));
        }
        Ok(value)
    }
}

/// One dataset group: the inputs that build a session, and the name it
/// registers under in `faircap serve`.
#[derive(Debug, Clone, Default)]
pub struct DatasetSpec {
    /// CSV file with the data.
    pub data: String,
    /// Edge-list / DOT file with the causal DAG.
    pub dag: String,
    /// Outcome attribute.
    pub outcome: String,
    /// Mutable attributes (`--mutable a,b,c`); all other non-outcome
    /// columns are treated as immutable.
    pub mutable: Vec<String>,
    /// Protected-group predicates `attr=value`, comma-separated.
    pub protected: Vec<(String, String)>,
    /// Session name the dataset registers under (default: `default`).
    pub name: String,
}

/// Dataset flags accumulated while parsing one group.
#[derive(Default, PartialEq)]
struct PartialDataset {
    data: Option<String>,
    dag: Option<String>,
    outcome: Option<String>,
    mutable: Option<Vec<String>>,
    protected: Option<Vec<(String, String)>>,
    name: Option<String>,
}

impl PartialDataset {
    /// Reads dataset flag `flag` (and `--name` when `named`) into the
    /// group; any other flag is unknown. A flag the group already holds
    /// closes it: the closed group is returned and this one restarts with
    /// just the new value.
    fn read(&mut self, flag: &str, flags: &mut Flags, named: bool) -> Result<Option<Self>, String> {
        Ok(match flag {
            "--data" => self.set(|d| &mut d.data, flags.value()?),
            "--dag" => self.set(|d| &mut d.dag, flags.value()?),
            "--outcome" => self.set(|d| &mut d.outcome, flags.value()?),
            "--mutable" => {
                let list = flags.value()?;
                let names = list.split(',').map(str::trim).filter(|s| !s.is_empty());
                self.set(|d| &mut d.mutable, names.map(str::to_owned).collect())
            }
            "--protected" => {
                let mut pairs = Vec::new();
                for pair in flags.value()?.split(',') {
                    let (attr, v) = pair
                        .split_once('=')
                        .ok_or_else(|| format!("--protected needs attr=value, got `{pair}`"))?;
                    pairs.push((attr.trim().to_owned(), v.trim().to_owned()));
                }
                self.set(|d| &mut d.protected, pairs)
            }
            "--name" if named => self.set(|d| &mut d.name, flags.value()?),
            _ => return Err(flags.unknown()),
        })
    }

    /// Sets one field, first closing the group if the field is set.
    fn set<T>(&mut self, field: fn(&mut Self) -> &mut Option<T>, value: T) -> Option<Self> {
        let closed = field(self).is_some().then(|| std::mem::take(self));
        *field(self) = Some(value);
        closed
    }

    fn finish(self, flags: &Flags) -> Result<DatasetSpec, String> {
        Ok(DatasetSpec {
            data: flags.required(self.data.unwrap_or_default(), "--data")?,
            dag: flags.required(self.dag.unwrap_or_default(), "--dag")?,
            outcome: flags.required(self.outcome.unwrap_or_default(), "--outcome")?,
            mutable: flags.required(self.mutable.unwrap_or_default(), "--mutable")?,
            protected: flags.required(self.protected.unwrap_or_default(), "--protected")?,
            name: self.name.unwrap_or_else(|| "default".into()),
        })
    }
}

/// Parsed command-line options.
#[derive(Debug, Clone, Default)]
pub struct CliOptions {
    /// The dataset to solve.
    pub dataset: DatasetSpec,
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
then all cores). --save-cache writes the warmed CATE estimate cache to a
versioned snapshot after solving;
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
    let mut flags = Flags::new(args, USAGE);
    let mut dataset = PartialDataset::default();
    while let Some(flag) = flags.next()? {
        match flag {
            "--fairness" => opts.fairness = flags.value()?,
            "--coverage" => opts.coverage = flags.value()?,
            "--estimator" => opts.estimator = flags.value()?,
            "--max-rules" => opts.max_rules = flags.parse()?,
            "--workers" => opts.workers = Some(flags.parse()?),
            "--save-cache" => opts.save_cache = Some(flags.value()?),
            "--load-cache" => opts.load_cache = Some(flags.value()?),
            _ => {
                if dataset.read(flag, &mut flags, false)?.is_some() {
                    return Err(format!(
                        "{flag} given twice: a solve reads one dataset group \
                         (`faircap serve` takes several)"
                    ));
                }
            }
        }
    }
    opts.dataset = dataset.finish(&flags)?;
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
            // CSV Bool columns hold exactly `true`/`false`; any other word
            // (`True`, `1`, `yes`) is refused rather than read as `false`.
            faircap_table::DataType::Bool => Value::Bool(raw.parse::<bool>().map_err(|_| {
                format!("protected value for {attr}: `{raw}` is not `true` or `false`")
            })?),
            faircap_table::DataType::Cat => Value::from(raw.as_str()),
        };
        preds.push(Predicate::eq(attr, value));
    }
    Ok(Pattern::new(preds))
}

/// Load one dataset group's inputs and build its session, optionally
/// warm-starting from a snapshot file. Every failure here is a
/// [`CliError::Config`]: the user handed us something unusable.
fn build_session(
    spec: &DatasetSpec,
    load_cache: Option<&str>,
) -> Result<PrescriptionSession, CliError> {
    let (data, dag) = (&spec.data, &spec.dag);
    let df = csv::read_csv(data).map_err(|e| CliError::Config(format!("reading {data}: {e}")))?;
    let dag_text = std::fs::read_to_string(dag)
        .map_err(|e| CliError::Config(format!("reading {dag}: {e}")))?;
    let dag = Dag::parse_edge_list(&dag_text)
        .map_err(|e| CliError::Config(format!("parsing DAG: {e}")))?;
    let immutable: Vec<String> = df
        .names()
        .iter()
        .filter(|c| **c != spec.outcome && !spec.mutable.contains(c))
        .cloned()
        .collect();
    let protected = protected_pattern(&df, &spec.protected).map_err(CliError::Config)?;
    // The library solves against an empty protected group; from the
    // command line one is a mistyped level, or NaN, which equals nothing.
    if protected.coverage(&df).is_ok_and(|m| m.count() == 0) {
        return Err(CliError::Config(format!(
            "protected group `{protected}` covers no row of {data}"
        )));
    }
    let mut builder = FairCap::builder()
        .data(df)
        .dag(dag)
        .outcome(&spec.outcome)
        .immutable(immutable)
        .mutable(spec.mutable.iter().cloned())
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
/// ill-typed outcome, outcome absent from the DAG, role conflicts, a
/// protected group that covers no row) surfaces as [`CliError::Config`]
/// (exit code 2), and so does a constraint value the solve refuses; a
/// failing solve surfaces as [`CliError::Runtime`] (exit code 1) rendered
/// through the typed engine error's `Display`.
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
    let session = build_session(&opts.dataset, opts.load_cache.as_deref())?;
    let mut request = SolveRequest::from(cfg);
    request.workers = opts.workers;
    let report = session.solve(&request).map_err(|e| match e {
        // The solve refuses a request only for its constraint values,
        // and those came from the flags.
        faircap_core::Error::InvalidRequest(_) => CliError::Config(e.to_string()),
        other => CliError::Runtime(other),
    })?;
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

/// Parsed options of the `faircap serve` subcommand.
#[derive(Debug, Clone)]
pub struct ServeCliOptions {
    /// Datasets to register, one warm session each. The dataset flags
    /// (`--name/--data/--dag/--outcome/--mutable/--protected`) are
    /// repeatable: re-specifying one that is already set starts the next
    /// dataset group.
    pub datasets: Vec<DatasetSpec>,
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
    let mut flags = Flags::new(args, SERVE_USAGE);
    let mut current = PartialDataset::default();
    while let Some(flag) = flags.next()? {
        match flag {
            "--addr" => opts.addr = flags.value()?,
            "--solve-workers" => opts.solve_workers = flags.parse()?,
            "--queue-depth" => opts.queue_depth = flags.parse()?,
            "--timeout-ms" => opts.timeout_ms = flags.parse()?,
            "--snapshot-dir" => opts.snapshot_dir = Some(flags.value()?),
            _ => {
                if let Some(closed) = current.read(flag, &mut flags, true)? {
                    opts.datasets.push(closed.finish(&flags)?);
                }
            }
        }
    }
    if current != PartialDataset::default() || opts.datasets.is_empty() {
        opts.datasets.push(current.finish(&flags)?);
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
/// pre-v4 format) is reported on stderr and the session boots cold —
/// availability beats a stale cache. A successful warm boot returns its
/// provenance (snapshot path, wall-clock restore duration) for the
/// observability endpoints.
fn build_serve_session(
    spec: &DatasetSpec,
    snapshot_dir: Option<&str>,
) -> Result<(PrescriptionSession, Option<WarmBootInfo>), CliError> {
    let snapshot_path = snapshot_dir
        .map(|dir| std::path::Path::new(dir).join(format!("{}.fc", spec.name)))
        .filter(|p| p.exists());
    if let Some(path) = snapshot_path {
        let path = path.display().to_string();
        let restore_started = std::time::Instant::now();
        match build_session(spec, Some(&path)) {
            Ok(session) => {
                let restore_ms = restore_started.elapsed().as_secs_f64() * 1e3;
                eprintln!("faircap-serve: warm boot from {path} ({restore_ms:.1} ms)");
                let info = WarmBootInfo {
                    snapshot_path: path,
                    restore_ms,
                };
                return Ok((session, Some(info)));
            }
            // Only a *snapshot* problem (unreadable, refused version,
            // instance mismatch) falls back to a cold boot; broken
            // data/DAG inputs propagate as the config errors they are.
            Err(e @ CliError::Snapshot(_)) => {
                eprintln!("faircap-serve: warning: ignoring snapshot {path}: {e}; booting cold")
            }
            Err(other) => return Err(other),
        }
    }
    build_session(spec, None).map(|session| (session, None))
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
scenario.dag (both directly usable as --data/--dag for `faircap --data …` and
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
    let mut flags = Flags::new(args, GEN_USAGE);
    while let Some(flag) = flags.next()? {
        match flag {
            "--out" => opts.out = flags.value()?,
            "--check" => opts.check = true,
            "--name" => opts.spec.name = flags.value()?,
            "--rows" => opts.spec.rows = flags.parse()?,
            "--seed" => opts.spec.seed = flags.parse()?,
            "--stable" => opts.spec.stable = flags.parse()?,
            "--flexible" => opts.spec.flexible = flags.parse()?,
            "--cardinality" => opts.spec.cardinality = flags.parse()?,
            "--confounding" => opts.spec.confounding = flags.parse()?,
            "--heterogeneity" => opts.spec.heterogeneity = flags.parse()?,
            "--noise" => opts.spec.noise = flags.parse()?,
            "--check-tol" => opts.check_tol = flags.parse()?,
            "--check-z" => opts.check_z = flags.parse()?,
            _ => return Err(flags.unknown()),
        }
    }
    flags.required(opts.out.as_str(), "--out")?;
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
    let mut flags = Flags::new(args, REPLAY_USAGE);
    while let Some(flag) = flags.next()? {
        match flag {
            "--scenario" => opts.scenario = flags.value()?,
            "--addr" => opts.addr = Some(flags.value()?),
            "--session" => opts.session = flags.value()?,
            "--mix" => opts.mix = flags.value()?,
            "--requests" => opts.requests = flags.parse()?,
            "--clients" => opts.clients = flags.parse()?,
            "--rate" => {
                let rate: f64 = flags.parse()?;
                // The open-loop schedule sends request `idx` at `idx / rate`
                // seconds, so a zero, negative or NaN rate would never send.
                if !(rate.is_finite() && rate > 0.0) {
                    return Err(format!(
                        "--rate must be a finite number above 0, got {rate}"
                    ));
                }
                opts.rate_hz = Some(rate);
            }
            "--cold-fraction" => opts.cold_fraction = flags.parse()?,
            "--epsilon" => opts.epsilon = Some(flags.parse()?),
            "--out" => opts.out = Some(flags.value()?),
            "--shutdown" => opts.shutdown = true,
            _ => return Err(flags.unknown()),
        }
    }
    flags.required(opts.scenario.as_str(), "--scenario")?;
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

    /// Writes a 2,000-row StackOverflow sample (protected `gdp_group`,
    /// mutable `certifications,training`, Float outcome `salary`) as CSV +
    /// DAG into temp directory `name`; returns the directory and the
    /// `--data … --dag …` flags that read it.
    fn so_files(name: &str) -> (std::path::PathBuf, String) {
        let dir = std::env::temp_dir().join(name);
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
        let files = format!("--data {} --dag {}", data.display(), dagf.display());
        (dir, files)
    }

    #[test]
    fn parses_full_command_line() {
        let opts = parse_args(&args(
            "--data d.csv --dag g.txt --outcome salary --mutable edu,role \
             --protected gdp=low --fairness sp-group:10000 \
             --coverage group:0.5:0.5 --estimator ipw --max-rules 7",
        ))
        .unwrap();
        assert_eq!(opts.dataset.data, "d.csv");
        assert_eq!(opts.dataset.mutable, vec!["edu", "role"]);
        assert_eq!(opts.dataset.protected, vec![("gdp".into(), "low".into())]);
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
        let rest = "--data d --dag g --outcome o --protected a=b";
        // A list of no attributes reads as a missing flag.
        let err = parse_args(&args(&format!("{rest} --mutable ,"))).unwrap_err();
        assert_eq!(err, format!("--mutable is required\n\n{USAGE}"));
        // One solve reads one dataset group: a repeated dataset flag is
        // refused rather than silently replacing the first value.
        let err = parse_args(&args(&format!("{rest} --mutable m,n --mutable a"))).unwrap_err();
        assert!(err.starts_with("--mutable given twice") && err.contains("faircap serve"));
        let err = parse_args(&args(&format!("--mutable m {rest} --protected c=d"))).unwrap_err();
        assert!(err.starts_with("--protected given twice"), "{err}");
        // `--name` names a served session; a solve does not take it.
        let err = parse_args(&args(&format!("{rest} --mutable m --name x"))).unwrap_err();
        assert_eq!(err, format!("unknown flag `--name`\n\n{USAGE}"));
        // `--help`/`-h` returns exactly the subcommand's own usage.
        assert_eq!(parse_args(&args("--data d -h")).unwrap_err(), USAGE);
        assert_eq!(parse_serve_args(&args("-h")).unwrap_err(), SERVE_USAGE);
        assert_eq!(parse_gen_args(&args("--help")).unwrap_err(), GEN_USAGE);
        assert_eq!(
            parse_replay_args(&args("--help")).unwrap_err(),
            REPLAY_USAGE
        );
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
        // A Bool column takes exactly `true` or `false`: `True`, `1` or
        // `yes` would otherwise select the `false` rows.
        let p = protected_pattern(&df, &[("flag".into(), "false".into())]).unwrap();
        assert_eq!(p, Pattern::of_eq(&[("flag", Value::Bool(false))]));
        for raw in ["True", "1", "yes", ""] {
            let err = protected_pattern(&df, &[("flag".into(), raw.into())]).unwrap_err();
            assert!(err.starts_with("protected value for flag: "), "{err}");
        }
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
        let (dir, files) = so_files("faircap_cli_cache_test");
        let snap = dir.join("cache.fc");
        let base = format!(
            "{files} --outcome salary --mutable certifications,training \
             --protected gdp_group=low --max-rules 5"
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
        broken.dataset.data = "/no/such/file.csv".into();
        assert!(matches!(execute(&broken).unwrap_err(), CliError::Config(_)));
        // … and so is a refused older snapshot, with the regeneration hint:
        // a bare v1 header, and the saved file relabelled v3.
        for old in [
            "faircap-snapshot v1\n".to_string(),
            saved.replacen("faircap-snapshot v4", "faircap-snapshot v3", 1),
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
        let (_, files) = so_files("faircap_cli_exit_code_test");
        let solve = |flags: &str| {
            let flags = format!("{files} --outcome salary --max-rules 3 {flags}");
            execute(&parse_args(&args(&flags)).unwrap())
        };
        let config_error = |flags: &str, needle: &str| {
            let err = solve(flags).unwrap_err();
            assert!(matches!(err, CliError::Config(_)), "{flags}: {err:?}");
            assert_eq!(err.exit_code(), 2);
            assert!(err.to_string().contains(needle), "{flags}: {err}");
        };
        let roles = "--mutable certifications,training --protected gdp_group=low";
        // Flag values that parse but that the solve refuses.
        config_error(
            &format!("{roles} --coverage group:2:0.5"),
            "invalid solve request",
        );
        config_error(
            &format!("{roles} --fairness sp-group:-5"),
            "invalid solve request",
        );
        // A protected group that covers no row: an absent level, or NaN on
        // a Float column (`salary`), which equals nothing.
        let mutable = "--mutable certifications,training";
        config_error(
            &format!("{mutable} --protected gdp_group=nobody"),
            "covers no row",
        );
        config_error(
            &format!("{mutable} --protected salary=NaN"),
            "covers no row",
        );
        // A prescription may not change the protected attribute.
        config_error(
            "--mutable training,gdp_group --protected gdp_group=low",
            "declared both mutable and protected",
        );
        assert!(solve(roles).is_ok());
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
        // A list of no attributes reads as a missing flag, as in a solve.
        let err = parse_serve_args(&args(
            "--data d --dag g --outcome o --mutable , --protected a=b",
        ))
        .unwrap_err();
        assert_eq!(err, format!("--mutable is required\n\n{SERVE_USAGE}"));
        // The flag reader's messages: a dangling value and an unknown flag.
        let err = parse_serve_args(&args("--data d --dag")).unwrap_err();
        assert_eq!(err, "missing value for --dag");
        let err = parse_serve_args(&args("--data d --bogus 1")).unwrap_err();
        assert_eq!(err, format!("unknown flag `--bogus`\n\n{SERVE_USAGE}"));
        let err = parse_serve_args(&args(
            "--data d --dag g --outcome o --mutable m --protected a=b --queue-depth x",
        ))
        .unwrap_err();
        assert!(err.starts_with("--queue-depth: "), "{err}");
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
        // An open-loop rate must be finite and above 0, or nothing is sent.
        for rate in ["0", "-1", "NaN", "inf"] {
            let err = parse_replay_args(&args(&format!("--scenario d --rate {rate}"))).unwrap_err();
            assert!(err.starts_with("--rate must be"), "{rate}: {err}");
        }
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
        let (_, files) = so_files("faircap_cli_test");
        let opts = parse_args(&args(&format!(
            "{files} --outcome salary --mutable certifications,training \
             --protected gdp_group=low --max-rules 5"
        )))
        .unwrap();
        let report = execute(&opts).unwrap();
        assert!(report.size() <= 5);
        assert!(!report.rules.is_empty());
    }
}
