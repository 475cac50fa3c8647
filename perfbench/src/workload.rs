//! Workload definitions (`workloads.json`), seeded input generation and
//! the constraint sweep every workload replays.

use faircap_core::Json;
use faircap_data::Dataset;
use faircap_table::Pattern;
use std::path::{Path, PathBuf};

/// The workload table, compiled in so a run needs no file beside the
/// binary.
const WORKLOADS_JSON: &str = include_str!("../workloads.json");

/// One workload's parameters (see `workloads.json`).
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: String,
    pub dataset: String,
    pub rows: usize,
    pub estimator: String,
    /// Apriori support threshold sent with every request; `None` keeps
    /// the library default.
    pub apriori_threshold: Option<f64>,
    pub sp_epsilon: f64,
    pub bgl_tau: f64,
    /// Untimed set-up reps that run first, so the timed reps do not
    /// include a fresh process's ramp-up.
    pub warmup_reps: usize,
    pub setup_reps: usize,
    pub warm_share: f64,
    pub open_share: f64,
    pub closed_share: f64,
    pub open_rate_rps: f64,
    /// Open-loop validity bound shared by every workload: a run whose
    /// p99 send lag exceeds it measured the generator, not the server.
    pub max_send_lag_ms: f64,
}

fn table() -> Json {
    Json::parse(WORKLOADS_JSON).expect("workloads.json is valid JSON")
}

/// Names of every workload, in file order.
pub fn names() -> Vec<String> {
    match table().get("workloads") {
        Some(Json::Obj(fields)) => fields.iter().map(|(k, _)| k.clone()).collect(),
        _ => Vec::new(),
    }
}

/// Look a workload up by name.
pub fn load(name: &str) -> Result<Workload, String> {
    let doc = table();
    let entry = doc
        .get("workloads")
        .and_then(|w| w.get(name))
        .ok_or_else(|| format!("unknown workload `{name}` (known: {})", names().join(", ")))?;
    let num = |key: &str| {
        entry
            .get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("workloads.json: `{name}.{key}` must be a number"))
    };
    let text = |key: &str| {
        entry
            .get(key)
            .and_then(Json::as_str)
            .map(str::to_owned)
            .ok_or_else(|| format!("workloads.json: `{name}.{key}` must be a string"))
    };
    let wl = Workload {
        name: name.to_owned(),
        dataset: text("dataset")?,
        rows: num("rows")? as usize,
        estimator: text("estimator")?,
        apriori_threshold: entry.get("apriori_threshold").and_then(Json::as_f64),
        sp_epsilon: num("sp_epsilon")?,
        bgl_tau: num("bgl_tau")?,
        warmup_reps: entry
            .get("warmup_reps")
            .and_then(Json::as_f64)
            .unwrap_or(0.0) as usize,
        setup_reps: num("setup_reps")? as usize,
        warm_share: num("warm_share")?,
        open_share: num("open_share")?,
        closed_share: num("closed_share")?,
        open_rate_rps: num("open_rate_rps")?,
        max_send_lag_ms: doc
            .get("max_send_lag_ms")
            .and_then(Json::as_f64)
            .ok_or("workloads.json: `max_send_lag_ms` must be a number")?,
    };
    if wl.setup_reps == 0 {
        return Err(format!("workloads.json: `{name}` needs setup_reps ≥ 1"));
    }
    Ok(wl)
}

/// SplitMix64: a small seeded generator for sweep and body orders.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5eed_fa1c_a9b3_0001)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// An endless sequence of indices `0..n`: each pass is a fresh seeded
/// permutation.
pub struct Passes {
    rng: Rng,
    order: Vec<usize>,
    pos: usize,
}

impl Passes {
    pub fn new(n: usize, rng: Rng) -> Passes {
        Passes {
            rng,
            order: (0..n).collect(),
            pos: n,
        }
    }
}

impl Iterator for Passes {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.pos == self.order.len() {
            self.rng.shuffle(&mut self.order);
            self.pos = 0;
        }
        self.pos += 1;
        self.order.get(self.pos - 1).copied()
    }
}

/// The generated inputs of one run, as files plus the roles the harness
/// (not the data) knows.
pub struct Inputs {
    pub csv: PathBuf,
    pub dag: PathBuf,
    pub outcome: String,
    pub immutable: Vec<String>,
    pub mutable: Vec<String>,
    pub protected: Pattern,
    pub rows: usize,
    /// `faircap_scenario::frame_fingerprint` of the generated frame.
    pub fingerprint: u64,
}

/// Generate the workload's data from `seed` and write it as
/// `data.csv` + `data.dag` under `dir`.
pub fn prepare(wl: &Workload, seed: u64, dir: &Path) -> Result<Inputs, String> {
    let ds: Dataset = match wl.dataset.as_str() {
        "stackoverflow" => faircap_data::so::generate(wl.rows, seed),
        "scenario" => {
            faircap_scenario::generate(&faircap_scenario::ScenarioSpec {
                rows: wl.rows,
                seed,
                ..Default::default()
            })
            .map_err(|e| format!("scenario generation: {e}"))?
            .dataset
        }
        other => return Err(format!("workloads.json: unknown dataset `{other}`")),
    };
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let csv = dir.join("data.csv");
    let dag = dir.join("data.dag");
    ds.to_csv(&csv)
        .map_err(|e| format!("{}: {e}", csv.display()))?;
    std::fs::write(&dag, ds.dag.to_dot()).map_err(|e| format!("{}: {e}", dag.display()))?;
    Ok(Inputs {
        csv,
        dag,
        rows: ds.df.n_rows(),
        fingerprint: faircap_scenario::frame_fingerprint(&ds.df),
        outcome: ds.outcome,
        immutable: ds.immutable,
        mutable: ds.mutable,
        protected: ds.protected,
    })
}

/// One request of the constraint sweep.
pub struct Variant {
    pub label: String,
    /// Coverage kind index (0 none, 1 group, 2 rule), for stratified
    /// rewalk picks.
    pub coverage: usize,
    /// `POST /v1/solve` body, solve caches on.
    pub body: String,
    /// The same request with `use_solve_cache: false`.
    pub uncached_body: String,
}

fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

/// Fields every request of the workload carries.
fn base_fields(wl: &Workload) -> Vec<(&'static str, Json)> {
    let mut fields = vec![("estimator", Json::Str(wl.estimator.clone()))];
    if let Some(threshold) = wl.apriori_threshold {
        fields.push(("apriori_threshold", Json::Num(threshold)));
    }
    fields
}

/// The cold request: defaults plus the workload's base fields.
pub fn cold_body(wl: &Workload) -> String {
    obj(base_fields(wl)).render()
}

/// The 30-request constraint sweep: fairness {none, SP, BGL} × scope
/// {group, individual} (5 settings) × coverage {none, group, rule} ×
/// `max_rules` {5, 20}, in a fixed order.
pub fn sweep(wl: &Workload) -> Vec<Variant> {
    let fairness = |kind: &str, scope: &str, key: &str, value: f64| {
        obj(vec![
            ("kind", Json::Str(kind.into())),
            ("scope", Json::Str(scope.into())),
            (key, Json::Num(value)),
        ])
    };
    let fairness_settings = [
        ("none", obj(vec![("kind", Json::Str("none".into()))])),
        (
            "sp-group",
            fairness("sp", "group", "epsilon", wl.sp_epsilon),
        ),
        (
            "sp-ind",
            fairness("sp", "individual", "epsilon", wl.sp_epsilon),
        ),
        ("bgl-group", fairness("bgl", "group", "tau", wl.bgl_tau)),
        ("bgl-ind", fairness("bgl", "individual", "tau", wl.bgl_tau)),
    ];
    let coverage = |kind: &str, theta: f64, theta_p: f64| {
        obj(vec![
            ("kind", Json::Str(kind.into())),
            ("theta", Json::Num(theta)),
            ("theta_protected", Json::Num(theta_p)),
        ])
    };
    let coverage_settings = [
        ("cov-none", obj(vec![("kind", Json::Str("none".into()))])),
        ("cov-group", coverage("group", 0.5, 0.5)),
        ("cov-rule", coverage("rule", 0.21, 0.1)),
    ];
    let mut out = Vec::new();
    for (f_label, f) in &fairness_settings {
        for (c_index, (c_label, c)) in coverage_settings.iter().enumerate() {
            for k in [5usize, 20] {
                let fields = |cached: bool| {
                    let mut fields = base_fields(wl);
                    fields.extend([
                        ("fairness", f.clone()),
                        ("coverage", c.clone()),
                        ("max_rules", Json::Num(k as f64)),
                    ]);
                    if !cached {
                        fields.push(("use_solve_cache", Json::Bool(false)));
                    }
                    obj(fields).render()
                };
                out.push(Variant {
                    label: format!("{f_label}/{c_label}/k{k}"),
                    coverage: c_index,
                    body: fields(true),
                    uncached_body: fields(false),
                });
            }
        }
    }
    out
}

/// Rewalk picks: coverage kinds in rotation, each kind's variants in a
/// seeded order, so any prefix mixes the (differently priced) coverage
/// kinds evenly.
pub fn rewalk_order(variants: &[Variant], rng: &mut Rng) -> Vec<usize> {
    let mut by_kind: Vec<Vec<usize>> = vec![Vec::new(); 3];
    for (i, v) in variants.iter().enumerate() {
        by_kind[v.coverage].push(i);
    }
    for kind in &mut by_kind {
        rng.shuffle(kind);
    }
    let longest = by_kind.iter().map(Vec::len).max().unwrap_or(0);
    (0..longest)
        .flat_map(|i| by_kind.iter().filter_map(move |kind| kind.get(i).copied()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_parses() {
        let names = names();
        assert!(names.len() >= 2);
        for name in names {
            load(&name).unwrap();
        }
        assert!(load("nope").is_err());
    }

    #[test]
    fn sweep_has_thirty_distinct_wire_requests() {
        let wl = load("so_session").unwrap();
        let variants = sweep(&wl);
        assert_eq!(variants.len(), 30);
        let mut bodies: Vec<&str> = variants.iter().map(|v| v.body.as_str()).collect();
        bodies.sort_unstable();
        bodies.dedup();
        assert_eq!(bodies.len(), 30);
        for v in &variants {
            let cached =
                faircap_core::solve_request_from_json(&Json::parse(&v.body).unwrap()).unwrap();
            let uncached =
                faircap_core::solve_request_from_json(&Json::parse(&v.uncached_body).unwrap())
                    .unwrap();
            assert!(cached.use_solve_cache && !uncached.use_solve_cache);
        }
    }

    #[test]
    fn passes_visit_every_index_once_per_pass() {
        let mut passes = Passes::new(7, Rng::new(3));
        for _ in 0..3 {
            let mut pass: Vec<usize> = (&mut passes).take(7).collect();
            pass.sort_unstable();
            assert_eq!(pass, (0..7).collect::<Vec<_>>());
        }
    }

    #[test]
    fn rewalk_order_rotates_coverage_kinds() {
        let wl = load("so_session").unwrap();
        let variants = sweep(&wl);
        let order = rewalk_order(&variants, &mut Rng::new(11));
        assert_eq!(order.len(), 30);
        for (i, &v) in order.iter().enumerate() {
            assert_eq!(variants[v].coverage, i % 3);
        }
    }

    #[test]
    fn same_seed_same_order() {
        let a: Vec<usize> = Passes::new(30, Rng::new(5)).take(90).collect();
        let b: Vec<usize> = Passes::new(30, Rng::new(5)).take(90).collect();
        let c: Vec<usize> = Passes::new(30, Rng::new(6)).take(90).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
