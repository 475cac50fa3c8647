//! Structural causal models for synthetic data generation.
//!
//! The paper evaluates on the Stack Overflow survey and German Credit, which
//! we cannot ship; `faircap-data` builds SCM-based synthetic equivalents on
//! top of this module. An [`Scm`] is a list of nodes in dependency order,
//! each with a structural equation (an arbitrary function of the already-
//! sampled parent values plus exogenous randomness). Sampling a model yields
//! a [`DataFrame`] whose ground-truth [`Dag`] the model also exports, so
//! estimator tests can compare estimated CATEs to planted effects.

use crate::error::{CausalError, Result};
use crate::graph::Dag;
use faircap_table::{Column, DataFrame, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::Cell;
use std::collections::HashMap;

/// Fallback value handed to an equation after a faulted parent read; the
/// fault is reported as a typed error by [`Scm::sample`] before the bogus
/// row can be observed.
static FAULT_FALLBACK: Value = Value::Bool(false);

/// Sampled values of a single row during generation; structural equations
/// read their parents from here.
///
/// A read of an undeclared or ill-typed parent does **not** panic: it
/// records the fault (with the offending column name) and returns a benign
/// placeholder, and [`Scm::sample`] turns the recorded fault into a
/// [`CausalError::Scm`] as soon as the equation returns.
pub struct Row<'a> {
    values: &'a HashMap<String, Value>,
    fault: &'a Cell<Option<String>>,
}

impl Row<'_> {
    fn record_fault(&self, reason: String) {
        // Keep the first fault; later reads of the poisoned row are noise.
        let first = self.fault.take().unwrap_or(reason);
        self.fault.set(Some(first));
    }

    /// Parent value by name.
    pub fn get(&self, name: &str) -> &Value {
        match self.values.get(name) {
            Some(v) => v,
            None => {
                self.record_fault(format!(
                    "structural equation read undeclared parent `{name}`"
                ));
                &FAULT_FALLBACK
            }
        }
    }

    /// Categorical parent as `&str`.
    pub fn str(&self, name: &str) -> &str {
        match self.get(name).as_str() {
            Some(s) => s,
            None => {
                self.record_fault(format!("parent `{name}` is not categorical"));
                ""
            }
        }
    }

    /// Numeric parent as `f64` (bools as 0/1).
    pub fn num(&self, name: &str) -> f64 {
        match self.get(name).as_f64() {
            Some(x) => x,
            None => {
                self.record_fault(format!("parent `{name}` is not numeric"));
                0.0
            }
        }
    }

    /// Boolean parent.
    pub fn flag(&self, name: &str) -> bool {
        matches!(self.get(name), Value::Bool(true))
    }
}

/// A structural equation: given parent values and the RNG, produce a value.
pub type Equation = Box<dyn Fn(&Row<'_>, &mut StdRng) -> Value + Send + Sync>;

struct Node {
    name: String,
    parents: Vec<String>,
    equation: Equation,
}

/// A structural causal model.
pub struct Scm {
    nodes: Vec<Node>,
    by_name: HashMap<String, usize>,
}

impl Scm {
    /// An empty model.
    pub fn new() -> Scm {
        Scm {
            nodes: Vec::new(),
            by_name: HashMap::new(),
        }
    }

    /// Declare a node. Parents must already be declared (this enforces a
    /// valid topological order and acyclicity by construction).
    pub fn node(mut self, name: &str, parents: &[&str], equation: Equation) -> Result<Scm> {
        if self.by_name.contains_key(name) {
            return Err(CausalError::DuplicateVariable(name.to_owned()));
        }
        for p in parents {
            if !self.by_name.contains_key(*p) {
                return Err(CausalError::Scm(format!(
                    "node `{name}` references undeclared parent `{p}` — declare parents first"
                )));
            }
        }
        self.by_name.insert(name.to_owned(), self.nodes.len());
        self.nodes.push(Node {
            name: name.to_owned(),
            parents: parents.iter().map(|s| (*s).to_owned()).collect(),
            equation,
        });
        Ok(self)
    }

    /// Exogenous categorical node with the given level weights.
    pub fn categorical(self, name: &str, levels: &[(&str, f64)]) -> Result<Scm> {
        let levels: Vec<(String, f64)> =
            levels.iter().map(|(l, w)| ((*l).to_owned(), *w)).collect();
        if levels.is_empty() {
            return Err(CausalError::Scm(format!("node `{name}` has no levels")));
        }
        self.node(
            name,
            &[],
            Box::new(move |_, rng| Value::Str(sample_weighted(&levels, rng))),
        )
    }

    /// The ground-truth causal DAG of the model.
    pub fn dag(&self) -> Dag {
        let mut g = Dag::new();
        for n in &self.nodes {
            g.ensure_node(&n.name);
        }
        for n in &self.nodes {
            for p in &n.parents {
                g.add_edge_by_name(p, &n.name)
                    .expect("SCM construction guarantees acyclicity");
            }
        }
        g
    }

    /// Variable names in declaration (topological) order.
    pub fn variables(&self) -> Vec<&str> {
        self.nodes.iter().map(|n| n.name.as_str()).collect()
    }

    /// Sample `n` i.i.d. rows with a seeded RNG.
    ///
    /// Fails with a typed [`CausalError::Scm`] (naming the node and the
    /// offending parent column) when an equation reads an undeclared or
    /// ill-typed parent, instead of aborting the process.
    pub fn sample(&self, n: usize, seed: u64) -> Result<DataFrame> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut columns: Vec<Vec<Value>> = vec![Vec::with_capacity(n); self.nodes.len()];
        let mut current: HashMap<String, Value> = HashMap::with_capacity(self.nodes.len());
        let fault: Cell<Option<String>> = Cell::new(None);
        for _ in 0..n {
            current.clear();
            for (i, node) in self.nodes.iter().enumerate() {
                let v = (node.equation)(
                    &Row {
                        values: &current,
                        fault: &fault,
                    },
                    &mut rng,
                );
                if let Some(reason) = fault.take() {
                    return Err(CausalError::Scm(format!("node `{}`: {reason}", node.name)));
                }
                current.insert(node.name.clone(), v.clone());
                columns[i].push(v);
            }
        }
        let mut b = DataFrame::builder();
        for (node, values) in self.nodes.iter().zip(columns) {
            b = b.column(&node.name, column_from_values(&node.name, values)?);
        }
        Ok(b.build()?)
    }
}

impl Default for Scm {
    fn default() -> Self {
        Scm::new()
    }
}

/// Draw from a weighted categorical distribution.
fn sample_weighted(levels: &[(String, f64)], rng: &mut StdRng) -> String {
    let total: f64 = levels.iter().map(|(_, w)| w).sum();
    let mut x = rng.random::<f64>() * total;
    for (level, w) in levels {
        x -= w;
        if x <= 0.0 {
            return level.clone();
        }
    }
    levels.last().expect("non-empty levels").0.clone()
}

fn column_from_values(name: &str, values: Vec<Value>) -> Result<Column> {
    let kind = values
        .iter()
        .find_map(|v| v.data_type())
        .ok_or_else(|| CausalError::Scm(format!("column `{name}` is all null")))?;
    let mismatch = |v: &Value| {
        CausalError::Scm(format!(
            "column `{name}`: equation returned mixed types ({v:?} vs {kind:?})"
        ))
    };
    match kind {
        faircap_table::DataType::Int => {
            let mut out = Vec::with_capacity(values.len());
            for v in &values {
                match v {
                    Value::Int(x) => out.push(*x),
                    _ => return Err(mismatch(v)),
                }
            }
            Ok(Column::Int(out))
        }
        faircap_table::DataType::Float => {
            let mut out = Vec::with_capacity(values.len());
            for v in &values {
                match v {
                    Value::Float(x) => out.push(*x),
                    Value::Int(x) => out.push(*x as f64),
                    _ => return Err(mismatch(v)),
                }
            }
            Ok(Column::Float(out))
        }
        faircap_table::DataType::Bool => {
            let mut out = Vec::with_capacity(values.len());
            for v in &values {
                match v {
                    Value::Bool(x) => out.push(*x),
                    _ => return Err(mismatch(v)),
                }
            }
            Ok(Column::Bool(out))
        }
        faircap_table::DataType::Cat => {
            let mut out: Vec<String> = Vec::with_capacity(values.len());
            for v in &values {
                match v {
                    Value::Str(s) => out.push(s.clone()),
                    _ => return Err(mismatch(v)),
                }
            }
            Ok(Column::Cat(faircap_table::CatColumn::from_values(&out)))
        }
    }
}

/// Standard normal draw via Box–Muller (rand 0.9 core has no distributions).
pub fn normal(rng: &mut StdRng, mean: f64, std: f64) -> f64 {
    let u1: f64 = rng.random::<f64>().max(1e-12);
    let u2: f64 = rng.random();
    mean + std * (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Bernoulli draw with probability `p`.
pub fn bernoulli(rng: &mut StdRng, p: f64) -> bool {
    rng.random::<f64>() < p
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimate::Estimator as _;
    use faircap_table::{Mask, Pattern};

    fn toy_scm() -> Scm {
        Scm::new()
            .categorical("region", &[("north", 0.5), ("south", 0.5)])
            .unwrap()
            .node(
                "educated",
                &["region"],
                Box::new(|row, rng| {
                    let p = if row.str("region") == "north" {
                        0.7
                    } else {
                        0.3
                    };
                    Value::Bool(bernoulli(rng, p))
                }),
            )
            .unwrap()
            .node(
                "income",
                &["region", "educated"],
                Box::new(|row, rng| {
                    let base = if row.str("region") == "north" {
                        60.0
                    } else {
                        40.0
                    };
                    let boost = if row.flag("educated") { 20.0 } else { 0.0 };
                    Value::Float(base + boost + normal(rng, 0.0, 5.0))
                }),
            )
            .unwrap()
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let scm = toy_scm();
        let a = scm.sample(100, 7).unwrap();
        let b = scm.sample(100, 7).unwrap();
        let c = scm.sample(100, 8).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn dag_matches_declared_structure() {
        let g = toy_scm().dag();
        assert_eq!(g.n_nodes(), 3);
        let region = g.node("region").unwrap();
        let educated = g.node("educated").unwrap();
        let income = g.node("income").unwrap();
        assert!(g.has_edge(region, educated));
        assert!(g.has_edge(region, income));
        assert!(g.has_edge(educated, income));
    }

    #[test]
    fn undeclared_parent_rejected() {
        let r = Scm::new().node("x", &["ghost"], Box::new(|_, _| Value::Int(0)));
        assert!(matches!(r, Err(CausalError::Scm(_))));
    }

    #[test]
    fn undeclared_parent_read_is_a_typed_error() {
        // The node declares no parents but its equation reads one anyway:
        // construction can't catch it, sampling must fail cleanly.
        let scm = Scm::new()
            .node("x", &[], Box::new(|row, _| row.get("ghost").clone()))
            .unwrap();
        let err = scm.sample(10, 0).unwrap_err();
        assert!(matches!(err, CausalError::Scm(_)));
        let msg = err.to_string();
        assert!(msg.contains("ghost") && msg.contains('x'), "{msg}");
    }

    #[test]
    fn undeclared_parent_str_read_keeps_first_fault() {
        // `str()` on an undeclared parent faults twice (missing, then
        // ill-typed fallback); the first fault must survive to sample().
        let scm = Scm::new()
            .node(
                "x",
                &[],
                Box::new(|row, _| Value::Str(row.str("ghost").to_owned())),
            )
            .unwrap();
        let err = scm.sample(10, 0).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("undeclared parent `ghost`"), "{msg}");
    }

    #[test]
    fn ill_typed_parent_read_is_a_typed_error() {
        let scm = Scm::new()
            .categorical("c", &[("a", 1.0)])
            .unwrap()
            .node(
                "y",
                &["c"],
                Box::new(|row, _| Value::Float(row.num("c") + 1.0)),
            )
            .unwrap();
        let err = scm.sample(10, 0).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("`c` is not numeric"), "{msg}");
        assert!(msg.contains("`y`"), "{msg}");
    }

    #[test]
    fn duplicate_node_rejected() {
        let r = toy_scm().categorical("region", &[("x", 1.0)]);
        assert!(matches!(r, Err(CausalError::DuplicateVariable(_))));
    }

    #[test]
    fn planted_effect_recovered_by_adjustment() {
        // Ground truth: educated adds exactly +20 to income, confounded by
        // region. The linear estimator with Z={region} must recover ≈20,
        // while the unadjusted estimate is inflated (north is both richer
        // and more educated).
        let scm = toy_scm();
        let df = scm.sample(4000, 42).unwrap();
        let treated = Pattern::of_eq(&[("educated", Value::Bool(true))])
            .coverage(&df)
            .unwrap();
        let all = Mask::ones(df.n_rows());
        let adj = crate::estimate::EstimatorKind::Linear
            .estimate(&df, &all, &treated, "income", &["region".into()])
            .unwrap();
        assert!((adj.cate - 20.0).abs() < 1.0, "adjusted = {}", adj.cate);
        let naive = crate::estimate::EstimatorKind::Linear
            .estimate(&df, &all, &treated, "income", &[])
            .unwrap();
        assert!(
            naive.cate > adj.cate + 2.0,
            "naive {} should exceed adjusted {}",
            naive.cate,
            adj.cate
        );
    }

    #[test]
    fn weighted_sampling_respects_proportions() {
        let scm = Scm::new()
            .categorical("c", &[("a", 0.8), ("b", 0.2)])
            .unwrap();
        let df = scm.sample(5000, 1).unwrap();
        let frac = Pattern::of_eq(&[("c", Value::from("a"))])
            .coverage(&df)
            .unwrap()
            .fraction();
        assert!((frac - 0.8).abs() < 0.03, "frac = {frac}");
    }

    #[test]
    fn normal_helper_moments() {
        let mut rng = StdRng::seed_from_u64(3);
        let xs: Vec<f64> = (0..20000).map(|_| normal(&mut rng, 5.0, 2.0)).collect();
        let (m, v) = faircap_table::stats::mean_var(&xs);
        assert!((m - 5.0).abs() < 0.05, "mean = {m}");
        assert!((v - 4.0).abs() < 0.15, "var = {v}");
    }

    #[test]
    fn mixed_type_equation_rejected() {
        let scm = Scm::new()
            .node(
                "x",
                &[],
                Box::new(|_, rng| {
                    if rng.random::<f64>() < 0.5 {
                        Value::Int(1)
                    } else {
                        Value::Str("oops".into())
                    }
                }),
            )
            .unwrap();
        assert!(scm.sample(100, 0).is_err());
    }
}
