//! Sampling a [`ScenarioSpec`] into a dataset bundle with ground truth.

use crate::error::Result;
use crate::spec::{ScenarioSpec, TruthEntry, TruthGroup, BASE_OUTCOME};
use faircap_causal::scm::{bernoulli, normal};
use faircap_causal::Scm;
use faircap_core::PrescriptionSession;
use faircap_data::Dataset;
use faircap_table::{frame_fingerprint, Mask, Value};

/// Index of level string `v{l}` (our own generator's vocabulary, so a
/// malformed level simply maps to 0 — it cannot occur in sampled data).
fn level_index(level: &str) -> usize {
    level
        .strip_prefix('v')
        .and_then(|t| t.parse().ok())
        .unwrap_or(0)
}

/// Build the structural causal model a spec describes. Exposed so tests
/// and docs can inspect the model (e.g. its [`Scm::dag`]) without
/// sampling.
pub fn build_scm(spec: &ScenarioSpec) -> Result<Scm> {
    spec.validate()?;
    let mut scm = Scm::new();
    let stable_names = spec.stable_attrs();
    let flexible_names = spec.flexible_attrs();

    for (j, sname) in stable_names.iter().enumerate() {
        let levels: Vec<(String, f64)> = (0..spec.cardinality)
            .map(|l| (spec.level(l), spec.level_weight(j, l)))
            .collect();
        let refs: Vec<(&str, f64)> = levels.iter().map(|(l, w)| (l.as_str(), *w)).collect();
        scm = scm.categorical(sname, &refs)?;
    }

    let parent_refs: Vec<&str> = stable_names.iter().map(String::as_str).collect();
    for (i, fname) in flexible_names.iter().enumerate() {
        let base = spec.treatment_base_logit(i);
        let shifts: Vec<Vec<f64>> = (0..spec.stable)
            .map(|j| {
                (0..spec.cardinality)
                    .map(|l| spec.confounding_shift(i, j, l))
                    .collect()
            })
            .collect();
        let parents_owned = stable_names.clone();
        scm = scm.node(
            fname,
            &parent_refs,
            Box::new(move |row, rng| {
                let mut logit = base;
                for (j, sname) in parents_owned.iter().enumerate() {
                    let l = level_index(row.str(sname));
                    logit += shifts[j].get(l).copied().unwrap_or(0.0);
                }
                let p = 1.0 / (1.0 + (-logit).exp());
                Value::Str(if bernoulli(rng, p) { "yes" } else { "no" }.to_owned())
            }),
        )?;
    }

    let mut outcome_parents: Vec<&str> = parent_refs.clone();
    outcome_parents.extend(flexible_names.iter().map(String::as_str));
    let direct: Vec<Vec<f64>> = (0..spec.stable)
        .map(|j| {
            (0..spec.cardinality)
                .map(|l| spec.stable_outcome_shift(j, l))
                .collect()
        })
        .collect();
    let effects: Vec<(f64, f64)> = (0..spec.flexible)
        .map(|i| (spec.effect(i, false), spec.effect(i, true)))
        .collect();
    let stables = stable_names.clone();
    let flexibles = flexible_names.clone();
    let protected_level = spec.level(0);
    let noise = spec.noise;
    scm = scm.node(
        ScenarioSpec::OUTCOME,
        &outcome_parents,
        Box::new(move |row, rng| {
            let mut y = BASE_OUTCOME;
            let mut protected = false;
            for (j, sname) in stables.iter().enumerate() {
                let level = row.str(sname);
                if j == 0 {
                    protected = level == protected_level;
                }
                y += direct[j].get(level_index(level)).copied().unwrap_or(0.0);
            }
            for (i, fname) in flexibles.iter().enumerate() {
                if row.str(fname) == "yes" {
                    let (non_protected, prot) = effects[i];
                    y += if protected { prot } else { non_protected };
                }
            }
            Value::Float(y + normal(rng, 0.0, noise))
        }),
    )?;
    Ok(scm)
}

/// A sampled scenario: the dataset bundle (frame, ground-truth DAG, roles,
/// protected pattern) plus the planted ground-truth CATE table.
#[derive(Debug, Clone)]
pub struct GeneratedScenario {
    /// The spec that produced this scenario.
    pub spec: ScenarioSpec,
    /// The dataset bundle, directly consumable by the engine.
    pub dataset: Dataset,
    /// One planted CATE per (flexible attribute, subpopulation).
    pub truth: Vec<TruthEntry>,
}

/// Sample a scenario: build the SCM, draw `spec.rows` rows with
/// `spec.seed`, and bundle the frame with its ground-truth DAG, the
/// stable/flexible attribute split, the protected pattern, and the planted
/// CATE table.
pub fn generate(spec: &ScenarioSpec) -> Result<GeneratedScenario> {
    let scm = build_scm(spec)?;
    let df = scm.sample(spec.rows, spec.seed)?;
    let dataset = Dataset {
        name: spec.name.clone(),
        df,
        dag: scm.dag(),
        outcome: ScenarioSpec::OUTCOME.to_owned(),
        immutable: spec.stable_attrs(),
        mutable: spec.flexible_attrs(),
        protected: spec.protected_pattern(),
    };
    Ok(GeneratedScenario {
        spec: spec.clone(),
        dataset,
        truth: spec.ground_truth(),
    })
}

impl GeneratedScenario {
    /// Build a ready-to-solve [`PrescriptionSession`] over this scenario.
    pub fn session(&self) -> Result<PrescriptionSession> {
        Ok(faircap_core::FairCap::builder()
            .data(self.dataset.df.clone())
            .dag(self.dataset.dag.clone())
            .outcome(&self.dataset.outcome)
            .immutable(self.dataset.immutable.iter().cloned())
            .mutable(self.dataset.mutable.iter().cloned())
            .protected(self.dataset.protected.clone())
            .build()?)
    }

    /// The planted CATE for a treatment/group pair, if the treatment is
    /// one of this scenario's flexible attributes.
    pub fn truth_for(&self, treatment: &str, group: TruthGroup) -> Option<f64> {
        self.truth
            .iter()
            .find(|t| t.treatment == treatment && t.group == group)
            .map(|t| t.cate)
    }

    /// Row mask of a [`TruthGroup`].
    pub fn group_mask(&self, group: TruthGroup) -> Mask {
        let n = self.dataset.df.n_rows();
        match group {
            TruthGroup::All => Mask::ones(n),
            TruthGroup::Protected => self.dataset.protected_mask(),
            TruthGroup::NonProtected => Mask::ones(n).andnot(&self.dataset.protected_mask()),
        }
    }

    /// Platform-stable FNV-1a fingerprint of the sampled frame (column
    /// names, dtypes, and every cell; floats fed as IEEE-754 bits). Equal
    /// fingerprints ⇔ bit-identical data — the reproducibility contract
    /// `docs/scenarios.md` documents is tested against this.
    pub fn fingerprint(&self) -> u64 {
        frame_fingerprint(&self.dataset.df)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec() -> ScenarioSpec {
        ScenarioSpec {
            rows: 2_000,
            ..Default::default()
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let spec = small_spec();
        let a = generate(&spec).unwrap();
        let b = generate(&spec).unwrap();
        assert_eq!(a.dataset.df, b.dataset.df);
        assert_eq!(a.fingerprint(), b.fingerprint());
        let c = generate(&ScenarioSpec {
            seed: 8,
            ..small_spec()
        })
        .unwrap();
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    /// The pinned end-to-end fingerprint: spec defaults at 2 000 rows,
    /// seed 7. This is the cross-platform bit-reproducibility contract —
    /// it transitively pins the rand shim stream, the SCM sampling order,
    /// and every structural coefficient. If it fails, the generated-data
    /// format changed: bump `FORMAT` in `store.rs` and regenerate any
    /// published datasets.
    #[test]
    fn generated_frame_fingerprint_is_pinned() {
        let sc = generate(&small_spec()).unwrap();
        assert_eq!(
            sc.fingerprint(),
            0x493f_f01e_722d_ed2e,
            "got {:#018x}",
            sc.fingerprint()
        );
    }

    #[test]
    fn dag_is_the_declared_two_layer_structure() {
        let sc = generate(&small_spec()).unwrap();
        let g = &sc.dataset.dag;
        let o = g.node("outcome").unwrap();
        for s in &sc.dataset.immutable {
            let sn = g.node(s).unwrap();
            assert!(g.has_edge(sn, o));
            for f in &sc.dataset.mutable {
                assert!(g.has_edge(sn, g.node(f).unwrap()), "{s} -> {f}");
            }
        }
        for f in &sc.dataset.mutable {
            assert!(g.has_edge(g.node(f).unwrap(), o));
        }
    }

    #[test]
    fn group_masks_partition_the_frame() {
        let sc = generate(&small_spec()).unwrap();
        let p = sc.group_mask(TruthGroup::Protected);
        let np = sc.group_mask(TruthGroup::NonProtected);
        assert_eq!(p.count() + np.count(), sc.dataset.df.n_rows());
        assert_eq!(p.intersect_count(&np), 0);
        // Protected fraction ≈ its exact population value.
        let expected = sc.spec.protected_fraction();
        assert!(
            (p.fraction() - expected).abs() < 0.03,
            "{} vs {expected}",
            p.fraction()
        );
    }

    #[test]
    fn treatment_rates_are_interior() {
        // Propensities must stay far from 0/1 so every estimator has both
        // arms in every stratum at benchmark sizes.
        let sc = generate(&small_spec()).unwrap();
        for f in &sc.dataset.mutable {
            let treated = faircap_table::Pattern::of_eq(&[(f, Value::from("yes"))])
                .coverage(&sc.dataset.df)
                .unwrap()
                .fraction();
            assert!((0.2..=0.8).contains(&treated), "{f}: {treated}");
        }
    }

    #[test]
    fn session_builds_and_solves() {
        let sc = generate(&small_spec()).unwrap();
        let session = sc.session().unwrap();
        let report = session
            .solve(&faircap_core::SolveRequest::default())
            .unwrap();
        assert!(report.size() > 0, "planted positive effects yield rules");
    }

    #[test]
    fn invalid_spec_is_rejected_before_sampling() {
        let err = generate(&ScenarioSpec {
            cardinality: 1,
            ..Default::default()
        })
        .unwrap_err();
        assert!(err.to_string().contains("cardinality"), "{err}");
    }
}
