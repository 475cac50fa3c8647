//! Persisting a generated scenario as a directory:
//!
//! * `scenario.csv`  — the sampled frame,
//! * `scenario.dag`  — the ground-truth DAG as an edge list
//!   (`parent -> child` lines, the same format the CLI's `--dag` accepts),
//! * `scenario.json` — the spec, the role metadata, and the planted
//!   ground-truth CATE table.
//!
//! The CSV and DAG files are deliberately self-sufficient engine inputs:
//! `faircap solve --data scenario.csv --dag scenario.dag …` (and `faircap
//! serve`) consume them without knowing the scenario crate exists. The JSON
//! carries what those two cannot: which attributes are stable vs flexible,
//! the protected pattern, and the truth table that `faircap gen --check`
//! and the recovery tests grade against.

use crate::error::{Result, ScenarioError};
use crate::generate::GeneratedScenario;
use crate::spec::{ScenarioSpec, TruthEntry, TruthGroup};
use faircap_causal::Dag;
use faircap_core::Json;
use faircap_data::Dataset;
use faircap_table::DataFrame;
use std::path::Path;

/// Format tag written into `scenario.json`; bump when the generator's
/// output for a fixed `(spec, seed)` changes.
pub const FORMAT: &str = "faircap-scenario-v1";

fn num(x: f64) -> Json {
    Json::Num(x)
}

fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

/// Render the metadata document (`scenario.json`).
pub fn metadata_json(sc: &GeneratedScenario) -> Json {
    let spec = &sc.spec;
    let strings =
        |names: &[String]| Json::Arr(names.iter().map(|s| Json::Str(s.clone())).collect());
    let truth: Vec<Json> = sc
        .truth
        .iter()
        .map(|t| {
            obj(vec![
                ("treatment", Json::Str(t.treatment.clone())),
                ("group", Json::Str(t.group.name().to_owned())),
                ("cate", num(t.cate)),
            ])
        })
        .collect();
    obj(vec![
        ("format", Json::Str(FORMAT.to_owned())),
        (
            "spec",
            obj(vec![
                ("name", Json::Str(spec.name.clone())),
                ("rows", num(spec.rows as f64)),
                // u64 seeds beyond 2^53 would lose precision as a JSON
                // number; persist as a string.
                ("seed", Json::Str(spec.seed.to_string())),
                ("stable", num(spec.stable as f64)),
                ("flexible", num(spec.flexible as f64)),
                ("cardinality", num(spec.cardinality as f64)),
                ("confounding", num(spec.confounding)),
                ("heterogeneity", num(spec.heterogeneity)),
                ("noise", num(spec.noise)),
            ]),
        ),
        ("outcome", Json::Str(sc.dataset.outcome.clone())),
        ("immutable", strings(&sc.dataset.immutable)),
        ("mutable", strings(&sc.dataset.mutable)),
        (
            "fingerprint",
            Json::Str(format!("{:#018x}", sc.fingerprint())),
        ),
        ("truth", Json::Arr(truth)),
    ])
}

/// Write `scenario.csv`, `scenario.dag`, and `scenario.json` under `dir`
/// (created if missing).
pub fn save(sc: &GeneratedScenario, dir: &Path) -> Result<()> {
    std::fs::create_dir_all(dir)?;
    sc.dataset.to_csv(dir.join("scenario.csv"))?;
    std::fs::write(dir.join("scenario.dag"), sc.dataset.dag.to_dot())?;
    std::fs::write(dir.join("scenario.json"), metadata_json(sc).render() + "\n")?;
    Ok(())
}

fn bad(msg: impl Into<String>) -> ScenarioError {
    ScenarioError::Format(msg.into())
}

fn f64_field(doc: &Json, path: &str) -> Result<f64> {
    doc.get_path(path)
        .and_then(Json::as_f64)
        .ok_or_else(|| bad(format!("missing or non-numeric `{path}`")))
}

fn usize_field(doc: &Json, path: &str) -> Result<usize> {
    let n = f64_field(doc, path)?;
    if n < 0.0 || n.fract() != 0.0 {
        return Err(bad(format!("`{path}` must be a non-negative integer")));
    }
    Ok(n as usize)
}

fn str_field<'a>(doc: &'a Json, path: &str) -> Result<&'a str> {
    doc.get_path(path)
        .and_then(Json::as_str)
        .ok_or_else(|| bad(format!("missing or non-string `{path}`")))
}

/// Parse a `scenario.json` document back into the spec and truth table.
pub fn metadata_from_json(doc: &Json) -> Result<(ScenarioSpec, Vec<TruthEntry>)> {
    let format = str_field(doc, "format")?;
    if format != FORMAT {
        return Err(bad(format!(
            "unsupported scenario format `{format}` (this build reads `{FORMAT}`)"
        )));
    }
    let spec = ScenarioSpec {
        name: str_field(doc, "spec.name")?.to_owned(),
        rows: usize_field(doc, "spec.rows")?,
        seed: str_field(doc, "spec.seed")?
            .parse()
            .map_err(|_| bad("`spec.seed` must be a u64 string"))?,
        stable: usize_field(doc, "spec.stable")?,
        flexible: usize_field(doc, "spec.flexible")?,
        cardinality: usize_field(doc, "spec.cardinality")?,
        confounding: f64_field(doc, "spec.confounding")?,
        heterogeneity: f64_field(doc, "spec.heterogeneity")?,
        noise: f64_field(doc, "spec.noise")?,
    };
    spec.validate()?;
    let truth_items = doc
        .get("truth")
        .and_then(Json::as_arr)
        .ok_or_else(|| bad("missing `truth` array"))?;
    let mut truth = Vec::with_capacity(truth_items.len());
    for item in truth_items {
        let group_name = str_field(item, "group")?;
        truth.push(TruthEntry {
            treatment: str_field(item, "treatment")?.to_owned(),
            group: TruthGroup::parse(group_name)
                .ok_or_else(|| bad(format!("unknown truth group `{group_name}`")))?,
            cate: f64_field(item, "cate")?,
        });
    }
    Ok((spec, truth))
}

/// Load a scenario directory written by [`save`]. The frame and DAG are
/// read from their files (not regenerated), so this works on machines
/// without the generation cost — and the returned bundle is byte-for-byte
/// what the engine would be served.
pub fn load(dir: &Path) -> Result<GeneratedScenario> {
    let json_path = dir.join("scenario.json");
    let text = std::fs::read_to_string(&json_path)?;
    let doc = Json::parse(&text).map_err(|e| bad(format!("{}: {e}", json_path.display())))?;
    let (spec, truth) = metadata_from_json(&doc)?;
    let df = faircap_table::csv::read_csv(dir.join("scenario.csv"))?;
    check_counts(&spec, &df)?;
    check_fingerprint(&doc, &df)?;
    let dag_text = std::fs::read_to_string(dir.join("scenario.dag"))?;
    let dag = Dag::parse_edge_list(&dag_text)?;
    let dataset = Dataset {
        name: spec.name.clone(),
        df,
        dag,
        outcome: ScenarioSpec::OUTCOME.to_owned(),
        immutable: spec.stable_attrs(),
        mutable: spec.flexible_attrs(),
        protected: spec.protected_pattern(),
    };
    Ok(GeneratedScenario {
        spec,
        dataset,
        truth,
    })
}

/// Refuse a `scenario.csv` whose contents no longer match the
/// `fingerprint` recorded in `scenario.json` when it was saved: the truth
/// table describes the saved frame, so grading against an edited one
/// would report against the wrong truth.
fn check_fingerprint(doc: &Json, df: &DataFrame) -> Result<()> {
    let recorded = str_field(doc, "fingerprint")?;
    let loaded = format!("{:#018x}", faircap_table::frame_fingerprint(df));
    if recorded != loaded {
        return Err(bad(format!(
            "`fingerprint` is {recorded} but scenario.csv digests to {loaded}"
        )));
    }
    Ok(())
}

/// Refuse a `scenario.json` whose `rows`, `stable` or `flexible` disagree
/// with the loaded `scenario.csv`, whose attribute columns are exactly
/// `s0..s{stable-1}` and `f0..f{flexible-1}`. The counts come from the
/// file, so each is bounded by the column count before any name is
/// generated from it: a claimed `"stable": 1e12` is refused here instead of
/// allocating 10¹² names.
fn check_counts(spec: &ScenarioSpec, df: &DataFrame) -> Result<()> {
    if spec.rows != df.n_rows() {
        return Err(bad(format!(
            "`spec.rows` is {} but scenario.csv holds {} rows",
            spec.rows,
            df.n_rows()
        )));
    }
    type AttrName = fn(&ScenarioSpec, usize) -> String;
    let roles: [(&str, usize, AttrName); 2] = [
        ("spec.stable", spec.stable, ScenarioSpec::stable_attr),
        ("spec.flexible", spec.flexible, ScenarioSpec::flexible_attr),
    ];
    for (field, count, attr) in roles {
        if count > df.n_cols() {
            return Err(bad(format!(
                "`{field}` is {count} but scenario.csv has {} columns",
                df.n_cols()
            )));
        }
        if let Some(missing) = (0..count)
            .map(|i| attr(spec, i))
            .find(|a| !df.has_column(a))
        {
            return Err(bad(format!(
                "`{field}` is {count} but scenario.csv has no column `{missing}`"
            )));
        }
        let next = attr(spec, count);
        if df.has_column(&next) {
            return Err(bad(format!(
                "`{field}` is {count} but scenario.csv also has column `{next}`"
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::generate;

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("faircap_scenario_store_{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn save_load_round_trips() {
        let sc = generate(&ScenarioSpec {
            rows: 500,
            ..Default::default()
        })
        .unwrap();
        let dir = tmp_dir("roundtrip");
        save(&sc, &dir).unwrap();
        let back = load(&dir).unwrap();
        assert_eq!(back.spec, sc.spec);
        assert_eq!(back.truth, sc.truth);
        assert_eq!(back.dataset.df.n_rows(), 500);
        assert_eq!(back.dataset.dag.n_edges(), sc.dataset.dag.n_edges());
        // The reloaded bundle builds a working session.
        back.session().unwrap();
    }

    #[test]
    fn csv_float_roundtrip_preserves_fingerprint() {
        // The CSV writer must not lose outcome precision, or a reloaded
        // scenario would grade estimators against subtly different data.
        let sc = generate(&ScenarioSpec {
            rows: 200,
            ..Default::default()
        })
        .unwrap();
        let dir = tmp_dir("fingerprint");
        save(&sc, &dir).unwrap();
        let back = load(&dir).unwrap();
        assert_eq!(back.fingerprint(), sc.fingerprint());
    }

    #[test]
    fn unsupported_format_is_a_typed_error() {
        let sc = generate(&ScenarioSpec {
            rows: 50,
            ..Default::default()
        })
        .unwrap();
        let dir = tmp_dir("format");
        save(&sc, &dir).unwrap();
        let path = dir.join("scenario.json");
        let hacked = std::fs::read_to_string(&path)
            .unwrap()
            .replace(FORMAT, "faircap-scenario-v999");
        std::fs::write(&path, hacked).unwrap();
        let err = load(&dir).unwrap_err();
        assert!(err.to_string().contains("v999"), "{err}");
    }

    #[test]
    fn counts_that_disagree_with_the_csv_are_refused_by_name() {
        let sc = generate(&ScenarioSpec {
            rows: 50,
            ..Default::default()
        })
        .unwrap();
        let dir = tmp_dir("counts");
        save(&sc, &dir).unwrap();
        let path = dir.join("scenario.json");
        let original = std::fs::read_to_string(&path).unwrap();
        for (field, claim) in [
            ("stable", "1e12"),
            ("flexible", "1e12"),
            ("rows", "1e12"),
            ("stable", "2"),
            ("flexible", "4"),
        ] {
            let saved = format!("\"{field}\":{}", if field == "rows" { 50 } else { 3 });
            assert!(original.contains(&saved), "{saved} not in {original}");
            let hacked = original.replacen(&saved, &format!("\"{field}\":{claim}"), 1);
            std::fs::write(&path, hacked).unwrap();
            match load(&dir) {
                Err(ScenarioError::Format(msg)) => {
                    assert!(msg.contains(&format!("`spec.{field}`")), "{msg}")
                }
                other => panic!("{field}={claim}: expected a format error, got {other:?}"),
            }
        }
    }

    #[test]
    fn an_edited_csv_is_refused_by_its_fingerprint() {
        let sc = generate(&ScenarioSpec {
            rows: 50,
            ..Default::default()
        })
        .unwrap();
        let dir = tmp_dir("edited");
        save(&sc, &dir).unwrap();
        let path = dir.join("scenario.csv");
        let csv = std::fs::read_to_string(&path).unwrap();
        // Change the last cell of the first data row (the outcome).
        let mut lines: Vec<String> = csv.lines().map(str::to_owned).collect();
        let row = &mut lines[1];
        let cut = row.rfind(',').unwrap() + 1;
        row.truncate(cut);
        row.push_str("12345.5");
        std::fs::write(&path, lines.join("\n") + "\n").unwrap();
        match load(&dir) {
            Err(ScenarioError::Format(msg)) => assert!(msg.contains("`fingerprint`"), "{msg}"),
            other => panic!("expected a fingerprint error, got {other:?}"),
        }
    }

    #[test]
    fn missing_fields_are_named() {
        let doc = Json::parse(&format!(r#"{{"format":"{FORMAT}","spec":{{}}}}"#)).unwrap();
        let err = metadata_from_json(&doc).unwrap_err();
        assert!(err.to_string().contains("spec.name"), "{err}");
    }
}
