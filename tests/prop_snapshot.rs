//! Property-based tests for the session-snapshot decoder. Snapshots are
//! read back from disk (`faircap --load-cache`, the warm boot of
//! `faircap serve --snapshot-dir`), so the decoder sees whatever the file
//! holds: truncated writes, flipped bits and counts that overstate what
//! follows must all decode to `Ok` or `Err(Error::Snapshot)` — never a
//! panic, and never an allocation sized by a count the file only claims.

use faircap::causal::{CateEngineState, Estimate};
use faircap::core::{Error, SessionSnapshot};
use faircap::table::{CmpOp, Pattern, Predicate, Value};
use proptest::prelude::*;

const ROWS: usize = 130;

/// A snapshot touching every record kind and value token.
fn sample() -> SessionSnapshot {
    let p1 = Pattern::of_eq(&[("training", Value::from("yes mentor"))]);
    let p2 = Pattern::new(vec![
        Predicate::new("age", CmpOp::Ge, Value::Int(30)),
        Predicate::new("score", CmpOp::Lt, Value::Float(0.1)),
        Predicate::eq("remote", Value::Bool(true)),
    ]);
    let est = Estimate {
        cate: 12.5,
        std_err: 0.25,
        t_stat: 50.0,
        p_value: 1e-300,
        n_treated: 123,
        n_control: 456,
    };
    SessionSnapshot {
        outcome: "salary".into(),
        n_rows: ROWS,
        dag_fp: 0x1234_5678_9abc_def0,
        data_fp: 0x0fed_cba9_8765_4321,
        state: CateEngineState {
            estimates: vec![
                ("linear".into(), 0xdead_beef, p1, Some(est)),
                ("matching".into(), 7, p2, None),
            ],
        },
    }
}

/// The decoder's contract on untrusted text: a snapshot or a typed
/// snapshot error. A panic fails the case on its own.
fn decodes_or_rejects(text: &str) -> Result<(), TestCaseError> {
    match SessionSnapshot::decode(text) {
        Ok(_) | Err(Error::Snapshot(_)) => Ok(()),
        Err(other) => Err(TestCaseError::fail(format!("untyped error: {other}"))),
    }
}

/// A minimal snapshot of format `version` whose only record is one
/// estimate line.
fn with_estimate_record(version: &str, record: &str) -> String {
    format!(
        "faircap-snapshot {version}\noutcome o\nrows 130\ndag 0\ndata 0\n\
         estimates 1\n{record}\n"
    )
}

fn assert_rejected(text: &str) {
    match SessionSnapshot::decode(text) {
        Err(Error::Snapshot(_)) => {}
        other => panic!("expected a snapshot error, got {other:?}"),
    }
}

#[test]
fn oversized_predicate_count_is_rejected_without_allocating() {
    assert!(SessionSnapshot::decode(&with_estimate_record("v4", "e linear 0 1 a eq i1 -")).is_ok());
    assert_rejected(&with_estimate_record(
        "v4",
        "e linear 0 1000000000000000000 a eq i1 -",
    ));
}

#[test]
fn pre_v4_snapshots_are_refused_with_a_regeneration_hint() {
    // v2 carried a treated-mask section and v3 an adjustment section; this
    // build reads v4 only, whatever the body holds.
    let v2 = "faircap-snapshot v2\noutcome o\nrows 130\ndag 0\ndata 0\n\
              adjustments 0\ntreated 0\nestimates 0\n";
    let v3 = "faircap-snapshot v3\noutcome o\nrows 130\ndag 0\ndata 0\n\
              adjustments 1\na 1 training 1 country\nestimates 0\n";
    for (version, text) in [
        ("v2", v2.to_string()),
        ("v2", with_estimate_record("v2", "e linear 0 0 -")),
        ("v3", v3.to_string()),
        ("v3", with_estimate_record("v3", "e linear 0 0 -")),
    ] {
        match SessionSnapshot::decode(&text) {
            Err(Error::Snapshot(msg)) => {
                assert!(msg.contains(version) && msg.contains("v4"), "{msg}");
                assert!(msg.contains("re-solve and re-save"), "{msg}");
            }
            other => panic!("expected a snapshot error, got {other:?}"),
        }
    }
}

/// Counts and lengths a hostile file might claim.
fn huge_count() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("1000000000000000000".to_string()),
        Just(u64::MAX.to_string()),
        Just("18446744073709551616".to_string()),
        Just((1u64 << 62).to_string()),
        Just((u32::MAX as u64 + 1).to_string()),
    ]
}

proptest! {
    #[test]
    fn truncated_files_decode_or_reject(cut in 0usize..4096) {
        let text = sample().encode();
        prop_assert!(SessionSnapshot::decode(&text).is_ok());
        let mut cut = cut % (text.len() + 1);
        while !text.is_char_boundary(cut) {
            cut -= 1;
        }
        decodes_or_rejects(&text[..cut])?;
    }

    #[test]
    fn bit_flips_decode_or_reject(
        flips in prop::collection::vec((0usize..4096, 0u32..8), 1..6),
    ) {
        let mut bytes = sample().encode().into_bytes();
        for (at, bit) in flips {
            let at = at % bytes.len();
            bytes[at] ^= 1 << bit;
        }
        decodes_or_rejects(&String::from_utf8_lossy(&bytes))?;
    }

    #[test]
    fn oversized_counts_decode_or_reject(which in 0usize..256, count in huge_count()) {
        // Overwrite one decimal token (a section count, predicate count,
        // row count or arm size) with a huge value.
        let text = sample().encode();
        let numeric: usize = text
            .split_whitespace()
            .filter(|t| t.bytes().all(|b| b.is_ascii_digit()))
            .count();
        let target = which % numeric;
        let mut seen = 0;
        let lines: Vec<String> = text
            .lines()
            .map(|line| {
                let tokens: Vec<String> = line
                    .split(' ')
                    .map(|tok| {
                        if !tok.is_empty() && tok.bytes().all(|b| b.is_ascii_digit()) {
                            seen += 1;
                            if seen - 1 == target {
                                return count.clone();
                            }
                        }
                        tok.to_string()
                    })
                    .collect();
                tokens.join(" ")
            })
            .collect();
        decodes_or_rejects(&lines.join("\n"))?;
    }
}
