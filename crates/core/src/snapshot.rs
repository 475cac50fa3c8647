//! Session snapshots: persist a [`PrescriptionSession`]'s estimate cache
//! and restore it into a new session (warm start).
//!
//! A snapshot holds the CATE estimates a session computed while solving,
//! keyed by `(estimator name, subgroup fingerprint, intervention pattern)`
//! and including the negative "not estimable" verdicts, plus the checks
//! that tie them to one instance. Restoring it into a session built over
//! the *same* data, DAG and outcome ([`SessionBuilder::warm_start`]) makes
//! the first solve behave like a re-solve: zero estimate-cache misses
//! (asserted by `tests/integration_snapshot.rs` and by the CI round-trip
//! job). Nothing else is persisted: a warm hit is answered before any
//! adjustment-set lookup, and a miss re-derives its set from the DAG.
//!
//! # Format and versioning
//!
//! The wire format is a line-oriented, token-escaped text format with an
//! explicit version header (`faircap-snapshot v4`). The compatibility
//! policy is:
//!
//! * decoding rejects any snapshot whose major version is unknown with a
//!   typed [`Error::Snapshot`] — a stale snapshot never silently corrupts
//!   a session (the engine would just re-estimate, but a half-imported
//!   cache is harder to reason about than none);
//! * within a version, unknown *sections* are rejected too (the format is
//!   a closed enumeration per version);
//! * restoring validates the outcome name, row count, DAG fingerprint, and
//!   data fingerprint ([`frame_fingerprint`]) against the session being
//!   built — a snapshot taken under a different DAG or different data is
//!   refused, because its estimates would be silently wrong for the new
//!   instance.
//!
//! Floats are serialized as IEEE-754 bit patterns (hex), so estimates —
//! including infinities produced by degenerate designs — round-trip
//! *exactly*; a warm solve is bit-identical to the cold solve that produced
//! the snapshot.
//!
//! [`PrescriptionSession`]: crate::session::PrescriptionSession
//! [`SessionBuilder::warm_start`]: crate::session::SessionBuilder::warm_start
//! [`frame_fingerprint`]: faircap_table::frame_fingerprint

use crate::error::{Error, Result};
use faircap_causal::{CateEngineState, Dag, Estimate};
use faircap_table::{CmpOp, FnvHasher, Pattern, Predicate, Value};
use std::fmt::Write as _;

/// Serialized-cache bundle of one session. Produced by
/// [`PrescriptionSession::snapshot`](crate::session::PrescriptionSession::snapshot),
/// consumed by
/// [`SessionBuilder::warm_start`](crate::session::SessionBuilder::warm_start).
#[derive(Debug, Clone, Default)]
pub struct SessionSnapshot {
    /// Outcome attribute of the originating session (validated on restore).
    pub outcome: String,
    /// Row count of the originating session's frame (validated on restore).
    pub n_rows: usize,
    /// Fingerprint of the originating session's DAG
    /// ([`dag_fingerprint`]; validated on restore — every estimate was
    /// adjusted by a DAG-derived set, so a changed DAG invalidates the
    /// whole snapshot).
    pub dag_fp: u64,
    /// Fingerprint of the originating session's data contents
    /// ([`frame_fingerprint`](faircap_table::frame_fingerprint); validated
    /// on restore — estimates are data-derived).
    pub data_fp: u64,
    /// The engine's estimate cache.
    pub state: CateEngineState,
}

/// Fingerprint of a DAG's node and edge structure (via its DOT rendering,
/// which lists nodes and edges deterministically), using the same stable
/// [`FnvHasher`] as the data fingerprint.
pub fn dag_fingerprint(dag: &Dag) -> u64 {
    let mut h = FnvHasher::new();
    h.write_str_stable(&dag.to_dot());
    h.finish64()
}

/// Current snapshot format version (the `v4` of the header line).
///
/// v1 → v2: every persisted fingerprint (group, DAG, data) moved from
/// `DefaultHasher` — whose output is only stable within one Rust compiler
/// release — to the in-repo FNV-1a, so snapshots survive toolchain
/// upgrades.
///
/// v2 → v3: the `treated` section of per-pattern treated-row masks is
/// gone, along with the engine cache it restored.
///
/// v3 → v4: the `adjustments` section is gone (no warm solve read it),
/// and the data fingerprint is `faircap_table::frame_fingerprint`, which
/// digests the same frame differently from the v3 one.
///
/// Older snapshots are refused with a typed error rather than silently
/// degrading to partial warm starts; re-solving and re-saving writes v4.
pub const SNAPSHOT_VERSION: u32 = 4;

const HEADER: &str = "faircap-snapshot";

impl SessionSnapshot {
    /// Serialize to the versioned text format described in the
    /// [module docs](self).
    pub fn encode(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{HEADER} v{SNAPSHOT_VERSION}");
        let _ = writeln!(out, "outcome {}", esc(&self.outcome));
        let _ = writeln!(out, "rows {}", self.n_rows);
        let _ = writeln!(out, "dag {:x}", self.dag_fp);
        let _ = writeln!(out, "data {:x}", self.data_fp);
        let _ = writeln!(out, "estimates {}", self.state.estimates.len());
        for (name, group_fp, pattern, estimate) in &self.state.estimates {
            let mut line = format!("e {} {group_fp:x}", esc(name));
            push_pattern(&mut line, pattern);
            match estimate {
                None => line.push_str(" -"),
                Some(e) => {
                    let _ = write!(
                        line,
                        " {:x} {:x} {:x} {:x} {} {}",
                        e.cate.to_bits(),
                        e.std_err.to_bits(),
                        e.t_stat.to_bits(),
                        e.p_value.to_bits(),
                        e.n_treated,
                        e.n_control
                    );
                }
            }
            let _ = writeln!(out, "{line}");
        }
        out
    }

    /// Parse the text format; rejects unknown versions and malformed input
    /// with [`Error::Snapshot`].
    pub fn decode(text: &str) -> Result<Self> {
        let mut lines = text.lines();
        let header = lines.next().ok_or_else(|| snap_err("empty snapshot"))?;
        let version = header
            .strip_prefix(HEADER)
            .map(str::trim)
            .and_then(|v| v.strip_prefix('v'))
            .and_then(|v| v.parse::<u32>().ok())
            .ok_or_else(|| snap_err(format!("not a faircap snapshot (header `{header}`)")))?;
        if version != SNAPSHOT_VERSION {
            let hint = if version < SNAPSHOT_VERSION {
                "; re-solve and re-save to regenerate it"
            } else {
                ""
            };
            return Err(snap_err(format!(
                "snapshot format v{version} is not supported (this build reads v{SNAPSHOT_VERSION}{hint})"
            )));
        }

        let outcome_line = next_line(&mut lines, "outcome")?;
        let outcome = unesc(field(&outcome_line, "outcome")?)?;
        let rows_line = next_line(&mut lines, "rows")?;
        let n_rows: usize = parse_num(field(&rows_line, "rows")?, "row count")?;
        let dag_line = next_line(&mut lines, "dag fingerprint")?;
        let dag_fp = parse_bits(field(&dag_line, "dag")?, "dag fingerprint")?;
        let data_line = next_line(&mut lines, "data fingerprint")?;
        let data_fp = parse_bits(field(&data_line, "data")?, "data fingerprint")?;

        let mut snapshot = SessionSnapshot {
            outcome,
            n_rows,
            dag_fp,
            data_fp,
            state: CateEngineState::default(),
        };

        let n: usize = section_count(&mut lines, "estimates")?;
        for _ in 0..n {
            let line = next_line(&mut lines, "estimate record")?;
            let mut toks = Tokens::new(&line, "estimate record");
            toks.literal("e")?;
            let name = toks.string("estimator name")?;
            let group_fp = u64::from_str_radix(toks.raw("group fingerprint")?, 16)
                .map_err(|e| snap_err(format!("group fingerprint: {e}")))?;
            let pattern = toks.pattern()?;
            let estimate = match toks.raw("estimate")? {
                "-" => None,
                first => Some(Estimate {
                    cate: f64::from_bits(parse_bits(first, "cate")?),
                    std_err: f64::from_bits(toks.bits("std_err")?),
                    t_stat: f64::from_bits(toks.bits("t_stat")?),
                    p_value: f64::from_bits(toks.bits("p_value")?),
                    n_treated: toks.num("n_treated")?,
                    n_control: toks.num("n_control")?,
                }),
            };
            snapshot
                .state
                .estimates
                .push((name, group_fp, pattern, estimate));
        }

        if let Some(extra) = lines.find(|l| !l.trim().is_empty()) {
            return Err(snap_err(format!("trailing content `{extra}`")));
        }
        Ok(snapshot)
    }
}

fn snap_err(msg: impl Into<String>) -> Error {
    Error::Snapshot(msg.into())
}

fn next_line<'a>(lines: &mut std::str::Lines<'a>, what: &str) -> Result<String> {
    lines
        .next()
        .map(str::to_owned)
        .ok_or_else(|| snap_err(format!("truncated snapshot: missing {what}")))
}

/// Second whitespace-separated field of a `key value` line, checking `key`.
fn field<'a>(line: &'a str, key: &str) -> Result<&'a str> {
    let mut parts = line.split_whitespace();
    if parts.next() != Some(key) {
        return Err(snap_err(format!("expected `{key} …`, got `{line}`")));
    }
    parts
        .next()
        .ok_or_else(|| snap_err(format!("`{key}` line has no value")))
}

fn section_count(lines: &mut std::str::Lines<'_>, key: &str) -> Result<usize> {
    let line = next_line(lines, key)?;
    parse_num(field(&line, key)?, key)
}

fn parse_num<T: std::str::FromStr>(tok: &str, what: &str) -> Result<T>
where
    T::Err: std::fmt::Display,
{
    tok.parse()
        .map_err(|e| snap_err(format!("bad {what} `{tok}`: {e}")))
}

fn parse_bits(tok: &str, what: &str) -> Result<u64> {
    u64::from_str_radix(tok, 16).map_err(|e| snap_err(format!("bad {what} bits `{tok}`: {e}")))
}

/// Append a pattern as ` {n} ({attr} {op} {value})*`.
fn push_pattern(line: &mut String, pattern: &Pattern) {
    let _ = write!(line, " {}", pattern.len());
    for pred in pattern.predicates() {
        let _ = write!(
            line,
            " {} {} {}",
            esc(&pred.attr),
            op_token(pred.op),
            value_token(&pred.value)
        );
    }
}

fn op_token(op: CmpOp) -> &'static str {
    match op {
        CmpOp::Eq => "eq",
        CmpOp::Ne => "ne",
        CmpOp::Lt => "lt",
        CmpOp::Le => "le",
        CmpOp::Gt => "gt",
        CmpOp::Ge => "ge",
    }
}

fn parse_op(tok: &str) -> Result<CmpOp> {
    Ok(match tok {
        "eq" => CmpOp::Eq,
        "ne" => CmpOp::Ne,
        "lt" => CmpOp::Lt,
        "le" => CmpOp::Le,
        "gt" => CmpOp::Gt,
        "ge" => CmpOp::Ge,
        other => return Err(snap_err(format!("unknown comparison op `{other}`"))),
    })
}

fn value_token(value: &Value) -> String {
    match value {
        Value::Null => "-".into(),
        Value::Int(v) => format!("i{v}"),
        Value::Float(v) => format!("f{:x}", v.to_bits()),
        Value::Bool(b) => (if *b { "b1" } else { "b0" }).into(),
        Value::Str(s) => format!("s{}", esc(s)),
    }
}

fn parse_value(tok: &str) -> Result<Value> {
    if tok == "-" {
        return Ok(Value::Null);
    }
    if !tok.is_char_boundary(1) {
        return Err(snap_err(format!("unknown value token `{tok}`")));
    }
    let body = &tok[1..];
    Ok(match tok.as_bytes()[0] {
        b'i' => Value::Int(parse_num(body, "int value")?),
        b'f' => Value::Float(f64::from_bits(parse_bits(body, "float value")?)),
        b'b' => Value::Bool(body == "1"),
        b's' => Value::Str(unesc(body)?),
        _ => return Err(snap_err(format!("unknown value token `{tok}`"))),
    })
}

/// Percent-escape so a string survives whitespace tokenization. The
/// decoder splits on *Unicode* whitespace (`split_whitespace`), so every
/// `char::is_whitespace` character must be escaped — the common ASCII four
/// get short two-digit escapes, any other whitespace (NBSP, em-space, …)
/// gets `%u<hex>;`. The empty string is encoded as `%e` (and a literal
/// `%e` round-trips because `%` itself is always escaped).
fn esc(s: &str) -> String {
    if s.is_empty() {
        return "%e".into();
    }
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '%' => out.push_str("%25"),
            ' ' => out.push_str("%20"),
            '\t' => out.push_str("%09"),
            '\n' => out.push_str("%0A"),
            '\r' => out.push_str("%0D"),
            other if other.is_whitespace() => {
                let _ = write!(out, "%u{:x};", other as u32);
            }
            other => out.push(other),
        }
    }
    out
}

fn unesc(s: &str) -> Result<String> {
    if s == "%e" {
        return Ok(String::new());
    }
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars().peekable();
    while let Some(c) = chars.next() {
        if c != '%' {
            out.push(c);
            continue;
        }
        if chars.peek() == Some(&'u') {
            chars.next();
            let hex: String = chars.by_ref().take_while(|&c| c != ';').collect();
            let cp = u32::from_str_radix(&hex, 16)
                .ok()
                .and_then(char::from_u32)
                .ok_or_else(|| snap_err(format!("bad escape `%u{hex};` in `{s}`")))?;
            out.push(cp);
            continue;
        }
        let pair: String = chars.by_ref().take(2).collect();
        match pair.as_str() {
            "25" => out.push('%'),
            "20" => out.push(' '),
            "09" => out.push('\t'),
            "0A" => out.push('\n'),
            "0D" => out.push('\r'),
            other => return Err(snap_err(format!("bad escape `%{other}` in `{s}`"))),
        }
    }
    Ok(out)
}

/// Whitespace token reader over one record line.
struct Tokens<'a> {
    iter: std::str::SplitWhitespace<'a>,
    what: &'a str,
}

impl<'a> Tokens<'a> {
    fn new(line: &'a str, what: &'a str) -> Self {
        Tokens {
            iter: line.split_whitespace(),
            what,
        }
    }

    fn raw(&mut self, field: &str) -> Result<&'a str> {
        self.iter
            .next()
            .ok_or_else(|| snap_err(format!("{}: missing {field}", self.what)))
    }

    fn literal(&mut self, expected: &str) -> Result<()> {
        let tok = self.raw("record tag")?;
        if tok != expected {
            return Err(snap_err(format!(
                "{}: expected `{expected}`, got `{tok}`",
                self.what
            )));
        }
        Ok(())
    }

    fn string(&mut self, field: &str) -> Result<String> {
        unesc(self.raw(field)?)
    }

    fn num<T: std::str::FromStr>(&mut self, field: &str) -> Result<T>
    where
        T::Err: std::fmt::Display,
    {
        parse_num(self.raw(field)?, field)
    }

    fn bits(&mut self, field: &str) -> Result<u64> {
        parse_bits(self.raw(field)?, field)
    }

    // The counts read below come from an untrusted file, so nothing is
    // reserved from them: a record that overstates a count runs out of
    // tokens and fails before it allocates more than the line holds.
    fn pattern(&mut self) -> Result<Pattern> {
        let n: usize = self.num("predicate count")?;
        let mut preds = Vec::new();
        for _ in 0..n {
            let attr = self.string("predicate attr")?;
            let op = parse_op(self.raw("predicate op")?)?;
            let value = parse_value(self.raw("predicate value")?)?;
            preds.push(Predicate::new(&attr, op, value));
        }
        Ok(Pattern::new(preds))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SessionSnapshot {
        let p1 = Pattern::of_eq(&[("training", Value::from("yes mentor"))]);
        let p2 = Pattern::new(vec![
            Predicate::new("age", CmpOp::Ge, Value::Int(30)),
            Predicate::new("score", CmpOp::Lt, Value::Float(0.1)),
            Predicate::eq("remote", Value::Bool(true)),
        ]);
        let est = Estimate {
            cate: 12.345678901234567,
            std_err: 0.25,
            t_stat: 49.3827,
            p_value: 1.2e-300,
            n_treated: 123,
            n_control: 456,
        };
        let degenerate = Estimate {
            cate: 5.0,
            std_err: 0.0,
            t_stat: f64::INFINITY,
            p_value: 0.0,
            n_treated: 10,
            n_control: 10,
        };
        SessionSnapshot {
            outcome: "salary%final\u{00a0}edition".into(),
            n_rows: 130,
            dag_fp: 0x1234_5678_9abc_def0,
            data_fp: 0x0fed_cba9_8765_4321,
            state: CateEngineState {
                estimates: vec![
                    ("linear".into(), 0xdead_beef, p1, Some(est)),
                    ("matching".into(), 7, p2, Some(degenerate)),
                    ("linear".into(), 42, Pattern::empty(), None),
                ],
            },
        }
    }

    #[test]
    fn encode_decode_round_trips_exactly() {
        let snap = sample();
        let text = snap.encode();
        let back = SessionSnapshot::decode(&text).unwrap();
        assert_eq!(back.outcome, snap.outcome);
        assert_eq!(back.n_rows, snap.n_rows);
        assert_eq!(back.dag_fp, snap.dag_fp);
        assert_eq!(back.data_fp, snap.data_fp);
        assert_eq!(back.state.estimates.len(), snap.state.estimates.len());
        for (a, b) in back.state.estimates.iter().zip(&snap.state.estimates) {
            assert_eq!(a.0, b.0);
            assert_eq!(a.1, b.1);
            assert_eq!(a.2, b.2);
            match (&a.3, &b.3) {
                (None, None) => {}
                (Some(x), Some(y)) => {
                    // Bit-exact round trip, including infinities.
                    assert_eq!(x.cate.to_bits(), y.cate.to_bits());
                    assert_eq!(x.t_stat.to_bits(), y.t_stat.to_bits());
                    assert_eq!(x.p_value.to_bits(), y.p_value.to_bits());
                    assert_eq!((x.n_treated, x.n_control), (y.n_treated, y.n_control));
                }
                other => panic!("estimate presence mismatch: {other:?}"),
            }
        }
        // Round-tripping again is a fixpoint.
        assert_eq!(back.encode(), text);
    }

    #[test]
    fn unknown_version_is_rejected() {
        let snap = sample();
        let text = snap.encode().replacen("v4", "v99", 1);
        let err = SessionSnapshot::decode(&text).unwrap_err();
        assert!(matches!(err, Error::Snapshot(_)));
        assert!(err.to_string().contains("v99"), "{err}");
    }

    #[test]
    fn outdated_versions_are_refused_with_regeneration_hint() {
        // Every older format is refused outright: v1 fingerprints were
        // DefaultHasher output, valid only for the toolchain that wrote
        // them, and v2/v3 data fingerprints are not today's frame digest.
        for old in ["v1", "v2", "v3"] {
            let text = sample().encode().replacen("v4", old, 1);
            let err = SessionSnapshot::decode(&text).unwrap_err();
            assert!(matches!(err, Error::Snapshot(_)));
            assert!(err.to_string().contains(old), "{err}");
            assert!(err.to_string().contains("re-save"), "{err}");
        }
    }

    #[test]
    fn fingerprints_are_toolchain_stable_constants() {
        // Pinned digests: if either ever changes, the snapshot format has
        // silently forked and SNAPSHOT_VERSION must be bumped.
        use faircap_table::{frame_fingerprint, DataFrame};
        let df = DataFrame::builder()
            .cat("grp", &["a", "b"])
            .float("o", vec![1.5, -2.0])
            .build()
            .unwrap();
        assert_eq!(frame_fingerprint(&df), 0x119f_a154_7cb9_4a17);
        let dag = Dag::parse_edge_list("grp -> o").unwrap();
        assert_eq!(dag_fingerprint(&dag), 0xfafb_3992_c436_be05);
    }

    #[test]
    fn garbage_is_rejected_with_typed_errors() {
        for bad in [
            "",
            "not a snapshot",
            "faircap-snapshot v4\noutcome o\nrows x",
            "faircap-snapshot v4\noutcome o\nrows 10\nestimates 1\n",
            "faircap-snapshot v4\noutcome o\nrows 10\ndag 0\ndata 0\nestimates 1\ne linear zz 0 -",
            // A v3 `adjustments` section is not part of v4.
            "faircap-snapshot v4\noutcome o\nrows 10\ndag 0\ndata 0\nadjustments 0\nestimates 0",
        ] {
            assert!(
                matches!(SessionSnapshot::decode(bad), Err(Error::Snapshot(_))),
                "accepted: {bad:?}"
            );
        }
    }

    #[test]
    fn trailing_content_is_rejected() {
        let mut text = sample().encode();
        text.push_str("surprise\n");
        assert!(matches!(
            SessionSnapshot::decode(&text),
            Err(Error::Snapshot(_))
        ));
    }

    #[test]
    fn escaping_round_trips_edge_cases() {
        for s in [
            "",
            " ",
            "%",
            "%e",
            "a b",
            "tab\there",
            "new\nline",
            "%%20",
            "%u00a0;",
            // Non-ASCII whitespace must survive `split_whitespace`
            // tokenization: NBSP, em-space, line separator.
            "nb\u{00a0}sp",
            "em\u{2003}space\u{2028}line",
        ] {
            assert_eq!(unesc(&esc(s)).unwrap(), s, "escape of {s:?}");
            assert!(
                esc(s).split_whitespace().count() <= 1,
                "escaped form of {s:?} must be one token"
            );
        }
    }
}
