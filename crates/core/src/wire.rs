//! JSON wire format for the serving front end: parse a [`SolveRequest`]
//! from a JSON body and render a [`SolutionReport`] as a JSON document.
//!
//! The build environment is offline, so instead of `serde_json` this module
//! carries a deliberately small JSON kernel: a [`Json`] value tree, a
//! recursive-descent [`Json::parse`], and a [`Json::render`] writer. Two
//! properties matter for the serving layer and are tested here:
//!
//! * **Floats round-trip exactly.** Finite `f64`s are rendered with Rust's
//!   shortest-round-trip formatting and parsed back with `str::parse`,
//!   which recovers the identical bit pattern — so a ruleset served over
//!   HTTP is *bit-identical* to one returned by a direct
//!   [`PrescriptionSession::solve`] call (asserted in
//!   `tests/integration_serve.rs`). Non-finite floats render as `null`
//!   (JSON has no `Infinity`/`NaN`).
//! * **Requests are strict.** [`solve_request_from_json`] rejects unknown
//!   keys, wrong types, and malformed constraint objects with
//!   [`Error::InvalidRequest`], so a typo'd knob is a 400, not a silently
//!   ignored field.
//!
//! [`PrescriptionSession::solve`]: crate::session::PrescriptionSession::solve

use crate::config::{CoverageConstraint, FairCapConfig, FairnessConstraint, FairnessScope};
use crate::error::{Error, Result};
use crate::exec::ExecStats;
use crate::report::SolutionReport;
use crate::session::SolveRequest;
use faircap_causal::{Estimator as _, EstimatorKind};
use std::fmt::Write as _;

/// A parsed JSON value. Objects preserve key order (a `Vec`, not a map) so
/// rendered documents are deterministic.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup; `None` on non-objects and missing keys.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Walk a `.`-separated path of object keys
    /// (`"sessions.german.estimate_cache.hits"`); `None` as soon as a
    /// segment is missing or the walk hits a non-object. Convenient for
    /// picking counters out of deep documents like `/v1/metrics`.
    pub fn get_path(&self, path: &str) -> Option<&Json> {
        let mut current = self;
        for segment in path.split('.') {
            current = current.get(segment)?;
        }
        Some(current)
    }

    /// The value as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Parse a JSON document. Rejects trailing content, unterminated
    /// structures, and nesting deeper than 64 levels (stack safety on
    /// untrusted network input).
    pub fn parse(text: &str) -> std::result::Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing content at byte {}", p.pos));
        }
        Ok(value)
    }

    /// Render as compact JSON. Finite numbers use Rust's shortest
    /// round-trip `f64` formatting (integral values print without `.0`, as
    /// `{}` already does for e.g. `3.0` → `3`); NaN and infinities render
    /// as `null`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                if n.is_finite() {
                    let _ = write!(out, "{n}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => render_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render_string(k, out);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

fn render_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> std::result::Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", char::from(b), self.pos))
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> std::result::Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> std::result::Result<Json, String> {
        if self.depth >= MAX_DEPTH {
            return Err("nesting too deep".into());
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => {
                self.pos += 1;
                self.depth += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    self.skip_ws();
                    items.push(self.value()?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            self.depth -= 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                self.depth += 1;
                let mut fields = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Obj(fields));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    self.skip_ws();
                    let value = self.value()?;
                    fields.push((key, value));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            self.depth -= 1;
                            return Ok(Json::Obj(fields));
                        }
                        _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
                    }
                }
            }
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            Some(_) => Err(format!("unexpected byte at {}", self.pos)),
            None => Err("unexpected end of input".into()),
        }
    }

    fn number(&mut self) -> std::result::Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii slice");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|e| format!("bad number `{text}` at byte {start}: {e}"))
    }

    fn string(&mut self) -> std::result::Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err("unterminated string".into());
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err("unterminated escape".into());
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let cp = self.hex4()?;
                            // Surrogate pair handling: a high surrogate must
                            // be followed by a \u escape that actually is a
                            // low surrogate, else the document is rejected.
                            let c = if (0xd800..0xdc00).contains(&cp) {
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let low = self.hex4()?;
                                    if (0xdc00..0xe000).contains(&low) {
                                        let combined =
                                            0x10000 + ((cp - 0xd800) << 10) + (low - 0xdc00);
                                        char::from_u32(combined)
                                    } else {
                                        None
                                    }
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(cp)
                            };
                            out.push(c.ok_or_else(|| format!("bad \\u escape near {}", self.pos))?);
                        }
                        other => return Err(format!("bad escape `\\{}`", char::from(other))),
                    }
                }
                _ => {
                    // Consume the full UTF-8 sequence starting at `b`.
                    let start = self.pos - 1;
                    let len = utf8_len(b);
                    let end = start + len;
                    let slice = self
                        .bytes
                        .get(start..end)
                        .ok_or("truncated UTF-8 sequence")?;
                    let s = std::str::from_utf8(slice).map_err(|e| e.to_string())?;
                    out.push_str(s);
                    self.pos = end;
                }
            }
        }
    }

    fn hex4(&mut self) -> std::result::Result<u32, String> {
        let slice = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or("truncated \\u escape")?;
        let text = std::str::from_utf8(slice).map_err(|e| e.to_string())?;
        let cp = u32::from_str_radix(text, 16).map_err(|e| e.to_string())?;
        self.pos += 4;
        Ok(cp)
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

fn bad(msg: impl Into<String>) -> Error {
    Error::InvalidRequest(msg.into())
}

/// Build a [`SolveRequest`] from a parsed JSON object.
///
/// Every field is optional and defaults to [`FairCapConfig::default`];
/// unknown keys are rejected (except `session`, which the serving layer
/// consumes for routing before handing the body here). Schema:
///
/// ```json
/// {
///   "fairness":  {"kind": "sp"|"bgl"|"none", "scope": "group"|"individual",
///                 "epsilon": 10000.0, "tau": 0.1},
///   "coverage":  {"kind": "group"|"rule"|"none",
///                 "theta": 0.5, "theta_protected": 0.5},
///   "estimator": "linear"|"stratified"|"ipw"|"aipw"|"matching",
///   "max_rules": 20,
///   "apriori_threshold": 0.1,
///   "parallel": true,
///   "workers": 4,
///   "use_solve_cache": true,
///   "trace": false
/// }
/// ```
pub fn solve_request_from_json(json: &Json) -> Result<SolveRequest> {
    let Json::Obj(fields) = json else {
        return Err(bad("request body must be a JSON object"));
    };
    let mut config = FairCapConfig::default();
    let mut request = SolveRequest::default();
    for (key, value) in fields {
        match key.as_str() {
            // Consumed by the serving layer for session routing.
            "session" => {}
            "fairness" => config.fairness = fairness_from_json(value)?,
            "coverage" => config.coverage = coverage_from_json(value)?,
            "estimator" => {
                let name = value
                    .as_str()
                    .ok_or_else(|| bad("`estimator` must be a string"))?;
                config.estimator = EstimatorKind::parse(name).ok_or_else(|| {
                    let known: Vec<&str> = EstimatorKind::ALL.iter().map(|k| k.name()).collect();
                    bad(format!(
                        "unknown estimator `{name}` (expected one of: {})",
                        known.join(", ")
                    ))
                })?;
            }
            "max_rules" => config.max_rules = usize_field(value, "max_rules")?,
            "apriori_threshold" => {
                config.apriori_threshold = f64_field(value, "apriori_threshold")?
            }
            "parallel" => {
                config.parallel = value
                    .as_bool()
                    .ok_or_else(|| bad("`parallel` must be a boolean"))?
            }
            "workers" => request.workers = Some(usize_field(value, "workers")?),
            "use_solve_cache" => {
                request.use_solve_cache = value
                    .as_bool()
                    .ok_or_else(|| bad("`use_solve_cache` must be a boolean"))?
            }
            "trace" => {
                request.trace = value
                    .as_bool()
                    .ok_or_else(|| bad("`trace` must be a boolean"))?
            }
            other => return Err(bad(format!("unknown request field `{other}`"))),
        }
    }
    request.config = config;
    Ok(request)
}

fn f64_field(value: &Json, name: &str) -> Result<f64> {
    value
        .as_f64()
        .ok_or_else(|| bad(format!("`{name}` must be a number")))
}

fn usize_field(value: &Json, name: &str) -> Result<usize> {
    let n = f64_field(value, name)?;
    if n < 0.0 || n.fract() != 0.0 || n > usize::MAX as f64 {
        return Err(bad(format!(
            "`{name}` must be a non-negative integer, got {n}"
        )));
    }
    Ok(n as usize)
}

fn scope_from_json(obj: &Json) -> Result<FairnessScope> {
    match obj.get("scope").and_then(Json::as_str) {
        Some("group") | None => Ok(FairnessScope::Group),
        Some("individual") => Ok(FairnessScope::Individual),
        Some(other) => Err(bad(format!(
            "fairness scope must be `group` or `individual`, got `{other}`"
        ))),
    }
}

fn fairness_from_json(value: &Json) -> Result<FairnessConstraint> {
    let kind = value
        .get("kind")
        .and_then(Json::as_str)
        .ok_or_else(|| bad("`fairness` must be an object with a `kind` field"))?;
    match kind {
        "none" => Ok(FairnessConstraint::None),
        "sp" => Ok(FairnessConstraint::StatisticalParity {
            scope: scope_from_json(value)?,
            epsilon: value
                .get("epsilon")
                .map(|v| f64_field(v, "epsilon"))
                .transpose()?
                .ok_or_else(|| bad("`sp` fairness requires `epsilon`"))?,
        }),
        "bgl" => Ok(FairnessConstraint::BoundedGroupLoss {
            scope: scope_from_json(value)?,
            tau: value
                .get("tau")
                .map(|v| f64_field(v, "tau"))
                .transpose()?
                .ok_or_else(|| bad("`bgl` fairness requires `tau`"))?,
        }),
        other => Err(bad(format!(
            "fairness kind must be `none`, `sp`, or `bgl`, got `{other}`"
        ))),
    }
}

fn coverage_from_json(value: &Json) -> Result<CoverageConstraint> {
    let kind = value
        .get("kind")
        .and_then(Json::as_str)
        .ok_or_else(|| bad("`coverage` must be an object with a `kind` field"))?;
    if kind == "none" {
        return Ok(CoverageConstraint::None);
    }
    let theta = value
        .get("theta")
        .map(|v| f64_field(v, "theta"))
        .transpose()?
        .ok_or_else(|| bad(format!("`{kind}` coverage requires `theta`")))?;
    let theta_protected = value
        .get("theta_protected")
        .map(|v| f64_field(v, "theta_protected"))
        .transpose()?
        .ok_or_else(|| bad(format!("`{kind}` coverage requires `theta_protected`")))?;
    match kind {
        "group" => Ok(CoverageConstraint::Group {
            theta,
            theta_protected,
        }),
        "rule" => Ok(CoverageConstraint::Rule {
            theta,
            theta_protected,
        }),
        other => Err(bad(format!(
            "coverage kind must be `none`, `group`, or `rule`, got `{other}`"
        ))),
    }
}

fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

fn opt_usize(value: Option<usize>) -> Json {
    value.map(|n| Json::Num(n as f64)).unwrap_or(Json::Null)
}

/// Render a [`SolveRequest`] as its **canonical** JSON document: a fixed
/// field order with every field explicit (defaults included, absent
/// options as `null`), so two wire bodies that parse to the same request —
/// reordered keys, omitted-vs-explicit defaults, equivalent number
/// spellings — render to the *same byte string*.
///
/// This is the serving layer's coalescing key: the FNV-64 digest of this
/// rendering identifies in-flight duplicate solves (`serve::coalesce`).
/// Floats use the same shortest-round-trip formatting as the rest of the
/// wire module, so canonical equality is bit-level `f64` equality — which
/// is exactly the equivalence under which two solves are bit-identical.
///
/// The per-request `estimator` *override* (`SolveRequest::estimator`, an
/// in-process trait object that cannot arrive over the wire) is not
/// represented; callers coalescing in-process requests must refuse to
/// fingerprint a request carrying one.
pub fn solve_request_to_canonical_json(request: &SolveRequest) -> Json {
    let config = &request.config;
    let fairness = match config.fairness {
        FairnessConstraint::None => obj(vec![("kind", Json::Str("none".into()))]),
        FairnessConstraint::StatisticalParity { scope, epsilon } => obj(vec![
            ("kind", Json::Str("sp".into())),
            ("scope", scope_to_json(scope)),
            ("epsilon", Json::Num(epsilon)),
        ]),
        FairnessConstraint::BoundedGroupLoss { scope, tau } => obj(vec![
            ("kind", Json::Str("bgl".into())),
            ("scope", scope_to_json(scope)),
            ("tau", Json::Num(tau)),
        ]),
    };
    let coverage = match config.coverage {
        CoverageConstraint::None => obj(vec![("kind", Json::Str("none".into()))]),
        CoverageConstraint::Group {
            theta,
            theta_protected,
        } => obj(vec![
            ("kind", Json::Str("group".into())),
            ("theta", Json::Num(theta)),
            ("theta_protected", Json::Num(theta_protected)),
        ]),
        CoverageConstraint::Rule {
            theta,
            theta_protected,
        } => obj(vec![
            ("kind", Json::Str("rule".into())),
            ("theta", Json::Num(theta)),
            ("theta_protected", Json::Num(theta_protected)),
        ]),
    };
    obj(vec![
        ("fairness", fairness),
        ("coverage", coverage),
        ("estimator", Json::Str(config.estimator.name().to_owned())),
        ("max_rules", Json::Num(config.max_rules as f64)),
        ("apriori_threshold", Json::Num(config.apriori_threshold)),
        ("max_group_len", Json::Num(config.max_group_len as f64)),
        (
            "max_intervention_len",
            Json::Num(config.max_intervention_len as f64),
        ),
        ("min_marginal_gain", Json::Num(config.min_marginal_gain)),
        ("alpha", Json::Num(config.alpha)),
        (
            "interventions_per_group",
            Json::Num(config.interventions_per_group as f64),
        ),
        ("parallel", Json::Bool(config.parallel)),
        ("workers", opt_usize(request.workers)),
        ("use_solve_cache", Json::Bool(request.use_solve_cache)),
        ("trace", Json::Bool(request.trace)),
    ])
}

fn scope_to_json(scope: FairnessScope) -> Json {
    Json::Str(
        match scope {
            FairnessScope::Group => "group",
            FairnessScope::Individual => "individual",
        }
        .into(),
    )
}

/// Render [`ExecStats`] as JSON (the `exec` field of a report document).
pub fn exec_stats_to_json(stats: &ExecStats) -> Json {
    obj(vec![
        ("workers", Json::Num(stats.workers as f64)),
        ("tasks", Json::Num(stats.tasks as f64)),
        ("steals", Json::Num(stats.steals as f64)),
        (
            "tasks_per_worker",
            Json::Arr(
                stats
                    .tasks_per_worker
                    .iter()
                    .map(|&n| Json::Num(n as f64))
                    .collect(),
            ),
        ),
        ("busy_ms", Json::Num(stats.busy.as_secs_f64() * 1e3)),
        ("wall_ms", Json::Num(stats.wall.as_secs_f64() * 1e3)),
        ("utilization", Json::Num(stats.utilization())),
    ])
}

/// Render a [`SolutionReport`] as a JSON document — the response body of
/// `POST /v1/solve`.
pub fn solution_report_to_json(report: &SolutionReport) -> Json {
    let rules: Vec<Json> = report
        .rules
        .iter()
        .map(|r| {
            obj(vec![
                ("grouping", Json::Str(r.grouping.to_string())),
                ("intervention", Json::Str(r.intervention.to_string())),
                ("rule", Json::Str(r.to_string())),
                ("coverage_count", Json::Num(r.coverage_count() as f64)),
                (
                    "coverage_protected_count",
                    Json::Num(r.coverage_protected_count() as f64),
                ),
                (
                    "utility",
                    obj(vec![
                        ("overall", Json::Num(r.utility.overall)),
                        ("protected", Json::Num(r.utility.protected)),
                        ("non_protected", Json::Num(r.utility.non_protected)),
                        ("p_value", Json::Num(r.utility.p_value)),
                    ]),
                ),
                ("benefit", Json::Num(r.benefit)),
            ])
        })
        .collect();
    let summary = obj(vec![
        ("expected", Json::Num(report.summary.expected)),
        (
            "expected_protected",
            Json::Num(report.summary.expected_protected),
        ),
        (
            "expected_non_protected",
            Json::Num(report.summary.expected_non_protected),
        ),
        ("coverage", Json::Num(report.summary.coverage)),
        (
            "coverage_protected",
            Json::Num(report.summary.coverage_protected),
        ),
        ("unfairness", Json::Num(report.summary.unfairness)),
    ]);
    let timings = obj(vec![
        (
            "grouping_ms",
            Json::Num(report.timings.grouping.as_secs_f64() * 1e3),
        ),
        (
            "intervention_ms",
            Json::Num(report.timings.intervention.as_secs_f64() * 1e3),
        ),
        (
            "greedy_ms",
            Json::Num(report.timings.greedy.as_secs_f64() * 1e3),
        ),
        (
            "total_ms",
            Json::Num(report.timings.total().as_secs_f64() * 1e3),
        ),
    ]);
    let mining = |m: &faircap_mining::MiningStats| {
        obj(vec![
            ("candidates", Json::Num(m.candidates as f64)),
            ("pruned_parent", Json::Num(m.pruned_parent as f64)),
            ("pruned_support", Json::Num(m.pruned_support as f64)),
            ("evaluated", Json::Num(m.evaluated as f64)),
        ])
    };
    let stats = obj(vec![
        ("grouping", mining(&report.stats.grouping)),
        ("lattice", mining(&report.stats.lattice)),
        (
            "greedy",
            obj(vec![
                (
                    "evaluations",
                    Json::Num(report.stats.greedy.evaluations as f64),
                ),
                (
                    "reevaluations",
                    Json::Num(report.stats.greedy.reevaluations as f64),
                ),
                ("rounds", Json::Num(report.stats.greedy.rounds as f64)),
            ]),
        ),
        (
            "intervention_cache",
            obj(vec![
                (
                    "hits",
                    Json::Num(report.stats.intervention_cache_hits as f64),
                ),
                (
                    "misses",
                    Json::Num(report.stats.intervention_cache_misses as f64),
                ),
            ]),
        ),
    ]);
    obj(vec![
        ("label", Json::Str(report.label.clone())),
        ("constraints_met", Json::Bool(report.constraints_met)),
        ("n_rules", Json::Num(report.size() as f64)),
        ("rules", Json::Arr(rules)),
        ("summary", summary),
        (
            "n_grouping_patterns",
            Json::Num(report.n_grouping_patterns as f64),
        ),
        ("n_candidates", Json::Num(report.n_candidates as f64)),
        ("timings", timings),
        ("stats", stats),
        (
            "exec",
            report
                .exec
                .as_ref()
                .map(exec_stats_to_json)
                .unwrap_or(Json::Null),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_render_round_trips() {
        let text = r#"{"a":[1,2.5,-3e2],"b":{"c":null,"d":true,"e":"x\"\\\né"},"f":false}"#;
        let v = Json::parse(text).unwrap();
        let rendered = v.render();
        assert_eq!(Json::parse(&rendered).unwrap(), v);
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(
            v.get("b").unwrap().get("e").unwrap().as_str().unwrap(),
            "x\"\\\né"
        );
    }

    #[test]
    fn get_path_walks_nested_objects() {
        let v = Json::parse(r#"{"a":{"b":{"c":7}},"x":[1]}"#).unwrap();
        assert_eq!(v.get_path("a.b.c").unwrap().as_f64(), Some(7.0));
        assert_eq!(v.get_path("a"), v.get("a"));
        assert!(v.get_path("a.b.z").is_none());
        assert!(v.get_path("x.0").is_none(), "arrays are not traversed");
        assert!(v.get_path("a.b.c.d").is_none(), "leaf is not an object");
    }

    #[test]
    fn floats_round_trip_bit_exactly() {
        for bits in [
            0x3ff0_0000_0000_0001u64, // 1.0 + ulp
            0x4197_d784_3c80_0000,    // some large value
            (-1.2345678901234567e-89f64).to_bits(),
            0u64,
        ] {
            let v = Json::Num(f64::from_bits(bits));
            let back = Json::parse(&v.render()).unwrap();
            assert_eq!(back.as_f64().unwrap().to_bits(), bits);
        }
        // Non-finite floats degrade to null, not invalid JSON.
        assert_eq!(Json::Num(f64::INFINITY).render(), "null");
        assert_eq!(Json::Num(f64::NAN).render(), "null");
    }

    #[test]
    fn malformed_documents_are_rejected() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\":1} extra",
            "nul",
            "\"unterminated",
            "01a",
            // Lone high surrogate, and a high surrogate followed by a
            // non-low-surrogate escape.
            "\"\\ud800\"",
            "\"\\ud800\\u0041\"",
            "\"\\ud800x\"",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
        // A valid pair decodes to the astral character.
        assert_eq!(
            Json::parse("\"\\ud83d\\ude00\"").unwrap(),
            Json::Str("😀".into())
        );
    }

    #[test]
    fn deep_nesting_is_rejected() {
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(Json::parse(&deep).is_err());
    }

    #[test]
    fn solve_request_parses_every_knob() {
        let body = r#"{
            "session": "german",
            "fairness": {"kind": "sp", "scope": "group", "epsilon": 10000.0},
            "coverage": {"kind": "rule", "theta": 0.3, "theta_protected": 0.2},
            "estimator": "aipw",
            "max_rules": 7,
            "apriori_threshold": 0.15,
            "parallel": false,
            "workers": 3
        }"#;
        let request = solve_request_from_json(&Json::parse(body).unwrap()).unwrap();
        assert!(matches!(
            request.config.fairness,
            FairnessConstraint::StatisticalParity {
                scope: FairnessScope::Group,
                epsilon
            } if epsilon == 10_000.0
        ));
        assert!(matches!(
            request.config.coverage,
            CoverageConstraint::Rule { theta, .. } if theta == 0.3
        ));
        assert_eq!(request.config.estimator, EstimatorKind::Aipw);
        assert_eq!(request.config.max_rules, 7);
        assert_eq!(request.config.apriori_threshold, 0.15);
        assert!(!request.config.parallel);
        assert_eq!(request.workers, Some(3));
    }

    #[test]
    fn empty_request_is_all_defaults() {
        let request = solve_request_from_json(&Json::parse("{}").unwrap()).unwrap();
        assert_eq!(request.config.max_rules, FairCapConfig::default().max_rules);
        assert!(request.workers.is_none());
    }

    #[test]
    fn bad_requests_are_typed_errors() {
        for (body, needle) in [
            (r#"{"bogus": 1}"#, "unknown request field"),
            // A request configures one solve; cache sizes are fixed when
            // the session's caches are built.
            (r#"{"estimate_cache_bound": 0}"#, "unknown request field"),
            (r#"{"grouping_cache_bound": 64}"#, "unknown request field"),
            (
                r#"{"intervention_cache_bound": 256}"#,
                "unknown request field",
            ),
            (r#"{"estimator": "dowhy"}"#, "unknown estimator"),
            (r#"{"fairness": {"kind": "sp"}}"#, "epsilon"),
            (r#"{"fairness": {"kind": "zz"}}"#, "fairness kind"),
            (
                r#"{"coverage": {"kind": "group", "theta": 0.5}}"#,
                "theta_protected",
            ),
            (r#"{"max_rules": 1.5}"#, "non-negative integer"),
            (r#"{"max_rules": -1}"#, "non-negative integer"),
            (r#"{"parallel": "yes"}"#, "boolean"),
            (r#"[1]"#, "object"),
        ] {
            let err = solve_request_from_json(&Json::parse(body).unwrap()).unwrap_err();
            assert!(
                matches!(err, Error::InvalidRequest(ref m) if m.contains(needle)),
                "{body} -> {err}"
            );
        }
    }

    #[test]
    fn canonical_request_json_normalizes_equivalent_bodies() {
        // The same request spelled three ways: reordered keys, defaults
        // omitted vs. explicit, different number spellings. All must
        // render to one canonical byte string.
        let spellings = [
            r#"{"max_rules": 7, "estimator": "ipw", "fairness": {"kind": "sp", "epsilon": 1e4}}"#,
            r#"{"fairness": {"epsilon": 10000.0, "kind": "sp", "scope": "group"},
                "estimator": "ipw", "max_rules": 7, "parallel": true}"#,
            r#"{"session": "ignored-for-the-key", "estimator": "ipw",
                "coverage": {"kind": "none"}, "max_rules": 7,
                "fairness": {"kind": "sp", "epsilon": 10000}}"#,
        ];
        let canonical: Vec<String> = spellings
            .iter()
            .map(|body| {
                let request = solve_request_from_json(&Json::parse(body).unwrap()).unwrap();
                solve_request_to_canonical_json(&request).render()
            })
            .collect();
        assert_eq!(canonical[0], canonical[1]);
        assert_eq!(canonical[0], canonical[2]);
        // A genuinely different request diverges.
        let other = solve_request_from_json(&Json::parse(r#"{"max_rules": 8}"#).unwrap()).unwrap();
        assert_ne!(
            canonical[0],
            solve_request_to_canonical_json(&other).render()
        );
        // Every wire-settable knob appears explicitly in the canonical form.
        let doc = Json::parse(&canonical[0]).unwrap();
        for field in [
            "fairness",
            "coverage",
            "estimator",
            "max_rules",
            "apriori_threshold",
            "parallel",
            "workers",
            "use_solve_cache",
            "trace",
        ] {
            assert!(doc.get(field).is_some(), "canonical form omits `{field}`");
        }
    }

    #[test]
    fn report_renders_and_reparses() {
        use crate::report::{SolveStats, StepTimings};
        use crate::utility::RulesetUtility;
        use std::time::Duration;
        let report = SolutionReport {
            label: "no fairness + no coverage".into(),
            rules: Vec::new(),
            summary: RulesetUtility {
                expected: 27_934.76,
                expected_protected: 18_145.23,
                expected_non_protected: 28_144.58,
                coverage: 0.9795,
                coverage_protected: 0.9885,
                unfairness: 9_999.35,
            },
            constraints_met: true,
            n_grouping_patterns: 12,
            n_candidates: 10,
            timings: StepTimings {
                grouping: Duration::from_millis(5),
                intervention: Duration::from_millis(900),
                greedy: Duration::from_millis(20),
            },
            stats: SolveStats {
                intervention_cache_hits: 7,
                intervention_cache_misses: 5,
                ..SolveStats::default()
            },
            exec: Some(ExecStats {
                workers: 2,
                tasks: 12,
                steals: 3,
                tasks_per_worker: vec![7, 5],
                busy: Duration::from_millis(800),
                wall: Duration::from_millis(450),
            }),
        };
        let json = solution_report_to_json(&report);
        let back = Json::parse(&json.render()).unwrap();
        assert_eq!(
            back.get("summary")
                .unwrap()
                .get("expected")
                .unwrap()
                .as_f64()
                .unwrap()
                .to_bits(),
            report.summary.expected.to_bits(),
            "summary floats must survive the wire bit-exactly"
        );
        assert_eq!(back.get("n_rules").unwrap().as_f64(), Some(0.0));
        assert_eq!(
            back.get("exec").unwrap().get("steals").unwrap().as_f64(),
            Some(3.0)
        );
        let cache = back
            .get("stats")
            .unwrap()
            .get("intervention_cache")
            .unwrap();
        assert_eq!(cache.get("hits").unwrap().as_f64(), Some(7.0));
        assert_eq!(cache.get("misses").unwrap().as_f64(), Some(5.0));
    }
}
