//! Step 3 (§5.3): greedy selection of the final ruleset.
//!
//! At each iteration the rule maximizing
//! `score = coverage-gain (while unmet) + benefit/U + ΔExpUtility/U`
//! is added, where `U` normalizes utilities to the best candidate's scale so
//! the three terms are commensurable. Group-scope constraints are enforced
//! as validity: a rule whose addition would violate group SP / BGL is
//! skipped. The loop stops when the best marginal score drops below the
//! configured threshold (once coverage is satisfied), when `max_rules` is
//! hit, or when no candidate remains.
//!
//! # Lazy evaluation (CELF)
//!
//! [`greedy_select`] runs the loop lazily, CELF-style (Leskovec et al.
//! 2007): every candidate's score from a previous iteration is an **upper
//! bound** on its current score, so candidates sit in a max-heap under
//! their stale scores and only the top is re-evaluated until a candidate's
//! fresh score still tops the heap. The bound holds term by term:
//!
//! * the coverage term only shrinks — rows never become uncovered, so the
//!   uncovered rows a candidate reaches only shrink, and the whole term
//!   drops (it is non-negative) once coverage is met, which is permanent;
//! * the `ΔExpUtility` term only shrinks — it is `(u − b) · |cov ∧ class|`
//!   summed over the [coverage classes](#coverage-classes) of value
//!   `b < u`, and a commit only moves rows into a class of a higher value,
//!   so each row's share `max(0, u − b)` is non-increasing and so is every
//!   class's sum of them;
//! * the `benefit` tie-break term is constant.
//!
//! Group-scope *validity* is not monotone, so candidates failing the
//! fairness preview are merely set aside for the round (with their fresh
//! score, still an upper bound) and retried in later rounds. Ties resolve
//! to the lowest candidate index, exactly like the eager scan's strict
//! `>` comparison — selections are **bit-identical** to
//! [`reference::greedy_select`], the retained eager oracle, which scores on
//! the same state (property-tested in `tests/prop_greedy_celf.rs`).
//!
//! # Coverage classes
//!
//! Next to its per-row `best` and `worst` arrays, the state keeps the
//! covered rows partitioned into classes by their `best` value, and the
//! rows some committed rule's protected coverage reached partitioned by
//! their `worst` value. Each class is a row mask plus its value. A commit
//! moves the rows the new rule improves into one new class and drops the
//! classes it empties, so after `j` commits there are at most `j` classes
//! of each kind. A preview is then word-level AND and popcount:
//!
//! ```text
//! Δ best (protected) = n_new · u + Σ_{classes b < u} (u − b) · |cov ∧ class ∧ P|
//! ```
//!
//! with its `¬P` twin, and the `worst` twin over `coverage_protected` and
//! the classes `w > u_protected`: O(classes × words) per evaluation instead
//! of two unpredictable branches per covered row. A class the rule reaches
//! no row of adds no term, so an infinite or NaN utility never meets a
//! `0 · ∞`.
//!
//! The covered counts are exact. The sums are not the row walk's, which
//! adds one term `tᵢ` per row in row order; with `n` such terms, `m` one
//! more than the number of classes and `ε = f64::EPSILON`,
//!
//! ```text
//! |class Δ − row Δ| ≤ (n + m) · ε · Σ|tᵢ|
//! ```
//!
//! (recursive summation of `n` terms errs by at most `γ_{n−1}·Σ|tᵢ|`; the
//! class form rounds each product once and sums at most `m` of them; and
//! `γ_k ≤ 1.01·k·ε/2` for `k·ε ≪ 1`). With integer-valued utilities (and
//! sums below 2⁵³) both sums are exact and equal. A commit still adds its
//! terms one row at a time in row order, so a selection's summary is
//! bit-identical to a row walk's; only previews whose scores lie within the
//! bound of each other could select differently. The row walk is the
//! oracle of this module's tests.

use crate::config::FairCapConfig;
use crate::constraints::{
    rule_satisfies_coverage, rule_satisfies_fairness, summary_satisfies_coverage,
    summary_satisfies_fairness,
};
use crate::rule::Rule;
use crate::utility::RulesetUtility;
use faircap_table::Mask;
use std::collections::BinaryHeap;

/// Result of the greedy phase.
#[derive(Debug, Clone)]
pub struct GreedyOutcome {
    /// Selected rules, in selection order.
    pub selected: Vec<Rule>,
    /// Utility summary of the selected set.
    pub summary: RulesetUtility,
    /// Whether all constraints hold for the final set.
    pub constraints_met: bool,
}

/// Work accounting of one lazy-greedy run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GreedyStats {
    /// Candidate score evaluations performed (the eager loop performs
    /// `rounds × remaining-candidates` of these).
    pub evaluations: u64,
    /// Evaluations beyond each candidate's first — stale heap entries that
    /// had to be refreshed before a selection could be certified.
    pub reevaluations: u64,
    /// Selection rounds run (including the final round that only proved
    /// the stopping condition).
    pub rounds: u64,
}

/// Rows that hold one value: a row mask plus the value (`best` or `worst`)
/// every one of its rows holds.
struct Class {
    value: f64,
    rows: Vec<u64>,
}

/// A per-row value (`best` or `worst`) together with the rows some
/// committed rule reached, partitioned into [`Class`]es by that value.
/// Every commit adds at most one class (the rows that took the new rule's
/// value), so after `j` commits there are at most `j`.
struct Classes {
    /// The value of a row no committed rule reached.
    unreached: f64,
    /// Per-row value: `unreached` outside `reached`, else the row's class
    /// value.
    values: Vec<f64>,
    /// Union of the classes' rows.
    reached: Vec<u64>,
    classes: Vec<Class>,
    /// Row buffers of emptied classes, reused by later commits.
    spare: Vec<Vec<u64>>,
}

impl Classes {
    fn new(n_rows: usize, unreached: f64) -> Self {
        Classes {
            unreached,
            values: vec![unreached; n_rows],
            reached: vec![0; n_rows.div_ceil(64)],
            classes: Vec::new(),
            spare: Vec::new(),
        }
    }

    /// The rows of `cov` that no class holds or whose class value
    /// `improves` accepts: the rows a rule would move.
    fn gains(&mut self, cov: &[u64], improves: impl Fn(f64) -> bool) -> Vec<u64> {
        let mut gains = self.spare.pop().unwrap_or_default();
        gains.clear();
        gains.extend(cov.iter().zip(&self.reached).map(|(&c, &r)| c & !r));
        for class in self.classes.iter().filter(|k| improves(k.value)) {
            for ((g, &k), &c) in gains.iter_mut().zip(&class.rows).zip(cov) {
                *g |= k & c;
            }
        }
        gains
    }

    /// Add one term per set bit of `rows`, in row order, to `sum` —
    /// `value` for an unreached row, else `value − old` — and set those
    /// rows' values to `value`.
    fn add_terms(&mut self, sum: &mut f64, rows: impl Iterator<Item = u64>, value: f64) {
        for (w, mut bits) in rows.enumerate() {
            while bits != 0 {
                let i = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let old = self.values[i];
                *sum += if old == self.unreached {
                    value
                } else {
                    value - old
                };
                self.values[i] = value;
            }
        }
    }

    /// Move `rows` into a new class holding `value`, dropping the classes
    /// this empties. A `value` equal to `unreached` leaves every row where
    /// it is: `values` still reads those rows as unreached.
    fn commit(&mut self, rows: Vec<u64>, value: f64) {
        if value == self.unreached {
            self.spare.push(rows);
            return;
        }
        for (r, &g) in self.reached.iter_mut().zip(&rows) {
            *r |= g;
        }
        let spare = &mut self.spare;
        self.classes.retain_mut(|class| {
            let mut left = 0;
            for (k, &g) in class.rows.iter_mut().zip(&rows) {
                *k &= !g;
                left |= *k;
            }
            if left == 0 {
                spare.push(std::mem::take(&mut class.rows));
            }
            left != 0
        });
        if rows.iter().any(|&w| w != 0) {
            self.classes.push(Class { value, rows });
        } else {
            self.spare.push(rows);
        }
    }
}

/// `acc += count · x`, adding nothing for an empty count: `0 · ∞` would be
/// NaN where the row walk adds no term at all.
fn add_scaled(acc: &mut f64, count: usize, x: f64) {
    if count > 0 {
        *acc += count as f64 * x;
    }
}

/// `(|cov ∧ rows ∧ p|, |cov ∧ rows ∧ ¬p|)`.
fn count_split(cov: &[u64], rows: impl Iterator<Item = u64>, p: &[u64]) -> (usize, usize) {
    let (mut in_p, mut all) = (0u32, 0u32);
    for ((&c, k), &p) in cov.iter().zip(rows).zip(p) {
        let x = c & k;
        in_p += (x & p).count_ones();
        all += x.count_ones();
    }
    (in_p as usize, (all - in_p) as usize)
}

/// `|cov ∧ rows|`.
fn count(cov: &[u64], rows: impl Iterator<Item = u64>) -> usize {
    cov.iter()
        .zip(rows)
        .map(|(&c, k)| (c & k).count_ones() as usize)
        .sum()
}

/// Incrementally maintained Eq. 5–7 state for the selected ruleset, with
/// O(classes × words) candidate previews instead of full recomputation.
struct RulesetState<'a> {
    protected: &'a Mask,
    n_rows: usize,
    n_protected: usize,
    /// Per-row best overall utility (NEG_INFINITY = uncovered), and the
    /// covered rows by that value.
    best: Classes,
    /// Per-row worst protected utility (INFINITY = unreached), and the rows
    /// some committed rule's protected coverage reached by that value.
    worst: Classes,
    sum_best_protected: f64,
    sum_best_non_protected: f64,
    sum_worst_protected: f64,
    n_cov_protected: usize,
    n_cov_non_protected: usize,
}

impl<'a> RulesetState<'a> {
    fn new(n_rows: usize, protected: &'a Mask) -> Self {
        RulesetState {
            protected,
            n_rows,
            n_protected: protected.count(),
            best: Classes::new(n_rows, f64::NEG_INFINITY),
            worst: Classes::new(n_rows, f64::INFINITY),
            sum_best_protected: 0.0,
            sum_best_non_protected: 0.0,
            sum_worst_protected: 0.0,
            n_cov_protected: 0,
            n_cov_non_protected: 0,
        }
    }

    fn summary_from(
        &self,
        sum_best_p: f64,
        sum_best_np: f64,
        sum_worst_p: f64,
        n_cov_p: usize,
        n_cov_np: usize,
    ) -> RulesetUtility {
        let expected = (sum_best_p + sum_best_np) / self.n_rows.max(1) as f64;
        let expected_protected = if n_cov_p > 0 {
            sum_worst_p / n_cov_p as f64
        } else {
            0.0
        };
        let expected_non_protected = if n_cov_np > 0 {
            sum_best_np / n_cov_np as f64
        } else {
            0.0
        };
        RulesetUtility {
            expected,
            expected_protected,
            expected_non_protected,
            coverage: (n_cov_p + n_cov_np) as f64 / self.n_rows.max(1) as f64,
            coverage_protected: if self.n_protected > 0 {
                n_cov_p as f64 / self.n_protected as f64
            } else {
                0.0
            },
            unfairness: expected_non_protected - expected_protected,
        }
    }

    /// Current summary.
    fn summary(&self) -> RulesetUtility {
        self.summary_from(
            self.sum_best_protected,
            self.sum_best_non_protected,
            self.sum_worst_protected,
            self.n_cov_protected,
            self.n_cov_non_protected,
        )
    }

    /// Summary if `rule` were added, without mutating state.
    fn preview(&self, rule: &Rule) -> RulesetUtility {
        let (d_bp, d_bnp, d_wp, d_cp, d_cnp) = self.deltas(rule);
        self.summary_from(
            self.sum_best_protected + d_bp,
            self.sum_best_non_protected + d_bnp,
            self.sum_worst_protected + d_wp,
            self.n_cov_protected + d_cp,
            self.n_cov_non_protected + d_cnp,
        )
    }

    /// Add `rule` to the state. The sums take one term per row the rule
    /// improves, added in row order (protected and non-protected rows feed
    /// separate sums), so a selection's summary does not depend on how its
    /// previews were scored.
    fn commit(&mut self, rule: &Rule) {
        let u = rule.utility.overall;
        let up = rule.utility.protected;
        let p = self.protected.as_words();
        let gains = self.best.gains(rule.coverage.as_words(), |b| u > b);
        let unreached = self.best.reached.iter().map(|r| !r);
        let (new_p, new_np) = count_split(&gains, unreached, p);
        self.n_cov_protected += new_p;
        self.n_cov_non_protected += new_np;
        let in_p = gains.iter().zip(p).map(|(&g, &p)| g & p);
        self.best.add_terms(&mut self.sum_best_protected, in_p, u);
        let out_p = gains.iter().zip(p).map(|(&g, &p)| g & !p);
        self.best
            .add_terms(&mut self.sum_best_non_protected, out_p, u);
        self.best.commit(gains, u);

        let gains = self
            .worst
            .gains(rule.coverage_protected.as_words(), |w| up < w);
        let rows = gains.iter().copied();
        self.worst
            .add_terms(&mut self.sum_worst_protected, rows, up);
        self.worst.commit(gains, up);
    }

    /// Aggregate deltas from adding `rule`, without mutation, as
    /// `(Δ best protected, Δ best non-protected, Δ worst protected,
    /// newly covered protected, newly covered non-protected)`. Each class
    /// the rule improves adds `(value gap) · (rows of the class it
    /// covers)`. The counts are exact; the sums lie within the module
    /// docs' bound of the row-order sums [`commit`](Self::commit) adds.
    fn deltas(&self, rule: &Rule) -> (f64, f64, f64, usize, usize) {
        let u = rule.utility.overall;
        let up = rule.utility.protected;
        let cov = rule.coverage.as_words();
        let p = self.protected.as_words();
        let best = &self.best;
        let (d_cp, d_cnp) = count_split(cov, best.reached.iter().map(|r| !r), p);
        let (mut d_bp, mut d_bnp) = (0.0, 0.0);
        add_scaled(&mut d_bp, d_cp, u);
        add_scaled(&mut d_bnp, d_cnp, u);
        for class in best.classes.iter().filter(|k| u > k.value) {
            let (cp, cnp) = count_split(cov, class.rows.iter().copied(), p);
            add_scaled(&mut d_bp, cp, u - class.value);
            add_scaled(&mut d_bnp, cnp, u - class.value);
        }
        let cov_p = rule.coverage_protected.as_words();
        let worst = &self.worst;
        let mut d_wp = 0.0;
        let fresh = count(cov_p, worst.reached.iter().map(|r| !r));
        add_scaled(&mut d_wp, fresh, up);
        for class in worst.classes.iter().filter(|k| up < k.value) {
            let n = count(cov_p, class.rows.iter().copied());
            add_scaled(&mut d_wp, n, up - class.value);
        }
        (d_bp, d_bnp, d_wp, d_cp, d_cnp)
    }
}

/// Pre-filter and order the candidate pool, and compute the utility
/// normalizer — shared verbatim by the lazy and reference selectors so both
/// see the same indices and floating-point inputs.
///
/// # Panics
/// Panics unless `protected` and every candidate's `coverage` and
/// `coverage_protected` range over `n_rows` rows: the class previews zip
/// their words and would silently drop the rows of a longer mask.
fn prepare(
    mut candidates: Vec<Rule>,
    config: &FairCapConfig,
    n_rows: usize,
    protected: &Mask,
) -> (Vec<Rule>, f64) {
    assert_eq!(protected.len(), n_rows, "protected mask length != n_rows");
    for r in &candidates {
        assert!(
            r.coverage.len() == n_rows && r.coverage_protected.len() == n_rows,
            "rule {r}: coverage masks of {} and {} rows, expected {n_rows}",
            r.coverage.len(),
            r.coverage_protected.len()
        );
    }
    let n_protected = protected.count();
    // Matroid-style pre-filters: individual fairness + rule coverage +
    // positive utility (Definition 4.4's "discard rules with negative
    // utility").
    candidates.retain(|r| {
        r.utility.overall > 0.0
            && rule_satisfies_fairness(r, &config.fairness)
            && rule_satisfies_coverage(r, &config.coverage, n_rows, n_protected)
    });
    // Deterministic processing order.
    candidates.sort_by(|a, b| (&a.grouping, &a.intervention).cmp(&(&b.grouping, &b.intervention)));

    let u_norm = candidates
        .iter()
        .map(|r| r.utility.overall)
        .fold(0.0f64, f64::max)
        .max(f64::MIN_POSITIVE);
    (candidates, u_norm)
}

/// Marginal score of adding `rule` to `state`, plus the previewed summary —
/// one shared implementation so lazy and eager selection are bit-identical.
fn score_candidate(
    state: &RulesetState<'_>,
    current: &RulesetUtility,
    coverage_unmet: bool,
    rule: &Rule,
    u_norm: f64,
) -> (f64, RulesetUtility) {
    let preview = state.preview(rule);
    let mut score = 0.0;
    if coverage_unmet {
        score += (preview.coverage - current.coverage)
            + (preview.coverage_protected - current.coverage_protected);
    }
    score += (preview.expected - current.expected) / u_norm;
    score += rule.benefit / u_norm * 0.1; // quality tie-break term
    (score, preview)
}

/// Final validity check and outcome assembly shared by both selectors.
fn finish(
    state: &RulesetState<'_>,
    selected: Vec<Rule>,
    config: &FairCapConfig,
    n_rows: usize,
    n_protected: usize,
) -> GreedyOutcome {
    let summary = state.summary();
    let refs: Vec<&Rule> = selected.iter().collect();
    let constraints_met = crate::constraints::solution_is_valid(
        &refs,
        &summary,
        &config.fairness,
        &config.coverage,
        n_rows,
        n_protected,
    );
    GreedyOutcome {
        selected,
        summary,
        constraints_met,
    }
}

/// A heap entry: a candidate under its most recent score. Ordered by
/// `(score, lowest index first)` so the heap top reproduces the eager
/// scan's strict-`>` winner (first index among score ties).
struct HeapEntry {
    score: f64,
    idx: usize,
    /// Round the score was computed in; `u64::MAX` = never evaluated.
    round: u64,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.idx == other.idx
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.score
            .total_cmp(&other.score)
            .then_with(|| other.idx.cmp(&self.idx))
    }
}

/// Run the greedy selection over candidate rules (lazy / CELF evaluation;
/// selections bit-identical to [`reference::greedy_select`]).
pub fn greedy_select(
    candidates: Vec<Rule>,
    config: &FairCapConfig,
    n_rows: usize,
    protected: &Mask,
) -> GreedyOutcome {
    greedy_select_with_stats(candidates, config, n_rows, protected).0
}

/// [`greedy_select`] plus the [`GreedyStats`] work counters.
pub fn greedy_select_with_stats(
    candidates: Vec<Rule>,
    config: &FairCapConfig,
    n_rows: usize,
    protected: &Mask,
) -> (GreedyOutcome, GreedyStats) {
    let (candidates, u_norm) = prepare(candidates, config, n_rows, protected);
    let n_protected = protected.count();

    let mut state = RulesetState::new(n_rows, protected);
    let mut selected: Vec<Rule> = Vec::new();
    let mut stats = GreedyStats::default();

    // Everything starts stale at +∞ so the first round evaluates on demand.
    let mut heap: BinaryHeap<HeapEntry> = (0..candidates.len())
        .map(|idx| HeapEntry {
            score: f64::INFINITY,
            idx,
            round: u64::MAX,
        })
        .collect();

    let mut round: u64 = 0;
    while selected.len() < config.max_rules && !heap.is_empty() {
        stats.rounds += 1;
        let current = state.summary();
        let coverage_unmet = !summary_satisfies_coverage(&current, &config.coverage);
        // Fairness-invalid candidates are parked here for the round —
        // validity is not monotone, so they get retried in later rounds
        // (their fresh score is still a valid upper bound).
        let mut parked: Vec<HeapEntry> = Vec::new();
        let mut chosen: Option<HeapEntry> = None;
        while let Some(mut top) = heap.pop() {
            if top.round == round {
                // Fresh and fairness-valid: every other entry's cached score
                // is an upper bound ≤ this key, so this is the exact argmax.
                chosen = Some(top);
                break;
            }
            let (score, preview) = score_candidate(
                &state,
                &current,
                coverage_unmet,
                &candidates[top.idx],
                u_norm,
            );
            stats.evaluations += 1;
            if top.round != u64::MAX {
                stats.reevaluations += 1;
            }
            top.score = score;
            top.round = round;
            // Group-scope fairness is enforced invariantly: every
            // intermediate set (hence the final one) must satisfy it, using
            // exactly the same predicate as the final validity check.
            if summary_satisfies_fairness(&preview, &config.fairness) {
                heap.push(top);
            } else {
                parked.push(top);
            }
        }
        heap.extend(parked);
        let Some(top) = chosen else {
            break; // no valid candidate remains
        };
        // Stop when the marginal gain is negligible — unless coverage
        // constraints still need rules.
        if !coverage_unmet && top.score < config.min_marginal_gain {
            break;
        }
        state.commit(&candidates[top.idx]);
        selected.push(candidates[top.idx].clone());
        round += 1;
    }

    (finish(&state, selected, config, n_rows, n_protected), stats)
}

/// The eager selection loop, kept verbatim as the correctness oracle for
/// the lazy selector: it rescans every unused candidate each round.
/// `tests/prop_greedy_celf.rs` asserts [`greedy_select`] reproduces its
/// selections (order included) on arbitrary pools and constraint mixes.
pub mod reference {
    use super::*;

    /// Run the eager greedy selection over candidate rules.
    pub fn greedy_select(
        candidates: Vec<Rule>,
        config: &FairCapConfig,
        n_rows: usize,
        protected: &Mask,
    ) -> GreedyOutcome {
        let (candidates, u_norm) = prepare(candidates, config, n_rows, protected);
        let n_protected = protected.count();

        let mut state = RulesetState::new(n_rows, protected);
        let mut selected: Vec<Rule> = Vec::new();
        let mut used = vec![false; candidates.len()];

        while selected.len() < config.max_rules {
            let current = state.summary();
            let coverage_unmet = !summary_satisfies_coverage(&current, &config.coverage);
            let mut best_idx: Option<usize> = None;
            let mut best_score = f64::NEG_INFINITY;
            for (idx, rule) in candidates.iter().enumerate() {
                if used[idx] {
                    continue;
                }
                let (score, preview) =
                    score_candidate(&state, &current, coverage_unmet, rule, u_norm);
                if !summary_satisfies_fairness(&preview, &config.fairness) {
                    continue;
                }
                if score > best_score {
                    best_score = score;
                    best_idx = Some(idx);
                }
            }
            let Some(idx) = best_idx else {
                break; // no valid candidate remains
            };
            if !coverage_unmet && best_score < config.min_marginal_gain {
                break;
            }
            state.commit(&candidates[idx]);
            used[idx] = true;
            selected.push(candidates[idx].clone());
        }

        finish(&state, selected, config, n_rows, n_protected)
    }
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)] // config tweaking reads better imperatively
mod tests {
    use super::*;
    use crate::config::{CoverageConstraint, FairnessConstraint, FairnessScope};
    use crate::rule::RuleUtility;
    use crate::utility::ruleset_utility;
    use faircap_table::{Pattern, Value};
    use proptest::prelude::*;

    fn rule(tag: &str, cov: &[usize], cov_p: &[usize], overall: f64, prot: f64, np: f64) -> Rule {
        Rule {
            grouping: Pattern::of_eq(&[("g", tag.into())]),
            intervention: Pattern::of_eq(&[("t", tag.into())]),
            coverage: Mask::from_indices(20, cov),
            coverage_protected: Mask::from_indices(20, cov_p),
            utility: RuleUtility {
                overall,
                protected: prot,
                non_protected: np,
                p_value: 0.001,
            },
            benefit: overall,
        }
    }

    /// rows 0..5 protected.
    fn protected() -> Mask {
        Mask::from_indices(20, &[0, 1, 2, 3, 4])
    }

    #[test]
    fn incremental_state_matches_batch_computation() {
        let p = protected();
        let rules = vec![
            rule("a", &[0, 1, 5, 6, 7], &[0, 1], 10.0, 4.0, 12.0),
            rule("b", &[1, 2, 7, 8], &[1, 2], 20.0, 9.0, 22.0),
            rule("c", &[3, 9, 10, 11], &[3], 5.0, 5.0, 5.0),
        ];
        let mut state = RulesetState::new(20, &p);
        for r in &rules {
            // preview must equal committing on a copy
            let preview = state.preview(r);
            state.commit(r);
            let direct = state.summary();
            assert!((preview.expected - direct.expected).abs() < 1e-12);
            assert!((preview.expected_protected - direct.expected_protected).abs() < 1e-12);
            assert!((preview.coverage - direct.coverage).abs() < 1e-12);
        }
        // final state must equal the batch Eq. 5–7 computation
        let refs: Vec<&Rule> = rules.iter().collect();
        let batch = ruleset_utility(&refs, 20, &p);
        let inc = state.summary();
        assert!((batch.expected - inc.expected).abs() < 1e-12);
        assert!((batch.expected_protected - inc.expected_protected).abs() < 1e-12);
        assert!((batch.expected_non_protected - inc.expected_non_protected).abs() < 1e-12);
        assert!((batch.coverage - inc.coverage).abs() < 1e-12);
        assert!((batch.unfairness - inc.unfairness).abs() < 1e-12);
    }

    #[test]
    fn greedy_prefers_high_utility() {
        let cfg = FairCapConfig::default();
        let candidates = vec![
            rule("low", &[0, 1, 5, 6], &[0, 1], 2.0, 2.0, 2.0),
            rule("high", &[2, 3, 7, 8], &[2, 3], 50.0, 45.0, 52.0),
        ];
        let out = greedy_select(candidates, &cfg, 20, &protected());
        assert!(!out.selected.is_empty());
        assert_eq!(out.selected[0].grouping.to_string(), "g = high");
    }

    #[test]
    fn negative_utility_rules_dropped() {
        let cfg = FairCapConfig::default();
        let candidates = vec![rule("neg", &[0, 1, 5], &[0], -3.0, -3.0, -3.0)];
        let out = greedy_select(candidates, &cfg, 20, &protected());
        assert!(out.selected.is_empty());
    }

    #[test]
    fn group_coverage_forces_more_rules() {
        let mut cfg = FairCapConfig::default();
        cfg.min_marginal_gain = 10.0; // would stop immediately without coverage pressure
        cfg.coverage = CoverageConstraint::Group {
            theta: 0.5,
            theta_protected: 0.0,
        };
        let candidates = vec![
            rule(
                "a",
                &(0..6).collect::<Vec<_>>(),
                &[0, 1, 2],
                10.0,
                10.0,
                10.0,
            ),
            rule("b", &(6..12).collect::<Vec<_>>(), &[], 9.0, 0.0, 9.0),
            rule("c", &(12..18).collect::<Vec<_>>(), &[], 8.0, 0.0, 8.0),
        ];
        let out = greedy_select(candidates, &cfg, 20, &protected());
        // needs ≥ 10 of 20 rows covered → at least two rules
        assert!(out.selected.len() >= 2, "selected {}", out.selected.len());
        assert!(out.summary.coverage >= 0.5);
        assert!(out.constraints_met);
    }

    #[test]
    fn group_sp_blocks_unfair_additions() {
        let mut cfg = FairCapConfig::default();
        cfg.fairness = FairnessConstraint::StatisticalParity {
            scope: FairnessScope::Group,
            epsilon: 3.0,
        };
        let candidates = vec![
            // fair rule
            rule("fair", &[0, 1, 5, 6], &[0, 1], 10.0, 9.0, 11.0),
            // very unfair rule on disjoint rows — would blow the ruleset gap
            rule("unfair", &[2, 3, 8, 9], &[2, 3], 40.0, 5.0, 42.0),
        ];
        let out = greedy_select(candidates, &cfg, 20, &protected());
        assert!(out.constraints_met);
        assert!(
            (out.summary.expected_non_protected - out.summary.expected_protected).abs() <= 3.0,
            "unfairness {} must be ≤ ε",
            out.summary.unfairness
        );
        assert!(out
            .selected
            .iter()
            .all(|r| r.grouping.to_string() != "g = unfair"));
    }

    #[test]
    fn group_bgl_enforced() {
        let mut cfg = FairCapConfig::default();
        cfg.fairness = FairnessConstraint::BoundedGroupLoss {
            scope: FairnessScope::Group,
            tau: 8.0,
        };
        let candidates = vec![
            rule("good", &[0, 1, 5, 6], &[0, 1], 12.0, 9.0, 13.0),
            // protected utility 2 < τ — adding it would sink ExpUtility_p
            rule("bad", &[0, 1, 2, 7], &[0, 1, 2], 30.0, 2.0, 33.0),
        ];
        let out = greedy_select(candidates, &cfg, 20, &protected());
        assert!(out.summary.expected_protected >= 8.0);
        assert!(out
            .selected
            .iter()
            .all(|r| r.grouping.to_string() != "g = bad"));
    }

    #[test]
    fn max_rules_cap_respected() {
        let mut cfg = FairCapConfig::default();
        cfg.max_rules = 2;
        cfg.min_marginal_gain = 0.0;
        let candidates: Vec<Rule> = (0..5)
            .map(|i| {
                rule(
                    &format!("r{i}"),
                    &[i, i + 5, i + 10],
                    &[i],
                    10.0 + i as f64,
                    10.0,
                    10.0,
                )
            })
            .collect();
        let out = greedy_select(candidates, &cfg, 20, &protected());
        assert_eq!(out.selected.len(), 2);
    }

    #[test]
    fn deterministic_selection() {
        let cfg = FairCapConfig::default();
        let mk = || {
            vec![
                rule("a", &[0, 5, 6], &[0], 10.0, 10.0, 10.0),
                rule("b", &[1, 7, 8], &[1], 10.0, 10.0, 10.0),
                rule("c", &[2, 9, 10], &[2], 10.0, 10.0, 10.0),
            ]
        };
        let o1 = greedy_select(mk(), &cfg, 20, &protected());
        let o2 = greedy_select(mk(), &cfg, 20, &protected());
        let s1: Vec<String> = o1.selected.iter().map(|r| r.to_string()).collect();
        let s2: Vec<String> = o2.selected.iter().map(|r| r.to_string()).collect();
        assert_eq!(s1, s2);
    }

    /// The oracle of [`RulesetState`]: per-row arrays and sums that commits
    /// update, and deltas that previews sum, by a walk over every covered
    /// row.
    struct RowWalk {
        protected: Mask,
        best: Vec<f64>,
        worst: Vec<f64>,
        /// Best protected, best non-protected, worst protected.
        sums: [f64; 3],
        /// Covered protected, covered non-protected.
        covered: [usize; 2],
    }

    impl RowWalk {
        fn new(protected: &Mask) -> Self {
            RowWalk {
                protected: protected.clone(),
                best: vec![f64::NEG_INFINITY; protected.len()],
                worst: vec![f64::INFINITY; protected.len()],
                sums: [0.0; 3],
                covered: [0; 2],
            }
        }

        /// The terms adding `rule` contributes, in row order, per sum (best
        /// protected, best non-protected, worst protected), each with
        /// whether its row is newly reached.
        fn terms(&self, rule: &Rule) -> [Vec<(f64, bool)>; 3] {
            let u = rule.utility.overall;
            let up = rule.utility.protected;
            let mut terms = [Vec::new(), Vec::new(), Vec::new()];
            for i in rule.coverage.iter_ones() {
                let k = usize::from(!self.protected.get(i));
                if self.best[i] == f64::NEG_INFINITY {
                    terms[k].push((u, true));
                } else if u > self.best[i] {
                    terms[k].push((u - self.best[i], false));
                }
            }
            for i in rule.coverage_protected.iter_ones() {
                if self.worst[i] == f64::INFINITY {
                    terms[2].push((up, true));
                } else if up < self.worst[i] {
                    terms[2].push((up - self.worst[i], false));
                }
            }
            terms
        }

        /// [`RulesetState::deltas`] as the row walk sums them.
        fn deltas(&self, rule: &Rule) -> (f64, f64, f64, usize, usize) {
            let [p, np, w] = self.terms(rule);
            let sum = |t: &[(f64, bool)]| t.iter().fold(0.0, |acc, &(x, _)| acc + x);
            let new = |t: &[(f64, bool)]| t.iter().filter(|&&(_, new)| new).count();
            (sum(&p), sum(&np), sum(&w), new(&p), new(&np))
        }

        /// The module docs' bound on |class Δ − row Δ| for each float
        /// delta: `(n + m) · ε · Σ|tᵢ|` over the `n` row terms `tᵢ`, with
        /// `m` one more than the number of classes of that sum's kind.
        fn bounds(&self, rule: &Rule, state: &RulesetState<'_>) -> [f64; 3] {
            let terms = self.terms(rule);
            let m = [&state.best, &state.best, &state.worst].map(|c| c.classes.len() + 1);
            [0, 1, 2].map(|k| {
                let abs: f64 = terms[k].iter().map(|(x, _)| x.abs()).sum();
                (terms[k].len() + m[k]) as f64 * f64::EPSILON * abs
            })
        }

        fn commit(&mut self, rule: &Rule) {
            let u = rule.utility.overall;
            let up = rule.utility.protected;
            for i in rule.coverage.iter_ones() {
                let k = usize::from(!self.protected.get(i));
                if self.best[i] == f64::NEG_INFINITY {
                    self.covered[k] += 1;
                    self.sums[k] += u;
                    self.best[i] = u;
                } else if u > self.best[i] {
                    self.sums[k] += u - self.best[i];
                    self.best[i] = u;
                }
            }
            for i in rule.coverage_protected.iter_ones() {
                if self.worst[i] == f64::INFINITY {
                    self.worst[i] = up;
                    self.sums[2] += up;
                } else if up < self.worst[i] {
                    self.sums[2] += up - self.worst[i];
                    self.worst[i] = up;
                }
            }
        }

        /// Sums, counts and per-row values all equal `state`'s, bit for bit.
        fn check(&self, state: &RulesetState<'_>) -> Result<(), TestCaseError> {
            let sums = [
                state.sum_best_protected,
                state.sum_best_non_protected,
                state.sum_worst_protected,
            ];
            prop_assert_eq!(sums.map(f64::to_bits), self.sums.map(f64::to_bits), "sums");
            let covered = [state.n_cov_protected, state.n_cov_non_protected];
            prop_assert_eq!(covered, self.covered, "covered counts");
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&state.best.values), bits(&self.best), "best");
            prop_assert_eq!(bits(&state.worst.values), bits(&self.worst), "worst");
            Ok(())
        }
    }

    /// The classes partition the reached rows, every class is non-empty,
    /// and each row's class value is the value `values` holds for it; a
    /// row is reached exactly when its value is not `unreached`.
    fn check_partition(classes: &Classes, commits: usize) -> Result<(), TestCaseError> {
        prop_assert!(
            classes.classes.len() <= commits,
            "more classes than commits"
        );
        let mut union = vec![0u64; classes.reached.len()];
        for class in &classes.classes {
            prop_assert!(class.rows.iter().any(|&w| w != 0), "an empty class is kept");
            for (u, &k) in union.iter_mut().zip(&class.rows) {
                prop_assert_eq!(*u & k, 0, "classes overlap");
                *u |= k;
            }
        }
        prop_assert_eq!(
            &union,
            &classes.reached,
            "the classes' union is not `reached`"
        );
        let bit = |words: &[u64], i: usize| (words[i / 64] >> (i % 64)) & 1 == 1;
        for (i, &v) in classes.values.iter().enumerate() {
            let reached = bit(&classes.reached, i);
            prop_assert_eq!(
                reached,
                v != classes.unreached,
                "row {} reached ≠ its value {}",
                i,
                v
            );
            if let Some(class) = classes.classes.iter().find(|k| bit(&k.rows, i)) {
                prop_assert_eq!(class.value.to_bits(), v.to_bits(), "row {} class value", i);
            }
        }
        Ok(())
    }

    /// A frame of 1..=200 rows with random protection, a pool of rules on
    /// it, and a commit sequence of pool indices (repeats allowed).
    /// Integer-valued utilities make every sum exact.
    fn commit_case(integer: bool) -> impl Strategy<Value = (Mask, Vec<Rule>, Vec<usize>)> {
        (1usize..=200, 1usize..8)
            .prop_flat_map(move |(n, k)| {
                let utility = move || -> BoxedStrategy<f64> {
                    if integer {
                        (-20i64..50).prop_map(|v| v as f64).boxed()
                    } else {
                        (-20.0f64..50.0).boxed()
                    }
                };
                let rule = (
                    prop::collection::vec(any::<bool>(), n),
                    utility(),
                    utility(),
                );
                (
                    prop::collection::vec(any::<bool>(), n),
                    prop::collection::vec(rule, k),
                    prop::collection::vec(0..k, 0..12),
                )
            })
            .prop_map(|(p, pool, seq)| {
                let protected = Mask::from_bools(&p);
                let rules = pool
                    .into_iter()
                    .enumerate()
                    .map(|(i, (cov, overall, prot))| {
                        let coverage = Mask::from_bools(&cov);
                        Rule {
                            grouping: Pattern::of_eq(&[("g", Value::Int(i as i64))]),
                            intervention: Pattern::of_eq(&[("t", Value::Int(i as i64))]),
                            coverage_protected: &coverage & &protected,
                            coverage,
                            utility: RuleUtility {
                                overall,
                                protected: prot,
                                non_protected: overall,
                                p_value: 0.01,
                            },
                            benefit: overall,
                        }
                    })
                    .collect();
                (protected, rules, seq)
            })
    }

    /// Commit `seq` one rule at a time; before each commit and after the
    /// last, every pool rule's class deltas must match the row walk's —
    /// counts exactly, sums within the bound or (`exact`) bit for bit —
    /// both class sets must partition their rows, and the committed state
    /// must equal the row walk's bit for bit.
    fn check_against_row_walk(
        (protected, rules, seq): &(Mask, Vec<Rule>, Vec<usize>),
        exact: bool,
    ) -> Result<(), TestCaseError> {
        let mut state = RulesetState::new(protected.len(), protected);
        let mut walk = RowWalk::new(protected);
        for step in 0..=seq.len() {
            walk.check(&state)?;
            check_partition(&state.best, step)?;
            check_partition(&state.worst, step)?;
            for rule in rules {
                let class = state.deltas(rule);
                let row = walk.deltas(rule);
                prop_assert_eq!((class.3, class.4), (row.3, row.4), "covered counts");
                let bounds = walk.bounds(rule, &state);
                for (name, c, r, bound) in [
                    ("best protected", class.0, row.0, bounds[0]),
                    ("best non-protected", class.1, row.1, bounds[1]),
                    ("worst protected", class.2, row.2, bounds[2]),
                ] {
                    if exact {
                        prop_assert_eq!(c.to_bits(), r.to_bits(), "Δ {}: {} vs {}", name, c, r);
                    } else {
                        prop_assert!(
                            (c - r).abs() <= bound,
                            "Δ {}: |{} − {}| exceeds the bound {}",
                            name,
                            c,
                            r,
                            bound
                        );
                    }
                }
            }
            if let Some(&i) = seq.get(step) {
                state.commit(&rules[i]);
                walk.commit(&rules[i]);
            }
        }
        Ok(())
    }

    proptest! {
        #[test]
        fn class_deltas_stay_within_the_bound_of_the_row_walk(case in commit_case(false)) {
            check_against_row_walk(&case, false)?;
        }

        #[test]
        fn class_deltas_equal_the_row_walk_on_integer_utilities(case in commit_case(true)) {
            check_against_row_walk(&case, true)?;
        }
    }

    #[test]
    fn a_class_the_rule_misses_adds_no_term() {
        let p = protected();
        let mut state = RulesetState::new(20, &p);
        let mut walk = RowWalk::new(&p);
        let a = rule("a", &[0, 5], &[0], 1.0, 5.0, 1.0);
        state.commit(&a);
        walk.commit(&a);
        // Improves on both of a's classes but covers none of their rows:
        // `0 · ∞` would turn the infinite sums into NaN.
        let r = rule("b", &[1, 6], &[1], f64::INFINITY, f64::NEG_INFINITY, 0.0);
        let class = state.deltas(&r);
        let row = walk.deltas(&r);
        assert_eq!(
            (class.0, class.1, class.2),
            (f64::INFINITY, f64::INFINITY, f64::NEG_INFINITY)
        );
        assert_eq!((class.0, class.1, class.2), (row.0, row.1, row.2));
        assert_eq!((class.3, class.4), (row.3, row.4));
    }

    #[test]
    #[should_panic(expected = "coverage masks")]
    fn a_coverage_mask_of_another_length_is_refused() {
        let mut short = rule("a", &[0, 5], &[0], 10.0, 10.0, 10.0);
        short.coverage = Mask::from_indices(19, &[0, 5]);
        greedy_select_with_stats(vec![short], &FairCapConfig::default(), 20, &protected());
    }

    #[test]
    #[should_panic(expected = "protected mask length")]
    fn a_protected_mask_of_another_length_is_refused() {
        greedy_select_with_stats(Vec::new(), &FairCapConfig::default(), 21, &protected());
    }
}
