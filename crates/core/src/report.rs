//! Solution reports: the rows of the paper's Tables 4–6.

use crate::algorithm::greedy::GreedyStats;
use crate::exec::ExecStats;
use crate::rule::Rule;
use crate::utility::RulesetUtility;
use faircap_mining::MiningStats;
use std::fmt;
use std::time::Duration;

/// Wall-clock time per algorithm step (the series of the paper's Figure 3).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StepTimings {
    /// Step 1 — grouping-pattern mining.
    pub grouping: Duration,
    /// Step 2 — intervention mining (dominant in the paper's Figure 3).
    pub intervention: Duration,
    /// Step 3 — greedy selection.
    pub greedy: Duration,
}

impl StepTimings {
    /// Total across the three steps.
    pub fn total(&self) -> Duration {
        self.grouping + self.intervention + self.greedy
    }

    /// Add another solve's step times to these.
    pub fn merge(&mut self, other: &StepTimings) {
        self.grouping += other.grouping;
        self.intervention += other.intervention;
        self.greedy += other.greedy;
    }
}

/// Work accounting of one solve, in the spirit of the causal engine's
/// `HotStats`: how many candidates each step generated, pruned, and
/// actually paid for, and how much of Step 2 was served from the session's
/// intervention cache. All counters describe work performed **by this
/// solve** — a fully cached warm re-solve reports zero mining work.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolveStats {
    /// Step-1 Apriori candidate pipeline (zero when the grouping cache
    /// served the request).
    pub grouping: MiningStats,
    /// Step-2 lattice pipeline, merged over the groups evaluated from
    /// scratch this solve.
    pub lattice: MiningStats,
    /// Step-3 lazy-greedy work counters.
    pub greedy: GreedyStats,
    /// Groups whose phase-1 evaluation came from the intervention cache.
    pub intervention_cache_hits: u64,
    /// Groups evaluated from scratch (and inserted into the cache).
    pub intervention_cache_misses: u64,
}

impl SolveStats {
    /// Add another solve's counters to these.
    pub fn merge(&mut self, other: &SolveStats) {
        self.grouping.merge(&other.grouping);
        self.lattice.merge(&other.lattice);
        self.greedy.evaluations += other.greedy.evaluations;
        self.greedy.reevaluations += other.greedy.reevaluations;
        self.greedy.rounds += other.greedy.rounds;
        self.intervention_cache_hits += other.intervention_cache_hits;
        self.intervention_cache_misses += other.intervention_cache_misses;
    }
}

/// The result of one FairCap run.
#[derive(Debug, Clone)]
pub struct SolutionReport {
    /// Constraint-combination label (Table 4 row name).
    pub label: String,
    /// Selected prescription rules, in selection order.
    pub rules: Vec<Rule>,
    /// Eq. 5–7 summary of the ruleset.
    pub summary: RulesetUtility,
    /// Whether the final set satisfies all constraints.
    pub constraints_met: bool,
    /// Number of grouping patterns mined in step 1.
    pub n_grouping_patterns: usize,
    /// Number of candidate rules entering step 3.
    pub n_candidates: usize,
    /// Per-step wall-clock times.
    pub timings: StepTimings,
    /// Per-step work counters (candidates generated / pruned / evaluated,
    /// greedy heap activity, intervention-cache traffic).
    pub stats: SolveStats,
    /// Step-2 executor statistics (tasks, steals, worker utilization).
    /// `None` when the solve ran the fan-out serially.
    pub exec: Option<ExecStats>,
}

impl SolutionReport {
    /// Number of selected rules.
    pub fn size(&self) -> usize {
        self.rules.len()
    }

    /// One row in the format of the paper's Table 4:
    /// `label | #rules | coverage | coverage_pro | exp_utility |
    /// exp_utility_non_pro | exp_utility_pro | unfairness`.
    pub fn table_row(&self) -> String {
        format!(
            "{:<46} {:>7} {:>9.2}% {:>9.2}% {:>12.2} {:>12.2} {:>12.2} {:>12.2}",
            self.label,
            self.size(),
            self.summary.coverage * 100.0,
            self.summary.coverage_protected * 100.0,
            self.summary.expected,
            self.summary.expected_non_protected,
            self.summary.expected_protected,
            self.summary.unfairness,
        )
    }

    /// Header matching [`Self::table_row`].
    pub fn table_header() -> String {
        format!(
            "{:<46} {:>7} {:>10} {:>10} {:>12} {:>12} {:>12} {:>12}",
            "setting",
            "#rules",
            "coverage",
            "cov pro",
            "exp utility",
            "exp non-pro",
            "exp pro",
            "unfairness",
        )
    }

    /// Rule cards in the style of the paper's Section 6 boxes.
    pub fn rule_cards(&self) -> String {
        let mut s = String::new();
        for (i, r) in self.rules.iter().enumerate() {
            s.push_str(&format!(
                "({}) For [{}]: set [{}]\n    exp utility protected: {:.2}, non-protected: {:.2}, overall: {:.2} (p={:.4})\n",
                i + 1,
                r.grouping,
                r.intervention,
                r.utility.protected,
                r.utility.non_protected,
                r.utility.overall,
                r.utility.p_value,
            ));
        }
        s
    }
}

impl fmt::Display for SolutionReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{}: {} rules, coverage {:.1}% ({:.1}% protected), exp utility {:.2} ({:.2} pro / {:.2} non-pro), unfairness {:.2}{}",
            self.label,
            self.size(),
            self.summary.coverage * 100.0,
            self.summary.coverage_protected * 100.0,
            self.summary.expected,
            self.summary.expected_protected,
            self.summary.expected_non_protected,
            self.summary.unfairness,
            if self.constraints_met { "" } else { "  [CONSTRAINTS NOT MET]" },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> SolutionReport {
        SolutionReport {
            label: "group SP + group cov".into(),
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
            stats: SolveStats::default(),
            exec: None,
        }
    }

    #[test]
    fn table_row_contains_all_metrics() {
        let row = report().table_row();
        assert!(row.contains("group SP"));
        assert!(row.contains("97.95%"));
        assert!(row.contains("27934.76"));
        assert!(row.contains("9999.35"));
        // header aligns with the same column count
        assert!(SolutionReport::table_header().split_whitespace().count() >= 8);
    }

    #[test]
    fn display_flags_unmet_constraints() {
        let mut r = report();
        assert!(!r.to_string().contains("NOT MET"));
        r.constraints_met = false;
        assert!(r.to_string().contains("CONSTRAINTS NOT MET"));
    }

    #[test]
    fn timings_total() {
        let t = report().timings;
        assert_eq!(t.total(), Duration::from_millis(925));
    }
}
