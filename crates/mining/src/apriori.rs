//! The Apriori algorithm over attribute–value items (Agrawal & Srikant 1994),
//! as used by FairCap's step 1 (§5.1) to mine grouping patterns.
//!
//! Items are equality predicates `attr = value`; itemsets are conjunctive
//! [`Pattern`]s with at most one item per attribute. The representation is
//! vertical: every itemset carries its cover as a [`Mask`], so candidate
//! support is one word-fused AND+popcount over the parents' bitsets
//! ([`Mask::intersect_count`]) — the support mask is only materialized for
//! candidates that actually meet the threshold. Candidate generation is the
//! classic sorted prefix join: the frontier is kept in pattern order, so
//! k-patterns sharing a (k−1)-prefix form contiguous blocks and each
//! (k+1)-candidate is generated exactly once from the unique pair of its
//! two lexicographically largest k-subsets.

use crate::item::single_attribute_items;
use crate::MiningStats;
use faircap_table::{DataFrame, Mask, Pattern, Result};
use std::collections::HashSet;

/// Configuration for [`apriori`].
#[derive(Debug, Clone, Copy)]
pub struct AprioriConfig {
    /// Minimum support as a fraction of `|within|` (the paper's τ, default
    /// 0.1 per §6 "Default parameters").
    pub min_support: f64,
    /// Maximum pattern length (number of predicates).
    pub max_len: usize,
    /// High-cardinality guard: per attribute, only the most frequent values
    /// become items (ties broken by value order for determinism).
    pub max_values_per_attr: usize,
}

impl Default for AprioriConfig {
    fn default() -> Self {
        AprioriConfig {
            min_support: 0.1,
            max_len: 3,
            max_values_per_attr: 24,
        }
    }
}

/// A frequent pattern together with its support mask.
#[derive(Debug, Clone)]
pub struct FrequentPattern {
    /// The conjunctive pattern.
    pub pattern: Pattern,
    /// Rows covered (full-frame mask, already intersected with `within`).
    pub support: Mask,
}

impl FrequentPattern {
    /// Support count.
    pub fn count(&self) -> usize {
        self.support.count()
    }
}

/// Mine all frequent patterns over `attrs` within the row set `within`.
///
/// Returns patterns of length 1..=`max_len`, each covering at least
/// `min_support · |within|` rows, ordered by (length, pattern) for
/// determinism.
pub fn apriori(
    df: &DataFrame,
    attrs: &[String],
    within: &Mask,
    config: &AprioriConfig,
) -> Result<Vec<FrequentPattern>> {
    apriori_with_stats(df, attrs, within, config).map(|(out, _)| out)
}

/// [`apriori`] plus [`MiningStats`] accounting of the candidate pipeline
/// (generated / parent-pruned / support-pruned / materialized).
pub fn apriori_with_stats(
    df: &DataFrame,
    attrs: &[String],
    within: &Mask,
    config: &AprioriConfig,
) -> Result<(Vec<FrequentPattern>, MiningStats)> {
    let base = within.count();
    let min_count = ((config.min_support * base as f64).ceil() as usize).max(1);
    let mut stats = MiningStats::default();

    // Level 1: single-attribute items.
    let items = single_attribute_items(df, attrs, within, config.max_values_per_attr)?;
    stats.candidates += items.len() as u64;
    let mut frontier: Vec<FrequentPattern> = items
        .into_iter()
        .filter(|(_, mask)| {
            let frequent = mask.count() >= min_count;
            if !frequent {
                stats.pruned_support += 1;
            }
            frequent
        })
        .map(|(pred, mask)| FrequentPattern {
            pattern: Pattern::new(vec![pred]),
            support: mask,
        })
        .collect();
    frontier.sort_by(|a, b| a.pattern.cmp(&b.pattern));
    stats.evaluated += frontier.len() as u64;

    let mut out: Vec<FrequentPattern> = frontier.clone();
    let mut level = 1;
    while level < config.max_len && frontier.len() > 1 {
        let frequent_keys: HashSet<&Pattern> = frontier.iter().map(|f| &f.pattern).collect();
        let mut next: Vec<FrequentPattern> = Vec::new();
        // The frontier is sorted, so k-patterns sharing their (k−1)-prefix
        // are contiguous; only same-prefix pairs can join, and each
        // candidate is produced by exactly one such pair.
        for_each_prefix_pair(
            &frontier,
            |f| &f.pattern,
            |a, b| {
                let Some(candidate) = join(&a.pattern, &b.pattern) else {
                    return;
                };
                stats.candidates += 1;
                // Apriori pruning: every (k−1)-subset must be frequent.
                if !candidate
                    .parents()
                    .iter()
                    .all(|p| frequent_keys.contains(p))
                {
                    stats.pruned_parent += 1;
                    return;
                }
                // Fused AND+popcount over the parents' words; the candidate's
                // support mask is materialized only past the threshold.
                if a.support.intersect_count(&b.support) < min_count {
                    stats.pruned_support += 1;
                    return;
                }
                stats.evaluated += 1;
                next.push(FrequentPattern {
                    pattern: candidate,
                    support: &a.support & &b.support,
                });
            },
        );
        next.sort_by(|a, b| a.pattern.cmp(&b.pattern));
        out.extend(next.iter().cloned());
        frontier = next;
        level += 1;
    }
    Ok((out, stats))
}

/// Invoke `f` on every pair of frontier entries whose patterns share their
/// length-(k−1) prefix. Entries must be sorted by pattern, which makes the
/// prefix blocks contiguous — candidate generation over all blocks is
/// linear in the frontier plus quadratic only *within* each block, instead
/// of quadratic over the whole frontier.
pub(crate) fn for_each_prefix_pair<'p, T>(
    sorted: &'p [T],
    pattern_of: impl Fn(&'p T) -> &'p Pattern,
    mut f: impl FnMut(&'p T, &'p T),
) {
    let mut block_start = 0;
    while block_start < sorted.len() {
        let prefix = {
            let p = pattern_of(&sorted[block_start]).predicates();
            &p[..p.len() - 1]
        };
        let mut block_end = block_start + 1;
        while block_end < sorted.len() {
            let p = pattern_of(&sorted[block_end]).predicates();
            if &p[..p.len() - 1] != prefix {
                break;
            }
            block_end += 1;
        }
        for i in block_start..block_end {
            for j in i + 1..block_end {
                f(&sorted[i], &sorted[j]);
            }
        }
        block_start = block_end;
    }
}

/// Join two k-patterns sharing all but their last predicate into a (k+1)
/// candidate; `None` when they disagree earlier, share an attribute in the
/// differing position, or have different lengths.
fn join(a: &Pattern, b: &Pattern) -> Option<Pattern> {
    let pa = a.predicates();
    let pb = b.predicates();
    if pa.len() != pb.len() || pa.is_empty() {
        return None;
    }
    let k = pa.len();
    if pa[..k - 1] != pb[..k - 1] {
        return None;
    }
    let (la, lb) = (&pa[k - 1], &pb[k - 1]);
    if la.attr == lb.attr {
        return None; // one item per attribute
    }
    Some(a.with(lb.clone()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use faircap_table::Value;

    fn df() -> DataFrame {
        // 12 rows; country ∈ {US×6, IN×4, DE×2}, student ∈ {yes×4, no×8}
        let countries: Vec<&str> = ["US"; 6]
            .into_iter()
            .chain(["IN"; 4])
            .chain(["DE"; 2])
            .collect();
        let students: Vec<&str> = (0..12)
            .map(|i| if i % 3 == 0 { "yes" } else { "no" })
            .collect();
        DataFrame::builder()
            .cat("country", &countries)
            .cat("student", &students)
            .float("salary", (0..12).map(|i| i as f64).collect())
            .build()
            .unwrap()
    }

    fn run(min_support: f64, max_len: usize) -> Vec<FrequentPattern> {
        let d = df();
        apriori(
            &d,
            &["country".into(), "student".into()],
            &Mask::ones(12),
            &AprioriConfig {
                min_support,
                max_len,
                max_values_per_attr: 10,
            },
        )
        .unwrap()
    }

    #[test]
    fn singletons_respect_threshold() {
        // min_support 0.25 → min_count 3: US(6), IN(4), no(8), yes(4). DE(2) out.
        let got = run(0.25, 1);
        let names: Vec<String> = got.iter().map(|f| f.pattern.to_string()).collect();
        assert!(names.contains(&"country = US".to_owned()));
        assert!(names.contains(&"country = IN".to_owned()));
        assert!(!names.iter().any(|n| n.contains("DE")));
        assert_eq!(got.len(), 4);
    }

    #[test]
    fn pairs_are_joined_correctly() {
        // min_count 2: pairs like US∧no (4 rows: indices 1,2,4,5).
        let got = run(2.0 / 12.0, 2);
        let us_no = got
            .iter()
            .find(|f| f.pattern.to_string() == "country = US ∧ student = no")
            .expect("US∧no should be frequent");
        assert_eq!(us_no.count(), 4);
        // support mask equals direct coverage
        let direct = us_no.pattern.coverage(&df()).unwrap();
        assert_eq!(us_no.support, direct);
    }

    #[test]
    fn no_two_items_same_attribute() {
        let got = run(0.05, 3);
        for f in &got {
            let attrs = f.pattern.attributes();
            let mut dedup = attrs.clone();
            dedup.dedup();
            assert_eq!(attrs.len(), dedup.len(), "pattern {}", f.pattern);
        }
    }

    #[test]
    fn downward_closure_holds() {
        // Every parent of a frequent pattern is itself frequent.
        let got = run(0.2, 3);
        let keys: HashSet<&Pattern> = got.iter().map(|f| &f.pattern).collect();
        for f in &got {
            if f.pattern.len() > 1 {
                for p in f.pattern.parents() {
                    assert!(keys.contains(&p), "parent {p} of {} missing", f.pattern);
                }
            }
        }
        // And support is monotone non-increasing with specialization.
        for f in got.iter().filter(|f| f.pattern.len() > 1) {
            for p in f.pattern.parents() {
                let parent = got.iter().find(|g| g.pattern == p).unwrap();
                assert!(parent.count() >= f.count());
            }
        }
    }

    #[test]
    fn within_restricts_the_universe() {
        let d = df();
        // Only the first 6 rows (all US).
        let within = Mask::from_indices(12, &(0..6).collect::<Vec<_>>());
        let got = apriori(
            &d,
            &["country".into()],
            &within,
            &AprioriConfig {
                min_support: 0.5,
                max_len: 1,
                max_values_per_attr: 10,
            },
        )
        .unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].pattern.to_string(), "country = US");
        assert_eq!(got[0].count(), 6);
    }

    #[test]
    fn max_len_caps_pattern_size() {
        for cap in 1..=3 {
            let got = run(0.05, cap);
            assert!(got.iter().all(|f| f.pattern.len() <= cap));
        }
    }

    #[test]
    fn numeric_attributes_make_items_when_low_cardinality() {
        let d = DataFrame::builder()
            .int("bucket", vec![1, 1, 1, 2, 2, 2])
            .build()
            .unwrap();
        let got = apriori(
            &d,
            &["bucket".into()],
            &Mask::ones(6),
            &AprioriConfig::default(),
        )
        .unwrap();
        assert_eq!(got.len(), 2);
        assert!(got
            .iter()
            .any(|f| f.pattern.predicates()[0].value == Value::Int(1)));
    }

    #[test]
    fn deterministic_output_order() {
        let a = run(0.1, 3);
        let b = run(0.1, 3);
        let pa: Vec<String> = a.iter().map(|f| f.pattern.to_string()).collect();
        let pb: Vec<String> = b.iter().map(|f| f.pattern.to_string()).collect();
        assert_eq!(pa, pb);
    }
}
