//! The Apriori algorithm over attribute–value items (Agrawal & Srikant 1994),
//! as used by FairCap's step 1 (§5.1) to mine grouping patterns.
//!
//! Items are equality predicates `attr = value`; itemsets are conjunctive
//! [`Pattern`]s with at most one item per attribute. Apriori is the
//! [`coded_lattice`] walk with a support gate: a node is kept when its
//! cover holds at least `min_support · |within|` rows, and every kept node
//! expands. The walk joins and prunes on item indices and carries each
//! node's cover as a [`Mask`] (a candidate's is its parents' word AND);
//! patterns are spelled out only for the nodes returned.

use crate::item::{single_attribute_items, MAX_VALUES_PER_ATTR};
use crate::lattice::coded_lattice;
use crate::MiningStats;
use faircap_table::{DataFrame, Mask, Pattern, Result};

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
            max_values_per_attr: MAX_VALUES_PER_ATTR,
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

/// [`apriori`] plus [`MiningStats`] accounting of the candidate pipeline:
/// candidates generated, pruned for an infrequent parent, pruned by the
/// support gate, and kept.
pub fn apriori_with_stats(
    df: &DataFrame,
    attrs: &[String],
    within: &Mask,
    config: &AprioriConfig,
) -> Result<(Vec<FrequentPattern>, MiningStats)> {
    let min_count = ((config.min_support * within.count() as f64).ceil() as usize).max(1);
    let mut items = single_attribute_items(df, attrs, within, config.max_values_per_attr)?;
    // In predicate order an item's index is its rank, so the walk returns
    // singletons, like longer nodes, in pattern order.
    items.sort_by(|a, b| a.0.cmp(&b.0));
    let (nodes, walk) = coded_lattice(
        &items,
        config.max_len,
        |_, mask| (mask.count() >= min_count).then_some(()),
        |_| true,
    );
    let kept = nodes.len() as u64;
    let stats = MiningStats {
        pruned_support: walk.evaluated - kept,
        evaluated: kept,
        ..walk
    };
    let frequent = nodes
        .into_iter()
        .map(|node| FrequentPattern {
            pattern: Pattern::new(
                node.items
                    .iter()
                    .map(|&i| items[i as usize].0.clone())
                    .collect(),
            ),
            support: node.mask,
        })
        .collect();
    Ok((frequent, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use faircap_table::Value;
    use proptest::prelude::*;
    use std::collections::HashSet;

    /// Apriori's own level loop over [`Pattern`]s, kept as the oracle of
    /// the [`coded_lattice`] gate: each level's frequent patterns sorted,
    /// every same-length pair joined when it differs only in its last
    /// predicate and on another attribute, a join pruned unless all its
    /// parents are frequent, and its support counted before its mask is
    /// built.
    fn apriori_oracle(
        df: &DataFrame,
        attrs: &[String],
        within: &Mask,
        config: &AprioriConfig,
    ) -> Result<(Vec<FrequentPattern>, MiningStats)> {
        let base = within.count();
        let min_count = ((config.min_support * base as f64).ceil() as usize).max(1);
        let mut stats = MiningStats::default();

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
            for (i, a) in frontier.iter().enumerate() {
                for b in &frontier[i + 1..] {
                    let (pa, pb) = (a.pattern.predicates(), b.pattern.predicates());
                    let k = pa.len();
                    if pa[..k - 1] != pb[..k - 1] || pa[k - 1].attr == pb[k - 1].attr {
                        continue;
                    }
                    let candidate = a.pattern.with(pb[k - 1].clone());
                    stats.candidates += 1;
                    if !candidate
                        .parents()
                        .iter()
                        .all(|p| frequent_keys.contains(p))
                    {
                        stats.pruned_parent += 1;
                        continue;
                    }
                    if a.support.intersect_count(&b.support) < min_count {
                        stats.pruned_support += 1;
                        continue;
                    }
                    stats.evaluated += 1;
                    next.push(FrequentPattern {
                        pattern: candidate,
                        support: &a.support & &b.support,
                    });
                }
            }
            next.sort_by(|a, b| a.pattern.cmp(&b.pattern));
            out.extend(next.iter().cloned());
            frontier = next;
            level += 1;
        }
        Ok((out, stats))
    }

    /// 10–120 rows over a 1–6-level categorical, a 1–5-valued int and a
    /// bool column (listed out of name order), a random `within`, τ and
    /// `max_len` in 1..=3, and an item cap that sometimes truncates.
    fn case_strategy() -> impl Strategy<Value = (DataFrame, Mask, AprioriConfig)> {
        (
            1u8..7,
            1i64..6,
            prop::collection::vec((0u8..6, 0i64..5, any::<bool>(), any::<bool>()), 10..120),
            0.0f64..0.6,
            1usize..4,
            2usize..8,
        )
            .prop_map(|(n_cat, n_int, rows, min_support, max_len, cap)| {
                let cats: Vec<String> = rows.iter().map(|r| format!("v{}", r.0 % n_cat)).collect();
                let cats: Vec<&str> = cats.iter().map(String::as_str).collect();
                let df = DataFrame::builder()
                    .int("z", rows.iter().map(|r| r.1 % n_int).collect())
                    .cat("c", &cats)
                    .bool("b", rows.iter().map(|r| r.2).collect())
                    .build()
                    .unwrap();
                let within: Vec<bool> = rows.iter().map(|r| r.3).collect();
                let config = AprioriConfig {
                    min_support,
                    max_len,
                    max_values_per_attr: cap,
                };
                (df, Mask::from_bools(&within), config)
            })
    }

    proptest! {
        /// The coded walk returns the oracle's patterns with the same
        /// support masks in the same order, and the same stats, field for
        /// field.
        #[test]
        fn coded_walk_matches_the_pattern_oracle(case in case_strategy()) {
            let (df, within, config) = case;
            let attrs: Vec<String> = ["z", "c", "b"].map(String::from).to_vec();
            for within in [Mask::ones(df.n_rows()), within] {
                let (got, got_stats) = apriori_with_stats(&df, &attrs, &within, &config).unwrap();
                let (want, want_stats) = apriori_oracle(&df, &attrs, &within, &config).unwrap();
                prop_assert_eq!(got_stats, want_stats);
                prop_assert_eq!(got.len(), want.len());
                for (g, w) in got.iter().zip(&want) {
                    prop_assert_eq!(&g.pattern, &w.pattern);
                    prop_assert_eq!(&g.support, &w.support, "pattern {}", g.pattern);
                }
            }
        }
    }

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
