//! Positive-parent lattice traversal (FairCap §5.2).
//!
//! The space of intervention patterns forms a lattice where the children of
//! a pattern add one predicate. Following the paper (and CauSumX), a node is
//! materialized and evaluated **only when all of its parents scored
//! positive** — combining positive-effect treatments is likely to stay
//! positive, while expanding negative ones is wasted work. The traversal is
//! generic over the scoring function, so the core crate can plug in
//! fairness-penalized benefit scores.

use crate::apriori::for_each_prefix_pair;
use crate::MiningStats;
use faircap_table::{Codes, Mask, Pattern, Predicate};
use std::cmp::Ordering;
use std::collections::HashSet;

/// An evaluated lattice node.
#[derive(Debug, Clone)]
pub struct LatticeNode<S> {
    /// The pattern at this node.
    pub pattern: Pattern,
    /// Rows satisfying the pattern (support within the caller's universe).
    pub mask: Mask,
    /// The caller-provided score.
    pub score: S,
}

/// An evaluated node of a [`coded_lattice`] walk: the node's pattern is
/// named by the indices of its items, not spelled out.
#[derive(Debug, Clone)]
pub struct CodedNode<S> {
    /// Indices into the walk's items of the node's predicates, in pattern
    /// order (the order of the predicates in the node's [`Pattern`]).
    pub items: Codes,
    /// Rows satisfying the pattern (support within the caller's universe).
    pub mask: Mask,
    /// The caller-provided score.
    pub score: S,
}

/// Traverse the lattice over `items` up to `max_len` predicates.
///
/// `evaluate(pattern, mask)` returns `Some(score)` when the node is valid
/// (e.g. the CATE is estimable); `is_positive(score)` gates expansion: a
/// candidate is evaluated only when **all** its length-(k−1) sub-patterns
/// were evaluated and positive. Returns every evaluated node.
///
/// Items must have pairwise-distinct predicates; candidates never combine
/// two predicates on the same attribute.
pub fn positive_lattice<S>(
    items: &[(Predicate, Mask)],
    max_len: usize,
    evaluate: impl FnMut(&Pattern, &Mask) -> Option<S>,
    is_positive: impl Fn(&S) -> bool,
) -> Vec<LatticeNode<S>> {
    positive_lattice_with_stats(items, max_len, evaluate, is_positive).0
}

/// [`positive_lattice`] plus [`MiningStats`] accounting: candidates
/// generated by the prefix join, candidates pruned by the positive-parent
/// rule, and nodes actually handed to `evaluate` (each of which costs a
/// CATE estimation in the FairCap pipeline). The walk is
/// [`coded_lattice`]'s, with each node's pattern spelled out for
/// `evaluate` and in the result.
pub fn positive_lattice_with_stats<S>(
    items: &[(Predicate, Mask)],
    max_len: usize,
    mut evaluate: impl FnMut(&Pattern, &Mask) -> Option<S>,
    is_positive: impl Fn(&S) -> bool,
) -> (Vec<LatticeNode<S>>, MiningStats) {
    let pattern =
        |codes: &[u32]| Pattern::new(codes.iter().map(|&i| items[i as usize].0.clone()).collect());
    let (nodes, stats) = coded_lattice(
        items,
        max_len,
        |codes, mask| evaluate(&pattern(codes), mask),
        is_positive,
    );
    let nodes = nodes
        .into_iter()
        .map(|node| LatticeNode {
            pattern: pattern(&node.items),
            mask: node.mask,
            score: node.score,
        })
        .collect();
    (nodes, stats)
}

/// [`positive_lattice_with_stats`] over item indices: `evaluate` receives
/// the node's item indices in pattern order, and nodes are returned as
/// [`CodedNode`]s in the same traversal order. No pattern is built, and
/// ordering, joining and the parent test compare integers only, so a
/// caller that keys its work on the items (as Step 2 keys estimates on
/// predicate codes) walks without allocating per node beyond its masks.
pub fn coded_lattice<S>(
    items: &[(Predicate, Mask)],
    max_len: usize,
    mut evaluate: impl FnMut(&[u32], &Mask) -> Option<S>,
    is_positive: impl Fn(&S) -> bool,
) -> (Vec<CodedNode<S>>, MiningStats) {
    let order = ItemOrder::new(items);
    let mut stats = MiningStats::default();
    let mut out: Vec<CodedNode<S>> = Vec::new();
    for (i, (_, mask)) in items.iter().enumerate() {
        let codes: Codes = std::iter::once(i as u32).collect();
        stats.candidates += 1;
        stats.evaluated += 1;
        if let Some(score) = evaluate(&codes, mask) {
            out.push(CodedNode {
                items: codes,
                mask: mask.clone(),
                score,
            });
        }
    }
    // Frontier of positive nodes at the current level, as indices into
    // `out` in pattern order: nodes are stored once, never cloned.
    let mut frontier = positive_sorted(&out, 0, &is_positive, &order);

    let mut level = 1;
    while level < max_len && frontier.len() > 1 {
        // A pair's two parents are the singletons it joins, both in the
        // frontier, so only longer candidates look their parents up.
        let positive_keys: HashSet<&[u32]> = if level > 1 {
            frontier.iter().map(|&i| &*out[i].items).collect()
        } else {
            HashSet::new()
        };
        let mut fresh: Vec<CodedNode<S>> = Vec::new();
        // Same prefix-block generation as Apriori: the frontier is sorted,
        // so only contiguous same-prefix pairs can join and every candidate
        // arises from exactly one pair. The candidate's cover is the
        // parents' intersection (conjunctive patterns), reusing the shared
        // prefix mask already folded into both parents.
        for_each_prefix_pair(
            &frontier,
            |&i: &usize| &*out[i].items,
            |&i, &j| {
                let (a, b) = (&out[i], &out[j]);
                let (a_last, b_last) = (a.items[a.items.len() - 1], b.items[b.items.len() - 1]);
                if order.attr[a_last as usize] == order.attr[b_last as usize] {
                    return;
                }
                // `a` precedes `b` in pattern order and shares its prefix,
                // so appending `b`'s last item keeps pattern order.
                let mut candidate = a.items.clone();
                candidate.push(b_last);
                stats.candidates += 1;
                // All parents must be positive (they must be in the frontier).
                if level > 1
                    && !(0..candidate.len()).all(|k| positive_keys.contains(&*candidate.without(k)))
                {
                    stats.pruned_parent += 1;
                    return;
                }
                let mask = &a.mask & &b.mask;
                stats.evaluated += 1;
                if let Some(score) = evaluate(&candidate, &mask) {
                    fresh.push(CodedNode {
                        items: candidate,
                        mask,
                        score,
                    });
                }
            },
        );
        let first = out.len();
        out.append(&mut fresh);
        frontier = positive_sorted(&out, first, &is_positive, &order);
        level += 1;
    }
    (out, stats)
}

/// Each item's rank in predicate order and the id of its attribute, so
/// that item-index sequences compare as their patterns do and a join
/// tests attributes by integer.
struct ItemOrder {
    rank: Vec<u32>,
    attr: Vec<u32>,
}

impl ItemOrder {
    fn new(items: &[(Predicate, Mask)]) -> Self {
        let mut sorted: Vec<usize> = (0..items.len()).collect();
        sorted.sort_by(|&a, &b| items[a].0.cmp(&items[b].0));
        let (mut rank, mut attr) = (vec![0; items.len()], vec![0; items.len()]);
        // Predicates sort by attribute first, so an attribute's items are
        // contiguous in `sorted`.
        let mut attr_id = 0;
        for (r, &i) in sorted.iter().enumerate() {
            if r > 0 && items[sorted[r - 1]].0.attr != items[i].0.attr {
                attr_id += 1;
            }
            rank[i] = r as u32;
            attr[i] = attr_id;
        }
        ItemOrder { rank, attr }
    }

    /// Compare two item-index sequences in pattern order.
    fn cmp(&self, a: &[u32], b: &[u32]) -> Ordering {
        let rank = |&i: &u32| self.rank[i as usize];
        a.iter().map(rank).cmp(b.iter().map(rank))
    }
}

/// Indices of the positive nodes of `nodes[first..]`, in pattern order.
fn positive_sorted<S>(
    nodes: &[CodedNode<S>],
    first: usize,
    is_positive: impl Fn(&S) -> bool,
    order: &ItemOrder,
) -> Vec<usize> {
    let mut positive: Vec<usize> = (first..nodes.len())
        .filter(|&i| is_positive(&nodes[i].score))
        .collect();
    positive.sort_by(|&a, &b| order.cmp(&nodes[a].items, &nodes[b].items));
    positive
}

#[cfg(test)]
mod tests {
    use super::*;
    use faircap_table::Value;

    /// Items a, b, c over 8 rows; scores assigned per pattern via a closure.
    fn items() -> Vec<(Predicate, Mask)> {
        vec![
            (
                Predicate::eq("a", Value::Int(1)),
                Mask::from_indices(8, &[0, 1, 2, 3]),
            ),
            (
                Predicate::eq("b", Value::Int(1)),
                Mask::from_indices(8, &[2, 3, 4, 5]),
            ),
            (
                Predicate::eq("c", Value::Int(1)),
                Mask::from_indices(8, &[3, 5, 6, 7]),
            ),
        ]
    }

    #[test]
    fn all_positive_explores_everything() {
        let nodes = positive_lattice(&items(), 3, |_, _| Some(1.0), |&s| s > 0.0);
        // 3 singletons + 3 pairs + 1 triple.
        assert_eq!(nodes.len(), 7);
        let triple = nodes.iter().find(|n| n.pattern.len() == 3).unwrap();
        // mask of a∧b∧c = {3}
        assert_eq!(triple.mask.to_indices(), vec![3]);
    }

    #[test]
    fn negative_parent_blocks_children() {
        // "b" scores negative → no pair containing b, no triple.
        let nodes = positive_lattice(
            &items(),
            3,
            |p, _| {
                Some(if p.predicates().iter().any(|q| q.attr == "b") {
                    -1.0
                } else {
                    1.0
                })
            },
            |&s| s > 0.0,
        );
        let patterns: Vec<String> = nodes.iter().map(|n| n.pattern.to_string()).collect();
        assert!(patterns.contains(&"a = 1 ∧ c = 1".to_owned()));
        assert!(!patterns
            .iter()
            .any(|p| p.contains("b = 1 ∧") || p.contains("∧ b = 1")));
        // b itself was still evaluated at level 1.
        assert!(patterns.contains(&"b = 1".to_owned()));
        assert_eq!(nodes.len(), 4); // a, b, c, a∧c
    }

    #[test]
    fn unevaluable_nodes_are_skipped() {
        // evaluate returns None for pattern "c" → c is not a candidate parent.
        let nodes = positive_lattice(
            &items(),
            2,
            |p, _| {
                if p.predicates().iter().any(|q| q.attr == "c") && p.len() == 1 {
                    None
                } else {
                    Some(1.0)
                }
            },
            |&s| s > 0.0,
        );
        let patterns: Vec<String> = nodes.iter().map(|n| n.pattern.to_string()).collect();
        assert!(patterns.contains(&"a = 1 ∧ b = 1".to_owned()));
        assert!(!patterns.contains(&"c = 1".to_owned()));
        assert!(!patterns
            .iter()
            .any(|p| p.contains("c = 1") && p.contains('∧')));
    }

    #[test]
    fn masks_are_intersections() {
        let nodes = positive_lattice(&items(), 2, |_, _| Some(1.0), |&s| s > 0.0);
        for n in &nodes {
            if n.pattern.len() == 2 {
                let preds = n.pattern.predicates();
                let m0 = items()
                    .iter()
                    .find(|(p, _)| p == &preds[0])
                    .unwrap()
                    .1
                    .clone();
                let m1 = &items()
                    .iter()
                    .find(|(p, _)| p == &preds[1])
                    .unwrap()
                    .1
                    .clone();
                assert_eq!(n.mask, &m0 & m1, "pattern {}", n.pattern);
            }
        }
    }

    #[test]
    fn negative_pair_prunes_its_triple() {
        // Only b∧c scores negative. a∧b and a∧c share the prefix a and
        // join into a∧b∧c, whose third parent b∧c is not positive: the
        // triple is generated and pruned, never evaluated.
        let mut seen = Vec::new();
        let (nodes, stats) = positive_lattice_with_stats(
            &items(),
            3,
            |p, _| {
                seen.push(p.to_string());
                Some(if p.to_string() == "b = 1 ∧ c = 1" {
                    -1.0
                } else {
                    1.0
                })
            },
            |&s| s > 0.0,
        );
        assert!(nodes.iter().all(|n| n.pattern.len() < 3));
        assert_eq!(nodes.len(), 6);
        assert!(!seen.iter().any(|p| p.matches('∧').count() == 2));
        assert_eq!(
            stats,
            MiningStats {
                candidates: 7,
                pruned_parent: 1,
                pruned_support: 0,
                evaluated: 6,
            }
        );
        // With every pair positive the triple is evaluated.
        let (nodes, stats) =
            positive_lattice_with_stats(&items(), 3, |_, _| Some(1.0), |&s| s > 0.0);
        assert_eq!(nodes.len(), 7);
        assert_eq!(
            (stats.candidates, stats.pruned_parent, stats.evaluated),
            (7, 0, 7)
        );
    }

    #[test]
    fn max_len_one_only_singletons() {
        let nodes = positive_lattice(&items(), 1, |_, _| Some(1.0), |&s| s > 0.0);
        assert_eq!(nodes.len(), 3);
        assert!(nodes.iter().all(|n| n.pattern.len() == 1));
    }

    #[test]
    fn score_carried_through() {
        let nodes = positive_lattice(
            &items(),
            2,
            |_, mask| Some(mask.count() as f64),
            |&s| s > 0.0,
        );
        for n in &nodes {
            assert_eq!(n.score, n.mask.count() as f64);
        }
    }
}
