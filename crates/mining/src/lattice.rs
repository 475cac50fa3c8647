//! The level-wise lattice walk behind both mining steps.
//!
//! The conjunctive patterns over a set of items form a lattice in which
//! the children of a pattern add one predicate. [`coded_lattice`] walks it
//! level by level; the caller's gate is the only thing that varies:
//!
//! * Step 1 ([`apriori`](crate::apriori())) keeps a node when its support
//!   meets τ and expands every node it keeps: Apriori (§5.1).
//! * Step 2 keeps every estimable node and expands it **only when its
//!   score is positive**: the positive-parent rule of §5.2 (after
//!   CauSumX). Combining positive-effect treatments is likely to stay
//!   positive, while expanding negative ones is wasted work.
//!
//! Nodes are named by the indices of their items, so ordering, joining and
//! the parent test compare integers and no pattern is spelled out during
//! the walk.

use crate::MiningStats;
use faircap_table::{Codes, Mask, Predicate};
use std::cmp::Ordering;
use std::collections::HashSet;

/// An evaluated node of a [`coded_lattice`] walk: the node's pattern is
/// named by the indices of its items, not spelled out.
#[derive(Debug, Clone)]
pub struct CodedNode<S> {
    /// Indices into the walk's items of the node's predicates, in pattern
    /// order (the order of the predicates in the node's `Pattern`).
    pub items: Codes,
    /// Rows satisfying the pattern (support within the caller's universe).
    pub mask: Mask,
    /// The caller-provided score.
    pub score: S,
}

/// Walk the lattice over `items` up to `max_len` predicates.
///
/// `evaluate(codes, mask)` receives a candidate's item indices in pattern
/// order and its cover, and returns `Some(score)` to keep the node (e.g.
/// the CATE is estimable, or the support meets the threshold);
/// `is_positive(score)` gates expansion: a candidate is evaluated only
/// when **all** its length-(k−1) sub-patterns were kept and positive.
/// Returns every kept node, level by level: singletons in item order,
/// longer nodes in pattern order (the prefix join generates them so). With
/// [`MiningStats`] accounting: candidates generated by the prefix join,
/// candidates pruned by the parent rule, and nodes handed to `evaluate`
/// (each of which costs a CATE estimation in Step 2).
///
/// Items must have pairwise-distinct predicates; candidates never combine
/// two predicates on the same attribute. A candidate's cover is its two
/// joined parents' intersection.
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
        for_each_prefix_pair(&out, &frontier, |a, b| {
            let (a_last, b_last) = (a.items[a.items.len() - 1], b.items[b.items.len() - 1]);
            if order.attr[a_last as usize] == order.attr[b_last as usize] {
                return;
            }
            // `a` precedes `b` in pattern order and shares its prefix, so
            // appending `b`'s last item keeps pattern order.
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
        });
        let first = out.len();
        out.append(&mut fresh);
        frontier = positive_sorted(&out, first, &is_positive, &order);
        level += 1;
    }
    (out, stats)
}

/// Invoke `f` on every pair of `frontier` nodes whose item sequences share
/// their length-(k−1) prefix, the earlier node in pattern order first. The
/// frontier is sorted in pattern order, which makes the prefix blocks
/// contiguous: generation is linear in the frontier plus quadratic only
/// *within* each block, and every candidate arises from exactly one pair
/// (its two largest parents).
fn for_each_prefix_pair<'n, S>(
    nodes: &'n [CodedNode<S>],
    frontier: &[usize],
    mut f: impl FnMut(&'n CodedNode<S>, &'n CodedNode<S>),
) {
    let prefix = |i: usize| {
        let items = &nodes[frontier[i]].items;
        &items[..items.len() - 1]
    };
    let mut block_start = 0;
    while block_start < frontier.len() {
        let mut block_end = block_start + 1;
        while block_end < frontier.len() && prefix(block_end) == prefix(block_start) {
            block_end += 1;
        }
        for i in block_start..block_end {
            for j in i + 1..block_end {
                f(&nodes[frontier[i]], &nodes[frontier[j]]);
            }
        }
        block_start = block_end;
    }
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
    use faircap_table::{Pattern, Value};

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

    /// The pattern a node's item indices name.
    fn spell(codes: &[u32]) -> Pattern {
        let items = items();
        Pattern::new(codes.iter().map(|&i| items[i as usize].0.clone()).collect())
    }

    /// Walk [`items`] scoring each node by `score(pattern)`, positive
    /// when above zero; nodes come back with their patterns spelled out.
    fn walk(
        max_len: usize,
        mut score: impl FnMut(&Pattern, &Mask) -> Option<f64>,
    ) -> (Vec<(Pattern, CodedNode<f64>)>, MiningStats) {
        let (nodes, stats) = coded_lattice(
            &items(),
            max_len,
            |codes, mask| score(&spell(codes), mask),
            |&s| s > 0.0,
        );
        let nodes = nodes.into_iter().map(|n| (spell(&n.items), n)).collect();
        (nodes, stats)
    }

    #[test]
    fn all_positive_explores_everything() {
        let (nodes, _) = walk(3, |_, _| Some(1.0));
        // 3 singletons + 3 pairs + 1 triple.
        assert_eq!(nodes.len(), 7);
        let (_, triple) = nodes.iter().find(|(p, _)| p.len() == 3).unwrap();
        // mask of a∧b∧c = {3}
        assert_eq!(triple.mask.to_indices(), vec![3]);
    }

    #[test]
    fn negative_parent_blocks_children() {
        // "b" scores negative → no pair containing b, no triple.
        let (nodes, _) = walk(3, |p, _| {
            Some(if p.predicates().iter().any(|q| q.attr == "b") {
                -1.0
            } else {
                1.0
            })
        });
        let patterns: Vec<String> = nodes.iter().map(|(p, _)| p.to_string()).collect();
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
        let (nodes, _) = walk(2, |p, _| {
            if p.predicates().iter().any(|q| q.attr == "c") && p.len() == 1 {
                None
            } else {
                Some(1.0)
            }
        });
        let patterns: Vec<String> = nodes.iter().map(|(p, _)| p.to_string()).collect();
        assert!(patterns.contains(&"a = 1 ∧ b = 1".to_owned()));
        assert!(!patterns.contains(&"c = 1".to_owned()));
        assert!(!patterns
            .iter()
            .any(|p| p.contains("c = 1") && p.contains('∧')));
    }

    #[test]
    fn masks_are_intersections() {
        let (nodes, _) = walk(2, |_, _| Some(1.0));
        let items = items();
        for (p, n) in &nodes {
            if n.items.len() == 2 {
                let want = &items[n.items[0] as usize].1 & &items[n.items[1] as usize].1;
                assert_eq!(n.mask, want, "pattern {p}");
            }
        }
    }

    #[test]
    fn negative_pair_prunes_its_triple() {
        // Only b∧c scores negative. a∧b and a∧c share the prefix a and
        // join into a∧b∧c, whose third parent b∧c is not positive: the
        // triple is generated and pruned, never evaluated.
        let mut seen = Vec::new();
        let (nodes, stats) = walk(3, |p, _| {
            seen.push(p.to_string());
            Some(if p.to_string() == "b = 1 ∧ c = 1" {
                -1.0
            } else {
                1.0
            })
        });
        assert!(nodes.iter().all(|(p, _)| p.len() < 3));
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
        let (nodes, stats) = walk(3, |_, _| Some(1.0));
        assert_eq!(nodes.len(), 7);
        assert_eq!(
            (stats.candidates, stats.pruned_parent, stats.evaluated),
            (7, 0, 7)
        );
    }

    #[test]
    fn max_len_one_only_singletons() {
        let (nodes, _) = walk(1, |_, _| Some(1.0));
        assert_eq!(nodes.len(), 3);
        assert!(nodes.iter().all(|(p, _)| p.len() == 1));
    }

    #[test]
    fn score_carried_through() {
        let (nodes, _) = walk(2, |_, mask| Some(mask.count() as f64));
        for (_, n) in &nodes {
            assert_eq!(n.score, n.mask.count() as f64);
        }
    }

    #[test]
    fn codes_follow_pattern_order_whatever_the_item_order() {
        // Items listed c, b, a: a node's codes still list its predicates
        // in pattern order, and a pair joins the earlier item first.
        let mut reversed = items();
        reversed.reverse();
        let (nodes, _) = coded_lattice(&reversed, 2, |_, _| Some(()), |_| true);
        let pairs: Vec<&[u32]> = nodes
            .iter()
            .filter(|n| n.items.len() == 2)
            .map(|n| &*n.items)
            .collect();
        assert_eq!(pairs, [&[2, 1][..], &[2, 0], &[1, 0]]);
    }
}
