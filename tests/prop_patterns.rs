//! Property-based tests for predicates and conjunctive patterns against a
//! brute-force row-by-row oracle.

use faircap::table::{CmpOp, DataFrame, Mask, Pattern, Predicate, Value};
use proptest::prelude::*;

const CATS: [&str; 4] = ["red", "green", "blue", "gray"];

fn frame_strategy() -> impl Strategy<Value = DataFrame> {
    let rows = 1usize..120;
    rows.prop_flat_map(|n| {
        (
            prop::collection::vec(0usize..CATS.len(), n),
            prop::collection::vec(-20i64..20, n),
            prop::collection::vec(any::<bool>(), n),
        )
            .prop_map(|(cat_idx, ints, bools)| {
                let cats: Vec<&str> = cat_idx.iter().map(|&i| CATS[i]).collect();
                DataFrame::builder()
                    .cat("color", &cats)
                    .int("score", ints)
                    .bool("flag", bools)
                    .build()
                    .unwrap()
            })
    })
}

fn predicate_strategy() -> impl Strategy<Value = Predicate> {
    let op = prop_oneof![
        Just(CmpOp::Eq),
        Just(CmpOp::Ne),
        Just(CmpOp::Lt),
        Just(CmpOp::Le),
        Just(CmpOp::Gt),
        Just(CmpOp::Ge),
    ];
    (0usize..3, op, -25i64..25, 0usize..CATS.len()).prop_map(|(col, op, num, cat)| match col {
        0 => Predicate::new("color", op, Value::from(CATS[cat])),
        1 => Predicate::new("score", op, Value::Int(num)),
        _ => Predicate::new("flag", op, Value::Bool(num % 2 == 0)),
    })
}

proptest! {
    #[test]
    fn predicate_mask_matches_row_oracle(
        df in frame_strategy(),
        pred in predicate_strategy(),
    ) {
        let mask = pred.eval(&df).unwrap();
        for row in 0..df.n_rows() {
            prop_assert_eq!(
                mask.get(row),
                pred.matches_row(&df, row).unwrap(),
                "row {} predicate {}", row, pred
            );
        }
    }

    #[test]
    fn pattern_coverage_is_the_intersection_of_its_predicates(
        df in frame_strategy(),
        preds in prop::collection::vec(predicate_strategy(), 0..4),
    ) {
        let pattern = Pattern::new(preds.clone());
        let cov = pattern.coverage(&df).unwrap();
        let mut expect = Mask::ones(df.n_rows());
        for p in pattern.predicates() {
            expect.and_inplace(&p.eval(&df).unwrap());
        }
        prop_assert_eq!(cov, expect);
    }

    #[test]
    fn specialization_shrinks_coverage(
        df in frame_strategy(),
        preds in prop::collection::vec(predicate_strategy(), 1..4),
        extra in predicate_strategy(),
    ) {
        let base = Pattern::new(preds);
        let specialized = base.with(extra);
        let cov_base = base.coverage(&df).unwrap();
        let cov_spec = specialized.coverage(&df).unwrap();
        prop_assert!(cov_spec.is_subset(&cov_base));
        prop_assert!(base.is_subpattern_of(&specialized));
    }

    #[test]
    fn pattern_equality_is_order_independent(
        preds in prop::collection::vec(predicate_strategy(), 0..5),
    ) {
        let forward = Pattern::new(preds.clone());
        let mut reversed_preds = preds;
        reversed_preds.reverse();
        let reversed = Pattern::new(reversed_preds);
        prop_assert_eq!(forward, reversed);
    }

    #[test]
    fn parents_have_one_fewer_predicate(
        preds in prop::collection::vec(predicate_strategy(), 1..5),
    ) {
        let p = Pattern::new(preds);
        for parent in p.parents() {
            prop_assert_eq!(parent.len(), p.len() - 1);
            prop_assert!(parent.is_subpattern_of(&p));
        }
        prop_assert_eq!(p.parents().len(), p.len());
    }

    #[test]
    fn conjunction_is_commutative(
        df in frame_strategy(),
        a in prop::collection::vec(predicate_strategy(), 0..3),
        b in prop::collection::vec(predicate_strategy(), 0..3),
    ) {
        let pa = Pattern::new(a);
        let pb = Pattern::new(b);
        let ab = pa.and(&pb);
        let ba = pb.and(&pa);
        prop_assert_eq!(&ab, &ba);
        prop_assert_eq!(
            ab.coverage(&df).unwrap(),
            ba.coverage(&df).unwrap()
        );
    }
}
