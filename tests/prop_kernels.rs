//! Property tests pinning the hot-path kernel contract: every blocked or
//! fused code path in `faircap::causal::estimate::kernel` and the KD-tree
//! matching engine must be **bit-identical** (`f64::to_bits`, not
//! tolerance) to the naive reference implementations preserved in
//! `faircap::causal::estimate::reference`. Bit-identity is what lets the
//! engine pick block sizes and search strategies purely on cost grounds —
//! the answer never depends on the path taken.
//!
//! One documented exception: `linear`'s count path sums the RSS per
//! (cell, arm) slot, so its `std_err`, `t_stat` and `p_value` may differ
//! from the oracle's within `linear::INFERENCE_TOLERANCE`. Its `cate`, arm
//! sizes and refusals stay bit-identical, and so does every field where
//! its exact row pass runs (near-perfect fits) and on the columnar path.
//! `linear_oracle_sweep` (ignored; run in release with
//! `--include-ignored`) measures the deviations over 20k random designs.

use faircap::causal::estimate::{kernel, linear, matching, reference};
use faircap::causal::{Estimate, HotStats};
use faircap::table::{Column, DataFrame, Mask};
use proptest::prelude::*;

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

fn matrix_bits(m: &faircap::causal::linalg::Matrix) -> Vec<u64> {
    let k = m.rows();
    (0..k)
        .flat_map(|r| (0..k).map(move |c| (r, c)))
        .map(|(r, c)| m.get(r, c).to_bits())
        .collect()
}

fn estimate_bits(e: &Estimate) -> [u64; 4] {
    [
        e.cate.to_bits(),
        e.std_err.to_bits(),
        e.t_stat.to_bits(),
        e.p_value.to_bits(),
    ]
}

/// `k` random finite columns of `n` rows each.
fn columns_strategy(n: usize, k: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(prop::collection::vec(-10.0f64..10.0, n), k)
}

/// A random mixed-type frame plus group/treated masks sized so the
/// matching estimator always has both arms: the first ten rows alternate
/// treated/control five-and-five and sweep all three category levels.
fn matching_frame(
    z_codes: &[u8],
    noise: &[f64],
    y: &[f64],
    treated_bits: &[bool],
) -> (DataFrame, Mask, Mask) {
    let n = z_codes.len();
    let levels = ["a", "b", "c"];
    let z: Vec<&str> = (0..n)
        .map(|i| {
            if i < 10 {
                levels[i % 3]
            } else {
                levels[z_codes[i] as usize % 3]
            }
        })
        .collect();
    let t: Vec<bool> = (0..n)
        .map(|i| if i < 10 { i % 2 == 0 } else { treated_bits[i] })
        .collect();
    let df = DataFrame::builder()
        .cat("z", &z)
        .float("noise", noise.to_vec())
        .float("y", y.to_vec())
        .build()
        .unwrap();
    let group = Mask::from_bools(&vec![true; n]);
    let treated = Mask::from_bools(&t);
    (df, group, treated)
}

/// Upper bound on generated rows in the linear-estimator property.
const MAX_ROWS: usize = 320;

/// Categorical covariate codes, one vector per covariate, from per-covariate
/// `(raw levels, kind)` specs. Kind 0 copies the previous covariate and kind
/// 1 coarsens it (both alias one-hot columns, so the gram is singular and
/// the ridge ladder runs); kinds 2–5 draw 1–3 levels and kinds 6–7 draw
/// 1–12, so most designs' cell spaces fit the row count (renumbered through
/// an array) and some do not (through a map).
fn categorical_codes(specs: &[(u8, u8)], seed: &[u8], n: usize) -> Vec<Vec<u8>> {
    let mut codes: Vec<Vec<u8>> = Vec::with_capacity(specs.len());
    for (a, &(raw, kind)) in specs.iter().enumerate() {
        let col = match (kind, codes.last()) {
            (0, Some(prev)) => prev.clone(),
            (1, Some(prev)) => prev.iter().map(|c| c / 2).collect(),
            _ => {
                let levels = if kind < 6 { 1 + raw % 3 } else { raw };
                (0..n).map(|r| seed[a * MAX_ROWS + r] % levels).collect()
            }
        };
        codes.push(col);
    }
    codes
}

/// `(estimate bits, n_treated, n_control)`, or `None` for a refusal.
fn verdict(e: faircap::causal::Result<Estimate>) -> Option<([u64; 4], usize, usize)> {
    e.ok()
        .map(|e| (estimate_bits(&e), e.n_treated, e.n_control))
}

/// How much of the oracle's estimate a live linear estimate must
/// reproduce bit for bit.
#[derive(Debug, Clone, Copy)]
enum Agreement {
    /// All four fields: the columnar path, and the count path wherever its
    /// exact row pass runs.
    Exact,
    /// `cate` exactly; `std_err` and `t_stat` within
    /// `linear::INFERENCE_TOLERANCE` relative, `p_value` absolute.
    Tolerance,
}

/// The largest deviations from the oracle seen so far.
#[derive(Debug, Default)]
struct Deviations {
    /// Estimates compared (both sides answered).
    compared: usize,
    /// Of those, estimates equal to the oracle's in all four fields.
    bit_exact: usize,
    /// Refusals on both sides.
    refused: usize,
    std_err: f64,
    t_stat: f64,
    p_value: f64,
}

/// `|a − b| / |b|` (zero when equal).
fn relative(a: f64, b: f64) -> f64 {
    if a == b {
        0.0
    } else {
        (a - b).abs() / b.abs()
    }
}

/// A live linear estimate must refuse exactly when the oracle refuses,
/// and otherwise agree with it under `agreement` (`cate` and arm sizes
/// always bit for bit). Records its deviations in `dev`.
fn assert_linear_agrees(
    live: faircap::causal::Result<Estimate>,
    naive: faircap::causal::Result<Estimate>,
    agreement: Agreement,
    dev: &mut Deviations,
    context: &dyn std::fmt::Debug,
) -> Result<(), TestCaseError> {
    let (live, naive) = match (live, naive) {
        (Err(_), Err(_)) => {
            dev.refused += 1;
            return Ok(());
        }
        (Ok(live), Ok(naive)) => (live, naive),
        (live, naive) => {
            return Err(TestCaseError::fail(format!(
                "refusal mismatch: live {:?} naive {:?} ({:?})",
                live.ok(),
                naive.ok(),
                context
            )))
        }
    };
    dev.compared += 1;
    if estimate_bits(&live) == estimate_bits(&naive) {
        dev.bit_exact += 1;
    }
    let (se, t) = (
        relative(live.std_err, naive.std_err),
        relative(live.t_stat, naive.t_stat),
    );
    let p = (live.p_value - naive.p_value).abs();
    dev.std_err = dev.std_err.max(se);
    dev.t_stat = dev.t_stat.max(t);
    dev.p_value = dev.p_value.max(p);
    prop_assert_eq!(
        live.cate.to_bits(),
        naive.cate.to_bits(),
        "cate {:?}",
        context
    );
    prop_assert_eq!(
        (live.n_treated, live.n_control),
        (naive.n_treated, naive.n_control),
        "arms {:?}",
        context
    );
    match agreement {
        Agreement::Exact => prop_assert_eq!(
            estimate_bits(&live),
            estimate_bits(&naive),
            "{:?} vs {:?} ({:?})",
            live,
            naive,
            context
        ),
        Agreement::Tolerance => prop_assert!(
            se <= linear::INFERENCE_TOLERANCE
                && t <= linear::INFERENCE_TOLERANCE
                && p <= linear::INFERENCE_TOLERANCE,
            "{:?} vs {:?} ({:?})",
            live,
            naive,
            context
        ),
    }
    Ok(())
}

/// The live linear estimator must agree with `reference::linear_naive` —
/// under `agreement` where the count path runs, bit for bit where the
/// columnar path does — or refuse too.
fn assert_linear_matches_naive(
    df: &DataFrame,
    group: &Mask,
    treated: &Mask,
    outcome: &str,
    adjustment: &[String],
    agreement: Agreement,
    dev: &mut Deviations,
) -> Result<(), TestCaseError> {
    let count_path = matches!(
        linear::CellTable::build(df, group, outcome, adjustment),
        Ok(Some(_))
    );
    let agreement = if count_path {
        agreement
    } else {
        Agreement::Exact
    };
    let naive = reference::linear_naive(df, group, treated, outcome, adjustment);
    let live = linear::estimate_with(
        df,
        group,
        treated,
        outcome,
        adjustment,
        None,
        &mut HotStats::default(),
    );
    assert_linear_agrees(live, naive, agreement, dev, &(outcome, adjustment))
}

/// One random linear design (the inputs of `linear_estimator_matches_naive`)
/// checked against the oracle: all-categorical designs of 1–6 covariates
/// of 1–12 levels (the count path), aliased covariates that force the
/// ridge ladder, subgroups that drop levels, arms under `MIN_ARM_SIZE`,
/// and Float / Int / Bool outcomes within the tolerance contract; Float
/// and Int outcomes without noise (near-perfect fits, so the exact row
/// pass runs) bit for bit; and a cell space larger than the group (with
/// `n ≤ k + 1` among them), on the count path too. With `fallbacks`, also
/// the two inputs that fall back to the columnar path, bit for bit there:
/// a numeric covariate and a non-finite outcome.
#[allow(clippy::too_many_arguments)] // the property's generated inputs
fn check_linear_design(
    n: usize,
    specs: &[(u8, u8)],
    code_seed: &[u8],
    y_seed: &[f64],
    row_seed: &[u8],
    treat_kind: u8,
    fallbacks: bool,
    dev: &mut Deviations,
) -> Result<(), TestCaseError> {
    use Agreement::{Exact, Tolerance};
    let codes = categorical_codes(specs, code_seed, n);
    let names: Vec<String> = (0..codes.len()).map(|a| format!("z{a}")).collect();
    // Float outcomes with exact ties and signed zeros mixed in.
    let y: Vec<f64> = (0..n)
        .map(|r| match r % 11 {
            3 => 0.0,
            7 => -0.0,
            5 => 2.5,
            _ => y_seed[r],
        })
        .collect();
    let treat_cut = match treat_kind {
        0 => 6,   // ~2% treated: often under MIN_ARM_SIZE
        1 => 250, // ~2% control
        _ => 128,
    };
    let treated: Vec<bool> = row_seed[..n].iter().map(|&b| b < treat_cut).collect();
    // Noiseless outcomes: an exact linear function of `T` and the levels.
    let level_effect = |r: usize| -> i64 {
        let per_covariate = codes.iter().enumerate();
        per_covariate
            .map(|(a, c)| (a as i64 + 1) * c[r] as i64)
            .sum()
    };
    let flat: Vec<f64> = (0..n)
        .map(|r| 0.75 + 1.5 * treated[r] as u8 as f64 + 0.3 * level_effect(r) as f64)
        .collect();
    let flat_int: Vec<i64> = (0..n)
        .map(|r| 4 + 3 * treated[r] as i64 - level_effect(r))
        .collect();
    let treated = Mask::from_bools(&treated);
    let mut builder = DataFrame::builder()
        .float("y", y.clone())
        .int("y_int", y.iter().map(|v| v.round() as i64).collect())
        .bool("y_bool", y.iter().map(|&v| v > 0.0).collect())
        .float("y_flat", flat)
        .int("y_flat_int", flat_int)
        .float("num", y_seed[..n].iter().map(|v| v.abs().sqrt()).collect());
    for (name, col) in names.iter().zip(&codes) {
        let labels: Vec<String> = col.iter().map(|c| format!("l{c}")).collect();
        builder = builder.cat(name, &labels);
    }
    // One level per row pair: a cell space wider than any group.
    let wide: Vec<String> = (0..n).map(|r| format!("w{}", r / 2)).collect();
    let df = builder.cat("wide", &wide).build().unwrap();
    let with_num = [&names[..1], &["num".to_owned()], &names[1..]].concat();
    let with_wide = [&names[..], &["wide".to_owned()]].concat();

    // The whole frame, a random half, and a subgroup that drops z0's
    // first-coded level and a random third of the rest.
    let groups: [Vec<bool>; 3] = [
        vec![true; n],
        (0..n).map(|r| row_seed[r].is_multiple_of(2)).collect(),
        (0..n)
            .map(|r| codes[0][r] != 0 && !row_seed[r].is_multiple_of(3))
            .collect(),
    ];
    for group in groups.iter().map(|g| Mask::from_bools(g)) {
        for (outcome, agreement) in [
            ("y", Tolerance),
            ("y_int", Tolerance),
            ("y_bool", Tolerance),
            ("y_flat", Exact),
            ("y_flat_int", Exact),
        ] {
            assert_linear_matches_naive(&df, &group, &treated, outcome, &names, agreement, dev)?;
        }
        assert_linear_matches_naive(&df, &group, &treated, "y", &with_wide, Tolerance, dev)?;
        if !fallbacks {
            continue;
        }
        // Fallback: a numeric covariate.
        assert_linear_matches_naive(&df, &group, &treated, "y", &with_num, Tolerance, dev)?;
        // Fallback: a non-finite outcome on one group row.
        if let Some(row) = group.iter_ones().nth(n / 5) {
            let mut y_bad = y.clone();
            y_bad[row] = if n.is_multiple_of(2) {
                f64::INFINITY
            } else {
                f64::NAN
            };
            let df_bad = df.with_column("y", Column::Float(y_bad)).unwrap();
            assert_linear_matches_naive(&df_bad, &group, &treated, "y", &names, Tolerance, dev)?;
        }
    }
    Ok(())
}

/// The live matching estimator must give exactly
/// `reference::matching_naive`'s estimate under each search strategy —
/// with a fresh and with a prebuilt index — or refuse too.
fn assert_matching_matches_naive(
    df: &DataFrame,
    group: &Mask,
    treated: &Mask,
    adjustment: &[String],
) -> Result<(), TestCaseError> {
    let index =
        matching::MatchIndex::build(df, group, "y", adjustment, &mut HotStats::default()).unwrap();
    for strategy in [
        matching::MatchStrategy::Auto,
        matching::MatchStrategy::Brute,
        matching::MatchStrategy::Tree,
    ] {
        let naive = verdict(reference::matching_naive(
            df,
            group,
            treated,
            "y",
            adjustment,
            &matching::MatchParams {
                index: None,
                strategy,
            },
        ));
        for index_opt in [None, Some(&index)] {
            let live = verdict(matching::estimate_with(
                df,
                group,
                treated,
                "y",
                adjustment,
                &matching::MatchParams {
                    index: index_opt,
                    strategy,
                },
                &mut HotStats::default(),
            ));
            prop_assert_eq!(
                live,
                naive,
                "{:?} prebuilt {} adjustment {:?}",
                strategy,
                index_opt.is_some(),
                adjustment
            );
        }
    }
    Ok(())
}

proptest! {
    /// Fused columnar design assembly == naive row-major assembly, for
    /// both the OLS layout (treatment column) and the covariate-only
    /// layout.
    #[test]
    fn design_assembly_matches_naive(
        z_codes in prop::collection::vec(0u8..3, 40..160),
        noise in prop::collection::vec(-5.0f64..5.0, 160),
        y in prop::collection::vec(-5.0f64..5.0, 160),
        treated_bits in prop::collection::vec(any::<bool>(), 160),
        group_bits in prop::collection::vec(any::<bool>(), 160),
    ) {
        let n = z_codes.len();
        let (df, _, treated) = matching_frame(&z_codes, &noise[..n], &y[..n], &treated_bits[..n]);
        // A random, non-empty subgroup (row 0 always in).
        let mut gb = group_bits[..n].to_vec();
        gb[0] = true;
        let group = Mask::from_bools(&gb);
        let adjustment = vec!["z".to_owned(), "noise".to_owned()];

        for treated_opt in [Some(&treated), None] {
            let naive = reference::design_columns_naive(&df, &adjustment, &group, treated_opt)
                .unwrap();
            let fused = kernel::build_columns(&df, &adjustment, &group, treated_opt).unwrap();
            prop_assert_eq!(fused.k(), naive.len());
            for (fc, nc) in fused.cols().iter().zip(&naive) {
                prop_assert_eq!(bits(fc), bits(nc));
            }
        }
    }

    /// Blocked X'X and X'y == naive entry-at-a-time loops, bitwise.
    #[test]
    fn reductions_match_naive(
        cols in (20usize..200, 1usize..6).prop_flat_map(|(n, k)| columns_strategy(n, k)),
        y_seed in prop::collection::vec(-10.0f64..10.0, 200),
    ) {
        let n = cols[0].len();
        let y = &y_seed[..n];
        let naive_gram = reference::gram_naive(&cols);
        let naive_xty = reference::xty_naive(&cols, y);
        let gram = kernel::gram_columns(&cols);
        let xty = kernel::xty_columns(&cols, y);
        prop_assert_eq!(matrix_bits(&gram), matrix_bits(&naive_gram));
        prop_assert_eq!(bits(&xty), bits(&naive_xty));
    }

    /// The fused IRLS reduction (weighted gram + score) and the per-arm
    /// masked gram == their naive counterparts, bitwise.
    #[test]
    fn irls_and_arm_kernels_match_naive(
        cols in (20usize..200, 1usize..5).prop_flat_map(|(n, k)| columns_strategy(n, k)),
        w_seed in prop::collection::vec(0.0f64..4.0, 200),
        r_seed in prop::collection::vec(-2.0f64..2.0, 200),
        arm_bits in prop::collection::vec(any::<bool>(), 200),
    ) {
        let n = cols[0].len();
        let (w, r) = (&w_seed[..n], &r_seed[..n]);
        let arm: Vec<f64> = arm_bits[..n].iter().map(|&b| b as u8 as f64).collect();
        let (naive_wg, naive_score) = reference::weighted_gram_score_naive(&cols, w, r);
        let (naive_ag, naive_rhs) = reference::arm_gram_xty_naive(&cols, r, &arm);
        let (wg, score) = kernel::weighted_gram_score(&cols, w, r);
        let (ag, rhs) = kernel::arm_gram_xty(&cols, r, &arm);
        prop_assert_eq!(matrix_bits(&wg), matrix_bits(&naive_wg));
        prop_assert_eq!(bits(&score), bits(&naive_score));
        prop_assert_eq!(matrix_bits(&ag), matrix_bits(&naive_ag));
        prop_assert_eq!(bits(&rhs), bits(&naive_rhs));
    }

    /// Column-streaming X·β == naive per-row dot products, bitwise.
    #[test]
    fn mat_vec_matches_naive(
        cols in (10usize..150, 1usize..6).prop_flat_map(|(n, k)| columns_strategy(n, k)),
        beta_seed in prop::collection::vec(-3.0f64..3.0, 6),
    ) {
        let beta = &beta_seed[..cols.len()];
        prop_assert_eq!(
            bits(&kernel::mat_vec_columns(&cols, beta)),
            bits(&reference::mat_vec_naive(&cols, beta))
        );
    }

    /// KD-tree matching == brute-force matching, bitwise, on tie-heavy
    /// categorical designs (where tie-inclusive cutoffs do real work),
    /// with a fresh and with a prebuilt, reused index.
    #[test]
    fn tree_matching_matches_brute(
        z_codes in prop::collection::vec(0u8..3, 40..160),
        noise in prop::collection::vec(-1.0f64..1.0, 160),
        y in prop::collection::vec(-5.0f64..5.0, 160),
        treated_bits in prop::collection::vec(any::<bool>(), 160),
    ) {
        let n = z_codes.len();
        let (df, group, treated) = matching_frame(&z_codes, &noise[..n], &y[..n], &treated_bits[..n]);
        let adjustment = vec!["z".to_owned(), "noise".to_owned()];

        let brute = matching::estimate_with(
            &df, &group, &treated, "y", &adjustment,
            &matching::MatchParams {
                index: None,
                strategy: matching::MatchStrategy::Brute,
            },
            &mut HotStats::default(),
        )
        .unwrap();

        let index = matching::MatchIndex::build(
            &df, &group, "y", &adjustment, &mut HotStats::default(),
        )
        .unwrap();
        for index_opt in [None, Some(&index)] {
            let tree = matching::estimate_with(
                &df, &group, &treated, "y", &adjustment,
                &matching::MatchParams {
                    index: index_opt,
                    strategy: matching::MatchStrategy::Tree,
                },
                &mut HotStats::default(),
            )
            .unwrap();
            prop_assert_eq!(estimate_bits(&tree), estimate_bits(&brute));
            prop_assert_eq!(tree.n_treated, brute.n_treated);
            prop_assert_eq!(tree.n_control, brute.n_control);
        }
    }

    /// The live linear estimator agrees with `reference::linear_naive`
    /// on random designs; see `check_linear_design`.
    #[test]
    fn linear_estimator_matches_naive(
        n in 10usize..MAX_ROWS,
        specs in prop::collection::vec((1u8..=12, 0u8..8), 1..7),
        code_seed in prop::collection::vec(any::<u8>(), 6 * MAX_ROWS),
        y_seed in prop::collection::vec(-10.0f64..10.0, MAX_ROWS),
        row_seed in prop::collection::vec(any::<u8>(), MAX_ROWS),
        treat_kind in 0u8..6,
    ) {
        let mut dev = Deviations::default();
        check_linear_design(n, &specs, &code_seed, &y_seed, &row_seed, treat_kind, true, &mut dev)?;
    }

    /// One `linear::CellTable`, built once per random frame, group and
    /// outcome, then reused across six random treated masks (from ~2% to
    /// ~98% treated): every estimate agrees with `reference::linear_naive`
    /// — within the tolerance contract for a noisy outcome, and bit for bit
    /// for an outcome that is an exact function of the levels (and constant
    /// without covariates), where the exact row pass runs. Refusals match.
    /// Every group builds a table, cell spaces wider than the group
    /// included: the designs are all categorical and the outcomes finite.
    #[test]
    fn cell_table_reuse_matches_naive(
        n in 10usize..MAX_ROWS,
        specs in prop::collection::vec((1u8..=12, 0u8..8), 0..5),
        code_seed in prop::collection::vec(any::<u8>(), 6 * MAX_ROWS),
        y_seed in prop::collection::vec(-10.0f64..10.0, MAX_ROWS),
        row_seed in prop::collection::vec(any::<u8>(), MAX_ROWS),
        treat_seed in prop::collection::vec(any::<u8>(), 6 * MAX_ROWS),
    ) {
        let codes = categorical_codes(&specs, &code_seed, n);
        let names: Vec<String> = (0..codes.len()).map(|a| format!("z{a}")).collect();
        let levels_only: Vec<f64> = (0..n)
            .map(|r| {
                let per_covariate = codes.iter().enumerate();
                1.0 + per_covariate.map(|(a, c)| 0.5 * (a + 1) as f64 * c[r] as f64).sum::<f64>()
            })
            .collect();
        let mut builder = DataFrame::builder()
            .float("y", y_seed[..n].to_vec())
            .float("y_flat", levels_only);
        for (name, col) in names.iter().zip(&codes) {
            let labels: Vec<String> = col.iter().map(|c| format!("l{c}")).collect();
            builder = builder.cat(name, &labels);
        }
        let df = builder.build().unwrap();
        let groups: [Vec<bool>; 2] = [
            vec![true; n],
            (0..n).map(|r| !row_seed[r].is_multiple_of(3)).collect(),
        ];
        let mut dev = Deviations::default();
        for group in groups.iter().map(|g| Mask::from_bools(g)) {
            for (outcome, agreement) in [("y", Agreement::Tolerance), ("y_flat", Agreement::Exact)] {
                let table = linear::CellTable::build(&df, &group, outcome, &names)
                    .unwrap()
                    .expect("an all-categorical design with finite outcomes");
                for (m, cut) in [6u8, 40, 128, 128, 215, 250].into_iter().enumerate() {
                    let bits = &treat_seed[m * MAX_ROWS..m * MAX_ROWS + n];
                    let treated = Mask::from_bools(&bits.iter().map(|&b| b < cut).collect::<Vec<_>>());
                    let naive = reference::linear_naive(&df, &group, &treated, outcome, &names);
                    let live = table.estimate(&group, &treated);
                    let context = (m, outcome, &names);
                    assert_linear_agrees(live, naive, agreement, &mut dev, &context)?;
                }
            }
        }
    }

    /// The cell-level matching estimator == `reference::matching_naive`'s
    /// per-unit loop, bit for bit and refusal for refusal: tie-heavy
    /// categorical designs (1–3 covariates of 1–3 levels), mixed designs
    /// whose continuous covariate makes most cells singletons (with a
    /// share of rows snapped to a coarse grid, so tied and singleton
    /// cells mix), and the covariate-free design; on the whole frame and
    /// a random subgroup; with balanced arms, ~5% treated, and a treated
    /// arm of 4–7 units straddling `MIN_ARM_SIZE`.
    #[test]
    fn matching_estimator_matches_naive(
        n in 10usize..MAX_ROWS,
        specs in prop::collection::vec((1u8..=4, 2u8..6), 1..4),
        code_seed in prop::collection::vec(any::<u8>(), 3 * MAX_ROWS),
        y_seed in prop::collection::vec(-10.0f64..10.0, MAX_ROWS),
        x_seed in prop::collection::vec(-3.0f64..3.0, MAX_ROWS),
        row_seed in prop::collection::vec(any::<u8>(), MAX_ROWS),
        treat_kind in 0u8..4,
    ) {
        let codes = categorical_codes(&specs, &code_seed, n);
        let names: Vec<String> = (0..codes.len()).map(|a| format!("z{a}")).collect();
        // Outcomes with exact ties mixed in.
        let y: Vec<f64> = (0..n)
            .map(|r| if r % 7 == 3 { 2.5 } else { y_seed[r] })
            .collect();
        let x: Vec<f64> = (0..n)
            .map(|r| {
                if row_seed[r].is_multiple_of(3) {
                    (x_seed[r] * 2.0).round()
                } else {
                    x_seed[r]
                }
            })
            .collect();
        let treated: Vec<bool> = match treat_kind {
            // ~5% treated.
            0 => (0..n).map(|r| row_seed[r] < 13).collect(),
            // Exactly 4–7 treated rows, evenly spread.
            1 => {
                let c = 4 + row_seed[0] as usize % 4;
                let stride = n / c;
                (0..n).map(|r| r % stride == 0 && r / stride < c).collect()
            }
            _ => (0..n).map(|r| row_seed[r] < 128).collect(),
        };
        let treated = Mask::from_bools(&treated);
        let mut builder = DataFrame::builder().float("y", y).float("x", x);
        for (name, col) in names.iter().zip(&codes) {
            let labels: Vec<String> = col.iter().map(|c| format!("l{c}")).collect();
            builder = builder.cat(name, &labels);
        }
        let df = builder.build().unwrap();
        let mixed = [&names[..], &["x".to_owned()]].concat();

        let groups: [Vec<bool>; 2] = [
            vec![true; n],
            (0..n).map(|r| !row_seed[r].is_multiple_of(4)).collect(),
        ];
        for group in groups.iter().map(|g| Mask::from_bools(g)) {
            for adjustment in [&names[..], &mixed[..], &[]] {
                assert_matching_matches_naive(&df, &group, &treated, adjustment)?;
            }
        }
    }
}

/// xorshift64* — the sweep's deterministic input stream.
struct Stream(u64);

impl Stream {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The count path's tolerance contract, measured: 20,000 random frames
/// through `check_linear_design` without its fallback inputs (three
/// groups each, under five outcomes and the wide design, so 360k
/// estimates, with outcome scales
/// from 10⁻³ to 10⁶ and offsets up to 10⁶). Fails on any refusal
/// mismatch, any `cate` difference, a deviation above
/// `linear::INFERENCE_TOLERANCE`, or a noiseless design that is not
/// bit-identical. Prints the largest deviations. Run it in release:
///
/// ```text
/// cargo test --release --test prop_kernels -- --include-ignored linear_oracle_sweep
/// ```
#[test]
#[ignore = "20k-design oracle sweep; run in release with --include-ignored"]
fn linear_oracle_sweep() {
    const DESIGNS: usize = 20_000;
    let mut s = Stream(0x005E_EDCE_117A_B1E5);
    let mut dev = Deviations::default();
    for design in 0..DESIGNS {
        let n = 10 + s.below((MAX_ROWS - 10) as u64) as usize;
        let specs: Vec<(u8, u8)> = (0..1 + s.below(6))
            .map(|_| (1 + s.below(12) as u8, s.below(8) as u8))
            .collect();
        let code_seed: Vec<u8> = (0..6 * MAX_ROWS).map(|_| s.next() as u8).collect();
        // Outcome scales from 10⁻³ to 10⁶ around offsets up to 10⁶.
        let scale = 10f64.powi(s.below(10) as i32 - 3);
        let offset = [0.0, 1.0, 1e3, 1e6][s.below(4) as usize];
        let y_seed: Vec<f64> = (0..MAX_ROWS)
            .map(|_| offset + scale * (2.0 * s.unit() - 1.0))
            .collect();
        let row_seed: Vec<u8> = (0..MAX_ROWS).map(|_| s.next() as u8).collect();
        let treat_kind = s.below(6) as u8;
        let checked = check_linear_design(
            n, &specs, &code_seed, &y_seed, &row_seed, treat_kind, false, &mut dev,
        );
        if let Err(e) = checked {
            panic!("design {design}: {e:?}");
        }
    }
    println!(
        "{DESIGNS} designs: {} estimates compared ({} bit-exact), {} refused on both sides; \
         largest deviation: std_err {:.3e}, t_stat {:.3e} (relative), p_value {:.3e} (absolute)",
        dev.compared, dev.bit_exact, dev.refused, dev.std_err, dev.t_stat, dev.p_value
    );
    assert!(dev.compared > DESIGNS, "{dev:?}");
}
