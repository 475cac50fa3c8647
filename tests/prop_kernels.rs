//! Property tests pinning the hot-path kernel contract: every blocked,
//! fused, or parallel code path in `faircap::causal::estimate::kernel` and
//! the KD-tree matching engine must be **bit-identical** (`f64::to_bits`,
//! not tolerance) to the naive reference implementations preserved in
//! `faircap::causal::estimate::reference`. Bit-identity is what lets the
//! engine pick block sizes, worker counts, and search strategies purely on
//! cost grounds — the answer never depends on the path taken.

use faircap::causal::estimate::{kernel, linear, matching, reference};
use faircap::causal::{Estimate, HotStats};
use faircap::table::{Column, DataFrame, Mask};
use proptest::prelude::*;

/// Worker counts exercised against the serial (`workers = 1`) reference.
const WORKER_GRID: [usize; 3] = [2, 3, 8];

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
/// 1–12, keeping most designs' cell space under the row count.
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

/// The live linear estimator (serial and parallel kernels) must give
/// exactly `reference::linear_naive`'s estimate, or refuse too.
fn assert_linear_matches_naive(
    df: &DataFrame,
    group: &Mask,
    treated: &Mask,
    outcome: &str,
    adjustment: &[String],
) -> Result<(), TestCaseError> {
    let naive = verdict(reference::linear_naive(
        df, group, treated, outcome, adjustment,
    ));
    for workers in [1, 3] {
        let live = verdict(linear::estimate_with(
            df,
            group,
            treated,
            outcome,
            adjustment,
            workers,
            None,
            &mut HotStats::default(),
        ));
        prop_assert_eq!(
            live,
            naive,
            "outcome {} adjustment {:?}",
            outcome,
            adjustment
        );
    }
    Ok(())
}

/// The live matching estimator must give exactly
/// `reference::matching_naive`'s estimate under each search strategy —
/// at every worker count, with a fresh and with a prebuilt index — or
/// refuse too.
fn assert_matching_matches_naive(
    df: &DataFrame,
    group: &Mask,
    treated: &Mask,
    adjustment: &[String],
) -> Result<(), TestCaseError> {
    let index =
        matching::MatchIndex::build(df, group, "y", adjustment, 1, &mut HotStats::default())
            .unwrap();
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
                workers: 1,
            },
        ));
        for workers in [1, 2, 8] {
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
                        workers,
                    },
                    &mut HotStats::default(),
                ));
                prop_assert_eq!(
                    live,
                    naive,
                    "{:?} workers {} prebuilt {} adjustment {:?}",
                    strategy,
                    workers,
                    index_opt.is_some(),
                    adjustment
                );
            }
        }
    }
    Ok(())
}

proptest! {
    /// Fused columnar design assembly == naive row-major assembly, for
    /// both the OLS layout (treatment column) and the covariate-only
    /// layout, serial and parallel.
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
            for workers in [1, 2, 8] {
                let fused = kernel::build_columns(
                    &df, &adjustment, &group, treated_opt, workers, &mut 0,
                )
                .unwrap();
                prop_assert_eq!(fused.k(), naive.len());
                for (fc, nc) in fused.cols().iter().zip(&naive) {
                    prop_assert_eq!(bits(fc), bits(nc));
                }
            }
        }
    }

    /// Blocked X'X and X'y == naive entry-at-a-time loops, bitwise, at
    /// every worker count.
    #[test]
    fn reductions_match_naive(
        cols in (20usize..200, 1usize..6).prop_flat_map(|(n, k)| columns_strategy(n, k)),
        y_seed in prop::collection::vec(-10.0f64..10.0, 200),
    ) {
        let n = cols[0].len();
        let y = &y_seed[..n];
        let naive_gram = reference::gram_naive(&cols);
        let naive_xty = reference::xty_naive(&cols, y);
        for workers in std::iter::once(1).chain(WORKER_GRID) {
            let gram = kernel::gram_columns(&cols, workers, &mut 0);
            let xty = kernel::xty_columns(&cols, y, workers, &mut 0);
            prop_assert_eq!(matrix_bits(&gram), matrix_bits(&naive_gram));
            prop_assert_eq!(bits(&xty), bits(&naive_xty));
        }
    }

    /// The fused IRLS reduction (weighted gram + score) and the per-arm
    /// masked gram == their naive counterparts, bitwise, at every worker
    /// count.
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
        for workers in std::iter::once(1).chain(WORKER_GRID) {
            let (wg, score) = kernel::weighted_gram_score(&cols, w, r, workers, &mut 0);
            let (ag, rhs) = kernel::arm_gram_xty(&cols, r, &arm, workers, &mut 0);
            prop_assert_eq!(matrix_bits(&wg), matrix_bits(&naive_wg));
            prop_assert_eq!(bits(&score), bits(&naive_score));
            prop_assert_eq!(matrix_bits(&ag), matrix_bits(&naive_ag));
            prop_assert_eq!(bits(&rhs), bits(&naive_rhs));
        }
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
    /// across worker counts and with a prebuilt, reused index.
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
                workers: 1,
            },
            &mut HotStats::default(),
        )
        .unwrap();

        let index = matching::MatchIndex::build(
            &df, &group, "y", &adjustment, 1, &mut HotStats::default(),
        )
        .unwrap();
        for workers in [1, 2, 8] {
            for index_opt in [None, Some(&index)] {
                let tree = matching::estimate_with(
                    &df, &group, &treated, "y", &adjustment,
                    &matching::MatchParams {
                        index: index_opt,
                        strategy: matching::MatchStrategy::Tree,
                        workers,
                    },
                    &mut HotStats::default(),
                )
                .unwrap();
                prop_assert_eq!(estimate_bits(&tree), estimate_bits(&brute));
                prop_assert_eq!(tree.n_treated, brute.n_treated);
                prop_assert_eq!(tree.n_control, brute.n_control);
            }
        }
    }

    /// The live linear estimator == `reference::linear_naive`, bit for bit
    /// and refusal for refusal, on all-categorical designs (the count
    /// path): 1–6 covariates of 1–12 levels, aliased covariates that force
    /// the ridge ladder, subgroups that drop levels, arms under
    /// `MIN_ARM_SIZE`, and Float / Int / Bool outcomes. Then the three
    /// inputs that fall back to the columnar path: a numeric covariate, a
    /// non-finite outcome, and a cell space larger than the group (with
    /// `n ≤ k + 1` among them).
    #[test]
    fn linear_estimator_matches_naive(
        n in 10usize..MAX_ROWS,
        specs in prop::collection::vec((1u8..=12, 0u8..8), 1..7),
        code_seed in prop::collection::vec(any::<u8>(), 6 * MAX_ROWS),
        y_seed in prop::collection::vec(-10.0f64..10.0, MAX_ROWS),
        row_seed in prop::collection::vec(any::<u8>(), MAX_ROWS),
        treat_kind in 0u8..6,
    ) {
        let codes = categorical_codes(&specs, &code_seed, n);
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
        let treated = Mask::from_bools(&treated);
        let mut builder = DataFrame::builder()
            .float("y", y.clone())
            .int("y_int", y.iter().map(|v| v.round() as i64).collect())
            .bool("y_bool", y.iter().map(|&v| v > 0.0).collect())
            .float("num", y_seed[..n].iter().map(|v| v.abs().sqrt()).collect());
        for (name, col) in names.iter().zip(&codes) {
            let labels: Vec<String> = col.iter().map(|c| format!("l{c}")).collect();
            builder = builder.cat(name, &labels);
        }
        // One level per row pair: 2·∏ levels > n always.
        let wide: Vec<String> = (0..n).map(|r| format!("w{}", r / 2)).collect();
        let df = builder.cat("wide", &wide).build().unwrap();
        let with_num = [&names[..1], &["num".to_owned()], &names[1..]].concat();
        let with_wide = [&names[..], &["wide".to_owned()]].concat();

        // The whole frame, a random half, and a subgroup that drops z0's
        // first-coded level and a random third of the rest.
        let groups: [Vec<bool>; 3] = [
            vec![true; n],
            (0..n).map(|r| row_seed[r].is_multiple_of(2)).collect(),
            (0..n).map(|r| codes[0][r] != 0 && !row_seed[r].is_multiple_of(3)).collect(),
        ];
        for group in groups.iter().map(|g| Mask::from_bools(g)) {
            for outcome in ["y", "y_int", "y_bool"] {
                assert_linear_matches_naive(&df, &group, &treated, outcome, &names)?;
            }
            // Fallbacks: a numeric covariate, an oversized cell space.
            assert_linear_matches_naive(&df, &group, &treated, "y", &with_num)?;
            assert_linear_matches_naive(&df, &group, &treated, "y", &with_wide)?;
            // Fallback: a non-finite outcome on one group row.
            if let Some(row) = group.iter_ones().nth(n / 5) {
                let mut y_bad = y.clone();
                y_bad[row] = if n % 2 == 0 { f64::INFINITY } else { f64::NAN };
                let df_bad = df.with_column("y", Column::Float(y_bad)).unwrap();
                assert_linear_matches_naive(&df_bad, &group, &treated, "y", &names)?;
            }
        }
    }

    /// One `linear::CellTable`, built once per random frame and group, then
    /// reused across six random treated masks (from ~2% to ~98% treated):
    /// every estimate == `reference::linear_naive`, bit for bit and refusal
    /// for refusal. A group the count path refuses builds `None`, and the
    /// naive estimate still matches the live estimator's columnar path.
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
        let mut builder = DataFrame::builder().float("y", y_seed[..n].to_vec());
        for (name, col) in names.iter().zip(&codes) {
            let labels: Vec<String> = col.iter().map(|c| format!("l{c}")).collect();
            builder = builder.cat(name, &labels);
        }
        let df = builder.build().unwrap();
        let groups: [Vec<bool>; 2] = [
            vec![true; n],
            (0..n).map(|r| !row_seed[r].is_multiple_of(3)).collect(),
        ];
        for group in groups.iter().map(|g| Mask::from_bools(g)) {
            let table = linear::CellTable::build(&df, &group, "y", &names).unwrap();
            for (m, cut) in [6u8, 40, 128, 128, 215, 250].into_iter().enumerate() {
                let bits = &treat_seed[m * MAX_ROWS..m * MAX_ROWS + n];
                let treated = Mask::from_bools(&bits.iter().map(|&b| b < cut).collect::<Vec<_>>());
                let naive = verdict(reference::linear_naive(&df, &group, &treated, "y", &names));
                let live = match &table {
                    Some(table) => verdict(table.estimate(&group, &treated)),
                    None => verdict(linear::estimate(&df, &group, &treated, "y", &names)),
                };
                prop_assert_eq!(live, naive, "mask {} adjustment {:?}", m, &names);
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
