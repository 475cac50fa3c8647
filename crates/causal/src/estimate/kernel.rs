//! Blocked, columnar estimation kernels — the shared hot path of the
//! regression estimators and matching.
//!
//! The original estimators assembled a row-major design matrix with a
//! per-row gather (`Mask::iter_ones` → `CovariateBlock::fill`) and ran
//! `O(n·k²)` accumulations through [`Matrix::gram`]'s row-major loops. At
//! 10⁶ rows the gather itself dominates: every row pays iterator and
//! branch overhead before a single flop. This module replaces both halves:
//!
//! * **Fused assembly** — [`build_columns`] walks the subgroup mask one
//!   *word* at a time ([`faircap_table::MaskView::for_each_set_word`]),
//!   decoding set bits with `trailing_zeros`, and writes each design
//!   column as a contiguous `Vec<f64>`. Unselected 64-row spans cost one
//!   comparison.
//! * **Blocked accumulation** — [`gram_columns`], [`xty_columns`],
//!   [`weighted_gram_score`] and [`arm_gram_xty`] stream column pairs in
//!   `BLOCK`-row chunks, so both operand columns stay cache-resident
//!   across the `k²/2` entry loop.
//!
//! The kernels are plain single-threaded loops: the solve parallelizes one
//! level up, across grouping patterns in Step 2, which already keeps every
//! core busy with whole estimates.
//!
//! Numerical contract: kernels accumulate *every* term in ascending row
//! order with no zero-skipping, which makes the result a pure function of
//! the operand columns. The pre-kernel implementations are preserved in
//! [`super::reference`] for the property tests and the
//! `estimator_bench` before/after measurement.
//!
//! The OLS estimator uses these kernels only as its fallback: on
//! all-categorical adjustment sets [`super::linear`] solves from integer
//! cell counts without assembling a design, and keeps the same ascending
//! row order for every floating-point sum, so both paths agree with the
//! reference bit for bit.

use super::design;
use crate::error::{CausalError, Result};
use crate::linalg::Matrix;
use faircap_table::{Column, DataFrame, Mask};

/// Row-block length of the blocked accumulation kernels. Two f64 columns
/// of one block (2 × 32 KiB) fit comfortably in L2 next to the output.
const BLOCK: usize = 4096;

/// A design matrix stored column-major: `cols()[c][r]` is the value of
/// design column `c` at (group-dense) row `r`. Column 0 is always the
/// intercept; [`build_columns`] optionally inserts the treatment
/// indicator as column 1 ahead of the covariate blocks.
#[derive(Debug, Clone)]
pub struct ColumnDesign {
    cols: Vec<Vec<f64>>,
}

impl ColumnDesign {
    /// Number of (group-dense) rows.
    pub fn n(&self) -> usize {
        self.cols.first().map_or(0, Vec::len)
    }

    /// Number of design columns (including the intercept).
    pub fn k(&self) -> usize {
        self.cols.len()
    }

    /// The columns, each of length [`Self::n`].
    pub fn cols(&self) -> &[Vec<f64>] {
        &self.cols
    }

    /// Mutable column access — matching standardizes covariate columns in
    /// place after assembly.
    pub(crate) fn cols_mut(&mut self) -> &mut [Vec<f64>] {
        &mut self.cols
    }

    /// Wrap pre-built columns (the reference implementations build theirs
    /// row by row).
    pub fn from_cols(cols: Vec<Vec<f64>>) -> ColumnDesign {
        ColumnDesign { cols }
    }
}

/// Assemble the `[1, (T,) Z…]` design over the rows of `group` in
/// column-major order with the fused word-at-a-time gather. With
/// `treated = Some(t)`, column 1 is the 0/1 treatment indicator (the OLS
/// layout); with `None` the covariate blocks start at column 1 (the
/// propensity / per-arm / matching layout).
pub fn build_columns(
    df: &DataFrame,
    adjustment: &[String],
    group: &Mask,
    treated: Option<&Mask>,
) -> Result<ColumnDesign> {
    let n = group.count();
    let (blocks, z_width) = design::build_blocks(df, adjustment, group)?;
    let mut cols = Vec::with_capacity(2 + z_width);
    cols.push(vec![1.0; n]);
    if let Some(t) = treated {
        cols.push(indicator_column(group, t));
    }
    for block in &blocks {
        cols.extend(assemble_block(block, group, n));
    }
    Ok(ColumnDesign { cols })
}

/// Columnarize one covariate block over the group's set bits.
fn assemble_block(block: &design::CovariateBlock, group: &Mask, n: usize) -> Vec<Vec<f64>> {
    match block {
        design::CovariateBlock::Numeric { values } => {
            let mut col = Vec::with_capacity(n);
            group.view().for_each_set_word(|wi, word| {
                let base = wi * 64;
                let mut w = word;
                while w != 0 {
                    col.push(values[base + w.trailing_zeros() as usize]);
                    w &= w - 1;
                }
            });
            vec![col]
        }
        design::CovariateBlock::OneHot { codes, levels } => {
            let width = levels.saturating_sub(1);
            let mut cols = vec![vec![0.0f64; n]; width];
            let mut dense = 0usize;
            group.view().for_each_set_word(|wi, word| {
                let base = wi * 64;
                let mut w = word;
                while w != 0 {
                    let code = codes[base + w.trailing_zeros() as usize];
                    // level 0 is the dropped reference level.
                    if code != u32::MAX && code > 0 {
                        cols[code as usize - 1][dense] = 1.0;
                    }
                    dense += 1;
                    w &= w - 1;
                }
            });
            cols
        }
    }
}

/// The 0/1 indicator of `of` restricted to the set rows of `group`, as a
/// dense f64 column (word-fused: `of`'s word is combined with the group
/// word in a register).
fn indicator_column(group: &Mask, of: &Mask) -> Vec<f64> {
    let of_words = of.as_words();
    let mut col = Vec::with_capacity(group.count());
    group.view().for_each_set_word(|wi, word| {
        let t = of_words[wi];
        let mut w = word;
        while w != 0 {
            let b = w.trailing_zeros();
            col.push(((t >> b) & 1) as f64);
            w &= w - 1;
        }
    });
    col
}

/// The boolean indicator of `of` restricted to the set rows of `group`
/// (dense, group order).
pub fn gather_indicator(group: &Mask, of: &Mask) -> Vec<bool> {
    let of_words = of.as_words();
    let mut out = Vec::with_capacity(group.count());
    group.view().for_each_set_word(|wi, word| {
        let t = of_words[wi];
        let mut w = word;
        while w != 0 {
            let b = w.trailing_zeros();
            out.push((t >> b) & 1 == 1);
            w &= w - 1;
        }
    });
    out
}

/// Outcome values over the set rows of `group` (dense, group order), or a
/// typed error naming the column when any cell is non-numeric.
pub fn gather_outcome(df: &DataFrame, outcome: &str, group: &Mask) -> Result<Vec<f64>> {
    Ok(match df.column(outcome)? {
        Column::Int(v) => gather_rows(group, |i| v[i] as f64),
        Column::Float(v) => gather_rows(group, |i| v[i]),
        Column::Bool(v) => gather_rows(group, |i| if v[i] { 1.0 } else { 0.0 }),
        Column::Cat(_) if group.any() => {
            return Err(CausalError::Estimation(format!(
                "outcome `{outcome}` is not numeric"
            )))
        }
        Column::Cat(_) => Vec::new(),
    })
}

/// `value(row)` for every set row of `group` (dense, group order).
fn gather_rows(group: &Mask, value: impl Fn(usize) -> f64) -> Vec<f64> {
    let mut out = Vec::with_capacity(group.count());
    group.view().for_each_set_word(|wi, word| {
        let base = wi * 64;
        let mut w = word;
        while w != 0 {
            out.push(value(base + w.trailing_zeros() as usize));
            w &= w - 1;
        }
    });
    out
}

/// `XᵀX` over column-major design columns: blocked, no zero-skipping,
/// ascending-row accumulation per entry. The entries `(i ≤ j, j)` of
/// column `j` accumulate together; the symmetric mirror is copied from
/// them. Bit-identical to [`super::reference::gram_naive`] for any block
/// size.
pub fn gram_columns(cols: &[Vec<f64>]) -> Matrix {
    let k = cols.len();
    let mut g = Matrix::zeros(k, k);
    for (j, cj) in cols.iter().enumerate() {
        let n = cj.len();
        let mut acc = vec![0.0f64; j + 1];
        let mut start = 0;
        while start < n {
            let end = (start + BLOCK).min(n);
            let cj_b = &cj[start..end];
            for (i, slot) in acc.iter_mut().enumerate() {
                let ci_b = &cols[i][start..end];
                let mut a = *slot;
                for (x, y) in ci_b.iter().zip(cj_b) {
                    a += x * y;
                }
                *slot = a;
            }
            start = end;
        }
        set_symmetric(&mut g, j, &acc);
    }
    g
}

/// `Xᵀy` over column-major design columns (blocked, no zero-skipping).
pub fn xty_columns(cols: &[Vec<f64>], y: &[f64]) -> Vec<f64> {
    let dot = |cj: &Vec<f64>| {
        let mut a = 0.0f64;
        let mut start = 0;
        while start < cj.len() {
            let end = (start + BLOCK).min(cj.len());
            for (x, v) in cj[start..end].iter().zip(&y[start..end]) {
                a += x * v;
            }
            start = end;
        }
        a
    };
    cols.iter().map(dot).collect()
}

/// One IRLS step's reductions in a single fused pass: the weighted gram
/// `Xᵀdiag(w)X` and the score `Xᵀr`. Gram column `j` and score entry `j`
/// accumulate together; each gram term accumulates as `(w·xᵢ)·xⱼ` in
/// ascending row order.
pub fn weighted_gram_score(cols: &[Vec<f64>], w: &[f64], resid: &[f64]) -> (Matrix, Vec<f64>) {
    let k = cols.len();
    let mut g = Matrix::zeros(k, k);
    let mut score = vec![0.0f64; k];
    for (j, cj) in cols.iter().enumerate() {
        let n = cj.len();
        let mut acc = vec![0.0f64; j + 1];
        let mut s = 0.0f64;
        let mut start = 0;
        while start < n {
            let end = (start + BLOCK).min(n);
            let cj_b = &cj[start..end];
            let w_b = &w[start..end];
            for (i, slot) in acc.iter_mut().enumerate() {
                let ci_b = &cols[i][start..end];
                let mut a = *slot;
                for ((x, y), wv) in ci_b.iter().zip(cj_b).zip(w_b) {
                    a += (wv * x) * y;
                }
                *slot = a;
            }
            for (x, r) in cj_b.iter().zip(&resid[start..end]) {
                s += x * r;
            }
            start = end;
        }
        set_symmetric(&mut g, j, &acc);
        score[j] = s;
    }
    (g, score)
}

/// Arm-restricted `XᵀX` and `Xᵀy` in one fused pass, with the arm
/// expressed as a dense 0/1 f64 indicator (`m`): gram terms accumulate as
/// `(m·xᵢ)·xⱼ`, the right-hand side as `(m·xⱼ)·y`. Rows outside the arm
/// contribute exact zeros, so the result equals the arm-only reduction
/// while the loop stays branch-free and streaming.
pub fn arm_gram_xty(cols: &[Vec<f64>], y: &[f64], arm: &[f64]) -> (Matrix, Vec<f64>) {
    let k = cols.len();
    let mut g = Matrix::zeros(k, k);
    let mut xty = vec![0.0f64; k];
    for (j, cj) in cols.iter().enumerate() {
        let n = cj.len();
        let mut acc = vec![0.0f64; j + 1];
        let mut rhs = 0.0f64;
        let mut start = 0;
        while start < n {
            let end = (start + BLOCK).min(n);
            let cj_b = &cj[start..end];
            let m_b = &arm[start..end];
            for (i, slot) in acc.iter_mut().enumerate() {
                let ci_b = &cols[i][start..end];
                let mut a = *slot;
                for ((x, y2), m) in ci_b.iter().zip(cj_b).zip(m_b) {
                    a += (m * x) * y2;
                }
                *slot = a;
            }
            for ((x, m), v) in cj_b.iter().zip(m_b).zip(&y[start..end]) {
                rhs += (m * x) * v;
            }
            start = end;
        }
        set_symmetric(&mut g, j, &acc);
        xty[j] = rhs;
    }
    (g, xty)
}

/// Store column `j`'s upper-triangle entries (`acc[i]` is entry
/// `(i, j)`) and their mirror images.
fn set_symmetric(g: &mut Matrix, j: usize, acc: &[f64]) {
    for (i, &v) in acc.iter().enumerate() {
        g.set(i, j, v);
        g.set(j, i, v);
    }
}

/// `X·β` over column-major columns: per row, terms accumulate in
/// ascending column order — the same order as a row-major dot product, so
/// fitted values are bit-identical to the per-row formulation while the
/// traversal streams one column at a time.
pub fn mat_vec_columns(cols: &[Vec<f64>], beta: &[f64]) -> Vec<f64> {
    let n = cols.first().map_or(0, Vec::len);
    let mut out = vec![0.0f64; n];
    for (col, &b) in cols.iter().zip(beta) {
        for (o, &x) in out.iter_mut().zip(col) {
            *o += x * b;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use faircap_table::DataFrame;

    fn frame() -> DataFrame {
        DataFrame::builder()
            .cat("c", &["a", "b", "c", "a", "b", "c", "a", "b"])
            .int("x", vec![5, 7, 9, 2, 4, 6, 8, 1])
            .float("y", vec![1.5, 2.5, 0.5, 3.0, 1.0, 2.0, 4.0, 0.0])
            .build()
            .unwrap()
    }

    #[test]
    fn columns_match_row_major_assembly() {
        let df = frame();
        let group = Mask::from_indices(8, &[0, 2, 3, 5, 7]);
        let treated = Mask::from_indices(8, &[0, 3, 5]);
        let adj = ["c".to_owned(), "x".to_owned()];
        let d = build_columns(&df, &adj, &group, Some(&treated)).unwrap();
        let rows: Vec<usize> = group.iter_ones().collect();
        // Row-major reference: [1, T, onehot(c), x] per group row.
        let x = design::build_intercept_design(&df, &adj, &group, &rows).unwrap();
        assert_eq!(d.n(), rows.len());
        assert_eq!(d.k(), 1 + x.cols()); // design adds the T column
        for (dense, &row) in rows.iter().enumerate() {
            assert_eq!(d.cols()[0][dense], 1.0);
            let want_t = if treated.get(row) { 1.0 } else { 0.0 };
            assert_eq!(d.cols()[1][dense], want_t);
            for c in 1..x.cols() {
                assert_eq!(d.cols()[1 + c][dense].to_bits(), x.get(dense, c).to_bits());
            }
        }
    }

    #[test]
    fn gram_matches_dense_matrix_gram() {
        // No zeros in the operands, so Matrix::gram's zero-skip never
        // fires and the two accumulation orders coincide term-for-term.
        let cols = vec![vec![1.0, 2.0, 3.0, 4.0], vec![0.5, 1.5, 2.5, 3.5]];
        let rows: Vec<Vec<f64>> = (0..4).map(|r| vec![cols[0][r], cols[1][r]]).collect();
        let row_refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
        let dense = Matrix::from_rows(&row_refs).gram();
        let g = gram_columns(&cols);
        for i in 0..2 {
            for j in 0..2 {
                assert_eq!(g.get(i, j).to_bits(), dense.get(i, j).to_bits());
            }
        }
    }

    #[test]
    fn arm_kernel_equals_filtered_reduction() {
        let cols = vec![vec![1.0; 5], vec![2.0, -1.0, 0.5, 3.0, 1.0]];
        let y = [10.0, 20.0, 30.0, 40.0, 50.0];
        let arm = [1.0, 0.0, 1.0, 0.0, 1.0];
        let (g, xty) = arm_gram_xty(&cols, &y, &arm);
        assert_eq!(g.get(0, 0), 3.0);
        assert_eq!(xty[0], 90.0);
        assert_eq!(g.get(0, 1), 2.0 + 0.5 + 1.0);
        assert_eq!(xty[1], 2.0 * 10.0 + 0.5 * 30.0 + 1.0 * 50.0);
    }
}
