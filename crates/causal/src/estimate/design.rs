//! Shared design-matrix construction for the regression-based estimators.

use crate::error::{CausalError, Result};
use crate::linalg::Matrix;
use faircap_table::{Column, DataFrame, Mask};

/// The level rule for a categorical covariate: dictionary codes are
/// re-coded to the levels *observed inside the group*, numbered in order of
/// first appearance along ascending rows, so level 0 (the first observed)
/// is the dropped reference level. Feed it the group's rows in ascending
/// order.
pub(crate) struct LevelCoder {
    /// Dictionary code → level, `u32::MAX` for codes not seen yet.
    remap: Vec<u32>,
    levels: u32,
}

impl LevelCoder {
    /// A coder for a column with `cardinality` dictionary entries.
    pub(crate) fn new(cardinality: usize) -> LevelCoder {
        LevelCoder {
            remap: vec![u32::MAX; cardinality],
            levels: 0,
        }
    }

    /// The level of dictionary code `code`, assigning the next level on
    /// its first appearance.
    #[inline]
    pub(crate) fn level(&mut self, code: u32) -> u32 {
        let slot = &mut self.remap[code as usize];
        if *slot == u32::MAX {
            *slot = self.levels;
            self.levels += 1;
        }
        *slot
    }

    /// Number of distinct levels seen so far.
    pub(crate) fn levels(&self) -> usize {
        self.levels as usize
    }
}

/// One adjustment covariate, encoded for a design matrix.
pub(crate) enum CovariateBlock {
    /// Numeric column used directly (single design column).
    Numeric { values: Vec<f64> },
    /// Categorical column one-hot encoded with the first observed level
    /// dropped (reference level), `width = levels − 1`.
    OneHot { codes: Vec<u32>, levels: usize },
}

impl CovariateBlock {
    /// Encode a column for the rows of `group`. Categorical levels are
    /// re-coded to the levels *observed inside the group*, so unused
    /// dictionary entries don't create all-zero columns.
    pub(crate) fn build(df: &DataFrame, name: &str, group: &Mask) -> Result<CovariateBlock> {
        let col = df.column(name)?;
        match col {
            Column::Int(_) | Column::Float(_) | Column::Bool(_) => {
                let values = (0..df.n_rows())
                    .map(|i| col.get_f64(i).unwrap_or(0.0))
                    .collect();
                Ok(CovariateBlock::Numeric { values })
            }
            Column::Cat(c) => {
                let mut coder = LevelCoder::new(c.cardinality());
                for i in group.iter_ones() {
                    coder.level(c.codes()[i]);
                }
                let codes = c
                    .codes()
                    .iter()
                    .map(|&cd| coder.remap[cd as usize])
                    .collect();
                Ok(CovariateBlock::OneHot {
                    codes,
                    levels: coder.levels(),
                })
            }
        }
    }

    /// Number of design columns this covariate contributes.
    pub(crate) fn width(&self) -> usize {
        match self {
            CovariateBlock::Numeric { .. } => 1,
            CovariateBlock::OneHot { levels, .. } => levels.saturating_sub(1),
        }
    }

    /// Write the covariate's design values for `row` into `out`
    /// (pre-zeroed, `out.len() == self.width()`).
    pub(crate) fn fill(&self, row: usize, out: &mut [f64]) {
        match self {
            CovariateBlock::Numeric { values } => out[0] = values[row],
            CovariateBlock::OneHot { codes, .. } => {
                let code = codes[row];
                // level 0 is the dropped reference; levels 1.. map to columns.
                if code != u32::MAX && code > 0 {
                    out[code as usize - 1] = 1.0;
                }
            }
        }
    }
}

/// Build the full covariate design for `adjustment` over `group` rows:
/// returns the blocks and the total design width (excluding intercept and
/// treatment columns).
pub(crate) fn build_blocks(
    df: &DataFrame,
    adjustment: &[String],
    group: &Mask,
) -> Result<(Vec<CovariateBlock>, usize)> {
    let mut blocks = Vec::with_capacity(adjustment.len());
    for name in adjustment {
        blocks.push(CovariateBlock::build(df, name, group)?);
    }
    let width = blocks.iter().map(|b| b.width()).sum();
    Ok((blocks, width))
}

/// Build the `[1, Z...]` design matrix over `rows` (the group's indices in
/// order): intercept in column 0, covariate blocks from column 1 — the
/// layout shared by the propensity model, the per-arm outcome regressions,
/// and the matching metric.
pub(crate) fn build_intercept_design(
    df: &DataFrame,
    adjustment: &[String],
    group: &Mask,
    rows: &[usize],
) -> Result<Matrix> {
    let (blocks, z_width) = build_blocks(df, adjustment, group)?;
    let mut x = Matrix::zeros(rows.len(), 1 + z_width);
    for (i, &row) in rows.iter().enumerate() {
        let xr = x.row_mut(i);
        xr[0] = 1.0;
        let mut offset = 1;
        for b in &blocks {
            b.fill(row, &mut xr[offset..offset + b.width()]);
            offset += b.width();
        }
    }
    Ok(x)
}

/// Outcome values over `rows`, or a typed error naming the column when any
/// cell is non-numeric.
pub(crate) fn outcome_values(df: &DataFrame, outcome: &str, rows: &[usize]) -> Result<Vec<f64>> {
    let col = df.column(outcome)?;
    rows.iter()
        .map(|&r| {
            col.get_f64(r).ok_or_else(|| {
                CausalError::Estimation(format!("outcome `{outcome}` is not numeric"))
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use faircap_table::DataFrame;

    #[test]
    fn numeric_block_passthrough() {
        let df = DataFrame::builder()
            .int("x", vec![5, 7, 9])
            .build()
            .unwrap();
        let b = CovariateBlock::build(&df, "x", &Mask::ones(3)).unwrap();
        assert_eq!(b.width(), 1);
        let mut out = [0.0];
        b.fill(1, &mut out);
        assert_eq!(out[0], 7.0);
    }

    #[test]
    fn onehot_drops_reference_level() {
        let df = DataFrame::builder()
            .cat("c", &["a", "b", "c", "a"])
            .build()
            .unwrap();
        let b = CovariateBlock::build(&df, "c", &Mask::ones(4)).unwrap();
        assert_eq!(b.width(), 2); // 3 levels − 1 reference
        let mut out = [0.0, 0.0];
        b.fill(0, &mut out); // "a" = reference
        assert_eq!(out, [0.0, 0.0]);
        out = [0.0, 0.0];
        b.fill(1, &mut out); // "b" = level 1
        assert_eq!(out, [1.0, 0.0]);
        out = [0.0, 0.0];
        b.fill(2, &mut out); // "c" = level 2
        assert_eq!(out, [0.0, 1.0]);
    }

    #[test]
    fn onehot_recoded_within_group() {
        // "z" never appears inside the group → contributes no columns.
        let df = DataFrame::builder()
            .cat("c", &["z", "a", "b", "a"])
            .build()
            .unwrap();
        let group = Mask::from_indices(4, &[1, 2, 3]);
        let b = CovariateBlock::build(&df, "c", &group).unwrap();
        assert_eq!(b.width(), 1); // {a, b} observed → 1 column
    }

    #[test]
    fn build_blocks_totals_width() {
        let df = DataFrame::builder()
            .cat("c", &["a", "b", "a"])
            .int("x", vec![1, 2, 3])
            .build()
            .unwrap();
        let (blocks, width) = build_blocks(&df, &["c".into(), "x".into()], &Mask::ones(3)).unwrap();
        assert_eq!(blocks.len(), 2);
        assert_eq!(width, 2); // (2−1) + 1
    }
}
