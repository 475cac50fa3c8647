#![allow(clippy::needless_range_loop)] // index-based loops are clearer in numeric kernels

//! Small dense linear algebra: exactly what OLS with a few dozen regressors
//! needs — symmetric positive-definite solves via Cholesky, with a ridge
//! fallback for rank-deficient designs (collinear one-hot blocks).

use crate::error::{CausalError, Result};

/// A dense row-major matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    data: Vec<f64>,
    rows: usize,
    cols: usize,
}

impl Matrix {
    /// Zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Matrix {
        Matrix {
            data: vec![0.0; rows * cols],
            rows,
            cols,
        }
    }

    /// Build from a nested-slice literal (rows of equal length).
    pub fn from_rows(rows: &[&[f64]]) -> Matrix {
        let r = rows.len();
        let c = rows.first().map(|x| x.len()).unwrap_or(0);
        let mut m = Matrix::zeros(r, c);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), c, "ragged rows");
            m.data[i * c..(i + 1) * c].copy_from_slice(row);
        }
        m
    }

    /// Rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element access.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        self.data[r * self.cols + c]
    }

    /// Element assignment.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        self.data[r * self.cols + c] = v;
    }

    /// Mutable row slice.
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Row slice.
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// `Xᵀ X` (Gram matrix), `cols × cols`.
    pub fn gram(&self) -> Matrix {
        let k = self.cols;
        let mut g = Matrix::zeros(k, k);
        for r in 0..self.rows {
            let row = self.row(r);
            for i in 0..k {
                let xi = row[i];
                if xi == 0.0 {
                    continue;
                }
                for j in i..k {
                    g.data[i * k + j] += xi * row[j];
                }
            }
        }
        // mirror upper to lower
        for i in 0..k {
            for j in 0..i {
                g.data[i * k + j] = g.data[j * k + i];
            }
        }
        g
    }

    /// `Xᵀ y`, length `cols`.
    pub fn t_mul_vec(&self, y: &[f64]) -> Vec<f64> {
        assert_eq!(y.len(), self.rows, "dimension mismatch");
        let mut out = vec![0.0; self.cols];
        for r in 0..self.rows {
            let row = self.row(r);
            let yr = y[r];
            if yr == 0.0 {
                continue;
            }
            for (o, x) in out.iter_mut().zip(row) {
                *o += x * yr;
            }
        }
        out
    }

    /// `X v`, length `rows`.
    pub fn mul_vec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(v.len(), self.cols, "dimension mismatch");
        (0..self.rows)
            .map(|r| self.row(r).iter().zip(v).map(|(a, b)| a * b).sum())
            .collect()
    }
}

/// Cholesky factorization `A = L Lᵀ` of a symmetric positive-definite matrix.
///
/// Returns the lower-triangular factor, or an error when the matrix is not
/// positive definite.
pub fn cholesky(a: &Matrix) -> Result<Matrix> {
    assert_eq!(a.rows, a.cols, "cholesky needs a square matrix");
    let n = a.rows;
    let mut l = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..=i {
            let mut sum = a.get(i, j);
            for k in 0..j {
                sum -= l.get(i, k) * l.get(j, k);
            }
            if i == j {
                if sum <= 0.0 {
                    return Err(CausalError::Estimation(format!(
                        "matrix not positive definite at pivot {i} (value {sum:.3e})"
                    )));
                }
                l.set(i, j, sum.sqrt());
            } else {
                l.set(i, j, sum / l.get(j, j));
            }
        }
    }
    Ok(l)
}

/// Cholesky factor of an SPD matrix, ridge-stabilized: when `A` is
/// singular (rank-deficient designs) escalating jitter is added to the
/// diagonal until the factorization succeeds — the standard remedy for
/// collinear one-hot encodings. Factor once, then run any number of
/// [`cholesky_solve`]s against the same (possibly ridged) matrix.
pub(crate) fn spd_factor(a: &Matrix) -> Result<Matrix> {
    if let Ok(l) = cholesky(a) {
        return Ok(l);
    }
    let n = a.rows;
    let scale = (0..n).map(|i| a.get(i, i)).fold(0.0f64, f64::max).max(1.0);
    for mag in [1e-10, 1e-8, 1e-6, 1e-4] {
        let mut aj = a.clone();
        for i in 0..n {
            aj.set(i, i, aj.get(i, i) + scale * mag);
        }
        if let Ok(l) = cholesky(&aj) {
            return Ok(l);
        }
    }
    Err(CausalError::Estimation(
        "linear system unsolvable even with ridge regularization".into(),
    ))
}

/// Solve `A x = b` for SPD `A`: the ridge-stabilized Cholesky factor of
/// `A` (rank-deficient designs get escalating diagonal jitter), then
/// forward/back substitution.
pub fn solve_spd(a: &Matrix, b: &[f64]) -> Result<Vec<f64>> {
    Ok(cholesky_solve(&spd_factor(a)?, b))
}

/// Forward/back substitution with a Cholesky factor `L`: solves
/// `L Lᵀ x = b`.
pub(crate) fn cholesky_solve(l: &Matrix, b: &[f64]) -> Vec<f64> {
    let n = l.rows();
    // L y = b
    let mut y = vec![0.0; n];
    for i in 0..n {
        let mut sum = b[i];
        for k in 0..i {
            sum -= l.get(i, k) * y[k];
        }
        y[i] = sum / l.get(i, i);
    }
    // Lᵀ x = y
    let mut x = vec![0.0; n];
    for i in (0..n).rev() {
        let mut sum = y[i];
        for k in i + 1..n {
            sum -= l.get(k, i) * x[k];
        }
        x[i] = sum / l.get(i, i);
    }
    x
}

/// Inverse of an SPD matrix: one ridge-stabilized Cholesky factorization
/// (as in [`solve_spd`]), then one forward/back substitution per unit
/// vector.
pub fn inverse_spd(a: &Matrix) -> Result<Matrix> {
    let l = spd_factor(a)?;
    let n = a.rows;
    let mut inv = Matrix::zeros(n, n);
    let mut e = vec![0.0; n];
    for col in 0..n {
        e[col] = 1.0;
        let x = cholesky_solve(&l, &e);
        for r in 0..n {
            inv.set(r, col, x[r]);
        }
        e[col] = 0.0;
    }
    Ok(inv)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9 * (1.0 + b.abs())
    }

    #[test]
    fn gram_and_tmulvec() {
        let x = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let g = x.gram();
        // XᵀX = [[35, 44], [44, 56]]
        assert!(close(g.get(0, 0), 35.0));
        assert!(close(g.get(0, 1), 44.0));
        assert!(close(g.get(1, 0), 44.0));
        assert!(close(g.get(1, 1), 56.0));
        let xty = x.t_mul_vec(&[1.0, 1.0, 1.0]);
        assert!(close(xty[0], 9.0) && close(xty[1], 12.0));
        let xv = x.mul_vec(&[1.0, -1.0]);
        assert_eq!(xv, vec![-1.0, -1.0, -1.0]);
    }

    #[test]
    fn cholesky_known_factor() {
        // A = [[4, 2], [2, 3]] → L = [[2, 0], [1, √2]]
        let a = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]]);
        let l = cholesky(&a).unwrap();
        assert!(close(l.get(0, 0), 2.0));
        assert!(close(l.get(1, 0), 1.0));
        assert!(close(l.get(1, 1), 2f64.sqrt()));
    }

    #[test]
    fn solve_recovers_solution() {
        let a = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]]);
        // pick x = [1, -2] → b = A x = [0, -4]
        let x = solve_spd(&a, &[0.0, -4.0]).unwrap();
        assert!(close(x[0], 1.0));
        assert!(close(x[1], -2.0));
    }

    #[test]
    fn singular_falls_back_to_ridge() {
        // Perfectly collinear: rank 1.
        let a = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0]]);
        let x = solve_spd(&a, &[2.0, 2.0]).unwrap();
        // ridge solution splits mass: x0 + x1 ≈ 2
        assert!((x[0] + x[1] - 2.0).abs() < 1e-3);
    }

    #[test]
    fn inverse_factors_once_like_column_solves() {
        // Singular, so every path goes through the ridge ladder; the single
        // factorization must give the same bits as one solve per column.
        let a = Matrix::from_rows(&[&[4.0, 2.0, 2.0], &[2.0, 2.0, 0.0], &[2.0, 0.0, 2.0]]);
        assert!(cholesky(&a).is_err());
        let inv = inverse_spd(&a).unwrap();
        for col in 0..3 {
            let mut e = [0.0; 3];
            e[col] = 1.0;
            let x = solve_spd(&a, &e).unwrap();
            for r in 0..3 {
                assert_eq!(inv.get(r, col).to_bits(), x[r].to_bits());
            }
        }
    }

    #[test]
    fn not_positive_definite_rejected() {
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        assert!(cholesky(&a).is_err());
    }

    #[test]
    fn inverse_spd_roundtrip() {
        let a = Matrix::from_rows(&[&[4.0, 2.0, 0.5], &[2.0, 3.0, 1.0], &[0.5, 1.0, 2.0]]);
        let inv = inverse_spd(&a).unwrap();
        // A · A⁻¹ = I
        for i in 0..3 {
            for j in 0..3 {
                let mut s = 0.0;
                for k in 0..3 {
                    s += a.get(i, k) * inv.get(k, j);
                }
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((s - expect).abs() < 1e-9, "({i},{j}) = {s}");
            }
        }
    }

    #[test]
    fn ols_normal_equations_end_to_end() {
        // y = 3 + 2·x exactly.
        let xs = [0.0, 1.0, 2.0, 3.0, 4.0];
        let rows: Vec<Vec<f64>> = xs.iter().map(|&x| vec![1.0, x]).collect();
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let x = Matrix::from_rows(&refs);
        let y: Vec<f64> = xs.iter().map(|&v| 3.0 + 2.0 * v).collect();
        let beta = solve_spd(&x.gram(), &x.t_mul_vec(&y)).unwrap();
        assert!(close(beta[0], 3.0));
        assert!(close(beta[1], 2.0));
    }
}
