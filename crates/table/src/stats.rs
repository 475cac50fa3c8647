//! Statistical special functions and hypothesis tests.
//!
//! Everything here is implemented from scratch (no external math crates):
//! log-gamma (Lanczos), the regularized incomplete gamma and beta functions,
//! normal / chi-square / Student-t tail probabilities, Welch's t-test, and the
//! chi-square and G² independence tests used by the PC causal-discovery
//! algorithm.

/// Natural log of the gamma function, Lanczos approximation (g = 7, n = 9).
///
/// Accurate to ~1e-13 for positive arguments, which is ample for p-values.
pub fn ln_gamma(x: f64) -> f64 {
    // Coefficients from Godfrey / Numerical Recipes (g = 7).
    const COEF: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula.
        let pi = std::f64::consts::PI;
        return pi.ln() - (pi * x).sin().ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut a = COEF[0];
    let t = x + 7.5;
    for (i, &c) in COEF.iter().enumerate().skip(1) {
        a += c / (x + i as f64);
    }
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
}

/// Regularized lower incomplete gamma `P(a, x)`.
///
/// Uses the series expansion for `x < a + 1` and the continued fraction for
/// the complement otherwise.
pub fn gamma_p(a: f64, x: f64) -> f64 {
    assert!(a > 0.0, "gamma_p requires a > 0, got {a}");
    if x <= 0.0 {
        return 0.0;
    }
    if x < a + 1.0 {
        gamma_p_series(a, x)
    } else {
        1.0 - gamma_q_cf(a, x)
    }
}

/// Regularized upper incomplete gamma `Q(a, x) = 1 - P(a, x)`.
pub fn gamma_q(a: f64, x: f64) -> f64 {
    assert!(a > 0.0, "gamma_q requires a > 0, got {a}");
    if x <= 0.0 {
        return 1.0;
    }
    if x < a + 1.0 {
        1.0 - gamma_p_series(a, x)
    } else {
        gamma_q_cf(a, x)
    }
}

fn gamma_p_series(a: f64, x: f64) -> f64 {
    let mut term = 1.0 / a;
    let mut sum = term;
    let mut n = a;
    for _ in 0..500 {
        n += 1.0;
        term *= x / n;
        sum += term;
        if term.abs() < sum.abs() * 1e-15 {
            break;
        }
    }
    sum * (-x + a * x.ln() - ln_gamma(a)).exp()
}

fn gamma_q_cf(a: f64, x: f64) -> f64 {
    // Modified Lentz's method for the continued fraction representation.
    let tiny = 1e-300;
    let mut b = x + 1.0 - a;
    let mut c = 1.0 / tiny;
    let mut d = 1.0 / b;
    let mut h = d;
    for i in 1..500 {
        let an = -(i as f64) * (i as f64 - a);
        b += 2.0;
        d = an * d + b;
        if d.abs() < tiny {
            d = tiny;
        }
        c = b + an / c;
        if c.abs() < tiny {
            c = tiny;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < 1e-15 {
            break;
        }
    }
    h * (-x + a * x.ln() - ln_gamma(a)).exp()
}

/// Regularized incomplete beta `I_x(a, b)` via the Lentz continued fraction.
pub fn beta_inc(a: f64, b: f64, x: f64) -> f64 {
    assert!(a > 0.0 && b > 0.0, "beta_inc requires a, b > 0");
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    let ln_front = ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln();
    // Use the symmetry relation for faster convergence. Both branches
    // evaluate the continued fraction directly (`ln_front` is symmetric
    // under `(a, b, x) → (b, a, 1−x)`): a recursive `1 − beta_inc(b, a,
    // 1−x)` here recurses forever when `x` lands exactly on the threshold,
    // since the flipped argument then fails its threshold test too.
    if x < (a + 1.0) / (a + b + 2.0) {
        ln_front.exp() * beta_cf(a, b, x) / a
    } else {
        1.0 - ln_front.exp() * beta_cf(b, a, 1.0 - x) / b
    }
}

fn beta_cf(a: f64, b: f64, x: f64) -> f64 {
    let tiny = 1e-300;
    let qab = a + b;
    let qap = a + 1.0;
    let qam = a - 1.0;
    let mut c = 1.0;
    let mut d = 1.0 - qab * x / qap;
    if d.abs() < tiny {
        d = tiny;
    }
    d = 1.0 / d;
    let mut h = d;
    for m in 1..500 {
        let m = m as f64;
        let m2 = 2.0 * m;
        // Even step.
        let aa = m * (b - m) * x / ((qam + m2) * (a + m2));
        d = 1.0 + aa * d;
        if d.abs() < tiny {
            d = tiny;
        }
        c = 1.0 + aa / c;
        if c.abs() < tiny {
            c = tiny;
        }
        d = 1.0 / d;
        h *= d * c;
        // Odd step.
        let aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
        d = 1.0 + aa * d;
        if d.abs() < tiny {
            d = tiny;
        }
        c = 1.0 + aa / c;
        if c.abs() < tiny {
            c = tiny;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < 1e-15 {
            break;
        }
    }
    h
}

/// Standard normal CDF `Φ(x)`, via the error function identity
/// `Φ(x) = (1 + erf(x/√2)) / 2` with `erf` from the incomplete gamma.
pub fn normal_cdf(x: f64) -> f64 {
    let z = x / std::f64::consts::SQRT_2;
    let erf = if z >= 0.0 {
        gamma_p(0.5, z * z)
    } else {
        -gamma_p(0.5, z * z)
    };
    0.5 * (1.0 + erf)
}

/// Survival function of the chi-square distribution with `k` degrees of
/// freedom: `P(X ≥ x)`.
pub fn chi2_sf(x: f64, k: f64) -> f64 {
    assert!(k > 0.0, "chi2_sf requires k > 0");
    if x <= 0.0 {
        return 1.0;
    }
    gamma_q(k / 2.0, x / 2.0)
}

/// Two-sided p-value for a Student-t statistic with `df` degrees of freedom.
pub fn t_sf_two_sided(t: f64, df: f64) -> f64 {
    assert!(df > 0.0, "t_sf requires df > 0");
    let t = t.abs();
    if !t.is_finite() {
        return 0.0;
    }
    // P(|T| >= t) = I_{df/(df+t^2)}(df/2, 1/2)
    beta_inc(df / 2.0, 0.5, df / (df + t * t))
}

/// Result of a two-sample test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TestResult {
    /// Test statistic (t or chi-square/G²).
    pub statistic: f64,
    /// Degrees of freedom.
    pub df: f64,
    /// p-value.
    pub p_value: f64,
}

/// Welch's unequal-variance t-test from sufficient statistics.
///
/// `mean`, `var` (sample variance, n−1 denominator), `n` for each arm.
/// Returns `None` when either arm has fewer than 2 observations or both
/// variances are zero.
pub fn welch_t_test(
    mean1: f64,
    var1: f64,
    n1: usize,
    mean2: f64,
    var2: f64,
    n2: usize,
) -> Option<TestResult> {
    if n1 < 2 || n2 < 2 {
        return None;
    }
    let (n1f, n2f) = (n1 as f64, n2 as f64);
    let se2 = var1 / n1f + var2 / n2f;
    if se2 <= 0.0 {
        return None;
    }
    let t = (mean1 - mean2) / se2.sqrt();
    // Welch–Satterthwaite degrees of freedom.
    let df = se2 * se2 / ((var1 / n1f).powi(2) / (n1f - 1.0) + (var2 / n2f).powi(2) / (n2f - 1.0));
    Some(TestResult {
        statistic: t,
        df,
        p_value: t_sf_two_sided(t, df),
    })
}

/// G² (log-likelihood ratio) test of independence on an `r × c`
/// contingency table given in row-major order. Returns `None` for
/// degenerate tables (fewer than two non-empty rows or columns).
pub fn g2_independence(table: &[u64], rows: usize, cols: usize) -> Option<TestResult> {
    assert_eq!(table.len(), rows * cols, "table shape mismatch");
    let mut row_sum = vec![0u64; rows];
    let mut col_sum = vec![0u64; cols];
    let mut total = 0u64;
    for r in 0..rows {
        for c in 0..cols {
            let v = table[r * cols + c];
            row_sum[r] += v;
            col_sum[c] += v;
            total += v;
        }
    }
    if total == 0 {
        return None;
    }
    // Degrees of freedom use only non-empty rows/columns, matching the
    // standard treatment of structural zeros in CI testing.
    let eff_rows = row_sum.iter().filter(|&&s| s > 0).count();
    let eff_cols = col_sum.iter().filter(|&&s| s > 0).count();
    if eff_rows < 2 || eff_cols < 2 {
        return None;
    }
    let df = ((eff_rows - 1) * (eff_cols - 1)) as f64;
    let mut stat = 0.0;
    for r in 0..rows {
        for c in 0..cols {
            if row_sum[r] == 0 || col_sum[c] == 0 {
                continue;
            }
            let expected = row_sum[r] as f64 * col_sum[c] as f64 / total as f64;
            let observed = table[r * cols + c] as f64;
            if observed > 0.0 {
                stat += 2.0 * observed * (observed / expected).ln();
            }
        }
    }
    Some(TestResult {
        statistic: stat,
        df,
        p_value: chi2_sf(stat, df),
    })
}

/// Sample mean and variance (n−1 denominator) of a slice.
pub fn mean_var(xs: &[f64]) -> (f64, f64) {
    let n = xs.len();
    if n == 0 {
        return (f64::NAN, f64::NAN);
    }
    let mean = xs.iter().sum::<f64>() / n as f64;
    if n < 2 {
        return (mean, 0.0);
    }
    let ss: f64 = xs.iter().map(|x| (x - mean) * (x - mean)).sum();
    (mean, ss / (n as f64 - 1.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol * (1.0 + b.abs())
    }

    #[test]
    fn ln_gamma_known_values() {
        // Γ(1)=1, Γ(2)=1, Γ(5)=24, Γ(0.5)=√π
        assert!(close(ln_gamma(1.0), 0.0, 1e-12));
        assert!(close(ln_gamma(2.0), 0.0, 1e-12));
        assert!(close(ln_gamma(5.0), 24f64.ln(), 1e-12));
        assert!(close(
            ln_gamma(0.5),
            std::f64::consts::PI.sqrt().ln(),
            1e-12
        ));
        // ln Γ(10.3): cross-checked against Stirling's series
        // (10.3−0.5)·ln 10.3 − 10.3 + ln(2π)/2 + 1/(12·10.3) ≈ 13.48204.
        assert!(close(ln_gamma(10.3), 13.482_036_786_138_4, 1e-10));
    }

    #[test]
    fn gamma_p_q_complementary() {
        for &(a, x) in &[(0.5, 0.3), (2.0, 1.7), (5.0, 9.0), (10.0, 3.0)] {
            let p = gamma_p(a, x);
            let q = gamma_q(a, x);
            assert!(close(p + q, 1.0, 1e-12), "a={a} x={x}");
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn gamma_p_known_values() {
        // P(1, x) = 1 - e^{-x}
        assert!(close(gamma_p(1.0, 2.0), 1.0 - (-2.0f64).exp(), 1e-12));
        // chi2 cdf with k=2 at x=2 → P(1,1)
        assert!(close(gamma_p(1.0, 1.0), 1.0 - (-1.0f64).exp(), 1e-12));
    }

    #[test]
    fn chi2_sf_reference_values() {
        // scipy.stats.chi2.sf(3.84, 1) ≈ 0.050043521248705147
        assert!(close(chi2_sf(3.84, 1.0), 0.050_043_521_248_705, 1e-9));
        // For k = 2, the chi-square SF is exactly e^{−x/2}.
        assert!(close(chi2_sf(5.99, 2.0), (-2.995f64).exp(), 1e-12));
        // sf at 0 is 1
        assert_eq!(chi2_sf(0.0, 4.0), 1.0);
    }

    #[test]
    fn normal_cdf_reference_values() {
        assert!(close(normal_cdf(0.0), 0.5, 1e-12));
        // Φ(1.96) ≈ 0.9750021048517795
        assert!(close(normal_cdf(1.96), 0.975_002_104_851_779, 1e-9));
        assert!(close(normal_cdf(-1.96), 1.0 - 0.975_002_104_851_779, 1e-9));
        assert!(normal_cdf(8.0) > 0.999_999);
    }

    #[test]
    fn beta_inc_reference_values() {
        // I_x(1,1) = x
        assert!(close(beta_inc(1.0, 1.0, 0.3), 0.3, 1e-12));
        // I_x(2,2) = 3x² − 2x³
        let x: f64 = 0.4;
        assert!(close(
            beta_inc(2.0, 2.0, x),
            3.0 * x * x - 2.0 * x * x * x,
            1e-12
        ));
        assert_eq!(beta_inc(2.0, 3.0, 0.0), 0.0);
        assert_eq!(beta_inc(2.0, 3.0, 1.0), 1.0);
    }

    #[test]
    fn beta_inc_at_the_symmetry_threshold_terminates() {
        // x exactly at (a+1)/(a+b+2) used to recurse forever through the
        // reflection identity (caught live: a German-credit solve produced
        // a t-statistic landing exactly on the threshold). I_0.5(1,1) = 0.5
        // is the simplest instance: the threshold is (1+1)/(1+1+2) = 0.5.
        assert!(close(beta_inc(1.0, 1.0, 0.5), 0.5, 1e-12));
        // Symmetric-parameter midpoints are always exactly the threshold.
        for ab in [0.5, 1.0, 2.5, 7.0] {
            assert!(close(beta_inc(ab, ab, 0.5), 0.5, 1e-10), "a = b = {ab}");
        }
        // And the t-distribution shape (a = df/2, b = 1/2) at its threshold.
        let (a, b) = (4.5, 0.5);
        let x = (a + 1.0) / (a + b + 2.0);
        let v = beta_inc(a, b, x);
        assert!(v.is_finite() && (0.0..=1.0).contains(&v));
        // Continuity across the threshold.
        let eps = 1e-9;
        assert!(close(beta_inc(a, b, x - eps), v, 1e-6));
        assert!(close(beta_inc(a, b, x + eps), v, 1e-6));
    }

    #[test]
    fn t_two_sided_reference_values() {
        // Verified against direct Simpson integration of the t-density
        // (see `t_two_sided_matches_numeric_integration`).
        assert!(close(t_sf_two_sided(2.0, 10.0), 0.073_388_034_770_25, 1e-9));
        // symmetric in sign
        assert!(close(
            t_sf_two_sided(-2.0, 10.0),
            t_sf_two_sided(2.0, 10.0),
            1e-14
        ));
        // large df approaches the normal: p(1.96, big) ≈ 0.05
        assert!(close(t_sf_two_sided(1.96, 1e6), 0.05, 1e-3));
    }

    #[test]
    fn welch_t_test_basic() {
        // Equal distributions → small |t|, p near 1.
        let r = welch_t_test(10.0, 4.0, 50, 10.0, 4.0, 50).unwrap();
        assert!(r.statistic.abs() < 1e-12);
        assert!(close(r.p_value, 1.0, 1e-9));
        // Clearly separated means → tiny p.
        let r = welch_t_test(10.0, 1.0, 100, 12.0, 1.0, 100).unwrap();
        assert!(r.p_value < 1e-9);
        assert!(r.statistic < 0.0);
        // Degenerate inputs.
        assert!(welch_t_test(1.0, 0.0, 1, 2.0, 0.0, 50).is_none());
        assert!(welch_t_test(1.0, 0.0, 10, 1.0, 0.0, 10).is_none());
    }

    #[test]
    fn welch_df_matches_reference() {
        // Hand computation: se² = 4/30 + 9/40 = 0.3583…,
        // t = −1/√se² = −1.670538…, Welch–Satterthwaite df = 67.18776.
        let r = welch_t_test(10.0, 4.0, 30, 11.0, 9.0, 40).unwrap();
        assert!(close(r.statistic, -1.670_538_139, 1e-7));
        assert!(close(r.df, 67.187_759, 1e-5));
    }

    #[test]
    fn t_two_sided_matches_numeric_integration() {
        // Independent check of beta_inc: integrate the t-density tail with
        // Simpson's rule and compare to the closed form.
        for &(t, df) in &[(1.0f64, 5.0f64), (2.0, 10.0), (2.5, 30.0)] {
            let c = (ln_gamma((df + 1.0) / 2.0)
                - ln_gamma(df / 2.0)
                - 0.5 * (df * std::f64::consts::PI).ln())
            .exp();
            let dens = |x: f64| c * (1.0 + x * x / df).powf(-(df + 1.0) / 2.0);
            let (a, b, n) = (t, 150.0, 200_000usize);
            let h = (b - a) / n as f64;
            let mut s = dens(a) + dens(b);
            for i in 1..n {
                let x = a + i as f64 * h;
                s += if i % 2 == 1 { 4.0 } else { 2.0 } * dens(x);
            }
            let numeric = 2.0 * s * h / 3.0;
            assert!(
                close(t_sf_two_sided(t, df), numeric, 1e-7),
                "t={t} df={df}: {} vs {numeric}",
                t_sf_two_sided(t, df)
            );
        }
    }

    #[test]
    fn g2_independence_independent_table() {
        // Perfectly proportional table → statistic 0, p = 1.
        let t = [10, 20, 30, 60];
        let r = g2_independence(&t, 2, 2).unwrap();
        assert!(r.statistic.abs() < 1e-9);
        assert!(close(r.p_value, 1.0, 1e-9));
    }

    #[test]
    fn g2_independence_dependent_table() {
        let t = [50, 5, 5, 50];
        let r = g2_independence(&t, 2, 2).unwrap();
        assert!(r.p_value < 1e-9);
        assert_eq!(r.df, 1.0);
    }

    #[test]
    fn contingency_degenerate_margins() {
        // One empty row → cannot test.
        let t = [0, 0, 5, 5];
        assert!(g2_independence(&t, 2, 2).is_none());
        let t = [0, 0, 0, 0];
        assert!(g2_independence(&t, 2, 2).is_none());
    }

    #[test]
    fn g2_zero_cells_do_not_nan() {
        let t = [10, 0, 0, 10];
        let r = g2_independence(&t, 2, 2).unwrap();
        assert!(r.statistic.is_finite());
        assert!(r.p_value < 0.01);
    }

    #[test]
    fn mean_var_basic() {
        let (m, v) = mean_var(&[1.0, 2.0, 3.0, 4.0]);
        assert!(close(m, 2.5, 1e-12));
        assert!(close(v, 5.0 / 3.0, 1e-12));
        let (m, v) = mean_var(&[7.0]);
        assert_eq!(m, 7.0);
        assert_eq!(v, 0.0);
        assert!(mean_var(&[]).0.is_nan());
    }
}
