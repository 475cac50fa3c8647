//! Order statistics over measured samples.

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `values` by linear interpolation
/// between closest ranks; `NaN` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Percentiles a latency may be reported at, lowest first.
const PERCENTILE_LADDER: [f64; 6] = [50.0, 90.0, 95.0, 99.0, 99.9, 99.99];

/// The highest percentile of [`PERCENTILE_LADDER`] that has at least ten of
/// `n` samples beyond it, or `None` when not even the median has.
pub fn reportable_percentile(n: usize) -> Option<f64> {
    PERCENTILE_LADDER
        .iter()
        .copied()
        .rev()
        .find(|p| n as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9)
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
fn covered(lo: u64, hi: u64, intervals: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(s, e)| (s.max(lo), e.min(hi)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for (s, e) in clipped {
        current = match current {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + current.map_or(0, |(s, e)| e - s)
}

/// Self time of a span over `[start, end]`: its duration minus the part
/// of that interval its children cover. Children may nest in each other,
/// overlap (parallel workers) or stick out of the parent; each instant is
/// subtracted at most once.
pub fn self_time(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    end.saturating_sub(start) - covered(start, end, children)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!((quantile(&v, 0.25) - 1.75).abs() < 1e-12);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn reportable_percentile_needs_ten_samples_beyond() {
        assert_eq!(reportable_percentile(0), None);
        assert_eq!(reportable_percentile(19), None);
        assert_eq!(reportable_percentile(20), Some(50.0));
        assert_eq!(reportable_percentile(99), Some(50.0));
        assert_eq!(reportable_percentile(100), Some(90.0));
        assert_eq!(reportable_percentile(199), Some(90.0));
        assert_eq!(reportable_percentile(200), Some(95.0));
        assert_eq!(reportable_percentile(999), Some(95.0));
        assert_eq!(reportable_percentile(1000), Some(99.0));
        assert_eq!(reportable_percentile(10_000), Some(99.9));
        assert_eq!(reportable_percentile(10_000_000), Some(99.99));
    }

    #[test]
    fn self_time_without_children_is_the_duration() {
        assert_eq!(self_time(10, 50, &[]), 40);
    }

    #[test]
    fn self_time_subtracts_disjoint_children() {
        assert_eq!(self_time(0, 100, &[(10, 20), (30, 60)]), 60);
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        // Two workers' children overlap on [20, 30).
        assert_eq!(self_time(0, 100, &[(10, 30), (20, 40)]), 70);
        // Identical intervals.
        assert_eq!(self_time(0, 100, &[(10, 30), (10, 30)]), 80);
    }

    #[test]
    fn self_time_counts_nested_children_once() {
        // A grandchild reported among the children lies inside its parent.
        assert_eq!(self_time(0, 100, &[(10, 50), (20, 30)]), 60);
    }

    #[test]
    fn self_time_clips_children_to_the_parent() {
        assert_eq!(self_time(10, 20, &[(0, 15), (18, 40)]), 3);
        assert_eq!(self_time(10, 20, &[(0, 5), (25, 40)]), 10);
        assert_eq!(self_time(0, 10, &[(0, 10)]), 0);
    }
}
