//! Exact order statistics over the samples a run keeps.

/// The `q`-quantile (0..=1) of an ascending-sorted slice by the
/// nearest-rank rule: the smallest sample with at least `q` of the samples
/// at or below it. 0 for an empty slice.
pub fn percentile_sorted<T: Copy + Into<f64>>(sorted: &[T], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1].into()
}

/// Median of unsorted values (mean of the two middle ones for an even
/// count). 0 for no values.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile, exactly as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) gives them — the
/// rule the driver applies to the spread of ten runs. Needs two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |i: usize| {
        // Python: j = i*(n+1)//4 clamped to 1..n-1, delta = i*(n+1) - j*4.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((at(1), at(3)))
}

/// Interquartile distance as a share of the median.
pub fn iqr_spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let m = median(values);
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

/// (max − min) ÷ median.
pub fn range_spread(values: &[f64]) -> Option<f64> {
    let m = median(values);
    if values.is_empty() || m == 0.0 {
        return None;
    }
    let max = values.iter().copied().fold(f64::MIN, f64::max);
    let min = values.iter().copied().fold(f64::MAX, f64::min);
    Some((max - min) / m.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_matches_a_sorted_reference() {
        // 1..=1000 shuffled deterministically, then sorted by the caller.
        let mut v: Vec<u32> = (1..=1000u32).map(|i| (i * 7919) % 1000 + 1).collect();
        v.sort_unstable();
        assert_eq!(v, (1..=1000).collect::<Vec<u32>>());
        assert_eq!(percentile_sorted(&v, 0.50), 500.0);
        assert_eq!(percentile_sorted(&v, 0.99), 990.0);
        assert_eq!(percentile_sorted(&v, 0.9999), 1000.0);
        assert_eq!(percentile_sorted(&v, 0.0), 1.0);
        assert_eq!(percentile_sorted(&v, 1.0), 1000.0);
        assert_eq!(percentile_sorted::<u32>(&[], 0.5), 0.0);
        assert_eq!(percentile_sorted(&[7u32], 0.99), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([10, 20, 40, 80, 160], n=4) == [15.0, 40.0, 120.0]
        assert_eq!(
            quartiles(&[160.0, 10.0, 40.0, 20.0, 80.0]),
            Some((15.0, 120.0))
        );
        assert_eq!(quartiles(&[3.0]), None);
        assert_eq!(iqr_spread(&v), Some(1.0));
        assert_eq!(range_spread(&[9.0, 10.0, 11.0]), Some(0.2));
    }
}
