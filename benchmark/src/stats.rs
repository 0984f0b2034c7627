//! Order statistics the report is built from: medians, the quartile
//! spread, and latency quantiles with the "ten samples beyond" rule.

/// Median of `values` (mean of the two middle values for an even
/// count). `0.0` for an empty slice.
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

/// Distance between the first and third quartile as a share of the
/// median, with quartiles as Python's `statistics.quantiles(v, n=4)`
/// (the exclusive method) gives them — the spread the acceptance check
/// applies between runs, applied here between the rotations of one run.
pub fn iqr_over_median(values: &[f64]) -> f64 {
    let n = values.len();
    let mid = median(values);
    if n < 2 || mid == 0.0 {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let quartile = |k: usize| {
        // Position k(n+1)/4 in 1-based ranks, clamped into the sample.
        let pos = (k * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    (quartile(3) - quartile(1)) / mid
}

/// The `q`-quantile of integer nanosecond samples, interpolated inside
/// the group of samples tied at the quantile's value (the grouped-data
/// quantile: a value `v` stands for the interval `v ± 0.5`). Clock
/// ticks are coarser than the differences between runs on the
/// sub-microsecond paths, and a plain order statistic would read the
/// same integer on every run.
pub fn quantile_ns(sorted: &[u32], q: f64) -> f64 {
    let n = sorted.len();
    if n == 0 {
        return 0.0;
    }
    let target = q.clamp(0.0, 1.0) * n as f64;
    let at = (target.floor() as usize).min(n - 1);
    let v = sorted[at];
    let below = sorted.partition_point(|&x| x < v);
    let tied = sorted.partition_point(|&x| x <= v) - below;
    let frac = ((target - below as f64) / tied as f64).clamp(0.0, 1.0);
    f64::from(v) - 0.5 + frac
}

/// The highest of p99, p95 and p90 that still has at least ten of `n`
/// samples beyond it (the median for fewer than a hundred samples).
pub fn tail_quantile(n: usize) -> f64 {
    match n {
        1000.. => 0.99,
        200.. => 0.95,
        100.. => 0.9,
        _ => 0.5,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_ignores_one_outlier() {
        assert_eq!(median(&[10.0, 11.0, 500.0, 9.0, 10.5]), 10.5);
        assert_eq!(median(&[1.0, 3.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartile_spread_matches_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5], n=4) == [1.5, 3.0, 4.5]
        let spread = iqr_over_median(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert!((spread - 1.0).abs() < 1e-12, "{spread}");
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_over_median(&ten) - 1.0).abs() < 1e-12);
        assert_eq!(iqr_over_median(&[7.0]), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_the_quantile() {
        assert_eq!(tail_quantile(1000), 0.99);
        assert_eq!(tail_quantile(100_000), 0.99);
        // 999 samples cannot carry a p99: nine beyond.
        assert_eq!(tail_quantile(999), 0.95);
        assert_eq!(tail_quantile(200), 0.95);
        assert_eq!(tail_quantile(199), 0.9);
        assert_eq!(tail_quantile(99), 0.5);
        for n in [100, 199, 200, 999, 1000, 5000] {
            let beyond = n as f64 * (1.0 - tail_quantile(n));
            assert!(beyond >= 10.0 - 1e-9, "n={n}: {beyond} beyond");
        }
    }

    #[test]
    fn grouped_quantile_interpolates_inside_ties() {
        // Half the samples tie at 100: the median sits inside the group
        // and moves with how many samples lie below it.
        let mut a = vec![90u32; 40];
        a.extend(vec![100u32; 60]);
        let mut b = vec![90u32; 45];
        b.extend(vec![100u32; 55]);
        let (qa, qb) = (quantile_ns(&a, 0.5), quantile_ns(&b, 0.5));
        assert!(qa > qb, "{qa} vs {qb}");
        assert!((99.5..=100.5).contains(&qa) && (99.5..=100.5).contains(&qb));
        // Distinct values reduce to the order statistic, half a tick wide.
        let distinct: Vec<u32> = (0..100).collect();
        assert!((quantile_ns(&distinct, 0.5) - 50.0).abs() <= 0.5);
    }
}
