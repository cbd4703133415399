//! Order statistics over measured samples.

/// The `q`-quantile (`0.0..=1.0`) of `xs` by linear interpolation between
/// order statistics; `0.0` for an empty sample.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `xs`.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The 99th percentile of `xs`, or `None` when fewer than ten samples
/// lie beyond it (fewer than 1,000 samples).
pub fn p99(xs: &[f64]) -> Option<f64> {
    (xs.len() >= 1000).then(|| quantile(xs, 0.99))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let small: Vec<f64> = (0..999).map(f64::from).collect();
        assert_eq!(p99(&small), None);
        let big: Vec<f64> = (0..1000).map(f64::from).collect();
        assert!((p99(&big).unwrap() - 989.01).abs() < 1e-9);
    }
}
