//! Order statistics over small samples.

/// The `p`-th percentile (`0.0..=100.0`) by linear interpolation between
/// closest ranks; 0 for an empty sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// `numerator / denominator`, 0 when nothing was counted.
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate_and_ignore_input_order() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[4.0]), 4.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        let hundred: Vec<f64> = (1..=101).rev().map(f64::from).collect();
        assert_eq!(percentile(&hundred, 95.0), 96.0);
        assert_eq!(percentile(&hundred, 0.0), 1.0);
        assert_eq!(percentile(&hundred, 100.0), 101.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }
}
