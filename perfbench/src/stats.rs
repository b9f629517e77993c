//! Percentiles, medians and trimmed means.

/// The `q`-quantile (0..=1) of `values` by linear interpolation between
/// closest ranks; 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN timings"));
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The mean of `values` without the lowest and the highest `trim` share
/// of them (0.1: the interdecile mean); 0 for an empty slice.
pub fn trimmed_mean(values: &[f64], trim: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN timings"));
    let cut = ((v.len() as f64 * trim.clamp(0.0, 0.49)) as usize).min((v.len() - 1) / 2);
    let kept = &v[cut..v.len() - cut];
    kept.iter().sum::<f64>() / kept.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn trimmed_mean_drops_both_tails() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(trimmed_mean(&v, 0.0), 5.5);
        // 1 and 10 dropped
        assert_eq!(trimmed_mean(&v, 0.1), 5.5);
        let mut skewed = v.clone();
        skewed[9] = 1000.0;
        assert_eq!(trimmed_mean(&skewed, 0.1), 5.5);
        assert_eq!(trimmed_mean(&[7.0], 0.1), 7.0);
        assert_eq!(trimmed_mean(&[], 0.1), 0.0);
    }
}
