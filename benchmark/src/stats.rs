//! Order statistics over measured samples.

/// The `q`-quantile of `values` (`0 ≤ q ≤ 1`), interpolating linearly
/// between the two closest ranks (the "type 7" estimator of R and NumPy).
/// Returns `NaN` for an empty sample.
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

/// The median of `values` (`NaN` when empty).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The arithmetic mean of `values` (`NaN` when empty).
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// A tail latency that one host stall cannot move on its own: the samples
/// `(t_s, value)` are cut into consecutive windows of `window_s` seconds
/// by `t_s`, the 99th percentile of each window that holds at least
/// `MIN_WINDOW` samples (so ten or more lie beyond its p99) is taken, and
/// the median of those per-window p99s is returned. Falls back to the
/// plain p99 of all samples when no window is full enough.
pub fn windowed_p99(samples: &[(f64, f64)], window_s: f64) -> f64 {
    const MIN_WINDOW: usize = 1000;
    let mut windows: Vec<Vec<f64>> = Vec::new();
    for &(t, value) in samples {
        let w = (t / window_s).floor().max(0.0) as usize;
        if windows.len() <= w {
            windows.resize_with(w + 1, Vec::new);
        }
        windows[w].push(value);
    }
    let p99s: Vec<f64> = windows
        .iter()
        .filter(|w| w.len() >= MIN_WINDOW)
        .map(|w| quantile(w, 0.99))
        .collect();
    if p99s.is_empty() {
        let all: Vec<f64> = samples.iter().map(|&(_, v)| v).collect();
        return quantile(&all, 0.99);
    }
    median(&p99s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.25), 1.75);
        assert_eq!(quantile(&[7.0], 0.9), 7.0);
        assert!(quantile(&[], 0.5).is_nan());
        // matches Python's statistics.quantiles(method="inclusive")
        let w: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quantile(&w, 0.9) - 9.1).abs() < 1e-12);
    }

    #[test]
    fn mean_of_samples() {
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert!(mean(&[]).is_nan());
    }

    #[test]
    fn windowed_p99_ignores_a_stall_in_one_window() {
        // five 2-s windows of 1000 samples each, values 0..999; one window
        // also holds a huge stall sample that sets that window's p99
        let mut samples = Vec::new();
        for w in 0..5 {
            for i in 0..1000 {
                let t = w as f64 * 2.0 + i as f64 * 0.001;
                samples.push((t, i as f64));
            }
        }
        samples[1500].1 = 1e9;
        let p = windowed_p99(&samples, 2.0);
        // the median window p99 is the clean windows' p99
        let clean: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(p, quantile(&clean, 0.99));
        let plain: Vec<f64> = samples.iter().map(|&(_, v)| v).collect();
        assert!(quantile(&plain, 0.99) >= p);
    }

    #[test]
    fn windowed_p99_falls_back_to_plain_p99_on_short_runs() {
        let samples: Vec<(f64, f64)> = (0..100).map(|i| (i as f64 * 0.01, i as f64)).collect();
        let plain: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(windowed_p99(&samples, 2.0), quantile(&plain, 0.99));
    }
}
