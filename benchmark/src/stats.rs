//! Order statistics over small samples: the percentile every latency
//! metric uses and the median / min / max every repeated metric reports.

/// The `q`-quantile (0 ≤ q ≤ 1) of `sorted` by the nearest-rank rule:
/// the smallest sample with at least `q` of the samples at or below it.
/// Nearest-rank returns a value that was measured, which keeps p99
/// honest on small windows.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sort a sample in place (no NaN can occur: every sample is a
/// difference of two `Instant`s or a counter).
pub fn sort(xs: &mut [f64]) {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in a sample"));
}

/// Median of an unsorted sample (mean of the middle two when even).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let mut v = xs.to_vec();
    sort(&mut v);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Arithmetic mean (0 for an empty sample, so a workload without, say,
/// native requests reports 0 µs of native run time).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// One metric over the repetitions of a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

impl Summary {
    pub fn of(xs: &[f64]) -> Summary {
        Summary {
            median: median(xs),
            min: xs.iter().copied().fold(f64::INFINITY, f64::min),
            max: xs.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            n: xs.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.50), 50.0);
        assert_eq!(percentile(&xs, 0.99), 99.0);
        assert_eq!(percentile(&xs, 1.0), 100.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        // 1,000 samples keep ten beyond p99.
        let ys: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&ys, 0.99), 990.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0]), 5.0);
    }

    #[test]
    fn summary_keeps_the_range() {
        let s = Summary::of(&[10.0, 30.0, 20.0]);
        assert_eq!(s, Summary { median: 20.0, min: 10.0, max: 30.0, n: 3 });
    }

    #[test]
    fn mean_of_nothing_is_zero() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }
}
