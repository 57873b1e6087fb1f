//! The estimator: percentiles, medians, and the min-across-passes
//! throughput figure. Part of the benchmark, identical on every commit.

/// Percentiles the picker chooses among, ascending.
const CANDIDATE_PERCENTILES: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// The highest candidate percentile that still has at least ten samples
/// beyond it (`None` below 20 samples, where not even the median does).
pub fn highest_supported_percentile(samples: usize) -> Option<f64> {
    CANDIDATE_PERCENTILES
        .iter()
        .copied()
        .rev()
        .find(|p| samples as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9)
}

/// Percentile `p` (0–100) of integer-nanosecond samples, sorted ascending.
///
/// The clock ticks in whole nanoseconds and sub-microsecond decisions tie
/// by the thousand, so the nearest-rank value moves in 1 ns steps. The tie
/// group is therefore treated as spread uniformly over `[v − ½, v + ½)` and
/// the percentile interpolated by rank within it (the grouped-data
/// percentile), which is continuous in the underlying distribution.
pub fn percentile_sorted(sorted: &[u32], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let n = sorted.len();
    let target = (p / 100.0 * n as f64).clamp(0.0, n as f64);
    let idx = (target.ceil() as usize).clamp(1, n) - 1;
    let v = sorted[idx];
    let below = sorted.partition_point(|&x| x < v);
    let through = sorted.partition_point(|&x| x <= v);
    let within = ((target - below as f64) / (through - below) as f64).clamp(0.0, 1.0);
    f64::from(v) - 0.5 + within
}

/// Median of a non-empty list (mean of the two middle values when even).
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

/// First and third quartile, as Python's `statistics.quantiles(v, n=4)`
/// (exclusive method) gives them. Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Interquartile range as a share of the median (0 for a single value).
pub fn spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values).abs().max(f64::MIN_POSITIVE)
}

/// Wall time of each trial across passes: `walls[pass][trial]` seconds.
/// The throughput estimator charges every trial its *fastest* pass, which
/// discards scheduler preemptions and frequency dips that hit one pass.
pub fn min_wall_per_trial(walls: &[Vec<f64>]) -> Vec<f64> {
    let trials = walls.first().map_or(0, Vec::len);
    (0..trials).map(|t| walls.iter().map(|pass| pass[t]).fold(f64::INFINITY, f64::min)).collect()
}

/// `events_per_s` = Σ events / Σ over trials of the minimum wall time of
/// that trial across passes.
pub fn events_per_second(events: u64, walls: &[Vec<f64>]) -> f64 {
    events as f64 / min_wall_per_trial(walls).iter().sum::<f64>()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn picker_needs_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(999), Some(90.0));
        assert_eq!(highest_supported_percentile(1_000), Some(99.0));
        assert_eq!(highest_supported_percentile(6_800), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
        assert_eq!(highest_supported_percentile(2_000_000), Some(99.99));
    }

    #[test]
    fn percentile_matches_nearest_rank_within_half_a_tick() {
        let sorted: Vec<u32> = (1..=1000).collect();
        for p in [50.0, 90.0, 99.0] {
            let nearest = f64::from(sorted[(p / 100.0 * 1000.0_f64).ceil() as usize - 1]);
            assert!((percentile_sorted(&sorted, p) - nearest).abs() <= 0.5);
        }
        assert!((percentile_sorted(&[7], 99.0) - 7.0).abs() <= 0.5);
    }

    #[test]
    fn percentile_interpolates_inside_a_tie_group() {
        // 100 samples: 40 at 10 ns, 60 at 11 ns. The median rank (50) sits
        // 10/60 of the way through the 11 ns group.
        let mut sorted = vec![10u32; 40];
        sorted.extend(vec![11u32; 60]);
        let p50 = percentile_sorted(&sorted, 50.0);
        assert!((p50 - (10.5 + 10.0 / 60.0)).abs() < 1e-12, "{p50}");
        // Monotone in p.
        assert!(percentile_sorted(&sorted, 30.0) < p50);
        assert!(p50 < percentile_sorted(&sorted, 90.0));
    }

    #[test]
    fn median_and_quartiles_match_python() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[5.0]), 0.0);
    }

    #[test]
    fn estimator_takes_each_trials_fastest_pass() {
        let walls = vec![vec![1.0, 4.0], vec![2.0, 3.0], vec![1.5, 5.0]];
        assert_eq!(min_wall_per_trial(&walls), vec![1.0, 3.0]);
        assert_eq!(events_per_second(400, &walls), 100.0);
    }
}
