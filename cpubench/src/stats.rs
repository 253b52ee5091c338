//! Order statistics over raw samples. Latency-like metrics are reported as
//! a median and as the highest percentile that still has at least
//! [`TAIL_MIN_BEYOND`] distinct samples beyond it, so a tail figure is never
//! read off a handful of points.
//!
//! A per-frame latency comes from the serving call that emitted the frame,
//! and one call (a tick) can emit several frames. So the frame metrics are
//! taken over `(call value, frames it emitted)` pairs: percentiles are
//! weighted by frames, while the tail rule counts distinct calls, because
//! a tick repeated once per stream is still one measurement.

/// Distinct samples a reported tail percentile must leave beyond it.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The tail levels tried, highest first; the median is the fallback.
const TAIL_LEVELS: [f64; 3] = [0.999, 0.99, 0.9];

/// A tail figure: the level it was read at, its value, and the number of
/// distinct samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub level: f64,
    pub value: f64,
    pub beyond: usize,
}

/// Sorts `(value, weight)` pairs by value, dropping zero weights.
pub fn sorted_weighted(samples: &[(f64, u32)]) -> Vec<(f64, u32)> {
    let mut sorted: Vec<(f64, u32)> = samples.iter().copied().filter(|s| s.1 > 0).collect();
    sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
    sorted
}

/// The weighted nearest-rank `p`-quantile (`p` in `[0, 1]`) of `sorted`,
/// as [`sorted_weighted`] returns it: the sample that holds the
/// `⌈p·W⌉`-th unit of the total weight `W` (the first for `p = 0`).
/// Returns the sample's index, or `None` for an empty slice.
fn rank_weighted(sorted: &[(f64, u32)], p: f64) -> Option<usize> {
    let total: u64 = sorted.iter().map(|s| u64::from(s.1)).sum();
    if total == 0 {
        return None;
    }
    let rank = ((p.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
    let mut seen = 0u64;
    sorted.iter().position(|s| {
        seen += u64::from(s.1);
        seen >= rank
    })
}

/// The weighted `p`-quantile of `samples`; NaN when there are none.
pub fn percentile_weighted(samples: &[(f64, u32)], p: f64) -> f64 {
    let sorted = sorted_weighted(samples);
    rank_weighted(&sorted, p).map_or(f64::NAN, |i| sorted[i].0)
}

/// The highest of the tail levels (p99.9, p99, p90) whose weighted
/// quantile leaves at least [`TAIL_MIN_BEYOND`] distinct samples after it;
/// with too few samples for any level, the median.
pub fn tail_weighted(samples: &[(f64, u32)]) -> Tail {
    let sorted = sorted_weighted(samples);
    let at = |level: f64| {
        rank_weighted(&sorted, level).map(|i| Tail {
            level,
            value: sorted[i].0,
            beyond: sorted.len() - 1 - i,
        })
    };
    TAIL_LEVELS
        .iter()
        .filter_map(|&level| at(level))
        .find(|t| t.beyond >= TAIL_MIN_BEYOND)
        .or_else(|| at(0.5))
        .unwrap_or(Tail { level: 0.5, value: f64::NAN, beyond: 0 })
}

/// The p99 if at least [`TAIL_MIN_BEYOND`] distinct samples lie beyond
/// it, else the highest lower level that qualifies (see
/// [`tail_weighted`]). Used for the fixed `*_p99` metric names. A level
/// above p99 that qualifies means the p99 qualifies too.
pub fn p99_or_lower_weighted(samples: &[(f64, u32)]) -> Tail {
    let tail = tail_weighted(samples);
    if tail.level < 0.99 {
        return tail;
    }
    let sorted = sorted_weighted(samples);
    let i = rank_weighted(&sorted, 0.99).expect("a qualifying tail has samples");
    Tail { level: 0.99, value: sorted[i].0, beyond: sorted.len() - 1 - i }
}

fn unit_weights(values: &[f64]) -> Vec<(f64, u32)> {
    values.iter().map(|&v| (v, 1)).collect()
}

/// The nearest-rank `p`-quantile of `values`: the `⌈p·n⌉`-th smallest (the
/// smallest for `p = 0`). NaN for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    percentile_weighted(&unit_weights(values), p)
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// [`p99_or_lower_weighted`] with every value counted once.
pub fn p99_or_lower(values: &[f64]) -> f64 {
    p99_or_lower_weighted(&unit_weights(values)).value
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 5.0);
        assert_eq!(percentile(&v, 0.9), 9.0);
        assert_eq!(percentile(&v, 0.91), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 10.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert!(percentile(&[], 0.5).is_nan());
    }

    #[test]
    fn percentile_ignores_input_order() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&v, 0.8), 4.0);
    }

    #[test]
    fn weights_count_frames() {
        // A call that emitted 3 frames holds 3 of the 4 frames.
        let calls = [(10.0, 3), (1.0, 1)];
        assert_eq!(percentile_weighted(&calls, 0.25), 1.0);
        assert_eq!(percentile_weighted(&calls, 0.5), 10.0);
        // A call that emitted nothing is not a frame.
        assert_eq!(percentile_weighted(&[(99.0, 0), (2.0, 1)], 1.0), 2.0);
        assert!(percentile_weighted(&[(1.0, 0)], 0.5).is_nan());
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let tail = |v: &[f64]| {
            let t = tail_weighted(&unit_weights(v));
            (t.level, t.value)
        };
        // 1000 samples: p99 has rank 990, 10 beyond it; p99.9 has 1.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v), (0.99, 990.0));
        // 10 000 samples: p99.9 has rank 9990 and 10 beyond.
        let v: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(tail(&v), (0.999, 9990.0));
        // 999 samples: p99 has rank 990 and only 9 beyond; p90 qualifies.
        let v: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(tail(&v), (0.9, 900.0));
        // 5 samples: nothing qualifies, fall back to the median.
        assert_eq!(tail(&[1.0, 2.0, 3.0, 4.0, 5.0]), (0.5, 3.0));
    }

    #[test]
    fn tail_counts_distinct_calls_not_frames() {
        // 1000 calls of 4 frames each: the p99 frame is the 3960th of
        // 4000, held by call 990, with 10 calls beyond.
        let calls: Vec<(f64, u32)> = (1..=1000).map(|v| (f64::from(v), 4)).collect();
        let t = p99_or_lower_weighted(&calls);
        assert_eq!((t.level, t.value, t.beyond), (0.99, 990.0, 10));
        // 500 calls of 8 frames: 4000 frames, but the p99 call has only 5
        // distinct calls beyond it, so the p90 is reported.
        let calls: Vec<(f64, u32)> = (1..=500).map(|v| (f64::from(v), 8)).collect();
        let t = p99_or_lower_weighted(&calls);
        assert_eq!((t.level, t.value, t.beyond), (0.9, 450.0, 50));
    }

    #[test]
    fn p99_name_falls_back_with_few_samples() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(p99_or_lower(&v), 990.0);
        // 10 000 samples qualify for p99.9; the p99 name still reads p99.
        let v: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(p99_or_lower(&v), 9900.0);
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(p99_or_lower(&v), 180.0);
    }
}
