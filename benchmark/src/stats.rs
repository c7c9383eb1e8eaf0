//! Order statistics for the benchmark's timings.
//!
//! Every timing is reported as a nearest-rank percentile: the sample
//! value at rank `⌈p·n⌉`, never an interpolation, so a reported
//! latency is one that an operation really took. The tail percentile
//! of a workload is the highest one on [`TAIL_LADDER`] that still
//! leaves at least [`TAIL_BEYOND`] samples above its rank; with fewer
//! samples beyond it, a single hiccup would decide the number.

/// Candidate tail percentiles, in per-mille, highest first.
pub const TAIL_LADDER: [u32; 5] = [990, 950, 900, 750, 500];

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The 1-based nearest rank of percentile `per_mille` in `n` samples.
pub fn rank(n: usize, per_mille: u32) -> usize {
    (n * per_mille as usize).div_ceil(1000).clamp(1, n.max(1))
}

/// Nearest-rank percentile of an ascending sample.
///
/// Panics on an empty sample: every caller measured at least one
/// operation before asking.
pub fn percentile<T: Copy>(sorted: &[T], per_mille: u32) -> T {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(sorted.len(), per_mille) - 1]
}

/// The tail percentile (per-mille) reported for `n` samples: the
/// highest ladder entry with at least [`TAIL_BEYOND`] samples beyond
/// its rank, or the median when even that is out of reach.
pub fn tail_per_mille(n: usize) -> u32 {
    TAIL_LADDER.into_iter().find(|&p| n - rank(n, p) >= TAIL_BEYOND).unwrap_or(500)
}

/// Median of a sample of durations in nanoseconds (sorts a copy).
pub fn median_ns(samples: &[u64]) -> u64 {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    percentile(&sorted, 500)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_real_samples() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&sorted, 500), 50);
        assert_eq!(percentile(&sorted, 990), 99);
        assert_eq!(percentile(&sorted, 1000), 100);
        assert_eq!(percentile(&sorted, 0), 1, "rank never drops below the first sample");
        // Odd count: the median is the middle sample, not a mean.
        assert_eq!(percentile(&[1, 2, 10], 500), 2);
        // The rank rounds up: p95 of 21 samples is the 20th.
        let small: Vec<u64> = (1..=21).collect();
        assert_eq!(percentile(&small, 950), 20);
    }

    #[test]
    fn tail_rule_keeps_ten_samples_beyond() {
        // p99 needs ≥ 1000 samples, p95 ≥ 200, p90 ≥ 100, p75 ≥ 40.
        assert_eq!(tail_per_mille(400_000), 990);
        assert_eq!(tail_per_mille(1000), 990);
        assert_eq!(tail_per_mille(999), 950);
        assert_eq!(tail_per_mille(200), 950);
        assert_eq!(tail_per_mille(199), 900);
        assert_eq!(tail_per_mille(100), 900);
        assert_eq!(tail_per_mille(40), 750);
        assert_eq!(tail_per_mille(39), 500);
        assert_eq!(tail_per_mille(3), 500);
        for n in [40usize, 100, 200, 1000, 12_345] {
            let p = tail_per_mille(n);
            assert!(n - rank(n, p) >= TAIL_BEYOND, "n={n} p={p}");
        }
    }

    #[test]
    fn median_of_unsorted_durations() {
        assert_eq!(median_ns(&[30, 10, 20]), 20);
        assert_eq!(median_ns(&[5]), 5);
    }
}
