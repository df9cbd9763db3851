//! The arithmetic behind every reported figure, kept apart from the
//! workloads so the unit tests below pin it down.

/// A tail percentile is reported only when at least this many samples
/// lie beyond it; fewer make it a single-outlier reading.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// One MiB, the unit of every throughput figure.
pub const MIB: f64 = 1024.0 * 1024.0;

/// Quantile `q` (0..=1) of `samples` by linear interpolation between
/// the two nearest ranks (the "type 7" rule of most statistics
/// packages). `None` when there are no samples.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let h = (sorted.len() - 1) as f64 * q.clamp(0.0, 1.0);
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (h - lo as f64))
}

/// Median of `samples`; `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    quantile(samples, 0.5)
}

/// How many of `n` samples lie strictly beyond the `q` quantile's rank.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).min(n)
}

/// True when percentile `q` of `n` samples has at least
/// [`MIN_TAIL_SAMPLES`] samples beyond it.
pub fn tail_supported(n: usize, q: f64) -> bool {
    samples_beyond(n, q) >= MIN_TAIL_SAMPLES
}

/// Failed operations as a share of those attempted (0 when nothing was
/// attempted).
pub fn fail_frac(failed: u64, attempted: u64) -> f64 {
    if attempted == 0 {
        return 0.0;
    }
    failed as f64 / attempted as f64
}

/// Verified payload MiB per second of wall time.
pub fn goodput_mib_s(verified_bytes: u64, wall_s: f64) -> f64 {
    verified_bytes as f64 / MIB / wall_s
}

/// Process CPU seconds per GiB of verified payload.
pub fn cpu_s_per_gib(cpu_s: f64, verified_bytes: u64) -> f64 {
    cpu_s / (verified_bytes as f64 / (1024.0 * MIB))
}

/// Estimated share of wall time the compression thread was busy:
/// `Σ buffers[kind][level] × buffer_bytes ÷ speed[kind][level]`, divided
/// by `wall_s`. Level 0 (store) costs nothing; a level with buffers but
/// no measured speed is an error in the caller, reported as `None`.
pub fn est_busy_frac(
    buffers: &[[u64; 11]],
    speed_mib_s: &[[f64; 11]],
    buffer_bytes: usize,
    wall_s: f64,
) -> Option<f64> {
    let mut busy_s = 0.0;
    for (counts, speeds) in buffers.iter().zip(speed_mib_s) {
        for level in 1..11 {
            if counts[level] == 0 {
                continue;
            }
            if speeds[level].is_nan() || speeds[level] <= 0.0 {
                return None;
            }
            busy_s += counts[level] as f64 * buffer_bytes as f64 / MIB / speeds[level];
        }
    }
    Some(busy_s / wall_s)
}

/// Buffer-weighted mean compression level.
pub fn mean_level(buffers: &[u64; 11]) -> f64 {
    let total: u64 = buffers.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let weighted: u64 = buffers
        .iter()
        .enumerate()
        .map(|(level, n)| level as u64 * n)
        .sum();
    weighted as f64 / total as f64
}

/// Number of times consecutive buffers changed level.
pub fn level_changes(levels: impl IntoIterator<Item = u8>) -> u64 {
    let mut prev = None;
    let mut changes = 0;
    for level in levels {
        if prev.is_some_and(|p| p != level) {
            changes += 1;
        }
        prev = Some(level);
    }
    changes
}

/// Ratio that reads 0 instead of NaN when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_ranks() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), Some(5.5));
        assert!((quantile(&v, 0.9).unwrap() - 9.1).abs() < 1e-12);
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&v, 1.0), Some(10.0));
        // Order of the input does not matter.
        let rev: Vec<f64> = v.iter().rev().copied().collect();
        assert_eq!(quantile(&rev, 0.5), Some(5.5));
    }

    #[test]
    fn quantile_edge_cases() {
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(median(&[7.0]), Some(7.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        // Matches Python's statistics.quantiles(method="inclusive").
        let v = [1.0, 2.0, 4.0, 8.0];
        assert_eq!(quantile(&v, 0.25), Some(1.75));
        assert_eq!(quantile(&v, 0.75), Some(5.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(samples_beyond(100, 0.9), 10);
        assert!(tail_supported(100, 0.9));
        assert!(!tail_supported(99, 0.9));
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert!(tail_supported(1000, 0.99));
        assert!(!tail_supported(999, 0.99));
        assert_eq!(samples_beyond(0, 0.5), 0);
        assert_eq!(samples_beyond(5, 1.0), 0);
    }

    #[test]
    fn fail_frac_counts_against_attempts() {
        assert_eq!(fail_frac(0, 0), 0.0);
        assert_eq!(fail_frac(0, 10), 0.0);
        assert_eq!(fail_frac(1, 4), 0.25);
    }

    #[test]
    fn goodput_and_cpu_units() {
        assert_eq!(goodput_mib_s(8 << 20, 2.0), 4.0);
        assert_eq!(cpu_s_per_gib(3.0, 1 << 29), 6.0);
    }

    #[test]
    fn est_busy_frac_sums_levels_and_kinds() {
        let mut buffers = [[0u64; 11]; 2];
        let mut speeds = [[0.0f64; 11]; 2];
        // 10 level-0 buffers cost nothing even without a speed.
        buffers[0][0] = 10;
        // 4 buffers of 1 MiB at 2 MiB/s = 2 s.
        buffers[0][2] = 4;
        speeds[0][2] = 2.0;
        // 2 buffers of 1 MiB at 1 MiB/s = 2 s.
        buffers[1][10] = 2;
        speeds[1][10] = 1.0;
        let f = est_busy_frac(&buffers, &speeds, 1 << 20, 8.0).unwrap();
        assert!((f - 0.5).abs() < 1e-12);
        // A used level without a speed cannot be estimated.
        buffers[1][5] = 1;
        assert_eq!(est_busy_frac(&buffers, &speeds, 1 << 20, 8.0), None);
    }

    #[test]
    fn level_summaries() {
        let mut b = [0u64; 11];
        b[2] = 3;
        b[6] = 1;
        assert_eq!(mean_level(&b), 3.0);
        assert_eq!(mean_level(&[0; 11]), 0.0);
        assert_eq!(level_changes([2, 2, 3, 3, 2, 1]), 3);
        assert_eq!(level_changes([]), 0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }
}
