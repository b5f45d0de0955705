//! Sample statistics: percentiles, the floor statistic, batch timing.

/// The percentile below which the host-time floor is read. Interference
/// from a neighbour on a shared box only ever adds time, so the low tail
/// of a run's samples repeats from run to run where its median does not
/// (see `NOISE.md`).
pub const FLOOR_PERCENTILE: f64 = 5.0;

/// The `p`-th percentile (0..=100) of `samples` by linear interpolation
/// between closest ranks. Returns 0 for an empty sample.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = (p / 100.0).clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// The floor of a sample: its [`FLOOR_PERCENTILE`]-th percentile.
pub fn floor(samples: &[f64]) -> f64 {
    percentile(samples, FLOOR_PERCENTILE)
}

/// The median of a sample.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Per-operation milliseconds of one timed batch: `batch` operations ran
/// back to back between `start_ns` (the first rank to leave the barrier)
/// and `end_ns` (the last rank to finish).
pub fn batch_ms_per_op(start_ns: u64, end_ns: u64, batch: usize) -> f64 {
    end_ns.saturating_sub(start_ns) as f64 / 1e6 / batch.max(1) as f64
}

/// Bytes over seconds, in GB/s (10^9 bytes).
pub fn gbs(bytes: usize, secs: f64) -> f64 {
    if secs > 0.0 {
        bytes as f64 / secs / 1e9
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_of_a_known_sample() {
        let s: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 5.0), 6.0);
        assert_eq!(percentile(&s, 50.0), 51.0);
        assert_eq!(percentile(&s, 99.0), 100.0);
        assert_eq!(percentile(&s, 100.0), 101.0);
        // Interpolated between ranks, and independent of input order.
        assert_eq!(percentile(&[4.0, 1.0, 3.0, 2.0], 50.0), 2.5);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[7.0], 5.0), 7.0);
    }

    #[test]
    fn the_floor_ignores_slow_outliers() {
        // 90 quiet samples and 10 contended ones three times slower: the
        // floor stays on the quiet level, the mean does not.
        let mut s = vec![5.0; 90];
        s.extend(vec![15.0; 10]);
        assert_eq!(floor(&s), 5.0);
        assert_eq!(median(&s), 5.0);
        // Half the run contended: the median moves, the floor does not.
        let mut s = vec![5.0; 45];
        s.extend(vec![7.0; 55]);
        assert_eq!(floor(&s), 5.0);
        assert_eq!(median(&s), 7.0);
    }

    #[test]
    fn batch_arithmetic() {
        // 32 operations in 640 µs are 20 µs = 0.02 ms each.
        assert_eq!(batch_ms_per_op(1_000, 641_000, 32), 0.02);
        assert_eq!(batch_ms_per_op(0, 5_000_000, 1), 5.0);
        // A clock that ran backwards clamps to zero instead of wrapping.
        assert_eq!(batch_ms_per_op(10, 5, 32), 0.0);
        assert_eq!(gbs(4 << 20, 0.001), 4.194304);
    }
}
