//! Order statistics over per-campaign samples, and the digest the
//! default-seed verdict check compares.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND_PERCENTILE: usize = 10;

/// Median of `values` (mean of the two middle values for an even
/// count); 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The nearest-rank 90th percentile of `values`, reported only when at
/// least [`MIN_BEYOND_PERCENTILE`] samples lie beyond it (100 samples or
/// more); `None` otherwise.
pub fn p90(values: &[f64]) -> Option<f64> {
    let sorted = sorted(values);
    let rank = nearest_rank(sorted.len(), 90);
    if rank == 0 || sorted.len() - rank < MIN_BEYOND_PERCENTILE {
        return None;
    }
    Some(sorted[rank - 1])
}

/// How many of `n` samples lie beyond the nearest-rank `pct`th
/// percentile.
pub fn beyond_percentile(n: usize, pct: usize) -> usize {
    n - nearest_rank(n, pct)
}

/// 1-based nearest rank of the `pct`th percentile among `n` samples
/// (0 when `n` is 0).
fn nearest_rank(n: usize, pct: usize) -> usize {
    (n * pct).div_ceil(100)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// FNV-1a over the given texts, each terminated by a zero byte.
pub fn digest<'a>(texts: impl IntoIterator<Item = &'a str>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for text in texts {
        for &b in text.as_bytes().iter().chain(&[0u8]) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn digest_separates_texts() {
        assert_ne!(digest(["ab", "c"]), digest(["a", "bc"]));
        assert_eq!(digest(["x"]), digest(["x"]));
    }
}
