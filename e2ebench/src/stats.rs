//! Percentiles under the benchmark's reporting rule, and medians.
//!
//! The rule: a tail percentile is reported only where at least
//! [`MIN_BEYOND`] samples lie beyond it, and always together with its
//! sample count. Asked for p99 of 500 samples, [`tail`] answers with the
//! highest percentile the sample supports (p98) and says so.

/// Samples that must lie strictly beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// One percentile read off a sorted sample.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile actually reported, as a fraction (0.99 = p99).
    pub q: f64,
    /// The sample value at that percentile (nearest rank).
    pub value: u64,
    /// Sample count.
    pub n: usize,
    /// Samples strictly beyond the reported value's rank.
    pub beyond: usize,
}

impl Tail {
    /// `true` iff the reported percentile is the one asked for.
    pub fn is(&self, want: f64) -> bool {
        (self.q - want).abs() < 1e-12
    }

    /// `p99`, `p98.3`, … — the label of the reported percentile.
    pub fn label(&self) -> String {
        let p = self.q * 100.0;
        if (p - p.round()).abs() < 1e-9 {
            format!("p{}", p.round())
        } else {
            format!("p{p:.1}")
        }
    }
}

/// The nearest-rank `want` percentile of `sorted`, lowered to the highest
/// percentile with at least [`MIN_BEYOND`] samples beyond it. `None`
/// when the sample is too small for any tail (`n <= MIN_BEYOND`).
pub fn tail<T: Copy + Into<u64>>(sorted: &[T], want: f64) -> Option<Tail> {
    let n = sorted.len();
    if n <= MIN_BEYOND {
        return None;
    }
    let wanted_rank = ((want * n as f64).ceil() as usize).clamp(1, n);
    let rank = wanted_rank.min(n - MIN_BEYOND);
    let q = if rank == wanted_rank { want } else { rank as f64 / n as f64 };
    Some(Tail { q, value: sorted[rank - 1].into(), n, beyond: n - rank })
}

/// The nearest-rank median of a sorted sample (0 when empty).
pub fn median_sorted<T: Copy + Into<u64>>(sorted: &[T]) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[sorted.len().div_ceil(2) - 1].into()
}

/// The median of `xs` (mean of the middle pair for even counts; 0 when
/// empty).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: u64) -> Vec<u64> {
        (1..=n).collect()
    }

    #[test]
    fn p99_with_enough_samples_is_exact() {
        let t = tail(&ramp(2000), 0.99).unwrap();
        assert!(t.is(0.99));
        assert_eq!(t.value, 1980);
        assert_eq!((t.n, t.beyond), (2000, 20));
        assert_eq!(t.label(), "p99");
    }

    #[test]
    fn p99_at_the_boundary_keeps_ten_beyond() {
        let t = tail(&ramp(1000), 0.99).unwrap();
        assert!(t.is(0.99));
        assert_eq!((t.value, t.beyond), (990, 10));
    }

    #[test]
    fn small_samples_report_the_highest_supported_percentile() {
        let t = tail(&ramp(500), 0.99).unwrap();
        assert!(!t.is(0.99));
        assert!((t.q - 0.98).abs() < 1e-12);
        assert_eq!((t.value, t.n, t.beyond), (490, 500, 10));
        assert_eq!(t.label(), "p98");
        let t = tail(&ramp(600), 0.99).unwrap();
        assert_eq!((t.value, t.beyond), (590, 10));
        assert_eq!(t.label(), "p98.3");
    }

    #[test]
    fn too_few_samples_have_no_tail() {
        assert_eq!(tail(&ramp(10), 0.5), None);
        assert!(tail(&ramp(11), 0.99).is_some_and(|t| t.value == 1 && t.beyond == 10));
    }

    #[test]
    fn medians() {
        assert_eq!(median_sorted(&ramp(5)), 3);
        assert_eq!(median_sorted(&ramp(4)), 2);
        assert_eq!(median_sorted::<u64>(&[]), 0);
        assert_eq!(median_sorted(&[7u32, 8, 9]), 8);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
