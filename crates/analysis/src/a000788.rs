//! OEIS A000788: total number of 1-bits in the binary expansions of `0..=n`.
//!
//! The paper identifies the worst-case total radius of the largest-ID
//! algorithm with this sequence and uses its `Θ(n log n)` growth to conclude
//! that the average radius is logarithmic. This module provides the direct
//! definition, a fast closed-form style evaluation, and the asymptotic
//! envelope.

/// Number of 1-bits of `x`.
fn bit_count(x: u64) -> u64 {
    u64::from(x.count_ones())
}

/// A000788(n): `Σ_{k=0..n} popcount(k)`, computed by summation in `O(n)`.
///
/// Use [`total_bit_count`] for large arguments; this function exists as an
/// obviously-correct reference implementation.
#[must_use]
pub fn total_bit_count_naive(n: u64) -> u64 {
    (0..=n).map(bit_count).sum()
}

/// A000788(n): `Σ_{k=0..n} popcount(k)`, computed digit by digit in
/// `O(log n)` time.
///
/// For every bit position `i`, the count of integers in `[0, n]` with bit `i`
/// set is `(n+1)/2^{i+1} * 2^i + max(0, (n+1) mod 2^{i+1} - 2^i)`.
///
/// # Examples
///
/// ```
/// use avglocal_analysis::a000788::total_bit_count;
///
/// assert_eq!(total_bit_count(7), 12);
/// assert_eq!(total_bit_count(0), 0);
/// ```
#[must_use]
pub fn total_bit_count(n: u64) -> u64 {
    let m = n + 1; // count over [0, n] = [0, m)
    let mut total = 0u64;
    let mut i = 0u32;
    while (1u64 << i) <= n.max(1) && i < 64 {
        let block = 1u64 << (i + 1);
        let full_blocks = m / block;
        let remainder = m % block;
        total += full_blocks * (1u64 << i) + remainder.saturating_sub(1u64 << i);
        if i == 63 {
            break;
        }
        i += 1;
    }
    total
}

/// The leading-order asymptotic `n·log2(n)/2` of A000788.
///
/// Returns 0.0 for `n <= 1`.
#[must_use]
pub fn asymptotic_estimate(n: u64) -> f64 {
    if n <= 1 {
        return 0.0;
    }
    let x = n as f64;
    0.5 * x * x.log2()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefix_matches_oeis() {
        // The first values of A000788 as listed by OEIS.
        let prefix = [0u64, 1, 2, 4, 5, 7, 9, 12, 13, 15, 17, 20, 22, 25, 28, 32, 33, 35, 37, 40];
        for (n, &expected) in prefix.iter().enumerate() {
            assert_eq!(total_bit_count(n as u64), expected, "n = {n}");
            assert_eq!(total_bit_count_naive(n as u64), expected, "n = {n}");
        }
    }

    #[test]
    fn fast_matches_naive() {
        for n in 0..2048u64 {
            assert_eq!(total_bit_count(n), total_bit_count_naive(n), "n = {n}");
        }
    }

    #[test]
    fn fast_handles_larger_inputs() {
        // Spot checks against the naive sum at moderately large n.
        for n in [10_000u64, 65_535, 65_536, 123_456] {
            assert_eq!(total_bit_count(n), total_bit_count_naive(n), "n = {n}");
        }
    }

    #[test]
    fn divide_and_conquer_recurrence() {
        // A(2n) = A(n) + A(n-1) + n and A(2n+1) = 2·A(n) + n + 1.
        let a = total_bit_count;
        for n in 1..512u64 {
            assert_eq!(a(2 * n), a(n) + a(n - 1) + n, "n = {n}");
            assert_eq!(a(2 * n + 1), 2 * a(n) + n + 1, "n = {n}");
        }
    }

    #[test]
    fn asymptotic_envelope_is_tight() {
        for &n in &[1u64 << 10, 1 << 14, 1 << 18] {
            let exact = total_bit_count(n) as f64;
            let estimate = asymptotic_estimate(n);
            let ratio = exact / estimate;
            assert!(ratio > 0.95 && ratio < 1.15, "ratio at n={n} was {ratio}");
        }
        assert_eq!(asymptotic_estimate(0), 0.0);
        assert_eq!(asymptotic_estimate(1), 0.0);
    }

    #[test]
    fn bit_count_basics() {
        assert_eq!(bit_count(0), 0);
        assert_eq!(bit_count(0b1011), 3);
        assert_eq!(bit_count(u64::MAX), 64);
    }
}
