//! The paper's Section 2 recurrence for the worst-case total radius.
//!
//! For the largest-ID algorithm on a segment (path) of `p` vertices, let
//! `a(p)` be the maximum over identifier permutations of the *sum* of the
//! radii. The paper derives
//!
//! ```text
//! a(p) = max_{1 <= k <= ceil(p/2)} { k + a(k-1) + a(p-k) },   a(0)=0, a(1)=1,
//! ```
//!
//! by splitting the segment at the position `k` of the largest identifier
//! (which must reach the nearer endpoint, at cost `k`), and observing that
//! the two remaining sub-segments are independent. The sequence coincides
//! with OEIS A000788 (total number of 1-bits in the binary expansions of
//! `0..=n`) and is `Θ(n log n)`; both facts are checked in the tests.

/// Computes `a(0..=n)` with dynamic programming in `O(n^2)` time.
///
/// The returned vector has length `n + 1`, with `a[p]` the worst-case total
/// radius over a `p`-vertex segment.
///
/// # Examples
///
/// ```
/// use avglocal_analysis::recurrence::segment_worst_totals;
///
/// let a = segment_worst_totals(7);
/// assert_eq!(a, vec![0, 1, 2, 4, 5, 7, 9, 12]);
/// ```
#[must_use]
pub fn segment_worst_totals(n: usize) -> Vec<u64> {
    let mut a = vec![0u64; n + 1];
    if n >= 1 {
        a[1] = 1;
    }
    for p in 2..=n {
        let mut best = 0u64;
        for k in 1..=p.div_ceil(2) {
            let candidate = k as u64 + a[k - 1] + a[p - k];
            best = best.max(candidate);
        }
        a[p] = best;
    }
    a
}

/// For every `p`, a maximising split position `k` of the recurrence (the
/// distance of the segment's largest identifier from the nearer endpoint in a
/// worst-case permutation).
///
/// The returned vector has length `n + 1`; entries 0 and 1 are 0 by
/// convention (no split is needed).
fn worst_split_positions(n: usize) -> Vec<usize> {
    let a = segment_worst_totals(n);
    let mut split = vec![0usize; n + 1];
    for p in 2..=n {
        let mut best_val = 0u64;
        let mut best_k = 1usize;
        for k in 1..=p.div_ceil(2) {
            let candidate = k as u64 + a[k - 1] + a[p - k];
            if candidate > best_val {
                best_val = candidate;
                best_k = k;
            }
        }
        split[p] = best_k;
    }
    split
}

/// Builds an explicit worst-case identifier permutation for a `p`-vertex
/// segment, realising the total radius `a(p)`.
///
/// The construction follows the recurrence: place the largest identifier at
/// the maximising split position `k` (1-based distance from the left
/// endpoint), then recursively fill the left part (of length `k-1`) and the
/// right part (of length `p-k`) with the next identifiers. Identifiers are
/// `0..p`, larger meaning "bigger ID"; the returned vector maps positions to
/// identifiers.
///
/// Note the recurrence is symmetric, so this is *a* worst case, not the only
/// one.
#[must_use]
pub fn worst_case_segment_assignment(p: usize) -> Vec<u64> {
    let mut ids: Vec<u64> = vec![0; p];
    // Identifiers are handed out from the largest (p-1) downwards.
    let mut next_id = p as u64;
    let splits = worst_split_positions(p);
    fill_segment(&mut ids, 0, p, &mut next_id, &splits);
    ids
}

/// The scheduler-adversarial ring arrangement shared by the skewed
/// scheduling bench and the determinism tests: the worst-case segment
/// arrangement (realising `a(p)`, see [`worst_case_segment_assignment`])
/// packed into the first quarter of an `n`-cycle, an ascending filler over
/// the rest, and the global maximum at position `n - 1` (adjacent, around
/// the ring, to the block — so the block's internal peaks survive).
///
/// The block's nodes average `Θ(log n)` largest-ID radius while the filler
/// averages 1, so a static contiguous partition of the node indices hands
/// one thread `Θ(n log n)` work while the others get `Θ(n)` — the clustered
/// skew dynamic chunking removes. (A window of `w` consecutive positions
/// can hold at most `a(w)` total radius plus one giant, so this is within a
/// constant of the worst any assignment can do to a static scheduler on
/// this problem.) Returns the position-to-identifier map, a permutation of
/// `0..n`.
///
/// # Panics
///
/// Panics when `n < 8` (the construction needs a non-trivial block).
#[must_use]
pub fn clustered_adversarial_arrangement(n: usize) -> Vec<u64> {
    assert!(n >= 8, "the clustered construction needs n >= 8");
    let block = n / 4;
    let segment = worst_case_segment_assignment(block);
    let mut ids: Vec<u64> = vec![0; n];
    // Top-`block` identifiers (below the global max) in the worst-case
    // segment arrangement: ids n-1-block ..= n-2, disjoint from the filler.
    let base = (n - 1 - block) as u64;
    for (p, &seg_id) in segment.iter().enumerate() {
        ids[p] = base + seg_id;
    }
    // Ascending filler (ids 0 .. n-1-block): every node's larger neighbour
    // is one step away.
    for (p, id) in ids.iter_mut().enumerate().take(n - 1).skip(block) {
        *id = (p - block) as u64;
    }
    // The global maximum, adjacent (around the ring) to the block.
    ids[n - 1] = (n - 1) as u64;
    ids
}

/// Recursively assigns identifiers to `positions[start..start+len]`.
fn fill_segment(ids: &mut [u64], start: usize, len: usize, next_id: &mut u64, splits: &[usize]) {
    if len == 0 {
        return;
    }
    if len == 1 {
        *next_id -= 1;
        ids[start] = *next_id;
        return;
    }
    let k = splits[len];
    // The largest remaining identifier sits at distance k from the left
    // endpoint (1-based), i.e. index start + k - 1.
    *next_id -= 1;
    ids[start + k - 1] = *next_id;
    // Left part: k-1 vertices, right part: len-k vertices. The order in which
    // the two parts are filled does not matter for the total.
    fill_segment(ids, start, k - 1, next_id, splits);
    fill_segment(ids, start + k, len - k, next_id, splits);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::a000788;

    #[test]
    fn small_values_match_the_paper() {
        assert_eq!(segment_worst_totals(0), vec![0]);
        assert_eq!(segment_worst_totals(1), vec![0, 1]);
        assert_eq!(segment_worst_totals(7), vec![0, 1, 2, 4, 5, 7, 9, 12]);
    }

    #[test]
    fn recurrence_equals_a000788() {
        let a = segment_worst_totals(512);
        for (p, &value) in a.iter().enumerate() {
            assert_eq!(value, a000788::total_bit_count(p as u64), "p = {p}");
        }
    }

    #[test]
    fn sequence_is_monotone_and_superlinear() {
        let a = segment_worst_totals(1024);
        for p in 1..a.len() {
            assert!(a[p] > a[p - 1], "a must be strictly increasing at {p}");
        }
        // Θ(n log n): check the normalised ratio stays within loose constant
        // bounds (1/2 · n·log2 n is the exact leading term).
        for &p in &[64usize, 256, 1024] {
            let expected = 0.5 * p as f64 * (p as f64).log2();
            let ratio = a[p] as f64 / expected;
            assert!(ratio > 0.8 && ratio < 1.3, "ratio at {p} was {ratio}");
        }
    }

    #[test]
    fn split_positions_are_within_range() {
        let splits = worst_split_positions(128);
        for (p, &k) in splits.iter().enumerate().skip(2) {
            assert!(k >= 1 && k <= p.div_ceil(2), "split {k} out of range for p={p}");
        }
    }

    #[test]
    fn splits_realise_the_maximum() {
        let a = segment_worst_totals(64);
        let splits = worst_split_positions(64);
        for p in 2..=64usize {
            let k = splits[p];
            assert_eq!(a[p], k as u64 + a[k - 1] + a[p - k]);
        }
    }

    #[test]
    fn worst_case_assignment_is_a_permutation() {
        for p in 0..40usize {
            let ids = worst_case_segment_assignment(p);
            assert_eq!(ids.len(), p);
            let mut sorted = ids.clone();
            sorted.sort_unstable();
            let expected: Vec<u64> = (0..p as u64).collect();
            assert_eq!(sorted, expected, "p = {p}");
        }
    }

    #[test]
    fn worst_case_assignment_places_max_at_split() {
        let p = 13usize;
        let ids = worst_case_segment_assignment(p);
        let splits = worst_split_positions(p);
        let max_pos = ids.iter().position(|&x| x == p as u64 - 1).unwrap();
        assert_eq!(max_pos, splits[p] - 1);
    }

    #[test]
    fn clustered_arrangement_is_a_permutation_with_the_documented_shape() {
        for n in [8usize, 33, 64, 1024] {
            let ids = clustered_adversarial_arrangement(n);
            assert_eq!(ids.len(), n);
            let mut sorted = ids.clone();
            sorted.sort_unstable();
            let expected: Vec<u64> = (0..n as u64).collect();
            assert_eq!(sorted, expected, "n = {n}");
            // Global max adjacent to the block, block holds the next ids.
            let block = n / 4;
            assert_eq!(ids[n - 1], n as u64 - 1);
            for (p, &id) in ids.iter().enumerate().take(block) {
                assert!(
                    (n - 1 - block) as u64 <= id && id < n as u64 - 1,
                    "position {p} escaped the block's id range (n = {n})"
                );
            }
            // Ascending filler.
            for p in block + 1..n - 1 {
                assert_eq!(ids[p], ids[p - 1] + 1, "filler not ascending at {p} (n = {n})");
            }
        }
    }
}
