//! Colour reduction: shrinking a proper colouring one class at a time.
//!
//! On graphs of maximum degree `Δ`, any proper `k`-colouring with `k > Δ + 1`
//! can be reduced to a `(Δ+1)`-colouring by removing one colour class per
//! round: all nodes of the highest colour simultaneously re-colour themselves
//! with a free colour from `{0, …, Δ}` (their neighbours all have other
//! colours and there are at most `Δ` of them). On the ring (`Δ = 2`) this is
//! the standard 6 → 3 step that follows Cole–Vishkin, run by
//! [`crate::ThreeColorRing`].

/// The smallest colour in `0..palette_size` that does not appear among
/// `neighbor_colors`, or `None` if every colour is taken (which cannot happen
/// when `palette_size > neighbor_colors.len()`).
#[must_use]
pub fn free_color(neighbor_colors: &[u64], palette_size: u64) -> Option<u64> {
    (0..palette_size).find(|c| !neighbor_colors.contains(c))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn free_color_picks_smallest_unused() {
        assert_eq!(free_color(&[0, 2], 3), Some(1));
        assert_eq!(free_color(&[1, 2], 3), Some(0));
        assert_eq!(free_color(&[], 3), Some(0));
        assert_eq!(free_color(&[0, 1, 2], 3), None);
    }
}
