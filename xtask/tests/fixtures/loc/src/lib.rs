//! Fixture: `count_non_test_lines` counts lines 1-7, 15 and 16.

/// Doc comments and blank lines count like code.
pub fn counted() -> u32 {
    1
}

#[cfg(test)]
mod tests {
    #[test]
    fn not_counted() {
        assert_eq!(super::counted(), 1);
    }
}

pub fn counted_after_the_test_module() {}
