//! Fixture: a test target, so none of its lines count.

#[test]
fn not_counted() {}
