//! Execution traces: per-round bookkeeping of a message-passing run.

/// Statistics of a single round of a message-passing execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundStats {
    /// Round number (1-based; round 0 is the pre-communication decision pass).
    pub round: usize,
    /// Messages delivered during this round.
    pub messages: usize,
    /// Nodes that committed to their output during this round.
    pub newly_decided: usize,
    /// Nodes still undecided after this round.
    pub undecided_remaining: usize,
}

/// A trace of an entire execution: one [`RoundStats`] per executed round.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    rounds: Vec<RoundStats>,
}

impl Trace {
    /// Creates an empty trace.
    #[must_use]
    pub fn new() -> Self {
        Trace::default()
    }

    /// Appends the statistics of one round.
    pub fn push(&mut self, stats: RoundStats) {
        self.rounds.push(stats);
    }

    /// The recorded rounds, in order.
    #[must_use]
    pub fn rounds(&self) -> &[RoundStats] {
        &self.rounds
    }

    /// Number of recorded rounds.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rounds.len()
    }

    /// Returns `true` when no round has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rounds.is_empty()
    }

    /// Total number of messages delivered over the whole execution.
    #[must_use]
    pub fn total_messages(&self) -> usize {
        self.rounds.iter().map(|r| r.messages).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        let mut t = Trace::new();
        t.push(RoundStats { round: 0, messages: 0, newly_decided: 2, undecided_remaining: 8 });
        t.push(RoundStats { round: 1, messages: 20, newly_decided: 5, undecided_remaining: 3 });
        t.push(RoundStats { round: 2, messages: 20, newly_decided: 3, undecided_remaining: 0 });
        t
    }

    #[test]
    fn totals() {
        let t = sample();
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
        assert_eq!(t.total_messages(), 40);
        assert_eq!(t.rounds()[1].newly_decided, 5);
    }

    #[test]
    fn empty_trace() {
        let t = Trace::new();
        assert!(t.is_empty());
        assert_eq!(t.total_messages(), 0);
    }
}
