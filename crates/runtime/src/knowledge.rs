//! Global knowledge available to the nodes.
//!
//! The classic LOCAL model assumes every node knows the number of nodes `n`;
//! the paper (following Korman–Sereni–Viennot and Musto) removes that
//! assumption and lets nodes decide at different rounds. [`Knowledge`]
//! captures which global parameters the algorithm may rely on, so the same
//! algorithm implementation can be run in either regime and the executors can
//! enforce what it may read.

/// The global parameters a node is allowed to know before the computation
/// starts.
///
/// The default is the paper's setting: nothing is known (`Knowledge::none()`).
///
/// # Examples
///
/// ```
/// use avglocal_runtime::Knowledge;
///
/// let nothing = Knowledge::none();
/// assert_eq!(nothing.node_count(), None);
///
/// let classic = Knowledge::with_node_count(128);
/// assert_eq!(classic.node_count(), Some(128));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Knowledge {
    node_count: Option<usize>,
}

impl Knowledge {
    /// No global knowledge at all (the paper's setting).
    #[must_use]
    pub const fn none() -> Self {
        Knowledge { node_count: None }
    }

    /// The classic LOCAL assumption: every node knows `n`.
    #[must_use]
    pub const fn with_node_count(n: usize) -> Self {
        Knowledge { node_count: Some(n) }
    }

    /// Number of nodes, if known.
    #[must_use]
    pub const fn node_count(&self) -> Option<usize> {
        self.node_count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_knows_nothing() {
        let k = Knowledge::none();
        assert_eq!(k.node_count(), None);
        assert_eq!(k, Knowledge::default());
    }

    #[test]
    fn with_node_count_shortcut() {
        let k = Knowledge::with_node_count(5);
        assert_eq!(k.node_count(), Some(5));
    }
}
