//! Errors reported by the executors.

use std::error::Error;
use std::fmt;

use avglocal_graph::{GraphError, NodeId};

/// Errors produced while executing a distributed algorithm.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum RuntimeError {
    /// The round-based executor reached its round limit with undecided nodes.
    RoundLimitExceeded {
        /// The configured limit.
        limit: usize,
        /// Number of nodes that had not produced an output.
        undecided: usize,
    },
    /// A ball-view algorithm failed to decide even after seeing its entire
    /// connected component.
    NonTerminating {
        /// The node that never decided.
        node: NodeId,
    },
    /// A cooperative cancellation hook stopped the probe before the
    /// algorithm decided (see
    /// [`crate::ProbeOptions::with_cancel`]); typically a service
    /// deadline expiring mid-query.
    Cancelled {
        /// The node whose probe was abandoned.
        node: NodeId,
        /// The ball radius the probe had reached when it was cancelled.
        radius: usize,
    },
    /// The algorithm was run on an unsuitable graph (for example a
    /// cycle-specific algorithm on a node of degree 3).
    UnsupportedTopology {
        /// Human-readable description of the requirement that was violated.
        reason: String,
    },
    /// An underlying graph operation failed.
    Graph(GraphError),
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::RoundLimitExceeded { limit, undecided } => {
                write!(f, "round limit of {limit} reached with {undecided} undecided nodes")
            }
            RuntimeError::NonTerminating { node } => {
                write!(f, "node {node} saw its whole component but never produced an output")
            }
            RuntimeError::Cancelled { node, radius } => {
                write!(f, "probe of node {node} cancelled at ball radius {radius}")
            }
            RuntimeError::UnsupportedTopology { reason } => {
                write!(f, "unsupported topology: {reason}")
            }
            RuntimeError::Graph(e) => write!(f, "graph error: {e}"),
        }
    }
}

impl Error for RuntimeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            RuntimeError::Graph(e) => Some(e),
            _ => None,
        }
    }
}

impl From<GraphError> for RuntimeError {
    fn from(e: GraphError) -> Self {
        RuntimeError::Graph(e)
    }
}

/// Convenience alias for results whose error type is [`RuntimeError`].
pub type Result<T> = std::result::Result<T, RuntimeError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = RuntimeError::RoundLimitExceeded { limit: 10, undecided: 3 };
        assert!(e.to_string().contains("10"));
        assert!(e.to_string().contains('3'));

        let e = RuntimeError::NonTerminating { node: NodeId::new(4) };
        assert!(e.to_string().contains("v4"));

        let e = RuntimeError::Cancelled { node: NodeId::new(6), radius: 2 };
        assert!(e.to_string().contains("v6"));
        assert!(e.to_string().contains("radius 2"));

        let e = RuntimeError::UnsupportedTopology { reason: "needs a cycle".into() };
        assert!(e.to_string().contains("needs a cycle"));
    }

    #[test]
    fn graph_errors_convert_and_chain() {
        let ge = GraphError::SelfLoop { node: NodeId::new(1) };
        let re: RuntimeError = ge.clone().into();
        assert_eq!(re, RuntimeError::Graph(ge));
        assert!(re.source().is_some());
    }

    #[test]
    fn errors_are_send_sync() {
        fn assert_error<E: Error + Send + Sync + 'static>() {}
        assert_error::<RuntimeError>();
    }
}
