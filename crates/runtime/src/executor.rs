//! Synchronous round-based executor (the operational view of LOCAL).

use avglocal_graph::{Graph, NodeId, PortNumbering};

use crate::algorithm::{NodeContext, RoundAlgorithm};
use crate::error::{Result, RuntimeError};
use crate::knowledge::Knowledge;
use crate::message::Envelope;

/// The result of a round-based execution.
///
/// Per-node outputs and decision rounds are the primary payload; the paper's
/// measures are functions of the decision rounds (their maximum is the
/// classical complexity, their average is the paper's new measure).
#[derive(Debug, Clone)]
pub struct Execution<O> {
    outputs: Vec<Option<O>>,
    decision_rounds: Vec<Option<usize>>,
    rounds_executed: usize,
    messages_sent: usize,
}

impl<O: Clone> Execution<O> {
    /// Number of nodes that took part in the execution.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.outputs.len()
    }

    /// Returns `true` when every node committed to an output.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.outputs.iter().all(Option::is_some)
    }

    /// The output committed by `node`, if it decided.
    #[must_use]
    pub fn output(&self, node: NodeId) -> Option<&O> {
        self.outputs.get(node.index()).and_then(Option::as_ref)
    }

    /// The round at which `node` committed, if it decided.
    #[must_use]
    pub fn decision_round(&self, node: NodeId) -> Option<usize> {
        self.decision_rounds.get(node.index()).copied().flatten()
    }

    /// All outputs, in node order.
    ///
    /// # Panics
    ///
    /// Panics if some node never decided; check [`Execution::is_complete`]
    /// first when in doubt.
    #[must_use]
    pub fn outputs(&self) -> Vec<O> {
        self.outputs.iter().map(|o| o.clone().expect("execution is complete")).collect()
    }

    /// All decision rounds, in node order.
    ///
    /// # Panics
    ///
    /// Panics if some node never decided.
    #[must_use]
    pub fn decision_rounds(&self) -> Vec<usize> {
        self.decision_rounds.iter().map(|r| r.expect("execution is complete")).collect()
    }

    /// Number of rounds the executor ran (not counting the round-0 decision
    /// pass).
    #[must_use]
    pub fn rounds_executed(&self) -> usize {
        self.rounds_executed
    }

    /// Total number of messages delivered.
    #[must_use]
    pub fn messages_sent(&self) -> usize {
        self.messages_sent
    }
}

/// Synchronous executor for [`RoundAlgorithm`]s.
///
/// # Examples
///
/// ```
/// use avglocal_graph::generators;
/// use avglocal_runtime::{Knowledge, SyncExecutor};
/// use avglocal_runtime::examples::CountNeighbors;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let ring = generators::cycle(6)?;
/// let exec = SyncExecutor::new();
/// let run = exec.run(&ring, &CountNeighbors, Knowledge::none())?;
/// assert!(run.is_complete());
/// assert_eq!(run.rounds_executed(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct SyncExecutor;

impl SyncExecutor {
    /// Creates an executor. A run on a graph with `n` nodes aborts after
    /// `4·n + 64` rounds.
    #[must_use]
    pub fn new() -> Self {
        SyncExecutor
    }

    /// Runs `algorithm` on `graph` with the given global `knowledge`.
    ///
    /// Nodes that commit to an output keep sending and receiving messages, as
    /// the model requires; only their first decision is recorded.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::RoundLimitExceeded`] if some node has not
    /// decided when the round limit is reached.
    pub fn run<A: RoundAlgorithm>(
        &self,
        graph: &Graph,
        algorithm: &A,
        knowledge: Knowledge,
    ) -> Result<Execution<A::Output>> {
        let n = graph.node_count();
        let ports = PortNumbering::new(graph);

        let mut contexts: Vec<NodeContext> = graph
            .nodes()
            .map(|v| NodeContext {
                identifier: graph.identifier(v),
                degree: graph.degree(v),
                neighbor_identifiers: graph
                    .neighbors(v)
                    .iter()
                    .map(|&u| graph.identifier(u))
                    .collect(),
                knowledge,
                round: 0,
            })
            .collect();

        let mut states: Vec<A::State> = contexts.iter().map(|c| algorithm.init(c)).collect();
        let mut outputs: Vec<Option<A::Output>> = vec![None; n];
        let mut decision_rounds: Vec<Option<usize>> = vec![None; n];
        let mut messages_sent = 0usize;

        // Round 0: decisions that need no communication at all.
        let mut undecided = n;
        for v in graph.nodes() {
            let i = v.index();
            if let Some(out) = algorithm.decide_initial(&mut states[i], &contexts[i]) {
                outputs[i] = Some(out);
                decision_rounds[i] = Some(0);
                undecided -= 1;
            }
        }

        let limit = 4 * n + 64;
        let mut round = 0usize;
        while undecided > 0 {
            if round >= limit {
                return Err(RuntimeError::RoundLimitExceeded { limit, undecided });
            }
            round += 1;
            for ctx in &mut contexts {
                ctx.round = round;
            }

            // Send phase: collect every node's outgoing envelopes.
            let mut inboxes: Vec<Vec<Envelope<A::Message>>> = (0..n).map(|_| Vec::new()).collect();
            for v in graph.nodes() {
                let i = v.index();
                for env in algorithm.send(&states[i], &contexts[i]) {
                    let Some(target) = ports.neighbor(v, env.port) else {
                        continue; // message addressed to a non-existent port is dropped
                    };
                    let incoming_port = ports
                        .reverse_port(v, env.port)
                        .expect("port numbering is symmetric for undirected graphs");
                    inboxes[target.index()].push(Envelope::new(incoming_port, env.payload));
                    messages_sent += 1;
                }
            }

            // Receive phase.
            for v in graph.nodes() {
                let i = v.index();
                let decision = algorithm.receive(&mut states[i], &contexts[i], &inboxes[i]);
                if outputs[i].is_none() {
                    if let Some(out) = decision {
                        outputs[i] = Some(out);
                        decision_rounds[i] = Some(round);
                        undecided -= 1;
                    }
                }
            }
        }

        Ok(Execution { outputs, decision_rounds, rounds_executed: round, messages_sent })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::examples::{CountNeighbors, FloodMax};
    use avglocal_graph::{generators, IdAssignment, Identifier};

    #[test]
    fn count_neighbors_decides_after_one_round() {
        let g = generators::cycle(8).unwrap();
        let run = SyncExecutor::new().run(&g, &CountNeighbors, Knowledge::none()).unwrap();
        assert!(run.is_complete());
        assert_eq!(run.rounds_executed(), 1);
        assert_eq!(run.node_count(), 8);
        assert!(run.outputs().iter().all(|&d| d == 2));
        assert!(run.decision_rounds().iter().all(|&r| r == 1));
        // 8 nodes broadcast on 2 ports for one round.
        assert_eq!(run.messages_sent(), 16);
    }

    #[test]
    fn flood_max_terminates_with_knowledge_of_n() {
        let mut g = generators::cycle(9).unwrap();
        IdAssignment::Shuffled { seed: 3 }.apply(&mut g).unwrap();
        let run = SyncExecutor::new().run(&g, &FloodMax, Knowledge::with_node_count(9)).unwrap();
        assert!(run.is_complete());
        // Every node outputs the global maximum identifier, 8.
        assert!(run.outputs().iter().all(|id| *id == Identifier::new(8)));
        // All nodes decide at round ceil(n/2) = 5 (the diameter is 4 but the
        // algorithm waits the full pessimistic bound).
        assert!(run.decision_rounds().iter().all(|&r| r == 5));
    }

    #[test]
    fn flood_max_without_knowledge_hits_round_limit() {
        let g = generators::cycle(6).unwrap();
        let err = SyncExecutor::new().run(&g, &FloodMax, Knowledge::none()).unwrap_err();
        assert!(matches!(err, RuntimeError::RoundLimitExceeded { limit: 88, undecided: 6 }));
    }

    #[test]
    fn decision_round_and_output_accessors() {
        let g = generators::path(4).unwrap();
        let run = SyncExecutor::new().run(&g, &CountNeighbors, Knowledge::none()).unwrap();
        assert_eq!(run.output(NodeId::new(0)), Some(&1));
        assert_eq!(run.output(NodeId::new(1)), Some(&2));
        assert_eq!(run.decision_round(NodeId::new(2)), Some(1));
        assert_eq!(run.output(NodeId::new(99)), None);
        assert_eq!(run.decision_round(NodeId::new(99)), None);
    }
}
