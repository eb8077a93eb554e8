//! Integration-test package for the `avglocal` workspace.
//!
//! The actual tests live in `tests/` and exercise complete pipelines across
//! crates: graph generation → identifier assignment → LOCAL execution →
//! verification → measurement → theory comparison. This library target only
//! hosts small shared helpers.

#![forbid(unsafe_code)]

use avglocal::prelude::*;

/// Builds the standard test instance: an `n`-cycle with identifiers shuffled
/// by `seed`.
///
/// # Panics
///
/// Panics if `n < 3` (the helper is for tests, which always use valid sizes).
#[must_use]
pub fn shuffled_ring(n: usize, seed: u64) -> Graph {
    topology_with_assignment(&Topology::Cycle, n, &IdAssignment::Shuffled { seed })
        .expect("test rings always have at least 3 nodes")
}

/// The ring sizes used by the cross-crate tests: a mix of tiny, odd, even and
/// moderately large instances.
#[must_use]
pub fn test_sizes() -> Vec<usize> {
    vec![3, 4, 5, 8, 13, 16, 33, 64, 127]
}

pub mod fuzz {
    //! The shared model-based fuzz driver.
    //!
    //! A byte buffer is decoded — totally, via [`proptest::arbitrary`] — into
    //! a program of graph-construction commands, which is executed in
    //! lockstep against the real [`Graph`]/[`CsrGraph`] stack and a
    //! deliberately naive adjacency-map model. Any divergence (accept/reject
    //! decisions, neighbour port order, identifiers, canonical component
    //! labels, or snapshot round-trips) is reported as an `Err` describing
    //! the mismatch. Both the property tests (`fuzz_builder_model.rs`) and
    //! the regression-corpus replayer (`fuzz_regressions.rs`) drive programs
    //! through this one interpreter.

    use std::collections::{HashMap, HashSet};

    use avglocal::graph::{CsrGraph, Graph, GraphError, Identifier, NodeId};
    use proptest::arbitrary::Unstructured;

    /// How the real stack classified an operation, reduced to a comparable tag.
    pub fn classify<T>(result: &Result<T, GraphError>) -> &'static str {
        match result {
            Ok(_) => "ok",
            Err(GraphError::NodeOutOfBounds { .. }) => "node out of bounds",
            Err(GraphError::SelfLoop { .. }) => "self loop",
            Err(GraphError::DuplicateEdge { .. }) => "duplicate edge",
            Err(GraphError::DuplicateIdentifier { .. }) => "duplicate identifier",
            Err(GraphError::InvalidGeneratorParameter { .. }) => "invalid parameter",
            Err(_) => "other",
        }
    }

    fn ensure(cond: bool, describe: impl FnOnce() -> String) -> Result<(), String> {
        if cond {
            Ok(())
        } else {
            Err(describe())
        }
    }

    /// The naive reference: a port-ordered adjacency map plus an edge set,
    /// mirroring the documented `Graph` semantics with none of its machinery.
    #[derive(Default)]
    struct Model {
        adjacency: Vec<Vec<usize>>,
        identifiers: Vec<u64>,
        edges: HashSet<(usize, usize)>,
    }

    impl Model {
        fn len(&self) -> usize {
            self.adjacency.len()
        }

        fn add_node(&mut self, identifier: u64) {
            self.adjacency.push(Vec::new());
            self.identifiers.push(identifier);
        }

        /// Predicts `Graph::add_edge`, matching its documented check order:
        /// bounds, self-loop, duplicate.
        fn add_edge(&mut self, u: usize, v: usize) -> &'static str {
            if u >= self.len() || v >= self.len() {
                return "node out of bounds";
            }
            if u == v {
                return "self loop";
            }
            if !self.edges.insert((u.min(v), u.max(v))) {
                return "duplicate edge";
            }
            self.adjacency[u].push(v);
            self.adjacency[v].push(u);
            "ok"
        }

        fn set_identifier(&mut self, node: usize, identifier: u64) -> &'static str {
            if node >= self.len() {
                return "node out of bounds";
            }
            self.identifiers[node] = identifier;
            "ok"
        }

        /// Canonical component labelling: components numbered in order of
        /// their smallest member, the invariant `ComponentLabels` documents.
        fn components(&self) -> (Vec<u32>, Vec<u32>) {
            let n = self.len();
            let mut labels = vec![u32::MAX; n];
            let mut sizes = Vec::new();
            for start in 0..n {
                if labels[start] != u32::MAX {
                    continue;
                }
                let label = u32::try_from(sizes.len()).expect("fuzz graphs are tiny");
                let mut queue = vec![start];
                labels[start] = label;
                let mut size = 0u32;
                while let Some(v) = queue.pop() {
                    size += 1;
                    for &w in &self.adjacency[v] {
                        if labels[w] == u32::MAX {
                            labels[w] = label;
                            queue.push(w);
                        }
                    }
                }
                sizes.push(size);
            }
            (labels, sizes)
        }
    }

    /// Freezes the real graph and checks every observable against the model,
    /// then round-trips the snapshot through the untrusted-input codec.
    fn check_frozen(graph: &Graph, model: &Model) -> Result<(), String> {
        let csr = graph.freeze();
        ensure(csr.node_count() == model.len(), || "node count diverged".to_string())?;
        ensure(csr.edge_count() == model.edges.len(), || "edge count diverged".to_string())?;
        for v in 0..model.len() {
            let got: Vec<usize> = csr.neighbors(v as u32).iter().map(|&w| w as usize).collect();
            ensure(got == model.adjacency[v], || {
                format!("port order of node {v} diverged: {got:?} vs {:?}", model.adjacency[v])
            })?;
            ensure(csr.identifier(v as u32) == Identifier::new(model.identifiers[v]), || {
                format!("identifier of node {v} diverged")
            })?;
        }
        let (labels, sizes) = model.components();
        ensure(csr.components().labels() == labels.as_slice(), || {
            format!("component labels diverged: {:?} vs {labels:?}", csr.components().labels())
        })?;
        ensure(csr.components().sizes() == sizes.as_slice(), || {
            format!("component sizes diverged: {:?} vs {sizes:?}", csr.components().sizes())
        })?;
        ensure(csr.components().count() == sizes.len(), || "component count diverged".to_string())?;

        let bytes = csr.to_bytes();
        let decoded = CsrGraph::from_bytes(&bytes)
            .map_err(|e| format!("own snapshot rejected by from_bytes: {e}"))?;
        ensure(decoded == csr, || "decoded snapshot differs from the original".to_string())?;
        ensure(decoded.components() == csr.components(), || {
            "decoded component labelling differs".to_string()
        })?;
        ensure(decoded.to_bytes() == bytes, || "re-encoding is not bit-identical".to_string())
    }

    /// Decodes `data` into a command program and runs it against both sides.
    ///
    /// # Errors
    ///
    /// Returns a description of the first divergence between the real stack
    /// and the model; `Ok(())` means the whole program agreed.
    pub fn run_program(data: &[u8]) -> Result<(), String> {
        let mut u = Unstructured::new(data);
        let mut graph = Graph::new();
        let mut model = Model::default();
        let mut steps = 0;
        while !u.is_empty() && steps < 96 {
            steps += 1;
            match u.byte() % 8 {
                // Adding nodes is the commonest operation; identifiers come
                // from a small alphabet so collisions actually happen.
                0..=2 => {
                    let identifier = u.int_in_range(0..64);
                    let id = graph.add_node(Identifier::new(identifier));
                    model.add_node(identifier);
                    ensure(id.index() == model.len() - 1, || "node ids diverged".to_string())?;
                }
                // Edge endpoints may overshoot the node count by up to two,
                // so bounds rejections are exercised alongside valid
                // insertions, self-loops and duplicates.
                3..=5 => {
                    let bound = model.len() + 2;
                    let a = u.choose_index(bound);
                    let b = if u.ratio(1, 4) { a } else { u.choose_index(bound) };
                    let got = graph.add_edge(NodeId::new(a), NodeId::new(b));
                    let want = model.add_edge(a, b);
                    ensure(classify(&got) == want, || {
                        format!("add_edge({a}, {b}): real {} vs model {want}", classify(&got))
                    })?;
                }
                6 => {
                    let node = u.choose_index(model.len() + 1);
                    let identifier = u.int_in_range(0..64);
                    let got = graph.set_identifier(NodeId::new(node), Identifier::new(identifier));
                    let want = model.set_identifier(node, identifier);
                    ensure(classify(&got) == want, || {
                        format!("set_identifier({node}): real {} vs model {want}", classify(&got))
                    })?;
                }
                _ => check_frozen(&graph, &model)?,
            }
            ensure(graph.node_count() == model.len(), || "node counts diverged".to_string())?;
            ensure(graph.edge_count() == model.edges.len(), || "edge counts diverged".to_string())?;
        }
        check_frozen(&graph, &model)
    }

    /// Predicts `GraphBuilder::build` from the same description, mirroring
    /// its documented validation order.
    pub fn predict_build(identifiers: &[u64], edges: &[(u64, u64)]) -> &'static str {
        let mut seen = HashSet::new();
        if !identifiers.iter().all(|id| seen.insert(*id)) {
            return "duplicate identifier";
        }
        let by_id: HashMap<u64, usize> =
            identifiers.iter().enumerate().map(|(i, id)| (*id, i)).collect();
        let mut edge_set = HashSet::new();
        for (a, b) in edges {
            let (Some(&u), Some(&v)) = (by_id.get(a), by_id.get(b)) else {
                return "invalid parameter";
            };
            if u == v {
                return "self loop";
            }
            if !edge_set.insert((u.min(v), u.max(v))) {
                return "duplicate edge";
            }
        }
        "ok"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shuffled_ring_has_unique_identifiers() {
        let g = shuffled_ring(17, 4);
        assert_eq!(g.node_count(), 17);
        assert!(g.has_unique_identifiers());
    }

    #[test]
    fn test_sizes_are_valid_cycle_sizes() {
        assert!(test_sizes().iter().all(|&n| n >= 3));
    }
}
