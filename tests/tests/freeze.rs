//! `Graph::freeze` against the graph it freezes.
//!
//! The frozen snapshot must mirror its source exactly on every input: each
//! node's CSR neighbour slice is its adjacency list in port order, the
//! identifier table is copied unchanged, and the canonical component
//! labelling matches both the BFS-based `traversal::connected_components`
//! ground truth and the standalone `ComponentLabels::of_graph`.

use avglocal::graph::csr::CsrGraph;
use avglocal::graph::{traversal, ComponentLabels, ComponentMode};
use avglocal::prelude::*;
use avglocal::runtime::examples::NaiveLargestId;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Sizes for which every deterministic family (including the torus) has an
/// instance.
const UNIVERSAL_SIZES: [usize; 3] = [9, 16, 24];

fn assert_freeze_agreement(graph: &Graph) {
    let csr = graph.freeze();
    assert_eq!(csr.node_count(), graph.node_count());
    assert_eq!(csr.edge_count(), graph.edge_count());
    for v in graph.nodes() {
        let expected: Vec<u32> = graph.neighbors(v).iter().map(|u| u.index() as u32).collect();
        assert_eq!(csr.neighbors(v.index() as u32), expected.as_slice(), "node {v}");
        assert_eq!(csr.identifier(v.index() as u32), graph.identifier(v));
    }
    // The component labelling matches the BFS ground truth: same partition,
    // components numbered by smallest member.
    let expected = traversal::connected_components(graph);
    let labels = csr.components();
    assert_eq!(labels.count(), expected.len());
    for (c, nodes) in expected.iter().enumerate() {
        assert_eq!(labels.sizes()[c] as usize, nodes.len());
        for &v in nodes {
            assert_eq!(labels.label(v), c as u32);
        }
    }
    assert_eq!(labels.is_connected(), traversal::is_connected(graph));
    // The standalone graph labelling agrees with the freeze-time one.
    assert_eq!(&ComponentLabels::of_graph(graph), labels);
}

#[test]
fn freeze_agrees_on_every_topology_family() {
    for &n in &UNIVERSAL_SIZES {
        for topology in Topology::DETERMINISTIC {
            assert_freeze_agreement(&topology.build(n).unwrap());
        }
        assert_freeze_agreement(&Topology::gnp_connected(n, 7).build(n).unwrap());
    }
}

#[test]
fn freeze_agrees_on_disconnected_instances() {
    // Subcritical G(n, p) instances in per-component mode are the graphs the
    // component labelling exists for.
    for seed in 0..8u64 {
        let n = 48;
        let topology = Topology::Gnp { p: 0.6 / n as f64, seed };
        let graph = topology.build_for(n, ComponentMode::PerComponent).unwrap();
        assert_freeze_agreement(&graph);
    }
    // The degenerate extremes: no edges at all, and the empty graph.
    assert_freeze_agreement(&Topology::Gnp { p: 0.0, seed: 1 }.build_unchecked(16).unwrap());
    assert_freeze_agreement(&Graph::new());
}

#[test]
fn freeze_agrees_on_large_instances() {
    let n = 1 << 13;
    for topology in [Topology::Cycle, Topology::Grid] {
        assert_freeze_agreement(&topology.build(n).unwrap());
    }
}

#[test]
fn frozen_components_feed_the_executors_unchanged() {
    // A frozen snapshot of a disconnected graph still runs: every ball
    // saturates at its component, so each component elects exactly its own
    // largest identifier, within a radius below the component's size.
    let graph = Topology::Gnp { p: 0.02, seed: 3 }.build_unchecked(40).unwrap();
    let csr = graph.freeze();
    assert_eq!(CsrGraph::from_graph(&graph), csr);
    let labels = csr.components().clone();
    assert!(!labels.is_connected());
    let run = FrozenExecutor::from_csr(csr).run(&NaiveLargestId, Knowledge::none()).unwrap();
    let mut winners = vec![0usize; labels.count()];
    for v in graph.nodes() {
        let component = labels.label(v) as usize;
        assert!(run.radius(v) < labels.sizes()[component] as usize, "node {v}");
        if *run.output(v) {
            winners[component] += 1;
        }
    }
    assert!(winners.iter().all(|&w| w == 1), "one winner per component: {winners:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random multigraph-free edge sets: the snapshot mirrors arbitrary
    /// (often disconnected) graphs.
    #[test]
    fn freeze_agrees_on_random_graphs(n in 1usize..64, extra in 0usize..96, seed in 0u64..1000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut graph = Graph::new();
        for i in 0..n {
            graph.add_node(Identifier::new(i as u64));
        }
        for _ in 0..extra {
            let u = NodeId::new(rng.gen_range(0..n));
            let v = NodeId::new(rng.gen_range(0..n));
            if u != v && !graph.contains_edge(u, v) {
                graph.add_edge(u, v).unwrap();
            }
        }
        assert_freeze_agreement(&graph);
    }
}
