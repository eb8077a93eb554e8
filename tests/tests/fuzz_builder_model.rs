//! Model-based fuzzing of the graph construction surface.
//!
//! Byte buffers are decoded (totally, via the `proptest::arbitrary` shim)
//! into command programs — add-node / add-edge / set-all-identifiers / freeze
//! interleavings, including deliberately out-of-bounds and duplicate
//! arguments — and executed in lockstep against both the real
//! `Graph`/`CsrGraph` stack and a deliberately naive adjacency-map model.
//! The shared interpreter lives in `avglocal_integration_tests::fuzz`, so the
//! regression corpus replays the exact same driver.

use avglocal::graph::GraphBuilder;
use avglocal_integration_tests::fuzz::{classify, predict_build, run_program};
use proptest::prelude::*;

proptest! {
    // The headline acceptance run: ten thousand decoded command programs,
    // each checked operation-for-operation against the naive model.
    #![proptest_config(ProptestConfig::with_cases(10_000))]

    #[test]
    fn builder_and_model_agree_on_every_program(buf in collection::bytes(0..192)) {
        if let Err(divergence) = run_program(&buf) {
            return Err(TestCaseError::fail(divergence));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_000))]

    #[test]
    fn graph_builder_outcome_matches_prediction(buf in collection::bytes(0..96)) {
        let mut u = Unstructured::new(&buf);
        // A small identifier alphabet forces duplicate identifiers, unknown
        // edge endpoints and duplicate edges to all occur regularly.
        let nodes = u.arbitrary_len(12);
        let identifiers: Vec<u64> = (0..nodes).map(|_| u.int_in_range(0..10)).collect();
        let edge_count = u.arbitrary_len(12);
        let edges: Vec<(u64, u64)> =
            (0..edge_count).map(|_| (u.int_in_range(0..10), u.int_in_range(0..10))).collect();

        let built = GraphBuilder::new()
            .nodes(identifiers.iter().copied())
            .edges(edges.iter().copied())
            .build();
        prop_assert_eq!(classify(&built), predict_build(&identifiers, &edges));
        if let Ok(graph) = built {
            prop_assert_eq!(graph.node_count(), identifiers.len());
            prop_assert_eq!(graph.edge_count(), edges.len());
        }
    }
}
