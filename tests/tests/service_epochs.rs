//! Property test for the service's epoch-publication semantics.
//!
//! The invariant: however queries interleave with generation swaps, every
//! completed answer is consistent with **exactly one** published generation
//! — the one stamped in its reply. A reply must never mix state from two
//! generations (an answer computed on the old snapshot stamped with the new
//! epoch, or vice versa), and the stamped epoch must be one the publisher
//! actually installed.
//!
//! Generations are shuffled cycles of one size with *distinct* identifier
//! tables, so any cross-generation contamination changes the largest-ID
//! output or its radius and is caught by the per-epoch sequential
//! reference. CI runs this file on both the `AVG_LOCAL_THREADS=1` and
//! `AVG_LOCAL_THREADS=4` legs.

use std::sync::Arc;

use avglocal::graph::{generators, CsrGraph, IdAssignment, NodeId};
use avglocal::runtime::examples::NaiveLargestId;
use avglocal::runtime::{BallExecution, FrozenExecutor, Knowledge, ProbeOptions};
use avglocal_service::{Consistency, QueryOptions, RadiusQueryService, ServiceConfig, TestClock};
use proptest::prelude::*;

/// A cycle on `n` nodes with a shuffled identifier table, frozen.
fn shuffled_cycle(n: usize, seed: u64) -> CsrGraph {
    let mut graph = generators::cycle(n).expect("cycles are valid");
    IdAssignment::Shuffled { seed }.apply(&mut graph).expect("shuffles are permutations");
    graph.freeze()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Readers race a publisher through `swaps` generation swaps; every
    /// reply must match the sequential reference of exactly the generation
    /// named by its epoch stamp.
    #[test]
    fn concurrent_replies_are_consistent_with_exactly_one_generation(
        n in 8usize..48,
        base_seed in 0u64..500,
        readers in 2usize..5,
        swaps in 1usize..4,
        latest_every in 2usize..5,
    ) {
        // Generation g serves as epoch g + 1; distinct seeds give every
        // generation its own identifier table.
        let generations: Vec<CsrGraph> = (0..=swaps as u64)
            .map(|g| shuffled_cycle(n, base_seed.wrapping_mul(31).wrapping_add(g)))
            .collect();
        let references: Vec<BallExecution<bool>> = generations
            .iter()
            .map(|csr| {
                FrozenExecutor::from_csr(csr.clone())
                    .run_sequential(&NaiveLargestId, Knowledge::none())
                    .expect("largest-ID terminates on cycles")
            })
            .collect();

        let service = RadiusQueryService::new(
            NaiveLargestId,
            Knowledge::none(),
            generations[0].clone(),
            Arc::new(TestClock::new()),
            ServiceConfig::default(),
        );

        let replies = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..readers)
                .map(|reader| {
                    let service = &service;
                    scope.spawn(move || {
                        let mut replies = Vec::new();
                        for q in 0..2 * n {
                            let node = NodeId::new((reader + q * readers) % n);
                            let options = if q % latest_every == 0 {
                                QueryOptions::new()
                                    .with_consistency(Consistency::Latest { retry_limit: 3 })
                            } else {
                                QueryOptions::new()
                            };
                            let result = service.query_with(node, options);
                            match result {
                                Ok(reply) => replies.push((node, reply)),
                                Err(error) => panic!("unlimited-budget query failed: {error}"),
                            }
                        }
                        replies
                    })
                })
                .collect();
            // The publisher races the readers on this thread.
            for generation in &generations[1..] {
                service.publish_csr(generation.clone()).expect("valid candidates publish");
            }
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("readers do not panic"))
                .collect::<Vec<_>>()
        });

        let final_epoch = service.current_epoch();
        prop_assert_eq!(final_epoch, swaps as u64 + 1);
        for (node, reply) in replies {
            prop_assert!(
                reply.epoch >= 1 && reply.epoch <= final_epoch,
                "reply stamped with never-published epoch {}", reply.epoch
            );
            let reference = &references[(reply.epoch - 1) as usize];
            prop_assert_eq!(
                &reply.output, reference.output(node),
                "output inconsistent with generation of epoch {}", reply.epoch
            );
            prop_assert_eq!(
                reply.radius, reference.radius(node),
                "radius inconsistent with generation of epoch {}", reply.epoch
            );
        }
    }

    /// A reader that pinned a generation keeps getting answers from it —
    /// bit-identically — after any number of swaps have replaced it.
    #[test]
    fn pinned_generations_survive_swaps_unchanged(
        n in 8usize..40,
        base_seed in 0u64..500,
        swaps in 1usize..5,
    ) {
        let first = shuffled_cycle(n, base_seed);
        let reference = FrozenExecutor::from_csr(first.clone())
            .run_sequential(&NaiveLargestId, Knowledge::none())
            .expect("largest-ID terminates on cycles");
        let service = RadiusQueryService::new(
            NaiveLargestId,
            Knowledge::none(),
            first,
            Arc::new(TestClock::new()),
            ServiceConfig::default(),
        );

        let pinned = service.pin();
        for swap in 0..swaps as u64 {
            service
                .publish_csr(shuffled_cycle(n, base_seed ^ (swap + 1).wrapping_mul(0x9e37)))
                .expect("valid candidates publish");
        }
        prop_assert_eq!(pinned.epoch(), 1);
        prop_assert_eq!(service.current_epoch(), swaps as u64 + 1);

        // Probes through the pinned session still answer from generation 1.
        for v in 0..n {
            let node = NodeId::new(v);
            let (output, radius) = pinned
                .session()
                .run_node_with(node, &NaiveLargestId, Knowledge::none(), ProbeOptions::new())
                .expect("pinned probes complete");
            prop_assert_eq!(&output, reference.output(node));
            prop_assert_eq!(radius, reference.radius(node));
        }
    }
}
