//! Exact work counts: a counting wrapper around the paper's largest-ID
//! algorithm and a ball-growth replay that recounts the arcs each probe
//! scanned.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use avglocal::algorithms::LargestId;
use avglocal::graph::{BallGrower, CsrGraph, NodeId};
use avglocal::runtime::{BallAlgorithm, FrozenExecutor, Knowledge, LocalView};

use crate::trace;

/// Work done by a set of probes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Work {
    /// Probes that decided.
    pub probes: u64,
    /// Decide calls made (one per radius a probe inspected).
    pub decides: u64,
    /// Ball nodes visible at each probe's deciding radius, summed.
    pub volume: u64,
    /// Adjacency entries the ball grower scanned, summed.
    pub arcs: u64,
}

impl Work {
    /// Adds another set of probes.
    pub fn add(&mut self, other: Work) {
        self.probes += other.probes;
        self.decides += other.decides;
        self.volume += other.volume;
        self.arcs += other.arcs;
    }
}

#[derive(Debug, Default)]
struct Tally {
    probes: AtomicU64,
    decides: AtomicU64,
    volume: AtomicU64,
}

/// [`LargestId`] with every decide call counted, and attributed to the
/// calling thread's open span when it records spans.
#[derive(Debug, Clone, Default)]
pub struct Counting {
    tally: Arc<Tally>,
}

impl Counting {
    /// A fresh wrapper with zero counts.
    #[must_use]
    pub fn new() -> Counting {
        Counting::default()
    }

    /// Probes, decide calls and volume counted so far (arcs are not seen
    /// by `decide`; see [`Replay`]).
    #[must_use]
    pub fn counted(&self) -> Work {
        // ordering: `Relaxed` — standalone statistics counters, read after
        // the probing calls have returned.
        Work {
            probes: self.tally.probes.load(Ordering::Relaxed),
            decides: self.tally.decides.load(Ordering::Relaxed),
            volume: self.tally.volume.load(Ordering::Relaxed),
            arcs: 0,
        }
    }
}

impl BallAlgorithm for Counting {
    type Output = bool;

    fn name(&self) -> &str {
        "counting-largest-id"
    }

    fn decide(&self, view: &LocalView, knowledge: &Knowledge) -> Option<bool> {
        let out = trace::decide(|| LargestId.decide(view, knowledge));
        // ordering: `Relaxed` — statistics counters, nothing is published
        // through them.
        self.tally.decides.fetch_add(1, Ordering::Relaxed);
        if out.is_some() {
            self.tally.probes.fetch_add(1, Ordering::Relaxed);
            self.tally.volume.fetch_add(view.node_count() as u64, Ordering::Relaxed);
        }
        out
    }
}

/// Replays ball growth on one snapshot to recount a probe's work.
#[derive(Debug)]
pub struct Replay<'g> {
    csr: &'g CsrGraph,
    grower: BallGrower<'g>,
}

impl<'g> Replay<'g> {
    /// A replay over `csr` (one grower, reused across probes).
    #[must_use]
    pub fn new(csr: &'g CsrGraph) -> Replay<'g> {
        Replay { csr, grower: BallGrower::new(csr, NodeId::new(0)) }
    }

    /// The work of a probe centred on `center` that decided at `radius`:
    /// the grower is grown to that radius, and every member within it had
    /// its adjacency scanned (growth stops scanning once the ball
    /// saturates, and then every member is within the radius).
    pub fn probe(&mut self, center: NodeId, radius: usize) -> Work {
        self.grower.reset(center);
        for _ in 0..radius {
            self.grower.grow();
        }
        let arcs = self.grower.members().iter().map(|&u| self.csr.degree(u) as u64).sum();
        Work {
            probes: 1,
            decides: radius as u64 + 1,
            volume: self.grower.node_count() as u64,
            arcs,
        }
    }

    /// Per-node work of a whole-population run with the given radii.
    pub fn population(&mut self, radii: &[usize]) -> Vec<Work> {
        radii.iter().enumerate().map(|(v, &r)| self.probe(NodeId::new(v), r)).collect()
    }
}

/// Per-node work of probing every node of `csr`: one full run with the
/// counting wrapper, replayed node by node and checked against the
/// wrapper's counts.
///
/// # Errors
///
/// A failing run, or a replay that disagrees with the wrapper.
pub fn population_work(csr: &CsrGraph) -> Result<Vec<Work>, String> {
    let counting = Counting::new();
    let run = FrozenExecutor::from_csr(csr.clone())
        .run(&counting, Knowledge::none())
        .map_err(|e| e.to_string())?;
    let per_node = Replay::new(csr).population(run.radii());
    check_against_wrapper(&per_node, counting.counted())?;
    Ok(per_node)
}

/// Sums the per-node work of the probed `nodes`.
#[must_use]
pub fn work_of(nodes: &[NodeId], per_node: &[Work]) -> Work {
    let mut total = Work::default();
    for v in nodes {
        total.add(per_node[v.index()]);
    }
    total
}

/// Checks a replayed population against what the wrapper counted while
/// the same probes ran: every count the wrapper sees must agree.
///
/// # Errors
///
/// Describes the first disagreeing count.
fn check_against_wrapper(replayed: &[Work], counted: Work) -> Result<Work, String> {
    let mut total = Work::default();
    for w in replayed {
        total.add(*w);
    }
    let seen = Work { arcs: total.arcs, ..counted };
    if seen == total {
        Ok(total)
    } else {
        Err(format!("work replay {total:?} disagrees with the counting wrapper {seen:?}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use avglocal::graph::{extract_ball, Graph, IdAssignment, Topology};

    fn naive(graph: &Graph, center: NodeId, radius: usize) -> Work {
        let ball = extract_ball(graph, center, radius);
        Work {
            probes: 1,
            decides: radius as u64 + 1,
            volume: ball.node_count() as u64,
            arcs: ball.members().iter().map(|&u| graph.degree(u) as u64).sum(),
        }
    }

    fn pin_against_naive(topology: Topology, n: usize) {
        let mut graph = topology.build(n).unwrap();
        IdAssignment::Shuffled { seed: 5 }.apply(&mut graph).unwrap();
        let csr = graph.freeze();
        let run = FrozenExecutor::from_csr(csr.clone()).run(&LargestId, Knowledge::none()).unwrap();
        let per_node = population_work(&csr).unwrap();
        for v in graph.nodes() {
            assert_eq!(per_node[v.index()], naive(&graph, v, run.radius(v)), "{topology} {v:?}");
        }
        assert_eq!(work_of(&graph.nodes().collect::<Vec<_>>(), &per_node).probes, n as u64);
        // The winner saw everything: its volume is the whole graph.
        let winner = graph.max_identifier_node().unwrap();
        assert_eq!(per_node[winner.index()].volume, n as u64);
        assert_eq!(per_node[winner.index()].arcs, 2 * graph.edge_count() as u64);
    }

    #[test]
    fn replay_matches_a_naive_recount_on_a_small_ring() {
        pin_against_naive(Topology::Cycle, 40);
    }

    #[test]
    fn replay_matches_a_naive_recount_on_a_small_hub_graph() {
        pin_against_naive(Topology::PreferentialAttachment { m: 2, seed: 3 }, 60);
    }

    #[test]
    fn work_of_sums_the_probed_nodes() {
        let per_node = [
            Work { probes: 1, decides: 2, volume: 3, arcs: 6 },
            Work { probes: 1, decides: 1, volume: 1, arcs: 2 },
            Work { probes: 1, decides: 4, volume: 7, arcs: 14 },
        ];
        let w = work_of(&[NodeId::new(0), NodeId::new(2)], &per_node);
        assert_eq!(w, Work { probes: 2, decides: 6, volume: 10, arcs: 20 });
    }

    #[test]
    fn a_wrapper_disagreement_is_reported() {
        let replayed = [Work { probes: 1, decides: 2, volume: 3, arcs: 4 }];
        let counted = Work { probes: 1, decides: 3, volume: 3, arcs: 0 };
        assert!(check_against_wrapper(&replayed, counted).is_err());
    }
}
