//! Topology families for the experiment harness.
//!
//! The paper states its separation on the ring, but the follow-up line of
//! work (Feuilloley 2017, Rozhoň 2023) studies node-averaged complexity on
//! trees, grids and general graphs. A [`Topology`] names one such family and
//! knows how to materialise an instance of (close to) a requested size, so
//! the sweep layer can be parameterised by the family instead of being
//! hard-wired to cycles.
//!
//! Every family here realises a requested size `n` *exactly*: grids and tori
//! pick the most square factorisation of `n`, and the complete binary tree is
//! heap-shaped (node `i` has children `2i + 1` and `2i + 2`), so it exists
//! for every `n`. Random `G(n, p)` instances are redrawn from derived seeds
//! until they are connected — a disconnected instance would silently change
//! the semantics of "the ball saturates" from "saw the whole graph" to "saw
//! the whole component", which is a different measure; see
//! [`Topology::build`].

use std::fmt;

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::components::ComponentMode;
use crate::error::{GraphError, Result};
use crate::{generators, traversal, Graph};

/// How many independent `G(n, p)` draws [`Topology::build`] attempts before
/// giving up on connectivity.
pub const GNP_CONNECT_ATTEMPTS: u64 = 64;

/// Derives an independent stream seed from `(base, index)`.
///
/// Both inputs pass through a SplitMix64 finaliser, so adjacent bases do
/// *not* share streams: `derive_seed(0, 1)` and `derive_seed(1, 0)` are
/// unrelated, unlike the additive `base + index` scheme this replaces (where
/// base 0/index 1 and base 1/index 0 collided exactly).
#[must_use]
pub fn derive_seed(base: u64, index: u64) -> u64 {
    splitmix64(splitmix64(base) ^ index)
}

/// The SplitMix64 finaliser: a cheap, high-quality 64-bit mixing function.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A named graph family the experiment harness can sweep over.
///
/// # Examples
///
/// ```
/// use avglocal_graph::Topology;
///
/// # fn main() -> Result<(), avglocal_graph::GraphError> {
/// let grid = Topology::Grid.build(12)?; // 3 x 4
/// assert_eq!(grid.node_count(), 12);
/// let tree = Topology::CompleteBinaryTree.build(10)?;
/// assert_eq!(tree.node_count(), 10);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Topology {
    /// The `n`-cycle — the paper's setting.
    Cycle,
    /// The path on `n` nodes.
    Path,
    /// The heap-shaped complete binary tree on exactly `n` nodes.
    CompleteBinaryTree,
    /// The most square `w x h` grid with `w * h == n`.
    Grid,
    /// The most square `w x h` torus with `w * h == n` (both sides `>= 3`).
    Torus,
    /// Erdős–Rényi `G(n, p)`, redrawn from seeds derived from `seed` until
    /// connected.
    Gnp {
        /// Edge probability.
        p: f64,
        /// Base seed of the family; the instance seed is derived from
        /// `(seed, n, attempt)`.
        seed: u64,
    },
    /// Barabási–Albert preferential attachment: each new node attaches to
    /// `m` distinct existing nodes with degree-proportional probability.
    /// Always connected and exact-`n` by construction — the first
    /// hub-weighted family, where a few old nodes hold a disproportionate
    /// share of the edges.
    PreferentialAttachment {
        /// Edges added per new node (`m >= 1`).
        m: usize,
        /// Base seed of the family; the instance seed is derived from
        /// `(seed, n)`.
        seed: u64,
    },
    /// The erased power-law configuration model over the deterministic
    /// Zipf-like degree sequence `d_i ~ (n / i)^(1 / (gamma - 1))`. Heavier
    /// hubs than preferential attachment, but connectivity is not
    /// guaranteed: connected builds redraw from derived seeds like `Gnp`,
    /// and the per-component mode accepts the first draw as-is.
    PowerLawConfiguration {
        /// The power-law exponent (`gamma > 1`; smaller is hub-heavier).
        gamma: f64,
        /// Base seed of the family; the instance seed is derived from
        /// `(seed, n, attempt)`.
        seed: u64,
    },
}

impl Topology {
    /// The deterministic families, in display order. `Gnp` is excluded
    /// because it needs parameters; see [`Topology::gnp_connected`].
    pub const DETERMINISTIC: [Topology; 5] = [
        Topology::Cycle,
        Topology::Path,
        Topology::CompleteBinaryTree,
        Topology::Grid,
        Topology::Torus,
    ];

    /// A `G(n, p)` family with `p = min(1, 2 ln n / n)` — comfortably above
    /// the `ln n / n` connectivity threshold, so the redraw loop in
    /// [`Topology::build`] almost always succeeds on the first attempt.
    #[must_use]
    pub fn gnp_connected(n: usize, seed: u64) -> Topology {
        let p = if n <= 1 { 1.0 } else { (2.0 * (n as f64).ln() / n as f64).min(1.0) };
        Topology::Gnp { p, seed }
    }

    /// Short machine-friendly name of the family (no parameters).
    #[must_use]
    pub fn key(&self) -> &'static str {
        match self {
            Topology::Cycle => "cycle",
            Topology::Path => "path",
            Topology::CompleteBinaryTree => "tree",
            Topology::Grid => "grid",
            Topology::Torus => "torus",
            Topology::Gnp { .. } => "gnp",
            Topology::PreferentialAttachment { .. } => "pa",
            Topology::PowerLawConfiguration { .. } => "powerlaw",
        }
    }

    /// Returns `true` for the cycle family (the only one the ring-specific
    /// algorithms run on).
    #[must_use]
    pub fn is_cycle(&self) -> bool {
        matches!(self, Topology::Cycle)
    }

    /// Builds a **connected** instance with exactly `n` nodes.
    ///
    /// Deterministic families build exactly one graph per `n`. `Gnp` draws up
    /// to [`GNP_CONNECT_ATTEMPTS`] instances from seeds derived from
    /// `(seed, n)` and returns the first connected one; the experiment layer
    /// therefore never mixes "ball saturates the component" with "ball
    /// saturates the graph".
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidGeneratorParameter`] when the family has
    /// no instance of size `n` (cycles need `n >= 3`, tori need a
    /// factorisation with both sides `>= 3`, …) and [`GraphError::Disconnected`]
    /// when every attempted `G(n, p)` draw was disconnected.
    pub fn build(&self, n: usize) -> Result<Graph> {
        match self {
            Topology::Cycle => generators::cycle(n),
            Topology::Path => generators::path(n),
            Topology::CompleteBinaryTree => generators::complete_binary_tree(n),
            Topology::Grid => {
                let (w, h) = most_square_factors(n, 1).ok_or_else(|| {
                    GraphError::InvalidGeneratorParameter {
                        reason: format!("a grid needs at least 1 node, got {n}"),
                    }
                })?;
                generators::grid(w, h)
            }
            Topology::Torus => {
                let (w, h) = most_square_factors(n, 3).ok_or_else(|| {
                    GraphError::InvalidGeneratorParameter {
                        reason: format!("a torus needs n = w*h with both sides >= 3, got n = {n}"),
                    }
                })?;
                generators::torus(w, h)
            }
            Topology::Gnp { p, seed } => connected_draw(
                |attempt| gnp_draw(n, *p, *seed, attempt),
                || {
                    format!(
                        "G({n}, {p}) stayed disconnected for {GNP_CONNECT_ATTEMPTS} draws \
                         (seed {seed}); raise p towards the ln(n)/n connectivity threshold"
                    )
                },
            ),
            Topology::PreferentialAttachment { m, seed } => pa_draw(n, *m, *seed),
            Topology::PowerLawConfiguration { gamma, seed } => connected_draw(
                |attempt| power_law_draw(n, *gamma, *seed, attempt),
                || {
                    format!(
                        "the power-law configuration model (n = {n}, gamma = {gamma}) stayed \
                         disconnected for {GNP_CONNECT_ATTEMPTS} draws (seed {seed}); lower \
                         gamma for heavier hubs or study it with ComponentMode::PerComponent"
                    )
                },
            ),
        }
    }

    /// Builds an instance under the given [`ComponentMode`].
    ///
    /// [`ComponentMode::RequireConnected`] is [`Topology::build`]: random
    /// families are redrawn from derived seeds until connected, and a
    /// persistently disconnected family is a hard error.
    /// [`ComponentMode::PerComponent`] uses the **first** draw as-is — no
    /// connectivity check runs and no derived seeds are burnt on redraws,
    /// because a disconnected instance is exactly what the caller asked to
    /// study; families that are connected by construction build as in
    /// [`Topology::build`].
    ///
    /// # Errors
    ///
    /// Size errors for both modes; [`GraphError::Disconnected`] only in
    /// [`ComponentMode::RequireConnected`].
    pub fn build_for(&self, n: usize, mode: ComponentMode) -> Result<Graph> {
        match mode {
            ComponentMode::RequireConnected => self.build(n),
            ComponentMode::PerComponent => match self {
                Topology::Gnp { p, seed } => gnp_draw(n, *p, *seed, 0),
                Topology::PowerLawConfiguration { gamma, seed } => {
                    power_law_draw(n, *gamma, *seed, 0)
                }
                always_connected => always_connected.build(n),
            },
        }
    }
}

/// Runs the shared redraw-until-connected loop of the random families:
/// `draw(attempt)` produces draw number `attempt`, and a family that stays
/// disconnected for [`GNP_CONNECT_ATTEMPTS`] draws is a hard
/// [`GraphError::Disconnected`] carrying `disconnected_reason()`.
fn connected_draw(
    draw: impl Fn(u64) -> Result<Graph>,
    disconnected_reason: impl FnOnce() -> String,
) -> Result<Graph> {
    for attempt in 0..GNP_CONNECT_ATTEMPTS {
        let g = draw(attempt)?;
        if traversal::is_connected(&g) {
            return Ok(g);
        }
    }
    Err(GraphError::Disconnected { reason: disconnected_reason() })
}

/// Draw number `attempt` of the `G(n, p)` family with base `seed` — the one
/// place the per-instance seed stream is derived, shared by
/// [`Topology::build`]'s retry loop and [`Topology::build_for`]'s first draw.
fn gnp_draw(n: usize, p: f64, seed: u64, attempt: u64) -> Result<Graph> {
    let stream = derive_seed(seed, n as u64);
    let mut rng = StdRng::seed_from_u64(derive_seed(stream, attempt));
    generators::erdos_renyi(n, p, &mut rng)
}

/// The one preferential-attachment draw per `(n, seed)`: the construction is
/// connected by design, so there is no retry stream to derive — just the
/// per-size instance seed.
fn pa_draw(n: usize, m: usize, seed: u64) -> Result<Graph> {
    let mut rng = StdRng::seed_from_u64(derive_seed(seed, n as u64));
    generators::preferential_attachment(n, m, &mut rng)
}

/// Draw number `attempt` of the power-law configuration family, mirroring
/// [`gnp_draw`]'s seed derivation.
fn power_law_draw(n: usize, gamma: f64, seed: u64, attempt: u64) -> Result<Graph> {
    let stream = derive_seed(seed, n as u64);
    let mut rng = StdRng::seed_from_u64(derive_seed(stream, attempt));
    generators::power_law_configuration(n, gamma, &mut rng)
}

impl fmt::Display for Topology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Topology::Gnp { p, seed } => write!(f, "gnp(p={p}, seed={seed})"),
            Topology::PreferentialAttachment { m, seed } => write!(f, "pa(m={m}, seed={seed})"),
            Topology::PowerLawConfiguration { gamma, seed } => {
                write!(f, "powerlaw(gamma={gamma}, seed={seed})")
            }
            other => f.write_str(other.key()),
        }
    }
}

/// The factorisation `n = w * h` with `min_side <= w <= h` whose sides are
/// closest together, or `None` when no such factorisation exists.
fn most_square_factors(n: usize, min_side: usize) -> Option<(usize, usize)> {
    let mut w = integer_sqrt(n);
    while w >= min_side.max(1) {
        if n.is_multiple_of(w) && n / w >= min_side {
            return Some((w, n / w));
        }
        w -= 1;
    }
    None
}

/// `floor(sqrt(n))` without floating point.
fn integer_sqrt(n: usize) -> usize {
    if n < 2 {
        return n;
    }
    let mut x = n;
    let mut y = x.div_ceil(2);
    while y < x {
        x = y;
        y = (x + n / x) / 2;
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derive_seed_has_no_adjacent_collisions() {
        // The additive scheme collided exactly here: base 0/trial 1 == base
        // 1/trial 0. The mixed derivation must not.
        assert_ne!(derive_seed(0, 1), derive_seed(1, 0));
        assert_ne!(derive_seed(0, 0), derive_seed(1, 0));
        assert_ne!(derive_seed(5, 7), derive_seed(7, 5));
        // And it stays deterministic.
        assert_eq!(derive_seed(42, 3), derive_seed(42, 3));
    }

    #[test]
    fn deterministic_families_realise_exact_sizes() {
        for topology in Topology::DETERMINISTIC {
            let n = if topology == Topology::Torus { 12 } else { 10 };
            let g = topology.build(n).unwrap();
            assert_eq!(g.node_count(), n, "{topology}");
            assert!(traversal::is_connected(&g), "{topology}");
            assert!(g.has_unique_identifiers(), "{topology}");
        }
    }

    #[test]
    fn grid_factors_are_most_square() {
        assert_eq!(most_square_factors(12, 1), Some((3, 4)));
        assert_eq!(most_square_factors(16, 1), Some((4, 4)));
        assert_eq!(most_square_factors(7, 1), Some((1, 7))); // prime: degenerates to a path
        assert_eq!(most_square_factors(7, 3), None);
        assert_eq!(most_square_factors(36, 3), Some((6, 6)));
        assert_eq!(most_square_factors(0, 1), None);
    }

    #[test]
    fn torus_rejects_unfactorable_sizes() {
        assert!(Topology::Torus.build(7).is_err());
        assert!(Topology::Torus.build(10).is_err()); // 2 x 5 only
        assert_eq!(Topology::Torus.build(9).unwrap().node_count(), 9);
    }

    #[test]
    fn gnp_build_is_connected_and_deterministic() {
        let topology = Topology::gnp_connected(48, 7);
        let a = topology.build(48).unwrap();
        let b = topology.build(48).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.node_count(), 48);
        assert!(traversal::is_connected(&a));
    }

    #[test]
    fn disconnected_gnp_is_an_explicit_error() {
        // p = 0 on n >= 2 nodes can never be connected; the build must say
        // so instead of handing back a graph with different saturation
        // semantics.
        let err = Topology::Gnp { p: 0.0, seed: 1 }.build(8).unwrap_err();
        assert!(matches!(err, GraphError::Disconnected { .. }));
        assert!(err.to_string().contains("disconnected"));
        // Per-component mode hands the disconnected draw back.
        let raw =
            Topology::Gnp { p: 0.0, seed: 1 }.build_for(8, ComponentMode::PerComponent).unwrap();
        assert_eq!(raw.edge_count(), 0);
        assert!(!traversal::is_connected(&raw));
    }

    #[test]
    fn per_component_mode_skips_the_redraw_loop() {
        // In per-component mode a subcritical G(n, p) is a supported
        // instance, not an error — and it is exactly the first draw, so no
        // derived seeds are burnt on redraws.
        let topology = Topology::Gnp { p: 0.0, seed: 1 };
        let g = topology.build_for(8, ComponentMode::PerComponent).unwrap();
        assert_eq!(g, gnp_draw(8, 0.0, 1, 0).unwrap());
        assert_eq!(g.edge_count(), 0);
        // The connected mode still redraws and still fails loudly.
        let err = topology.build_for(8, ComponentMode::RequireConnected).unwrap_err();
        assert!(matches!(err, GraphError::Disconnected { .. }));
        // Deterministic families are unaffected by the mode.
        for mode in [ComponentMode::RequireConnected, ComponentMode::PerComponent] {
            assert_eq!(
                Topology::Cycle.build_for(10, mode).unwrap(),
                Topology::Cycle.build(10).unwrap()
            );
        }
    }

    #[test]
    fn per_component_mode_matches_connected_build_on_supercritical_gnp() {
        // Above the connectivity threshold the first draw is almost surely
        // connected, so both modes hand back the same instance.
        let topology = Topology::gnp_connected(48, 7);
        assert_eq!(
            topology.build_for(48, ComponentMode::PerComponent).unwrap(),
            topology.build_for(48, ComponentMode::RequireConnected).unwrap()
        );
    }

    #[test]
    fn preferential_attachment_builds_are_connected_and_deterministic() {
        let topology = Topology::PreferentialAttachment { m: 2, seed: 5 };
        let a = topology.build(48).unwrap();
        let b = topology.build(48).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.node_count(), 48);
        assert!(traversal::is_connected(&a));
        // Always connected: both component modes hand back the same draw.
        assert_eq!(a, topology.build_for(48, ComponentMode::PerComponent).unwrap());
        // Different sizes draw from different derived streams.
        assert_eq!(topology.build(20).unwrap().node_count(), 20);
    }

    #[test]
    fn power_law_configuration_redraws_or_hands_back_the_first_draw() {
        let topology = Topology::PowerLawConfiguration { gamma: 2.0, seed: 3 };
        let raw = topology.build_for(48, ComponentMode::PerComponent).unwrap();
        assert_eq!(raw.node_count(), 48);
        assert_eq!(raw, power_law_draw(48, 2.0, 3, 0).unwrap());
        // The connected build, when it succeeds, is connected.
        if let Ok(g) = topology.build(48) {
            assert!(traversal::is_connected(&g));
            assert_eq!(g, topology.build(48).unwrap());
        }
        // gamma <= 1 is rejected with a parameter error, not a redraw loop.
        let err = Topology::PowerLawConfiguration { gamma: 1.0, seed: 3 }.build(8).unwrap_err();
        assert!(matches!(err, GraphError::InvalidGeneratorParameter { .. }));
    }

    #[test]
    fn hub_families_are_hub_weighted() {
        // Both new families must produce a maximum degree well above the
        // mean — that is the point of adding them.
        let pa = Topology::PreferentialAttachment { m: 2, seed: 7 }.build(256).unwrap();
        let mean_degree = 2.0 * pa.edge_count() as f64 / pa.node_count() as f64;
        assert!(pa.max_degree().unwrap() as f64 > 2.5 * mean_degree);
        let plc = Topology::PowerLawConfiguration { gamma: 2.2, seed: 7 }
            .build_for(256, ComponentMode::PerComponent)
            .unwrap();
        let mean_degree = 2.0 * plc.edge_count() as f64 / plc.node_count() as f64;
        assert!(plc.max_degree().unwrap() as f64 > 2.5 * mean_degree);
    }

    #[test]
    fn single_node_gnp_is_trivially_connected() {
        let g = Topology::Gnp { p: 0.0, seed: 3 }.build(1).unwrap();
        assert_eq!(g.node_count(), 1);
    }

    #[test]
    fn display_names_families() {
        assert_eq!(Topology::Cycle.to_string(), "cycle");
        assert_eq!(Topology::CompleteBinaryTree.to_string(), "tree");
        assert_eq!(Topology::Gnp { p: 0.5, seed: 2 }.to_string(), "gnp(p=0.5, seed=2)");
        assert_eq!(
            Topology::PreferentialAttachment { m: 2, seed: 3 }.to_string(),
            "pa(m=2, seed=3)"
        );
        assert_eq!(
            Topology::PowerLawConfiguration { gamma: 2.5, seed: 4 }.to_string(),
            "powerlaw(gamma=2.5, seed=4)"
        );
        assert_eq!(Topology::PreferentialAttachment { m: 2, seed: 3 }.key(), "pa");
        assert_eq!(Topology::PowerLawConfiguration { gamma: 2.5, seed: 4 }.key(), "powerlaw");
        assert_eq!(Topology::Cycle.key(), "cycle");
        assert!(Topology::Cycle.is_cycle());
        assert!(!Topology::Grid.is_cycle());
    }

    #[test]
    fn integer_sqrt_matches_floats() {
        for n in 0usize..2000 {
            assert_eq!(integer_sqrt(n), (n as f64).sqrt().floor() as usize, "n={n}");
        }
    }
}
