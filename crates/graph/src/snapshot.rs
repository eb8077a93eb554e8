//! Versioned binary snapshots of [`CsrGraph`] with a validating decoder.
//!
//! A frozen CSR snapshot is the unit a radius-query service would persist,
//! ship between machines, or eventually memory-map at web scale — which
//! makes its byte form a **trust boundary**: bytes arriving from disk or the
//! network must be assumed adversarial. The decoder here therefore treats
//! its input as untrusted end to end. Every structural invariant the rest of
//! the crate relies on is re-established before a [`CsrGraph`] is handed
//! back, and every violation is a typed [`GraphError::CorruptSnapshot`] —
//! never a panic, whatever the bytes.
//!
//! # Format (version 1)
//!
//! All integers are little-endian. The file is one header followed by five
//! flat arrays:
//!
//! | offset | size | field |
//! |-------:|-----:|-------|
//! | 0  | 8 | magic `b"AVGLSNAP"` |
//! | 8  | 4 | format version (`u32`, currently 1) |
//! | 12 | 8 | FNV-1a 64 checksum of every byte after this field |
//! | 20 | 8 | node count `n` (`u64`) |
//! | 28 | 8 | directed edge count `2m` (`u64`) |
//! | 36 | 8 | component count `c` (`u64`) |
//! | 44 | `4(n+1)` | offsets (`u32` each) |
//! | …  | `4·2m` | targets (`u32` each, port order) |
//! | …  | `4n` | component label per node (`u32` each) |
//! | …  | `4c` | component sizes (`u32` each) |
//! | …  | `8n` | identifier per node (`u64` each) |
//!
//! The total length is implied exactly by the header; truncated input and
//! trailing garbage are both rejected.
//!
//! # What the decoder checks
//!
//! 1. **Header**: magic, version, and the checksum of the entire payload
//!    (so any bit flip after byte 20 is detected before parsing).
//! 2. **Counts**: `n` and `2m` fit the crate's `u32` index limits, `2m` is
//!    even, `c ≤ n`, and the byte length matches the implied layout exactly.
//! 3. **Offsets**: start at 0, are monotone non-decreasing, and end at `2m`.
//! 4. **Targets**: every endpoint is `< n`, no self loops, no duplicate
//!    neighbours, and the adjacency is **symmetric** (`u ∈ N(v)` ⇔
//!    `v ∈ N(u)`), so the result is a simple undirected graph.
//! 5. **Components**: the stored labelling must equal the canonical one
//!    recomputed from the validated adjacency (labels *and* sizes), so a
//!    decoded snapshot's component structure can never disagree with its
//!    edges.
//!
//! Encoding then decoding is bit-identical: `from_bytes(&to_bytes(csr))`
//! reproduces `csr` exactly, including port order, identifiers, and the
//! component labelling.

use std::collections::HashSet;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

use crate::components::ComponentLabels;
use crate::error::{GraphError, Result};
use crate::{CsrGraph, Identifier};

/// The 8-byte magic prefix of every snapshot.
pub const MAGIC: [u8; 8] = *b"AVGLSNAP";

/// The current (and only) snapshot format version.
pub const VERSION: u32 = 1;

/// Byte length of the fixed header (magic, version, checksum, three counts).
pub const HEADER_LEN: usize = 44;

/// Byte offset at which the checksummed region starts (everything after the
/// checksum field itself).
const CHECKSUMMED_FROM: usize = 20;

/// FNV-1a 64-bit hash — the integrity checksum of the snapshot payload.
///
/// Not cryptographic: it defends against accidental corruption (truncation
/// aside, any single bit flip changes the digest), not against a forger, who
/// is already constrained by the structural validation.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

impl CsrGraph {
    /// Serialises the snapshot into the version-1 binary format described in
    /// [`crate::snapshot`].
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let n = self.node_count();
        let offsets = self.offsets();
        let targets = self.targets();
        let labels = self.components().labels();
        let sizes = self.components().sizes();
        let total = HEADER_LEN
            + 4 * offsets.len()
            + 4 * targets.len()
            + 4 * labels.len()
            + 4 * sizes.len()
            + 8 * n;
        let mut out = Vec::with_capacity(total);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&[0u8; 8]); // checksum placeholder
        out.extend_from_slice(&(n as u64).to_le_bytes());
        out.extend_from_slice(&(targets.len() as u64).to_le_bytes());
        out.extend_from_slice(&(sizes.len() as u64).to_le_bytes());
        for &x in offsets {
            out.extend_from_slice(&x.to_le_bytes());
        }
        for &x in targets {
            out.extend_from_slice(&x.to_le_bytes());
        }
        for &x in labels {
            out.extend_from_slice(&x.to_le_bytes());
        }
        for &x in sizes {
            out.extend_from_slice(&x.to_le_bytes());
        }
        for id in self.identifiers() {
            out.extend_from_slice(&id.value().to_le_bytes());
        }
        debug_assert_eq!(out.len(), total);
        let checksum = fnv1a(&out[CHECKSUMMED_FROM..]);
        out[12..20].copy_from_slice(&checksum.to_le_bytes());
        out
    }

    /// Decodes and validates a snapshot produced by [`CsrGraph::to_bytes`].
    ///
    /// The input is untrusted: see [`crate::snapshot`] for the full list of
    /// checks. Accepted snapshots round-trip bit-identically (re-encoding the
    /// returned graph reproduces `bytes`).
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::CorruptSnapshot`] — carrying a best-effort byte
    /// offset and a description of the violated invariant — for any input
    /// that is not a valid version-1 snapshot. Never panics.
    pub fn from_bytes(bytes: &[u8]) -> Result<CsrGraph> {
        let corrupt =
            |offset: usize, reason: String| GraphError::CorruptSnapshot { offset, reason };
        if bytes.len() < HEADER_LEN {
            return Err(corrupt(
                bytes.len(),
                format!("truncated header: {} bytes, need at least {HEADER_LEN}", bytes.len()),
            ));
        }
        if bytes[..8] != MAGIC {
            return Err(corrupt(0, "bad magic (not an AVGLSNAP snapshot)".to_string()));
        }
        let version = read_u32(bytes, 8);
        if version != VERSION {
            return Err(corrupt(
                8,
                format!("unsupported format version {version}, expected {VERSION}"),
            ));
        }
        let stored_checksum = read_u64(bytes, 12);
        let actual_checksum = fnv1a(&bytes[CHECKSUMMED_FROM..]);
        if stored_checksum != actual_checksum {
            return Err(corrupt(
                12,
                format!("checksum mismatch: header says {stored_checksum:#018x}, payload hashes to {actual_checksum:#018x}"),
            ));
        }
        let n_raw = read_u64(bytes, 20);
        let de_raw = read_u64(bytes, 28);
        let cc_raw = read_u64(bytes, 36);
        // The crate indexes nodes and edge offsets with u32 (see
        // `CsrGraph`), so the counts must fit before any array is sized.
        let Some(n) = usize_u32_count(n_raw, u64::from(u32::MAX) - 1) else {
            return Err(corrupt(20, format!("node count {n_raw} exceeds the u32 index limit")));
        };
        let Some(de) = usize_u32_count(de_raw, u64::from(u32::MAX)) else {
            return Err(corrupt(
                28,
                format!("directed edge count {de_raw} exceeds the u32 index limit"),
            ));
        };
        if de % 2 != 0 {
            return Err(corrupt(
                28,
                format!(
                    "directed edge count {de} is odd; undirected snapshots store each edge twice"
                ),
            ));
        }
        let Some(cc) = usize_u32_count(cc_raw, u64::from(u32::MAX)) else {
            return Err(corrupt(
                36,
                format!("component count {cc_raw} exceeds the u32 index limit"),
            ));
        };
        if cc > n {
            return Err(corrupt(36, format!("{cc} components for {n} nodes")));
        }
        // Exact length check before any slicing: u128 arithmetic cannot
        // overflow for counts already bounded by u32.
        let expected = HEADER_LEN as u128
            + 4 * (n as u128 + 1)
            + 4 * de as u128
            + 4 * n as u128
            + 4 * cc as u128
            + 8 * n as u128;
        if bytes.len() as u128 != expected {
            return Err(corrupt(
                bytes.len().min(HEADER_LEN),
                format!(
                    "byte length {} does not match the {expected} implied by the header",
                    bytes.len()
                ),
            ));
        }
        let offsets_at = HEADER_LEN;
        let targets_at = offsets_at + 4 * (n + 1);
        let labels_at = targets_at + 4 * de;
        let sizes_at = labels_at + 4 * n;
        let identifiers_at = sizes_at + 4 * cc;

        let offsets: Vec<u32> = (0..=n).map(|i| read_u32(bytes, offsets_at + 4 * i)).collect();
        if offsets[0] != 0 {
            return Err(corrupt(
                offsets_at,
                format!("offsets must start at 0, found {}", offsets[0]),
            ));
        }
        if let Some(v) = (0..n).find(|&v| offsets[v] > offsets[v + 1]) {
            return Err(corrupt(
                offsets_at + 4 * v,
                format!("offsets not monotone at node {v}: {} > {}", offsets[v], offsets[v + 1]),
            ));
        }
        if offsets[n] as usize != de {
            return Err(corrupt(
                offsets_at + 4 * n,
                format!("final offset {} disagrees with directed edge count {de}", offsets[n]),
            ));
        }
        let targets: Vec<u32> = (0..de).map(|i| read_u32(bytes, targets_at + 4 * i)).collect();
        // Endpoint bounds, self loops, duplicates, and symmetry in one
        // directed-edge pass: a simple undirected graph stores each edge as
        // two distinct directed arcs, so the arc set must be duplicate-free,
        // loop-free, and closed under reversal.
        let mut arcs: HashSet<(u32, u32)> = HashSet::with_capacity(de);
        for v in 0..n {
            let (from, to) = (offsets[v] as usize, offsets[v + 1] as usize);
            for (i, &u) in targets.iter().enumerate().take(to).skip(from) {
                let at = targets_at + 4 * i;
                if u as usize >= n {
                    return Err(corrupt(
                        at,
                        format!("edge endpoint {u} out of bounds for {n} nodes"),
                    ));
                }
                if u as usize == v {
                    return Err(corrupt(at, format!("self loop on node {v}")));
                }
                if !arcs.insert((v as u32, u)) {
                    return Err(corrupt(at, format!("duplicate neighbour {u} in node {v}'s list")));
                }
            }
        }
        for &(v, u) in &arcs {
            if !arcs.contains(&(u, v)) {
                return Err(corrupt(
                    targets_at,
                    format!("asymmetric adjacency: {v} lists {u} but {u} does not list {v}"),
                ));
            }
        }
        // Component labelling: recompute the canonical labelling from the
        // now-validated adjacency and demand the stored one matches exactly.
        let components = ComponentLabels::of_csr(&offsets, &targets);
        if components.count() != cc {
            return Err(corrupt(
                36,
                format!("header claims {cc} components, adjacency has {}", components.count()),
            ));
        }
        for v in 0..n {
            let stored = read_u32(bytes, labels_at + 4 * v);
            if stored != components.labels()[v] {
                return Err(corrupt(
                    labels_at + 4 * v,
                    format!(
                        "component label of node {v} is {stored}, canonical labelling says {}",
                        components.labels()[v]
                    ),
                ));
            }
        }
        for c in 0..cc {
            let stored = read_u32(bytes, sizes_at + 4 * c);
            if stored != components.sizes()[c] {
                return Err(corrupt(
                    sizes_at + 4 * c,
                    format!(
                        "component {c} size is {stored}, adjacency says {}",
                        components.sizes()[c]
                    ),
                ));
            }
        }
        let identifiers: Vec<Identifier> =
            (0..n).map(|v| Identifier::new(read_u64(bytes, identifiers_at + 8 * v))).collect();
        Ok(CsrGraph::from_validated_parts(offsets, targets, components, identifiers))
    }

    /// Durably persists the snapshot to `path`.
    ///
    /// Crash safety comes from the classic write-to-temp protocol: the bytes
    /// are written to a sibling `<filename>.tmp`, fsynced, then atomically
    /// renamed over `path` (followed by a best-effort fsync of the parent
    /// directory so the rename itself is durable). A crash at any point
    /// leaves either the previous file intact or a stray `.tmp` that readers
    /// ignore — never a half-written snapshot under the final name.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::SnapshotIo`] if any filesystem step fails; the
    /// temp file is removed on a best-effort basis before returning. Never
    /// panics.
    pub fn write_to_path(&self, path: impl AsRef<Path>) -> Result<()> {
        let path = path.as_ref();
        let bytes = self.to_bytes();
        let tmp = tmp_sibling(path);
        let attempt = (|| {
            let mut file = fs::File::create(&tmp)?;
            file.write_all(&bytes)?;
            file.sync_all()?;
            drop(file);
            fs::rename(&tmp, path)?;
            // Durability of the rename needs the directory entry flushed too;
            // failure here is not a correctness problem (the data is either
            // fully there or the old file is), so it is best effort.
            if let Some(parent) = path.parent() {
                if let Ok(dir) = fs::File::open(parent) {
                    let _ = dir.sync_all();
                }
            }
            Ok(())
        })();
        attempt.map_err(|e: std::io::Error| {
            let _ = fs::remove_file(&tmp);
            snapshot_io(path, &e)
        })
    }

    /// Reads and validates a snapshot previously persisted with
    /// [`CsrGraph::write_to_path`].
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::SnapshotIo`] if the file cannot be read at all
    /// (missing, permissions, ...) and [`GraphError::CorruptSnapshot`] if
    /// bytes were read but fail validation — e.g. a write torn mid-stream by
    /// a crash, a truncation, or a bit flip. Never panics; see
    /// [`CsrGraph::from_bytes`] for the validation contract.
    pub fn read_from_path(path: impl AsRef<Path>) -> Result<CsrGraph> {
        let path = path.as_ref();
        let bytes = fs::read(path).map_err(|e| snapshot_io(path, &e))?;
        CsrGraph::from_bytes(&bytes)
    }
}

/// The sibling temp file `write_to_path` stages bytes in before the atomic
/// rename: `path` with `.tmp` appended to the full file name.
fn tmp_sibling(path: &Path) -> PathBuf {
    let mut name = path.as_os_str().to_os_string();
    name.push(".tmp");
    PathBuf::from(name)
}

/// Wraps an I/O failure as a typed [`GraphError::SnapshotIo`].
fn snapshot_io(path: &Path, err: &std::io::Error) -> GraphError {
    GraphError::SnapshotIo { path: path.display().to_string(), reason: err.to_string() }
}

/// Converts a header count to `usize`, rejecting values above `limit`.
fn usize_u32_count(raw: u64, limit: u64) -> Option<usize> {
    (raw <= limit).then_some(raw as usize)
}

/// Reads a little-endian `u32`; `at + 4 <= bytes.len()` is guaranteed by the
/// exact length check.
fn read_u32(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4-byte slice"))
}

/// Reads a little-endian `u64`; `at + 8 <= bytes.len()` is guaranteed by the
/// exact length check.
fn read_u64(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8-byte slice"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generators, Graph, IdAssignment, NodeId};

    fn sample_graphs() -> Vec<Graph> {
        let mut shuffled = generators::cycle(17).unwrap();
        IdAssignment::Shuffled { seed: 3 }.apply(&mut shuffled).unwrap();
        let mut disconnected = Graph::new();
        for i in 0..7 {
            disconnected.add_node(Identifier::new(100 + i));
        }
        disconnected.add_edge(NodeId::new(0), NodeId::new(3)).unwrap();
        disconnected.add_edge(NodeId::new(4), NodeId::new(5)).unwrap();
        vec![
            Graph::new(),
            generators::cycle(5).unwrap(),
            generators::grid(3, 4).unwrap(),
            generators::complete(6).unwrap(),
            generators::petersen(),
            shuffled,
            disconnected,
        ]
    }

    #[test]
    fn round_trip_is_bit_identical() {
        for g in sample_graphs() {
            let csr = g.freeze();
            let bytes = csr.to_bytes();
            let decoded = CsrGraph::from_bytes(&bytes).unwrap();
            assert_eq!(decoded, csr);
            assert_eq!(decoded.components(), csr.components());
            // Re-encoding reproduces the exact bytes.
            assert_eq!(decoded.to_bytes(), bytes);
        }
    }

    #[test]
    fn truncation_at_every_length_is_an_error_not_a_panic() {
        let csr = generators::grid(3, 3).unwrap().freeze();
        let bytes = csr.to_bytes();
        for len in 0..bytes.len() {
            let err = CsrGraph::from_bytes(&bytes[..len]).unwrap_err();
            assert!(matches!(err, GraphError::CorruptSnapshot { .. }), "len {len}: {err}");
        }
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let csr = generators::cycle(6).unwrap().freeze();
        let bytes = csr.to_bytes();
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                let mut mutated = bytes.clone();
                mutated[byte] ^= 1 << bit;
                let err = CsrGraph::from_bytes(&mutated).unwrap_err();
                assert!(
                    matches!(err, GraphError::CorruptSnapshot { .. }),
                    "byte {byte} bit {bit}: {err}"
                );
            }
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut bytes = generators::cycle(4).unwrap().freeze().to_bytes();
        bytes.push(0);
        assert!(CsrGraph::from_bytes(&bytes).is_err());
    }

    #[test]
    fn wrong_magic_and_version_are_rejected() {
        let bytes = generators::cycle(4).unwrap().freeze().to_bytes();
        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        let err = CsrGraph::from_bytes(&bad_magic).unwrap_err();
        assert!(err.to_string().contains("magic"), "{err}");
        let mut bad_version = bytes.clone();
        bad_version[8] = 2;
        // Patch the checksum so the version check itself is exercised.
        let checksum = fnv1a(&bad_version[CHECKSUMMED_FROM..]).to_le_bytes();
        bad_version[12..20].copy_from_slice(&checksum);
        let err = CsrGraph::from_bytes(&bad_version).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");
    }

    /// Re-checksums `bytes` in place, so structural corruption deeper than
    /// the checksum can be exercised.
    fn fix_checksum(bytes: &mut [u8]) {
        let checksum = fnv1a(&bytes[CHECKSUMMED_FROM..]).to_le_bytes();
        bytes[12..20].copy_from_slice(&checksum);
    }

    #[test]
    fn structural_corruption_is_caught_behind_a_valid_checksum() {
        let csr = generators::cycle(6).unwrap().freeze();
        let base = csr.to_bytes();

        // Non-monotone offsets.
        let mut bytes = base.clone();
        bytes[HEADER_LEN + 4] = 0xff;
        fix_checksum(&mut bytes);
        let err = CsrGraph::from_bytes(&bytes).unwrap_err();
        assert!(
            err.to_string().contains("monotone") || err.to_string().contains("offset"),
            "{err}"
        );

        // Out-of-bounds endpoint.
        let targets_at = HEADER_LEN + 4 * (csr.node_count() + 1);
        let mut bytes = base.clone();
        bytes[targets_at..targets_at + 4].copy_from_slice(&200u32.to_le_bytes());
        fix_checksum(&mut bytes);
        let err = CsrGraph::from_bytes(&bytes).unwrap_err();
        assert!(err.to_string().contains("out of bounds"), "{err}");

        // Self loop (node 0's first neighbour becomes 0).
        let mut bytes = base.clone();
        bytes[targets_at..targets_at + 4].copy_from_slice(&0u32.to_le_bytes());
        fix_checksum(&mut bytes);
        let err = CsrGraph::from_bytes(&bytes).unwrap_err();
        assert!(err.to_string().contains("self loop"), "{err}");

        // Asymmetry: node 0 lists node 3 (a non-neighbour on the 6-cycle)
        // without the reverse arc.
        let mut bytes = base.clone();
        bytes[targets_at..targets_at + 4].copy_from_slice(&3u32.to_le_bytes());
        fix_checksum(&mut bytes);
        let err = CsrGraph::from_bytes(&bytes).unwrap_err();
        assert!(err.to_string().contains("asymmetric"), "{err}");

        // Corrupt component label.
        let labels_at = targets_at + 4 * 2 * csr.edge_count();
        let mut bytes = base.clone();
        bytes[labels_at] ^= 1;
        fix_checksum(&mut bytes);
        let err = CsrGraph::from_bytes(&bytes).unwrap_err();
        assert!(err.to_string().contains("component"), "{err}");
    }

    #[test]
    fn identifier_corruption_changes_the_decoded_table_but_stays_valid_structure() {
        // Identifiers carry no structural invariant; flipping one behind a
        // fixed checksum decodes to a *different* valid snapshot. The
        // checksum is what protects them in transit.
        let csr = generators::cycle(4).unwrap().freeze();
        let mut bytes = csr.to_bytes();
        let id_at = bytes.len() - 8 * csr.node_count();
        bytes[id_at] ^= 1;
        fix_checksum(&mut bytes);
        let decoded = CsrGraph::from_bytes(&bytes).unwrap();
        assert_ne!(decoded.identifier(0), csr.identifier(0));
        assert_eq!(decoded.offsets(), csr.offsets());
    }

    #[test]
    fn empty_graph_round_trips() {
        let csr = Graph::new().freeze();
        let bytes = csr.to_bytes();
        assert_eq!(bytes.len(), HEADER_LEN + 4);
        let decoded = CsrGraph::from_bytes(&bytes).unwrap();
        assert_eq!(decoded.node_count(), 0);
        assert_eq!(decoded, csr);
    }

    /// Fresh per-test scratch directory under the OS temp dir; unique across
    /// concurrently running test processes and tests within one process.
    fn scratch_dir(tag: &str) -> std::path::PathBuf {
        use std::sync::atomic::{AtomicU32, Ordering};
        static SEQ: AtomicU32 = AtomicU32::new(0);
        let seq = SEQ.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir()
            .join(format!("avglocal-snapshot-{tag}-{}-{seq}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn disk_round_trip_is_bit_identical() {
        let dir = scratch_dir("roundtrip");
        for (i, g) in sample_graphs().into_iter().enumerate() {
            let csr = g.freeze();
            let path = dir.join(format!("gen-{i}.snap"));
            csr.write_to_path(&path).unwrap();
            let decoded = CsrGraph::read_from_path(&path).unwrap();
            assert_eq!(decoded, csr);
            assert_eq!(decoded.to_bytes(), csr.to_bytes());
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn write_leaves_no_temp_file_behind() {
        let dir = scratch_dir("tmpfile");
        let path = dir.join("g.snap");
        generators::cycle(5).unwrap().freeze().write_to_path(&path).unwrap();
        let listing: Vec<_> =
            std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap().file_name()).collect();
        assert_eq!(listing, vec![std::ffi::OsString::from("g.snap")]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rewrite_replaces_atomically() {
        // Overwriting an existing snapshot goes through the same temp+rename
        // path, so the old generation is never visible half-replaced.
        let dir = scratch_dir("rewrite");
        let path = dir.join("g.snap");
        let first = generators::cycle(5).unwrap().freeze();
        let second = generators::grid(3, 4).unwrap().freeze();
        first.write_to_path(&path).unwrap();
        second.write_to_path(&path).unwrap();
        assert_eq!(CsrGraph::read_from_path(&path).unwrap(), second);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_file_is_snapshot_io_not_corrupt() {
        let dir = scratch_dir("missing");
        let err = CsrGraph::read_from_path(dir.join("nope.snap")).unwrap_err();
        assert!(matches!(err, GraphError::SnapshotIo { .. }), "{err}");
        assert!(err.to_string().contains("nope.snap"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_write_on_disk_is_typed_corruption() {
        // Simulate a crash mid-write that somehow reached the final name
        // (e.g. a pre-atomic-rename writer): every prefix of the valid bytes
        // is rejected with CorruptSnapshot, never a panic.
        let dir = scratch_dir("torn");
        let csr = generators::grid(3, 3).unwrap().freeze();
        let bytes = csr.to_bytes();
        let path = dir.join("torn.snap");
        for len in [0, 7, HEADER_LEN - 1, HEADER_LEN, bytes.len() - 1] {
            std::fs::write(&path, &bytes[..len]).unwrap();
            let err = CsrGraph::read_from_path(&path).unwrap_err();
            assert!(matches!(err, GraphError::CorruptSnapshot { .. }), "len {len}: {err}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn write_into_missing_directory_is_snapshot_io() {
        let dir = scratch_dir("nodir");
        let err = generators::cycle(4)
            .unwrap()
            .freeze()
            .write_to_path(dir.join("sub/does/not/exist.snap"))
            .unwrap_err();
        assert!(matches!(err, GraphError::SnapshotIo { .. }), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn decoded_snapshot_is_usable_like_a_frozen_one() {
        let g = generators::grid(4, 4).unwrap();
        let csr = g.freeze();
        let decoded = CsrGraph::from_bytes(&csr.to_bytes()).unwrap();
        for v in 0..csr.node_count() as u32 {
            assert_eq!(decoded.neighbors(v), csr.neighbors(v));
            assert_eq!(decoded.degree(v), csr.degree(v));
            assert_eq!(decoded.identifier(v), csr.identifier(v));
        }
        assert_eq!(decoded.edges().count(), csr.edge_count());
        assert!(decoded.is_connected());
    }
}
