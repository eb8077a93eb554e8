//! Plain-text graph interchange: an edge-list format.
//!
//! Experiments occasionally need to hand an instance (topology + identifier
//! assignment) to external tooling, or to reload a previously saved worst-case
//! instance. The line-oriented **edge-list** format round-trips through
//! [`to_edge_list`] / [`from_edge_list`]: one `node <id>` line per node (in
//! node order, so identifier assignments are preserved) followed by one
//! `edge <id> <id>` line per undirected edge.

use crate::error::{GraphError, Result};
use crate::{Graph, GraphBuilder};

/// Serialises the graph in the edge-list format described in the module
/// documentation.
#[must_use]
pub fn to_edge_list(graph: &Graph) -> String {
    let mut out = String::new();
    for v in graph.nodes() {
        out.push_str(&format!("node {}\n", graph.identifier(v).value()));
    }
    for (u, v) in graph.edges() {
        out.push_str(&format!(
            "edge {} {}\n",
            graph.identifier(u).value(),
            graph.identifier(v).value()
        ));
    }
    out
}

/// Parses a graph from the edge-list format produced by [`to_edge_list`].
///
/// Blank lines and lines starting with `#` are ignored.
///
/// # Errors
///
/// The input is treated as untrusted text: every parse failure is reported
/// as a typed [`GraphError::MalformedLine`] carrying the 1-based line number
/// (unknown directives, missing or non-numeric identifiers, trailing
/// tokens). Builder errors that only surface once the whole document is
/// assembled (duplicate identifiers, duplicate edges, self loops, edges
/// naming unknown nodes) are propagated unchanged. This function never
/// panics, whatever the input.
pub fn from_edge_list(text: &str) -> Result<Graph> {
    let mut builder = GraphBuilder::new();
    for (line_no, raw_line) in text.lines().enumerate() {
        let line = raw_line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let Some(directive) = parts.next() else {
            continue; // unreachable: the line is non-empty, but never panic on input
        };
        let parse = |token: Option<&str>| -> Result<u64> {
            let token = token.ok_or_else(|| GraphError::MalformedLine {
                line: line_no + 1,
                reason: "missing identifier".to_string(),
            })?;
            token.parse::<u64>().map_err(|_| GraphError::MalformedLine {
                line: line_no + 1,
                reason: format!("identifier '{token}' is not an unsigned integer"),
            })
        };
        match directive {
            "node" => {
                let id = parse(parts.next())?;
                builder = builder.node(id);
            }
            "edge" => {
                let a = parse(parts.next())?;
                let b = parse(parts.next())?;
                builder = builder.edge(a, b);
            }
            other => {
                return Err(GraphError::MalformedLine {
                    line: line_no + 1,
                    reason: format!("unknown directive '{other}'"),
                });
            }
        }
        if parts.next().is_some() {
            return Err(GraphError::MalformedLine {
                line: line_no + 1,
                reason: "trailing tokens after the directive arguments".to_string(),
            });
        }
    }
    builder.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generators, IdAssignment};

    #[test]
    fn edge_list_round_trip_preserves_structure_and_identifiers() {
        let mut g = generators::cycle(9).unwrap();
        IdAssignment::Shuffled { seed: 5 }.apply(&mut g).unwrap();
        let text = to_edge_list(&g);
        let restored = from_edge_list(&text).unwrap();
        assert_eq!(restored.node_count(), g.node_count());
        assert_eq!(restored.edge_count(), g.edge_count());
        // Identifier sequence in node order is preserved.
        let original: Vec<u64> = g.identifiers().map(|i| i.value()).collect();
        let roundtrip: Vec<u64> = restored.identifiers().map(|i| i.value()).collect();
        assert_eq!(original, roundtrip);
        // Adjacency is preserved (same edges between the same identifiers).
        for (u, v) in g.edges() {
            let a = restored.node_by_identifier(g.identifier(u)).unwrap();
            let b = restored.node_by_identifier(g.identifier(v)).unwrap();
            assert!(restored.contains_edge(a, b));
        }
    }

    #[test]
    fn round_trip_works_for_other_families() {
        for g in [generators::petersen(), generators::grid(3, 3).unwrap()] {
            let restored = from_edge_list(&to_edge_list(&g)).unwrap();
            assert_eq!(restored.node_count(), g.node_count());
            assert_eq!(restored.edge_count(), g.edge_count());
        }
    }

    #[test]
    fn parser_ignores_comments_and_blank_lines() {
        let text = "# a comment\n\nnode 1\nnode 2\n\nedge 1 2\n";
        let g = from_edge_list(text).unwrap();
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn parser_rejects_malformed_input() {
        assert!(from_edge_list("frob 1").is_err());
        assert!(from_edge_list("node").is_err());
        assert!(from_edge_list("node abc").is_err());
        assert!(from_edge_list("edge 1").is_err());
        assert!(from_edge_list("node 1\nnode 1").is_err()); // duplicate identifier
        assert!(from_edge_list("node 1\nedge 1 1").is_err()); // self loop
        assert!(from_edge_list("node 1\nnode 2\nedge 1 3").is_err()); // unknown node
        assert!(from_edge_list("node 1 2").is_err()); // trailing tokens
    }

    #[test]
    fn parse_errors_carry_the_offending_line_number() {
        let text = "node 1\nnode 2\nfrob 3\n";
        match from_edge_list(text) {
            Err(GraphError::MalformedLine { line, reason }) => {
                assert_eq!(line, 3);
                assert!(reason.contains("frob"));
            }
            other => panic!("expected MalformedLine, got {other:?}"),
        }
        // Blank and comment lines still count toward the line number.
        let text = "# header\n\nnode 1\nnode nope\n";
        match from_edge_list(text) {
            Err(GraphError::MalformedLine { line, .. }) => assert_eq!(line, 4),
            other => panic!("expected MalformedLine, got {other:?}"),
        }
        // Overflowing identifiers are parse errors, not panics.
        match from_edge_list("node 99999999999999999999999999") {
            Err(GraphError::MalformedLine { line: 1, .. }) => {}
            other => panic!("expected MalformedLine, got {other:?}"),
        }
    }

    #[test]
    fn empty_input_is_the_empty_graph() {
        let g = from_edge_list("").unwrap();
        assert!(g.is_empty());
        assert_eq!(to_edge_list(&g), "");
    }
}
