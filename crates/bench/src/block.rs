//! The one shape of a `bench_e1` block, and the printer and JSON emitter
//! every block shares.
//!
//! A [`Block`] names its JSON key, its description and the columns of its
//! row lists, and has one run function that measures it and returns its
//! rows and its regression [`Gate`]s. A block's columns are therefore
//! written once: [`print_block`] and [`render_json`] both read them.

/// One column of a row list: its JSON key and the decimal places its values
/// are written with (0 for counts).
pub type Column = (&'static str, usize);

/// One recorded row: a value per column, in column order.
pub type Row = Vec<f64>;

/// What a block's run function returns: one row vector per row list of the
/// block, and the block's regression gates.
pub type Recorded = (Vec<Vec<Row>>, Vec<Gate>);

/// One block of `BENCH_e1.json`.
pub struct Block {
    /// The block's JSON key.
    pub name: &'static str,
    /// The block's `description` field. A block without one writes its row
    /// list straight into the top-level object.
    pub description: Option<&'static str>,
    /// The block's row lists: each list's JSON key and its columns.
    pub lists: &'static [(&'static str, &'static [Column])],
    /// Measures the block in quick mode or not, on a pool of the given size.
    pub run: fn(bool, usize) -> Recorded,
}

/// One regression gate of the `--check` suite: the measured speedup of a
/// recorded block must stay at or above its threshold. Gates whose full
/// separation needs real cores underneath the pool fall back to a relaxed
/// *sanity* threshold elsewhere (quick mode, undersized machines), so every
/// gated block is gated on every run — a pathological regression can never
/// hide behind a SKIP.
pub struct Gate {
    name: &'static str,
    speedup: f64,
    threshold: f64,
    sanity: bool,
}

impl Gate {
    /// A gate that always applies at its full threshold.
    #[must_use]
    pub fn full(name: &'static str, speedup: f64, threshold: f64) -> Gate {
        Gate { name, speedup, threshold, sanity: false }
    }

    /// A gate with its full threshold when `strong` holds and the relaxed
    /// `sanity_threshold` otherwise.
    #[must_use]
    pub fn scaled(
        name: &'static str,
        speedup: f64,
        strong: bool,
        full_threshold: f64,
        sanity_threshold: f64,
    ) -> Gate {
        Gate {
            name,
            speedup,
            threshold: if strong { full_threshold } else { sanity_threshold },
            sanity: !strong,
        }
    }
}

/// Prints the gate table and returns whether every gate passed.
pub fn print_gates(gates: &[Gate], threads: usize, cores: usize) -> bool {
    println!("\nregression gates ({threads} thread(s), {cores} core(s)):");
    let mut passed = true;
    for gate in gates {
        let status = if gate.speedup >= gate.threshold {
            "PASS"
        } else {
            passed = false;
            "FAIL"
        };
        let kind = if gate.sanity { "sanity gate" } else { "gate" };
        println!(
            "  [{status}] {:<48} {:>7.2}x ({kind} {:.2}x)",
            gate.name, gate.speedup, gate.threshold
        );
    }
    passed
}

/// Prints one block as a table per row list, headed by its column keys.
pub fn print_block(block: &Block, lists: &[Vec<Row>]) {
    println!("\n{} {}", block.name, block.description.unwrap_or_default());
    for (&(key, columns), rows) in block.lists.iter().zip(lists) {
        println!("  {key}:");
        let width = |name: &str| name.len().max(8);
        let header: Vec<String> =
            columns.iter().map(|&(name, _)| format!("{name:>w$}", w = width(name))).collect();
        println!("  {}", header.join(" "));
        for row in rows {
            let cells: Vec<String> = columns
                .iter()
                .zip(row)
                .map(|(&(name, decimals), value)| format!("{value:>w$.decimals$}", w = width(name)))
                .collect();
            println!("  {}", cells.join(" "));
        }
    }
}

/// Renders one row list as a JSON field whose rows sit two spaces deeper
/// than `indent`.
fn render_list(key: &str, columns: &[Column], rows: &[Row], indent: &str) -> String {
    let rows: Vec<String> = rows
        .iter()
        .map(|row| {
            let cells: Vec<String> = columns
                .iter()
                .zip(row)
                .map(|(&(name, decimals), value)| format!("\"{name}\": {value:.decimals$}"))
                .collect();
            format!("{indent}  {{{}}}", cells.join(", "))
        })
        .collect();
    format!("\"{key}\": [\n{}\n{indent}]", rows.join(",\n"))
}

/// Renders `BENCH_e1.json` from each block's recorded row lists, on a pool
/// of `threads` workers and a machine with `cores` cores.
#[must_use]
pub fn render_json(threads: usize, cores: usize, blocks: &[(&Block, Vec<Vec<Row>>)]) -> String {
    let mut fields = vec![
        "\"experiment\": \"e1_largest_id_identity\"".to_string(),
        format!("\"threads\": {threads}"),
        format!("\"available_parallelism\": {cores}"),
    ];
    for (block, lists) in blocks {
        let indent = if block.description.is_some() { "    " } else { "  " };
        let lists = block
            .lists
            .iter()
            .zip(lists)
            .map(|(&(key, columns), rows)| render_list(key, columns, rows, indent));
        match block.description {
            None => fields.extend(lists),
            Some(description) => {
                let mut inner = vec![
                    format!("\"description\": {description:?}"),
                    format!("\"threads\": {threads}"),
                ];
                inner.extend(lists);
                fields.push(format!("\"{}\": {{\n    {}\n  }}", block.name, inner.join(",\n    ")));
            }
        }
    }
    format!("{{\n  {}\n}}\n", fields.join(",\n  "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_emitter_renders_exact_json() {
        const TOP: Block = Block {
            name: "rows",
            description: None,
            lists: &[("rows", &[("n", 0), ("ms", 3)])],
            run: |_, _| (Vec::new(), Vec::new()),
        };
        const NESTED: Block = Block {
            name: "nested",
            description: Some("two lists"),
            lists: &[("rows", &[("n", 0), ("ratio", 2)]), ("frontier", &[("n", 0)])],
            run: |_, _| (Vec::new(), Vec::new()),
        };
        let blocks = [
            (&TOP, vec![vec![vec![256.0, 0.12345], vec![1024.0, 7.0]]]),
            (&NESTED, vec![vec![vec![64.0, 2.186]], vec![vec![4096.0], vec![16384.0]]]),
        ];
        let expected = r#"{
  "experiment": "e1_largest_id_identity",
  "threads": 4,
  "available_parallelism": 2,
  "rows": [
    {"n": 256, "ms": 0.123},
    {"n": 1024, "ms": 7.000}
  ],
  "nested": {
    "description": "two lists",
    "threads": 4,
    "rows": [
      {"n": 64, "ratio": 2.19}
    ],
    "frontier": [
      {"n": 4096},
      {"n": 16384}
    ]
  }
}
"#;
        assert_eq!(render_json(4, 2, &blocks), expected);
    }
}
