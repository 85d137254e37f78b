//! Shared helpers for the paper's experiments.
//!
//! Every `exp_*` binary in this crate regenerates one artifact of the paper
//! (a theorem's bound, a formula, or Figure 1) and prints a markdown table
//! on stdout; CI runs all ten and fails on a non-zero exit.  The tables are
//! not committed anywhere (`EXPERIMENTS.md` holds the scenario catalogue's
//! campaign-report table, not these), and the elapsed-time columns two of
//! them print are illustrative: performance numbers of record come from
//! `benchmark/` (see its README).  The helpers keep the binaries small: a
//! fixed-width markdown table printer, the canonical honest-input workload,
//! and two cell formatters.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use bvc_geometry::{Point, WorkloadGenerator};

/// A simple markdown table accumulator with aligned columns.
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Self {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must have as many cells as there are headers).
    ///
    /// # Panics
    ///
    /// Panics if the arity does not match the header row.
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row arity must match the header"
        );
        self.rows.push(cells.to_vec());
        self
    }

    /// Renders the table as aligned markdown.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::from("|");
            for (cell, width) in cells.iter().zip(widths) {
                line.push_str(&format!(" {cell:<width$} |"));
            }
            line
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push('|');
        for width in &widths {
            out.push_str(&format!("{:-<w$}|", "", w = width + 2));
        }
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Prints the rendered table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Prints an experiment header in a consistent format.
pub fn experiment_header(id: &str, claim: &str) {
    println!("## {id}");
    println!();
    println!("paper claim: {claim}");
    println!();
}

/// Canonical honest-input workload used across experiments: `count` points of
/// dimension `d` drawn uniformly from `[0, 1]^d` with the given seed.
pub fn honest_workload(seed: u64, count: usize, d: usize) -> Vec<Point> {
    WorkloadGenerator::new(seed)
        .box_points(count, d, 0.0, 1.0)
        .into_points()
}

/// Formats a boolean as a check mark / cross for tables.
pub fn mark(ok: bool) -> String {
    if ok {
        "yes".to_string()
    } else {
        "NO".to_string()
    }
}

/// Formats a float with the given precision.
pub fn fmt(value: f64, precision: usize) -> String {
    format!("{value:.precision$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned_markdown() {
        let mut table = Table::new(&["n", "verdict"]);
        table.row(&["4".into(), "yes".into()]);
        table.row(&["16".into(), "NO".into()]);
        let rendered = table.render();
        assert!(rendered.contains("| n  | verdict |"));
        assert!(rendered.lines().count() == 4);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn wrong_arity_panics() {
        let mut table = Table::new(&["a", "b"]);
        table.row(&["1".into()]);
    }

    #[test]
    fn workload_is_reproducible() {
        assert_eq!(honest_workload(1, 3, 2), honest_workload(1, 3, 2));
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(mark(true), "yes");
        assert_eq!(mark(false), "NO");
        assert_eq!(fmt(0.12345, 3), "0.123");
    }
}
