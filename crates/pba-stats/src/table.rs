//! Plain-text, Markdown and CSV table rendering.
//!
//! The experiment binaries print the same rows the paper's (hypothetical)
//! evaluation tables would contain, and EXPERIMENTS.md embeds the Markdown
//! rendering. Keeping the writer in one place guarantees every experiment
//! reports in the same format.

use std::fmt::Write as _;

/// Column alignment for text rendering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Align {
    /// Left-aligned (default for strings).
    #[default]
    Left,
    /// Right-aligned (default for numbers).
    Right,
}

/// A single table cell. Construct via the `From` impls for common types.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell(pub String);

impl From<String> for Cell {
    fn from(s: String) -> Self {
        Cell(s)
    }
}
impl From<&str> for Cell {
    fn from(s: &str) -> Self {
        Cell(s.to_string())
    }
}
impl From<u64> for Cell {
    fn from(v: u64) -> Self {
        Cell(v.to_string())
    }
}
impl From<u32> for Cell {
    fn from(v: u32) -> Self {
        Cell(v.to_string())
    }
}
impl From<usize> for Cell {
    fn from(v: usize) -> Self {
        Cell(v.to_string())
    }
}
impl From<i64> for Cell {
    fn from(v: i64) -> Self {
        Cell(v.to_string())
    }
}
impl From<f64> for Cell {
    fn from(v: f64) -> Self {
        if v.is_finite() && (v.abs() >= 1000.0 || (v.fract() == 0.0 && v.abs() < 1e15)) {
            Cell(format!("{v:.1}"))
        } else {
            Cell(format!("{v:.3}"))
        }
    }
}

/// A simple rectangular table with named columns.
///
/// Every column is *pinned* — the same inputs reproduce its cells byte for
/// byte — unless [`Table::varying`] names it (wall-clock readings, cells that
/// depend on how threads interleave). Golden checks hash pinned cells only.
#[derive(Debug, Clone, Default)]
pub struct Table {
    title: String,
    columns: Vec<(String, Align)>,
    rows: Vec<Vec<Cell>>,
    varying: Vec<usize>,
}

impl Table {
    /// Creates a table with a title and column headers (all left-aligned).
    pub fn new(title: &str, columns: &[&str]) -> Self {
        Self {
            title: title.to_string(),
            columns: columns
                .iter()
                .map(|c| (c.to_string(), Align::Left))
                .collect(),
            rows: Vec::new(),
            varying: Vec::new(),
        }
    }

    /// Creates a table with explicit alignments.
    pub fn with_alignments(title: &str, columns: &[(&str, Align)]) -> Self {
        Self {
            title: title.to_string(),
            columns: columns.iter().map(|(c, a)| (c.to_string(), *a)).collect(),
            rows: Vec::new(),
            varying: Vec::new(),
        }
    }

    /// Marks the named columns as varying from run to run, so golden checks
    /// skip their cells. Panics on a name that is not a column — a typo must
    /// not silently leave a timing column pinned.
    pub fn varying(mut self, columns: &[&str]) -> Self {
        for name in columns {
            let col = self
                .columns
                .iter()
                .position(|(c, _)| c == name)
                .unwrap_or_else(|| panic!("no column '{name}' in table '{}'", self.title));
            self.varying.push(col);
        }
        self
    }

    /// Whether column `col` reproduces exactly (not marked [`Table::varying`]).
    pub fn is_pinned(&self, col: usize) -> bool {
        !self.varying.contains(&col)
    }

    /// Table title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// Number of data rows.
    pub fn n_rows(&self) -> usize {
        self.rows.len()
    }

    /// Number of columns.
    pub fn n_cols(&self) -> usize {
        self.columns.len()
    }

    /// Appends a row. Panics if the arity does not match the column count —
    /// mismatched experiment rows are a programming error we want to fail loudly.
    pub fn push_row<I, C>(&mut self, row: I)
    where
        I: IntoIterator<Item = C>,
        C: Into<Cell>,
    {
        let cells: Vec<Cell> = row.into_iter().map(Into::into).collect();
        assert_eq!(
            cells.len(),
            self.columns.len(),
            "row arity {} does not match column count {} in table '{}'",
            cells.len(),
            self.columns.len(),
            self.title
        );
        self.rows.push(cells);
    }

    /// Access to the raw rows (mainly for tests and post-processing).
    pub fn rows(&self) -> &[Vec<Cell>] {
        &self.rows
    }

    /// The column names, in order (for serializers that re-emit tables).
    pub fn column_names(&self) -> Vec<&str> {
        self.columns.iter().map(|(c, _)| c.as_str()).collect()
    }

    /// Renders an aligned plain-text table.
    pub fn render_text(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(|(c, _)| c.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.0.len());
            }
        }
        let mut out = String::new();
        if !self.title.is_empty() {
            let _ = writeln!(out, "== {} ==", self.title);
        }
        let header: Vec<String> = self
            .columns
            .iter()
            .enumerate()
            .map(|(i, (c, _))| format!("{:width$}", c, width = widths[i]))
            .collect();
        let _ = writeln!(out, "{}", header.join("  "));
        let rule: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        let _ = writeln!(out, "{}", rule.join("  "));
        for row in &self.rows {
            let line: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(i, cell)| match self.columns[i].1 {
                    Align::Left => format!("{:<width$}", cell.0, width = widths[i]),
                    Align::Right => format!("{:>width$}", cell.0, width = widths[i]),
                })
                .collect();
            let _ = writeln!(out, "{}", line.join("  "));
        }
        out
    }

    /// Renders a GitHub-flavoured Markdown table (including the title as a heading).
    pub fn render_markdown(&self) -> String {
        let mut out = String::new();
        if !self.title.is_empty() {
            let _ = writeln!(out, "### {}\n", self.title);
        }
        let header: Vec<&str> = self.columns.iter().map(|(c, _)| c.as_str()).collect();
        let _ = writeln!(out, "| {} |", header.join(" | "));
        let seps: Vec<&str> = self
            .columns
            .iter()
            .map(|(_, a)| match a {
                Align::Left => "---",
                Align::Right => "---:",
            })
            .collect();
        let _ = writeln!(out, "| {} |", seps.join(" | "));
        for row in &self.rows {
            let cells: Vec<&str> = row.iter().map(|c| c.0.as_str()).collect();
            let _ = writeln!(out, "| {} |", cells.join(" | "));
        }
        out
    }

    /// Renders comma-separated values (header row included, title omitted).
    pub fn render_csv(&self) -> String {
        let mut out = String::new();
        let header: Vec<String> = self.columns.iter().map(|(c, _)| csv_escape(c)).collect();
        let _ = writeln!(out, "{}", header.join(","));
        for row in &self.rows {
            let cells: Vec<String> = row.iter().map(|c| csv_escape(&c.0)).collect();
            let _ = writeln!(out, "{}", cells.join(","));
        }
        out
    }
}

fn csv_escape(s: &str) -> String {
    if s.contains(',') || s.contains('"') || s.contains('\n') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_table() -> Table {
        let mut t = Table::with_alignments(
            "E1: heavy algorithm",
            &[
                ("n", Align::Right),
                ("m/n", Align::Right),
                ("algo", Align::Left),
            ],
        );
        t.push_row([Cell::from(1024u64), Cell::from(16u64), Cell::from("heavy")]);
        t.push_row([Cell::from(4096u64), Cell::from(256u64), Cell::from("heavy")]);
        t
    }

    #[test]
    fn dimensions() {
        let t = sample_table();
        assert_eq!(t.n_rows(), 2);
        assert_eq!(t.n_cols(), 3);
        assert_eq!(t.title(), "E1: heavy algorithm");
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn arity_mismatch_panics() {
        let mut t = Table::new("x", &["a", "b"]);
        t.push_row([Cell::from(1u64)]);
    }

    #[test]
    fn text_rendering_is_aligned() {
        let t = sample_table();
        let text = t.render_text();
        assert!(text.contains("== E1: heavy algorithm =="));
        assert!(text.contains("n"));
        // right-aligned numeric column: 1024 and 4096 end at the same offset
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines.len() >= 4);
        assert!(lines[3].contains("1024"));
        assert!(lines[4].contains("4096"));
    }

    #[test]
    fn markdown_rendering() {
        let t = sample_table();
        let md = t.render_markdown();
        assert!(md.starts_with("### E1: heavy algorithm"));
        assert!(md.contains("| n | m/n | algo |"));
        assert!(md.contains("| ---: | ---: | --- |"));
        assert!(md.contains("| 1024 | 16 | heavy |"));
    }

    #[test]
    fn csv_rendering_and_escaping() {
        let mut t = Table::new("t", &["name", "value"]);
        t.push_row([Cell::from("a,b"), Cell::from(3u64)]);
        t.push_row([Cell::from("say \"hi\""), Cell::from(4u64)]);
        let csv = t.render_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "name,value");
        assert_eq!(lines[1], "\"a,b\",3");
        assert_eq!(lines[2], "\"say \"\"hi\"\"\",4");
    }

    #[test]
    fn cell_from_float_formatting() {
        assert_eq!(Cell::from(1.23456).0, "1.235");
        assert_eq!(Cell::from(12000.0).0, "12000.0");
        assert_eq!(Cell::from(2.0).0, "2.0");
    }

    #[test]
    fn cell_from_integers() {
        assert_eq!(Cell::from(7u32).0, "7");
        assert_eq!(Cell::from(7usize).0, "7");
        assert_eq!(Cell::from(-7i64).0, "-7");
    }

    #[test]
    fn columns_are_pinned_unless_marked_varying() {
        let t = sample_table().varying(&["m/n"]);
        assert!(t.is_pinned(0));
        assert!(!t.is_pinned(1));
        assert!(t.is_pinned(2));
    }

    #[test]
    #[should_panic(expected = "no column 'seconds'")]
    fn varying_rejects_an_unknown_column() {
        let _ = sample_table().varying(&["seconds"]);
    }

    #[test]
    fn empty_table_renders_header_only() {
        let t = Table::new("empty", &["a"]);
        let text = t.render_text();
        assert!(text.contains("a"));
        let csv = t.render_csv();
        assert_eq!(csv.lines().count(), 1);
    }
}
