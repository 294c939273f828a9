//! Structured experiment reports.
//!
//! Every experiment produces a [`Report`]: an ordered list of typed blocks
//! (preformatted text and column/row tables) plus machine-readable `meta`
//! key/values (result digests, partial-point counts, …). The CLI renders a
//! report with [`Report::render_text`] — byte-for-byte the text the
//! experiments historically printed, so the canary scripts' `grep`/`awk`
//! parsers keep working — while the `ltp-service` job server ships the very
//! same value as JSON, built from [`Report::name`], [`Report::meta_entries`]
//! and [`Report::blocks`]. One value, two renderings; the two front ends can
//! never drift apart.

use ltp_stats::TextTable;

/// One renderable piece of a [`Report`].
#[derive(Debug, Clone, PartialEq)]
pub enum Block {
    /// Preformatted prose: rendered verbatim (no decoration, no added
    /// newlines), so reports assembled from text blocks reproduce the
    /// historical CLI output exactly.
    Text(String),
    /// An aligned table; rendered through [`TextTable`] in text mode and as
    /// `columns` / `rows` arrays in JSON.
    Table {
        /// Column headers, left to right.
        columns: Vec<String>,
        /// Rows of cells; every row has `columns.len()` cells.
        rows: Vec<Vec<String>>,
    },
}

/// A structured experiment report: what `Experiment::run` returns.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    name: String,
    blocks: Vec<Block>,
    meta: Vec<(String, String)>,
}

impl Report {
    /// Creates an empty report for the named experiment.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Report {
        Report {
            name: name.into(),
            blocks: Vec::new(),
            meta: Vec::new(),
        }
    }

    /// Wraps an already-rendered text report in a single-block [`Report`].
    /// Migration aid for experiments whose rendering is still string-based.
    #[must_use]
    pub fn from_text(name: impl Into<String>, text: impl Into<String>) -> Report {
        let mut r = Report::new(name);
        r.push_text(text);
        r
    }

    /// The experiment name this report belongs to.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The report's blocks in render order.
    #[must_use]
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// Appends a preformatted text block (rendered verbatim).
    pub fn push_text(&mut self, text: impl Into<String>) {
        self.blocks.push(Block::Text(text.into()));
    }

    /// Appends a table block built from a populated [`TextTable`].
    pub fn push_table(&mut self, columns: Vec<String>, rows: Vec<Vec<String>>) {
        for row in &rows {
            assert_eq!(row.len(), columns.len(), "ragged report table row");
        }
        self.blocks.push(Block::Table { columns, rows });
    }

    /// Records a machine-readable key/value. Meta entries are shipped in the
    /// service's JSON but never rendered in text output (the text
    /// equivalent, if any, is a separate [`Block::Text`]).
    pub fn push_meta(&mut self, key: impl Into<String>, value: impl Into<String>) {
        self.meta.push((key.into(), value.into()));
    }

    /// Looks up a meta value by key (first match).
    #[must_use]
    pub fn meta(&self, key: &str) -> Option<&str> {
        self.meta
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// All meta entries in insertion order.
    #[must_use]
    pub fn meta_entries(&self) -> &[(String, String)] {
        &self.meta
    }

    /// Renders the report as aligned plain text — the historical CLI output.
    #[must_use]
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for block in &self.blocks {
            match block {
                Block::Text(text) => out.push_str(text),
                Block::Table { columns, rows } => {
                    let cols: Vec<&str> = columns.iter().map(String::as_str).collect();
                    let mut table = TextTable::with_columns(&cols);
                    for row in rows {
                        table.add_row(row.clone());
                    }
                    out.push_str(&table.render());
                }
            }
        }
        out
    }
}

impl std::fmt::Display for Report {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render_text())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_blocks_render_verbatim() {
        let mut r = Report::new("demo");
        r.push_text("line one\n");
        r.push_text("line two\n");
        assert_eq!(r.render_text(), "line one\nline two\n");
        assert_eq!(format!("{r}"), r.render_text());
    }

    #[test]
    fn table_block_matches_text_table_render() {
        let mut direct = TextTable::with_columns(&["config", "cpi"]);
        direct.add_row(vec!["baseline".into(), "1.20".into()]);
        direct.add_row(vec!["ltp".into(), "1.21".into()]);

        let mut r = Report::new("demo");
        r.push_table(
            vec!["config".into(), "cpi".into()],
            vec![
                vec!["baseline".into(), "1.20".into()],
                vec!["ltp".into(), "1.21".into()],
            ],
        );
        assert_eq!(r.render_text(), direct.render());
    }

    #[test]
    fn meta_is_not_rendered_in_text() {
        let mut r = Report::new("demo");
        r.push_text("body\n");
        r.push_meta("digest", "0xdead");
        assert_eq!(r.render_text(), "body\n");
        assert_eq!(r.meta("digest"), Some("0xdead"));
        assert_eq!(r.meta("missing"), None);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_table_rows_are_rejected() {
        let mut r = Report::new("demo");
        r.push_table(vec!["a".into(), "b".into()], vec![vec!["x".into()]]);
    }
}
