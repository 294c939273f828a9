//! Structured experiment reports.
//!
//! Every experiment produces a [`Report`]: an ordered list of typed blocks
//! (preformatted text and column/row tables) plus machine-readable `meta`
//! key/values (result digests, partial-point counts, …). The CLI renders a
//! report with [`Report::render_text`] — prose verbatim, tables aligned, so
//! the canary scripts' `grep`/`awk` parsers read the same lines they always
//! have — while the `ltp-service` job server ships the very same value as
//! JSON, built from [`Report::name`], [`Report::meta_entries`] and
//! [`Report::blocks`]. One value, two renderings; the two front ends can
//! never drift apart.

/// One renderable piece of a [`Report`].
#[derive(Debug, Clone, PartialEq)]
pub enum Block {
    /// Preformatted prose: rendered verbatim (no decoration, no added
    /// newlines), so reports assembled from text blocks reproduce the
    /// historical CLI output exactly.
    Text(String),
    /// A table; rendered as aligned columns under a dashed rule in text
    /// mode and as `columns` / `rows` arrays in JSON.
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

    /// Appends a table block.
    ///
    /// # Panics
    ///
    /// Panics when `columns` is empty or a row's cell count differs from
    /// the column count.
    pub fn push_table(&mut self, columns: &[&str], rows: Vec<Vec<String>>) {
        crate::table::check(columns, &rows);
        let columns = columns.iter().map(|c| (*c).to_string()).collect();
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

    /// Renders the report as plain text: text blocks verbatim; a table as
    /// its header row, a rule of dashes as wide as the table, then one line
    /// per row, with left-aligned cells two spaces apart, trailing blanks
    /// trimmed and column widths counted in bytes.
    #[must_use]
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for block in &self.blocks {
            match block {
                Block::Text(text) => out.push_str(text),
                Block::Table { columns, rows } => crate::table::render(&mut out, columns, rows),
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

    /// The exact bytes of a rendered table: byte-width columns (`±` is two
    /// bytes), two-space gaps, a full-width rule, trailing blanks trimmed
    /// (an empty last cell leaves no gap behind).
    #[test]
    fn table_block_matches_text_table_render() {
        let mut r = Report::new("demo");
        r.push_table(
            &["config", "cpi", "note"],
            vec![
                vec!["baseline".into(), "1.20".into(), "±0.1".into()],
                vec!["ltp".into(), "1.21".into(), String::new()],
            ],
        );
        assert_eq!(
            r.render_text(),
            "config    cpi   note\n\
             ---------------------\n\
             baseline  1.20  ±0.1\n\
             ltp       1.21\n"
        );
    }

    /// Every `cpi` cell starts at the header's column offset.
    #[test]
    fn table_block_renders_aligned_columns() {
        let mut r = Report::new("demo");
        r.push_table(
            &["config", "cpi"],
            vec![
                vec!["baseline-iq64".into(), "1.20".into()],
                vec!["ltp".into(), "1.21".into()],
            ],
        );
        let text = r.render_text();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        let col = lines[0].find("cpi").expect("header");
        assert_eq!(&lines[2][col..col + 4], "1.20");
        assert_eq!(&lines[3][col..col + 4], "1.21");
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
        r.push_table(&["a", "b"], vec![vec!["x".into()]]);
    }

    #[test]
    #[should_panic(expected = "at least one column")]
    fn empty_table_header_is_rejected() {
        Report::new("demo").push_table(&[], Vec::new());
    }
}
