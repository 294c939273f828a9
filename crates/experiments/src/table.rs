//! The shape check and the text layout of a report's table blocks.
//!
//! [`Report::push_table`](crate::Report::push_table) checks a table with
//! [`check`] and [`Report::render_text`](crate::Report::render_text) lays it
//! out with [`render`]; the service ships the same columns and rows as JSON.

/// Checks that a table has at least one column and that every row has one
/// cell per column.
///
/// # Panics
///
/// Panics when `columns` is empty or a row's cell count differs from the
/// column count.
pub(crate) fn check(columns: &[&str], rows: &[Vec<String>]) {
    assert!(!columns.is_empty(), "a table needs at least one column");
    for row in rows {
        assert_eq!(
            row.len(),
            columns.len(),
            "ragged table row: width {} does not match header width {}",
            row.len(),
            columns.len()
        );
    }
}

/// Appends a table to `out`: its header row, a rule of dashes as wide as
/// the table, then one line per row. Cells are left-aligned with two spaces
/// between columns, and each line's trailing whitespace is trimmed. Column
/// widths count bytes, not chars, so a cell holding a multi-byte char such
/// as `±` pads its column by its byte length.
pub(crate) fn render(out: &mut String, columns: &[String], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = columns.iter().map(String::len).collect();
    for row in rows {
        for (width, cell) in widths.iter_mut().zip(row) {
            *width = (*width).max(cell.len());
        }
    }
    let line = |out: &mut String, cells: &[String]| {
        let start = out.len();
        for (i, (cell, width)) in cells.iter().zip(&widths).enumerate() {
            if i > 0 {
                out.push_str("  ");
            }
            out.push_str(cell);
            out.push_str(&" ".repeat(width - cell.len()));
        }
        out.truncate(start + out[start..].trim_end().len());
        out.push('\n');
    };
    line(out, columns);
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1)));
    out.push('\n');
    for row in rows {
        line(out, row);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Report;

    #[test]
    #[should_panic(expected = "does not match header")]
    fn mismatched_row_panics() {
        check(&["a", "b"], &[vec!["only-one".into()]]);
    }

    /// A report's `Display` of a table block is exactly the table layout.
    #[test]
    fn display_matches_render() {
        let rows = vec![vec!["1".to_string()]];
        let mut report = Report::new("demo");
        report.push_table(&["x"], rows.clone());
        let mut rendered = String::new();
        render(&mut rendered, &["x".to_string()], &rows);
        assert_eq!(rendered, "x\n-\n1\n");
        assert_eq!(format!("{report}"), rendered);
    }
}
