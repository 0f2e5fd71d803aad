use std::fmt;

/// A rectangular results table rendered as Markdown.
///
/// The figure harnesses emit one `Table` per panel; `geocast figures`
/// prints the Markdown rendering.
///
/// # Example
///
/// ```
/// use geocast_metrics::Table;
///
/// let mut t = Table::new(vec!["D".into(), "max degree".into()]);
/// t.push_row(vec!["2".into(), "23".into()]);
/// assert!(t.to_markdown().contains("| 2 | 23 |"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    #[must_use]
    pub fn new(headers: Vec<String>) -> Self {
        Table {
            headers,
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width disagrees with the header width.
    pub fn push_row(&mut self, row: Vec<String>) {
        assert_eq!(row.len(), self.headers.len(), "row width mismatch");
        self.rows.push(row);
    }

    /// The column headers.
    #[must_use]
    pub fn headers(&self) -> &[String] {
        &self.headers
    }

    /// The rows added so far.
    #[must_use]
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// Number of rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` if no rows were added.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders GitHub-flavoured Markdown.
    #[must_use]
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str("| ");
        out.push_str(&self.headers.join(" | "));
        out.push_str(" |\n|");
        for _ in &self.headers {
            out.push_str("---|");
        }
        out.push('\n');
        for row in &self.rows {
            out.push_str("| ");
            out.push_str(&row.join(" | "));
            out.push_str(" |\n");
        }
        out
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_markdown())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new(vec!["a".into(), "b".into()]);
        t.push_row(vec!["1".into(), "2".into()]);
        t.push_row(vec!["3".into(), "4".into()]);
        t
    }

    #[test]
    fn markdown_rendering() {
        let md = sample().to_markdown();
        let lines: Vec<&str> = md.lines().collect();
        assert_eq!(lines[0], "| a | b |");
        assert_eq!(lines[1], "|---|---|");
        assert_eq!(lines[2], "| 1 | 2 |");
        assert_eq!(lines[3], "| 3 | 4 |");
    }

    #[test]
    fn accessors() {
        let t = sample();
        assert_eq!(t.headers(), &["a".to_owned(), "b".to_owned()]);
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
        assert!(Table::new(vec!["h".into()]).is_empty());
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn ragged_rows_rejected() {
        let mut t = Table::new(vec!["a".into(), "b".into()]);
        t.push_row(vec!["only one".into()]);
    }

    #[test]
    fn display_equals_markdown() {
        let t = sample();
        assert_eq!(t.to_string(), t.to_markdown());
    }
}
