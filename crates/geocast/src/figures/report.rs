use std::fmt;

use geocast_metrics::Table;

/// The output of one figure/claim harness: an identifier tying it to the
/// paper artifact, the regenerated data as a [`Table`], an optional
/// ASCII rendering of the curves, and free-form notes (parameters,
/// substitutions, observed-vs-paper remarks).
#[derive(Debug, Clone)]
pub struct FigureReport {
    /// Artifact id, e.g. `"fig1a"` or `"claims-s2"`.
    pub id: &'static str,
    /// Human-readable title echoing the paper's caption.
    pub title: String,
    /// The regenerated rows/series.
    pub table: Table,
    /// Optional terminal rendering of the curves.
    pub chart: Option<String>,
    /// Parameters and observations printed under the table.
    pub notes: Vec<String>,
}

impl FigureReport {
    /// Creates a report with empty chart/notes.
    #[must_use]
    pub fn new(id: &'static str, title: impl Into<String>, table: Table) -> Self {
        FigureReport {
            id,
            title: title.into(),
            table,
            chart: None,
            notes: Vec::new(),
        }
    }

    /// Attaches a rendered chart.
    #[must_use]
    pub fn with_chart(mut self, chart: String) -> Self {
        self.chart = Some(chart);
        self
    }

    /// Appends a note.
    #[must_use]
    pub fn with_note(mut self, note: impl Into<String>) -> Self {
        self.notes.push(note.into());
        self
    }
}

impl fmt::Display for FigureReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "## {} — {}", self.id, self.title)?;
        writeln!(f)?;
        write!(f, "{}", self.table.to_markdown())?;
        if let Some(chart) = &self.chart {
            writeln!(f)?;
            write!(f, "{chart}")?;
        }
        for note in &self.notes {
            writeln!(f, "- {note}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_all_parts() {
        let mut table = Table::new(vec!["x".into()]);
        table.push_row(vec!["1".into()]);
        let report = FigureReport::new("figX", "demo", table)
            .with_chart("CHART\n".into())
            .with_note("a note");
        let out = report.to_string();
        assert!(out.contains("## figX — demo"));
        assert!(out.contains("| x |"));
        assert!(out.contains("CHART"));
        assert!(out.contains("- a note"));
    }

    #[test]
    fn chartless_report_renders() {
        let report = FigureReport::new("f", "t", Table::new(vec!["h".into()]));
        assert!(!report.to_string().contains("CHART"));
    }
}
