use std::fmt;

/// A multi-series ASCII line chart for terminal figure output.
///
/// Each figure harness draws the same curves as the paper's Figure 1
/// panels, so a `cargo bench` (or `examples/figure1`) run shows the
/// reproduced shapes directly in the terminal.
///
/// Series are plotted over a shared x/y range; each series is drawn with
/// its own glyph and listed in a legend.
///
/// # Example
///
/// ```
/// use geocast_metrics::AsciiChart;
///
/// let mut chart = AsciiChart::new(40, 10);
/// chart.add_series("linear", (1..=10).map(|x| (x as f64, x as f64)).collect());
/// let drawing = chart.render();
/// assert!(drawing.contains("linear"));
/// ```
#[derive(Debug, Clone, Default)]
pub struct AsciiChart {
    width: usize,
    height: usize,
    series: Vec<(String, Vec<(f64, f64)>)>,
}

const GLYPHS: [char; 9] = ['*', 'o', '+', 'x', '#', '@', '%', '&', '~'];

impl AsciiChart {
    /// Creates a chart with the given plot-area size in characters.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is below 2.
    #[must_use]
    pub fn new(width: usize, height: usize) -> Self {
        assert!(width >= 2 && height >= 2, "chart too small");
        AsciiChart {
            width,
            height,
            series: Vec::new(),
        }
    }

    /// Adds a named series of `(x, y)` points. NaN points are skipped at
    /// render time.
    pub fn add_series(&mut self, name: impl Into<String>, points: Vec<(f64, f64)>) {
        self.series.push((name.into(), points));
    }

    /// Renders the chart with axes and a legend.
    #[must_use]
    pub fn render(&self) -> String {
        let points: Vec<(f64, f64)> = self
            .series
            .iter()
            .flat_map(|(_, pts)| pts.iter().copied())
            .filter(|(x, y)| !x.is_nan() && !y.is_nan())
            .collect();
        if points.is_empty() {
            return "(empty chart)\n".to_owned();
        }
        let (mut x_min, mut x_max, mut y_min, mut y_max) = (
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::INFINITY,
            f64::NEG_INFINITY,
        );
        for (x, y) in &points {
            x_min = x_min.min(*x);
            x_max = x_max.max(*x);
            y_min = y_min.min(*y);
            y_max = y_max.max(*y);
        }
        if x_min == x_max {
            x_max += 1.0;
        }
        if y_min == y_max {
            y_max += 1.0;
        }

        let mut grid = vec![vec![' '; self.width]; self.height];
        for (si, (_, pts)) in self.series.iter().enumerate() {
            let glyph = GLYPHS[si % GLYPHS.len()];
            for &(x, y) in pts {
                if x.is_nan() || y.is_nan() {
                    continue;
                }
                let cx = ((x - x_min) / (x_max - x_min) * (self.width - 1) as f64).round() as usize;
                let cy =
                    ((y - y_min) / (y_max - y_min) * (self.height - 1) as f64).round() as usize;
                let row = self.height - 1 - cy;
                grid[row][cx] = glyph;
            }
        }

        let mut out = String::new();
        out.push_str(&format!("{y_max:>10.1} ┤"));
        out.push_str(&grid[0].iter().collect::<String>());
        out.push('\n');
        for row in &grid[1..self.height - 1] {
            out.push_str("           │");
            out.push_str(&row.iter().collect::<String>());
            out.push('\n');
        }
        out.push_str(&format!("{y_min:>10.1} ┤"));
        out.push_str(&grid[self.height - 1].iter().collect::<String>());
        out.push('\n');
        out.push_str("           └");
        out.push_str(&"─".repeat(self.width));
        out.push('\n');
        out.push_str(&format!(
            "            {:<width$.1}{:>.1}\n",
            x_min,
            x_max,
            width = self.width.saturating_sub(4)
        ));
        for (si, (name, _)) in self.series.iter().enumerate() {
            out.push_str(&format!("  {} {}\n", GLYPHS[si % GLYPHS.len()], name));
        }
        out
    }
}

impl fmt::Display for AsciiChart {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_chart_renders_placeholder() {
        let chart = AsciiChart::new(20, 5);
        assert_eq!(chart.render(), "(empty chart)\n");
    }

    #[test]
    fn single_series_plots_glyphs() {
        let mut chart = AsciiChart::new(20, 6);
        chart.add_series("s", vec![(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)]);
        let out = chart.render();
        assert!(out.matches('*').count() >= 3, "{out}");
        assert!(out.contains("* s"));
    }

    #[test]
    fn multiple_series_use_distinct_glyphs() {
        let mut chart = AsciiChart::new(20, 6);
        chart.add_series("a", vec![(0.0, 0.0), (1.0, 1.0)]);
        chart.add_series("b", vec![(0.0, 1.0), (1.0, 0.0)]);
        let out = chart.render();
        assert!(out.contains('*') && out.contains('o'), "{out}");
    }

    #[test]
    fn axis_labels_show_ranges() {
        let mut chart = AsciiChart::new(30, 5);
        chart.add_series("s", vec![(10.0, 100.0), (20.0, 300.0)]);
        let out = chart.render();
        assert!(out.contains("300.0"), "{out}");
        assert!(out.contains("100.0"), "{out}");
        assert!(out.contains("10.0"), "{out}");
    }

    #[test]
    fn degenerate_ranges_do_not_divide_by_zero() {
        let mut chart = AsciiChart::new(10, 4);
        chart.add_series("dot", vec![(5.0, 5.0)]);
        let out = chart.render();
        assert!(out.contains('*'));
    }

    #[test]
    fn nan_points_are_skipped() {
        let mut chart = AsciiChart::new(10, 4);
        chart.add_series("s", vec![(f64::NAN, 1.0), (1.0, 2.0)]);
        let out = chart.render();
        assert!(out.contains('*'));
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn tiny_chart_rejected() {
        let _ = AsciiChart::new(1, 1);
    }
}
