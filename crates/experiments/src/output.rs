//! Figure/series containers and their text renderings.
//!
//! A [`Figure`] corresponds to one panel of a paper figure: a set of named
//! series over a shared x-grid. Renderings: aligned markdown table (the
//! `.md` file each figure binary writes under `--out`), CSV (for external
//! plotting), and a quick ASCII chart (for terminal inspection).

use std::fmt::Write as _;

/// One named curve.
#[derive(Debug, Clone)]
pub struct Series {
    /// Legend label (e.g. "MGA").
    pub label: String,
    /// y-value per x-grid point.
    pub values: Vec<f64>,
}

/// One figure panel.
#[derive(Debug, Clone)]
pub struct Figure {
    /// Panel title (e.g. "Fig 6(a) Facebook").
    pub title: String,
    /// x-axis name (e.g. "epsilon").
    pub x_label: String,
    /// y-axis name (e.g. "overall gain").
    pub y_label: String,
    /// Shared x grid.
    pub x: Vec<f64>,
    /// The curves.
    pub series: Vec<Series>,
}

impl Figure {
    /// Creates an empty figure over an x-grid.
    pub fn new(
        title: impl Into<String>,
        x_label: impl Into<String>,
        y_label: impl Into<String>,
        x: Vec<f64>,
    ) -> Self {
        Figure {
            title: title.into(),
            x_label: x_label.into(),
            y_label: y_label.into(),
            x,
            series: Vec::new(),
        }
    }

    /// Adds a series.
    ///
    /// # Panics
    /// Panics if the series length differs from the x-grid.
    pub fn push_series(&mut self, label: impl Into<String>, values: Vec<f64>) {
        assert_eq!(
            values.len(),
            self.x.len(),
            "series length must match x grid"
        );
        self.series.push(Series {
            label: label.into(),
            values,
        });
    }

    /// Adds one series per label: series `i` takes column `i` of every
    /// row, one row per x point (as [`crate::runner::run_grid`] returns
    /// them).
    ///
    /// # Panics
    /// Panics if the row count differs from the x grid, or a row is
    /// shorter than the label count.
    pub fn with_columns<L: Into<String>>(
        mut self,
        labels: impl IntoIterator<Item = L>,
        rows: &[impl AsRef<[f64]>],
    ) -> Self {
        for (i, label) in labels.into_iter().enumerate() {
            self.push_series(label, rows.iter().map(|r| r.as_ref()[i]).collect());
        }
        self
    }

    /// Markdown table: x column plus one column per series.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "### {}", self.title);
        let _ = write!(out, "| {} |", self.x_label);
        for s in &self.series {
            let _ = write!(out, " {} |", s.label);
        }
        let _ = writeln!(out);
        let _ = writeln!(out, "|---|{}", "---|".repeat(self.series.len()));
        for (i, &x) in self.x.iter().enumerate() {
            let _ = write!(out, "| {} |", format_num(x));
            for s in &self.series {
                let _ = write!(out, " {} |", format_num(s.values[i]));
            }
            let _ = writeln!(out);
        }
        out
    }

    /// CSV with a header row.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let _ = write!(out, "{}", self.x_label);
        for s in &self.series {
            let _ = write!(out, ",{}", s.label);
        }
        let _ = writeln!(out);
        for (i, &x) in self.x.iter().enumerate() {
            let _ = write!(out, "{x}");
            for s in &self.series {
                let _ = write!(out, ",{}", s.values[i]);
            }
            let _ = writeln!(out);
        }
        out
    }

    /// A coarse ASCII chart, one row per series per x-point, bars scaled to
    /// the figure-wide maximum.
    pub fn to_ascii_chart(&self) -> String {
        let max = self
            .series
            .iter()
            .flat_map(|s| s.values.iter().copied())
            .fold(0.0f64, |a, b| a.max(b.abs()));
        let mut out = String::new();
        let _ = writeln!(out, "{} ({} vs {})", self.title, self.y_label, self.x_label);
        if max <= 0.0 {
            let _ = writeln!(out, "  (all values zero)");
            return out;
        }
        const WIDTH: usize = 48;
        for (i, &x) in self.x.iter().enumerate() {
            for s in &self.series {
                let v = s.values[i];
                let bar = ((v.abs() / max) * WIDTH as f64).round() as usize;
                let _ = writeln!(
                    out,
                    "  {:>8} {:>6} |{:<width$}| {}",
                    format_num(x),
                    s.label,
                    "#".repeat(bar.min(WIDTH)),
                    format_num(v),
                    width = WIDTH
                );
            }
        }
        out
    }

    /// Writes CSV and markdown renderings under `dir` as
    /// `<slug>.csv`/`<slug>.md`.
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn write_to_dir(&self, dir: &std::path::Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let slug: String = self
            .title
            .to_lowercase()
            .chars()
            .map(|c| if c.is_alphanumeric() { c } else { '_' })
            .collect();
        std::fs::write(dir.join(format!("{slug}.csv")), self.to_csv())?;
        std::fs::write(dir.join(format!("{slug}.md")), self.to_markdown())?;
        Ok(())
    }
}

/// Compact numeric formatting for tables: scientific for tiny magnitudes,
/// fixed otherwise.
pub fn format_num(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v.abs() >= 1000.0 {
        format!("{v:.0}")
    } else if v.abs() < 0.001 {
        format!("{v:.2e}")
    } else {
        format!("{v:.4}")
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Asserts that `panel` is titled `title`, plots `labels` in order and
    /// holds one finite value per point of a `points`-long grid.
    pub(crate) fn assert_panel(panel: &Figure, title: &str, labels: &[&str], points: usize) {
        assert_eq!(panel.title, title);
        assert_eq!(panel.x.len(), points);
        assert!(panel
            .series
            .iter()
            .map(|s| s.label.as_str())
            .eq(labels.iter().copied()));
        assert!(panel
            .series
            .iter()
            .all(|s| s.values.len() == points && s.values.iter().all(|v| v.is_finite())));
    }

    fn fig() -> Figure {
        let mut f = Figure::new("Test", "epsilon", "gain", vec![1.0, 2.0]);
        f.push_series("MGA", vec![0.5, 0.25]);
        f.push_series("RVA", vec![0.1, 0.05]);
        f
    }

    #[test]
    fn with_columns_splits_rows_into_series() {
        let f = Figure::new("T", "x", "y", vec![1.0, 2.0])
            .with_columns(["a", "b"], &[[1.0, 2.0], [3.0, 4.0]]);
        assert_eq!(f.series[0].label, "a");
        assert_eq!(f.series[0].values, vec![1.0, 3.0]);
        assert_eq!(f.series[1].values, vec![2.0, 4.0]);
    }

    #[test]
    fn markdown_contains_all_cells() {
        let md = fig().to_markdown();
        assert!(md.contains("| epsilon | MGA | RVA |"));
        assert!(md.contains("0.5000"));
        assert!(md.contains("0.0500"));
    }

    #[test]
    fn csv_roundtrips_numbers() {
        let csv = fig().to_csv();
        let mut lines = csv.lines();
        assert_eq!(lines.next().unwrap(), "epsilon,MGA,RVA");
        assert_eq!(lines.next().unwrap(), "1,0.5,0.1");
    }

    #[test]
    fn ascii_chart_draws_bars() {
        let chart = fig().to_ascii_chart();
        assert!(chart.contains('#'));
        assert!(chart.contains("MGA"));
    }

    #[test]
    fn ascii_chart_handles_all_zero() {
        let mut f = Figure::new("Z", "x", "y", vec![1.0]);
        f.push_series("a", vec![0.0]);
        assert!(f.to_ascii_chart().contains("all values zero"));
    }

    #[test]
    #[should_panic(expected = "series length")]
    fn mismatched_series_rejected() {
        let mut f = Figure::new("T", "x", "y", vec![1.0, 2.0]);
        f.push_series("bad", vec![1.0]);
    }

    #[test]
    fn format_num_ranges() {
        assert_eq!(format_num(0.0), "0");
        assert_eq!(format_num(1234.0), "1234");
        assert_eq!(format_num(0.5), "0.5000");
        assert!(format_num(0.00001).contains('e'));
    }

    #[test]
    fn write_to_dir_creates_files() {
        let dir = std::env::temp_dir().join("poison_experiments_test_out");
        let _ = std::fs::remove_dir_all(&dir);
        fig().write_to_dir(&dir).unwrap();
        assert!(dir.join("test.csv").exists());
        assert!(dir.join("test.md").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
