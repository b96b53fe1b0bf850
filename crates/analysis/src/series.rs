//! Labelled numeric series and table rendering.
//!
//! Experiment binaries print the same rows/series the paper's figures
//! plot; [`Table`] renders them as markdown (for EXPERIMENTS.md) or as
//! an ASCII chart.

use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// A named series of `(x, y)` points.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Series {
    /// Display name (e.g. `"OPT"`, `"N=1024 lower bound"`).
    pub name: String,
    /// The points, in x order.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// Create an empty series.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            points: Vec::new(),
        }
    }

    /// Append a point.
    pub fn push(&mut self, x: f64, y: f64) {
        self.points.push((x, y));
    }

    /// The x values.
    pub fn xs(&self) -> Vec<f64> {
        self.points.iter().map(|&(x, _)| x).collect()
    }

    /// Whether y is non-increasing in x (used by shape assertions such
    /// as "delay falls as duty rises").
    pub fn is_non_increasing(&self) -> bool {
        self.points.windows(2).all(|w| w[1].1 <= w[0].1 + 1e-9)
    }

    /// Whether y is non-decreasing in x.
    pub fn is_non_decreasing(&self) -> bool {
        self.points.windows(2).all(|w| w[1].1 >= w[0].1 - 1e-9)
    }
}

/// A rectangular table: one x column and one column per series, sharing
/// the x grid.
#[derive(Clone, Debug)]
pub struct Table {
    /// Header of the x column.
    pub x_label: String,
    /// The series (columns). All must share the same x grid.
    pub series: Vec<Series>,
}

impl Table {
    /// Build a table; panics if series do not share the x grid.
    pub fn new(x_label: impl Into<String>, series: Vec<Series>) -> Self {
        assert!(!series.is_empty(), "a table needs at least one series");
        let xs = series[0].xs();
        for s in &series[1..] {
            assert_eq!(s.xs(), xs, "series '{}' has a different x grid", s.name);
        }
        Self {
            x_label: x_label.into(),
            series,
        }
    }

    /// Render as a GitHub-flavoured markdown table.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        write!(out, "| {} |", self.x_label).unwrap();
        for s in &self.series {
            write!(out, " {} |", s.name).unwrap();
        }
        out.push('\n');
        write!(out, "|---|").unwrap();
        for _ in &self.series {
            write!(out, "---|").unwrap();
        }
        out.push('\n');
        for (i, &(x, _)) in self.series[0].points.iter().enumerate() {
            write!(out, "| {} |", trim_float(x)).unwrap();
            for s in &self.series {
                write!(out, " {} |", trim_float(s.points[i].1)).unwrap();
            }
            out.push('\n');
        }
        out
    }

    /// Render as an ASCII line chart (shared scale, legend).
    pub fn to_chart(&self) -> String {
        crate::plot::ascii_chart(&self.series, &crate::plot::PlotOptions::default())
    }
}

/// Format a float compactly: integers without decimals, otherwise two
/// decimal places.
fn trim_float(v: f64) -> String {
    if (v - v.round()).abs() < 1e-9 {
        format!("{}", v.round() as i64)
    } else {
        format!("{v:.2}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(name: &str, ys: &[f64]) -> Series {
        let mut s = Series::new(name);
        for (i, &y) in ys.iter().enumerate() {
            s.push(i as f64, y);
        }
        s
    }

    #[test]
    fn monotonicity_checks() {
        assert!(series("up", &[1.0, 2.0, 2.0, 5.0]).is_non_decreasing());
        assert!(!series("up", &[1.0, 2.0, 1.5]).is_non_decreasing());
        assert!(series("down", &[5.0, 3.0, 3.0]).is_non_increasing());
    }

    #[test]
    fn markdown_rendering() {
        let t = Table::new(
            "M",
            vec![series("a", &[1.0, 2.5]), series("b", &[3.0, 4.0])],
        );
        let md = t.to_markdown();
        assert!(md.starts_with("| M | a | b |\n|---|---|---|\n"));
        assert!(md.contains("| 0 | 1 | 3 |"));
        assert!(md.contains("| 1 | 2.50 | 4 |"));
    }

    #[test]
    #[should_panic(expected = "different x grid")]
    fn mismatched_grids_rejected() {
        let a = series("a", &[1.0, 2.0]);
        let mut b = Series::new("b");
        b.push(5.0, 1.0);
        b.push(6.0, 2.0);
        let _ = Table::new("x", vec![a, b]);
    }
}
