//! Plain-text rendering for figure/table data.

use crate::experiments::FigureData;
use std::fmt::Write as _;

/// Renders a figure as an aligned text table: one row per point label,
/// one column per series.
pub fn render(fig: &FigureData) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== {} ==", fig.title);
    if let Some(note) = &fig.note {
        let _ = writeln!(out, "   ({note})");
    }
    let labels: Vec<&str> = fig
        .series
        .first()
        .map(|s| s.points.iter().map(|(l, _)| l.as_str()).collect())
        .unwrap_or_default();
    let label_w = labels.iter().map(|l| l.len()).max().unwrap_or(8).max(8);
    let col_w = fig
        .series
        .iter()
        .map(|s| s.name.len())
        .max()
        .unwrap_or(10)
        .max(10);

    let _ = write!(out, "{:label_w$}", "");
    for s in &fig.series {
        let _ = write!(out, "  {:>col_w$}", s.name);
    }
    let _ = writeln!(out);
    for (i, label) in labels.iter().enumerate() {
        let _ = write!(out, "{label:label_w$}");
        for s in &fig.series {
            match s.points.get(i) {
                Some((_, v)) => {
                    let _ = write!(out, "  {:>col_w$}", cell(*v));
                }
                None => {
                    let _ = write!(out, "  {:>col_w$}", "-");
                }
            }
        }
        let _ = writeln!(out);
    }
    out
}

/// One cell's digits: three decimals, except that a non-zero value
/// below 0.01 in magnitude keeps three significant digits, so a
/// millisecond runtime does not print as `0.000`.
fn cell(v: f64) -> String {
    if v != 0.0 && v.abs() < 0.01 {
        let decimals = 2 - v.abs().log10().floor() as i32;
        format!("{v:.*}", decimals as usize)
    } else {
        format!("{v:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::Series;

    #[test]
    fn renders_aligned_columns() {
        let fig = FigureData {
            title: "Demo".into(),
            note: Some("x".into()),
            series: vec![
                Series {
                    name: "A".into(),
                    points: vec![("one".into(), 1.0), ("two".into(), 0.5)],
                },
                Series {
                    name: "LongName".into(),
                    points: vec![("one".into(), 2.0), ("two".into(), 0.25)],
                },
            ],
        };
        let s = render(&fig);
        assert!(s.contains("== Demo =="));
        assert!(s.contains("LongName"));
        assert!(s.lines().count() >= 4);
        // Every data row has both columns.
        let row: Vec<&str> = s.lines().filter(|l| l.starts_with("one")).collect();
        assert_eq!(row.len(), 1);
        assert!(row[0].contains("1.000") && row[0].contains("2.000"));
    }

    #[test]
    fn a_small_cell_keeps_three_significant_digits() {
        assert_eq!(cell(0.00123456), "0.00123");
        assert_eq!(cell(0.0004567), "0.000457");
        assert_eq!(cell(-0.005), "-0.00500");
        assert_eq!(cell(0.00999), "0.00999");
        // Every other cell keeps three decimals.
        assert_eq!(cell(0.0), "0.000");
        assert_eq!(cell(0.01), "0.010");
        assert_eq!(cell(0.7291), "0.729");
        assert_eq!(cell(12.5), "12.500");
        assert_eq!(cell(f64::NAN), "NaN");
    }
}
