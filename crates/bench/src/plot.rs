//! Minimal SVG line plots for the experiment figures.
//!
//! The harness binaries emit CSV series; this module turns them into
//! self-contained SVG files so Figure 1/Figure 3 panels can be *looked at*,
//! not just diffed. No plotting dependency — the SVG is assembled by hand,
//! which is entirely adequate for line charts with a legend.

/// One named line on a plot.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Legend label.
    pub name: String,
    /// `(x, y)` points in data coordinates.
    pub points: Vec<(f64, f64)>,
}

/// A line chart rendered to SVG.
///
/// # Examples
///
/// ```
/// use adafl_bench::plot::{LinePlot, Series};
///
/// let svg = LinePlot::new("accuracy vs round", "round", "accuracy")
///     .with_series(Series { name: "fedavg".into(), points: vec![(0.0, 0.1), (1.0, 0.8)] })
///     .render();
/// assert!(svg.starts_with("<svg"));
/// assert!(svg.contains("fedavg"));
/// ```
#[derive(Debug, Clone)]
pub struct LinePlot {
    title: String,
    x_label: String,
    y_label: String,
    series: Vec<Series>,
    width: f64,
    height: f64,
}

/// Categorical line colours (colour-blind-safe-ish hues).
const PALETTE: [&str; 8] = [
    "#4477aa", "#ee6677", "#228833", "#ccbb44", "#66ccee", "#aa3377", "#bbbbbb", "#000000",
];

const MARGIN_LEFT: f64 = 64.0;
const MARGIN_RIGHT: f64 = 150.0;
const MARGIN_TOP: f64 = 36.0;
const MARGIN_BOTTOM: f64 = 48.0;

impl LinePlot {
    /// Creates an empty plot.
    pub fn new(
        title: impl Into<String>,
        x_label: impl Into<String>,
        y_label: impl Into<String>,
    ) -> Self {
        LinePlot {
            title: title.into(),
            x_label: x_label.into(),
            y_label: y_label.into(),
            series: Vec::new(),
            width: 720.0,
            height: 440.0,
        }
    }

    /// Adds a series (builder style).
    pub fn with_series(mut self, series: Series) -> Self {
        self.series.push(series);
        self
    }

    /// Adds a series in place.
    pub fn push_series(&mut self, series: Series) {
        self.series.push(series);
    }

    /// Number of series.
    pub fn len(&self) -> usize {
        self.series.len()
    }

    /// Returns `true` when no series were added.
    pub fn is_empty(&self) -> bool {
        self.series.is_empty()
    }

    /// Renders the SVG document.
    ///
    /// Empty plots render a placeholder note instead of axes.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{w}\" height=\"{h}\" \
             viewBox=\"0 0 {w} {h}\" font-family=\"sans-serif\" font-size=\"12\">\n",
            w = self.width,
            h = self.height
        ));
        out.push_str(&format!(
            "<text x=\"{}\" y=\"20\" text-anchor=\"middle\" font-size=\"15\">{}</text>\n",
            self.width / 2.0,
            escape(&self.title)
        ));
        if self.series.is_empty() || self.series.iter().all(|s| s.points.is_empty()) {
            out.push_str(&format!(
                "<text x=\"{}\" y=\"{}\" text-anchor=\"middle\">no data</text>\n</svg>\n",
                self.width / 2.0,
                self.height / 2.0
            ));
            return out;
        }

        // Data bounds with a little headroom.
        let xs = self
            .series
            .iter()
            .flat_map(|s| s.points.iter().map(|p| p.0));
        let ys = self
            .series
            .iter()
            .flat_map(|s| s.points.iter().map(|p| p.1));
        let (mut x_min, mut x_max) = (f64::INFINITY, f64::NEG_INFINITY);
        for x in xs {
            x_min = x_min.min(x);
            x_max = x_max.max(x);
        }
        let (mut y_min, mut y_max) = (f64::INFINITY, f64::NEG_INFINITY);
        for y in ys {
            y_min = y_min.min(y);
            y_max = y_max.max(y);
        }
        if (x_max - x_min).abs() < 1e-12 {
            x_max = x_min + 1.0;
        }
        if (y_max - y_min).abs() < 1e-12 {
            y_max = y_min + 1.0;
        }
        let plot_w = self.width - MARGIN_LEFT - MARGIN_RIGHT;
        let plot_h = self.height - MARGIN_TOP - MARGIN_BOTTOM;
        let to_px = |x: f64, y: f64| {
            (
                MARGIN_LEFT + (x - x_min) / (x_max - x_min) * plot_w,
                MARGIN_TOP + plot_h - (y - y_min) / (y_max - y_min) * plot_h,
            )
        };

        // Axes.
        out.push_str(&format!(
            "<rect x=\"{}\" y=\"{}\" width=\"{plot_w}\" height=\"{plot_h}\" fill=\"none\" stroke=\"#888\"/>\n",
            MARGIN_LEFT, MARGIN_TOP
        ));
        // Ticks: 5 per axis.
        for i in 0..=4 {
            let fx = x_min + (x_max - x_min) * i as f64 / 4.0;
            let fy = y_min + (y_max - y_min) * i as f64 / 4.0;
            let (px, _) = to_px(fx, y_min);
            let (_, py) = to_px(x_min, fy);
            out.push_str(&format!(
                "<line x1=\"{px}\" y1=\"{}\" x2=\"{px}\" y2=\"{}\" stroke=\"#ccc\"/>\n",
                MARGIN_TOP,
                MARGIN_TOP + plot_h
            ));
            out.push_str(&format!(
                "<line x1=\"{}\" y1=\"{py}\" x2=\"{}\" y2=\"{py}\" stroke=\"#ccc\"/>\n",
                MARGIN_LEFT,
                MARGIN_LEFT + plot_w
            ));
            out.push_str(&format!(
                "<text x=\"{px}\" y=\"{}\" text-anchor=\"middle\">{}</text>\n",
                MARGIN_TOP + plot_h + 16.0,
                format_tick(fx)
            ));
            out.push_str(&format!(
                "<text x=\"{}\" y=\"{}\" text-anchor=\"end\">{}</text>\n",
                MARGIN_LEFT - 6.0,
                py + 4.0,
                format_tick(fy)
            ));
        }
        // Axis labels.
        out.push_str(&format!(
            "<text x=\"{}\" y=\"{}\" text-anchor=\"middle\">{}</text>\n",
            MARGIN_LEFT + plot_w / 2.0,
            self.height - 10.0,
            escape(&self.x_label)
        ));
        out.push_str(&format!(
            "<text x=\"16\" y=\"{}\" text-anchor=\"middle\" transform=\"rotate(-90 16 {})\">{}</text>\n",
            MARGIN_TOP + plot_h / 2.0,
            MARGIN_TOP + plot_h / 2.0,
            escape(&self.y_label)
        ));

        // Series polylines + legend.
        for (i, series) in self.series.iter().enumerate() {
            let color = PALETTE[i % PALETTE.len()];
            let pts: Vec<String> = series
                .points
                .iter()
                .map(|&(x, y)| {
                    let (px, py) = to_px(x, y);
                    format!("{px:.1},{py:.1}")
                })
                .collect();
            out.push_str(&format!(
                "<polyline points=\"{}\" fill=\"none\" stroke=\"{color}\" stroke-width=\"1.8\"/>\n",
                pts.join(" ")
            ));
            let ly = MARGIN_TOP + 14.0 + i as f64 * 18.0;
            out.push_str(&format!(
                "<line x1=\"{}\" y1=\"{ly}\" x2=\"{}\" y2=\"{ly}\" stroke=\"{color}\" stroke-width=\"3\"/>\n",
                MARGIN_LEFT + plot_w + 10.0,
                MARGIN_LEFT + plot_w + 34.0
            ));
            out.push_str(&format!(
                "<text x=\"{}\" y=\"{}\">{}</text>\n",
                MARGIN_LEFT + plot_w + 40.0,
                ly + 4.0,
                escape(&series.name)
            ));
        }
        out.push_str("</svg>\n");
        out
    }
}

fn format_tick(v: f64) -> String {
    if v.abs() >= 1000.0 {
        format!("{:.0}", v)
    } else if v.abs() >= 10.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.2}")
    }
}

fn escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

/// Parses harness CSV output (as produced by
/// [`report::series_csv`](crate::report::series_csv)) into one series
/// per distinct key, where the key is every column before `label` plus the
/// label itself, `x` is the chosen column and `y` is the accuracy.
///
/// `x_column` must be `"round"` or `"sim_time_s"`.
///
/// # Panics
///
/// Panics when the header lacks the required columns.
pub fn series_from_csv(csv: &str, x_column: &str) -> Vec<Series> {
    let mut lines = csv.lines().filter(|l| !l.trim().is_empty());
    let header: Vec<&str> = lines.next().expect("csv header").split(',').collect();
    let label_idx = header
        .iter()
        .position(|&h| h == "label")
        .expect("label column");
    let x_idx = header
        .iter()
        .position(|&h| h == x_column)
        .expect("x column");
    let y_idx = header
        .iter()
        .position(|&h| h == "accuracy")
        .expect("accuracy column");

    let mut order: Vec<String> = Vec::new();
    let mut map: std::collections::HashMap<String, Vec<(f64, f64)>> =
        std::collections::HashMap::new();
    for line in lines {
        let cols: Vec<&str> = line.split(',').collect();
        if cols.len() <= y_idx {
            continue;
        }
        let key = cols[..=label_idx].join(",");
        let x: f64 = match cols[x_idx].parse() {
            Ok(v) => v,
            Err(_) => continue,
        };
        let y: f64 = match cols[y_idx].parse() {
            Ok(v) => v,
            Err(_) => continue,
        };
        if !map.contains_key(&key) {
            order.push(key.clone());
        }
        map.entry(key).or_default().push((x, y));
    }
    order
        .into_iter()
        .map(|name| {
            let points = map.remove(&name).unwrap_or_default();
            Series { name, points }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_csv() -> &'static str {
        "dist,label,round,sim_time_s,accuracy,loss,uplink_bytes,uplink_updates,contributors\n\
         iid,fedavg,0,1.0,0.10,2.0,100,5,5\n\
         iid,fedavg,1,2.0,0.50,1.0,200,10,5\n\
         iid,adafl,0,1.0,0.20,1.9,50,3,3\n\
         iid,adafl,1,2.0,0.60,0.9,90,6,3\n"
    }

    #[test]
    fn csv_parses_into_ordered_series() {
        let series = series_from_csv(sample_csv(), "round");
        assert_eq!(series.len(), 2);
        assert_eq!(series[0].name, "iid,fedavg");
        assert_eq!(series[0].points, vec![(0.0, 0.10), (1.0, 0.50)]);
        assert_eq!(series[1].name, "iid,adafl");
    }

    #[test]
    fn csv_supports_time_axis() {
        let series = series_from_csv(sample_csv(), "sim_time_s");
        assert_eq!(series[1].points[1].0, 2.0);
    }

    #[test]
    fn render_contains_all_legends_and_axes() {
        let mut plot = LinePlot::new("t", "x", "y");
        for s in series_from_csv(sample_csv(), "round") {
            plot.push_series(s);
        }
        let svg = plot.render();
        assert!(svg.contains("iid,fedavg"));
        assert!(svg.contains("iid,adafl"));
        assert!(svg.contains("polyline"));
        assert!(svg.ends_with("</svg>\n"));
    }

    #[test]
    fn empty_plot_renders_placeholder() {
        let svg = LinePlot::new("empty", "x", "y").render();
        assert!(svg.contains("no data"));
    }

    #[test]
    fn degenerate_single_point_does_not_divide_by_zero() {
        let svg = LinePlot::new("p", "x", "y")
            .with_series(Series {
                name: "one".into(),
                points: vec![(1.0, 1.0)],
            })
            .render();
        assert!(!svg.contains("NaN"));
    }

    #[test]
    fn titles_are_escaped() {
        let svg = LinePlot::new("a < b & c", "x", "y").render();
        assert!(svg.contains("a &lt; b &amp; c"));
    }
}
