//! Minimal self-contained SVG line charts.
//!
//! The figure binaries emit CSV for external tooling *and* a rendered SVG
//! so `cargo run -p hetero-bench --bin fig5_fig6_combined` regenerates a
//! directly viewable figure. No drawing dependencies: the SVG is assembled
//! as text.

use std::io::Write;
use std::path::Path;

/// One plotted series.
#[derive(Debug, Clone)]
pub struct Series {
    /// Legend label.
    pub name: String,
    /// (x, y) points in data coordinates.
    pub points: Vec<(f64, f64)>,
}

/// Chart configuration.
#[derive(Debug, Clone)]
pub struct ChartConfig {
    /// Title rendered at the top.
    pub title: String,
    /// X-axis label.
    pub x_label: String,
    /// Y-axis label.
    pub y_label: String,
    /// Use log₁₀ scale on the y axis (loss curves).
    pub log_y: bool,
    /// Canvas width in px.
    pub width: u32,
    /// Canvas height in px.
    pub height: u32,
}

impl Default for ChartConfig {
    fn default() -> Self {
        ChartConfig {
            title: String::new(),
            x_label: String::new(),
            y_label: String::new(),
            log_y: false,
            width: 720,
            height: 420,
        }
    }
}

const PALETTE: [&str; 8] = [
    "#4269d0", "#efb118", "#ff725c", "#6cc5b0", "#3ca951", "#ff8ab7", "#a463f2", "#97bbf5",
];

const MARGIN_L: f64 = 64.0;
const MARGIN_R: f64 = 150.0;
const MARGIN_T: f64 = 40.0;
const MARGIN_B: f64 = 48.0;

fn fmt_tick(v: f64) -> String {
    if v == 0.0 {
        "0".into()
    } else if v.abs() >= 1000.0 || v.abs() < 0.01 {
        format!("{v:.1e}")
    } else {
        format!("{v:.3}")
            .trim_end_matches('0')
            .trim_end_matches('.')
            .to_string()
    }
}

/// Render `series` into an SVG string.
///
/// Returns `None` when there is nothing plottable (no finite points).
pub fn render(cfg: &ChartConfig, series: &[Series]) -> Option<String> {
    let transform = |y: f64| if cfg.log_y { y.max(1e-12).log10() } else { y };
    let mut xs: Vec<f64> = Vec::new();
    let mut ys: Vec<f64> = Vec::new();
    for s in series {
        for &(x, y) in &s.points {
            if x.is_finite() && y.is_finite() && (!cfg.log_y || y > 0.0) {
                xs.push(x);
                ys.push(transform(y));
            }
        }
    }
    if xs.is_empty() {
        return None;
    }
    let (x_min, x_max) = (
        xs.iter().cloned().fold(f64::INFINITY, f64::min),
        xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
    );
    let (y_min, y_max) = (
        ys.iter().cloned().fold(f64::INFINITY, f64::min),
        ys.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
    );
    let x_span = (x_max - x_min).max(1e-12);
    let y_span = (y_max - y_min).max(1e-12);
    let plot_w = cfg.width as f64 - MARGIN_L - MARGIN_R;
    let plot_h = cfg.height as f64 - MARGIN_T - MARGIN_B;
    let px = |x: f64| MARGIN_L + (x - x_min) / x_span * plot_w;
    let py = |y: f64| MARGIN_T + (1.0 - (transform(y) - y_min) / y_span) * plot_h;

    let mut svg = String::new();
    svg.push_str(&format!(
        r#"<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" viewBox="0 0 {w} {h}" font-family="sans-serif">"#,
        w = cfg.width,
        h = cfg.height
    ));
    svg.push_str(&format!(
        r#"<rect width="{}" height="{}" fill="white"/>"#,
        cfg.width, cfg.height
    ));
    svg.push_str(&format!(
        r#"<text x="{}" y="22" text-anchor="middle" font-size="15" font-weight="bold">{}</text>"#,
        cfg.width / 2,
        xml_escape(&cfg.title)
    ));

    // Axes + grid + ticks.
    for i in 0..=4 {
        let fx = x_min + x_span * i as f64 / 4.0;
        let x = px(fx);
        svg.push_str(&format!(
            r##"<line x1="{x:.1}" y1="{t}" x2="{x:.1}" y2="{b}" stroke="#eee"/>"##,
            t = MARGIN_T,
            b = MARGIN_T + plot_h
        ));
        svg.push_str(&format!(
            r#"<text x="{x:.1}" y="{y:.1}" text-anchor="middle" font-size="11">{}</text>"#,
            fmt_tick(fx),
            y = MARGIN_T + plot_h + 16.0
        ));
        let fy_t = y_min + y_span * i as f64 / 4.0;
        let fy_data = if cfg.log_y { 10f64.powf(fy_t) } else { fy_t };
        let y = MARGIN_T + (1.0 - i as f64 / 4.0) * plot_h;
        svg.push_str(&format!(
            r##"<line x1="{l}" y1="{y:.1}" x2="{r}" y2="{y:.1}" stroke="#eee"/>"##,
            l = MARGIN_L,
            r = MARGIN_L + plot_w
        ));
        svg.push_str(&format!(
            r#"<text x="{x:.1}" y="{y:.1}" text-anchor="end" font-size="11">{}</text>"#,
            fmt_tick(fy_data),
            x = MARGIN_L - 6.0,
            y = y + 4.0
        ));
    }
    svg.push_str(&format!(
        r##"<rect x="{}" y="{}" width="{plot_w:.1}" height="{plot_h:.1}" fill="none" stroke="#888"/>"##,
        MARGIN_L, MARGIN_T
    ));
    svg.push_str(&format!(
        r#"<text x="{}" y="{}" text-anchor="middle" font-size="12">{}</text>"#,
        MARGIN_L + plot_w / 2.0,
        cfg.height as f64 - 10.0,
        xml_escape(&cfg.x_label)
    ));
    svg.push_str(&format!(
        r#"<text x="14" y="{}" text-anchor="middle" font-size="12" transform="rotate(-90 14 {y})">{}</text>"#,
        MARGIN_T + plot_h / 2.0,
        xml_escape(&cfg.y_label),
        y = MARGIN_T + plot_h / 2.0
    ));

    // Series.
    for (i, s) in series.iter().enumerate() {
        let color = PALETTE[i % PALETTE.len()];
        let path: Vec<String> = s
            .points
            .iter()
            .filter(|&&(x, y)| x.is_finite() && y.is_finite() && (!cfg.log_y || y > 0.0))
            .enumerate()
            .map(|(j, &(x, y))| {
                format!(
                    "{}{:.1},{:.1}",
                    if j == 0 { "M" } else { "L" },
                    px(x),
                    py(y)
                )
            })
            .collect();
        if !path.is_empty() {
            svg.push_str(&format!(
                r#"<path d="{}" fill="none" stroke="{color}" stroke-width="1.8"/>"#,
                path.join(" ")
            ));
        }
        // Legend entry.
        let ly = MARGIN_T + 14.0 * i as f64 + 8.0;
        let lx = MARGIN_L + plot_w + 10.0;
        svg.push_str(&format!(
            r#"<line x1="{lx:.1}" y1="{ly:.1}" x2="{:.1}" y2="{ly:.1}" stroke="{color}" stroke-width="2.5"/>"#,
            lx + 18.0
        ));
        svg.push_str(&format!(
            r#"<text x="{:.1}" y="{:.1}" font-size="11">{}</text>"#,
            lx + 24.0,
            ly + 4.0,
            xml_escape(&s.name)
        ));
    }
    svg.push_str("</svg>");
    Some(svg)
}

/// Render and write a chart to `path` (parent directories are created).
pub fn write_chart(
    path: impl AsRef<Path>,
    cfg: &ChartConfig,
    series: &[Series],
) -> std::io::Result<bool> {
    let Some(svg) = render(cfg, series) else {
        return Ok(false);
    };
    if let Some(parent) = path.as_ref().parent() {
        std::fs::create_dir_all(parent)?;
    }
    let mut f = std::fs::File::create(path)?;
    f.write_all(svg.as_bytes())?;
    Ok(true)
}

fn xml_escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series() -> Vec<Series> {
        vec![
            Series {
                name: "a".into(),
                points: vec![(0.0, 1.0), (1.0, 0.5), (2.0, 0.25)],
            },
            Series {
                name: "b".into(),
                points: vec![(0.0, 1.0), (1.0, 0.9)],
            },
        ]
    }

    #[test]
    fn renders_valid_svg_skeleton() {
        let svg = render(&ChartConfig::default(), &series()).unwrap();
        assert!(svg.starts_with("<svg"));
        assert!(svg.ends_with("</svg>"));
        assert_eq!(svg.matches("<path").count(), 2);
        assert!(svg.contains(">a</text>"));
        assert!(svg.contains(">b</text>"));
    }

    #[test]
    fn log_scale_drops_nonpositive_points() {
        let s = vec![Series {
            name: "x".into(),
            points: vec![(0.0, 0.0), (1.0, 1.0), (2.0, 10.0)],
        }];
        let cfg = ChartConfig {
            log_y: true,
            ..ChartConfig::default()
        };
        let svg = render(&cfg, &s).unwrap();
        // The zero point is skipped; the path has exactly 2 vertices.
        let path_part = svg.split("<path d=\"").nth(1).unwrap();
        let d = path_part.split('"').next().unwrap();
        assert_eq!(d.matches(['M', 'L']).count(), 2, "{d}");
    }

    #[test]
    fn empty_series_renders_nothing() {
        assert!(render(&ChartConfig::default(), &[]).is_none());
        let s = vec![Series {
            name: "nan".into(),
            points: vec![(f64::NAN, 1.0)],
        }];
        assert!(render(&ChartConfig::default(), &s).is_none());
    }

    #[test]
    fn escapes_markup_in_labels() {
        let cfg = ChartConfig {
            title: "a<b&c>".into(),
            ..ChartConfig::default()
        };
        let svg = render(&cfg, &series()).unwrap();
        assert!(svg.contains("a&lt;b&amp;c&gt;"));
    }

    #[test]
    fn write_chart_creates_file() {
        let dir = std::env::temp_dir().join("hetero_bench_plot");
        let path = dir.join("test.svg");
        let wrote = write_chart(&path, &ChartConfig::default(), &series()).unwrap();
        assert!(wrote);
        assert!(std::fs::read_to_string(&path).unwrap().contains("<svg"));
    }
}
