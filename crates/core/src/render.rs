//! Rendering of routed control layers: ASCII art for terminals and SVG
//! for documentation. Purely an output aid — nothing here feeds back
//! into the flow.

use crate::{Problem, RoutedCluster, RoutedKind};
use pacor_grid::Point;
use std::fmt::Write as _;

/// Renders the routed layout as ASCII art.
///
/// Legend: `■` valve, `#` obstacle, `*` control channel, `+` escape
/// channel, `P` control pin in use, `·` free. Row `y = height-1` prints
/// first so the origin sits bottom-left.
///
/// # Examples
///
/// ```
/// use pacor::{BenchDesign, FlowConfig, PacorFlow, render_ascii};
///
/// let problem = BenchDesign::S1.synthesize(42);
/// let (_, routed) = PacorFlow::new(FlowConfig::default()).run_detailed(&problem)?;
/// let art = render_ascii(&problem, &routed);
/// assert!(art.contains('■'));
/// # Ok::<(), pacor::FlowError>(())
/// ```
pub fn render_ascii(problem: &Problem, routed: &[RoutedCluster]) -> String {
    let (w, h) = (problem.width as usize, problem.height as usize);
    let mut canvas = vec![vec!['·'; w]; h];
    let put = |p: Point, ch: char, canvas: &mut Vec<Vec<char>>| {
        if p.x >= 0 && p.y >= 0 && (p.x as usize) < w && (p.y as usize) < h {
            canvas[p.y as usize][p.x as usize] = ch;
        }
    };
    for &o in &problem.obstacles {
        put(o, '#', &mut canvas);
    }
    for rc in routed {
        for c in rc.net_cells() {
            put(c, '*', &mut canvas);
        }
        if let Some((esc, pin)) = &rc.escape {
            for c in esc.cells().iter().skip(1) {
                put(*c, '+', &mut canvas);
            }
            put(*pin, 'P', &mut canvas);
        }
    }
    for v in problem.valves.iter() {
        put(v.position(), '■', &mut canvas);
    }
    let mut out = String::with_capacity((w + 1) * h);
    for row in canvas.iter().rev() {
        out.extend(row.iter());
        out.push('\n');
    }
    out
}

/// Renders the routed layout as a standalone SVG document.
///
/// Valves are squares, obstacles gray blocks, internal nets opaque
/// strokes colored per cluster, escape channels the same hue dashed,
/// and control pins circles. `cell` is the SVG pixel size per grid cell.
///
/// # Examples
///
/// ```
/// use pacor::{BenchDesign, FlowConfig, PacorFlow, render_svg};
///
/// let problem = BenchDesign::S1.synthesize(42);
/// let (_, routed) = PacorFlow::new(FlowConfig::default()).run_detailed(&problem)?;
/// let svg = render_svg(&problem, &routed, 12);
/// assert!(svg.starts_with("<svg"));
/// assert!(svg.ends_with("</svg>\n"));
/// # Ok::<(), pacor::FlowError>(())
/// ```
pub fn render_svg(problem: &Problem, routed: &[RoutedCluster], cell: u32) -> String {
    let cell = cell.max(2);
    let (w, h) = (problem.width * cell, problem.height * cell);
    // y flips so the grid origin is bottom-left, like the ASCII view.
    let cx = |p: Point| p.x as u32 * cell + cell / 2;
    let cy = |p: Point| (problem.height - 1 - p.y as u32) * cell + cell / 2;

    let mut svg = String::new();
    let _ = writeln!(
        svg,
        "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{w}\" height=\"{h}\" \
         viewBox=\"0 0 {w} {h}\">"
    );
    let _ = writeln!(
        svg,
        "  <rect width=\"{w}\" height=\"{h}\" fill=\"#fcfcf8\" stroke=\"#888\"/>"
    );
    for &o in &problem.obstacles {
        let _ = writeln!(
            svg,
            "  <rect x=\"{}\" y=\"{}\" width=\"{cell}\" height=\"{cell}\" fill=\"#c8c8c0\"/>",
            o.x as u32 * cell,
            (problem.height - 1 - o.y as u32) * cell
        );
    }

    const PALETTE: [&str; 10] = [
        "#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#e377c2", "#17becf",
        "#bcbd22", "#7f7f7f",
    ];
    let polyline = |path: &pacor_grid::GridPath, color: &str, dashed: bool| -> String {
        let pts: Vec<String> = path
            .corners()
            .iter()
            .map(|&p| format!("{},{}", cx(p), cy(p)))
            .collect();
        format!(
            "  <polyline points=\"{}\" fill=\"none\" stroke=\"{color}\" stroke-width=\"{}\"{}/>\n",
            pts.join(" "),
            cell / 3,
            if dashed {
                format!(" stroke-dasharray=\"{},{}\"", cell / 2, cell / 4)
            } else {
                String::new()
            }
        )
    };

    for (i, rc) in routed.iter().enumerate() {
        let color = PALETTE[i % PALETTE.len()];
        match &rc.kind {
            RoutedKind::LmTree { edge_paths, .. } => {
                for p in edge_paths {
                    svg.push_str(&polyline(p, color, false));
                }
            }
            RoutedKind::LmPair { half_a, half_b, .. } => {
                svg.push_str(&polyline(half_a, color, false));
                svg.push_str(&polyline(half_b, color, false));
            }
            RoutedKind::Mst { paths } => {
                for p in paths {
                    svg.push_str(&polyline(p, color, false));
                }
            }
            RoutedKind::Singleton => {}
        }
        if let Some((esc, pin)) = &rc.escape {
            svg.push_str(&polyline(esc, color, true));
            let _ = writeln!(
                svg,
                "  <circle cx=\"{}\" cy=\"{}\" r=\"{}\" fill=\"{color}\" stroke=\"#000\"/>",
                cx(*pin),
                cy(*pin),
                cell / 2
            );
        }
    }
    for v in problem.valves.iter() {
        let p = v.position();
        let _ = writeln!(
            svg,
            "  <rect x=\"{}\" y=\"{}\" width=\"{cell}\" height=\"{cell}\" \
             fill=\"#222\" stroke=\"#000\"/>",
            p.x as u32 * cell,
            (problem.height - 1 - p.y as u32) * cell
        );
    }
    svg.push_str("</svg>\n");
    svg
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BenchDesign, FlowConfig, PacorFlow};

    fn routed_s1() -> (Problem, Vec<RoutedCluster>) {
        let problem = BenchDesign::S1.synthesize(42);
        let (_, routed) = PacorFlow::new(FlowConfig::default())
            .run_detailed(&problem)
            .expect("valid design");
        (problem, routed)
    }

    #[test]
    fn ascii_has_grid_dimensions() {
        let (problem, routed) = routed_s1();
        let art = render_ascii(&problem, &routed);
        assert_eq!(art.lines().count(), problem.height as usize);
        assert!(art
            .lines()
            .all(|l| l.chars().count() == problem.width as usize));
    }

    #[test]
    fn ascii_marks_all_valves() {
        let (problem, routed) = routed_s1();
        let art = render_ascii(&problem, &routed);
        let valves = art.chars().filter(|&c| c == '■').count();
        assert_eq!(valves, problem.valve_count());
    }

    #[test]
    fn ascii_shows_pins_for_complete_routes() {
        let (problem, routed) = routed_s1();
        let art = render_ascii(&problem, &routed);
        let pins = art.chars().filter(|&c| c == 'P').count();
        assert_eq!(pins, routed.iter().filter(|rc| rc.is_complete()).count());
    }

    #[test]
    fn svg_is_well_formed_enough() {
        let (problem, routed) = routed_s1();
        let svg = render_svg(&problem, &routed, 10);
        assert!(svg.starts_with("<svg"));
        assert!(svg.ends_with("</svg>\n"));
        assert_eq!(
            svg.matches("<polyline").count(),
            svg.matches("/>").count()
                - svg.matches("<rect").count()
                - svg.matches("<circle").count()
        );
        // One valve rect per valve (plus background + obstacle rects).
        let rects = svg.matches("<rect").count();
        assert_eq!(rects, 1 + problem.obstacles.len() + problem.valve_count());
    }

    #[test]
    fn svg_min_cell_clamped() {
        let (problem, routed) = routed_s1();
        let svg = render_svg(&problem, &routed, 0);
        assert!(svg.contains("width=\"24\"")); // 12 cells × clamped 2px
    }
}
