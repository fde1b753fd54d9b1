//! Routes a benchmark design and renders the result: ASCII art to the
//! terminal and an SVG file next to the target directory.
//!
//! ```sh
//! cargo run --release --example render_layout            # S1
//! cargo run --release --example render_layout -- S3      # any design
//! ```

use pacor_repro::grid::DesignRules;
use pacor_repro::pacor::{
    render_ascii, render_svg, BenchDesign, FlowConfig, PacorFlow, PropagationModel,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let which = std::env::args().nth(1).unwrap_or_else(|| "S1".into());
    let design = match which.as_str() {
        "Chip1" => BenchDesign::Chip1,
        "Chip2" => BenchDesign::Chip2,
        "S1" => BenchDesign::S1,
        "S2" => BenchDesign::S2,
        "S3" => BenchDesign::S3,
        "S4" => BenchDesign::S4,
        "S5" => BenchDesign::S5,
        other => {
            eprintln!("unknown design {other}; use Chip1|Chip2|S1..S5");
            std::process::exit(2);
        }
    };

    let problem = design.synthesize(42);
    let (report, routed) = PacorFlow::new(FlowConfig::default()).run_detailed(&problem)?;
    println!("{report}");
    println!();
    if problem.width <= 60 {
        println!("{}", render_ascii(&problem, &routed));
    } else {
        println!("(grid too wide for ASCII; see the SVG)");
    }

    let svg = render_svg(&problem, &routed, 12);
    let path = format!("target/{}_layout.svg", problem.name);
    std::fs::write(&path, svg)?;
    println!("wrote {path}");

    // Physical interpretation of the matching quality.
    let model = PropagationModel::typical_pdms(DesignRules::typical_pdms());
    for (i, rc) in routed.iter().enumerate() {
        if let Some(skew) = model.cluster_skew_us(rc) {
            println!(
                "cluster {i}: switching skew {skew:.1} µs ({} grid tracks of mismatch)",
                rc.mismatch().unwrap_or(0)
            );
        }
    }
    Ok(())
}
