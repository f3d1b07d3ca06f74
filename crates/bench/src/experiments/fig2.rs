//! Fig. 2 — image quality collapse when the DCT–IDCT chain runs at its
//! fresh clock while aging: PSNR 45 dB (fresh) → 18.5 dB (1 y balance) →
//! 8.4 dB (10 y balance) in the paper.
//!
//! The whole chain executes at gate level: every MAC of both transforms
//! runs through the event-driven timed simulator with aged delays.

use crate::Options;
use aix_aging::{AgingScenario, Lifetime};
use aix_cells::Library;
use aix_dct::{GateLevelConfig, GateLevelPipeline, Quantizer};
use aix_image::{psnr, write_pgm, Sequence};
use std::fmt::Write as _;
use std::sync::Arc;

/// Runs the Fig. 2 experiment.
pub fn run(options: &Options) -> String {
    let width = options.scaled("width", 64, 176);
    let height = options.scaled("height", 48, 144);
    let cells = Arc::new(Library::nangate45_like());
    let frame = Sequence::Akiyo.frame(width, height, 0);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "Fig. 2 — gate-level DCT-IDCT chain at the fresh clock ({width}x{height} frame)\n"
    );
    let mut table =
        crate::Table::new(&["condition", "PSNR [dB]", "MAC timing errors", "paper PSNR"]);
    let conditions = [
        ("0y (no aging)", AgingScenario::Fresh, "45.0"),
        (
            "1y balance",
            AgingScenario::balanced(Lifetime::YEARS_1),
            "18.5",
        ),
        (
            "10y balance",
            AgingScenario::balanced(Lifetime::YEARS_10),
            "8.4",
        ),
    ];
    // The three conditions are independent full gate-level runs; execute
    // them on the characterization engine's work pool (honours AIX_JOBS).
    let jobs = aix_core::EngineOptions::from_env().resolved_jobs();
    let results: Vec<_> = aix_core::parallel_map(
        jobs,
        conditions.to_vec(),
        |(label, scenario, paper)| {
            let pipeline = GateLevelPipeline::new(&cells, GateLevelConfig::aged(scenario))
                .expect("pipeline synthesis");
            let quantizer = Quantizer::jpeg_quality(aix_core::PIPELINE_JPEG_QUALITY);
            let (decoded, stats) = pipeline
                .roundtrip_image(&frame, Some(&quantizer))
                .expect("gate-level round trip");
            (label, paper, decoded, stats)
        },
    );
    let mut measured = Vec::new();
    let mut timing_errors = 0;
    for (label, paper, decoded, stats) in results {
        let quality = psnr(&frame, &decoded);
        measured.push(quality);
        timing_errors += stats.timing_errors;
        table.row_owned(vec![
            label.to_owned(),
            format!("{quality:.1}"),
            format!("{} of {}", stats.timing_errors, stats.mac_ops),
            paper.to_owned(),
        ]);
        let file = format!("out/fig2_{}.pgm", label.replace([' ', '(', ')'], "_"));
        let _ = std::fs::create_dir_all("out");
        if let Ok(f) = std::fs::File::create(&file) {
            let _ = write_pgm(f, &decoded);
        }
    }
    out.push_str(&table.render());
    let _ = writeln!(
        out,
        "\ndecoded frames written to out/fig2_*.pgm; shape target: monotone collapse\n\
         from transparent quality to an unusable image as the chain ages."
    );
    if let [fresh, one_year, ten_years] = measured[..] {
        let collapse = fresh >= one_year && one_year >= ten_years && fresh > ten_years;
        let _ = writeln!(
            out,
            "monotone collapse: {}",
            if collapse { "yes" } else { "NO - investigate" }
        );
        let _ = writeln!(out, "{}", note(fresh, ten_years, collapse, timing_errors));
    }
    out
}

/// The closing note, derived from the measured PSNRs and the total MAC
/// timing errors over all three conditions.
fn note(fresh: f64, ten_years: f64, collapse: bool, timing_errors: u64) -> String {
    if collapse {
        format!(
            "note: PSNR falls by {:.1} dB from the fresh chain to 10 years of balanced\n\
             stress (paper: 45.0 -> 8.4 dB).",
            fresh - ten_years
        )
    } else if timing_errors == 0 {
        "note: no MAC latched a wrong value in any condition, so every condition\n\
         decodes the same image; the paper's collapse to an unusable image does\n\
         not reproduce on this chain at this frame size."
            .to_owned()
    } else {
        format!(
            "note: {timing_errors} MAC timing error(s) left PSNR without a monotone\n\
             collapse; the paper's unusable 10-year image does not reproduce here."
        )
    }
}
