//! `fig2`: the paper's Fig. 2 — a DCT–IDCT round trip whose every MAC runs
//! on the aged gate-level MAC netlist at the fresh clock.
//!
//! Set-up builds a `GateLevelPipeline` aged by 10 years of balanced stress
//! with the packed timed engine. A measured pass is one `roundtrip_image`
//! of a synthetic frame whose index comes from the seed: every MAC runs as
//! a persistent per-lane stream through the timed engine.

use crate::trace::{with_event_groups, Tracer};
use crate::{measure_phase, median, Ctx, Measured, Ops, Outcome};
use aix_aging::{AgingScenario, Lifetime};
use aix_cells::Library;
use aix_dct::{
    decode_image, encode_image_quantized, FixedPointTransform, GateLevelConfig, GateLevelPipeline,
    Quantizer,
};
use aix_image::{psnr, Image, Sequence};
use aix_sim::{SimEngine, LANES};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Frame size: 8 × 6 = 48 blocks, one lane group of the packed engine.
const FRAME_WIDTH: usize = 64;
const FRAME_HEIGHT: usize = 48;
/// Crop the fresh-pipeline check round-trips.
const CROP_WIDTH: usize = 32;
const CROP_HEIGHT: usize = 16;
/// Frames the seed picks from.
const FRAME_CHOICES: u64 = 1024;
/// JPEG quality of the codec quantizer between the transforms (the
/// pipeline's default).
const JPEG_QUALITY: u8 = aix_core::PIPELINE_JPEG_QUALITY;

fn pipeline(cells: &Arc<Library>, scenario: AgingScenario) -> Result<GateLevelPipeline, String> {
    GateLevelPipeline::new(
        cells,
        GateLevelConfig::aged(scenario).with_engine(SimEngine::Packed),
    )
    .map_err(|e| format!("pipeline: {e}"))
}

/// The fixed-point RTL model of the same round trip.
fn rtl_roundtrip(frame: &Image, quantizer: &Quantizer) -> Image {
    let exact = FixedPointTransform::exact();
    decode_image(&encode_image_quantized(frame, &exact, quantizer), &exact)
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let cells = Arc::new(Library::nangate45_like());
    let aged_scenario = AgingScenario::balanced(Lifetime::YEARS_10);
    let quantizer = Quantizer::jpeg_quality(JPEG_QUALITY);
    let frame_index = (ctx.seed % FRAME_CHOICES) as usize;
    let frame = Sequence::Akiyo.frame(FRAME_WIDTH, FRAME_HEIGHT, frame_index);
    let (bw, bh) = frame.block_counts();
    assert!(
        bw * bh <= LANES,
        "the event-group count assumes one packed simulator per round trip"
    );

    let Measured {
        setup_s,
        pass_s,
        pass_rss_mb,
        results,
        ..
    } = measure_phase(
        ctx.seconds,
        3,
        || pipeline(&cells, aged_scenario),
        |aged, _| {
            aged.roundtrip_image(&frame, Some(&quantizer))
                .map_err(|e| format!("roundtrip_image: {e}"))
        },
    )?;

    let mut ops = Ops::default();
    let first = results[0].clone().ok();
    for (p, result) in results.iter().enumerate() {
        ops.check(
            result.as_ref().ok() == first.as_ref() && first.is_some(),
            || format!("pass {p}: round trip failed or differs from pass 0"),
        );
    }

    // A fresh pipeline is error-free at its own clock, so it must reproduce
    // the fixed-point RTL round trip bit for bit.
    let crop = Image::from_fn(CROP_WIDTH, CROP_HEIGHT, |x, y| frame.pixel(x, y));
    let fresh = pipeline(&cells, AgingScenario::Fresh)?;
    let fresh_out = fresh.roundtrip_image(&crop, Some(&quantizer));
    let rtl_crop = rtl_roundtrip(&crop, &quantizer);
    ops.check(
        matches!(&fresh_out, Ok((image, stats)) if *image == rtl_crop && stats.timing_errors == 0),
        || "fresh gate-level round trip differs from the RTL model".to_owned(),
    );

    let rtl = rtl_roundtrip(&frame, &quantizer);
    let mut stats = vec![format!(
        "Fig. 2 DCT-IDCT at the fresh clock, Akiyo frame {frame_index} ({FRAME_WIDTH}x{FRAME_HEIGHT}, JPEG quality {JPEG_QUALITY}); paper PSNR: 45 dB fresh, 18.5 dB 1y balance, 8.4 dB 10y balance"
    )];
    stats.push(format!(
        "RTL (fresh) round trip: PSNR {:.2} dB",
        psnr(&frame, &rtl)
    ));
    if let Some((decoded, st)) = &first {
        stats.push(format!(
            "10y balance gate level: PSNR {:.2} dB, {} of {} MACs latched a timing error ({:.3}%)",
            psnr(&frame, decoded),
            st.timing_errors,
            st.mac_ops,
            st.error_rate() * 100.0
        ));
    }

    let mut layers = BTreeMap::new();
    if ctx.trace {
        let tracer = Tracer::new();
        let traced_pipeline = tracer.span("dct", || pipeline(&cells, aged_scenario))?;
        let start = Instant::now();
        let (result, groups) = with_event_groups(|| {
            tracer.span("dct.roundtrip", || {
                traced_pipeline.roundtrip_image(&frame, Some(&quantizer))
            })
        });
        let traced_s = start.elapsed().as_secs_f64();
        let result = result.ok();
        ops.check(result == first, || {
            "traced pass: round trip differs from the untraced pass".to_owned()
        });
        let (mac_ops, errors) = result.map_or((0, 0), |(_, s)| (s.mac_ops, s.timing_errors));
        let roundtrip_s = tracer.busy_s("dct.roundtrip");
        layers.extend([
            ("dct.mac_ops", mac_ops as f64),
            ("dct.timing_errors", errors as f64),
            ("dct.busy_s", tracer.busy_s("dct") + roundtrip_s),
            ("dct.kmac_per_s", mac_ops as f64 / roundtrip_s / 1e3),
            ("sim.timed.event_groups", groups as f64),
            ("trace.run_s", traced_s),
            ("trace.overhead_s", traced_s - median(&pass_s)),
        ]);
    }

    Ok(Outcome {
        setup_s,
        pass_s,
        pass_rss_mb,
        ops,
        stats,
        layers,
    })
}
