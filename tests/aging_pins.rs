//! Pinned aged characterization of the paper library. Every entry of the
//! Eq. 2 library is an aged STA of one (component, precision) under one
//! aging scenario, so a change in how aged delays are annotated (how often
//! the BTI physics is evaluated, in which order a factor is applied) shows
//! up here as a changed digit or a changed bit.
//!
//! `tests/golden/paper_library.txt` and the bit digest below were recorded
//! with the annotation that evaluated the aging physics once per gate,
//! before a uniform stress source started evaluating it once per
//! annotation, and must never drift under a refactor of the annotation.
//! Regenerate them only after an intentional change to the aging model,
//! the cell library or synthesis, with:
//! `UPDATE_GOLDEN=1 cargo test --test aging_pins`

use aix::cells::Library;
use aix::core::{
    ApproxLibrary, CharacterizationConfig, CharacterizationEngine, ComponentKind, EngineOptions,
};
use aix::obs::{fnv1a, FNV_OFFSET};
use std::sync::Arc;

const GOLDEN_PATH: &str = "tests/golden/paper_library.txt";
const GOLDEN: &str = include_str!("golden/paper_library.txt");

/// FNV-1a over the `to_bits` of every entry's delay, in library order.
const DELAY_BITS_DIGEST: u64 = 0xeedf_5160_2308_ea0e;

/// Adder, multiplier and MAC at 32 bits plus the 16-bit adder of the IDCT
/// rounding stage, all at the paper's default set-up.
fn paper_library() -> ApproxLibrary {
    let mut configs: Vec<CharacterizationConfig> = ComponentKind::ALL
        .iter()
        .map(|&kind| CharacterizationConfig::paper_default(kind, 32))
        .collect();
    configs.push(CharacterizationConfig::paper_default(
        ComponentKind::Adder,
        16,
    ));
    let engine = CharacterizationEngine::new(
        Arc::new(Library::nangate45_like()),
        EngineOptions::sequential(),
    );
    engine.characterize_all(&configs).expect("paper library").0
}

fn delay_bits_digest(library: &ApproxLibrary) -> u64 {
    library
        .iter()
        .flat_map(|component| component.entries())
        .fold(FNV_OFFSET, |hash, entry| {
            fnv1a(hash, &entry.delay_ps.to_bits().to_le_bytes())
        })
}

#[test]
fn paper_library_matches_its_pinned_text_and_bits() {
    let library = paper_library();
    let text = library.to_text();
    let digest = delay_bits_digest(&library);
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(GOLDEN_PATH, &text).expect("write golden");
        println!("delay bits digest: {digest:#018x}");
        return;
    }
    assert!(
        text == GOLDEN,
        "paper library drifted from {GOLDEN_PATH}; if the change is \
         intentional, regenerate with UPDATE_GOLDEN=1"
    );
    assert_eq!(digest, DELAY_BITS_DIGEST, "aged delay bits drifted");
}
