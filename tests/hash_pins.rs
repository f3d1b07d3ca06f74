//! Pinned content-hash values. Each digest below keys persisted or
//! replayed state — the characterization and explore caches (via the cell
//! library hash), the serve request journal, verify's per-entry RNG — so
//! a change to any of them silently invalidates caches or reshuffles
//! seeded campaigns. The values were recorded before the FNV-1a copies
//! were folded into `aix_obs::fnv1a` and must never drift.

use aix::cells::Library;
use aix::obs::{fnv1a, FNV_OFFSET};
use rand::Rng;

#[test]
fn content_hashes_match_their_pinned_values() {
    // FNV-1a 64-bit known-answer vectors.
    assert_eq!(fnv1a(FNV_OFFSET, b""), 0xcbf2_9ce4_8422_2325);
    assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
    assert_eq!(fnv1a(FNV_OFFSET, b"foobar"), 0x8594_4171_f739_67e8);

    assert_eq!(
        Library::nangate45_like().content_hash(),
        0xcb67_8ef8_0670_96bb
    );
    assert_eq!(
        aix::serve::journal::request_hash("characterize adder w=8"),
        "a2d019eb01cf201a"
    );
    let mut rng = aix::verify::perturb::entry_rng(7, "adder-w8-p8");
    assert_eq!(rng.gen::<u64>(), 0xc782_fb50_64f5_d271);
}
