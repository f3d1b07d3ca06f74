//! FNV-1a, the workspace's one content hash.
//!
//! Cache keys, explore score keys, serve journal keys, fault decisions and
//! verify's per-entry seeds are all FNV-1a digests, persisted on disk or
//! compared across runs, so the function must stay bit-for-bit stable.

/// The 64-bit FNV offset basis: the state to start a fresh hash from.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds `bytes` into the 64-bit FNV-1a state `state` and returns the new
/// state. Start from [`FNV_OFFSET`]; chaining calls hashes the
/// concatenation of their inputs.
#[must_use]
pub fn fnv1a(state: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(state, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(FNV_PRIME)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaining_hashes_the_concatenation() {
        assert_eq!(
            fnv1a(fnv1a(FNV_OFFSET, b"foo"), b"bar"),
            fnv1a(FNV_OFFSET, b"foobar")
        );
    }
}
