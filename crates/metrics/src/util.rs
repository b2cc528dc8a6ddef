//! Small deterministic hash primitives shared across the workspace: the
//! SplitMix64 mixer and stream, and 64-bit FNV-1a.
//!
//! Every seeded stream, fault-oracle draw, artifact fingerprint and graph
//! digest in the repository goes through these definitions, so their
//! outputs are pinned to reference values in the tests below.

/// The SplitMix64 Weyl increment (2⁶⁴ / φ, rounded to odd).
pub const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// The SplitMix64 finalizer applied to `z + GOLDEN_GAMMA`: a stateless,
/// high-quality 64-bit mixer.
#[inline]
pub fn mix64(z: u64) -> u64 {
    let mut z = z.wrapping_add(GOLDEN_GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One step of the SplitMix64 generator (Steele–Lea–Flood): returns
/// `mix64(*state)` and advances `state` by [`GOLDEN_GAMMA`].
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    let out = mix64(*state);
    *state = state.wrapping_add(GOLDEN_GAMMA);
    out
}

/// Streaming 64-bit FNV-1a.
#[derive(Copy, Clone, Debug)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Fnv1a {
        Fnv1a::new()
    }
}

impl Fnv1a {
    /// A hasher at the FNV-1a offset basis.
    #[inline]
    pub fn new() -> Fnv1a {
        Fnv1a(FNV_OFFSET)
    }

    /// Feeds `bytes`.
    #[inline]
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// Feeds `value` as 8 little-endian bytes.
    #[inline]
    pub fn write_u64(&mut self, value: u64) {
        self.write(&value.to_le_bytes());
    }

    /// The hash of everything fed so far.
    #[inline]
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// 64-bit FNV-1a over `bytes` (no cryptographic hash is vendored in-tree;
/// collision resistance is not a requirement for change detection).
#[inline]
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write(bytes);
    h.finish()
}

/// [`fnv1a_64`] as fixed-width lowercase hex.
pub fn fnv1a_hex(bytes: &[u8]) -> String {
    format!("{:016x}", fnv1a_64(bytes))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_64(b"foobar"), 0x85944171f73967e8);
        assert_eq!(fnv1a_hex(b"a"), "af63dc4c8601ec8c");
    }

    #[test]
    fn streaming_fnv_matches_one_shot() {
        let mut h = Fnv1a::new();
        h.write(b"foo");
        h.write(b"bar");
        assert_eq!(h.finish(), fnv1a_64(b"foobar"));
        let mut h = Fnv1a::default();
        h.write_u64(0x0102_0304_0506_0708);
        assert_eq!(h.finish(), fnv1a_64(&[8, 7, 6, 5, 4, 3, 2, 1]));
    }

    #[test]
    fn splitmix64_matches_reference_stream() {
        let mut state = 0;
        assert_eq!(splitmix64(&mut state), 0xe220_a839_7b1d_cdaf);
        assert_eq!(splitmix64(&mut state), 0x6e78_9e6a_a1b9_65f4);
        assert_eq!(splitmix64(&mut state), 0x06c4_5d18_8009_454f);
        assert_eq!(state, GOLDEN_GAMMA.wrapping_mul(3));
        assert_eq!(mix64(0), 0xe220_a839_7b1d_cdaf);
    }
}
