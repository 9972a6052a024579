//! The repository's two hash primitives, written once.
//!
//! [`fnv1a`] is the content hash: the ILXT config hash, `trace.json` flow
//! ids, the server's shard map, fault-target keys and every bit pin's
//! digest. [`splitmix64`] is the stateless mixer behind fault trials and
//! fan-out transforms. Every recorded or pinned value depends on both as
//! written, so neither may change.

/// FNV-1a (64-bit) over `bytes`, in order.
pub fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes
        .into_iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3))
}

/// The SplitMix64 output function of state `x`: a strong 64-bit mixer.
#[inline]
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_the_published_vectors() {
        assert_eq!(fnv1a(*b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(*b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(*b"foobar"), 0x8594_4171_f739_67e8);
        // Fault-plan target keys: distinct names, distinct keys.
        assert_ne!(fnv1a("camera".bytes()), fnv1a("imu".bytes()));
    }

    #[test]
    fn splitmix64_matches_the_reference_and_spreads() {
        assert_eq!(splitmix64(0), 0xe220_a839_7b1d_cdaf);
        assert_eq!(splitmix64(0x9e37_79b9_7f4a_7c15), 0x6e78_9e6a_a1b9_65f4);
        // Avalanche smoke test: flipping one input bit flips many output bits.
        let d = (splitmix64(7) ^ splitmix64(7 | 1 << 40)).count_ones();
        assert!(d > 16, "only {d} bits differ");
    }
}
