//! The repository's hash primitives and its seeded generator, written once.
//!
//! [`fnv1a`] is the content hash: the ILXT config hash, `trace.json` flow
//! ids, the server's shard map, fault-target keys and every bit pin's
//! digest. [`splitmix64`] is the stateless mixer behind fault trials and
//! fan-out transforms. [`Xoshiro256pp`] is the seeded generator behind the
//! IMU noise, the trajectories, the landmark world, the apps, the audio
//! sources and the property tests; [`unit_f64`] turns 64 bits into a
//! uniform draw for all of them. Every recorded or pinned value depends on
//! these as written, so none may change.

use std::ops::Range;

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

/// The top 53 bits of `bits` as a uniform draw in `[0, 1)`.
#[inline]
pub fn unit_f64(bits: u64) -> f64 {
    (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// The xoshiro256++ generator, its state seeded through [`splitmix64`].
#[derive(Debug, Clone)]
pub struct Xoshiro256pp {
    s: [u64; 4],
}

impl Xoshiro256pp {
    /// The generator for `seed`: state word `k` is
    /// `splitmix64(seed + k·0x9e37_79b9_7f4a_7c15)`.
    pub fn new(seed: u64) -> Self {
        let s = std::array::from_fn(|k| {
            splitmix64(seed.wrapping_add((k as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)))
        });
        Self { s }
    }

    /// The next 64 uniform bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// A uniform draw in the half-open `range`.
    ///
    /// # Panics
    ///
    /// Panics when the range is empty.
    #[inline]
    pub fn uniform(&mut self, range: Range<f64>) -> f64 {
        assert!(range.start < range.end, "cannot sample empty range");
        range.start + unit_f64(self.next_u64()) * (range.end - range.start)
    }

    /// A draw in `0..n`, by remainder (the bias is at most `n / 2⁶⁴`).
    ///
    /// # Panics
    ///
    /// Panics when `n` is zero.
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// A Bernoulli draw: `true` with probability `p`.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        unit_f64(self.next_u64()) < p
    }
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

    #[test]
    fn seeded_generator_known_answers() {
        let mut rng = Xoshiro256pp::new(7);
        let words: Vec<u64> = (0..3).map(|_| rng.next_u64()).collect();
        assert_eq!(words, [0x0e2c_1a00_2aae_913d, 0x2c0f_c8dd_fa4e_9e14, 0xb7b3_11b3_b0d4_5872]);

        let mut rng = Xoshiro256pp::new(7);
        assert_eq!(rng.uniform(1e-12..1.0).to_bits(), 0x3fac_5834_0057_70e9);
        assert_eq!(rng.uniform(-6.0..6.0).to_bits(), 0xc00f_7a14_acc2_2287);
        assert_eq!(rng.below(3), 2);
        assert!(rng.chance(0.5));

        // Neighbouring seeds give unrelated streams.
        let (mut a, mut b) = (Xoshiro256pp::new(1), Xoshiro256pp::new(2));
        assert!((0..8).all(|_| a.next_u64() != b.next_u64()));
    }

    #[test]
    fn draws_stay_in_bounds() {
        assert_eq!(unit_f64(0), 0.0);
        assert!(unit_f64(u64::MAX) < 1.0);
        let mut rng = Xoshiro256pp::new(42);
        for _ in 0..1000 {
            assert!((-2.0..3.0).contains(&rng.uniform(-2.0..3.0)));
            assert!(rng.below(3) < 3);
        }
    }

    #[test]
    fn chance_hits_at_its_rate() {
        let mut rng = Xoshiro256pp::new(9);
        let hits = (0..10_000).filter(|_| rng.chance(0.25)).count();
        assert!((2000..3000).contains(&hits), "hits {hits}");
    }

    #[test]
    fn uniform_mean_is_centered() {
        let mut rng = Xoshiro256pp::new(3);
        let mean = (0..10_000).map(|_| rng.uniform(0.0..1.0)).sum::<f64>() / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }
}
