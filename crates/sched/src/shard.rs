//! FNV-1a sharding of session ids onto a fixed worker-core pool.
//!
//! The multi-session server owns each session's state on exactly one
//! shard, so a shard's worker can mutate its sessions without locks
//! held across shards. The mapping must be (a) stable — the same id
//! lands on the same shard for the whole run — and (b) independent of
//! any runtime state, so that reports are invariant to the shard count
//! (the shard-invariance golden test). FNV-1a is the repo's standing
//! choice for cheap deterministic hashing (flow ids, config hashes).

/// FNV-1a over the little-endian bytes of `id`.
fn fnv1a_u32(id: u32) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in id.to_le_bytes() {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// A fixed-size shard map: `session id → shard index`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardMap {
    shards: usize,
}

impl ShardMap {
    /// A map over `shards` shards (clamped to at least one).
    pub fn new(shards: usize) -> Self {
        Self { shards: shards.max(1) }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The shard owning `session`.
    pub fn shard_of(&self, session: u32) -> usize {
        (fnv1a_u32(session) % self.shards as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mapping_is_stable_and_in_range() {
        let map = ShardMap::new(7);
        for id in 0..1000 {
            let s = map.shard_of(id);
            assert!(s < 7);
            assert_eq!(s, map.shard_of(id), "mapping must be a pure function");
        }
    }

    #[test]
    fn single_shard_owns_everything() {
        let map = ShardMap::new(1);
        assert!((0..100).all(|id| map.shard_of(id) == 0));
        assert_eq!(ShardMap::new(0).shards(), 1, "zero shards clamps to one");
    }

    #[test]
    fn fnv_spreads_sequential_ids() {
        // Session ids are sequential; the hash must not funnel them
        // onto a few shards. Allow generous skew: no shard above 2× the
        // fair share at 1000 ids over 8 shards.
        let map = ShardMap::new(8);
        let mut counts = [0usize; 8];
        for id in 0..1000 {
            counts[map.shard_of(id)] += 1;
        }
        assert!(counts.iter().all(|&c| c > 0), "empty shard: {counts:?}");
        assert!(counts.iter().all(|&c| c < 250), "skewed shards: {counts:?}");
    }
}
