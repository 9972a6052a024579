//! FNV-1a sharding of session ids onto a fixed worker-core pool.
//!
//! The multi-session server owns each session's state on exactly one
//! shard, so a shard's worker can mutate its sessions without locks
//! held across shards. The mapping must be (a) stable — the same id
//! lands on the same shard for the whole run — and (b) independent of
//! any runtime state, so that reports are invariant to the shard count
//! (the shard-invariance golden test). A session's shard is
//! [`illixr_trace::fnv1a`], the repo-wide content hash, over the id's
//! little-endian bytes, modulo the shard count.

use illixr_trace::fnv1a;

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
        (fnv1a(session.to_le_bytes()) % self.shards as u64) as usize
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
        // Pinned across commits: the shard-invariance goldens and the
        // failover fault domains place sessions by these values. Eight
        // shards see only the hash's low three bits; seven see all of it.
        let shards = |n| (0..16).map(|id| ShardMap::new(n).shard_of(id)).collect::<Vec<_>>();
        assert_eq!(shards(8), [5, 4, 7, 6, 1, 0, 3, 2, 5, 4, 7, 6, 1, 0, 3, 2]);
        assert_eq!(shards(7), [5, 1, 1, 4, 1, 2, 2, 5, 1, 4, 4, 0, 4, 5, 5, 1]);
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
