//! The on-disk checkpoint container: `ILXC`, the snapshot sibling of
//! the `ILXT` trace.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic        4 bytes   "ILXC"
//! version      u32       CHECKPOINT_SCHEMA_VERSION
//! seed         u64       world/config seed of the checkpointed run
//! config_hash  u64       FNV-1a hash of the run configuration
//! tag_ns       u64       simulated time the snapshot was captured at
//! entry_count  u32
//! per entry:
//!   name_len   u16
//!   name       name_len bytes of UTF-8 (e.g. "s3/session")
//!   len        u32       payload length
//!   payload    len bytes (opaque to the container)
//! ```
//!
//! The entry payloads are opaque here for the same reason trace record
//! payloads are: the codec lives with the type that owns the state (the
//! server's session snapshot codec), not with the container. What the
//! container *does* own is identity and integrity: the same FNV
//! config-hash discipline as [`crate::format::Trace`], a schema version
//! that is bumped on any layout change, and a strict decode on the
//! trace's own reader ([`crate::codec`]): bad magic, unknown versions,
//! non-UTF-8 names, truncation and trailing bytes are each a
//! [`DecodeError`] variant. A checkpoint that half-decodes would restore a
//! half-truth, so nothing structurally suspect is accepted — the
//! failover path downgrades a corrupt checkpoint to restart-only
//! recovery instead of guessing.
//!
//! # Crash-record replay contract
//!
//! Checkpoints compose with the crash records the boundary writes into
//! `ILXT` traces. The contract, shared by `FaultPlan::crash_due` and
//! `Boundary::crash_due`:
//!
//! * **Recording** — each scheduled crash that fires is appended to the
//!   stream `crash/<plugin>` at its release tag, one empty-payload
//!   record per firing. The plan's count of windows opened through time
//!   `t` (`FaultPlan::crash_count_through`) minus the caller's
//!   fired-count decides whether the next firing is due.
//! * **Replay** — a replaying boundary consults *only* the recorded
//!   `crash/` stream (each crash consumes the next record due by the
//!   release tag), never the replay side's plan, so a recorded run reproduces its crashes —
//!   and nothing else — whatever plan the replay carries.
//! * **Checkpoint/restore** — a snapshot taken at `tag_ns` implies
//!   every crash record with tag ≤ `tag_ns` has been delivered;
//!   catch-up replay re-applies only later records.

use crate::codec::{ByteReader, ByteWriter, DecodeError};

/// File magic: "ILXC" (ILLIXR Checkpoint).
const CHECKPOINT_MAGIC: [u8; 4] = *b"ILXC";

/// Current checkpoint schema version. Bump on any layout change —
/// decoders reject unknown versions rather than guessing (a checkpoint
/// is a *measurement* of run state, not a document).
pub const CHECKPOINT_SCHEMA_VERSION: u32 = 2;

/// A decoded (or about-to-be-encoded) checkpoint: identity header plus
/// named opaque state entries.
///
/// Entries keep insertion order — part of the format's determinism
/// contract (re-encoding a decoded checkpoint is byte-identical).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    /// Schema version this checkpoint was written with.
    pub schema_version: u32,
    /// Seed of the checkpointed run.
    pub seed: u64,
    /// Hash of the run configuration, for provenance and mismatch
    /// rejection at restore time.
    pub config_hash: u64,
    /// Simulated time the snapshot was captured at, nanoseconds.
    pub tag_ns: u64,
    /// Named state payloads (e.g. `"s3/session"` → session snapshot
    /// bytes). Opaque to the container.
    pub entries: Vec<(String, Vec<u8>)>,
}

impl Checkpoint {
    /// An empty checkpoint with the given identity.
    pub fn new(seed: u64, config_hash: u64, tag_ns: u64) -> Self {
        Self {
            schema_version: CHECKPOINT_SCHEMA_VERSION,
            seed,
            config_hash,
            tag_ns,
            entries: Vec::new(),
        }
    }

    /// The payload of one named entry, if present.
    pub fn entry(&self, name: &str) -> Option<&[u8]> {
        self.entries.iter().find(|(n, _)| n == name).map(|(_, p)| p.as_slice())
    }

    /// Serialize to the container layout documented at module level.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_bytes(&CHECKPOINT_MAGIC);
        w.put_u32(self.schema_version);
        w.put_u64(self.seed);
        w.put_u64(self.config_hash);
        w.put_u64(self.tag_ns);
        w.put_u32(self.entries.len() as u32);
        for (name, payload) in &self.entries {
            w.put_name(name);
            w.put_u32(payload.len() as u32);
            w.put_bytes(payload);
        }
        w.into_bytes()
    }

    /// Strict decode: magic, version, structure and exact length are
    /// all enforced.
    pub fn decode(bytes: &[u8]) -> Result<Self, DecodeError> {
        let mut r = ByteReader::new(bytes);
        r.take_prelude(CHECKPOINT_MAGIC, CHECKPOINT_SCHEMA_VERSION)?;
        let seed = r.take_u64()?;
        let config_hash = r.take_u64()?;
        let tag_ns = r.take_u64()?;
        let entry_count = r.take_u32()? as usize;
        let entries = r.take_list(entry_count, |r, index| {
            let name = r.take_name(index)?;
            let len = r.take_u32()? as usize;
            Ok((name, r.take_bytes(len)?.to_vec()))
        })?;
        r.finish()?;
        Ok(Self { schema_version: CHECKPOINT_SCHEMA_VERSION, seed, config_hash, tag_ns, entries })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::Xoshiro256pp;

    fn sample() -> Checkpoint {
        let mut c = Checkpoint::new(42, 0xABCD, 2_000_000_000);
        c.entries.push(("s0/session".into(), vec![1, 2, 3, 4]));
        c.entries.push(("s1/session".into(), vec![]));
        c.entries.push(("s2/session".into(), vec![9; 80]));
        c
    }

    #[test]
    fn encode_decode_round_trips() {
        let c = sample();
        let bytes = c.encode();
        let back = Checkpoint::decode(&bytes).unwrap();
        assert_eq!(back, c);
        // Re-encoding a decoded checkpoint is byte-identical.
        assert_eq!(back.encode(), bytes);
    }

    #[test]
    fn entry_lookup_finds_by_name() {
        let c = sample();
        assert_eq!(c.entry("s0/session"), Some(&[1u8, 2, 3, 4][..]));
        assert!(c.entry("s9/session").is_none());
    }

    // Arbitrary entry contents survive an encode→decode round trip
    // exactly, and the encoding is canonical.
    #[test]
    fn arbitrary_checkpoints_round_trip() {
        let mut rng = Xoshiro256pp::new(2);
        for case in 0..64 {
            let mut checkpoint = Checkpoint::new(rng.next_u64(), rng.next_u64(), rng.next_u64());
            for i in 0..rng.below(6) {
                let kind = rng.below(8);
                let payload = (0..rng.below(64)).map(|_| rng.next_u64() as u8).collect();
                checkpoint.entries.push((format!("s{i}/state-{kind}"), payload));
            }
            let bytes = checkpoint.encode();
            let back = Checkpoint::decode(&bytes).unwrap();
            assert_eq!(back, checkpoint, "case {case}");
            assert_eq!(back.encode(), bytes, "case {case}");
        }
    }
}
