//! The on-disk trace container.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic        4 bytes   "ILXT"
//! version      u32       SCHEMA_VERSION
//! seed         u64       world/config seed of the recorded run
//! config_hash  u64       FNV-1a hash of the recording configuration
//! stream_count u32
//! per stream:
//!   name_len   u16
//!   name       name_len bytes of UTF-8
//!   records    u64       record count
//!   per record:
//!     tag_ns   u64       boundary timestamp (simulated nanoseconds)
//!     len      u32       payload length
//!     payload  len bytes (opaque to the container)
//! ```
//!
//! Versioning policy: the schema version is bumped on any layout
//! change; decoders reject unknown versions rather than guessing
//! (replay correctness beats forward compatibility — a trace is a
//! *measurement*, not a document). The prelude, the stream names, the
//! counted lists and the exact-length check are [`crate::codec`]'s
//! steps, shared with the `ILXC` checkpoint, and every failure is a
//! [`DecodeError`].

use crate::codec::{ByteReader, ByteWriter, DecodeError};
use crate::hash::fnv1a;

/// File magic: "ILXT" (ILLIXR Trace).
const MAGIC: [u8; 4] = *b"ILXT";

/// Current container schema version. Bump on any layout change.
pub const SCHEMA_VERSION: u32 = 1;

/// Identity of a recorded run: enough to tell at replay time whether
/// the trace plausibly matches the configuration it is fed into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceHeader {
    pub schema_version: u32,
    /// Seed of the recorded run (drives world/trajectory regeneration
    /// at replay time).
    pub seed: u64,
    /// Hash of the recording-side configuration, for provenance and
    /// mismatch warnings.
    pub config_hash: u64,
}

impl TraceHeader {
    /// What [`config_hash`](Self::config_hash) holds: [`fnv1a`] over the
    /// text a configuration formats its recording-relevant fields into.
    pub fn hash_config(repr: &str) -> u64 {
        fnv1a(repr.bytes())
    }
}

/// One boundary event: a tagged opaque payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    /// Simulated-time nanosecond tag at which the input crossed the
    /// boundary.
    pub tag_ns: u64,
    /// Payload bytes; the codec lives with the type that owns the
    /// stream, not with the container.
    pub payload: Vec<u8>,
}

/// A decoded (or snapshot) trace: header plus per-stream record lists.
///
/// Streams keep their first-record order, and records within a stream
/// keep recording order — both are part of the format's determinism
/// contract (re-encoding a decoded trace is byte-identical).
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    pub header: TraceHeader,
    pub streams: Vec<(String, Vec<TraceRecord>)>,
}

impl Trace {
    /// An empty trace with the given identity.
    pub fn new(seed: u64, config_hash: u64) -> Self {
        Self {
            header: TraceHeader { schema_version: SCHEMA_VERSION, seed, config_hash },
            streams: Vec::new(),
        }
    }

    /// Records of one stream, if present.
    pub fn stream(&self, name: &str) -> Option<&[TraceRecord]> {
        self.streams.iter().find(|(n, _)| n == name).map(|(_, r)| r.as_slice())
    }

    /// Total record count across all streams.
    pub fn record_count(&self) -> usize {
        self.streams.iter().map(|(_, r)| r.len()).sum()
    }

    /// Serialize to the container layout documented at module level.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_bytes(&MAGIC);
        w.put_u32(self.header.schema_version);
        w.put_u64(self.header.seed);
        w.put_u64(self.header.config_hash);
        w.put_u32(self.streams.len() as u32);
        for (name, records) in &self.streams {
            w.put_name(name);
            w.put_u64(records.len() as u64);
            for rec in records {
                w.put_u64(rec.tag_ns);
                w.put_u32(rec.payload.len() as u32);
                w.put_bytes(&rec.payload);
            }
        }
        w.into_bytes()
    }

    /// Strict decode: magic, version, structure and exact length are
    /// all enforced.
    pub fn decode(bytes: &[u8]) -> Result<Self, DecodeError> {
        let mut r = ByteReader::new(bytes);
        r.take_prelude(MAGIC, SCHEMA_VERSION)?;
        let seed = r.take_u64()?;
        let config_hash = r.take_u64()?;
        let stream_count = r.take_u32()? as usize;
        let streams = r.take_list(stream_count, |r, index| {
            let name = r.take_name(index)?;
            let record_count = r.take_u64()? as usize;
            let records = r.take_list(record_count, |r, _| {
                let tag_ns = r.take_u64()?;
                let len = r.take_u32()? as usize;
                Ok(TraceRecord { tag_ns, payload: r.take_bytes(len)?.to_vec() })
            })?;
            Ok((name, records))
        })?;
        r.finish()?;
        Ok(Self {
            header: TraceHeader { schema_version: SCHEMA_VERSION, seed, config_hash },
            streams,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::Xoshiro256pp;

    fn sample() -> Trace {
        let mut t = Trace::new(42, TraceHeader::hash_config("seed=42|sessions=2"));
        t.streams.push((
            "imu".into(),
            vec![
                TraceRecord { tag_ns: 1_000, payload: vec![1, 2, 3] },
                TraceRecord { tag_ns: 3_000, payload: vec![] },
            ],
        ));
        t.streams
            .push(("camera".into(), vec![TraceRecord { tag_ns: 2_000, payload: vec![9; 80] }]));
        t
    }

    #[test]
    fn encode_decode_round_trips() {
        let t = sample();
        let bytes = t.encode();
        let back = Trace::decode(&bytes).unwrap();
        assert_eq!(back, t);
        // Re-encoding a decoded trace is byte-identical.
        assert_eq!(back.encode(), bytes);
        // Pinned across commits: a recording's config hash is checked at
        // replay time against the replaying configuration's.
        assert_eq!(back.header.config_hash, 0xf7ce_a3f2_f6cb_f86d);
    }

    // Arbitrary stream/record contents survive an encode→decode round trip
    // exactly, and the encoding is canonical.
    #[test]
    fn arbitrary_traces_round_trip() {
        let mut rng = Xoshiro256pp::new(1);
        for case in 0..64 {
            let mut trace = Trace::new(rng.next_u64(), rng.next_u64());
            for i in 0..rng.below(5) {
                let kind = rng.below(6);
                let records = (0..rng.below(8))
                    .map(|_| TraceRecord {
                        tag_ns: rng.next_u64(),
                        payload: (0..rng.below(32)).map(|_| rng.next_u64() as u8).collect(),
                    })
                    .collect();
                trace.streams.push((format!("s{i}/stream-{kind}"), records));
            }
            let bytes = trace.encode();
            let back = Trace::decode(&bytes).unwrap();
            assert_eq!(back, trace, "case {case}");
            assert_eq!(back.encode(), bytes, "case {case}");
        }
    }
}
