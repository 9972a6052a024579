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
//! *measurement*, not a document).

use std::fmt;

use crate::codec::{ByteReader, ByteWriter, CodecError};
use crate::hash::fnv1a;

/// File magic: "ILXT" (ILLIXR Trace).
pub(crate) const MAGIC: [u8; 4] = *b"ILXT";

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

/// Decode failure modes. Anything structurally suspect is rejected —
/// a trace that half-decodes would replay as a half-truth.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// The buffer does not start with the `ILXT` magic.
    BadMagic { found: [u8; 4] },
    /// Header version this decoder does not understand.
    UnsupportedVersion { found: u32, supported: u32 },
    /// The buffer ended mid-structure.
    Truncated(CodecError),
    /// A stream name was not valid UTF-8.
    BadStreamName { stream_index: usize },
    /// Bytes remained after the last declared record.
    TrailingBytes { remaining: usize },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::BadMagic { found } => {
                write!(f, "bad trace magic {found:?}, expected {MAGIC:?}")
            }
            TraceError::UnsupportedVersion { found, supported } => {
                write!(f, "unsupported trace schema version {found} (this build reads {supported})")
            }
            TraceError::Truncated(e) => write!(f, "truncated trace: {e}"),
            TraceError::BadStreamName { stream_index } => {
                write!(f, "stream {stream_index} has a non-UTF-8 name")
            }
            TraceError::TrailingBytes { remaining } => {
                write!(f, "{remaining} trailing bytes after the last record")
            }
        }
    }
}

impl std::error::Error for TraceError {}

impl From<CodecError> for TraceError {
    fn from(e: CodecError) -> Self {
        TraceError::Truncated(e)
    }
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
            w.put_u16(name.len() as u16);
            w.put_bytes(name.as_bytes());
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
    pub fn decode(bytes: &[u8]) -> Result<Self, TraceError> {
        let mut r = ByteReader::new(bytes);
        let magic: [u8; 4] = r.take_bytes(4)?.try_into().unwrap();
        if magic != MAGIC {
            return Err(TraceError::BadMagic { found: magic });
        }
        let schema_version = r.take_u32()?;
        if schema_version != SCHEMA_VERSION {
            return Err(TraceError::UnsupportedVersion {
                found: schema_version,
                supported: SCHEMA_VERSION,
            });
        }
        let seed = r.take_u64()?;
        let config_hash = r.take_u64()?;
        let stream_count = r.take_u32()? as usize;
        let mut streams = Vec::with_capacity(stream_count);
        for stream_index in 0..stream_count {
            let name_len = r.take_u16()? as usize;
            let name = std::str::from_utf8(r.take_bytes(name_len)?)
                .map_err(|_| TraceError::BadStreamName { stream_index })?
                .to_string();
            let record_count = r.take_u64()? as usize;
            // Capacity is clamped so a corrupt count cannot trigger a
            // huge allocation before the reads below catch it.
            let mut records = Vec::with_capacity(record_count.min(1 << 16));
            for _ in 0..record_count {
                let tag_ns = r.take_u64()?;
                let len = r.take_u32()? as usize;
                let payload = r.take_bytes(len)?.to_vec();
                records.push(TraceRecord { tag_ns, payload });
            }
            streams.push((name, records));
        }
        if !r.is_empty() {
            return Err(TraceError::TrailingBytes { remaining: r.remaining() });
        }
        Ok(Self { header: TraceHeader { schema_version, seed, config_hash }, streams })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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

    #[test]
    fn rejects_bad_magic() {
        let mut bytes = sample().encode();
        bytes[0] = b'X';
        assert!(matches!(Trace::decode(&bytes), Err(TraceError::BadMagic { .. })));
    }

    #[test]
    fn rejects_unsupported_version() {
        let mut bytes = sample().encode();
        bytes[4] = 0xFF;
        assert!(matches!(
            Trace::decode(&bytes),
            Err(TraceError::UnsupportedVersion { found, .. }) if found != SCHEMA_VERSION
        ));
    }

    #[test]
    fn rejects_every_truncation_point() {
        let bytes = sample().encode();
        for cut in 0..bytes.len() {
            let err = Trace::decode(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, TraceError::Truncated(_) | TraceError::BadMagic { .. }),
                "cut at {cut} gave {err:?}"
            );
        }
    }

    #[test]
    fn rejects_trailing_bytes() {
        let mut bytes = sample().encode();
        bytes.push(0);
        assert_eq!(Trace::decode(&bytes), Err(TraceError::TrailingBytes { remaining: 1 }));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        // Arbitrary stream/record contents survive an encode→decode
        // round trip exactly, and the encoding is canonical.
        #[test]
        fn arbitrary_traces_round_trip(
            seed in 0u64..u64::MAX,
            config_hash in 0u64..u64::MAX,
            streams in proptest::collection::vec(
                (
                    0usize..6,
                    proptest::collection::vec(
                        (0u64..u64::MAX, proptest::collection::vec(0u8..u8::MAX, 0..32)),
                        0..8,
                    ),
                ),
                0..5,
            ),
        ) {
            let trace = Trace {
                header: TraceHeader { schema_version: SCHEMA_VERSION, seed, config_hash },
                streams: streams
                    .into_iter()
                    .enumerate()
                    .map(|(i, (kind, recs))| {
                        (
                            format!("s{i}/stream-{kind}"),
                            recs.into_iter()
                                .map(|(tag_ns, payload)| TraceRecord { tag_ns, payload })
                                .collect(),
                        )
                    })
                    .collect(),
            };
            let bytes = trace.encode();
            let back = Trace::decode(&bytes).unwrap();
            prop_assert_eq!(&back, &trace);
            prop_assert_eq!(back.encode(), bytes);
        }
    }
}
