//! The one strict decoder: bounds-checked little-endian primitives and
//! the rules every byte format in the repository shares.
//!
//! The `ILXT` trace, the `ILXC` checkpoint, the server's session
//! snapshot and the boundary payloads (each a [`Wire`] type) are all
//! built from [`ByteWriter`] and [`ByteReader`], and all fail with
//! [`DecodeError`]. Besides the fixed-width reads, the
//! reader owns the steps the formats would otherwise each repeat: the
//! magic-and-version prelude, a u16-length UTF-8 name, a 0/1 presence
//! tag, a counted list whose capacity a corrupt count cannot inflate,
//! and [`finish`](ByteReader::finish), which rejects leftover bytes.
//! Every read is checked: corrupt bytes surface as a typed error with
//! the offending offset, never a panic or a silently short value.

use std::fmt;

use crate::transform::SessionTransform;

/// Why a strict decode rejected its input. Anything structurally
/// suspect is an error: a record that half-decodes would replay or
/// restore a half-truth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer ended mid-structure.
    Truncated { offset: usize, needed: usize, remaining: usize },
    /// The buffer does not start with the container's magic.
    BadMagic { found: [u8; 4], expected: [u8; 4] },
    /// A schema version this decoder does not understand.
    UnsupportedVersion { found: u32, supported: u32 },
    /// The `index`-th name (a stream or entry name, or a label payload)
    /// is not UTF-8, or not a name this decoder knows.
    BadName { index: usize },
    /// A presence tag other than 0 or 1.
    BadTag { offset: usize, found: u16 },
    /// Bytes remained after the last declared field.
    TrailingBytes { remaining: usize },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            DecodeError::Truncated { offset, needed, remaining } => {
                write!(f, "truncated: needed {needed} bytes at offset {offset}, {remaining} left")
            }
            DecodeError::BadMagic { found, expected } => {
                write!(f, "bad magic {found:?}, expected {expected:?}")
            }
            DecodeError::UnsupportedVersion { found, supported } => {
                write!(f, "unsupported schema version {found} (this build reads {supported})")
            }
            DecodeError::BadName { index } => write!(f, "name {index} is not UTF-8 or not known"),
            DecodeError::BadTag { offset, found } => {
                write!(f, "presence tag {found} at offset {offset} is neither 0 nor 1")
            }
            DecodeError::TrailingBytes { remaining } => {
                write!(f, "{remaining} trailing bytes after the last field")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// A boundary payload: the bytes one physical input leaves in a trace
/// record. `put` writes a value recorded at `tag_ns`; `take` reads one
/// back at the (transformed) tag it replays at, scaling any stored time
/// delta by `t`, and reads exactly its own fields.
pub trait Wire: Sized {
    fn put(&self, w: &mut ByteWriter, tag_ns: u64);
    fn take(r: &mut ByteReader, tag_ns: u64, t: &SessionTransform) -> Result<Self, DecodeError>;

    /// The payload of `self` recorded at `tag_ns`.
    fn encode(&self, tag_ns: u64) -> Vec<u8> {
        let mut w = ByteWriter::new();
        self.put(&mut w, tag_ns);
        w.into_bytes()
    }

    /// A whole payload, strictly: `take`, then no byte may remain.
    fn decode(payload: &[u8], tag_ns: u64, t: &SessionTransform) -> Result<Self, DecodeError> {
        let mut r = ByteReader::new(payload);
        let value = Self::take(&mut r, tag_ns, t)?;
        r.finish().map(|()| value)
    }
}

/// The empty payload: a scheduled crash is all tag.
impl Wire for () {
    fn put(&self, _: &mut ByteWriter, _: u64) {}
    fn take(_: &mut ByteReader, _: u64, _: &SessionTransform) -> Result<(), DecodeError> {
        Ok(())
    }
}

/// A replayed record a crossing could not use: `stream` as the trace
/// names it (session prefix included), `tag_ns` in the replaying
/// session's timeline (the record's transformed tag or, when missing,
/// the crossing time). The replay goes on: that crossing generates its
/// input live, and the run reports the first such error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayError {
    pub stream: String,
    pub tag_ns: u64,
    pub cause: ReplayCause,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplayCause {
    /// The payload did not decode as the site's [`Wire`] type.
    Corrupt(DecodeError),
    /// The site takes exactly one record and none was due.
    Missing,
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ReplayError { stream, tag_ns, cause } = self;
        match cause {
            ReplayCause::Corrupt(e) => write!(f, "corrupt {stream} record at {tag_ns} ns: {e}"),
            ReplayCause::Missing => write!(f, "no {stream} record due at {tag_ns} ns"),
        }
    }
}

impl std::error::Error for ReplayError {}

/// Append-only little-endian writer over a growable byte vector.
#[derive(Debug, Default, Clone)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    pub(crate) fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Floats are serialized via their IEEE-754 bit pattern so a
    /// round-trip is exact for every value, including NaNs.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// A u16 length, then the name's UTF-8 bytes.
    pub(crate) fn put_name(&mut self, name: &str) {
        self.put_u16(name.len() as u16);
        self.put_bytes(name.as_bytes());
    }

    /// A presence tag: u16 1 or 0.
    pub fn put_tag(&mut self, present: bool) {
        self.put_u16(present as u16);
    }
}

/// Checked little-endian cursor over a borrowed byte slice.
#[derive(Debug, Clone, Copy)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub(crate) fn take_bytes(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let remaining = self.remaining();
        if remaining < n {
            return Err(DecodeError::Truncated { offset: self.pos, needed: n, remaining });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Everything left: a payload's last, unprefixed field.
    pub fn take_rest(&mut self) -> &'a [u8] {
        let rest = &self.buf[self.pos..];
        self.pos = self.buf.len();
        rest
    }

    pub(crate) fn take_u16(&mut self) -> Result<u16, DecodeError> {
        Ok(u16::from_le_bytes(self.take_bytes(2)?.try_into().unwrap()))
    }

    pub fn take_u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.take_bytes(4)?.try_into().unwrap()))
    }

    pub fn take_u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.take_bytes(8)?.try_into().unwrap()))
    }

    pub fn take_i64(&mut self) -> Result<i64, DecodeError> {
        Ok(i64::from_le_bytes(self.take_bytes(8)?.try_into().unwrap()))
    }

    pub fn take_f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_bits(self.take_u64()?))
    }

    /// A container's prelude: exactly `magic`, then exactly `version`
    /// as a u32. Readers reject versions they do not know rather than
    /// guess.
    pub(crate) fn take_prelude(&mut self, magic: [u8; 4], version: u32) -> Result<(), DecodeError> {
        let found: [u8; 4] = self.take_bytes(4)?.try_into().unwrap();
        if found != magic {
            return Err(DecodeError::BadMagic { found, expected: magic });
        }
        match self.take_u32()? {
            v if v == version => Ok(()),
            found => Err(DecodeError::UnsupportedVersion { found, supported: version }),
        }
    }

    /// What [`ByteWriter::put_name`] wrote; `index` names the item in
    /// the error.
    pub(crate) fn take_name(&mut self, index: usize) -> Result<String, DecodeError> {
        let len = self.take_u16()? as usize;
        let bytes = self.take_bytes(len)?;
        Ok(std::str::from_utf8(bytes).map_err(|_| DecodeError::BadName { index })?.to_owned())
    }

    /// What [`ByteWriter::put_tag`] wrote. Any value but 0 and 1 is
    /// rejected, so a decoded tag re-encodes to its own bytes.
    pub fn take_tag(&mut self) -> Result<bool, DecodeError> {
        let offset = self.pos;
        match self.take_u16()? {
            0 => Ok(false),
            1 => Ok(true),
            found => Err(DecodeError::BadTag { offset, found }),
        }
    }

    /// `count` items read by `item`, which is handed each item's index.
    /// Every item is at least one byte, so the capacity is clamped to
    /// what is left: a corrupt count cannot allocate before the reads
    /// catch it.
    pub fn take_list<T>(
        &mut self,
        count: usize,
        mut item: impl FnMut(&mut Self, usize) -> Result<T, DecodeError>,
    ) -> Result<Vec<T>, DecodeError> {
        let mut out = Vec::with_capacity(count.min(self.remaining()));
        for index in 0..count {
            out.push(item(self, index)?);
        }
        Ok(out)
    }

    /// Ends a strict decode: the buffer must be used up exactly.
    pub fn finish(self) -> Result<(), DecodeError> {
        match self.remaining() {
            0 => Ok(()),
            remaining => Err(DecodeError::TrailingBytes { remaining }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::{Checkpoint, CHECKPOINT_SCHEMA_VERSION};
    use crate::format::{Trace, TraceRecord, SCHEMA_VERSION};

    #[test]
    fn round_trips_every_primitive() {
        let mut w = ByteWriter::new();
        w.put_u16(0xBEEF);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 7);
        w.put_i64(-42);
        w.put_f64(-0.125);
        w.put_f64(f64::NAN);
        w.put_name("imu");
        w.put_tag(true);
        w.put_tag(false);
        w.put_bytes(b"tail");
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.take_u16().unwrap(), 0xBEEF);
        assert_eq!(r.take_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.take_u64().unwrap(), u64::MAX - 7);
        assert_eq!(r.take_i64().unwrap(), -42);
        assert_eq!(r.take_f64().unwrap(), -0.125);
        assert!(r.take_f64().unwrap().is_nan());
        assert_eq!(r.take_name(0).unwrap(), "imu");
        assert!(r.take_tag().unwrap());
        assert!(!r.take_tag().unwrap());
        assert_eq!(r.take_rest(), b"tail");
        assert_eq!(r.take_rest(), b"");
        r.finish().unwrap();
    }

    #[test]
    fn truncated_read_reports_offset_and_need() {
        let bytes = [1u8, 2, 3];
        let mut r = ByteReader::new(&bytes);
        r.take_u16().unwrap();
        let err = r.take_u64().unwrap_err();
        assert_eq!(err, DecodeError::Truncated { offset: 2, needed: 8, remaining: 1 });
        assert!(err.to_string().contains("offset 2"));
    }

    #[test]
    fn presence_tags_other_than_zero_and_one_are_rejected() {
        for found in [2u16, 0x100, u16::MAX] {
            let bytes = [0, 0, 1, 0].into_iter().chain(found.to_le_bytes()).collect::<Vec<_>>();
            let mut r = ByteReader::new(&bytes);
            assert_eq!(r.take_tag(), Ok(false));
            assert_eq!(r.take_tag(), Ok(true));
            assert_eq!(r.take_tag(), Err(DecodeError::BadTag { offset: 4, found }));
        }
    }

    /// Both containers through one table: a foreign magic, an unknown
    /// version, a cut at every byte, a non-UTF-8 name and a trailing byte.
    #[test]
    fn containers_reject_every_malformation_with_a_typed_error() {
        let mut trace = Trace::new(42, 0xF00D);
        trace.streams.push((
            "imu".into(),
            vec![
                TraceRecord { tag_ns: 1_000, payload: vec![1, 2, 3] },
                TraceRecord { tag_ns: 3_000, payload: vec![] },
            ],
        ));
        trace
            .streams
            .push(("camera".into(), vec![TraceRecord { tag_ns: 2_000, payload: vec![9; 80] }]));
        let mut checkpoint = Checkpoint::new(42, 0xABCD, 2_000_000_000);
        checkpoint.entries.push(("s0/session".into(), vec![1, 2, 3, 4]));
        checkpoint.entries.push(("s1/session".into(), vec![]));
        // Encoded sample, magic, version, offset of the first name's first
        // byte, decoder.
        type Row = (Vec<u8>, [u8; 4], u32, usize, fn(&[u8]) -> Result<(), DecodeError>);
        let table: [Row; 2] = [
            (trace.encode(), *b"ILXT", SCHEMA_VERSION, 30, |b| Trace::decode(b).map(drop)),
            (checkpoint.encode(), *b"ILXC", CHECKPOINT_SCHEMA_VERSION, 38, |b| {
                Checkpoint::decode(b).map(drop)
            }),
        ];
        for (bytes, magic, version, first_name_at, decode) in table {
            decode(&bytes).unwrap();
            let mut bad = bytes.clone();
            bad[0] = b'X';
            let found = [b'X', magic[1], magic[2], magic[3]];
            assert_eq!(decode(&bad), Err(DecodeError::BadMagic { found, expected: magic }));
            let mut bad = bytes.clone();
            bad[4] = 0xFF;
            let found = version | 0xFF;
            assert_eq!(
                decode(&bad),
                Err(DecodeError::UnsupportedVersion { found, supported: version })
            );
            for cut in 0..bytes.len() {
                let err = decode(&bytes[..cut]).unwrap_err();
                assert!(matches!(err, DecodeError::Truncated { .. }), "cut at {cut} gave {err:?}");
            }
            let mut bad = bytes.clone();
            bad[first_name_at] = 0xFF;
            assert_eq!(decode(&bad), Err(DecodeError::BadName { index: 0 }));
            let mut bad = bytes;
            bad.push(0);
            assert_eq!(decode(&bad), Err(DecodeError::TrailingBytes { remaining: 1 }));
        }
    }
}
