//! Bounds-checked little-endian byte codec primitives.
//!
//! The trace container and every payload codec (IMU samples, camera
//! records, link deliveries) are built from these two types. All reads
//! are checked: a truncated or corrupt buffer surfaces as a
//! [`CodecError`] carrying the offending offset, never a panic or a
//! silently short value.

use std::fmt;

/// A failed decode: the reader ran past the end of the buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CodecError {
    /// Byte offset at which the read was attempted.
    pub offset: usize,
    /// Number of bytes the read needed.
    pub needed: usize,
    /// Number of bytes actually remaining.
    pub remaining: usize,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "truncated buffer: needed {} bytes at offset {}, only {} remaining",
            self.needed, self.offset, self.remaining
        )
    }
}

impl std::error::Error for CodecError {}

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

    pub(crate) fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    pub fn put_u16(&mut self, v: u16) {
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

    /// Current cursor offset from the start of the buffer.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bytes left between the cursor and the end of the buffer.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    pub(crate) fn take_bytes(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError { offset: self.pos, needed: n, remaining: self.remaining() });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    pub fn take_u16(&mut self) -> Result<u16, CodecError> {
        Ok(u16::from_le_bytes(self.take_bytes(2)?.try_into().unwrap()))
    }

    pub fn take_u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take_bytes(4)?.try_into().unwrap()))
    }

    pub fn take_u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take_bytes(8)?.try_into().unwrap()))
    }

    pub fn take_i64(&mut self) -> Result<i64, CodecError> {
        Ok(i64::from_le_bytes(self.take_bytes(8)?.try_into().unwrap()))
    }

    pub fn take_f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.take_u64()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_every_primitive() {
        let mut w = ByteWriter::new();
        w.put_u16(0xBEEF);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 7);
        w.put_i64(-42);
        w.put_f64(-0.125);
        w.put_f64(f64::NAN);
        w.put_bytes(b"tail");
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.take_u16().unwrap(), 0xBEEF);
        assert_eq!(r.take_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.take_u64().unwrap(), u64::MAX - 7);
        assert_eq!(r.take_i64().unwrap(), -42);
        assert_eq!(r.take_f64().unwrap(), -0.125);
        assert!(r.take_f64().unwrap().is_nan());
        assert_eq!(r.take_bytes(4).unwrap(), b"tail");
        assert!(r.is_empty());
    }

    #[test]
    fn truncated_read_reports_offset_and_need() {
        let bytes = [1u8, 2, 3];
        let mut r = ByteReader::new(&bytes);
        r.take_u16().unwrap();
        let err = r.take_u64().unwrap_err();
        assert_eq!(err, CodecError { offset: 2, needed: 8, remaining: 1 });
        assert!(err.to_string().contains("offset 2"));
    }
}
