//! Boundary payload codecs for the sensor streams.
//!
//! The determinism boundary records the *physical input*, which for
//! sensors is smaller than the published value: an IMU record is the
//! post-fault measurement (56 bytes), and a camera record is the head
//! pose the frame was rendered from (80 bytes) — the frame image is a
//! pure function of `(world(seed), rig, pose)`, so replay republishes
//! the view ([`CameraFrame`](crate::types::CameraFrame)) instead of
//! storing ~600 kB of pixels per frame.
//!
//! Timestamps are stored as signed deltas from the record tag (the
//! boundary-crossing time): a replay transform that dilates tags scales
//! the deltas by the same factor, so payload timestamps keep tracking
//! delivery times and derived metrics (pose age, motion-to-photon)
//! stay meaningful in fanned-out sessions.
//!
//! [`CameraRecord`] and [`ImuSample`] are the sensors' [`Wire`] payloads:
//! `plugins.rs` crosses each with one
//! [`Boundary::cross`](illixr_core::boundary::Boundary::cross) per
//! iteration. The free `encode_*` / `decode_*` functions are the same
//! codecs for callers that hold a tag as a [`Time`].
//!
//! Decoding is strict and fails with `illixr-trace`'s one
//! [`DecodeError`]: a short or over-long payload is rejected. The
//! vector and pose layouts here are the only copies; the server's
//! session snapshot writes its poses with them too. They are
//! `#[inline]` because that codec calls them from another crate once
//! per vector.

use illixr_core::boundary::{ByteReader, ByteWriter, DecodeError, SessionTransform, Wire};
use illixr_core::Time;
use illixr_math::{Pose, Quat, Vec3};

use crate::types::ImuSample;

/// The boundary-side content of one camera frame: everything needed to
/// re-publish it, and for a reader to render it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CameraRecord {
    /// Published frame timestamp (stale inside a freeze window).
    pub timestamp: Time,
    /// Published sequence number.
    pub seq: u64,
    /// Iteration work factor (1.0 fresh, 0.1 frozen).
    pub work_factor: f64,
    /// Head pose the frame content was rendered from.
    pub pose: Pose,
}

/// Apply a (possibly dilated) signed delta to a transformed tag,
/// saturating at zero.
fn tag_plus_delta(tag_ns: u64, delta_ns: i64) -> Time {
    Time::from_nanos((tag_ns as i128 + delta_ns as i128).max(0) as u64)
}

/// A vector as three `f64` bit patterns, x y z.
#[inline]
pub fn put_vec3(w: &mut ByteWriter, v: Vec3) {
    w.put_f64(v.x);
    w.put_f64(v.y);
    w.put_f64(v.z);
}

#[inline]
pub fn take_vec3(r: &mut ByteReader) -> Result<Vec3, DecodeError> {
    Ok(Vec3::new(r.take_f64()?, r.take_f64()?, r.take_f64()?))
}

/// A pose as its position, then its quaternion w x y z.
#[inline]
pub fn put_pose(w: &mut ByteWriter, p: &Pose) {
    put_vec3(w, p.position);
    w.put_f64(p.orientation.w);
    w.put_f64(p.orientation.x);
    w.put_f64(p.orientation.y);
    w.put_f64(p.orientation.z);
}

/// The stored quaternion is taken as is: `Pose::new` would re-normalize,
/// which is not idempotent to the last ulp and would break the bit-exact
/// round trip.
#[inline]
pub fn take_pose(r: &mut ByteReader) -> Result<Pose, DecodeError> {
    let position = take_vec3(r)?;
    let orientation = Quat::new(r.take_f64()?, r.take_f64()?, r.take_f64()?, r.take_f64()?);
    Ok(Pose { position, orientation })
}

/// Timestamp as a delta from the tag, then sequence number, work factor
/// and pose: 80 bytes.
impl Wire for CameraRecord {
    fn put(&self, w: &mut ByteWriter, tag_ns: u64) {
        w.put_i64(self.timestamp.as_nanos() as i64 - tag_ns as i64);
        w.put_u64(self.seq);
        w.put_f64(self.work_factor);
        put_pose(w, &self.pose);
    }

    fn take(r: &mut ByteReader, tag_ns: u64, t: &SessionTransform) -> Result<Self, DecodeError> {
        let delta = t.scale_delta(r.take_i64()?);
        let seq = r.take_u64()?;
        let work_factor = r.take_f64()?;
        let pose = take_pose(r)?;
        Ok(CameraRecord { timestamp: tag_plus_delta(tag_ns, delta), seq, work_factor, pose })
    }
}

/// Timestamp as a delta from the tag, then gyro and accel: 56 bytes.
impl Wire for ImuSample {
    fn put(&self, w: &mut ByteWriter, tag_ns: u64) {
        w.put_i64(self.timestamp.as_nanos() as i64 - tag_ns as i64);
        put_vec3(w, self.gyro);
        put_vec3(w, self.accel);
    }

    fn take(r: &mut ByteReader, tag_ns: u64, t: &SessionTransform) -> Result<Self, DecodeError> {
        let delta = t.scale_delta(r.take_i64()?);
        let gyro = take_vec3(r)?;
        let accel = take_vec3(r)?;
        Ok(ImuSample { timestamp: tag_plus_delta(tag_ns, delta), gyro, accel })
    }
}

/// Encode a camera record tagged at boundary time `tag`.
pub fn encode_camera(rec: &CameraRecord, tag: Time) -> Vec<u8> {
    rec.encode(tag.as_nanos())
}

/// Decode a camera record popped at (already transformed) tag
/// `tag_ns`, scaling its timestamp delta by `transform`.
pub fn decode_camera(
    payload: &[u8],
    tag_ns: u64,
    transform: &SessionTransform,
) -> Result<CameraRecord, DecodeError> {
    CameraRecord::decode(payload, tag_ns, transform)
}

/// Encode a post-fault IMU sample tagged at boundary time `tag`.
pub fn encode_imu(sample: &ImuSample, tag: Time) -> Vec<u8> {
    sample.encode(tag.as_nanos())
}

/// Decode an IMU sample popped at (already transformed) tag `tag_ns`.
pub fn decode_imu(
    payload: &[u8],
    tag_ns: u64,
    transform: &SessionTransform,
) -> Result<ImuSample, DecodeError> {
    ImuSample::decode(payload, tag_ns, transform)
}

#[cfg(test)]
mod tests {
    use super::*;

    const ID: SessionTransform = SessionTransform::IDENTITY;

    #[test]
    fn camera_record_round_trips_bit_exactly() {
        let rec = CameraRecord {
            timestamp: Time::from_nanos(66_000_123),
            seq: 42,
            work_factor: 0.1,
            pose: Pose::new(Vec3::new(1.5, -2.25, 0.125), Quat::new(0.7072, 0.0, -0.7072, 1e-17)),
        };
        let tag = Time::from_nanos(67_000_000);
        let bytes = encode_camera(&rec, tag);
        assert_eq!(bytes.len(), 80);
        let back = decode_camera(&bytes, tag.as_nanos(), &ID).unwrap();
        assert_eq!(back, rec);
    }

    #[test]
    fn imu_sample_round_trips_bit_exactly() {
        let s = ImuSample {
            timestamp: Time::from_nanos(2_000_000),
            gyro: Vec3::new(0.01, -0.02, 0.03),
            accel: Vec3::new(-9.81, 0.001, 1e-300),
        };
        let tag = Time::from_nanos(2_000_000);
        let bytes = encode_imu(&s, tag);
        assert_eq!(bytes.len(), 56);
        assert_eq!(decode_imu(&bytes, tag.as_nanos(), &ID).unwrap(), s);
    }

    #[test]
    fn dilation_scales_timestamp_deltas() {
        let s = ImuSample { timestamp: Time::from_nanos(900), gyro: Vec3::ZERO, accel: Vec3::ZERO };
        let bytes = encode_imu(&s, Time::from_nanos(1_000)); // delta −100
        let t = SessionTransform { offset_ns: 0, dilation: 2.0 };
        // Popped at transformed tag 2_000: timestamp = 2_000 + 2·(−100).
        let back = decode_imu(&bytes, 2_000, &t).unwrap();
        assert_eq!(back.timestamp, Time::from_nanos(1_800));
    }

    #[test]
    fn truncated_and_overlong_payloads_are_rejected() {
        let s = ImuSample { timestamp: Time::ZERO, gyro: Vec3::ZERO, accel: Vec3::ZERO };
        let bytes = encode_imu(&s, Time::ZERO);
        assert_eq!(
            decode_imu(&bytes[..55], 0, &ID),
            Err(DecodeError::Truncated { offset: 48, needed: 8, remaining: 7 })
        );
        assert_eq!(
            decode_camera(&bytes, 0, &ID),
            Err(DecodeError::Truncated { offset: 56, needed: 8, remaining: 0 })
        );
        let mut long = bytes.clone();
        long.push(0);
        assert_eq!(decode_imu(&long, 0, &ID), Err(DecodeError::TrailingBytes { remaining: 1 }));
    }
}
