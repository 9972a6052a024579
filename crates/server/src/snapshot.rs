//! The session-state snapshot payload: what one `ClientSession` is,
//! frozen at a checkpoint epoch.
//!
//! The `ILXC` container (`illixr_trace::checkpoint`) owns identity and
//! framing; this module owns the payload codec for one session entry —
//! the state-machine fields, the sensor/integrator plugin internals
//! that cannot be re-derived cheaply, and the run counters. Every
//! field round-trips exactly (floats travel as IEEE-754 bit patterns),
//! so encode→decode→encode is byte-identical — the property the
//! checkpoint fixture test pins. The reverse holds too: the decode is
//! `illixr-trace`'s strict one (a presence tag is 0 or 1, no byte is
//! left over, every failure a `DecodeError`), so bytes that decode
//! re-encode to themselves. Vectors and poses use the sensor wire
//! codec's layout (`illixr_sensors::wire`), the only copy.
//!
//! What is *not* here is as deliberate as what is: the camera's last
//! frame is stored as `(timestamp, seq)` and its view rebuilt from the
//! trajectory at restore (frame content is a pure function of pose, and
//! nothing is rendered unless a freeze window's repeat is read);
//! the IMU model is fast-forwarded by `imu_iterations` rather than
//! serializing its RNG; switchboard topics are re-seeded from the
//! snapshotted latest values. Restore is therefore a *reconstruction*
//! that is provably bit-equal in every observable the engine reads. The
//! per-frame MTP log is history the client measures, not state: it stays
//! with the session, so a snapshot's size does not grow with run time.

use illixr_core::boundary::{ByteReader, ByteWriter, DecodeError};
use illixr_core::Time;
use illixr_sensors::types::{ImuSample, PoseEstimate};
use illixr_sensors::wire::{put_pose, put_vec3, take_pose, take_vec3};
use illixr_vio::integrator::ImuState;

use crate::session::{RenderToken, SessionTelemetry};

/// A full deterministic snapshot of one client session.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionSnapshot {
    /// Whether the session was admitted at degraded rates.
    pub degraded: bool,
    /// Total IMU plugin iterations so far (connect burn included) —
    /// the model fast-forward count at restore.
    pub imu_iterations: u64,
    /// Camera plugin sequence counter.
    pub camera_seq: u64,
    /// `(timestamp, seq)` of the camera's last fresh frame, if any.
    pub last_cam: Option<(Time, u64)>,
    /// Integrator propagation state.
    pub integrator_state: ImuState,
    /// Integrator IMU history (left endpoint of the next propagation).
    pub integrator_history: Vec<ImuSample>,
    /// Integrator re-anchor watermark.
    pub anchor_timestamp: Time,
    /// IMU window accumulating toward the next VIO job.
    pub imu_window: Vec<ImuSample>,
    /// Latest published fast pose, re-seeded into the topic at restore.
    pub fast_pose: Option<PoseEstimate>,
    /// Latest delivered slow pose, re-seeded so a delivered-but-not-yet
    /// anchored estimate survives the restore.
    pub last_slow_pose: Option<PoseEstimate>,
    /// Newest undisplayed render token and its client arrival time.
    pub latest_token: Option<(RenderToken, Time)>,
    /// Sequence of the newest displayed token.
    pub displayed_seq: Option<u64>,
    /// Next render-request sequence number.
    pub request_seq: u64,
    /// Vsyncs seen so far (drives the degraded every-other cadence).
    pub vsync_index: u64,
    /// Run counters at the snapshot instant (the per-frame log is empty;
    /// `frames_displayed` is the length the session's log had then).
    pub telemetry: SessionTelemetry,
}

fn put_estimate(w: &mut ByteWriter, e: &PoseEstimate) {
    w.put_u64(e.timestamp.as_nanos());
    put_pose(w, &e.pose);
    put_vec3(w, e.velocity);
}

fn take_estimate(r: &mut ByteReader) -> Result<PoseEstimate, DecodeError> {
    Ok(PoseEstimate {
        timestamp: Time::from_nanos(r.take_u64()?),
        pose: take_pose(r)?,
        velocity: take_vec3(r)?,
    })
}

fn put_sample(w: &mut ByteWriter, s: &ImuSample) {
    w.put_u64(s.timestamp.as_nanos());
    put_vec3(w, s.gyro);
    put_vec3(w, s.accel);
}

fn take_sample(r: &mut ByteReader, _: usize) -> Result<ImuSample, DecodeError> {
    Ok(ImuSample {
        timestamp: Time::from_nanos(r.take_u64()?),
        gyro: take_vec3(r)?,
        accel: take_vec3(r)?,
    })
}

/// A presence tag, then the value if there is one.
fn put_opt<T>(w: &mut ByteWriter, v: &Option<T>, put: impl FnOnce(&mut ByteWriter, &T)) {
    match v {
        Some(v) => {
            w.put_tag(true);
            put(w, v);
        }
        None => w.put_tag(false),
    }
}

fn take_opt<T>(
    r: &mut ByteReader,
    take: impl FnOnce(&mut ByteReader) -> Result<T, DecodeError>,
) -> Result<Option<T>, DecodeError> {
    Ok(if r.take_tag()? { Some(take(r)?) } else { None })
}

/// A u32 count, then each item.
fn put_list<T>(w: &mut ByteWriter, items: &[T], mut put: impl FnMut(&mut ByteWriter, &T)) {
    w.put_u32(items.len() as u32);
    for item in items {
        put(w, item);
    }
}

fn take_list<T>(
    r: &mut ByteReader,
    take: impl FnMut(&mut ByteReader, usize) -> Result<T, DecodeError>,
) -> Result<Vec<T>, DecodeError> {
    let count = r.take_u32()? as usize;
    r.take_list(count, take)
}

impl SessionSnapshot {
    /// Serializes to the opaque entry payload stored in an `ILXC`
    /// checkpoint.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_tag(self.degraded);
        w.put_u64(self.imu_iterations);
        w.put_u64(self.camera_seq);
        put_opt(&mut w, &self.last_cam, |w, &(t, seq)| {
            w.put_u64(t.as_nanos());
            w.put_u64(seq);
        });
        // Integrator.
        w.put_u64(self.integrator_state.timestamp.as_nanos());
        put_pose(&mut w, &self.integrator_state.pose);
        put_vec3(&mut w, self.integrator_state.velocity);
        put_vec3(&mut w, self.integrator_state.gyro_bias);
        put_vec3(&mut w, self.integrator_state.accel_bias);
        put_list(&mut w, &self.integrator_history, put_sample);
        w.put_u64(self.anchor_timestamp.as_nanos());
        put_list(&mut w, &self.imu_window, put_sample);
        put_opt(&mut w, &self.fast_pose, put_estimate);
        put_opt(&mut w, &self.last_slow_pose, put_estimate);
        put_opt(&mut w, &self.latest_token, |w, (token, arrived)| {
            w.put_u64(token.seq);
            w.put_u64(token.pose_timestamp.as_nanos());
            w.put_u64(token.requested_at.as_nanos());
            w.put_u64(arrived.as_nanos());
        });
        put_opt(&mut w, &self.displayed_seq, |w, &seq| w.put_u64(seq));
        w.put_u64(self.request_seq);
        w.put_u64(self.vsync_index);
        let t = &self.telemetry;
        w.put_u64(t.frames_displayed);
        w.put_u64(t.frames_dropped);
        w.put_u64(t.vio_jobs);
        w.put_u64(t.poses_received);
        w.put_u64(t.tokens_received);
        w.put_u64(t.requests_sent);
        w.into_bytes()
    }

    /// Strict decode of an entry payload: presence tags other than 0
    /// and 1 and trailing bytes are rejected, so a payload that decodes
    /// re-encodes to exactly its own bytes.
    pub fn decode(bytes: &[u8]) -> Result<Self, DecodeError> {
        let mut r = ByteReader::new(bytes);
        // A struct literal evaluates its fields in the order written:
        // here, the wire order.
        let snap = Self {
            degraded: r.take_tag()?,
            imu_iterations: r.take_u64()?,
            camera_seq: r.take_u64()?,
            last_cam: take_opt(&mut r, |r| Ok((Time::from_nanos(r.take_u64()?), r.take_u64()?)))?,
            integrator_state: ImuState {
                timestamp: Time::from_nanos(r.take_u64()?),
                pose: take_pose(&mut r)?,
                velocity: take_vec3(&mut r)?,
                gyro_bias: take_vec3(&mut r)?,
                accel_bias: take_vec3(&mut r)?,
            },
            integrator_history: take_list(&mut r, take_sample)?,
            anchor_timestamp: Time::from_nanos(r.take_u64()?),
            imu_window: take_list(&mut r, take_sample)?,
            fast_pose: take_opt(&mut r, take_estimate)?,
            last_slow_pose: take_opt(&mut r, take_estimate)?,
            latest_token: take_opt(&mut r, |r| {
                let seq = r.take_u64()?;
                let pose_timestamp = Time::from_nanos(r.take_u64()?);
                let requested_at = Time::from_nanos(r.take_u64()?);
                let arrived = Time::from_nanos(r.take_u64()?);
                Ok((RenderToken { seq, pose_timestamp, requested_at }, arrived))
            })?,
            displayed_seq: take_opt(&mut r, |r| r.take_u64())?,
            request_seq: r.take_u64()?,
            vsync_index: r.take_u64()?,
            telemetry: SessionTelemetry {
                frames_displayed: r.take_u64()?,
                frames_dropped: r.take_u64()?,
                vio_jobs: r.take_u64()?,
                poses_received: r.take_u64()?,
                tokens_received: r.take_u64()?,
                requests_sent: r.take_u64()?,
                ..SessionTelemetry::default()
            },
        };
        r.finish()?;
        Ok(snap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use illixr_core::boundary::{fnv1a, Xoshiro256pp};
    use illixr_math::{Pose, Quat, Vec3};

    fn sample_snapshot() -> SessionSnapshot {
        let pose = Pose {
            position: Vec3::new(0.5, -1.25, 2.0),
            orientation: Quat { w: 0.9, x: 0.1, y: -0.2, z: 0.3 },
        };
        SessionSnapshot {
            degraded: true,
            imu_iterations: 1234,
            camera_seq: 37,
            last_cam: Some((Time::from_millis(2400), 36)),
            integrator_state: ImuState {
                timestamp: Time::from_millis(2398),
                pose,
                velocity: Vec3::new(0.1, 0.0, -0.1),
                gyro_bias: Vec3::new(1e-4, -1e-4, 0.0),
                accel_bias: Vec3::new(0.01, 0.02, -0.03),
            },
            integrator_history: vec![ImuSample {
                timestamp: Time::from_millis(2398),
                gyro: Vec3::new(0.01, 0.02, 0.03),
                accel: Vec3::new(0.0, 9.81, 0.0),
            }],
            anchor_timestamp: Time::from_millis(2333),
            imu_window: vec![
                ImuSample {
                    timestamp: Time::from_millis(2400),
                    gyro: Vec3::ZERO,
                    accel: Vec3::new(0.0, 9.81, 0.0),
                };
                3
            ],
            fast_pose: Some(PoseEstimate {
                timestamp: Time::from_millis(2398),
                pose,
                velocity: Vec3::new(0.1, 0.0, -0.1),
            }),
            last_slow_pose: None,
            latest_token: Some((
                RenderToken {
                    seq: 88,
                    pose_timestamp: Time::from_millis(2390),
                    requested_at: Time::from_millis(2392),
                },
                Time::from_millis(2395),
            )),
            displayed_seq: Some(87),
            request_seq: 90,
            vsync_index: 288,
            telemetry: SessionTelemetry {
                frames_displayed: 280,
                frames_dropped: 8,
                vio_jobs: 36,
                poses_received: 35,
                tokens_received: 88,
                requests_sent: 90,
                ..SessionTelemetry::default()
            },
        }
    }

    #[test]
    fn round_trips_and_is_canonical() {
        let snap = sample_snapshot();
        let bytes = snap.encode();
        let back = SessionSnapshot::decode(&bytes).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.encode(), bytes);
    }

    /// The checkpoint fixture's snapshot leaves some options empty; this
    /// pins the bytes of every presence tag set.
    #[test]
    fn every_option_set_is_pinned() {
        let mut snap = sample_snapshot();
        snap.last_slow_pose = Some(PoseEstimate {
            timestamp: Time::from_millis(2333),
            pose: Pose::IDENTITY,
            velocity: Vec3::new(-0.5, 0.25, 0.0),
        });
        assert!(snap.degraded);
        assert!(snap.last_cam.is_some() && snap.fast_pose.is_some());
        assert!(snap.latest_token.is_some() && snap.displayed_seq.is_some());
        assert_eq!(fnv1a(snap.encode()), 0xe84f_e9f0_97c8_4f18);
    }

    #[test]
    fn rejects_truncation_and_trailing_bytes() {
        let bytes = sample_snapshot().encode();
        for cut in 0..bytes.len() {
            assert!(SessionSnapshot::decode(&bytes[..cut]).is_err(), "cut {cut} decoded");
        }
        let mut long = bytes.clone();
        long.push(0);
        assert!(SessionSnapshot::decode(&long).is_err());
    }

    // Arbitrary counter/field values round-trip exactly.
    #[test]
    fn arbitrary_counters_round_trip() {
        let mut rng = Xoshiro256pp::new(3);
        for case in 0..64 {
            let mut snap = sample_snapshot();
            snap.imu_iterations = rng.next_u64();
            snap.camera_seq = rng.next_u64();
            snap.request_seq = rng.next_u64();
            snap.vsync_index = rng.next_u64();
            snap.degraded = rng.chance(0.5);
            snap.telemetry.frames_displayed = rng.next_u64();
            snap.telemetry.requests_sent = rng.next_u64();
            let bytes = snap.encode();
            let back = SessionSnapshot::decode(&bytes).unwrap();
            assert_eq!(back, snap, "case {case}");
            assert_eq!(back.encode(), bytes, "case {case}");
        }
    }
}
