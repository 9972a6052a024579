//! The session-state snapshot payload: what one `ClientSession` is,
//! frozen at a checkpoint epoch.
//!
//! The `ILXC` container (`illixr_trace::checkpoint`) owns identity and
//! framing; this module owns the payload codec for one session entry —
//! the state-machine fields, the sensor/integrator plugin internals
//! that cannot be re-derived cheaply, and the full telemetry. Every
//! field round-trips exactly (floats travel as IEEE-754 bit patterns),
//! so encode→decode→encode is byte-identical — the property the
//! checkpoint fixture test pins.
//!
//! What is *not* here is as deliberate as what is: the camera's last
//! frame is stored as `(timestamp, seq)` and its view rebuilt from the
//! trajectory at restore (frame content is a pure function of pose, and
//! nothing is rendered unless a freeze window's repeat is read);
//! the IMU model is fast-forwarded by `imu_iterations` rather than
//! serializing its RNG; switchboard topics are re-seeded from the
//! snapshotted latest values. Restore is therefore a *reconstruction*
//! that is provably bit-equal in every observable the engine reads.

use illixr_core::boundary::{ByteReader, ByteWriter, CodecError};
use illixr_core::Time;
use illixr_math::{Pose, Quat, Vec3};
use illixr_sensors::types::{ImuSample, PoseEstimate};
use illixr_vio::integrator::ImuState;

use crate::session::{DisplayedFrame, RenderToken, SessionTelemetry};

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
    /// Full run counters at the snapshot instant.
    pub telemetry: SessionTelemetry,
}

fn put_vec3(w: &mut ByteWriter, v: Vec3) {
    w.put_f64(v.x);
    w.put_f64(v.y);
    w.put_f64(v.z);
}

fn take_vec3(r: &mut ByteReader) -> Result<Vec3, CodecError> {
    Ok(Vec3::new(r.take_f64()?, r.take_f64()?, r.take_f64()?))
}

fn put_pose(w: &mut ByteWriter, p: &Pose) {
    put_vec3(w, p.position);
    w.put_f64(p.orientation.w);
    w.put_f64(p.orientation.x);
    w.put_f64(p.orientation.y);
    w.put_f64(p.orientation.z);
}

fn take_pose(r: &mut ByteReader) -> Result<Pose, CodecError> {
    let position = take_vec3(r)?;
    let orientation =
        Quat { w: r.take_f64()?, x: r.take_f64()?, y: r.take_f64()?, z: r.take_f64()? };
    Ok(Pose { position, orientation })
}

fn put_estimate(w: &mut ByteWriter, e: &PoseEstimate) {
    w.put_u64(e.timestamp.as_nanos());
    put_pose(w, &e.pose);
    put_vec3(w, e.velocity);
}

fn take_estimate(r: &mut ByteReader) -> Result<PoseEstimate, CodecError> {
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

fn take_sample(r: &mut ByteReader) -> Result<ImuSample, CodecError> {
    Ok(ImuSample {
        timestamp: Time::from_nanos(r.take_u64()?),
        gyro: take_vec3(r)?,
        accel: take_vec3(r)?,
    })
}

fn put_opt_estimate(w: &mut ByteWriter, e: &Option<PoseEstimate>) {
    match e {
        Some(e) => {
            w.put_u16(1);
            put_estimate(w, e);
        }
        None => w.put_u16(0),
    }
}

fn take_opt_estimate(r: &mut ByteReader) -> Result<Option<PoseEstimate>, CodecError> {
    Ok(if r.take_u16()? != 0 { Some(take_estimate(r)?) } else { None })
}

fn put_samples(w: &mut ByteWriter, samples: &[ImuSample]) {
    w.put_u32(samples.len() as u32);
    for s in samples {
        put_sample(w, s);
    }
}

fn take_samples(r: &mut ByteReader) -> Result<Vec<ImuSample>, CodecError> {
    let n = r.take_u32()? as usize;
    let mut out = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        out.push(take_sample(r)?);
    }
    Ok(out)
}

impl SessionSnapshot {
    /// Serializes to the opaque entry payload stored in an `ILXC`
    /// checkpoint.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_u16(self.degraded as u16);
        w.put_u64(self.imu_iterations);
        w.put_u64(self.camera_seq);
        match self.last_cam {
            Some((t, seq)) => {
                w.put_u16(1);
                w.put_u64(t.as_nanos());
                w.put_u64(seq);
            }
            None => w.put_u16(0),
        }
        // Integrator.
        w.put_u64(self.integrator_state.timestamp.as_nanos());
        put_pose(&mut w, &self.integrator_state.pose);
        put_vec3(&mut w, self.integrator_state.velocity);
        put_vec3(&mut w, self.integrator_state.gyro_bias);
        put_vec3(&mut w, self.integrator_state.accel_bias);
        put_samples(&mut w, &self.integrator_history);
        w.put_u64(self.anchor_timestamp.as_nanos());
        put_samples(&mut w, &self.imu_window);
        put_opt_estimate(&mut w, &self.fast_pose);
        put_opt_estimate(&mut w, &self.last_slow_pose);
        match &self.latest_token {
            Some((token, arrived)) => {
                w.put_u16(1);
                w.put_u64(token.seq);
                w.put_u64(token.pose_timestamp.as_nanos());
                w.put_u64(token.requested_at.as_nanos());
                w.put_u64(arrived.as_nanos());
            }
            None => w.put_u16(0),
        }
        match self.displayed_seq {
            Some(seq) => {
                w.put_u16(1);
                w.put_u64(seq);
            }
            None => w.put_u16(0),
        }
        w.put_u64(self.request_seq);
        w.put_u64(self.vsync_index);
        // Telemetry.
        let t = &self.telemetry;
        w.put_u32(t.mtp_ns.len() as u32);
        for &ns in &t.mtp_ns {
            w.put_u64(ns);
        }
        w.put_u32(t.displayed_frames.len() as u32);
        for f in &t.displayed_frames {
            w.put_u64(f.time.as_nanos());
            put_pose(&mut w, &f.pose);
        }
        w.put_u64(t.frames_displayed);
        w.put_u64(t.frames_dropped);
        w.put_u64(t.vio_jobs);
        w.put_u64(t.poses_received);
        w.put_u64(t.tokens_received);
        w.put_u64(t.requests_sent);
        w.into_bytes()
    }

    /// Strict decode of an entry payload. Trailing bytes are rejected:
    /// a payload that over-decodes is as corrupt as one that truncates.
    pub fn decode(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut r = ByteReader::new(bytes);
        let degraded = r.take_u16()? != 0;
        let imu_iterations = r.take_u64()?;
        let camera_seq = r.take_u64()?;
        let last_cam = if r.take_u16()? != 0 {
            Some((Time::from_nanos(r.take_u64()?), r.take_u64()?))
        } else {
            None
        };
        let integrator_state = ImuState {
            timestamp: Time::from_nanos(r.take_u64()?),
            pose: take_pose(&mut r)?,
            velocity: take_vec3(&mut r)?,
            gyro_bias: take_vec3(&mut r)?,
            accel_bias: take_vec3(&mut r)?,
        };
        let integrator_history = take_samples(&mut r)?;
        let anchor_timestamp = Time::from_nanos(r.take_u64()?);
        let imu_window = take_samples(&mut r)?;
        let fast_pose = take_opt_estimate(&mut r)?;
        let last_slow_pose = take_opt_estimate(&mut r)?;
        let latest_token = if r.take_u16()? != 0 {
            let seq = r.take_u64()?;
            let pose_timestamp = Time::from_nanos(r.take_u64()?);
            let requested_at = Time::from_nanos(r.take_u64()?);
            let arrived = Time::from_nanos(r.take_u64()?);
            Some((RenderToken { seq, pose_timestamp, requested_at }, arrived))
        } else {
            None
        };
        let displayed_seq = if r.take_u16()? != 0 { Some(r.take_u64()?) } else { None };
        let request_seq = r.take_u64()?;
        let vsync_index = r.take_u64()?;
        let mtp_len = r.take_u32()? as usize;
        let mut mtp_ns = Vec::with_capacity(mtp_len.min(1 << 16));
        for _ in 0..mtp_len {
            mtp_ns.push(r.take_u64()?);
        }
        let df_len = r.take_u32()? as usize;
        let mut displayed_frames = Vec::with_capacity(df_len.min(1 << 16));
        for _ in 0..df_len {
            displayed_frames.push(DisplayedFrame {
                time: Time::from_nanos(r.take_u64()?),
                pose: take_pose(&mut r)?,
            });
        }
        let telemetry = SessionTelemetry {
            mtp_ns,
            displayed_frames,
            frames_displayed: r.take_u64()?,
            frames_dropped: r.take_u64()?,
            vio_jobs: r.take_u64()?,
            poses_received: r.take_u64()?,
            tokens_received: r.take_u64()?,
            requests_sent: r.take_u64()?,
        };
        if !r.is_empty() {
            return Err(CodecError { offset: r.position(), needed: 0, remaining: r.remaining() });
        }
        Ok(Self {
            degraded,
            imu_iterations,
            camera_seq,
            last_cam,
            integrator_state,
            integrator_history,
            anchor_timestamp,
            imu_window,
            fast_pose,
            last_slow_pose,
            latest_token,
            displayed_seq,
            request_seq,
            vsync_index,
            telemetry,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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
                mtp_ns: vec![1_000_000, 2_000_000, 3_000_000],
                displayed_frames: vec![DisplayedFrame { time: Time::from_millis(2392), pose }],
                frames_displayed: 280,
                frames_dropped: 8,
                vio_jobs: 36,
                poses_received: 35,
                tokens_received: 88,
                requests_sent: 90,
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        // Arbitrary counter/field values round-trip exactly.
        #[test]
        fn arbitrary_counters_round_trip(
            imu_iterations in 0u64..u64::MAX,
            camera_seq in 0u64..u64::MAX,
            request_seq in 0u64..u64::MAX,
            vsync_index in 0u64..u64::MAX,
            degraded_bit in 0u64..2,
            mtp in proptest::collection::vec(0u64..u64::MAX, 0..32),
        ) {
            let mut snap = sample_snapshot();
            snap.imu_iterations = imu_iterations;
            snap.camera_seq = camera_seq;
            snap.request_seq = request_seq;
            snap.vsync_index = vsync_index;
            snap.degraded = degraded_bit == 1;
            snap.telemetry.mtp_ns = mtp;
            let bytes = snap.encode();
            let back = SessionSnapshot::decode(&bytes).unwrap();
            prop_assert_eq!(&back, &snap);
            prop_assert_eq!(back.encode(), bytes);
        }
    }
}
