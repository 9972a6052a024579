//! Pre-generated sensor sequences with ground truth — the EuRoC
//! replacement.
//!
//! A [`SyntheticDataset`] holds a time-ordered IMU stream, camera frame
//! timestamps and ground-truth states for a fixed duration. The offline
//! camera+IMU plugin replays it, "appearing indistinguishable from a real
//! camera/IMU to the rest of the system" (paper §II-B). IMU and ground
//! truth round-trip through a simple CSV format so sequences can be
//! archived and shared like EuRoC bags.

use std::io::{BufRead, BufReader, BufWriter, Write as _};
use std::path::Path;
use std::sync::Arc;

use illixr_core::Time;
use illixr_math::{Pose, Quat, Vec3};

use crate::camera::StereoRig;
use crate::imu::{ImuModel, ImuNoise};
use crate::trajectory::Trajectory;
use crate::types::{CameraFrame, GroundTruth, ImuSample};
use crate::world::LandmarkWorld;

/// Errors from dataset I/O.
#[derive(Debug)]
pub enum DatasetError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A CSV line could not be parsed.
    Parse { line: usize, message: String },
}

impl std::fmt::Display for DatasetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "dataset i/o error: {e}"),
            Self::Parse { line, message } => {
                write!(f, "dataset parse error at line {line}: {message}")
            }
        }
    }
}

impl std::error::Error for DatasetError {}

impl From<std::io::Error> for DatasetError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

/// A generated sensor sequence.
#[derive(Debug, Clone)]
pub struct SyntheticDataset {
    /// IMU samples, time-ordered.
    pub imu: Vec<ImuSample>,
    /// Camera frame timestamps, time-ordered (frames themselves are
    /// rendered on demand from the world + ground truth, keeping datasets
    /// small, like storing a trajectory instead of a video).
    pub camera_times: Vec<Time>,
    /// Ground truth at IMU rate.
    pub ground_truth: Vec<GroundTruth>,
    /// The trajectory that generated this dataset.
    pub trajectory: Trajectory,
    /// The world observed by the camera, shared with every
    /// [`CameraFrame`] the dataset hands out.
    pub world: Arc<LandmarkWorld>,
}

impl SyntheticDataset {
    /// Generates a sequence of `duration_s` seconds with the given rates
    /// (paper defaults: camera 15 Hz, IMU 500 Hz).
    ///
    /// # Panics
    ///
    /// Panics when rates or duration are not positive.
    pub fn generate(
        trajectory: Trajectory,
        world: LandmarkWorld,
        noise: ImuNoise,
        duration_s: f64,
        camera_hz: f64,
        imu_hz: f64,
        seed: u64,
    ) -> Self {
        assert!(
            duration_s > 0.0 && camera_hz > 0.0 && imu_hz > 0.0,
            "rates/duration must be positive"
        );
        let mut imu_model = ImuModel::new(trajectory.clone(), noise, imu_hz, seed);
        let n_imu = (duration_s * imu_hz).ceil() as usize;
        let mut imu = Vec::with_capacity(n_imu);
        let mut ground_truth = Vec::with_capacity(n_imu);
        for _ in 0..n_imu {
            let s = imu_model.next_sample();
            ground_truth.push(GroundTruth {
                timestamp: s.timestamp,
                pose: trajectory.pose(s.timestamp),
                velocity: trajectory.velocity(s.timestamp),
            });
            imu.push(s);
        }
        let n_cam = (duration_s * camera_hz).ceil() as usize;
        let camera_times = (0..n_cam).map(|k| Time::from_secs_f64(k as f64 / camera_hz)).collect();
        Self { imu, camera_times, ground_truth, trajectory, world: Arc::new(world) }
    }

    /// A ready-made 10-second walking sequence on the lab world — the
    /// stand-in for EuRoC *Vicon Room 1 Medium*.
    pub fn vicon_room_like(seed: u64, duration_s: f64) -> Self {
        Self::generate(
            Trajectory::walking(seed),
            LandmarkWorld::lab(seed),
            ImuNoise::default(),
            duration_s,
            15.0,
            500.0,
            seed,
        )
    }

    /// Renders the camera frame for camera index `k` (left, right).
    pub fn render_frame(
        &self,
        rig: &StereoRig,
        k: usize,
    ) -> (illixr_image::GrayImage, illixr_image::GrayImage) {
        let t = self.camera_times[k];
        let pose = self.trajectory.pose(t);
        self.world.render_stereo(rig, &pose)
    }

    /// Camera frame `k` as the `camera` stream carries it: rendered when,
    /// and only if, someone calls [`CameraFrame::stereo`] on it.
    pub(crate) fn frame(&self, rig: &StereoRig, k: usize) -> CameraFrame {
        let t = self.camera_times[k];
        CameraFrame::new(t, k as u64, self.world.clone(), *rig, self.trajectory.pose(t))
    }

    /// Replays the sequence to an estimator: for each camera frame, the
    /// IMU samples after the previous frame up to and including this
    /// frame's time, and the frame itself — so a consumer that drops a
    /// frame does not pay for its pixels.
    pub fn replay<'a>(
        &'a self,
        rig: &'a StereoRig,
    ) -> impl Iterator<Item = (&'a [ImuSample], CameraFrame)> + 'a {
        let mut next_imu = 0;
        self.camera_times.iter().enumerate().map(move |(k, &timestamp)| {
            let first = next_imu;
            next_imu += self.imu[first..].iter().take_while(|s| s.timestamp <= timestamp).count();
            (&self.imu[first..next_imu], self.frame(rig, k))
        })
    }

    /// Ground-truth pose interpolated at an arbitrary time.
    pub fn ground_truth_pose(&self, t: Time) -> Pose {
        self.trajectory.pose(t)
    }

    /// Sequence duration.
    pub fn duration(&self) -> Time {
        self.imu.last().map(|s| s.timestamp).unwrap_or(Time::ZERO)
    }

    /// Writes the IMU stream and ground truth as CSV
    /// (`t_ns,gx,gy,gz,ax,ay,az,px,py,pz,qw,qx,qy,qz`).
    ///
    /// # Errors
    ///
    /// Returns any underlying I/O error.
    pub fn save_csv(&self, path: &Path) -> Result<(), DatasetError> {
        let f = std::fs::File::create(path)?;
        let mut w = BufWriter::new(f);
        writeln!(w, "t_ns,gx,gy,gz,ax,ay,az,px,py,pz,qw,qx,qy,qz")?;
        for (s, gt) in self.imu.iter().zip(&self.ground_truth) {
            let p = gt.pose.position;
            let q = gt.pose.orientation;
            writeln!(
                w,
                "{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
                s.timestamp.as_nanos(),
                s.gyro.x,
                s.gyro.y,
                s.gyro.z,
                s.accel.x,
                s.accel.y,
                s.accel.z,
                p.x,
                p.y,
                p.z,
                q.w,
                q.x,
                q.y,
                q.z,
            )?;
        }
        Ok(())
    }

    /// Reads back an IMU+ground-truth CSV produced by
    /// [`SyntheticDataset::save_csv`].
    ///
    /// Returns `(imu, ground_truth)`; the caller re-attaches a world and
    /// camera cadence.
    ///
    /// # Errors
    ///
    /// Returns [`DatasetError::Parse`] on malformed rows.
    pub fn load_csv(path: &Path) -> Result<(Vec<ImuSample>, Vec<GroundTruth>), DatasetError> {
        let f = std::fs::File::open(path)?;
        let reader = BufReader::new(f);
        let mut imu = Vec::new();
        let mut gt = Vec::new();
        for (i, line) in reader.lines().enumerate() {
            let line = line?;
            if i == 0 || line.trim().is_empty() {
                continue; // header
            }
            let fields: Vec<&str> = line.split(',').collect();
            if fields.len() != 14 {
                return Err(DatasetError::Parse {
                    line: i + 1,
                    message: format!("expected 14 fields, found {}", fields.len()),
                });
            }
            let parse = |s: &str| -> Result<f64, DatasetError> {
                s.trim().parse::<f64>().map_err(|e| DatasetError::Parse {
                    line: i + 1,
                    message: format!("bad float '{s}': {e}"),
                })
            };
            let t_ns: u64 = fields[0].trim().parse().map_err(|e| DatasetError::Parse {
                line: i + 1,
                message: format!("bad timestamp '{}': {e}", fields[0]),
            })?;
            let t = Time::from_nanos(t_ns);
            imu.push(ImuSample {
                timestamp: t,
                gyro: Vec3::new(parse(fields[1])?, parse(fields[2])?, parse(fields[3])?),
                accel: Vec3::new(parse(fields[4])?, parse(fields[5])?, parse(fields[6])?),
            });
            let pose = Pose::new(
                Vec3::new(parse(fields[7])?, parse(fields[8])?, parse(fields[9])?),
                Quat::new(
                    parse(fields[10])?,
                    parse(fields[11])?,
                    parse(fields[12])?,
                    parse(fields[13])?,
                ),
            );
            gt.push(GroundTruth { timestamp: t, pose, velocity: Vec3::ZERO });
        }
        Ok((imu, gt))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generate_produces_expected_counts() {
        let ds = SyntheticDataset::vicon_room_like(1, 2.0);
        assert_eq!(ds.imu.len(), 1000); // 2 s × 500 Hz
        assert_eq!(ds.camera_times.len(), 30); // 2 s × 15 Hz
        assert_eq!(ds.ground_truth.len(), ds.imu.len());
    }

    #[test]
    fn timestamps_are_monotone() {
        let ds = SyntheticDataset::vicon_room_like(2, 1.0);
        for w in ds.imu.windows(2) {
            assert!(w[1].timestamp > w[0].timestamp);
        }
        for w in ds.camera_times.windows(2) {
            assert!(w[1] > w[0]);
        }
    }

    #[test]
    fn ground_truth_matches_trajectory() {
        let ds = SyntheticDataset::vicon_room_like(3, 1.0);
        let gt = &ds.ground_truth[250];
        let p = ds.trajectory.pose(gt.timestamp);
        assert!(gt.pose.translation_distance(&p) < 1e-12);
    }

    #[test]
    fn csv_roundtrip() {
        let ds = SyntheticDataset::vicon_room_like(4, 0.5);
        let dir = std::env::temp_dir().join("illixr_ds_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("seq.csv");
        ds.save_csv(&path).unwrap();
        let (imu, gt) = SyntheticDataset::load_csv(&path).unwrap();
        assert_eq!(imu.len(), ds.imu.len());
        assert_eq!(gt.len(), ds.ground_truth.len());
        let a = &ds.imu[100];
        let b = &imu[100];
        assert_eq!(a.timestamp, b.timestamp);
        assert!((a.gyro - b.gyro).norm() < 1e-9);
        assert!(ds.ground_truth[100].pose.translation_distance(&gt[100].pose) < 1e-9);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_rejects_malformed_rows() {
        let dir = std::env::temp_dir().join("illixr_ds_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.csv");
        std::fs::write(&path, "header\n1,2,3\n").unwrap();
        let err = SyntheticDataset::load_csv(&path).unwrap_err();
        assert!(matches!(err, DatasetError::Parse { line: 2, .. }));
        std::fs::remove_file(&path).ok();
    }
}
