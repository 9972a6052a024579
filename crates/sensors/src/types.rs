//! Data types flowing on the perception pipeline's event streams.
//!
//! # Who renders a camera frame, and when
//!
//! The `camera` stream carries a [`CameraFrame`]: a timestamp, a sequence
//! number and the *view* — world, rig and pose — that determines every
//! pixel (`crate::world`'s pixel pins prove the triple is everything).
//! Nothing is rendered at publication. The first holder to call
//! [`CameraFrame::stereo`] renders the pair, once, into a cell every clone
//! of the frame shares; a consumer that reads only `timestamp` (the
//! server's ideal-VIO path, a dropped frame in an offline sweep) never
//! pays for pixels, and one that reads them gets the bits an eager render
//! would have produced. [`StereoFrame`] stays what the VIO kernels take: a
//! rendered pair, built here and nowhere else.
//!
//! "When" is a host-time fact only: simulated costs come from work factors
//! and cost models, not from where the render runs. In live mode
//! (`LiveTestbed`, `quickstart`) it does move the ≈ 60 µs synthetic render
//! from the camera thread's iteration to the VIO thread's.

use std::sync::{Arc, OnceLock};

use illixr_core::Time;
use illixr_image::GrayImage;
use illixr_math::{Pose, Vec3};

use crate::camera::StereoRig;
use crate::world::LandmarkWorld;

/// One inertial measurement (paper Table III: 500 Hz).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ImuSample {
    /// Sample timestamp.
    pub timestamp: Time,
    /// Angular velocity in the body frame, rad/s.
    pub gyro: Vec3,
    /// Specific force in the body frame (acceleration minus gravity,
    /// expressed in body coordinates), m/s².
    pub accel: Vec3,
}

/// One rendered stereo camera frame (paper Table III: 15 Hz, VGA) — the
/// input of the VIO kernels, materialised by [`CameraFrame::stereo`].
///
/// Images are shared so every holder of a frame reads the same pair
/// without copying — the paper's zero-copy event streams.
#[derive(Debug, Clone)]
pub struct StereoFrame {
    /// Capture timestamp.
    pub timestamp: Time,
    /// Left camera image.
    pub left: Arc<GrayImage>,
    /// Right camera image.
    pub right: Arc<GrayImage>,
    /// Frame sequence number.
    pub seq: u64,
}

/// One camera frame as the `camera` stream carries it: when it was taken
/// and the view that determines its pixels, rendered at the first
/// [`CameraFrame::stereo`] call (see the module docs).
///
/// Clones share the view and its rendered pair, so fanning a frame out —
/// switchboard subscribers, an offloaded job's queue hops, a frozen
/// camera's repeats — renders at most once.
#[derive(Debug, Clone)]
pub struct CameraFrame {
    /// Capture timestamp.
    pub timestamp: Time,
    /// Frame sequence number.
    pub seq: u64,
    view: Arc<View>,
}

/// What determines a frame's pixels, and the pixels once someone has read
/// them.
#[derive(Debug)]
struct View {
    world: Arc<LandmarkWorld>,
    rig: StereoRig,
    pose: Pose,
    pixels: OnceLock<(Arc<GrayImage>, Arc<GrayImage>)>,
}

impl CameraFrame {
    /// The frame `rig` sees of `world` from body pose `pose`.
    pub fn new(
        timestamp: Time,
        seq: u64,
        world: Arc<LandmarkWorld>,
        rig: StereoRig,
        pose: Pose,
    ) -> Self {
        Self { timestamp, seq, view: Arc::new(View { world, rig, pose, pixels: OnceLock::new() }) }
    }

    /// The same frame — timestamp, view and (shared) pixels — under
    /// another sequence number: what a wedged camera driver re-delivers.
    pub(crate) fn repeated_as(&self, seq: u64) -> Self {
        Self { seq, ..self.clone() }
    }

    /// The body pose the frame was taken from; with the world and rig it
    /// is the frame's whole content, which is why the record/replay
    /// boundary stores it instead of pixels.
    pub(crate) fn pose(&self) -> Pose {
        self.view.pose
    }

    /// The rendered pair. The first call on any clone renders it; every
    /// later call, on any clone, shares that render.
    pub fn stereo(&self) -> StereoFrame {
        let view = &*self.view;
        let (left, right) = view.pixels.get_or_init(|| {
            let (left, right) = view.world.render_stereo(&view.rig, &view.pose);
            (Arc::new(left), Arc::new(right))
        });
        StereoFrame {
            timestamp: self.timestamp,
            left: left.clone(),
            right: right.clone(),
            seq: self.seq,
        }
    }

    /// Whether some holder of this frame has read its pixels.
    pub fn is_rendered(&self) -> bool {
        self.view.pixels.get().is_some()
    }
}

/// A pose estimate on the `pose` streams: slow+accurate from VIO, fast
/// from the IMU integrator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoseEstimate {
    /// The time this pose describes (sensor timestamp, not computation
    /// completion time). The motion-to-photon calculation uses this as
    /// the age of the pose.
    pub timestamp: Time,
    /// Estimated pose of the headset in the world frame.
    pub pose: Pose,
    /// Estimated linear velocity in the world frame (m/s).
    pub velocity: Vec3,
}

impl PoseEstimate {
    /// An identity estimate at time zero (startup placeholder).
    pub fn identity() -> Self {
        Self { timestamp: Time::ZERO, pose: Pose::IDENTITY, velocity: Vec3::ZERO }
    }
}

/// Ground-truth state at a point in time (available from synthetic
/// datasets, the role EuRoC's Vicon ground truth plays in the paper).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GroundTruth {
    /// Timestamp.
    pub timestamp: Time,
    /// True pose.
    pub pose: Pose,
    /// True linear velocity (world frame).
    pub velocity: Vec3,
}

/// Standard stream names used by the reference pipeline assembly.
pub mod streams {
    /// Stereo camera frames (`CameraFrame`).
    pub const CAMERA: &str = "camera";
    /// IMU samples (`ImuSample`).
    pub const IMU: &str = "imu";
    /// Slow, accurate pose from VIO (`PoseEstimate`).
    pub const SLOW_POSE: &str = "slow_pose";
    /// Fast pose from the IMU integrator (`PoseEstimate`).
    pub const FAST_POSE: &str = "fast_pose";
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pose_estimate_identity() {
        let p = PoseEstimate::identity();
        assert_eq!(p.timestamp, Time::ZERO);
        assert_eq!(p.pose, Pose::IDENTITY);
    }

    #[test]
    fn stereo_frame_shares_images() {
        let img = Arc::new(GrayImage::new(4, 4));
        let f =
            StereoFrame { timestamp: Time::ZERO, left: img.clone(), right: img.clone(), seq: 0 };
        let g = f.clone();
        assert!(Arc::ptr_eq(&f.left, &g.left));
    }

    #[test]
    fn camera_frame_crosses_threads() {
        // It rides in a `VioJob` from the coordinator to forked shards.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CameraFrame>();
    }

    #[test]
    fn camera_frame_renders_once_for_every_holder() {
        let world = Arc::new(LandmarkWorld::lab(5));
        let rig = StereoRig::zed_mini(crate::camera::PinholeCamera::qvga());
        let pose = crate::trajectory::Trajectory::walking(5).pose(Time::from_millis(400));
        let frame = CameraFrame::new(Time::from_millis(400), 6, world.clone(), rig, pose);
        let (clone, repeat) = (frame.clone(), frame.repeated_as(7));
        assert!(!frame.is_rendered() && !clone.is_rendered() && !repeat.is_rendered());

        let stereo = clone.stereo();
        assert!(frame.is_rendered() && repeat.is_rendered(), "one cell behind every holder");
        assert_eq!((stereo.timestamp, stereo.seq), (frame.timestamp, 6));
        assert_eq!(repeat.stereo().seq, 7);
        assert!(Arc::ptr_eq(&stereo.left, &frame.stereo().left));
        assert!(Arc::ptr_eq(&stereo.right, &repeat.stereo().right));

        let (left, right) = world.render_stereo(&rig, &pose);
        assert_eq!(stereo.left.as_slice(), left.as_slice());
        assert_eq!(stereo.right.as_slice(), right.as_slice());
    }
}
