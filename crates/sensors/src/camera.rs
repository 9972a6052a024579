//! Pinhole and stereo camera models.

use illixr_math::{Pose, Vec2, Vec3};

/// A pinhole camera intrinsic model.
///
/// The camera frame follows the usual computer-vision convention:
/// +X right, +Y down, +Z forward (into the scene).
///
/// # Examples
///
/// ```
/// use illixr_sensors::PinholeCamera;
/// use illixr_math::Vec3;
///
/// let cam = PinholeCamera::vga();
/// let px = cam.project(Vec3::new(0.0, 0.0, 2.0)).unwrap();
/// assert!((px.x - cam.cx).abs() < 1e-9); // on-axis point lands at the principal point
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PinholeCamera {
    /// Focal length (pixels), x.
    pub fx: f64,
    /// Focal length (pixels), y.
    pub fy: f64,
    /// Principal point x.
    pub cx: f64,
    /// Principal point y.
    pub cy: f64,
    /// Image width.
    pub width: usize,
    /// Image height.
    pub height: usize,
}

impl PinholeCamera {
    /// The VGA configuration used in the integrated experiments
    /// (Table III: VGA resolution for the VIO camera).
    pub fn vga() -> Self {
        Self { fx: 380.0, fy: 380.0, cx: 320.0, cy: 240.0, width: 640, height: 480 }
    }

    /// A quarter-VGA configuration, handy for fast tests.
    pub fn qvga() -> Self {
        Self { fx: 190.0, fy: 190.0, cx: 160.0, cy: 120.0, width: 320, height: 240 }
    }

    /// Projects a point in the **camera** frame to pixel coordinates.
    ///
    /// Returns `None` when the point is behind the camera or projects
    /// outside the image.
    pub fn project(&self, p_cam: Vec3) -> Option<Vec2> {
        if p_cam.z <= 1e-6 {
            return None;
        }
        let u = self.fx * p_cam.x / p_cam.z + self.cx;
        let v = self.fy * p_cam.y / p_cam.z + self.cy;
        if u < 0.0 || v < 0.0 || u >= self.width as f64 || v >= self.height as f64 {
            return None;
        }
        Some(Vec2::new(u, v))
    }

    /// Back-projects a pixel to the unit-depth ray direction in the
    /// camera frame.
    pub fn unproject(&self, px: Vec2) -> Vec3 {
        Vec3::new((px.x - self.cx) / self.fx, (px.y - self.cy) / self.fy, 1.0)
    }
}

/// A stereo rig: two identical pinhole cameras offset along the body +X
/// axis (ZED-Mini style).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StereoRig {
    /// Per-eye intrinsics.
    pub camera: PinholeCamera,
    /// Baseline in meters (ZED Mini: 63 mm).
    pub baseline: f64,
    /// Extrinsic pose of the *left camera* in the body (IMU) frame.
    pub body_from_left: Pose,
}

impl StereoRig {
    /// A ZED-Mini-like rig: 63 mm baseline, camera looking along body −Z
    /// remapped to the CV convention.
    pub fn zed_mini(camera: PinholeCamera) -> Self {
        Self { camera, baseline: 0.063, body_from_left: Pose::IDENTITY }
    }

    /// World-frame pose of the left (eye 0) or right (eye 1) camera for a
    /// body pose: the left extrinsic, and for the right eye its centre
    /// moved one baseline along the camera's +X. The one place the eye
    /// extrinsic is composed.
    pub(crate) fn eye_pose(&self, body_pose: &Pose, eye: usize) -> Pose {
        let mut cam_pose = body_pose.compose(&self.body_from_left);
        if eye == 1 {
            cam_pose.position = cam_pose.transform_point(Vec3::new(self.baseline, 0.0, 0.0));
        }
        cam_pose
    }

    /// World-frame camera centers `(left, right)` for a body pose.
    pub fn camera_centers(&self, body_pose: &Pose) -> (Vec3, Vec3) {
        (self.eye_pose(body_pose, 0).position, self.eye_pose(body_pose, 1).position)
    }

    /// Projects a world point into the left (eye 0) or right (eye 1)
    /// camera for a given body pose.
    #[cfg(test)]
    pub(crate) fn project_world(
        &self,
        body_pose: &Pose,
        p_world: Vec3,
        eye: usize,
    ) -> Option<Vec2> {
        let p_cam = self.eye_pose(body_pose, eye).inverse().transform_point(p_world);
        self.camera.project(p_cam)
    }

    /// Depth from disparity: `z = f·b / d`.
    ///
    /// Returns `None` for non-positive disparity.
    pub fn depth_from_disparity(&self, disparity_px: f64) -> Option<f64> {
        if disparity_px <= 0.0 {
            return None;
        }
        Some(self.camera.fx * self.baseline / disparity_px)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use illixr_math::Quat;

    #[test]
    fn project_unproject_roundtrip() {
        let cam = PinholeCamera::vga();
        let p = Vec3::new(0.3, -0.2, 2.5);
        let px = cam.project(p).unwrap();
        let ray = cam.unproject(px);
        // Ray at the point's depth recovers the point.
        let recon = ray * p.z;
        assert!((recon - p).norm() < 1e-9);
    }

    #[test]
    fn behind_camera_does_not_project() {
        let cam = PinholeCamera::vga();
        assert!(cam.project(Vec3::new(0.0, 0.0, -1.0)).is_none());
    }

    #[test]
    fn off_image_points_rejected() {
        let cam = PinholeCamera::vga();
        assert!(cam.project(Vec3::new(100.0, 0.0, 1.0)).is_none());
    }

    #[test]
    fn stereo_disparity_matches_depth() {
        let rig = StereoRig::zed_mini(PinholeCamera::vga());
        let body = Pose::IDENTITY;
        let p = Vec3::new(0.1, 0.05, 3.0);
        let l = rig.project_world(&body, p, 0).unwrap();
        let r = rig.project_world(&body, p, 1).unwrap();
        let disparity = l.x - r.x;
        let depth = rig.depth_from_disparity(disparity).unwrap();
        assert!((depth - 3.0).abs() < 1e-6, "depth {depth}");
    }

    #[test]
    fn moving_body_moves_projection() {
        let rig = StereoRig::zed_mini(PinholeCamera::vga());
        let p = Vec3::new(0.0, 0.0, 4.0);
        let a = rig.project_world(&Pose::IDENTITY, p, 0).unwrap();
        let shifted = Pose::new(Vec3::new(0.5, 0.0, 0.0), Quat::IDENTITY);
        let b = rig.project_world(&shifted, p, 0).unwrap();
        assert!(b.x < a.x); // camera moved right → point moves left in image
    }
}
