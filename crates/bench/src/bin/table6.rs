//! Table VI: task-level time breakdown of VIO and scene reconstruction,
//! measured from the instrumented standalone components on the synthetic
//! Vicon-Room-like dataset.

use std::sync::Arc;

use illixr_bench::print_task_shares;
use illixr_core::obs::Metrics;
use illixr_core::Time;
use illixr_reconstruction::pipeline::ScenePipeline;
use illixr_sensors::camera::{PinholeCamera, StereoRig};
use illixr_sensors::dataset::SyntheticDataset;
use illixr_sensors::trajectory::Trajectory;
use illixr_sensors::types::StereoFrame;
use illixr_sensors::world::LandmarkWorld;
use illixr_vio::integrator::ImuState;
use illixr_vio::msckf::{Msckf, VioConfig};

/// Task-name column width.
const NAME_WIDTH: usize = 26;

fn main() {
    println!("Table VI: task breakdown of VIO and scene reconstruction");

    // --- VIO -------------------------------------------------------------
    let cam = PinholeCamera::qvga();
    let rig = StereoRig::zed_mini(cam);
    let ds = SyntheticDataset::vicon_room_like(42, 10.0);
    let gt0 = &ds.ground_truth[0];
    let mut filter = Msckf::new(
        VioConfig::accurate(cam),
        ImuState::from_pose(gt0.timestamp, gt0.pose, gt0.velocity),
    );
    let vio_timer = Metrics::new();
    let mut imu_idx = 0;
    for (k, &cam_t) in ds.camera_times.iter().enumerate() {
        while imu_idx < ds.imu.len() && ds.imu[imu_idx].timestamp <= cam_t {
            filter.process_imu(ds.imu[imu_idx]);
            imu_idx += 1;
        }
        let (left, right) = ds.render_frame(&rig, k);
        filter.process_frame(
            &StereoFrame {
                timestamp: cam_t,
                left: Arc::new(left),
                right: Arc::new(right),
                seq: k as u64,
            },
            Some(&vio_timer),
        );
    }
    print_task_shares(
        "VIO (OpenVINS-style MSCKF, Vicon-Room-like synthetic sequence)",
        NAME_WIDTH,
        &[
            ("feature detection", 15.0),
            ("feature matching", 13.0),
            ("feature initialization", 14.0),
            ("MSCKF update", 23.0),
            ("SLAM update", 20.0),
            ("marginalization", 5.0),
            ("other", 10.0),
        ],
        &vio_timer,
        "all seven tasks present; shares skew toward matching because this \
         scalar KLT lacks the SIMD the reference's OpenCV tracker has \
         relative to its Eigen filter backend (see EXPERIMENTS.md)",
    );

    // --- Scene reconstruction ---------------------------------------------
    let world = LandmarkWorld::lab(7);
    let traj = Trajectory::gentle(7);
    let scene_cam = PinholeCamera { fx: 95.0, fy: 95.0, cx: 48.0, cy: 36.0, width: 96, height: 72 };
    let scene_rig = StereoRig::zed_mini(scene_cam);
    let mut pipe = ScenePipeline::elastic_fusion_like(scene_cam, traj.pose(Time::ZERO));
    let scene_timer = Metrics::new();
    for k in 0..40u64 {
        let t = Time::from_millis(k * 100);
        let depth = world.render_depth(&scene_rig, &traj.pose(t));
        pipe.process(&depth, None, Some(&scene_timer));
    }
    print_task_shares(
        "Scene reconstruction (ElasticFusion-style surfel pipeline, dyson_lab-like scene)",
        NAME_WIDTH,
        &[
            ("camera processing", 5.0),
            ("image processing", 18.0),
            ("pose estimation", 28.0),
            ("surfel prediction", 34.0),
            ("map fusion", 15.0),
        ],
        &scene_timer,
        "all five tasks present; the scalar bilateral filter is relatively \
         more expensive than ElasticFusion's CUDA kernel (see EXPERIMENTS.md)",
    );
}
