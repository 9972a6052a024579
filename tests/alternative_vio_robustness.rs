use illixr_testbed::sensors::camera::{PinholeCamera, StereoRig};
use illixr_testbed::sensors::dataset::SyntheticDataset;
use illixr_testbed::vio::alternative::{FrameToFrameConfig, FrameToFrameVio};
use illixr_testbed::vio::integrator::ImuState;

#[test]
fn alternative_vio_never_diverges_across_seeds() {
    let rig = StereoRig::zed_mini(PinholeCamera::qvga());
    let mut worsts = Vec::new();
    for seed in [1u64, 7, 13, 21, 27, 42, 55, 99] {
        let ds = SyntheticDataset::vicon_room_like(seed, 4.0);
        let gt0 = ds.ground_truth[0];
        let mut vio = FrameToFrameVio::new(
            FrameToFrameConfig::default(),
            rig,
            ImuState::from_pose(gt0.timestamp, gt0.pose, gt0.velocity),
        );
        let mut worst = 0.0f64;
        for (imu, frame) in ds.replay(&rig) {
            imu.iter().for_each(|&s| vio.process_imu(s));
            let frame = frame.stereo();
            let out = vio.process_frame(&frame, None);
            let truth = ds.ground_truth_pose(frame.timestamp);
            worst = worst.max(out.state.pose.translation_distance(&truth));
        }
        // The lightweight tracker's accuracy class is decimeters-to-
        // low-meters depending on the trajectory (vs the MSCKF's
        // centimeters); the guarantee tested here is *bounded* error —
        // the leaky velocity prior prevents runaway divergence during
        // vision outages.
        assert!(worst < 4.0, "seed {seed}: diverged to {worst:.2} m");
        worsts.push(worst);
    }
    worsts.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let median = worsts[worsts.len() / 2];
    assert!(median < 1.5, "median worst drift {median:.2} m");
}
