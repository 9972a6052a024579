//! Bit pins of the VIO front end as the estimators see it.
//!
//! `fault_replay`'s digest, `results/ablation_vio.txt`'s ATE column and
//! every `real_vio` pose depend on the last bit of each tracked feature,
//! and each feature on the last bit of the blur, the pyramid, the KLT
//! samples and the FAST scores under it. These FNV-1a digests over
//! `to_bits()` were taken from the first implementation (a clamped read
//! per blur tap, six `sample_bilinear` calls a KLT window pixel); an edit
//! to `illixr-image`'s stencils or to `klt.rs`/`fast.rs` must keep each
//! value's floating-point operations and their association. The unit
//! tests beside those kernels compare them with verbatim references; this
//! file pins what comes out the far end, in debug and in release.

use illixr_core::boundary::fnv1a;
use illixr_sensors::camera::{PinholeCamera, StereoRig};
use illixr_sensors::dataset::SyntheticDataset;
use illixr_vio::alternative::{FrameToFrameConfig, FrameToFrameVio};
use illixr_vio::fast::detect_fast;
use illixr_vio::integrator::ImuState;
use illixr_vio::msckf::{Msckf, VioConfig};

/// FNV-1a over each word's little-endian bytes, in order.
fn digest(words: impl IntoIterator<Item = u64>) -> u64 {
    fnv1a(words.into_iter().flat_map(u64::to_le_bytes))
}

fn state_bits(s: &ImuState) -> [u64; 10] {
    let (p, q, v) = (s.pose.position, s.pose.orientation, s.velocity);
    [p.x, p.y, p.z, q.w, q.x, q.y, q.z, v.x, v.y, v.z].map(f64::to_bits)
}

fn rig() -> StereoRig {
    StereoRig::zed_mini(PinholeCamera::qvga())
}

/// 30 camera frames (2 s at 15 Hz) of the sequence the perf pipeline
/// trace runs.
fn dataset() -> SyntheticDataset {
    let ds = SyntheticDataset::vicon_room_like(11, 2.0);
    assert_eq!(ds.camera_times.len(), 30);
    ds
}

fn ground_truth_start(ds: &SyntheticDataset) -> ImuState {
    let gt0 = ds.ground_truth[0];
    ImuState::from_pose(gt0.timestamp, gt0.pose, gt0.velocity)
}

fn msckf_digest(config: VioConfig) -> u64 {
    let (ds, rig) = (dataset(), rig());
    let mut filter = Msckf::new(config, ground_truth_start(&ds));
    digest(ds.replay(&rig).flat_map(|(imu, frame)| {
        imu.iter().for_each(|&s| filter.process_imu(s));
        let out = filter.process_frame(&frame.stereo(), None);
        let counts = [out.tracked_features as u64, out.update_rows as u64];
        state_bits(&out.state).into_iter().chain(counts)
    }))
}

#[test]
fn msckf_poses_are_pinned() {
    let cam = PinholeCamera::qvga();
    let got = [VioConfig::fast(cam), VioConfig::accurate(cam)].map(msckf_digest);
    let want = [0xabe6_7a14_c580_9ee9, 0xd9df_5b81_c962_546b];
    assert_eq!(got, want, "got {got:#018x?}");
}

#[test]
fn frame_to_frame_poses_are_pinned() {
    let (ds, rig) = (dataset(), rig());
    let mut vio = FrameToFrameVio::new(FrameToFrameConfig::default(), rig, ground_truth_start(&ds));
    let got = digest(ds.replay(&rig).flat_map(|(imu, frame)| {
        imu.iter().for_each(|&s| vio.process_imu(s));
        let out = vio.process_frame(&frame.stereo(), None);
        let counts = [out.points_used as u64, out.map_size as u64];
        state_bits(&out.state).into_iter().chain(counts)
    }));
    assert_eq!(got, 0x8ec9_48c1_c2e1_bb85, "got {got:#018x}");
}

/// The candidate list in order: position, score bits, and so the grid
/// suppression and the sort as well.
#[test]
fn fast_corners_are_pinned() {
    let (rig, ds) = (rig(), dataset());
    let mut words = Vec::new();
    let mut total = 0;
    for k in [0, 7, 29] {
        let (left, right) = ds.render_frame(&rig, k);
        for img in [&left, &right] {
            let corners = detect_fast(img, 0.12, 140, 24);
            total += corners.len();
            words.push(corners.len() as u64);
            for c in corners {
                words.extend([c.x.to_bits(), c.y.to_bits(), c.score.to_bits()].map(u64::from));
            }
        }
    }
    assert!(total > 100, "only {total} corners over six images");
    let got = digest(words);
    assert_eq!(got, 0x1186_90c2_05f3_9ec9, "got {got:#018x}");
}
