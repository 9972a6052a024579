//! Stereo triangulation accuracy: the front end's KLT disparity against
//! known landmark depths — guards against systematic depth bias, which
//! would silently poison every map-based consumer.

use illixr_testbed::math::Pose;
use illixr_testbed::sensors::camera::{PinholeCamera, StereoRig};
use illixr_testbed::sensors::world::LandmarkWorld;
use illixr_testbed::vio::frontend::{FrontEnd, FrontEndParams};

#[test]
fn stereo_depth_from_frontend_disparity_is_unbiased() {
    let rig = StereoRig::zed_mini(PinholeCamera::qvga());
    let world = LandmarkWorld::lab(27);
    let pose = Pose::IDENTITY;
    let (left, right) = world.render_stereo(&rig, &pose);
    let mut fe = FrontEnd::new(FrontEndParams::default());
    let tracks = fe.process(&left, &right, None);
    let mut errs = Vec::new();
    for t in &tracks {
        let Some(r) = t.right else { continue };
        let disparity = t.left.x - r.x;
        let Some(depth) = rig.depth_from_disparity(disparity) else { continue };
        // true depth: nearest landmark to the ray
        let ray =
            rig.camera.unproject(illixr_testbed::math::Vec2::new(t.left.x, t.left.y)).normalized();
        let mut best = (f64::INFINITY, 0.0);
        for &lm in world.landmarks() {
            let p = pose.inverse().transform_point(lm);
            if p.z < 0.1 {
                continue;
            }
            let perp = (p - ray * p.dot(ray)).norm();
            if perp < best.0 {
                best = (perp, p.z);
            }
        }
        if best.0 < 0.15 {
            errs.push((best.1, depth, disparity));
        }
    }
    assert!(errs.len() >= 10, "too few landmark-matched stereo tracks: {}", errs.len());
    let mean_rel: f64 = errs.iter().map(|(t, e, _)| (e - t) / t).sum::<f64>() / errs.len() as f64;
    let worst_rel: f64 = errs.iter().map(|(t, e, _)| ((e - t) / t).abs()).fold(0.0, f64::max);
    assert!(mean_rel.abs() < 0.01, "systematic depth bias {:+.2}%", mean_rel * 100.0);
    assert!(worst_rel < 0.05, "worst relative depth error {:.2}%", worst_rel * 100.0);
}
