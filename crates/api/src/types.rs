//! The session vocabulary: modes, features, frames, input and hit-test
//! payloads.
//!
//! The names deliberately mirror the WebXR Device API (`XRSessionMode`,
//! feature descriptors, `XRFrame`, input `select`/`squeeze` events,
//! `XRHitTestResult`) so the front-end reads like the standard it
//! models, while every payload stays a plain deterministic value type
//! that can be published on a switchboard topic and compared
//! bit-for-bit across reruns.

use illixr_core::Time;
use illixr_math::{Pose, Quat, Vec3};

use crate::error::SessionError;

/// Interpupillary distance used for stereo view construction, matching
/// the renderer's camera separation.
pub(crate) const IPD: f64 = illixr_render::plugin::IPD;

/// How the session's output relates to the user's view of the world
/// (WebXR `XRSessionMode`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SessionMode {
    /// Rendering into a flat on-screen element; no exclusive display.
    Inline,
    /// Exclusive head-mounted display, fully synthetic environment.
    ImmersiveVr,
    /// Exclusive display composited over the real world.
    ImmersiveAr,
}

impl SessionMode {
    /// All modes, in negotiation-table order.
    pub const ALL: [SessionMode; 3] =
        [SessionMode::Inline, SessionMode::ImmersiveVr, SessionMode::ImmersiveAr];

    /// Stable lowercase label for reports.
    pub fn label(self) -> &'static str {
        match self {
            SessionMode::Inline => "inline",
            SessionMode::ImmersiveVr => "immersive-vr",
            SessionMode::ImmersiveAr => "immersive-ar",
        }
    }

    /// Features every session of this mode is granted without asking,
    /// mirroring WebXR's default feature sets (`viewer` everywhere,
    /// `local` for immersive sessions).
    pub(crate) fn default_features(self) -> &'static [Feature] {
        match self {
            SessionMode::Inline => &[Feature::Viewer],
            SessionMode::ImmersiveVr | SessionMode::ImmersiveAr => {
                &[Feature::Viewer, Feature::Local]
            }
        }
    }

    /// How this mode's rendered output is blended with reality.
    pub(crate) fn blend_mode(self) -> EnvironmentBlendMode {
        match self {
            SessionMode::ImmersiveAr => EnvironmentBlendMode::AlphaBlend,
            _ => EnvironmentBlendMode::Opaque,
        }
    }
}

/// How rendered pixels combine with the physical environment
/// (WebXR `XREnvironmentBlendMode`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnvironmentBlendMode {
    /// Rendered pixels fully replace the view (VR, inline).
    Opaque,
    /// Rendered pixels are alpha-composited over a camera or optical
    /// see-through view (AR).
    AlphaBlend,
}

impl EnvironmentBlendMode {
    /// Stable lowercase label for reports.
    pub fn label(self) -> &'static str {
        match self {
            EnvironmentBlendMode::Opaque => "opaque",
            EnvironmentBlendMode::AlphaBlend => "alpha-blend",
        }
    }
}

/// A capability a session can request at creation (WebXR feature
/// descriptor).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Feature {
    /// Poses relative to the viewer itself. Always available.
    Viewer,
    /// A stationary tracking space near the session's start pose.
    Local,
    /// A tracking space whose origin sits on the floor.
    LocalFloor,
    /// Articulated hand-joint poses on input sources.
    HandTracking,
    /// Ray-cast queries against world geometry.
    HitTest,
    /// Persistent world-locked spatial anchors.
    Anchors,
}

impl Feature {
    /// Every feature, in the canonical order used for granted lists.
    pub(crate) const ALL: [Feature; 6] = [
        Feature::Viewer,
        Feature::Local,
        Feature::LocalFloor,
        Feature::HandTracking,
        Feature::HitTest,
        Feature::Anchors,
    ];

    /// Stable kebab-case name matching the WebXR descriptor strings.
    pub fn name(self) -> &'static str {
        match self {
            Feature::Viewer => "viewer",
            Feature::Local => "local",
            Feature::LocalFloor => "local-floor",
            Feature::HandTracking => "hand-tracking",
            Feature::HitTest => "hit-test",
            Feature::Anchors => "anchors",
        }
    }
}

/// Requested features for a new session (WebXR `XRSessionInit`).
///
/// `required_features` must all be supported by the backend or session
/// creation fails with [`SessionError::RequiredFeatureDenied`];
/// `optional_features` are granted when supported and silently dropped
/// otherwise.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SessionInit {
    /// Features the session cannot function without.
    pub required_features: Vec<Feature>,
    /// Features the session would like but can live without.
    pub optional_features: Vec<Feature>,
}

impl SessionInit {
    /// An empty request: mode defaults only.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds required features (builder style).
    pub fn required(mut self, features: &[Feature]) -> Self {
        self.required_features.extend_from_slice(features);
        self
    }

    /// Adds optional features (builder style).
    pub fn optional(mut self, features: &[Feature]) -> Self {
        self.optional_features.extend_from_slice(features);
        self
    }

    /// Negotiates this request against a backend's supported feature
    /// set for `mode`.
    ///
    /// The granted list is mode defaults ∪ required ∪ (optional ∩
    /// supported), deduplicated in [`Feature::ALL`] order so it is
    /// deterministic regardless of request ordering.
    ///
    /// # Errors
    ///
    /// [`SessionError::RequiredFeatureDenied`] naming the first
    /// required feature (in request order) the backend lacks.
    pub(crate) fn negotiate(
        &self,
        mode: SessionMode,
        supported: &[Feature],
    ) -> Result<Vec<Feature>, SessionError> {
        let defaults = mode.default_features();
        for feature in &self.required_features {
            if !supported.contains(feature) && !defaults.contains(feature) {
                return Err(SessionError::RequiredFeatureDenied(*feature));
            }
        }
        Ok(Feature::ALL
            .into_iter()
            .filter(|f| {
                defaults.contains(f)
                    || self.required_features.contains(f)
                    || (self.optional_features.contains(f) && supported.contains(f))
            })
            .collect())
    }
}

/// Which eye a view renders for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Eye {
    /// Monoscopic center view (inline sessions).
    Center,
    /// Left eye of a stereo pair.
    Left,
    /// Right eye of a stereo pair.
    Right,
}

/// One render viewpoint within a frame (WebXR `XRView`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct View {
    /// Which eye this view belongs to.
    pub eye: Eye,
    /// The view's pose in the tracking space.
    pub pose: Pose,
    /// Vertical field of view, radians.
    pub fov_y: f64,
}

/// Vertical field of view shared by every constructed view, radians.
const FOV_Y: f64 = 1.57;

/// Builds the per-mode view list for a viewer pose: one centered view
/// for inline sessions, a stereo pair with eyes [`IPD`] apart for
/// immersive ones.
pub(crate) fn views_for(mode: SessionMode, viewer: &Pose) -> Vec<View> {
    match mode {
        SessionMode::Inline => vec![View { eye: Eye::Center, pose: *viewer, fov_y: FOV_Y }],
        SessionMode::ImmersiveVr | SessionMode::ImmersiveAr => {
            let eye = |side: f64, which: Eye| View {
                eye: which,
                pose: Pose::new(
                    viewer.position + viewer.orientation.rotate(Vec3::new(side, 0.0, 0.0)),
                    viewer.orientation,
                ),
                fov_y: FOV_Y,
            };
            vec![eye(-IPD / 2.0, Eye::Left), eye(IPD / 2.0, Eye::Right)]
        }
    }
}

/// Which hand an input source is held in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Handedness {
    /// Left-hand controller.
    Left,
    /// Right-hand controller.
    Right,
}

/// Per-frame snapshot of one input source (controller or tracked hand).
#[derive(Debug, Clone, PartialEq)]
pub struct InputState {
    /// Stable source id (0 = left controller, 1 = right).
    pub source: u32,
    /// Which hand holds the source.
    pub hand: Handedness,
    /// Grip pose in the tracking space.
    pub grip: Pose,
    /// Primary trigger held this frame.
    pub select_pressed: bool,
    /// Grip squeeze held this frame.
    pub squeeze_pressed: bool,
    /// Articulated joint poses, present when `hand-tracking` was
    /// granted.
    pub hand_joints: Option<Vec<Pose>>,
}

/// What changed on an input source (WebXR `selectstart` /
/// `selectend` / `squeezestart` / `squeezeend`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InputEventKind {
    /// Primary trigger went down.
    SelectStart,
    /// Primary trigger released.
    SelectEnd,
    /// Squeeze went down.
    SqueezeStart,
    /// Squeeze released.
    SqueezeEnd,
}

impl InputEventKind {
    /// Stable lowercase label for reports.
    pub fn label(self) -> &'static str {
        match self {
            InputEventKind::SelectStart => "select-start",
            InputEventKind::SelectEnd => "select-end",
            InputEventKind::SqueezeStart => "squeeze-start",
            InputEventKind::SqueezeEnd => "squeeze-end",
        }
    }
}

/// An edge-triggered input event, derived by the session from
/// consecutive [`InputState`] snapshots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InputEvent {
    /// Frame index the transition was observed on.
    pub frame: u64,
    /// Frame timestamp.
    pub time: Time,
    /// Input source id.
    pub source: u32,
    /// Which transition happened.
    pub kind: InputEventKind,
}

/// A ray for hit-test queries, in the tracking space.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ray {
    /// Ray origin.
    pub origin: Vec3,
    /// Ray direction (need not be normalized).
    pub direction: Vec3,
}

/// One intersection from a hit-test subscription (WebXR
/// `XRHitTestResult`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HitTestResult {
    /// The subscription id this result answers.
    pub source: u32,
    /// Parametric distance along the ray.
    pub t: f64,
    /// Intersection point in the tracking space.
    pub point: Vec3,
}

/// All hit-test results for one frame.
#[derive(Debug, Clone, PartialEq)]
pub struct HitTestEvent {
    /// Frame index the query ran on.
    pub frame: u64,
    /// Frame timestamp.
    pub time: Time,
    /// Results across every active subscription, in subscription order.
    pub results: Vec<HitTestResult>,
}

/// One delivered frame: the per-vsync pose/view/input snapshot the
/// application renders from (WebXR `XRFrame`).
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// Monotonic frame index within the session, from 0.
    pub index: u64,
    /// Predicted display time.
    pub time: Time,
    /// Viewer (head) pose in the tracking space.
    pub viewer: Pose,
    /// Render views derived from the viewer pose.
    pub views: Vec<View>,
    /// Input source snapshots this frame.
    pub inputs: Vec<InputState>,
}

/// Deterministic scripted controller input: the session builds every
/// frame's input from the backend's seed.
///
/// Two sources (left/right) follow the viewer with fixed grip offsets;
/// button state is a pure function of `(seed, frame_index, source)` so
/// identical configurations replay identical input streams.
pub(crate) fn scripted_input(
    seed: u64,
    frame_index: u64,
    viewer: &Pose,
    hands: bool,
) -> Vec<InputState> {
    let mut states = Vec::with_capacity(2);
    for source in 0..2u32 {
        let phase = seed.wrapping_mul(2_654_435_761).wrapping_add(u64::from(source) * 97) % 16;
        let select = (frame_index + phase) % 24 < 6;
        let squeeze = (frame_index + phase * 3) % 40 < 8;
        let side = if source == 0 { -0.2 } else { 0.2 };
        let grip_offset = viewer.orientation.rotate(Vec3::new(side, -0.25, -0.35));
        let grip = Pose::new(viewer.position + grip_offset, viewer.orientation);
        let hand_joints = hands.then(|| {
            (0..5)
                .map(|j| {
                    let d = 0.02 * f64::from(j);
                    Pose::new(
                        grip.position + grip.orientation.rotate(Vec3::new(0.0, d, -d)),
                        grip.orientation,
                    )
                })
                .collect()
        });
        states.push(InputState {
            source,
            hand: if source == 0 { Handedness::Left } else { Handedness::Right },
            grip,
            select_pressed: select,
            squeeze_pressed: squeeze,
            hand_joints,
        });
    }
    states
}

/// Intersects `ray` with the horizontal plane `y = floor_y`, the world
/// geometry the session answers every `hit-test` subscription with.
pub(crate) fn floor_hit(ray: &Ray, floor_y: f64, source: u32) -> Option<HitTestResult> {
    if ray.direction.y.abs() < 1e-9 {
        return None;
    }
    let t = (floor_y - ray.origin.y) / ray.direction.y;
    if t <= 0.0 {
        return None;
    }
    Some(HitTestResult { source, t, point: ray.origin + ray.direction * t })
}

/// A viewer quaternion formatted for transcripts.
pub(crate) fn fmt_quat(q: &Quat) -> String {
    format!("({:.4},{:.4},{:.4},{:.4})", q.w, q.x, q.y, q.z)
}

/// A vector formatted for transcripts.
pub(crate) fn fmt_vec(v: &Vec3) -> String {
    format!("({:.4},{:.4},{:.4})", v.x, v.y, v.z)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn negotiation_grants_defaults_required_and_supported_optionals() {
        let init = SessionInit::new()
            .required(&[Feature::LocalFloor])
            .optional(&[Feature::Anchors, Feature::HandTracking]);
        let supported = [Feature::LocalFloor, Feature::HandTracking];
        let granted = init.negotiate(SessionMode::ImmersiveVr, &supported).unwrap();
        // Anchors was optional and unsupported: silently dropped.
        assert_eq!(
            granted,
            vec![Feature::Viewer, Feature::Local, Feature::LocalFloor, Feature::HandTracking]
        );
    }

    #[test]
    fn negotiation_order_is_canonical_regardless_of_request_order() {
        let supported = Feature::ALL;
        let a = SessionInit::new()
            .required(&[Feature::Anchors, Feature::LocalFloor])
            .negotiate(SessionMode::Inline, &supported)
            .unwrap();
        let b = SessionInit::new()
            .required(&[Feature::LocalFloor, Feature::Anchors])
            .negotiate(SessionMode::Inline, &supported)
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn required_unsupported_feature_is_denied() {
        let err = SessionInit::new()
            .required(&[Feature::HitTest])
            .negotiate(SessionMode::ImmersiveVr, &[Feature::LocalFloor])
            .unwrap_err();
        assert_eq!(err, SessionError::RequiredFeatureDenied(Feature::HitTest));
    }

    #[test]
    fn scripted_input_is_deterministic() {
        let pose = Pose::IDENTITY;
        assert_eq!(scripted_input(7, 3, &pose, true), scripted_input(7, 3, &pose, true));
        let sequence = |seed: u64| -> Vec<bool> {
            (0..24).map(|i| scripted_input(seed, i, &pose, false)[0].select_pressed).collect()
        };
        assert_ne!(sequence(7), sequence(8));
    }

    #[test]
    fn floor_hit_intersects_downward_rays_only() {
        let down = Ray { origin: Vec3::new(0.0, 1.6, 0.0), direction: Vec3::new(0.0, -1.0, 0.0) };
        let hit = floor_hit(&down, 0.0, 3).unwrap();
        assert_eq!(hit.source, 3);
        assert!((hit.t - 1.6).abs() < 1e-12);
        assert!(hit.point.y.abs() < 1e-12);
        let up = Ray { origin: down.origin, direction: Vec3::new(0.0, 1.0, 0.0) };
        assert!(floor_hit(&up, 0.0, 0).is_none());
    }

    #[test]
    fn stereo_views_sit_ipd_apart() {
        let views = views_for(SessionMode::ImmersiveVr, &Pose::IDENTITY);
        assert_eq!(views.len(), 2);
        let sep = (views[1].pose.position - views[0].pose.position).norm();
        assert!((sep - IPD).abs() < 1e-12);
        assert_eq!(views_for(SessionMode::Inline, &Pose::IDENTITY).len(), 1);
    }
}
