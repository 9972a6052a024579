//! The backend-facing trait: everything a [`crate::Session`] needs from
//! whatever is actually producing poses.

use illixr_core::Time;
use illixr_math::Pose;

/// One opened device: the backend half of a session, reduced to the
/// viewer poses it displays.
///
/// A device is created by a [`crate::Discovery`] once negotiation
/// succeeds and is owned by the [`crate::Session`], which builds every
/// [`crate::Frame`] from the next pose (views, scripted input) and
/// answers hit-tests itself. Implementations must be deterministic: the
/// same backend configuration must replay the same timeline
/// bit-for-bit.
pub trait PoseTimeline: Send {
    /// The next displayed `(time, viewer pose)`, or `None` once the
    /// timeline is exhausted (which ends the session).
    fn next_pose(&mut self) -> Option<(Time, Pose)>;

    /// A deterministic backend-specific run report (the remote backend
    /// returns the server's `summary_text()`).
    fn report(&self) -> String;
}
