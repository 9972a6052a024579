//! Record/replay determinism boundary for the ILLIXR testbed.
//!
//! The testbed's runs are already same-seed deterministic; this crate
//! makes them *portable* in time. Following the Boomerang rule —
//! record every physical input (value + tag) at the boundary, replay
//! the recorded values instead of regenerating them — a recorded run
//! can be reproduced bit-for-bit without the generators, the fault
//! RNG, or the original configuration of either. One recorded session
//! can then be fanned out into N synthetic sessions via deterministic
//! per-session phase-jitter and time-dilation transforms, turning a
//! single trace into a scalable load generator.
//!
//! * **[`mod@format`]** — [`Trace`], [`TraceHeader`], [`TraceRecord`]: the
//!   versioned, length-prefixed binary container.
//! * **[`checkpoint`]** — [`Checkpoint`]: the `ILXC` snapshot sibling
//!   of the trace container — versioned, length-prefixed, strictly
//!   decoded session-state snapshots for crash-consistent failover,
//!   plus the crash-record replay contract docs.
//! * **[`codec`]** — the one strict decoder: bounds-checked
//!   little-endian primitives, the steps every format repeats, and
//!   [`DecodeError`], shared by both containers and the boundary
//!   payloads (each a [`Wire`] type), plus [`ReplayError`].
//! * **[`recorder`]** — [`TraceRecorder`]: a cloneable sink the wiring
//!   points call with `(stream, tag_ns, payload)`.
//! * **[`source`]** — [`TraceSource`]: cursor-per-stream replay with an
//!   optional [`SessionTransform`] applied to every tag.
//! * **[`transform`]** — [`SessionTransform`] and the deterministic
//!   fan-out derivation (session 0 is always the identity).
//! * **[`divergence`]** — first-diverging-record reports so golden
//!   tests fail with `(stream, tag_ns)` coordinates, not a bare assert.
//! * **[`hash`]** — [`fnv1a`] and [`splitmix64`], the repository's one
//!   content hash and one mixer: config hashes, flow ids, the shard map,
//!   fault trials, fan-out transforms and every bit pin's digest; and
//!   [`Xoshiro256pp`], the one seeded generator, with [`unit_f64`], the
//!   one bits → `[0, 1)` conversion.
//!
//! This crate is the bottom of the four std-only crates under
//! `illixr-core` (`illixr-obs`, `illixr-sched` and `illixr-fault` take
//! their hashes from it) and depends on nothing: all timestamps are raw
//! `u64` nanoseconds and all payloads opaque bytes, so sensors, links
//! and the multi-session server share one trace vocabulary.

pub mod checkpoint;
pub mod codec;
pub mod divergence;
pub mod format;
pub mod hash;
pub mod recorder;
pub mod source;
pub mod transform;

pub use checkpoint::{Checkpoint, CHECKPOINT_SCHEMA_VERSION};
pub use codec::{ByteReader, ByteWriter, DecodeError, ReplayCause, ReplayError, Wire};
pub use divergence::{first_divergence, Divergence};
pub use format::{Trace, TraceHeader, TraceRecord, SCHEMA_VERSION};
pub use hash::{fnv1a, splitmix64, unit_f64, Xoshiro256pp};
pub use recorder::TraceRecorder;
pub use source::TraceSource;
pub use transform::{fan_out_transform, SessionTransform};
