//! The application renderer: a from-scratch software rasterizer plus the
//! four XR applications of paper §III-C.
//!
//! In ILLIXR the "application" is everything above the OpenXR API — a
//! Godot game engine running Sponza, Materials, Platformer or a custom
//! AR demo. It renders the *eye buffers* that the visual pipeline then
//! reprojects. This crate reproduces that role:
//!
//! * [`mesh`] — vertex/triangle meshes with procedural primitives;
//! * [`raster`] — an MVP-transform + z-buffered Gouraud rasterizer
//!   (the GPU-graphics stand-in);
//! * [`apps`] — the four applications, graded by rendering complexity
//!   exactly like the paper's (Sponza most intensive, AR Demo least),
//!   with Platformer carrying simple physics/collision animation;
//! * [`plugin`] — the `application` plugin: samples the latest
//!   `fast_pose` (asynchronous dependence, Fig 2), renders a stereo eye
//!   buffer and submits it on the `eyebuffer` stream.

pub mod apps;
pub mod mesh;
pub mod plugin;
pub mod raster;

pub use apps::{AppScene, Application};
pub use plugin::{ApplicationPlugin, RenderedFrame, EYEBUFFER_STREAM};
pub use raster::Rasterizer;
