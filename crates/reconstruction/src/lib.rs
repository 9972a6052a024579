//! Scene reconstruction: dense 3-D mapping from depth frames.
//!
//! Reproduces the ElasticFusion/KinectFusion component of Table II with
//! the task structure of Table VI:
//!
//! | paper task | module |
//! |---|---|
//! | camera processing (bilateral filter, invalid-depth rejection) | [`maps`] |
//! | image processing (live vertices and normals, read per pixel) | [`maps`] |
//! | pose estimation (point-to-plane ICP) | [`icp`] |
//! | surfel prediction (raycast of the model) | [`tsdf`], [`surfel`] |
//! | map fusion | [`tsdf`], [`surfel`] |
//!
//! Two map backends are provided — a TSDF voxel volume
//! (KinectFusion-style) and a surfel map (ElasticFusion-style) — behind
//! the same [`pipeline::ScenePipeline`]. The surfel map performs a
//! periodic global refinement pass whose cost grows with map size,
//! reproducing the paper's observation that reconstruction time "keeps
//! steadily increasing due to the increasing size of its map" with
//! loop-closure spikes an order of magnitude above the mean (§IV-B).

pub mod icp;
pub mod maps;
pub mod pipeline;
pub mod plugin;
pub mod surfel;
pub mod tsdf;

pub use icp::icp_point_to_plane_gated;
pub use maps::{normal_map, vertex_map, NormalMap, VertexMap};
pub use pipeline::ScenePipeline;
pub use plugin::SceneReconstructionPlugin;
pub use tsdf::TsdfVolume;
