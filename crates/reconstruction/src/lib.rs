//! Scene reconstruction: dense 3-D mapping from depth frames.
//!
//! Reproduces the ElasticFusion component of Table II with the task
//! structure of Table VI (KinectFusion is not reproduced):
//!
//! | paper task | module |
//! |---|---|
//! | camera processing (bilateral filter, invalid-depth rejection) | [`maps`] |
//! | image processing (live vertices and normals, read per pixel) | [`maps`] |
//! | pose estimation (point-to-plane ICP) | [`icp`] |
//! | surfel prediction (splat of the surfel map) | [`pipeline`] |
//! | map fusion | [`surfel`] |
//!
//! [`pipeline::ScenePipeline`] runs the five tasks over one surfel map,
//! whose periodic global refinement pass costs more as the map grows,
//! reproducing the paper's observation that reconstruction time "keeps
//! steadily increasing due to the increasing size of its map" with
//! loop-closure spikes an order of magnitude above the mean (§IV-B).
//! [`tsdf::TsdfVolume`]'s integration is a fusion kernel that no pipeline
//! runs; it stays only because `perf/` times it.

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
