//! Triangle meshes and procedural primitives.

use illixr_math::{Mat4, Vec3};

/// A mesh vertex.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Vertex {
    /// Object-space position.
    pub position: Vec3,
    /// Object-space normal.
    pub normal: Vec3,
    /// Base color (linear RGB).
    pub color: [f32; 3],
}

/// An indexed triangle mesh.
#[derive(Debug, Clone, Default)]
pub(crate) struct Mesh {
    /// Vertices.
    pub vertices: Vec<Vertex>,
    /// Triangle index triples.
    pub indices: Vec<[u32; 3]>,
}

impl Mesh {
    /// Creates an empty mesh.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Number of triangles.
    pub(crate) fn triangle_count(&self) -> usize {
        self.indices.len()
    }

    /// Appends another mesh transformed by `transform`.
    pub(crate) fn append(&mut self, other: &Mesh, transform: &Mat4) {
        let base = self.vertices.len() as u32;
        for v in &other.vertices {
            self.vertices.push(Vertex {
                position: transform.transform_point(v.position),
                normal: transform.transform_vector(v.normal).normalized(),
                color: v.color,
            });
        }
        for idx in &other.indices {
            self.indices.push([idx[0] + base, idx[1] + base, idx[2] + base]);
        }
    }

    /// An axis-aligned box of the given half-extents.
    pub(crate) fn cuboid(half: Vec3, color: [f32; 3]) -> Self {
        let mut mesh = Self::new();
        let faces: [(Vec3, Vec3, Vec3); 6] = [
            (Vec3::UNIT_Z, Vec3::UNIT_X, Vec3::UNIT_Y),
            (-Vec3::UNIT_Z, -Vec3::UNIT_X, Vec3::UNIT_Y),
            (Vec3::UNIT_X, -Vec3::UNIT_Z, Vec3::UNIT_Y),
            (-Vec3::UNIT_X, Vec3::UNIT_Z, Vec3::UNIT_Y),
            (Vec3::UNIT_Y, Vec3::UNIT_X, -Vec3::UNIT_Z),
            (-Vec3::UNIT_Y, Vec3::UNIT_X, Vec3::UNIT_Z),
        ];
        for (n, u, v) in faces {
            let c = n.component_mul(half);
            let uu = u.component_mul(half);
            let vv = v.component_mul(half);
            let base = mesh.vertices.len() as u32;
            for (su, sv) in [(-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0)] {
                mesh.vertices.push(Vertex { position: c + uu * su + vv * sv, normal: n, color });
            }
            mesh.indices.push([base, base + 1, base + 2]);
            mesh.indices.push([base, base + 2, base + 3]);
        }
        mesh
    }

    /// A UV sphere.
    pub(crate) fn sphere(radius: f64, rings: usize, sectors: usize, color: [f32; 3]) -> Self {
        assert!(rings >= 2 && sectors >= 3, "sphere tessellation too coarse");
        let mut mesh = Self::new();
        for r in 0..=rings {
            let phi = std::f64::consts::PI * r as f64 / rings as f64;
            for s in 0..=sectors {
                let theta = 2.0 * std::f64::consts::PI * s as f64 / sectors as f64;
                let n = Vec3::new(phi.sin() * theta.cos(), phi.cos(), phi.sin() * theta.sin());
                mesh.vertices.push(Vertex { position: n * radius, normal: n, color });
            }
        }
        let stride = (sectors + 1) as u32;
        for r in 0..rings as u32 {
            for s in 0..sectors as u32 {
                let a = r * stride + s;
                let b = a + stride;
                mesh.indices.push([a, b, a + 1]);
                mesh.indices.push([a + 1, b, b + 1]);
            }
        }
        mesh
    }

    /// A vertical cylinder (for columns).
    pub(crate) fn cylinder(radius: f64, height: f64, sectors: usize, color: [f32; 3]) -> Self {
        assert!(sectors >= 3, "cylinder tessellation too coarse");
        let mut mesh = Self::new();
        let half = height / 2.0;
        for s in 0..=sectors {
            let theta = 2.0 * std::f64::consts::PI * s as f64 / sectors as f64;
            let n = Vec3::new(theta.cos(), 0.0, theta.sin());
            mesh.vertices.push(Vertex {
                position: n * radius + Vec3::new(0.0, -half, 0.0),
                normal: n,
                color,
            });
            mesh.vertices.push(Vertex {
                position: n * radius + Vec3::new(0.0, half, 0.0),
                normal: n,
                color,
            });
        }
        for s in 0..sectors as u32 {
            let a = 2 * s;
            mesh.indices.push([a, a + 2, a + 1]);
            mesh.indices.push([a + 1, a + 2, a + 3]);
        }
        mesh
    }

    /// A horizontal plane (floor) at y=0 spanning ±half with a grid of
    /// `cells²` quads (so lighting interpolates nicely).
    pub(crate) fn floor(half: f64, cells: usize, color: [f32; 3]) -> Self {
        let cells = cells.max(1);
        let mut mesh = Self::new();
        let step = 2.0 * half / cells as f64;
        for i in 0..=cells {
            for j in 0..=cells {
                mesh.vertices.push(Vertex {
                    position: Vec3::new(-half + i as f64 * step, 0.0, -half + j as f64 * step),
                    normal: Vec3::UNIT_Y,
                    color,
                });
            }
        }
        let stride = (cells + 1) as u32;
        for i in 0..cells as u32 {
            for j in 0..cells as u32 {
                let a = i * stride + j;
                mesh.indices.push([a, a + 1, a + stride]);
                mesh.indices.push([a + 1, a + stride + 1, a + stride]);
            }
        }
        mesh
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cuboid_has_12_triangles() {
        let m = Mesh::cuboid(Vec3::splat(1.0), [1.0, 0.0, 0.0]);
        assert_eq!(m.triangle_count(), 12);
        assert_eq!(m.vertices.len(), 24);
    }

    #[test]
    fn sphere_vertices_on_radius() {
        let m = Mesh::sphere(2.0, 8, 12, [1.0; 3]);
        for v in &m.vertices {
            assert!((v.position.norm() - 2.0).abs() < 1e-9);
            assert!((v.normal.norm() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn append_transforms_positions() {
        let mut a = Mesh::new();
        let b = Mesh::cuboid(Vec3::splat(0.5), [0.0, 1.0, 0.0]);
        let t = Mat4::from_rotation_translation(
            illixr_math::Mat3::identity(),
            Vec3::new(10.0, 0.0, 0.0),
        );
        a.append(&b, &t);
        assert_eq!(a.triangle_count(), 12);
        assert!(a.vertices.iter().all(|v| v.position.x > 9.0));
    }

    #[test]
    fn floor_triangle_count_scales_with_cells() {
        let m = Mesh::floor(5.0, 4, [0.5; 3]);
        assert_eq!(m.triangle_count(), 4 * 4 * 2);
    }

    #[test]
    fn indices_in_range() {
        for m in [
            Mesh::cuboid(Vec3::splat(1.0), [1.0; 3]),
            Mesh::sphere(1.0, 6, 8, [1.0; 3]),
            Mesh::cylinder(0.5, 2.0, 10, [1.0; 3]),
            Mesh::floor(1.0, 3, [1.0; 3]),
        ] {
            let n = m.vertices.len() as u32;
            assert!(m.indices.iter().all(|t| t.iter().all(|&i| i < n)));
        }
    }
}
