//! A z-buffered Gouraud-shading software rasterizer — the GPU-graphics
//! substrate of the application and (indirectly) of reprojection's input.

use illixr_image::RgbImage;
use illixr_math::{Mat4, Vec3, Vec4};

use crate::mesh::Mesh;

/// Render statistics for one draw.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DrawStats {
    /// Triangles submitted.
    pub triangles_in: usize,
    /// Triangles surviving clipping/culling.
    pub triangles_rasterized: usize,
    /// Fragments shaded (z-test passes).
    pub fragments: usize,
}

/// The rasterizer: owns a color and depth buffer.
#[derive(Debug)]
pub struct Rasterizer {
    width: usize,
    height: usize,
    color: RgbImage,
    depth: Vec<f32>,
    /// Directional light (world space, normalized).
    pub light_dir: Vec3,
    /// Ambient light intensity.
    pub ambient: f32,
}

impl Rasterizer {
    /// Creates a rasterizer with the given framebuffer size.
    ///
    /// # Panics
    ///
    /// Panics when either dimension is zero.
    pub fn new(width: usize, height: usize) -> Self {
        assert!(width > 0 && height > 0, "framebuffer must be non-empty");
        Self {
            width,
            height,
            color: RgbImage::new(width, height),
            depth: vec![f32::INFINITY; width * height],
            light_dir: Vec3::new(0.4, 1.0, 0.3).normalized(),
            ambient: 0.25,
        }
    }

    /// Clears color (to `clear_color`) and depth.
    pub(crate) fn clear(&mut self, clear_color: [f32; 3]) {
        for p in self.color.as_mut_slice() {
            *p = clear_color;
        }
        for d in &mut self.depth {
            *d = f32::INFINITY;
        }
    }

    /// The current color buffer.
    pub fn framebuffer(&self) -> &RgbImage {
        &self.color
    }

    /// Consumes the rasterizer's framebuffer (cheap handoff to the
    /// visual pipeline).
    pub fn take_framebuffer(&mut self) -> RgbImage {
        std::mem::replace(&mut self.color, RgbImage::new(self.width, self.height))
    }

    /// Draws a mesh with the given model and view-projection matrices.
    pub(crate) fn draw(&mut self, mesh: &Mesh, model: &Mat4, view_proj: &Mat4) -> DrawStats {
        let mvp = *view_proj * *model;
        let mut stats = DrawStats { triangles_in: mesh.triangle_count(), ..Default::default() };
        // Transform + shade vertices.
        struct Shaded {
            clip: Vec4,
            lit: [f32; 3],
        }
        let shaded: Vec<Shaded> = mesh
            .vertices
            .iter()
            .map(|v| {
                let clip = mvp * v.position.extend(1.0);
                let n_world = model.transform_vector(v.normal).normalized();
                let diffuse = n_world.dot(self.light_dir).max(0.0) as f32;
                let l = self.ambient + (1.0 - self.ambient) * diffuse;
                Shaded { clip, lit: [v.color[0] * l, v.color[1] * l, v.color[2] * l] }
            })
            .collect();
        for tri in &mesh.indices {
            let (a, b, c) =
                (&shaded[tri[0] as usize], &shaded[tri[1] as usize], &shaded[tri[2] as usize]);
            // Near-plane reject (no clipping — scenes keep geometry in
            // front of the camera).
            if a.clip.w <= 1e-6 || b.clip.w <= 1e-6 || c.clip.w <= 1e-6 {
                continue;
            }
            let pa = self.to_screen(a.clip);
            let pb = self.to_screen(b.clip);
            let pc = self.to_screen(c.clip);
            // Back-face cull (counter-clockwise front faces in screen
            // space, y down → negative area is front).
            let area = (pb.0 - pa.0) * (pc.1 - pa.1) - (pb.1 - pa.1) * (pc.0 - pa.0);
            if area.abs() < 1e-9 {
                continue;
            }
            stats.triangles_rasterized += 1;
            stats.fragments += self.fill_triangle((pa, a.lit), (pb, b.lit), (pc, c.lit), area);
        }
        stats
    }

    /// Clip → screen: returns `(x, y, depth)`.
    fn to_screen(&self, clip: Vec4) -> (f64, f64, f64) {
        let ndc = clip.project();
        ((ndc.x + 1.0) * 0.5 * self.width as f64, (1.0 - ndc.y) * 0.5 * self.height as f64, ndc.z)
    }

    #[allow(clippy::type_complexity)]
    fn fill_triangle(
        &mut self,
        (pa, ca): ((f64, f64, f64), [f32; 3]),
        (pb, cb): ((f64, f64, f64), [f32; 3]),
        (pc, cc): ((f64, f64, f64), [f32; 3]),
        area: f64,
    ) -> usize {
        let min_x = pa.0.min(pb.0).min(pc.0).floor().max(0.0) as usize;
        let max_x = (pa.0.max(pb.0).max(pc.0).ceil() as usize).min(self.width.saturating_sub(1));
        let min_y = pa.1.min(pb.1).min(pc.1).floor().max(0.0) as usize;
        let max_y = (pa.1.max(pb.1).max(pc.1).ceil() as usize).min(self.height.saturating_sub(1));
        let inv_area = 1.0 / area;
        let mut fragments = 0;
        for y in min_y..=max_y {
            for x in min_x..=max_x {
                let px = x as f64 + 0.5;
                let py = y as f64 + 0.5;
                // Barycentric coordinates.
                let w0 = ((pb.0 - px) * (pc.1 - py) - (pb.1 - py) * (pc.0 - px)) * inv_area;
                let w1 = ((pc.0 - px) * (pa.1 - py) - (pc.1 - py) * (pa.0 - px)) * inv_area;
                let w2 = 1.0 - w0 - w1;
                if w0 < 0.0 || w1 < 0.0 || w2 < 0.0 {
                    continue;
                }
                let z = (w0 * pa.2 + w1 * pb.2 + w2 * pc.2) as f32;
                let idx = y * self.width + x;
                if z >= self.depth[idx] {
                    continue;
                }
                self.depth[idx] = z;
                let color = [
                    (w0 as f32 * ca[0] + w1 as f32 * cb[0] + w2 as f32 * cc[0]).clamp(0.0, 1.0),
                    (w0 as f32 * ca[1] + w1 as f32 * cb[1] + w2 as f32 * cc[1]).clamp(0.0, 1.0),
                    (w0 as f32 * ca[2] + w1 as f32 * cb[2] + w2 as f32 * cc[2]).clamp(0.0, 1.0),
                ];
                self.color.set(x, y, color);
                fragments += 1;
            }
        }
        fragments
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mesh::Mesh;
    use illixr_math::Mat4;

    fn view_proj() -> Mat4 {
        let proj = Mat4::perspective(std::f64::consts::FRAC_PI_2, 1.0, 0.1, 100.0);
        let view = Mat4::look_at(Vec3::new(0.0, 0.0, 5.0), Vec3::ZERO, Vec3::UNIT_Y);
        proj * view
    }

    #[test]
    fn cube_renders_pixels() {
        let mut r = Rasterizer::new(64, 64);
        r.clear([0.0; 3]);
        let cube = Mesh::cuboid(Vec3::splat(1.0), [1.0, 0.0, 0.0]);
        let stats = r.draw(&cube, &Mat4::identity(), &view_proj());
        assert!(stats.triangles_rasterized > 0);
        assert!(stats.fragments > 50);
        // Center pixel shows the red cube.
        let c = r.framebuffer().get(32, 32);
        assert!(c[0] > 0.1 && c[1] == 0.0, "center {c:?}");
    }

    #[test]
    fn depth_test_orders_objects() {
        let mut r = Rasterizer::new(64, 64);
        r.clear([0.0; 3]);
        let vp = view_proj();
        let far_cube = Mesh::cuboid(Vec3::splat(1.5), [0.0, 1.0, 0.0]);
        let near_cube = Mesh::cuboid(Vec3::splat(0.5), [1.0, 0.0, 0.0]);
        // Draw near first, then far: far must not overwrite the center.
        let near_model = Mat4::from_rotation_translation(
            illixr_math::Mat3::identity(),
            Vec3::new(0.0, 0.0, 2.0),
        );
        r.draw(&near_cube, &near_model, &vp);
        r.draw(&far_cube, &Mat4::identity(), &vp);
        let c = r.framebuffer().get(32, 32);
        assert!(c[0] > c[1], "near (red) cube should win the z-test: {c:?}");
    }

    #[test]
    fn geometry_behind_camera_is_rejected() {
        let mut r = Rasterizer::new(32, 32);
        r.clear([0.0; 3]);
        let cube = Mesh::cuboid(Vec3::splat(1.0), [1.0; 3]);
        let behind = Mat4::from_rotation_translation(
            illixr_math::Mat3::identity(),
            Vec3::new(0.0, 0.0, 20.0),
        );
        let stats = r.draw(&cube, &behind, &view_proj());
        assert_eq!(stats.fragments, 0);
    }

    #[test]
    fn lighting_darkens_faces_away_from_light() {
        let mut r = Rasterizer::new(64, 64);
        r.light_dir = Vec3::UNIT_Y; // light from above
        r.clear([0.0; 3]);
        let cube = Mesh::cuboid(Vec3::splat(1.0), [1.0, 1.0, 1.0]);
        // Tilt the camera to see the top face vs a side face.
        let proj = Mat4::perspective(std::f64::consts::FRAC_PI_2, 1.0, 0.1, 100.0);
        let view = Mat4::look_at(Vec3::new(3.0, 3.0, 3.0), Vec3::ZERO, Vec3::UNIT_Y);
        r.draw(&cube, &Mat4::identity(), &(proj * view));
        // Sample many pixels; brightest should be ~1.0 (top face), and
        // there must be darker lit side faces too.
        let pixels: Vec<f32> =
            r.framebuffer().as_slice().iter().map(|p| p[0]).filter(|&v| v > 0.0).collect();
        let max = pixels.iter().cloned().fold(0.0f32, f32::max);
        let min = pixels.iter().cloned().fold(1.0f32, f32::min);
        assert!(max > 0.9, "max {max}");
        assert!(min < 0.5, "min {min}");
    }

    #[test]
    fn clear_resets_buffers() {
        let mut r = Rasterizer::new(16, 16);
        r.clear([0.0; 3]);
        let cube = Mesh::cuboid(Vec3::splat(1.0), [1.0; 3]);
        r.draw(&cube, &Mat4::identity(), &view_proj());
        r.clear([0.2, 0.3, 0.4]);
        assert_eq!(r.framebuffer().get(8, 8), [0.2, 0.3, 0.4]);
    }
}
