//! Workload generator for `526.blender_r` — 3-D scenes for the
//! rasterizing renderer.
//!
//! The paper's thirteen blender workloads come from two open movie
//! projects and vary "maximum runtime memory, start rendering at different
//! frames, and also … the number of frames rendered". Our mini-blender
//! rasterizes triangle meshes with a z-buffer; a workload is a generated
//! mesh collection (the ".blend file") plus the frame window — the same
//! knobs.

use crate::{Named, Scale, SeededRng};

/// A triangle mesh: vertices plus index triples.
#[derive(Debug, Clone, PartialEq)]
pub struct TriMesh {
    /// Vertex positions.
    pub vertices: Vec<(f64, f64, f64)>,
    /// Triangles as vertex-index triples.
    pub triangles: Vec<(u32, u32, u32)>,
    /// Base shade in `[0, 1]`.
    pub shade: f64,
    /// Per-frame rotation speed around the y axis (radians/frame).
    pub spin: f64,
}

impl TriMesh {
    /// Builds a UV-sphere mesh with the given tessellation.
    ///
    /// # Panics
    ///
    /// Panics if `rings < 2` or `segments < 3`.
    pub(crate) fn sphere(
        center: (f64, f64, f64),
        radius: f64,
        rings: usize,
        segments: usize,
    ) -> Self {
        assert!(rings >= 2 && segments >= 3, "tessellation too coarse");
        let mut vertices = Vec::new();
        for r in 0..=rings {
            let phi = std::f64::consts::PI * r as f64 / rings as f64;
            for s in 0..segments {
                let theta = 2.0 * std::f64::consts::PI * s as f64 / segments as f64;
                vertices.push((
                    center.0 + radius * phi.sin() * theta.cos(),
                    center.1 + radius * phi.cos(),
                    center.2 + radius * phi.sin() * theta.sin(),
                ));
            }
        }
        let mut triangles = Vec::new();
        let seg = segments as u32;
        for r in 0..rings as u32 {
            for s in 0..seg {
                let a = r * seg + s;
                let b = r * seg + (s + 1) % seg;
                let c = (r + 1) * seg + s;
                let d = (r + 1) * seg + (s + 1) % seg;
                triangles.push((a, b, c));
                triangles.push((b, d, c));
            }
        }
        TriMesh {
            vertices,
            triangles,
            shade: 0.8,
            spin: 0.0,
        }
    }

    /// Validates index bounds.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.vertices.len() as u32;
        for (i, &(a, b, c)) in self.triangles.iter().enumerate() {
            if a >= n || b >= n || c >= n {
                return Err(format!("triangle {i} references missing vertex"));
            }
        }
        Ok(())
    }
}

/// A blender workload: scene meshes plus the frame window.
#[derive(Debug, Clone, PartialEq)]
pub struct MeshScene {
    /// The meshes.
    pub meshes: Vec<TriMesh>,
    /// Output width in pixels.
    pub width: usize,
    /// Output height in pixels.
    pub height: usize,
    /// First frame to render.
    pub start_frame: u32,
    /// Number of frames to render.
    pub frames: u32,
}

/// Parameters of the mesh-scene generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeshGen {
    /// Number of objects.
    pub objects: usize,
    /// Tessellation level (rings/segments of each sphere).
    pub tessellation: usize,
    /// Render width.
    pub width: usize,
    /// Render height.
    pub height: usize,
    /// Frames rendered.
    pub frames: u32,
}

impl MeshGen {
    /// Standard configuration scaled by `scale`.
    pub fn standard(scale: Scale) -> Self {
        let f = (scale.factor() as f64).sqrt();
        MeshGen {
            objects: 4,
            tessellation: 8,
            width: (48.0 * f) as usize,
            height: (32.0 * f) as usize,
            frames: 2 + scale.factor() as u32 / 2,
        }
    }

    /// Generates a scene.
    ///
    /// # Panics
    ///
    /// Panics if `objects == 0` or `frames == 0`.
    pub fn generate(&self, seed: u64) -> MeshScene {
        assert!(self.objects > 0, "need at least one object");
        assert!(self.frames > 0, "need at least one frame");
        let mut rng = SeededRng::new(seed);
        let meshes = (0..self.objects)
            .map(|_| {
                let mut m = TriMesh::sphere(
                    (
                        rng.float(-4.0, 4.0),
                        rng.float(-2.0, 2.0),
                        rng.float(6.0, 14.0),
                    ),
                    rng.float(0.5, 1.6),
                    self.tessellation.max(2),
                    (self.tessellation * 3 / 2).max(3),
                );
                m.shade = rng.float(0.3, 1.0);
                m.spin = rng.float(-0.3, 0.3);
                m
            })
            .collect();
        MeshScene {
            meshes,
            width: self.width,
            height: self.height,
            start_frame: rng.below(20) as u32,
            frames: self.frames,
        }
    }
}

/// The 13 blender workloads the paper ships (Table II lists 16 including
/// SPEC's; we sweep object count × tessellation × frame count to 16).
pub fn alberta_set(scale: Scale) -> Vec<Named<MeshScene>> {
    let base = MeshGen::standard(scale);
    let mut out = Vec::new();
    let mut i = 0u64;
    for &objects in &[1usize, 4, 10, 20] {
        for &tess in &[4usize, 8] {
            for &frames_mult in &[1u32, 3] {
                let gen = MeshGen {
                    objects,
                    tessellation: tess,
                    frames: base.frames * frames_mult,
                    ..base
                };
                out.push(Named::new(
                    format!("alberta.o{objects}.t{tess}.f{frames_mult}"),
                    gen.generate(0xB1E + i),
                ));
                i += 1;
            }
        }
    }
    out
}

/// Canonical training workload: a single low-poly object.
pub fn train(scale: Scale) -> Named<MeshScene> {
    let mut gen = MeshGen::standard(scale);
    gen.objects = 1;
    gen.tessellation = 4;
    Named::new("train", gen.generate(0x7241))
}

/// Canonical reference workload: a dense scene.
pub fn refrate(scale: Scale) -> Named<MeshScene> {
    let mut gen = MeshGen::standard(scale);
    gen.objects = 8;
    gen.tessellation = 12;
    Named::new("refrate", gen.generate(0x43F))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Total triangle count across meshes.
    fn triangle_count(scene: &MeshScene) -> usize {
        scene.meshes.iter().map(|m| m.triangles.len()).sum()
    }

    #[test]
    fn sphere_mesh_is_valid_and_closed_enough() {
        let m = TriMesh::sphere((0.0, 0.0, 0.0), 1.0, 6, 9);
        m.validate().unwrap();
        assert_eq!(m.vertices.len(), 7 * 9);
        assert_eq!(m.triangles.len(), 6 * 9 * 2);
        // Every vertex is on the sphere.
        for &(x, y, z) in &m.vertices {
            let r = (x * x + y * y + z * z).sqrt();
            assert!((r - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn generated_scene_validates() {
        let gen = MeshGen::standard(Scale::Test);
        let s = gen.generate(1);
        assert_eq!(s.meshes.len(), gen.objects);
        for m in &s.meshes {
            m.validate().unwrap();
        }
        assert!(triangle_count(&s) > 0);
    }

    #[test]
    fn tessellation_controls_triangle_count() {
        let coarse = MeshGen {
            tessellation: 4,
            ..MeshGen::standard(Scale::Test)
        }
        .generate(2);
        let fine = MeshGen {
            tessellation: 12,
            ..MeshGen::standard(Scale::Test)
        }
        .generate(2);
        assert!(triangle_count(&fine) > triangle_count(&coarse) * 4);
    }

    #[test]
    fn alberta_set_has_sixteen_scenes() {
        let set = alberta_set(Scale::Test);
        assert_eq!(set.len(), 16, "Table II lists 16 blender workloads");
        let counts: Vec<usize> = set.iter().map(|w| triangle_count(&w.workload)).collect();
        assert!(counts.iter().max().unwrap() > &(counts.iter().min().unwrap() * 10));
    }

    #[test]
    fn determinism() {
        let gen = MeshGen::standard(Scale::Test);
        assert_eq!(gen.generate(9), gen.generate(9));
    }

    #[test]
    #[should_panic(expected = "tessellation too coarse")]
    fn degenerate_sphere_panics() {
        let _ = TriMesh::sphere((0.0, 0.0, 0.0), 1.0, 1, 2);
    }
}
