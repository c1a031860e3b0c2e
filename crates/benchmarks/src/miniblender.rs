//! `526.blender_r` stand-in: a 3-D mesh transform + z-buffer rasterizer.
//!
//! Blender's benchmark renders scenes with its internal engine. This mini
//! keeps the geometry pipeline: per-frame vertex transformation (object
//! spin + perspective projection), back-face culling, triangle
//! rasterization with barycentric interpolation into a z-buffer, and
//! simple diffuse shading. Scene complexity (object count, tessellation)
//! and the frame window are the workload knobs — exactly what the
//! paper's thirteen `.blend` workloads vary.

use crate::{find_workload, fnv1a, standard_set, BenchError, Benchmark, RunOutput};
use alberta_profile::{FnId, Profiler};
use alberta_workloads::mesh::{self, MeshScene};
use alberta_workloads::{Named, Scale};

const VERTEX_REGION: u64 = 0x1_F000_0000;
const ZBUF_REGION: u64 = 0x2_3000_0000;

pub(crate) struct Fns {
    transform: FnId,
    raster: FnId,
    shade: FnId,
}

fn register(profiler: &mut Profiler) -> Fns {
    Fns {
        transform: profiler.register_function("blender::transform_vertices", 1800),
        raster: profiler.register_function("blender::rasterize", 2800),
        shade: profiler.register_function("blender::shade", 1000),
    }
}

/// A rendered frame plus rasterization statistics.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct RenderedFrame {
    /// Luma image, row-major.
    pub pixels: Vec<u8>,
    /// Triangles actually rasterized (after culling).
    pub triangles_drawn: u64,
    /// Pixels that passed the depth test.
    pub fragments: u64,
}

/// Renders one frame of the scene.
pub(crate) fn render_frame(
    scene: &MeshScene,
    frame: u32,
    profiler: &mut Profiler,
    fns: &Fns,
) -> RenderedFrame {
    let w = scene.width;
    let h = scene.height;
    let mut color = vec![0u8; w * h];
    let mut depth = vec![f64::INFINITY; w * h];
    let mut drawn = 0u64;
    let mut fragments = 0u64;

    for mesh in &scene.meshes {
        // Transform: spin around the mesh centroid, then perspective.
        profiler.enter(fns.transform);
        let angle = mesh.spin * frame as f64;
        let (sin, cos) = angle.sin_cos();
        let n = mesh.vertices.len() as f64;
        let cx = mesh.vertices.iter().map(|v| v.0).sum::<f64>() / n;
        let cz = mesh.vertices.iter().map(|v| v.2).sum::<f64>() / n;
        let projected: Vec<(f64, f64, f64)> = mesh
            .vertices
            .iter()
            .enumerate()
            .map(|(i, &(x, y, z))| {
                profiler.load(VERTEX_REGION + i as u64 * 24);
                profiler.retire(12);
                let dx = x - cx;
                let dz = z - cz;
                let rx = cx + dx * cos - dz * sin;
                let rz = cz + dx * sin + dz * cos;
                // Perspective onto the image plane.
                let zc = rz.max(0.5);
                let aspect = w as f64 / h as f64;
                let sx = (rx / zc / aspect * 1.6 + 0.5) * w as f64;
                let sy = (0.5 - (y - 1.0) / zc * 1.6) * h as f64;
                (sx, sy, zc)
            })
            .collect();
        profiler.exit();

        profiler.enter(fns.raster);
        for &(a, b, c) in &mesh.triangles {
            let pa = projected[a as usize];
            let pb = projected[b as usize];
            let pc = projected[c as usize];
            // Back-face culling via signed screen area.
            let area = (pb.0 - pa.0) * (pc.1 - pa.1) - (pc.0 - pa.0) * (pb.1 - pa.1);
            let front = area > 1e-9;
            profiler.branch(0, front);
            profiler.retire(8);
            if !front {
                continue;
            }
            drawn += 1;
            // Bounding box clipped to the viewport.
            let min_x = pa.0.min(pb.0).min(pc.0).floor().max(0.0) as usize;
            let max_x = (pa.0.max(pb.0).max(pc.0).ceil() as usize).min(w.saturating_sub(1));
            let min_y = pa.1.min(pb.1).min(pc.1).floor().max(0.0) as usize;
            let max_y = (pa.1.max(pb.1).max(pc.1).ceil() as usize).min(h.saturating_sub(1));
            for py in min_y..=max_y {
                for px in min_x..=max_x {
                    let x = px as f64 + 0.5;
                    let y = py as f64 + 0.5;
                    // Barycentric coordinates.
                    let w0 = ((pb.0 - x) * (pc.1 - y) - (pc.0 - x) * (pb.1 - y)) / area;
                    let w1 = ((pc.0 - x) * (pa.1 - y) - (pa.0 - x) * (pc.1 - y)) / area;
                    let w2 = 1.0 - w0 - w1;
                    let inside = w0 >= 0.0 && w1 >= 0.0 && w2 >= 0.0;
                    profiler.branch(1, inside);
                    profiler.retire(10);
                    if !inside {
                        continue;
                    }
                    let z = w0 * pa.2 + w1 * pb.2 + w2 * pc.2;
                    let i = py * w + px;
                    profiler.load(ZBUF_REGION + i as u64 * 8);
                    let visible = z < depth[i];
                    profiler.branch(2, visible);
                    if visible {
                        depth[i] = z;
                        profiler.enter(fns.shade);
                        // Depth-attenuated diffuse shade.
                        let shade = (mesh.shade * (8.0 / z).min(1.2)).clamp(0.0, 1.0);
                        color[i] = (shade * 255.0) as u8;
                        profiler.store(ZBUF_REGION + i as u64 * 8);
                        profiler.retire(6);
                        profiler.exit();
                        fragments += 1;
                    }
                }
            }
        }
        profiler.exit();
    }
    RenderedFrame {
        pixels: color,
        triangles_drawn: drawn,
        fragments,
    }
}

/// Renders the workload's frame window; returns a checksum and stats.
pub(crate) fn render_scene(scene: &MeshScene, profiler: &mut Profiler) -> (u64, u64, u64) {
    let fns = register(profiler);
    let mut hash = 0u64;
    let mut triangles = 0;
    let mut fragments = 0;
    for f in scene.start_frame..scene.start_frame + scene.frames {
        let frame = render_frame(scene, f, profiler, &fns);
        hash ^= fnv1a(frame.pixels.iter().map(|&b| b as u64)).rotate_left(f % 61);
        triangles += frame.triangles_drawn;
        fragments += frame.fragments;
    }
    (hash, triangles, fragments)
}

/// The blender mini-benchmark.
#[derive(Debug)]
pub(crate) struct MiniBlender {
    workloads: Vec<Named<MeshScene>>,
}

impl MiniBlender {
    /// Builds the benchmark with its standard workload set.
    pub(crate) fn new(scale: Scale) -> Self {
        MiniBlender {
            workloads: standard_set(scale, mesh::train, mesh::refrate, mesh::alberta_set),
        }
    }
}

impl Benchmark for MiniBlender {
    fn name(&self) -> &'static str {
        "526.blender_r"
    }

    fn short_name(&self) -> &'static str {
        "blender"
    }

    fn workload_names(&self) -> Vec<String> {
        self.workloads.iter().map(|n| n.name.clone()).collect()
    }

    fn run(&self, workload: &str, profiler: &mut Profiler) -> Result<RunOutput, BenchError> {
        let scene = find_workload(&self.workloads, self.name(), workload)?;
        for m in &scene.meshes {
            m.validate().map_err(|reason| BenchError::InvalidInput {
                benchmark: "526.blender_r",
                reason,
            })?;
        }
        let (hash, triangles, fragments) = render_scene(scene, profiler);
        Ok(RunOutput {
            checksum: fnv1a([hash, triangles]),
            work: fragments.max(triangles),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alberta_workloads::mesh::{MeshGen, TriMesh};

    fn single_triangle_scene() -> MeshScene {
        // One large triangle facing the camera.
        let tri = TriMesh {
            vertices: vec![(-2.0, 0.0, 6.0), (2.0, 0.0, 6.0), (0.0, 3.0, 6.0)],
            triangles: vec![(0, 2, 1)],
            shade: 1.0,
            spin: 0.0,
        };
        MeshScene {
            meshes: vec![tri],
            width: 32,
            height: 32,
            start_frame: 0,
            frames: 1,
        }
    }

    fn render_one(scene: &MeshScene, frame: u32) -> RenderedFrame {
        let mut p = Profiler::default();
        let fns = register(&mut p);
        let f = render_frame(scene, frame, &mut p, &fns);
        let _ = p.finish();
        f
    }

    #[test]
    fn triangle_covers_center_pixels() {
        let scene = single_triangle_scene();
        let f = render_one(&scene, 0);
        assert_eq!(f.triangles_drawn, 1);
        assert!(f.fragments > 10, "fragments {}", f.fragments);
        // A pixel inside the triangle is lit.
        let mid = f.pixels[(scene.height / 2) * scene.width + scene.width / 2];
        assert!(mid > 0, "center pixel unlit");
        // A corner is background.
        assert_eq!(f.pixels[0], 0);
    }

    #[test]
    fn back_face_is_culled() {
        let mut scene = single_triangle_scene();
        // Reverse winding: the same triangle now faces away.
        scene.meshes[0].triangles = vec![(0, 1, 2)];
        let f = render_one(&scene, 0);
        assert_eq!(f.triangles_drawn, 0);
        assert_eq!(f.fragments, 0);
    }

    #[test]
    fn nearer_surface_wins_depth_test() {
        let near = TriMesh {
            vertices: vec![(-2.0, 0.0, 4.0), (2.0, 0.0, 4.0), (0.0, 3.0, 4.0)],
            triangles: vec![(0, 2, 1)],
            shade: 1.0,
            spin: 0.0,
        };
        let far = TriMesh {
            vertices: vec![(-2.0, 0.0, 10.0), (2.0, 0.0, 10.0), (0.0, 3.0, 10.0)],
            triangles: vec![(0, 2, 1)],
            shade: 0.2,
            spin: 0.0,
        };
        // Draw far first, then near: near must overwrite.
        let scene = MeshScene {
            meshes: vec![far, near],
            width: 32,
            height: 32,
            start_frame: 0,
            frames: 1,
        };
        let f = render_one(&scene, 0);
        let mid = f.pixels[16 * 32 + 16];
        // The near (bright, shade 1.0 attenuated by 8/4 capped 1.2) pixel
        // beats the far dim one.
        assert!(mid > 200, "depth test failed: {mid}");
    }

    #[test]
    fn spinning_mesh_changes_between_frames() {
        let mut scene = MeshGen::standard(Scale::Test).generate(3);
        for m in &mut scene.meshes {
            m.spin = 0.4;
        }
        let f0 = render_one(&scene, 0);
        let f1 = render_one(&scene, 3);
        assert_ne!(f0.pixels, f1.pixels, "spin must move the image");
    }

    #[test]
    fn generated_scenes_render_all_frames() {
        let scene = MeshGen::standard(Scale::Test).generate(1);
        let mut p = Profiler::default();
        let (hash, triangles, _) = render_scene(&scene, &mut p);
        let _ = p.finish();
        assert_ne!(hash, 0);
        assert!(triangles > 0);
    }

    #[test]
    fn benchmark_runs_and_is_deterministic() {
        let b = MiniBlender::new(Scale::Test);
        let mut p1 = Profiler::default();
        let mut p2 = Profiler::default();
        let o1 = b.run("alberta.o4.t8.f1", &mut p1).unwrap();
        let o2 = b.run("alberta.o4.t8.f1", &mut p2).unwrap();
        assert_eq!(o1, o2);
        let cov = p1.finish().coverage_percent();
        assert!(cov["blender::rasterize"] > 25.0, "{cov:?}");
    }
}
