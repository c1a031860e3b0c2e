//! `511.povray_r` stand-in: a recursive ray tracer.
//!
//! Renders the generated scenes (collection / lumpy / primitive, the
//! paper's three categories) with sphere/plane/box intersection, Lambert +
//! specular shading, hard shadows, mirror reflection, and Snell
//! refraction. Floating-point-heavy straight-line math with recursion —
//! the behaviour profile of the original.

use crate::{find_workload, fnv1a, standard_set, BenchError, Benchmark, RunOutput};
use alberta_profile::{FnId, Profiler};
use alberta_workloads::raytrace::{self, Material, RayScene, Shape};
use alberta_workloads::{Named, Scale};

const SCENE_REGION: u64 = 0x1_2000_0000;
const IMAGE_REGION: u64 = 0x1_3000_0000;

/// A 3-vector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Vec3 {
    /// x component.
    pub x: f64,
    /// y component.
    pub y: f64,
    /// z component.
    pub z: f64,
}

impl Vec3 {
    /// Constructs a vector.
    pub(crate) fn new(x: f64, y: f64, z: f64) -> Self {
        Vec3 { x, y, z }
    }

    fn from_tuple(t: (f64, f64, f64)) -> Self {
        Vec3::new(t.0, t.1, t.2)
    }

    /// Dot product.
    pub(crate) fn dot(self, o: Vec3) -> f64 {
        self.x * o.x + self.y * o.y + self.z * o.z
    }

    /// Euclidean norm.
    pub(crate) fn norm(self) -> f64 {
        self.dot(self).sqrt()
    }

    /// Unit vector in this direction.
    ///
    /// # Panics
    ///
    /// Panics in debug builds when called on a near-zero vector.
    pub(crate) fn unit(self) -> Vec3 {
        let n = self.norm();
        debug_assert!(n > 1e-12, "normalizing zero vector");
        self * (1.0 / n)
    }

    /// Componentwise scale.
    pub(crate) fn scale(self, k: f64) -> Vec3 {
        Vec3::new(self.x * k, self.y * k, self.z * k)
    }
}

impl std::ops::Add for Vec3 {
    type Output = Vec3;
    fn add(self, o: Vec3) -> Vec3 {
        Vec3::new(self.x + o.x, self.y + o.y, self.z + o.z)
    }
}

impl std::ops::Sub for Vec3 {
    type Output = Vec3;
    fn sub(self, o: Vec3) -> Vec3 {
        Vec3::new(self.x - o.x, self.y - o.y, self.z - o.z)
    }
}

impl std::ops::Mul<f64> for Vec3 {
    type Output = Vec3;
    fn mul(self, k: f64) -> Vec3 {
        self.scale(k)
    }
}

/// Ray/shape intersection: returns (distance, normal) of the nearest hit.
fn intersect(shape: &Shape, origin: Vec3, dir: Vec3) -> Option<(f64, Vec3)> {
    const EPS: f64 = 1e-9;
    match *shape {
        Shape::Sphere { center, radius } => {
            let c = Vec3::from_tuple(center);
            let oc = origin - c;
            let b = oc.dot(dir);
            let disc = b * b - (oc.dot(oc) - radius * radius);
            if disc < 0.0 {
                return None;
            }
            let sq = disc.sqrt();
            let t = if -b - sq > EPS { -b - sq } else { -b + sq };
            if t <= EPS {
                return None;
            }
            let hit = origin + dir * t;
            Some((t, (hit - c).unit()))
        }
        Shape::Plane { y } => {
            if dir.y.abs() < EPS {
                return None;
            }
            let t = (y - origin.y) / dir.y;
            if t <= EPS {
                return None;
            }
            Some((t, Vec3::new(0.0, if dir.y < 0.0 { 1.0 } else { -1.0 }, 0.0)))
        }
        Shape::Box { min, max } => {
            let mn = Vec3::from_tuple(min);
            let mx = Vec3::from_tuple(max);
            let mut tmin = f64::NEG_INFINITY;
            let mut tmax = f64::INFINITY;
            let mut axis = 0;
            for (i, (o, d, lo, hi)) in [
                (origin.x, dir.x, mn.x, mx.x),
                (origin.y, dir.y, mn.y, mx.y),
                (origin.z, dir.z, mn.z, mx.z),
            ]
            .iter()
            .enumerate()
            {
                if d.abs() < EPS {
                    if o < lo || o > hi {
                        return None;
                    }
                    continue;
                }
                let (mut t0, mut t1) = ((lo - o) / d, (hi - o) / d);
                if t0 > t1 {
                    std::mem::swap(&mut t0, &mut t1);
                }
                if t0 > tmin {
                    tmin = t0;
                    axis = i;
                }
                tmax = tmax.min(t1);
                if tmin > tmax {
                    return None;
                }
            }
            if tmin <= EPS {
                return None;
            }
            let mut normal = Vec3::new(0.0, 0.0, 0.0);
            let sign = match axis {
                0 => -dir.x.signum(),
                1 => -dir.y.signum(),
                _ => -dir.z.signum(),
            };
            match axis {
                0 => normal.x = sign,
                1 => normal.y = sign,
                _ => normal.z = sign,
            }
            Some((tmin, normal))
        }
    }
}

struct Fns {
    trace: FnId,
    intersect: FnId,
    shade: FnId,
}

fn register(profiler: &mut Profiler) -> Fns {
    Fns {
        trace: profiler.register_function("povray::trace_ray", 2400),
        intersect: profiler.register_function("povray::intersect", 2000),
        shade: profiler.register_function("povray::shade", 1600),
    }
}

fn surface_color(mat: &Material, hit: Vec3) -> Vec3 {
    if mat.checker {
        let c = ((hit.x.floor() + hit.z.floor()) as i64).rem_euclid(2);
        if c == 0 {
            Vec3::new(0.9, 0.9, 0.9)
        } else {
            Vec3::new(0.15, 0.15, 0.15)
        }
    } else {
        Vec3::from_tuple(mat.color)
    }
}

#[allow(clippy::too_many_arguments)]
fn trace(
    scene: &RayScene,
    origin: Vec3,
    dir: Vec3,
    depth: u32,
    profiler: &mut Profiler,
    fns: &Fns,
) -> Vec3 {
    profiler.enter(fns.trace);
    // Nearest hit.
    profiler.enter(fns.intersect);
    let mut nearest: Option<(f64, Vec3, usize)> = None;
    for (i, obj) in scene.objects.iter().enumerate() {
        profiler.load(SCENE_REGION + i as u64 * 128);
        profiler.retire(8);
        if let Some((t, n)) = intersect(&obj.shape, origin, dir) {
            let closer = nearest.map(|(bt, _, _)| t < bt).unwrap_or(true);
            profiler.branch(0, closer);
            if closer {
                nearest = Some((t, n, i));
            }
        }
    }
    profiler.exit();
    let Some((t, normal, idx)) = nearest else {
        profiler.exit();
        // Sky gradient.
        let k = 0.5 * (dir.y + 1.0);
        return Vec3::new(0.5, 0.6, 0.8).scale(k) + Vec3::new(0.08, 0.08, 0.1);
    };
    let hit = origin + dir * t;
    let mat = scene.objects[idx].material;
    let base = surface_color(&mat, hit);

    profiler.enter(fns.shade);
    let mut color = base.scale(0.08); // ambient
    for light in &scene.lights {
        let lp = Vec3::from_tuple(light.position);
        let to_light = lp - hit;
        let dist = to_light.norm();
        let ldir = to_light.scale(1.0 / dist);
        // Shadow probe.
        let mut blocked = false;
        for obj in &scene.objects {
            profiler.retire(4);
            if let Some((ts, _)) = intersect(&obj.shape, hit + normal * 1e-6, ldir) {
                if ts < dist {
                    blocked = true;
                    break;
                }
            }
        }
        profiler.branch(1, blocked);
        if blocked {
            continue;
        }
        let diffuse = normal.dot(ldir).max(0.0);
        let half = (ldir - dir).unit();
        let spec = normal.dot(half).max(0.0).powi(32);
        color = color
            + base.scale(diffuse * light.intensity)
            + Vec3::new(1.0, 1.0, 1.0).scale(0.4 * spec * light.intensity);
        profiler.retire(20);
    }
    profiler.exit();

    if depth < scene.max_bounces {
        if mat.reflectivity > 0.0 {
            let r = dir - normal * (2.0 * dir.dot(normal));
            let reflected = trace(
                scene,
                hit + normal * 1e-6,
                r.unit(),
                depth + 1,
                profiler,
                fns,
            );
            color = color.scale(1.0 - mat.reflectivity) + reflected.scale(mat.reflectivity);
        }
        if mat.transparency > 0.0 {
            // Snell refraction, entering or leaving by normal orientation.
            let cosi = (-dir.dot(normal)).clamp(-1.0, 1.0);
            let (n1, n2, n) = if cosi > 0.0 {
                (1.0, mat.ior, normal)
            } else {
                (mat.ior, 1.0, normal.scale(-1.0))
            };
            let eta = n1 / n2;
            let cosi = cosi.abs();
            let k = 1.0 - eta * eta * (1.0 - cosi * cosi);
            let refr_dir = if k < 0.0 {
                // Total internal reflection.
                dir - n * (2.0 * dir.dot(n))
            } else {
                dir * eta + n * (eta * cosi - k.sqrt())
            };
            let refracted = trace(
                scene,
                hit - n * 1e-6,
                refr_dir.unit(),
                depth + 1,
                profiler,
                fns,
            );
            color = color.scale(1.0 - mat.transparency) + refracted.scale(mat.transparency);
        }
    }
    profiler.exit();
    color
}

/// Renders the scene, returning the luma image (one byte per pixel).
pub(crate) fn render(scene: &RayScene, profiler: &mut Profiler) -> Vec<u8> {
    let fns = register(profiler);
    let camera = Vec3::new(0.0, 2.0, -4.0);
    let mut image = Vec::with_capacity(scene.width * scene.height);
    for py in 0..scene.height {
        for px in 0..scene.width {
            let u = (px as f64 + 0.5) / scene.width as f64 * 2.0 - 1.0;
            let v = 1.0 - (py as f64 + 0.5) / scene.height as f64 * 2.0;
            let aspect = scene.width as f64 / scene.height as f64;
            let dir = Vec3::new(u * aspect, v, 1.6).unit();
            let c = trace(scene, camera, dir, 0, profiler, &fns);
            let luma = 0.299 * c.x + 0.587 * c.y + 0.114 * c.z;
            image.push((luma.clamp(0.0, 1.0) * 255.0) as u8);
            profiler.store(IMAGE_REGION + image.len() as u64);
        }
    }
    image
}

/// The povray mini-benchmark.
#[derive(Debug)]
pub(crate) struct MiniPovray {
    workloads: Vec<Named<RayScene>>,
}

impl MiniPovray {
    /// Builds the benchmark with its standard workload set.
    pub(crate) fn new(scale: Scale) -> Self {
        MiniPovray {
            workloads: standard_set(
                scale,
                raytrace::train,
                raytrace::refrate,
                raytrace::alberta_set,
            ),
        }
    }
}

impl Benchmark for MiniPovray {
    fn name(&self) -> &'static str {
        "511.povray_r"
    }

    fn short_name(&self) -> &'static str {
        "povray"
    }

    fn workload_names(&self) -> Vec<String> {
        self.workloads.iter().map(|n| n.name.clone()).collect()
    }

    fn run(&self, workload: &str, profiler: &mut Profiler) -> Result<RunOutput, BenchError> {
        let scene = find_workload(&self.workloads, self.name(), workload)?;
        let image = render(scene, profiler);
        Ok(RunOutput {
            checksum: fnv1a(image.iter().map(|&b| b as u64)),
            work: image.len() as u64,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alberta_workloads::raytrace::{Light, RayGen, SceneCategory, SceneObject};

    fn analytic_scene(objects: Vec<SceneObject>) -> RayScene {
        RayScene {
            objects,
            lights: vec![Light {
                position: (0.0, 10.0, 0.0),
                intensity: 1.0,
            }],
            width: 16,
            height: 16,
            max_bounces: 2,
            category: SceneCategory::Primitive,
        }
    }

    #[test]
    fn sphere_intersection_is_analytic() {
        let s = Shape::Sphere {
            center: (0.0, 0.0, 10.0),
            radius: 2.0,
        };
        let (t, n) = intersect(&s, Vec3::new(0.0, 0.0, 0.0), Vec3::new(0.0, 0.0, 1.0)).unwrap();
        assert!((t - 8.0).abs() < 1e-9);
        assert!((n.z + 1.0).abs() < 1e-9, "normal faces the camera");
        // Miss case.
        assert!(intersect(&s, Vec3::new(5.0, 0.0, 0.0), Vec3::new(0.0, 0.0, 1.0)).is_none());
    }

    #[test]
    fn plane_and_box_intersections() {
        let p = Shape::Plane { y: 0.0 };
        let (t, n) = intersect(&p, Vec3::new(0.0, 4.0, 0.0), Vec3::new(0.0, -1.0, 0.0)).unwrap();
        assert!((t - 4.0).abs() < 1e-9);
        assert!(n.y > 0.0);
        assert!(intersect(&p, Vec3::new(0.0, 4.0, 0.0), Vec3::new(0.0, 1.0, 0.0)).is_none());

        let b = Shape::Box {
            min: (-1.0, -1.0, 4.0),
            max: (1.0, 1.0, 6.0),
        };
        let (t, n) = intersect(&b, Vec3::new(0.0, 0.0, 0.0), Vec3::new(0.0, 0.0, 1.0)).unwrap();
        assert!((t - 4.0).abs() < 1e-9);
        assert!((n.z + 1.0).abs() < 1e-9);
    }

    #[test]
    fn rendered_sphere_is_brighter_than_background_shadow() {
        let scene = analytic_scene(vec![
            SceneObject {
                shape: Shape::Plane { y: -1.0 },
                material: Material::matte(),
            },
            SceneObject {
                shape: Shape::Sphere {
                    center: (0.0, 2.0, 6.0),
                    radius: 1.5,
                },
                material: Material {
                    color: (1.0, 1.0, 1.0),
                    ..Material::matte()
                },
            },
        ]);
        let mut p = Profiler::default();
        let img = render(&scene, &mut p);
        let _ = p.finish();
        assert_eq!(img.len(), 16 * 16);
        // The image is not constant: sphere, plane, shadow and sky differ.
        let min = img.iter().min().unwrap();
        let max = img.iter().max().unwrap();
        assert!(max - min > 40, "flat image: min {min} max {max}");
    }

    #[test]
    fn reflective_scene_differs_from_matte_scene() {
        let base = |reflectivity| {
            analytic_scene(vec![
                SceneObject {
                    shape: Shape::Plane { y: -1.0 },
                    material: Material {
                        checker: true,
                        ..Material::matte()
                    },
                },
                SceneObject {
                    shape: Shape::Sphere {
                        center: (0.0, 1.5, 6.0),
                        radius: 1.5,
                    },
                    material: Material {
                        reflectivity,
                        ..Material::matte()
                    },
                },
            ])
        };
        let mut p1 = Profiler::default();
        let mut p2 = Profiler::default();
        let matte = render(&base(0.0), &mut p1);
        let mirror = render(&base(0.9), &mut p2);
        assert_ne!(matte, mirror);
        // Reflection rays mean extra intersection work.
        let w1 = p1.finish().totals.retired_ops;
        let w2 = p2.finish().totals.retired_ops;
        assert!(w2 > w1, "mirror {w2} must out-work matte {w1}");
    }

    #[test]
    fn refraction_total_internal_reflection_does_not_panic() {
        let scene = analytic_scene(vec![SceneObject {
            shape: Shape::Sphere {
                center: (0.0, 2.0, 5.0),
                radius: 1.8,
            },
            material: Material {
                transparency: 0.9,
                ior: 2.4,
                ..Material::matte()
            },
        }]);
        let mut p = Profiler::default();
        let img = render(&scene, &mut p);
        let _ = p.finish();
        assert!(!img.is_empty());
    }

    #[test]
    fn all_generated_categories_render() {
        let gen = RayGen::standard(Scale::Test);
        for cat in [
            SceneCategory::Collection,
            SceneCategory::Lumpy,
            SceneCategory::Primitive,
        ] {
            let scene = gen.generate(cat, 7);
            let mut p = Profiler::default();
            let img = render(&scene, &mut p);
            let _ = p.finish();
            assert_eq!(img.len(), scene.width * scene.height);
        }
    }

    #[test]
    fn benchmark_runs_and_is_deterministic() {
        let b = MiniPovray::new(Scale::Test);
        let mut p1 = Profiler::default();
        let mut p2 = Profiler::default();
        let o1 = b.run("alberta.lumpy.0", &mut p1).unwrap();
        let o2 = b.run("alberta.lumpy.0", &mut p2).unwrap();
        assert_eq!(o1, o2);
        let cov = p1.finish().coverage_percent();
        assert!(cov["povray::intersect"] > 20.0, "{cov:?}");
    }
}
