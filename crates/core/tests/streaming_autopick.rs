//! The streaming auto-pick (DESIGN.md §15): with tuning enabled and no
//! plan recorded, a streaming `f64` sweep of radius ≤
//! `tempvec::MAX_VEC_RADIUS` resolves to [`Dispatch::TempVec`], so
//! auto `time_steps` runs the fused wavefront on interior tiles.
//! Everything outside that arm resolves exactly as before: radius > 4
//! keeps the hybrid 8×8 kernel, `f32` and cache-resident shapes keep
//! the width rule.
//!
//! Each test first clears the kernel pins and points `HSTENCIL_TUNE` at
//! a plan file that does not exist, so neither an ambient pin nor a
//! recorded plan decides for the heuristic under test. The env is read
//! once per process, which is why this is its own test binary.

use hstencil_core::native::{self, pool::ThreadPool, tempvec, Dispatch, Temporal};
use hstencil_core::{presets, reference, Dtype, Grid2d, Pattern, StencilSpec};

/// A streaming f64 shape (2·288·1100·8 B ≈ 5.1 MB, over the 4 MiB class
/// boundary) wide and tall enough that the default 128 × 512 trapezoid
/// tiling has fully interior tiles, where the fused wavefront runs.
const H: usize = 288;
const W: usize = 1100;
const SWEEPS: usize = 8;
/// Streaming at f32 width too (2·768²·4 B ≈ 4.7 MB).
const F32_N: usize = 768;

fn no_pins_no_plans() {
    std::env::remove_var("HSTENCIL_DISPATCH");
    std::env::remove_var("HSTENCIL_KERNEL");
    let missing = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("no-such-tune-plans.json");
    std::env::set_var("HSTENCIL_TUNE", missing);
}

fn specs() -> [StencilSpec; 4] {
    [
        presets::star2d5p(),
        presets::box2d9p(),
        presets::star2d9p(),
        presets::box2d25p(),
    ]
}

/// A radius-5 box stencil: one past the tempvec vector bodies.
fn box_r5() -> StencilSpec {
    let r = tempvec::MAX_VEC_RADIUS as usize + 1;
    let n = 2 * r + 1;
    StencilSpec::new_2d(
        "box2d121p",
        Pattern::Box,
        r,
        vec![1.0 / (n * n) as f64; n * n],
    )
}

/// The streaming arm's pick on this host: it needs AVX2 + FMA, and
/// without them the width rule decides.
fn streaming_pick() -> Dispatch {
    if Dispatch::avx2_available() {
        Dispatch::TempVec
    } else {
        Dispatch::for_width(W)
    }
}

fn seed_grid(h: usize, w: usize, halo: usize) -> Grid2d {
    Grid2d::from_fn(h, w, halo, |i, j| {
        let k = (i * 7919 + j * 104_729) as u64;
        let x = k.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 11;
        (x as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
    })
}

#[test]
fn streaming_f64_resolves_to_tempvec_up_to_radius_4() {
    no_pins_no_plans();
    // Resident for f64 (2 MiB working set).
    let resident = 256;
    for threads in [1, 2] {
        for spec in specs() {
            let got = Dispatch::for_sweep_dtype(&spec, H, W, threads, Dtype::F64);
            assert_eq!(
                got,
                streaming_pick(),
                "{} streaming f64 t{threads}",
                spec.name()
            );

            // Streaming f32 and resident shapes keep the width rule.
            let got = Dispatch::for_sweep_dtype(&spec, F32_N, F32_N, threads, Dtype::F32);
            assert_eq!(got, Dispatch::for_width(F32_N), "{} f32", spec.name());
            let got = Dispatch::for_sweep_dtype(&spec, resident, resident, threads, Dtype::F64);
            assert_eq!(
                got,
                Dispatch::for_width(resident),
                "{} resident",
                spec.name()
            );
        }
        // Past the vector radius cap tempvec would only run its scalar
        // body: the pick stays the hybrid 8×8 kernel it was before.
        let want = if Dispatch::avx2_available() {
            Dispatch::Hybrid
        } else {
            Dispatch::for_width(W)
        };
        let got = Dispatch::for_sweep_dtype(&box_r5(), H, W, threads, Dtype::F64);
        assert_eq!(got, want, "radius 5 streaming f64 t{threads}");
    }
}

#[test]
fn auto_time_steps_runs_the_fused_wavefront_and_stays_within_the_ulp_bound() {
    no_pins_no_plans();
    let pool = ThreadPool::new();
    for spec in specs() {
        let grid = seed_grid(H, W, spec.radius());
        let pick = streaming_pick();

        // Reference trajectory, tracking the running conditioning scale
        // max|u| · Σ|c| the reassociation error is relative to.
        let n = 2 * spec.radius() as isize + 1;
        let r = spec.radius() as isize;
        let sum_abs: f64 = (0..n * n)
            .map(|k| spec.c2(k / n - r, k % n - r).abs())
            .sum();
        let max_abs = |g: &Grid2d| g.raw().iter().fold(0.0f64, |m, v| m.max(v.abs()));
        let mut want = grid.clone();
        let mut next = grid.halo_image();
        let mut scale = max_abs(&want) * sum_abs;
        for _ in 0..SWEEPS {
            reference::apply_2d(&spec, &want, &mut next);
            std::mem::swap(&mut want, &mut next);
            scale = scale.max(max_abs(&want) * sum_abs);
        }
        // The conformance differential budget (1024 scale-ULPs), once
        // per sweep.
        let tol = SWEEPS as f64 * 1024.0 * scale * f64::EPSILON;

        for threads in [1, 2] {
            let tiles = tempvec::wave_tiles();
            let auto = native::time_steps(&spec, &grid, SWEEPS, threads);
            if pick == Dispatch::TempVec {
                assert!(
                    tempvec::wave_tiles() > tiles,
                    "{} t{threads}: auto time_steps never ran the fused wavefront",
                    spec.name()
                );
            }
            let forced = native::time_steps_temporal_in(
                &pool,
                pick,
                &spec,
                &grid,
                SWEEPS,
                threads,
                Temporal {
                    force_pipeline: true,
                    ..Temporal::default()
                },
            );
            assert_eq!(
                auto.max_interior_diff(&forced),
                0.0,
                "{} t{threads}: auto time_steps differs from the forced {} pipeline",
                spec.name(),
                pick.label()
            );
            let drift = auto.max_interior_diff(&want);
            assert!(
                drift <= tol,
                "{} t{threads}: drifts {drift:e} from the reference (tol {tol:e})",
                spec.name()
            );
        }
    }
}
