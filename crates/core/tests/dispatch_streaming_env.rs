//! The env escapes still outrank the streaming tempvec auto-pick:
//! `HSTENCIL_TUNE=off` restores the width rule (`Dispatch::for_width`) and
//! `HSTENCIL_DISPATCH=hybrid` still pins the hybrid 8×8 kernel.
//!
//! Both knobs are read once per process, and a pin hides the tune mode,
//! so one process cannot observe both. Each test therefore re-runs this
//! binary on itself alone with its own environment (`dispatch_env.rs`
//! is the single-environment model of the same pattern).

use hstencil_core::native::{self, Dispatch};
use hstencil_core::{presets, Dtype, Grid2d};
use std::process::Command;

/// Streaming for both f64 (9 MiB) and f32 (4.5 MiB working set).
const N: usize = 768;
const CHILD: &str = "HSTENCIL_STREAMING_ENV_CHILD";

/// True inside the re-run child. In the parent, runs `test` in a child
/// process with the kernel pins and tune mode cleared, then `env`
/// applied, and asserts the child passed.
fn in_child(test: &str, env: &[(&str, &str)]) -> bool {
    if std::env::var_os(CHILD).is_some() {
        return true;
    }
    let out = Command::new(std::env::current_exe().expect("test binary path"))
        .args([test, "--exact", "--test-threads=1"])
        .env(CHILD, "1")
        .env_remove("HSTENCIL_DISPATCH")
        .env_remove("HSTENCIL_TUNE")
        .envs(env.iter().copied())
        .output()
        .expect("re-run the test binary");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success() && stdout.contains("1 passed"),
        "child {test} with {env:?} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    false
}

fn seed_grid(n: usize) -> Grid2d {
    Grid2d::from_fn(n, n, 1, |i, j| ((i * 31 + j * 17) % 29) as f64 * 0.07 - 1.0)
}

#[test]
fn tune_off_restores_the_width_rule_on_streaming_shapes() {
    if !in_child(
        "tune_off_restores_the_width_rule_on_streaming_shapes",
        &[("HSTENCIL_TUNE", "off")],
    ) {
        return;
    }
    let width_rule = if Dispatch::avx2_available() {
        Dispatch::Avx2Fma
    } else {
        Dispatch::Scalar
    };
    assert_eq!(Dispatch::for_width(N), width_rule);
    for spec in [presets::star2d5p(), presets::box2d9p(), presets::box2d25p()] {
        for threads in [1, 2] {
            for dtype in [Dtype::F64, Dtype::F32] {
                assert_eq!(
                    Dispatch::for_sweep_dtype(&spec, N, N, threads, dtype),
                    width_rule,
                    "{} {dtype:?} t{threads}",
                    spec.name()
                );
            }
        }
    }

    // End to end: auto time_steps is the canonical chain again, bit for
    // bit equal to repeated scalar sweeps.
    let spec = presets::star2d5p();
    let grid = seed_grid(N);
    let auto = native::time_steps(&spec, &grid, 4, 2);
    let mut cur = grid.clone();
    let mut next = grid.halo_image();
    for _ in 0..4 {
        native::apply_2d_with(Dispatch::Scalar, &spec, &cur, &mut next);
        std::mem::swap(&mut cur, &mut next);
    }
    assert_eq!(auto.max_interior_diff(&cur), 0.0);
}

#[test]
fn dispatch_pin_still_selects_hybrid_on_streaming_shapes() {
    if !in_child(
        "dispatch_pin_still_selects_hybrid_on_streaming_shapes",
        &[("HSTENCIL_DISPATCH", "hybrid")],
    ) {
        return;
    }
    for spec in [presets::star2d5p(), presets::box2d9p(), presets::box2d25p()] {
        for threads in [1, 2] {
            for dtype in [Dtype::F64, Dtype::F32] {
                assert_eq!(
                    Dispatch::for_sweep_dtype(&spec, N, N, threads, dtype),
                    Dispatch::Hybrid,
                    "{} {dtype:?} t{threads}",
                    spec.name()
                );
            }
        }
    }

    // End to end: the pinned run is the hybrid kernel's, bit for bit.
    let spec = presets::box2d9p();
    let grid = seed_grid(N);
    let auto = native::time_steps(&spec, &grid, 4, 2);
    let mut cur = grid.clone();
    let mut next = grid.halo_image();
    for _ in 0..4 {
        native::apply_2d_with(Dispatch::Hybrid, &spec, &cur, &mut next);
        std::mem::swap(&mut cur, &mut next);
    }
    assert_eq!(auto.max_interior_diff(&cur), 0.0);
}
