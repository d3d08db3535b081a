//! Property suite for the native executor v2: the SIMD and scalar
//! dispatch paths must produce **bit-identical** grids on every input —
//! awkward widths below one SIMD vector, widths that are not a multiple
//! of the lane count, radii 1–4, halos larger than the radius, any
//! coefficient table, any thread count — and the scalar path must agree
//! with the `reference` ground truth.
//!
//! A failure prints a `TESTKIT_SEED=0x...` line that replays the exact
//! case (see README.md "Reproducing a property-test failure").

use hstencil_core::native::{self, pool::ThreadPool, Dispatch};
use hstencil_core::{reference, Grid2d, Grid3d, Pattern, StencilSpec};
use hstencil_testkit::prop::{self, range, vec_of, Config, Strategy};
use hstencil_testkit::prop_assert;

/// A generated 2-D case: shape chosen to stress kernel edges (widths
/// 1..=40 cover sub-vector rows, 4-lane tails and 8-lane unroll tails).
#[derive(Clone, Debug)]
struct Case2d {
    spec: StencilSpec,
    grid: Grid2d,
    threads: usize,
}

fn case_2d_strategy() -> impl Strategy<Value = Case2d> {
    let dims = (
        range(1usize..25), // h
        range(1usize..41), // w
        range(1usize..5),  // radius 1..=4
        range(0usize..3),  // halo slack beyond the radius
        range(1usize..9),  // threads
        range(0usize..2),  // star (0) or box (1)
    );
    (
        dims,
        vec_of(range(-2.0f64..2.0), 0..82),
        range(-4.0f64..4.0),
    )
        .map(|((h, w, r, slack, threads, pattern), coeffs, fill_scale)| {
            // The executors now reject radius >= min interior with a
            // typed GridError (covered by the degenerate-shape corpus in
            // hstencil-conformance); keep this strategy inside the valid
            // envelope while still reaching the smallest legal shapes.
            let (h, w) = (h.max(r + 1), w.max(r + 1));
            let n = 2 * r + 1;
            let mut table = vec![0.0; n * n];
            let pick = |k: usize| coeffs.get(k % coeffs.len().max(1)).copied().unwrap_or(0.7);
            if pattern == 0 {
                for k in 0..n {
                    table[r * n + k] = pick(k);
                    table[k * n + r] = pick(n + k);
                }
            } else {
                for (k, t) in table.iter_mut().enumerate() {
                    *t = pick(k);
                }
            }
            let spec = if pattern == 0 {
                StencilSpec::new_2d("prop-star", Pattern::Star, r, table)
            } else {
                StencilSpec::new_2d("prop-box", Pattern::Box, r, table)
            };
            let halo = r + slack;
            let mut v = fill_scale;
            let grid = Grid2d::from_fn(h, w, halo, |i, j| {
                v = (v * 1.3 + 0.7 + (i as f64) * 0.01 + (j as f64) * 0.003) % 5.0 - 2.5;
                v
            });
            Case2d {
                spec,
                grid,
                threads,
            }
        })
}

#[test]
fn simd_and_scalar_paths_are_bit_identical_2d() {
    let cfg = Config::with_cases(48);
    prop::check(&cfg, &case_2d_strategy(), |case| {
        let (h, w, halo) = (case.grid.h(), case.grid.w(), case.grid.halo());
        let mut scalar = Grid2d::zeros(h, w, halo);
        native::apply_2d_with(Dispatch::Scalar, &case.spec, &case.grid, &mut scalar);
        for d in Dispatch::candidates() {
            let mut got = Grid2d::zeros(h, w, halo);
            native::apply_2d_with(d, &case.spec, &case.grid, &mut got);
            let diff = scalar.max_interior_diff(&got);
            prop_assert!(
                diff == 0.0,
                "{:?} differs from scalar by {diff:e} on {h}x{w} r={} halo={halo}",
                d,
                case.spec.radius()
            );
        }
        Ok(())
    });
}

#[test]
fn parallel_pool_sweeps_are_bit_identical_2d() {
    let cfg = Config::with_cases(32);
    let pool = ThreadPool::new();
    prop::check(&cfg, &case_2d_strategy(), |case| {
        let (h, w, halo) = (case.grid.h(), case.grid.w(), case.grid.halo());
        let mut serial = Grid2d::zeros(h, w, halo);
        native::apply_2d_with(Dispatch::detect(), &case.spec, &case.grid, &mut serial);
        let mut par = Grid2d::zeros(h, w, halo);
        native::apply_2d_parallel_in(
            &pool,
            Dispatch::detect(),
            &case.spec,
            &case.grid,
            &mut par,
            case.threads,
        );
        let diff = serial.max_interior_diff(&par);
        prop_assert!(
            diff == 0.0,
            "threads={} differs from serial by {diff:e} on {h}x{w}",
            case.threads
        );
        Ok(())
    });
}

#[test]
fn scalar_path_matches_reference_2d() {
    let cfg = Config::with_cases(32);
    prop::check(&cfg, &case_2d_strategy(), |case| {
        let (h, w, halo) = (case.grid.h(), case.grid.w(), case.grid.halo());
        let mut want = Grid2d::zeros(h, w, halo);
        reference::apply_2d(&case.spec, &case.grid, &mut want);
        let mut got = Grid2d::zeros(h, w, halo);
        native::apply_2d_with(Dispatch::Scalar, &case.spec, &case.grid, &mut got);
        // FMA rounds once per tap, the reference rounds twice — equal up
        // to accumulation epsilon, never bit-guaranteed.
        let diff = want.max_interior_diff(&got);
        prop_assert!(diff < 1e-10, "scalar diverges from reference by {diff:e}");
        Ok(())
    });
}

/// A generated 3-D case (small shapes, radii 1–2 to bound runtime).
#[derive(Clone, Debug)]
struct Case3d {
    spec: StencilSpec,
    grid: Grid3d,
    threads: usize,
}

fn case_3d_strategy() -> impl Strategy<Value = Case3d> {
    let dims = (
        range(1usize..7),  // d
        range(1usize..9),  // h
        range(1usize..23), // w
        range(1usize..3),  // radius 1..=2
        range(0usize..2),  // halo slack
        range(1usize..7),  // threads
    );
    (dims, vec_of(range(-1.5f64..1.5), 1..28)).map(|((d, h, w, r, slack, threads), coeffs)| {
        // Stay inside the valid envelope (radius < min interior); the
        // degenerate shapes are the conformance corpus's job now.
        let (d, h, w) = (d.max(r + 1), h.max(r + 1), w.max(r + 1));
        let n = 2 * r + 1;
        let mut table = vec![0.0; n * n * n];
        // Star core plus a few box corners so both row groupings and
        // sparse planes get exercised.
        let idx = |dk: usize, di: usize, dj: usize| (dk * n + di) * n + dj;
        let pick = |k: usize| coeffs[k % coeffs.len()];
        for q in 0..n {
            table[idx(q, r, r)] = pick(q);
            table[idx(r, q, r)] = pick(n + q);
            table[idx(r, r, q)] = pick(2 * n + q);
        }
        table[idx(0, 0, 0)] = pick(3 * n);
        table[idx(n - 1, n - 1, n - 1)] = pick(3 * n + 1);
        let spec = StencilSpec::new_3d("prop-3d", Pattern::Box, r, table);
        let halo = r + slack;
        let mut v = 0.37;
        let grid = Grid3d::from_fn(d, h, w, halo, |k, i, j| {
            v = (v * 1.7 + 0.3 + (k as f64) * 0.02 + (i as f64) * 0.005 + (j as f64) * 0.001) % 3.0
                - 1.5;
            v
        });
        Case3d {
            spec,
            grid,
            threads,
        }
    })
}

#[test]
fn simd_and_scalar_paths_are_bit_identical_3d() {
    let cfg = Config::with_cases(32);
    prop::check(&cfg, &case_3d_strategy(), |case| {
        let (d, h, w, halo) = (
            case.grid.d(),
            case.grid.h(),
            case.grid.w(),
            case.grid.halo(),
        );
        let mut scalar = Grid3d::zeros(d, h, w, halo);
        native::apply_3d_with(Dispatch::Scalar, &case.spec, &case.grid, &mut scalar);
        for disp in Dispatch::candidates() {
            let mut got = Grid3d::zeros(d, h, w, halo);
            native::apply_3d_with(disp, &case.spec, &case.grid, &mut got);
            let diff = scalar.max_interior_diff(&got);
            prop_assert!(
                diff == 0.0,
                "{disp:?} differs from scalar by {diff:e} on {d}x{h}x{w}"
            );
        }
        Ok(())
    });
}

#[test]
fn apply_3d_matches_reference_and_parallel_is_bit_identical() {
    let cfg = Config::with_cases(24);
    let pool = ThreadPool::new();
    prop::check(&cfg, &case_3d_strategy(), |case| {
        let (d, h, w, halo) = (
            case.grid.d(),
            case.grid.h(),
            case.grid.w(),
            case.grid.halo(),
        );
        let mut want = Grid3d::zeros(d, h, w, halo);
        reference::apply_3d(&case.spec, &case.grid, &mut want);
        let mut got = Grid3d::zeros(d, h, w, halo);
        native::apply_3d_with(Dispatch::Scalar, &case.spec, &case.grid, &mut got);
        let diff = want.max_interior_diff(&got);
        prop_assert!(diff < 1e-10, "scalar diverges from reference by {diff:e}");
        let mut par = Grid3d::zeros(d, h, w, halo);
        native::apply_3d_parallel_in(
            &pool,
            Dispatch::Scalar,
            &case.spec,
            &case.grid,
            &mut par,
            case.threads,
        );
        let pdiff = got.max_interior_diff(&par);
        prop_assert!(
            pdiff == 0.0,
            "threads={} diverges by {pdiff:e}",
            case.threads
        );
        Ok(())
    });
}

#[test]
fn time_steps_reuses_pool_threads_across_sweeps_and_calls() {
    let spec = hstencil_core::presets::star2d5p();
    let grid = Grid2d::from_fn(40, 40, 1, |i, j| ((i * 7 + j * 3) % 11) as f64);
    let pool = ThreadPool::new();
    for round in 1..=3 {
        let _ = native::time_steps_in(&pool, Dispatch::detect(), &spec, &grid, 20, 4);
        assert_eq!(
            pool.spawned_threads(),
            3,
            "round {round}: pool must never respawn workers"
        );
    }
}

/// Bit access per element type for the edge-case checks below.
trait Bits: hstencil_core::NativeElement {
    fn bits(self) -> u64;
    fn is_nan(self) -> bool;
    fn special(k: u64) -> Self;
}

impl Bits for f64 {
    fn bits(self) -> u64 {
        self.to_bits()
    }
    fn is_nan(self) -> bool {
        f64::is_nan(self)
    }
    fn special(k: u64) -> f64 {
        [-0.0, 0.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN, -0.0][k as usize % 6]
    }
}

impl Bits for f32 {
    fn bits(self) -> u64 {
        self.to_bits() as u64
    }
    fn is_nan(self) -> bool {
        f32::is_nan(self)
    }
    fn special(k: u64) -> f32 {
        [-0.0, 0.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN, -0.0][k as usize % 6]
    }
}

/// `spec` with the coefficient at table index `k` set to zero — the
/// preset's shape, one tap short, so the flattened chain skips a tap
/// inside the preset's footprint.
fn drop_tap(spec: &StencilSpec, k: usize) -> StencilSpec {
    let r = spec.radius() as isize;
    let n = 2 * r + 1;
    let mut table: Vec<f64> = (0..n * n).map(|t| spec.c2(t / n - r, t % n - r)).collect();
    assert_ne!(table[k], 0.0, "{}: tap {k} is already zero", spec.name());
    table[k] = 0.0;
    StencilSpec::new_2d(
        format!("{}-minus-{k}", spec.name()),
        spec.pattern(),
        r as usize,
        table,
    )
}

/// Every canonical dispatch against the scalar chain, on inputs seeded
/// with signed zeros, infinities and NaNs, at widths covering the
/// two-register main loop, the one-register remainder and the scalar
/// tail of every lane count (4, 8 and 16 lanes), and heights covering
/// row pairs and the odd single row, plus an all-`-0.0` input. Finite
/// outputs and zeros must
/// match bit for bit (sign included); a NaN output must be NaN on
/// every path.
fn edge_cases<E: Bits>() {
    use hstencil_core::Grid2dT;
    let specs = [
        drop_tap(&hstencil_core::presets::star2d5p(), 1),
        drop_tap(&hstencil_core::presets::box2d9p(), 4),
        drop_tap(&hstencil_core::presets::box2d25p(), 0),
        drop_tap(&hstencil_core::presets::star2d9p(), 12),
        hstencil_core::presets::heat2d(),
        hstencil_core::presets::star2d13p(),
    ];
    for (si, spec) in specs.iter().enumerate() {
        let r = spec.radius();
        // All-negative-zero inputs make every product -0.0, so the
        // result's sign shows whether a chain starts from +0.0.
        for (h, all_neg_zero) in [(r + 1, false), (r + 2, false), (r + 2, true)] {
            for w in (r + 1)..=70 {
                let mut cell = 0u64;
                let a = Grid2dT::<E>::from_fn(h, w, r, |i, j| {
                    cell += 1;
                    let hash = (cell ^ (si as u64) << 20).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 58;
                    if all_neg_zero {
                        E::special(0)
                    } else if hash < 12 {
                        E::special(hash)
                    } else {
                        E::from_f64(((i * 7 + j * 3) % 11) as f64 * 0.25 - 1.25)
                    }
                });
                let mut want = Grid2dT::<E>::zeros(h, w, r);
                native::apply_2d_with(Dispatch::Scalar, spec, &a, &mut want);
                for d in Dispatch::candidates() {
                    let mut got = Grid2dT::<E>::zeros(h, w, r);
                    native::apply_2d_with(d, spec, &a, &mut got);
                    for i in 0..h as isize {
                        for j in 0..w as isize {
                            let (g, s) = (got.at(i, j), want.at(i, j));
                            let same = if s.is_nan() {
                                g.is_nan()
                            } else {
                                g.bits() == s.bits()
                            };
                            assert!(
                                same,
                                "{} {d:?} {} {h}x{w} at ({i},{j}): {g:?} vs scalar {s:?}",
                                E::DTYPE.label(),
                                spec.name()
                            );
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn special_values_and_runtime_chains_stay_bit_identical_f64() {
    edge_cases::<f64>();
}

#[test]
fn special_values_and_runtime_chains_stay_bit_identical_f32() {
    edge_cases::<f32>();
}
