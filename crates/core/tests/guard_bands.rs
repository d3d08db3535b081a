//! Footprint guard for the canonical kernels: every padding cell a
//! sweep must not touch holds NaN, so a kernel that reads one element
//! past the radius-`r` halo, or writes one element past the interior,
//! shows up as a non-finite or changed cell instead of passing on
//! plausible neighbouring values.
//!
//! Grids carry a halo of `r + 1`, so on top of the vector-alignment
//! slack left of column `-r` and right of column `w + r` there is one
//! extra halo row and column that no tap may reach. The input holds
//! finite values exactly on the `[-r, h + r) x [-r, w + r)` window and
//! a NaN payload everywhere else; the output holds a second NaN
//! payload everywhere before the sweep. After the sweep, every interior output must be finite
//! and bit-equal to the scalar chain, every other output cell must keep
//! its payload, and the input must be bit-unchanged.
//!
//! Coverage: widths up to 40 (sub-vector rows, vector remainders and
//! scalar tails of every lane count) and heights up to 9 (row pairs
//! plus the odd single row), each from the smallest the radius allows
//! (`r + 1`); every preset plus seeded random specs; both dtypes and
//! every canonical dispatch this host runs, in 2-D and 3-D.

use hstencil_core::native::{self, Dispatch};
use hstencil_core::{presets, Grid2dT, Grid3dT, NativeElement, Pattern, StencilSpec};
use hstencil_testkit::rng::{Rng, Xoshiro256};

/// Bit access and two recognisable NaN payloads per element type: the
/// input's padding and the output's. They differ because a read of an
/// input `POISON` cell propagates that payload through the FMA chain,
/// so a stray store of such a result into the output must still show.
trait Guarded: NativeElement {
    const POISON: Self;
    const SENTINEL: Self;
    fn bits(self) -> u64;
    fn is_finite(self) -> bool;
}

impl Guarded for f64 {
    const POISON: f64 = f64::from_bits(0x7ff8_dead_beef_0001);
    const SENTINEL: f64 = f64::from_bits(0x7ff8_0bad_f00d_0002);
    fn bits(self) -> u64 {
        self.to_bits()
    }
    fn is_finite(self) -> bool {
        f64::is_finite(self)
    }
}

impl Guarded for f32 {
    const POISON: f32 = f32::from_bits(0x7fc0_beef);
    const SENTINEL: f32 = f32::from_bits(0x7fc0_0bad);
    fn bits(self) -> u64 {
        self.to_bits() as u64
    }
    fn is_finite(self) -> bool {
        f32::is_finite(self)
    }
}

/// Deterministic finite fill, distinct per cell.
fn value<E: Guarded>(seed: u64, n: usize) -> E {
    let x = (seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
        ^ (n as u64).wrapping_mul(0xbf58_476d_1ce4_e5b9))
        >> 40;
    E::from_f64((x % 2000) as f64 / 500.0 - 2.0)
}

/// Random star or box specs with some zero coefficients, radius 1..=3.
fn random_specs(dims: usize, seed: u64, count: usize) -> Vec<StencilSpec> {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    (0..count)
        .map(|k| {
            let r = rng.gen_range(1usize..=if dims == 2 { 3 } else { 2 });
            let n = 2 * r + 1;
            let box_pattern = rng.gen_bool(0.5);
            let len = if dims == 2 { n * n } else { n * n * n };
            let mut table = vec![0.0; len];
            for (idx, t) in table.iter_mut().enumerate() {
                let (dj, rest) = (idx % n, idx / n);
                let (di, dk) = (rest % n, rest / n);
                let on_axis = [dk == r || dims == 2, di == r, dj == r]
                    .iter()
                    .filter(|&&c| !c)
                    .count()
                    <= 1;
                if (box_pattern || on_axis) && !rng.gen_bool(0.2) {
                    *t = rng.gen_range(-1.5f64..1.5);
                }
            }
            let pattern = if box_pattern {
                Pattern::Box
            } else {
                Pattern::Star
            };
            let name = format!("guard-{dims}d-{k}");
            if dims == 2 {
                StencilSpec::new_2d(name, pattern, r, table)
            } else {
                StencilSpec::new_3d(name, pattern, r, table)
            }
        })
        .collect()
}

fn specs_2d() -> Vec<StencilSpec> {
    let mut specs = presets::suite_2d();
    specs.extend(random_specs(2, 0x006a_12d5, 6));
    specs
}

fn specs_3d() -> Vec<StencilSpec> {
    let mut specs = presets::suite_3d();
    specs.extend(random_specs(3, 0x003d_9a4d, 4));
    specs
}

/// Input with finite values on the radius window and NaN elsewhere.
fn guarded_input_2d<E: Guarded>(h: usize, w: usize, r: usize, seed: u64) -> Grid2dT<E> {
    let mut a = Grid2dT::<E>::zeros(h, w, r + 1);
    a.raw_mut().fill(E::POISON);
    let r = r as isize;
    for i in -r..h as isize + r {
        for j in -r..w as isize + r {
            let n = a.index(i, j);
            a.set(i, j, value(seed, n));
        }
    }
    a
}

fn guarded_input_3d<E: Guarded>(d: usize, h: usize, w: usize, r: usize, seed: u64) -> Grid3dT<E> {
    let mut a = Grid3dT::<E>::zeros(d, h, w, r + 1);
    a.raw_mut().fill(E::POISON);
    let r = r as isize;
    for k in -r..d as isize + r {
        for i in -r..h as isize + r {
            for j in -r..w as isize + r {
                let n = a.index(k, i, j);
                a.set(k, i, j, value(seed, n));
            }
        }
    }
    a
}

/// Checks one swept output against the scalar output: interior finite
/// and bit-equal, every other cell still the sentinel payload.
fn check_output<E: Guarded>(
    got: &[E],
    want: &[E],
    is_interior: impl Fn(usize) -> bool,
    what: &dyn Fn() -> String,
) {
    assert_eq!(got.len(), want.len());
    for (n, (&g, &s)) in got.iter().zip(want).enumerate() {
        if is_interior(n) {
            assert!(
                g.is_finite(),
                "{}: interior cell {n} is {g:?} (read outside the halo)",
                what()
            );
            assert_eq!(
                g.bits(),
                s.bits(),
                "{}: cell {n} differs from scalar",
                what()
            );
        } else {
            assert_eq!(
                g.bits(),
                E::SENTINEL.bits(),
                "{}: padding cell {n} was written",
                what()
            );
        }
    }
}

fn guard_2d<E: Guarded>() {
    for (si, spec) in specs_2d().iter().enumerate() {
        let r = spec.radius();
        for h in (r + 1)..=9 {
            for w in (r + 1)..=40 {
                let a = guarded_input_2d::<E>(h, w, r, (si * 1000 + h * 41 + w) as u64);
                let a_bits: Vec<u64> = a.raw().iter().map(|v| v.bits()).collect();
                let mut want = Grid2dT::<E>::zeros(h, w, r + 1);
                want.raw_mut().fill(E::SENTINEL);
                native::apply_2d_with(Dispatch::Scalar, spec, &a, &mut want);
                let (org, stride) = (want.origin(), want.stride());
                let interior =
                    |n: usize| n >= org && (n - org) / stride < h && (n - org) % stride < w;
                for d in Dispatch::candidates() {
                    let mut got = Grid2dT::<E>::zeros(h, w, r + 1);
                    got.raw_mut().fill(E::SENTINEL);
                    native::apply_2d_with(d, spec, &a, &mut got);
                    let what = || format!("{} {d:?} {} {h}x{w}", E::DTYPE.label(), spec.name());
                    check_output(got.raw(), want.raw(), interior, &what);
                    let after: Vec<u64> = a.raw().iter().map(|v| v.bits()).collect();
                    assert_eq!(after, a_bits, "{}: input changed", what());
                }
            }
        }
    }
}

fn guard_3d<E: Guarded>() {
    for (si, spec) in specs_3d().iter().enumerate() {
        let r = spec.radius();
        let d = r + 1;
        for h in (r + 1)..=9 {
            for w in (r + 1)..=40 {
                let a = guarded_input_3d::<E>(d, h, w, r, (si * 1000 + h * 41 + w) as u64);
                let a_bits: Vec<u64> = a.raw().iter().map(|v| v.bits()).collect();
                let mut want = Grid3dT::<E>::zeros(d, h, w, r + 1);
                want.raw_mut().fill(E::SENTINEL);
                native::apply_3d_with(Dispatch::Scalar, spec, &a, &mut want);
                let (org, ps, stride) = (want.origin(), want.plane_stride(), want.stride());
                let interior = |n: usize| {
                    n >= org
                        && (n - org) / ps < d
                        && (n - org) % ps / stride < h
                        && (n - org) % ps % stride < w
                };
                for disp in Dispatch::candidates() {
                    let mut got = Grid3dT::<E>::zeros(d, h, w, r + 1);
                    got.raw_mut().fill(E::SENTINEL);
                    native::apply_3d_with(disp, spec, &a, &mut got);
                    let what =
                        || format!("{} {disp:?} {} {d}x{h}x{w}", E::DTYPE.label(), spec.name());
                    check_output(got.raw(), want.raw(), interior, &what);
                    let after: Vec<u64> = a.raw().iter().map(|v| v.bits()).collect();
                    assert_eq!(after, a_bits, "{}: input changed", what());
                }
            }
        }
    }
}

#[test]
fn kernels_stay_inside_the_halo_2d_f64() {
    guard_2d::<f64>();
}

#[test]
fn kernels_stay_inside_the_halo_2d_f32() {
    guard_2d::<f32>();
}

#[test]
fn kernels_stay_inside_the_halo_3d_f64() {
    guard_3d::<f64>();
}

#[test]
fn kernels_stay_inside_the_halo_3d_f32() {
    guard_3d::<f32>();
}

#[test]
fn poisoned_padding_is_caught() {
    // The guard must notice a tap that strays outside the window: a
    // radius-1 sweep over an input whose finite window is only the
    // interior (radius 0) yields non-finite edge outputs.
    let spec = presets::star2d5p();
    let a = guarded_input_2d::<f64>(4, 9, 0, 7);
    let mut b = Grid2dT::<f64>::zeros(4, 9, 1);
    native::apply_2d_with(Dispatch::Scalar, &spec, &a, &mut b);
    assert!(!b.at(0, 0).is_finite(), "edge cell reads the poisoned ring");
    assert!(b.at(1, 1).is_finite(), "inner cell reads only the window");
}
