//! Output checks. Native outputs are held to the conformance suite's
//! conditioning-scaled ULP bound against `hstencil_core::reference`;
//! served results must equal `reference_result` bit for bit.

use hstencil_conformance::ulp::{scale_tolerance_for, DIFFERENTIAL_SCALE_ULPS};
use hstencil_core::{reference, Dtype, Element, Grid2d, Grid2dT, Grid3d, Grid3dT, StencilSpec};

/// `Σ|c|` over the stencil's taps.
pub fn coeff_abs_sum(spec: &StencilSpec) -> f64 {
    let r = spec.radius() as isize;
    let mut sum = 0.0;
    if spec.dims() == 2 {
        for di in -r..=r {
            for dj in -r..=r {
                sum += spec.c2(di, dj).abs();
            }
        }
    } else {
        for dk in -r..=r {
            for di in -r..=r {
                for dj in -r..=r {
                    sum += spec.c3(dk, di, dj).abs();
                }
            }
        }
    }
    sum
}

/// Absolute tolerance for `sweeps` sweeps of `spec` over inputs bounded
/// by `max_abs`, computed at `dtype` precision: the conformance budget
/// ([`DIFFERENTIAL_SCALE_ULPS`] ULPs of the conditioning scale) per
/// sweep, with the scale grown by `Σ|c|` each sweep so earlier rounding
/// carried forward stays inside the bound.
pub fn tolerance(spec: &StencilSpec, dtype: Dtype, max_abs: f64, sweeps: usize) -> f64 {
    let scale = max_abs * coeff_abs_sum(spec).max(1.0).powi(sweeps as i32);
    sweeps as f64
        * scale_tolerance_for(dtype, scale.max(f64::MIN_POSITIVE), DIFFERENTIAL_SCALE_ULPS)
}

/// Interior cells of `got` farther than `tol` from `want`; NaN never
/// passes.
pub fn mismatches_2d<E: Element>(want: &Grid2d, got: &Grid2dT<E>, tol: f64) -> usize {
    let mut bad = 0;
    for i in 0..got.h() as isize {
        for j in 0..got.w() as isize {
            let within = (want.at(i, j) - got.at(i, j).to_f64()).abs() <= tol;
            bad += usize::from(!within);
        }
    }
    bad
}

/// One sweep of `spec` checked against the reference: `Ok` or the count
/// of wrong interior cells.
pub fn check_sweep_2d<E: Element>(
    spec: &StencilSpec,
    input: &Grid2dT<E>,
    got: &Grid2dT<E>,
) -> Result<(), usize> {
    let input64: Grid2d = Grid2d::convert_from(input);
    let mut want = input64.halo_image();
    reference::apply_2d(spec, &input64, &mut want);
    let tol = tolerance(spec, E::DTYPE, max_abs(input64.raw()), 1);
    match mismatches_2d(&want, got, tol) {
        0 => Ok(()),
        n => Err(n),
    }
}

/// [`check_sweep_2d`] for a 3-D sweep.
pub fn check_sweep_3d<E: Element>(
    spec: &StencilSpec,
    input: &Grid3dT<E>,
    got: &Grid3dT<E>,
) -> Result<(), usize> {
    let input64: Grid3d = Grid3d::convert_from(input);
    let mut want = input64.halo_image();
    reference::apply_3d(spec, &input64, &mut want);
    let tol = tolerance(spec, E::DTYPE, max_abs(input64.raw()), 1);
    let mut bad = 0;
    for k in 0..got.d() as isize {
        for i in 0..got.h() as isize {
            for j in 0..got.w() as isize {
                let within = (want.at(k, i, j) - got.at(k, i, j).to_f64()).abs() <= tol;
                bad += usize::from(!within);
            }
        }
    }
    match bad {
        0 => Ok(()),
        n => Err(n),
    }
}

/// `sweeps` reference sweeps with the halo held at its initial values
/// (the Dirichlet boundary `native::time_steps` uses).
pub fn reference_steps(spec: &StencilSpec, init: &Grid2d, sweeps: usize) -> Grid2d {
    let mut cur = init.clone();
    let mut next = init.halo_image();
    for _ in 0..sweeps {
        reference::apply_2d(spec, &cur, &mut next);
        std::mem::swap(&mut cur, &mut next);
    }
    cur
}

/// Bit-for-bit equality of two grids, halo and padding included.
pub fn bit_identical(a: &Grid2d, b: &Grid2d) -> bool {
    a.h() == b.h()
        && a.w() == b.w()
        && a.raw().len() == b.raw().len()
        && a.raw()
            .iter()
            .zip(b.raw())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

pub fn max_abs(xs: &[f64]) -> f64 {
    xs.iter().fold(0.0, |m, x| m.max(x.abs()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use hstencil_core::{native, presets};

    #[test]
    fn native_sweep_passes_and_a_corrupted_cell_fails() {
        let spec = presets::box2d25p();
        let a: Grid2dT<f32> = gen::grid_2d(3, 1, 40, 56, spec.radius());
        let mut b = a.halo_image();
        native::apply_2d(&spec, &a, &mut b);
        assert_eq!(check_sweep_2d(&spec, &a, &b), Ok(()));
        let v = b.at(7, 9);
        b.set(7, 9, v + 1e-3);
        assert_eq!(check_sweep_2d(&spec, &a, &b), Err(1));
        b.set(7, 9, f32::NAN);
        assert_eq!(check_sweep_2d(&spec, &a, &b), Err(1));
    }

    #[test]
    fn served_results_must_match_to_the_bit() {
        let a: Grid2d = gen::grid_2d(3, 1, 8, 8, 1);
        let mut b = a.clone();
        assert!(bit_identical(&a, &b));
        let v = b.at(2, 2);
        b.set(2, 2, f64::from_bits(v.to_bits() ^ 1));
        assert!(!bit_identical(&a, &b));
    }

    #[test]
    fn reference_steps_match_repeated_sweeps() {
        let spec = presets::star2d5p();
        let a: Grid2d = gen::grid_2d(5, 1, 20, 20, 1);
        let got = native::time_steps(&spec, &a, 3, 1);
        let want = reference_steps(&spec, &a, 3);
        let tol = tolerance(&spec, Dtype::F64, 1.0, 3);
        assert_eq!(mismatches_2d(&want, &got, tol), 0);
    }
}
