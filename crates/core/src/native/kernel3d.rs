//! 3-D micro-kernels with the same dispatch / bit-exactness contract as
//! [`super::kernel2d`]: every output element is one FMA chain over the
//! nonzero taps in canonical `(dk, di, dj)` ascending order, so every
//! dispatch path agrees bit-for-bit within one element type.
//!
//! There is no 3-D body of its own. [`Taps3::new`] flattens the chain
//! into lane-body offsets (`dk * plane_stride + di * stride + dj`), and
//! the SIMD instances run the 2-D lane body over them, two output rows
//! `(k, i)`, `(k, i+1)` at a time whenever the flattened `(k, i)` walk
//! has two rows left in the same plane; odd trailing rows and plane
//! seams take the single-row body. Instances without a 3-D override
//! use the [`TileKernel::execute3`] scalar-chain default.
//!
//! [`TileKernel::execute3`]: super::kernel::TileKernel::execute3

use super::kernel::{NativeElement, TileKernel};
use super::kernel2d::Chain;
use super::tile;
use super::Dispatch;
use crate::element::Element;
use crate::stencil::StencilSpec;

/// Preprocessed nonzero taps of a 3-D stencil for one input layout
/// (plane and row strides), with coefficients narrowed to the kernel's
/// element type (nonzero-ness is decided on the `f64` master value, so
/// the tap *structure* is dtype-invariant).
pub struct Taps3<E: Element> {
    /// The input `(plane_stride, stride)` the chain offsets are built for.
    pub(crate) strides: (isize, isize),
    /// Canonical `(dk, di, dj, c)` chain — the bit-exactness contract.
    pub(crate) flat: Vec<(isize, isize, isize, E)>,
    /// The same chain as lane-body offsets for `strides`.
    pub(crate) chain: Chain<E>,
    /// Input rows `(dk, di)` holding at least one nonzero tap.
    tap_rows: usize,
}

impl<E: Element> Taps3<E> {
    /// Taps of `spec` for sweeps over inputs with the given plane and
    /// row strides.
    pub(crate) fn new(spec: &StencilSpec, plane_stride: isize, stride: isize) -> Taps3<E> {
        assert_eq!(spec.dims(), 3);
        let r = spec.radius() as isize;
        let mut flat = Vec::new();
        let mut tap_rows = 0;
        for dk in -r..=r {
            for di in -r..=r {
                let before = flat.len();
                for dj in -r..=r {
                    let c = spec.c3(dk, di, dj);
                    if c != 0.0 {
                        flat.push((dk, di, dj, E::from_f64(c)));
                    }
                }
                tap_rows += usize::from(flat.len() > before);
            }
        }
        let chain = Chain::new(
            flat.iter()
                .map(|&(dk, di, dj, c)| (dk * plane_stride + di * stride + dj, c)),
        );
        Taps3 {
            strides: (plane_stride, stride),
            flat,
            chain,
            tap_rows,
        }
    }

    /// Rows resident while one column tile streams (all input rows the
    /// chain touches plus the output row).
    pub(crate) fn rows_in_flight(&self) -> usize {
        self.tap_rows + 1
    }
}

/// The canonical scalar chain for one element.
#[inline]
fn scalar_point<E: Element>(
    flat: &[(isize, isize, isize, E)],
    a: &[E],
    base: isize,
    plane_stride: isize,
    stride: isize,
) -> E {
    let mut acc = E::ZERO;
    for &(dk, di, dj, c) in flat {
        acc = c.mul_add(
            a[(base + dk * plane_stride + di * stride + dj) as usize],
            acc,
        );
    }
    acc
}

/// Scalar sweep of one row segment — the [`TileKernel::execute3`]
/// default body.
///
/// [`TileKernel::execute3`]: super::kernel::TileKernel::execute3
pub(crate) fn scalar_row3<E: Element>(
    taps: &Taps3<E>,
    a: &[E],
    base: isize,
    plane_stride: isize,
    stride: isize,
    dst: &mut [E],
) {
    for (jj, d) in dst.iter_mut().enumerate() {
        *d = scalar_point(&taps.flat, a, base + jj as isize, plane_stride, stride);
    }
}

/// Sweeps the flattened output rows `t_lo .. t_hi` (row `t` is plane
/// `t / h`, row `t % h`). `dst[0]` must be element `(k_lo, i_lo, 0)`
/// of the output grid where `t_lo = k_lo * h + i_lo`; `strides` are the
/// output grid's `(plane_stride, stride)`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn sweep_band_3d<E: NativeElement>(
    dispatch: Dispatch,
    taps: &Taps3<E>,
    a: &[E],
    a_org: isize,
    a_plane_stride: isize,
    a_stride: isize,
    h: usize,
    w: usize,
    dst: &mut [E],
    b_plane_stride: usize,
    b_stride: usize,
    t_lo: usize,
    t_hi: usize,
) {
    match dispatch {
        Dispatch::Scalar => drive3::<E, E::KScalar>(
            taps,
            a,
            a_org,
            a_plane_stride,
            a_stride,
            h,
            w,
            dst,
            b_plane_stride,
            b_stride,
            t_lo,
            t_hi,
        ),
        Dispatch::Avx2Fma => drive3::<E, E::KAvx2>(
            taps,
            a,
            a_org,
            a_plane_stride,
            a_stride,
            h,
            w,
            dst,
            b_plane_stride,
            b_stride,
            t_lo,
            t_hi,
        ),
        // The hybrid register tile, the AVX-512 instance and the
        // temporally-vectorized family are 2-D only; the 3-D entry
        // points narrow them away before the kernel.
        Dispatch::Hybrid | Dispatch::Avx512 | Dispatch::TempVec => {
            unreachable!("Dispatch::narrow_3d maps 2-D-only dispatches before kernel3d")
        }
    }
}

/// The 3-D band walk for one trait instance: column tiles sized by
/// rows-in-flight, rows paired within a plane when the instance
/// register-blocks (`tile_m >= 2`), single rows at plane seams and odd
/// tails — exactly the pre-trait walk.
#[allow(clippy::too_many_arguments)]
fn drive3<E: Element, K: TileKernel<E>>(
    taps: &Taps3<E>,
    a: &[E],
    a_org: isize,
    a_plane_stride: isize,
    a_stride: isize,
    h: usize,
    w: usize,
    dst: &mut [E],
    b_plane_stride: usize,
    b_stride: usize,
    t_lo: usize,
    t_hi: usize,
) {
    assert!(
        K::available(),
        "{} dispatch forced on a machine without it",
        K::NAME
    );
    assert_eq!(
        (a_plane_stride, a_stride),
        taps.strides,
        "Taps3 built for another input layout"
    );
    let pair_rows = K::config().tile_m >= 2;
    let (k_lo, i_lo) = (t_lo / h, t_lo % h);
    let band_org = k_lo * b_plane_stride + i_lo * b_stride;
    let cb = tile::col_block(w, taps.rows_in_flight(), std::mem::size_of::<E>());
    let mut j0 = 0usize;
    while j0 < w {
        let jw = cb.min(w - j0);
        let mut t = t_lo;
        while t < t_hi {
            let (k, i) = (t / h, t % h);
            let base = a_org + k as isize * a_plane_stride + i as isize * a_stride + j0 as isize;
            let off = k * b_plane_stride + i * b_stride + j0 - band_org;
            // Register-block two rows whenever the next flattened row
            // stays in the same plane.
            if pair_rows && t + 1 < t_hi && i + 1 < h {
                let (head, tail) = dst.split_at_mut(off + b_stride);
                // SAFETY: availability asserted above; the slices
                // cover both row segments of the pair.
                unsafe {
                    K::execute3(
                        taps,
                        a,
                        base,
                        a_plane_stride,
                        a_stride,
                        &mut head[off..off + jw],
                        Some(&mut tail[..jw]),
                    );
                }
                t += 2;
            } else {
                // SAFETY: as above, single-row case.
                unsafe {
                    K::execute3(
                        taps,
                        a,
                        base,
                        a_plane_stride,
                        a_stride,
                        &mut dst[off..off + jw],
                        None,
                    );
                }
                t += 1;
            }
        }
        j0 += jw;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stencil::presets;

    #[test]
    fn flat_taps_match_point_counts_and_order() {
        for spec in presets::suite_3d() {
            let taps = Taps3::<f64>::new(&spec, 400, 20);
            assert_eq!(taps.flat.len(), spec.points(), "{}", spec.name());
            let mut sorted = taps.flat.clone();
            sorted.sort_by_key(|&(dk, di, dj, _)| (dk, di, dj));
            assert_eq!(sorted, taps.flat);
        }
    }

    #[test]
    fn chain_replays_the_canonical_order_at_the_strides() {
        // The lane body walks `chain` in order for every output row of
        // a pair, so replaying the flat chain is the whole bit-identity
        // argument for the 3-D SIMD path.
        for spec in presets::suite_3d() {
            let taps = Taps3::<f64>::new(&spec, 400, 20);
            let want: Vec<(isize, f64)> = taps
                .flat
                .iter()
                .map(|&(dk, di, dj, c)| (dk * 400 + di * 20 + dj, c))
                .collect();
            let got: Vec<(isize, f64)> = taps
                .chain
                .off
                .iter()
                .copied()
                .zip(taps.chain.c.iter().copied())
                .collect();
            assert_eq!(got, want, "{}", spec.name());
        }
        // star3d7p touches 5 input rows: (±1, 0), (0, ±1), (0, 0).
        let star = Taps3::<f64>::new(&presets::star3d7p(), 400, 20);
        assert_eq!(star.rows_in_flight(), 5 + 1);
    }
}
