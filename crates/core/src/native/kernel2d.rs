//! Register-blocked 2-D micro-kernels with runtime SIMD dispatch,
//! generic over the element type and the vector register.
//!
//! Every dispatch path computes every output element as the *same*
//! fused-multiply-add chain over the nonzero taps in canonical
//! `(di, dj)` ascending order, starting from `0.0`:
//!
//! ```text
//! acc <- fma(c_tap, a[i+di, j+dj], acc)      for each tap in order
//! ```
//!
//! `_mm256_fmadd_pd`, `_mm512_fmadd_pd` and `f64::mul_add` (and the
//! `_ps`/`f32` counterparts) all round once per step, so every SIMD
//! path and the scalar fallback are **bit-identical** within one
//! element type — dispatch can never change results, only speed
//! (asserted by the `native_dispatch` property suite and the
//! `guard_bands` footprint test).
//!
//! # One lane body
//!
//! The SIMD paths are the in-register analogue of the paper's in-place
//! accumulation (HStencil §3, Algorithm 2), written once: [`lane_rows`]
//! is generic over a [`Lanes`] register type (`__m256d`, `__m256`,
//! `__m512d`, `__m512`), so dtype and ISA are type parameters and the
//! AVX2 and AVX-512 entry points are two `#[target_feature]` shims
//! around the same body. The 3-D kernels run the same body too
//! ([`super::kernel3d`]).
//!
//! The body never interprets the stencil. [`Taps2::new`] flattens each
//! output element's chain once per sweep into a [`Chain`]: for tap `k`
//! in canonical order, the input offset relative to the output's centre
//! (`di * stride + dj`) and the coefficient, nonzero taps only. Every
//! step walks that flat table with a runtime trip count, broadcasting
//! each coefficient from it as a memory operand (one load, like the
//! operand loads beside it). Compile-time-length copies of the body for
//! the preset chain lengths were measured against this one and did not
//! win reliably (EXPERIMENTS.md, "One lane body"), so there is one body
//! per register type and row count.
//!
//! # Why split per-row chains stay bit-identical
//!
//! A row *pair* `(i, i+1)` keeps four accumulators live (two per row),
//! but the two rows never share an FMA: row `i` runs the chain at
//! `base`, row `i+1` runs the *same* chain at `base + stride`, each
//! from its own zeroed accumulators. Every lane of every accumulator
//! therefore sees exactly the scalar sequence
//! `fma(c_0, x_0, +0.0)`, `fma(c_1, x_1, ·)`, … in canonical order, with
//! one rounding per step — the column offset and the row a lane belongs
//! to change which `x` it loads, never the order or the operation. The
//! column remainder runs one register per row, and the last
//! `< LANES` columns walk the same chain with the scalar `mul_add`, so
//! no column anywhere reassociates. Zero taps are in neither the chain
//! nor the scalar anchor ([`scalar_point`]), so having no
//! `c != 0.0` branch in the body changes no step.
//!
//! The band walk that drives the bodies is the shared
//! [`TileKernel::sweep_band`] default in [`super::kernel`].
//!
//! [`TileKernel::sweep_band`]: super::kernel::TileKernel::sweep_band

use super::hybrid;
#[cfg(target_arch = "x86_64")]
use super::kernel::Lanes;
use super::kernel::{NativeElement, TileKernel};
use super::prefetch::Prefetch;
use super::Dispatch;
use crate::element::Element;
use crate::stencil::StencilSpec;

/// One output element's canonical FMA chain, flattened for the lane
/// body: tap `k` multiplies `c[k]` into the input at `centre + off[k]`.
/// Nonzero taps only, in canonical order.
pub(crate) struct Chain<E> {
    pub(crate) off: Vec<isize>,
    pub(crate) c: Vec<E>,
}

impl<E: Copy> Chain<E> {
    pub(crate) fn new(taps: impl Iterator<Item = (isize, E)>) -> Chain<E> {
        let (off, c) = taps.unzip();
        Chain { off, c }
    }
}

/// Preprocessed nonzero taps of a 2-D stencil for one input row stride,
/// with coefficients narrowed to the kernel's element type (nonzero-ness
/// is decided on the `f64` master value, so the tap *structure* is
/// dtype-invariant).
pub struct Taps2<E: Element> {
    /// Radius.
    pub(crate) r: isize,
    /// The input row stride the [`Taps2::chain`] offsets are built for.
    pub(crate) stride: isize,
    /// Canonical `(di, dj, c)` chain — the bit-exactness contract.
    pub(crate) flat: Vec<(isize, isize, E)>,
    /// The same chain as lane-body offsets for `stride`.
    pub(crate) chain: Chain<E>,
    /// Taps grouped by input row for one output row: `single[di + r]`
    /// lists `(dj, c)` ascending (nonzero only) — the tempvec rows.
    pub(crate) single: Vec<Vec<(isize, E)>>,
    /// The same taps split for the hybrid 8×8 register-tile schedule
    /// ([`super::hybrid`]): vertical rank-1 coefficients + inner MLA
    /// taps.
    pub(crate) hybrid: hybrid::TapsHybrid<E>,
}

impl<E: Element> Taps2<E> {
    /// Taps of `spec` for sweeps over inputs whose rows are `stride`
    /// elements apart.
    pub(crate) fn new(spec: &StencilSpec, stride: isize) -> Taps2<E> {
        assert_eq!(spec.dims(), 2);
        let r = spec.radius() as isize;
        let mut flat = Vec::new();
        let mut single = vec![Vec::new(); (2 * r + 1) as usize];
        for di in -r..=r {
            for dj in -r..=r {
                let c = spec.c2(di, dj);
                if c != 0.0 {
                    flat.push((di, dj, E::from_f64(c)));
                    single[(di + r) as usize].push((dj, E::from_f64(c)));
                }
            }
        }
        let chain = Chain::new(flat.iter().map(|&(di, dj, c)| (di * stride + dj, c)));
        Taps2 {
            r,
            stride,
            flat,
            chain,
            single,
            hybrid: hybrid::TapsHybrid::new(spec),
        }
    }

    /// Rows resident while the pair kernel streams one column tile
    /// (input rows of the pair plus the two output rows).
    pub(crate) fn rows_in_flight(&self) -> usize {
        (2 * self.r + 2) as usize + 2
    }
}

/// The canonical scalar chain for one element.
#[inline]
pub(crate) fn scalar_point<E: Element>(
    flat: &[(isize, isize, E)],
    a: &[E],
    base: isize,
    stride: isize,
) -> E {
    let mut acc = E::ZERO;
    for &(di, dj, c) in flat {
        acc = c.mul_add(a[(base + di * stride + dj) as usize], acc);
    }
    acc
}

/// Scalar sweep of one row segment: `dst[jj]` = chain at `(i, j0 + jj)`
/// where `base` is the flat index of `(i, j0)` in `a`.
pub(crate) fn scalar_row<E: Element>(
    flat: &[(isize, isize, E)],
    a: &[E],
    base: isize,
    stride: isize,
    dst: &mut [E],
) {
    for (jj, d) in dst.iter_mut().enumerate() {
        *d = scalar_point(flat, a, base + jj as isize, stride);
    }
}

/// Sweeps output rows `i_lo .. i_hi` of a band through the trait
/// instance `dispatch` names for element type `E` (see
/// [`super::kernel`] for the slice contract).
#[allow(clippy::too_many_arguments)]
pub(crate) fn sweep_band_2d<E: NativeElement>(
    dispatch: Dispatch,
    taps: &Taps2<E>,
    a: &[E],
    a_org: isize,
    a_stride: isize,
    w: usize,
    dst: &mut [E],
    b_stride: usize,
    i_lo: usize,
    i_hi: usize,
    lanes: usize,
) {
    match dispatch {
        Dispatch::Scalar => E::KScalar::sweep_band(
            taps, a, a_org, a_stride, w, dst, b_stride, i_lo, i_hi, lanes,
        ),
        Dispatch::Avx2Fma => E::KAvx2::sweep_band(
            taps, a, a_org, a_stride, w, dst, b_stride, i_lo, i_hi, lanes,
        ),
        Dispatch::Avx512 => E::KAvx512::sweep_band(
            taps, a, a_org, a_stride, w, dst, b_stride, i_lo, i_hi, lanes,
        ),
        Dispatch::Hybrid => E::KHybrid::sweep_band(
            taps, a, a_org, a_stride, w, dst, b_stride, i_lo, i_hi, lanes,
        ),
        // The tempvec family drives its own row loop (per-row source
        // pointers rather than an affine tile walk); `lanes` only
        // feeds prefetch hints, which this family does not issue.
        Dispatch::TempVec => super::tempvec::sweep_band(
            super::tempvec::TvIsa::best(),
            taps,
            a,
            a_org,
            a_stride,
            w,
            dst,
            b_stride,
            i_lo,
            i_hi,
        ),
    }
}

/// Issues the Algorithm-3-style T0 prefetches for one main-loop step:
/// the next `rows` input rows below the deepest tap row (the rows the
/// following output pair will pull in) and the store stream `cols`
/// ahead of the current destination cursor. Pointers are built with
/// wrapping arithmetic — `_mm_prefetch` is a pure hint that never
/// faults, so running past a slice edge is safe by construction.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn hint_step<E: Element>(
    ap: *const E,
    deep: isize,
    stride: isize,
    rows: usize,
    dsts: &[*const E],
    j: usize,
    cols: usize,
) {
    use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
    for q in 0..rows as isize {
        let p = ap.wrapping_offset(deep + q * stride);
        _mm_prefetch::<_MM_HINT_T0>(p as *const i8);
    }
    if cols > 0 {
        for &d in dsts {
            _mm_prefetch::<_MM_HINT_T0>(d.wrapping_add(j + cols) as *const i8);
        }
    }
}

/// Where one lane-body call prefetches: `pf.input_rows` input rows
/// `row_step` apart, starting `deep` elements from the first output's
/// centre (and `pf.dst_cols` ahead on each output row).
#[derive(Clone, Copy)]
pub(crate) struct Hints {
    pub(crate) pf: Prefetch,
    pub(crate) deep: isize,
}

impl Hints {
    /// No prefetch at all.
    pub(crate) const OFF: Hints = Hints {
        pf: Prefetch::OFF,
        deep: 0,
    };

    /// The 2-D streams for `rows` output rows at radius `r`: input rows
    /// start just below the deepest tap row of the last output row.
    pub(crate) fn rows_2d(pf: Prefetch, r: isize, rows: isize, stride: isize) -> Hints {
        Hints {
            pf,
            deep: (r + rows) * stride,
        }
    }
}

/// The lane body: `R` output rows (`row_step` apart in `a`, each a
/// `dst[q]` segment of equal length) × `2 * L::LANES` columns per
/// step, one [`Chain`] per output. `base` is the flat index in `a` of
/// the first output's centre.
///
/// # Safety
/// The host must run `L`'s instructions, this function must be inlined
/// into a `#[target_feature]` entry point that enables them, every
/// `dst[q]` must be as long as `dst[0]`, and `a` must hold every tap
/// read of every output (the padded-grid halo contract).
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn lane_body<L: Lanes, const R: usize>(
    chain: &Chain<L::Elem>,
    a: &[L::Elem],
    base: isize,
    row_step: isize,
    mut dst: [&mut [L::Elem]; R],
    hints: Hints,
) {
    debug_assert!(dst.iter().all(|d| d.len() == dst[0].len()));
    let (off, cs) = (&chain.off[..], &chain.c[..]);
    let n = off.len();
    let jw = dst[0].len();
    let ap = a.as_ptr();
    let lanes = L::LANES;
    let outs = dst.each_mut().map(|d| d.as_mut_ptr());
    let hint_dsts = outs.map(|p| p as *const L::Elem);
    let bases: [isize; R] = std::array::from_fn(|q| base + q as isize * row_step);
    let mut j = 0usize;
    while j + 2 * lanes <= jw {
        hint_step(
            ap,
            base + hints.deep + j as isize,
            row_step,
            hints.pf.input_rows,
            &hint_dsts,
            j,
            hints.pf.dst_cols,
        );
        let mut acc = [[L::zero(); 2]; R];
        for k in 0..n {
            let c = L::splat(cs[k]);
            for q in 0..R {
                let p = ap.offset(bases[q] + j as isize + off[k]);
                acc[q][0] = c.fmadd(L::load(p), acc[q][0]);
                acc[q][1] = c.fmadd(L::load(p.add(lanes)), acc[q][1]);
            }
        }
        for q in 0..R {
            acc[q][0].store(outs[q].add(j));
            acc[q][1].store(outs[q].add(j + lanes));
        }
        j += 2 * lanes;
    }
    while j + lanes <= jw {
        let mut acc = [L::zero(); R];
        for k in 0..n {
            let c = L::splat(cs[k]);
            for q in 0..R {
                acc[q] = c.fmadd(L::load(ap.offset(bases[q] + j as isize + off[k])), acc[q]);
            }
        }
        for q in 0..R {
            acc[q].store(outs[q].add(j));
        }
        j += lanes;
    }
    for (q, d) in dst.into_iter().enumerate() {
        for (jj, out) in d.iter_mut().enumerate().skip(j) {
            let mut acc = <L::Elem as Element>::ZERO;
            for k in 0..n {
                acc = cs[k].mul_add(a[(bases[q] + jj as isize + off[k]) as usize], acc);
            }
            *out = acc;
        }
    }
}

/// One or two output rows (`dst1` is the row `row_step` below `dst0`,
/// equal length) through the lane body for register type `L`.
///
/// # Safety
/// As [`lane_body`].
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn lane_rows<L: Lanes>(
    chain: &Chain<L::Elem>,
    a: &[L::Elem],
    base: isize,
    row_step: isize,
    dst0: &mut [L::Elem],
    dst1: Option<&mut [L::Elem]>,
    hints: Hints,
) {
    match dst1 {
        Some(d1) => lane_body::<L, 2>(chain, a, base, row_step, [dst0, d1], hints),
        None => lane_body::<L, 1>(chain, a, base, row_step, [dst0], hints),
    }
}

/// The AVX2 + FMA entry point of [`lane_rows`].
///
/// # Safety
/// The host must support AVX2 and FMA, `L` must be a 256-bit register
/// type, and `a` must hold every tap read (see [`lane_body`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
pub(crate) unsafe fn rows_avx2<L: Lanes>(
    chain: &Chain<L::Elem>,
    a: &[L::Elem],
    base: isize,
    row_step: isize,
    dst0: &mut [L::Elem],
    dst1: Option<&mut [L::Elem]>,
    hints: Hints,
) {
    lane_rows::<L>(chain, a, base, row_step, dst0, dst1, hints)
}

/// The AVX-512F entry point of [`lane_rows`].
///
/// # Safety
/// The host must support AVX-512F, and `a` must hold every tap read
/// (see [`lane_body`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
pub(crate) unsafe fn rows_avx512<L: Lanes>(
    chain: &Chain<L::Elem>,
    a: &[L::Elem],
    base: isize,
    row_step: isize,
    dst0: &mut [L::Elem],
    dst1: Option<&mut [L::Elem]>,
    hints: Hints,
) {
    lane_rows::<L>(chain, a, base, row_step, dst0, dst1, hints)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stencil::presets;

    #[test]
    fn chain_replays_the_canonical_order_at_the_stride() {
        for spec in presets::suite_2d() {
            let taps = Taps2::<f64>::new(&spec, 24);
            let want: Vec<(isize, f64)> = taps
                .flat
                .iter()
                .map(|&(di, dj, c)| (di * 24 + dj, c))
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
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn every_chain_length_replays_the_scalar_chain() {
        if !Dispatch::avx2_available() {
            return;
        }
        let a: Vec<f64> = (0..64).map(|x| x as f64 * 0.37).collect();
        for n in 0..=25 {
            let chain = Chain::new((0..n).map(|k| (k as isize, 1.0 + k as f64)));
            let mut d = vec![0.0; 21];
            // SAFETY: AVX2 + FMA checked above; every read `j + k`
            // stays below 21 + 25 <= 64.
            unsafe {
                rows_avx2::<std::arch::x86_64::__m256d>(&chain, &a, 0, 0, &mut d, None, Hints::OFF)
            };
            for (j, &v) in d.iter().enumerate() {
                let want = (0..n).fold(0.0, |acc, k| (1.0 + k as f64).mul_add(a[j + k], acc));
                assert_eq!(v, want, "{n} taps, column {j}");
            }
        }
    }

    #[test]
    fn flat_taps_are_sorted_and_nonzero() {
        for spec in presets::suite_2d() {
            let taps = Taps2::<f64>::new(&spec, 16);
            assert_eq!(taps.flat.len(), spec.points());
            let mut sorted = taps.flat.clone();
            sorted.sort_by_key(|&(di, dj, _)| (di, dj));
            assert_eq!(sorted, taps.flat, "{}", spec.name());
        }
    }

    #[test]
    fn f32_taps_share_the_structure_and_narrow_the_coefficients() {
        for spec in presets::suite_2d() {
            let t64 = Taps2::<f64>::new(&spec, 16);
            let t32 = Taps2::<f32>::new(&spec, 16);
            assert_eq!(t32.flat.len(), t64.flat.len(), "{}", spec.name());
            for (&(di32, dj32, c32), &(di64, dj64, c64)) in t32.flat.iter().zip(&t64.flat) {
                assert_eq!((di32, dj32), (di64, dj64));
                assert_eq!(c32, c64 as f32, "round-to-nearest narrowing");
            }
        }
    }
}
