//! Register-blocked 2-D micro-kernels with runtime SIMD dispatch,
//! generic over the element type.
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
//! (asserted by the `native_dispatch` property suite).
//!
//! The SIMD paths are the in-register analogue of the paper's in-place
//! accumulation (HStencil §3, Algorithm 2): each processes *two output
//! rows* × a register-width-sized column block per step, so every input
//! row vector it loads is reused by all taps of both rows that touch it
//! instead of being re-fetched once per tap the way the seed's
//! tap-per-pass loop did. The bodies live here; the band walk that
//! drives them is the shared [`TileKernel::sweep_band`] default in
//! [`super::kernel`].
//!
//! [`TileKernel::sweep_band`]: super::kernel::TileKernel::sweep_band

use super::hybrid;
use super::kernel::{NativeElement, TileKernel};
use super::Dispatch;
use crate::element::Element;
use crate::stencil::StencilSpec;

/// Preprocessed nonzero taps of a 2-D stencil, with coefficients
/// narrowed to the kernel's element type (nonzero-ness is decided on
/// the `f64` master value, so the tap *structure* is dtype-invariant).
pub struct Taps2<E: Element> {
    /// Radius.
    pub(crate) r: isize,
    /// Canonical `(di, dj, c)` chain — the bit-exactness contract.
    pub(crate) flat: Vec<(isize, isize, E)>,
    /// Taps grouped by input row for one output row: `single[di + r]`
    /// lists `(dj, c)` ascending (nonzero only).
    pub(crate) single: Vec<Vec<(isize, E)>>,
    /// Taps grouped by input row for an output row *pair* `(i, i+1)`:
    /// `pair[e + r]` (input row `i + e`, `e` in `-r ..= r+1`) lists
    /// `(dj, c_row_i, c_row_i1)` merged ascending by `dj`; a zero
    /// coefficient means the tap does not touch that output row.
    pub(crate) pair: Vec<Vec<(isize, E, E)>>,
    /// The same taps split for the hybrid 8×8 register-tile schedule
    /// ([`super::hybrid`]): vertical rank-1 coefficients + inner MLA
    /// taps.
    pub(crate) hybrid: hybrid::TapsHybrid<E>,
}

impl<E: Element> Taps2<E> {
    pub(crate) fn new(spec: &StencilSpec) -> Taps2<E> {
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
        let mut pair = Vec::with_capacity((2 * r + 2) as usize);
        for e in -r..=(r + 1) {
            // Output row i sees input row i+e as tap di = e; output row
            // i+1 sees it as di = e-1. Merge the two dj lists.
            let a = Self::row(&single, e, r);
            let b = Self::row(&single, e - 1, r);
            pair.push(merge_pair_rows(a, b));
        }
        Taps2 {
            r,
            flat,
            single,
            pair,
            hybrid: hybrid::TapsHybrid::new(spec),
        }
    }

    fn row(single: &[Vec<(isize, E)>], di: isize, r: isize) -> &[(isize, E)] {
        if di < -r || di > r {
            &[]
        } else {
            &single[(di + r) as usize]
        }
    }

    /// Rows resident while the pair kernel streams one column tile
    /// (input rows of the pair plus the two output rows).
    pub(crate) fn rows_in_flight(&self) -> usize {
        (2 * self.r + 2) as usize + 2
    }
}

/// Merges the `(dj, c)` tap lists of one input row as seen by an output
/// row pair `(i, i+1)` into one `(dj, c_row_i, c_row_i1)` list ascending
/// by `dj` (a zero coefficient means the tap does not touch that output
/// row). Shared by the 2-D pair tables and the 3-D `(dk, e)` pair
/// grouping in [`super::kernel3d`].
pub(crate) fn merge_pair_rows<E: Element>(
    a: &[(isize, E)],
    b: &[(isize, E)],
) -> Vec<(isize, E, E)> {
    let mut merged: Vec<(isize, E, E)> = Vec::new();
    let (mut ia, mut ib) = (0usize, 0usize);
    while ia < a.len() || ib < b.len() {
        let next_a = a.get(ia).map(|t| t.0);
        let next_b = b.get(ib).map(|t| t.0);
        match (next_a, next_b) {
            (Some(da), Some(db)) if da == db => {
                merged.push((da, a[ia].1, b[ib].1));
                ia += 1;
                ib += 1;
            }
            (Some(da), Some(db)) if da < db => {
                merged.push((da, a[ia].1, E::ZERO));
                ia += 1;
            }
            (Some(_), Some(db)) => {
                merged.push((db, E::ZERO, b[ib].1));
                ib += 1;
            }
            (Some(da), None) => {
                merged.push((da, a[ia].1, E::ZERO));
                ia += 1;
            }
            (None, Some(db)) => {
                merged.push((db, E::ZERO, b[ib].1));
                ib += 1;
            }
            (None, None) => unreachable!(),
        }
    }
    merged
}

/// The canonical scalar chain for one element; also the SIMD tail path.
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
pub(crate) unsafe fn hint_step<E: Element>(
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

#[cfg(target_arch = "x86_64")]
pub(crate) mod avx2 {
    use super::super::prefetch::Prefetch;
    use super::{hint_step, scalar_point, Taps2};
    use std::arch::x86_64::*;

    /// Two output rows, eight columns per step (four 4-lane
    /// accumulators live across the whole tap chain). `base` is the
    /// flat index of `(i, j0)`; `dst0`/`dst1` are the two output row
    /// segments (equal length).
    ///
    /// # Safety
    /// Caller must have verified AVX2 + FMA support.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(crate) unsafe fn row_pair(
        taps: &Taps2<f64>,
        a: &[f64],
        base: isize,
        stride: isize,
        dst0: &mut [f64],
        dst1: &mut [f64],
        pf: Prefetch,
    ) {
        debug_assert_eq!(dst0.len(), dst1.len());
        let jw = dst0.len();
        let ap = a.as_ptr();
        let r = taps.r;
        // Deepest input row of this pair is base + (r+1)*stride; the
        // prefetch stream runs `input_rows` rows below it (the rows the
        // next pair down the band will newly touch).
        let pf_deep = base + (r + 2) * stride;
        let dst_ptrs = [dst0.as_ptr(), dst1.as_ptr()];
        let mut j = 0usize;
        while j + 8 <= jw {
            hint_step(
                ap,
                pf_deep + j as isize,
                stride,
                pf.input_rows,
                &dst_ptrs,
                j,
                pf.dst_cols,
            );
            let mut acc00 = _mm256_setzero_pd();
            let mut acc01 = _mm256_setzero_pd();
            let mut acc10 = _mm256_setzero_pd();
            let mut acc11 = _mm256_setzero_pd();
            for (p, row_taps) in taps.pair.iter().enumerate() {
                let e = p as isize - r;
                let row_base = base + e * stride + j as isize;
                for &(dj, c0, c1) in row_taps {
                    let ptr = ap.offset(row_base + dj);
                    let v0 = _mm256_loadu_pd(ptr);
                    let v1 = _mm256_loadu_pd(ptr.add(4));
                    if c0 != 0.0 {
                        let cv = _mm256_set1_pd(c0);
                        acc00 = _mm256_fmadd_pd(cv, v0, acc00);
                        acc01 = _mm256_fmadd_pd(cv, v1, acc01);
                    }
                    if c1 != 0.0 {
                        let cv = _mm256_set1_pd(c1);
                        acc10 = _mm256_fmadd_pd(cv, v0, acc10);
                        acc11 = _mm256_fmadd_pd(cv, v1, acc11);
                    }
                }
            }
            _mm256_storeu_pd(dst0.as_mut_ptr().add(j), acc00);
            _mm256_storeu_pd(dst0.as_mut_ptr().add(j + 4), acc01);
            _mm256_storeu_pd(dst1.as_mut_ptr().add(j), acc10);
            _mm256_storeu_pd(dst1.as_mut_ptr().add(j + 4), acc11);
            j += 8;
        }
        while j + 4 <= jw {
            let mut acc0 = _mm256_setzero_pd();
            let mut acc1 = _mm256_setzero_pd();
            for (p, row_taps) in taps.pair.iter().enumerate() {
                let e = p as isize - r;
                let row_base = base + e * stride + j as isize;
                for &(dj, c0, c1) in row_taps {
                    let v = _mm256_loadu_pd(ap.offset(row_base + dj));
                    if c0 != 0.0 {
                        acc0 = _mm256_fmadd_pd(_mm256_set1_pd(c0), v, acc0);
                    }
                    if c1 != 0.0 {
                        acc1 = _mm256_fmadd_pd(_mm256_set1_pd(c1), v, acc1);
                    }
                }
            }
            _mm256_storeu_pd(dst0.as_mut_ptr().add(j), acc0);
            _mm256_storeu_pd(dst1.as_mut_ptr().add(j), acc1);
            j += 4;
        }
        while j < jw {
            dst0[j] = scalar_point(&taps.flat, a, base + j as isize, stride);
            dst1[j] = scalar_point(&taps.flat, a, base + stride + j as isize, stride);
            j += 1;
        }
    }

    /// One output row (the odd last row of a band), eight columns per
    /// step.
    ///
    /// # Safety
    /// Caller must have verified AVX2 + FMA support.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(crate) unsafe fn row_single(
        taps: &Taps2<f64>,
        a: &[f64],
        base: isize,
        stride: isize,
        dst: &mut [f64],
        pf: Prefetch,
    ) {
        let jw = dst.len();
        let ap = a.as_ptr();
        let r = taps.r;
        let pf_deep = base + (r + 1) * stride;
        let dst_ptrs = [dst.as_ptr()];
        let mut j = 0usize;
        while j + 8 <= jw {
            hint_step(
                ap,
                pf_deep + j as isize,
                stride,
                pf.input_rows,
                &dst_ptrs,
                j,
                pf.dst_cols,
            );
            let mut acc0 = _mm256_setzero_pd();
            let mut acc1 = _mm256_setzero_pd();
            for (p, row_taps) in taps.single.iter().enumerate() {
                let di = p as isize - r;
                let row_base = base + di * stride + j as isize;
                for &(dj, c) in row_taps {
                    let ptr = ap.offset(row_base + dj);
                    let cv = _mm256_set1_pd(c);
                    acc0 = _mm256_fmadd_pd(cv, _mm256_loadu_pd(ptr), acc0);
                    acc1 = _mm256_fmadd_pd(cv, _mm256_loadu_pd(ptr.add(4)), acc1);
                }
            }
            _mm256_storeu_pd(dst.as_mut_ptr().add(j), acc0);
            _mm256_storeu_pd(dst.as_mut_ptr().add(j + 4), acc1);
            j += 8;
        }
        while j + 4 <= jw {
            let mut acc = _mm256_setzero_pd();
            for (p, row_taps) in taps.single.iter().enumerate() {
                let di = p as isize - r;
                let row_base = base + di * stride + j as isize;
                for &(dj, c) in row_taps {
                    let v = _mm256_loadu_pd(ap.offset(row_base + dj));
                    acc = _mm256_fmadd_pd(_mm256_set1_pd(c), v, acc);
                }
            }
            _mm256_storeu_pd(dst.as_mut_ptr().add(j), acc);
            j += 4;
        }
        while j < jw {
            dst[j] = scalar_point(&taps.flat, a, base + j as isize, stride);
            j += 1;
        }
    }

    /// The `f32` row pair: same schedule as [`row_pair`] at double the
    /// lane count — two output rows × sixteen columns per step, four
    /// 8-lane accumulators. Same canonical chain per element, so it is
    /// bit-identical to the `f32` scalar fallback.
    ///
    /// # Safety
    /// Caller must have verified AVX2 + FMA support.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(crate) unsafe fn row_pair_f32(
        taps: &Taps2<f32>,
        a: &[f32],
        base: isize,
        stride: isize,
        dst0: &mut [f32],
        dst1: &mut [f32],
        pf: Prefetch,
    ) {
        debug_assert_eq!(dst0.len(), dst1.len());
        let jw = dst0.len();
        let ap = a.as_ptr();
        let r = taps.r;
        let pf_deep = base + (r + 2) * stride;
        let dst_ptrs = [dst0.as_ptr(), dst1.as_ptr()];
        let mut j = 0usize;
        while j + 16 <= jw {
            hint_step(
                ap,
                pf_deep + j as isize,
                stride,
                pf.input_rows,
                &dst_ptrs,
                j,
                pf.dst_cols,
            );
            let mut acc00 = _mm256_setzero_ps();
            let mut acc01 = _mm256_setzero_ps();
            let mut acc10 = _mm256_setzero_ps();
            let mut acc11 = _mm256_setzero_ps();
            for (p, row_taps) in taps.pair.iter().enumerate() {
                let e = p as isize - r;
                let row_base = base + e * stride + j as isize;
                for &(dj, c0, c1) in row_taps {
                    let ptr = ap.offset(row_base + dj);
                    let v0 = _mm256_loadu_ps(ptr);
                    let v1 = _mm256_loadu_ps(ptr.add(8));
                    if c0 != 0.0 {
                        let cv = _mm256_set1_ps(c0);
                        acc00 = _mm256_fmadd_ps(cv, v0, acc00);
                        acc01 = _mm256_fmadd_ps(cv, v1, acc01);
                    }
                    if c1 != 0.0 {
                        let cv = _mm256_set1_ps(c1);
                        acc10 = _mm256_fmadd_ps(cv, v0, acc10);
                        acc11 = _mm256_fmadd_ps(cv, v1, acc11);
                    }
                }
            }
            _mm256_storeu_ps(dst0.as_mut_ptr().add(j), acc00);
            _mm256_storeu_ps(dst0.as_mut_ptr().add(j + 8), acc01);
            _mm256_storeu_ps(dst1.as_mut_ptr().add(j), acc10);
            _mm256_storeu_ps(dst1.as_mut_ptr().add(j + 8), acc11);
            j += 16;
        }
        while j + 8 <= jw {
            let mut acc0 = _mm256_setzero_ps();
            let mut acc1 = _mm256_setzero_ps();
            for (p, row_taps) in taps.pair.iter().enumerate() {
                let e = p as isize - r;
                let row_base = base + e * stride + j as isize;
                for &(dj, c0, c1) in row_taps {
                    let v = _mm256_loadu_ps(ap.offset(row_base + dj));
                    if c0 != 0.0 {
                        acc0 = _mm256_fmadd_ps(_mm256_set1_ps(c0), v, acc0);
                    }
                    if c1 != 0.0 {
                        acc1 = _mm256_fmadd_ps(_mm256_set1_ps(c1), v, acc1);
                    }
                }
            }
            _mm256_storeu_ps(dst0.as_mut_ptr().add(j), acc0);
            _mm256_storeu_ps(dst1.as_mut_ptr().add(j), acc1);
            j += 8;
        }
        while j < jw {
            dst0[j] = scalar_point(&taps.flat, a, base + j as isize, stride);
            dst1[j] = scalar_point(&taps.flat, a, base + stride + j as isize, stride);
            j += 1;
        }
    }

    /// The `f32` odd last row, sixteen columns per step.
    ///
    /// # Safety
    /// Caller must have verified AVX2 + FMA support.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(crate) unsafe fn row_single_f32(
        taps: &Taps2<f32>,
        a: &[f32],
        base: isize,
        stride: isize,
        dst: &mut [f32],
        pf: Prefetch,
    ) {
        let jw = dst.len();
        let ap = a.as_ptr();
        let r = taps.r;
        let pf_deep = base + (r + 1) * stride;
        let dst_ptrs = [dst.as_ptr()];
        let mut j = 0usize;
        while j + 16 <= jw {
            hint_step(
                ap,
                pf_deep + j as isize,
                stride,
                pf.input_rows,
                &dst_ptrs,
                j,
                pf.dst_cols,
            );
            let mut acc0 = _mm256_setzero_ps();
            let mut acc1 = _mm256_setzero_ps();
            for (p, row_taps) in taps.single.iter().enumerate() {
                let di = p as isize - r;
                let row_base = base + di * stride + j as isize;
                for &(dj, c) in row_taps {
                    let ptr = ap.offset(row_base + dj);
                    let cv = _mm256_set1_ps(c);
                    acc0 = _mm256_fmadd_ps(cv, _mm256_loadu_ps(ptr), acc0);
                    acc1 = _mm256_fmadd_ps(cv, _mm256_loadu_ps(ptr.add(8)), acc1);
                }
            }
            _mm256_storeu_ps(dst.as_mut_ptr().add(j), acc0);
            _mm256_storeu_ps(dst.as_mut_ptr().add(j + 8), acc1);
            j += 16;
        }
        while j + 8 <= jw {
            let mut acc = _mm256_setzero_ps();
            for (p, row_taps) in taps.single.iter().enumerate() {
                let di = p as isize - r;
                let row_base = base + di * stride + j as isize;
                for &(dj, c) in row_taps {
                    let v = _mm256_loadu_ps(ap.offset(row_base + dj));
                    acc = _mm256_fmadd_ps(_mm256_set1_ps(c), v, acc);
                }
            }
            _mm256_storeu_ps(dst.as_mut_ptr().add(j), acc);
            j += 8;
        }
        while j < jw {
            dst[j] = scalar_point(&taps.flat, a, base + j as isize, stride);
            j += 1;
        }
    }
}

/// The AVX-512F bodies: the same two-row schedule as [`avx2`] at double
/// the register width (8-wide `f64` / 16-wide `f32` lanes). Each lane
/// still computes the canonical chain, so within one element type these
/// are bit-identical to both the AVX2 and the scalar paths.
#[cfg(target_arch = "x86_64")]
pub(crate) mod avx512 {
    use super::super::prefetch::Prefetch;
    use super::{hint_step, scalar_point, Taps2};
    use std::arch::x86_64::*;

    /// Two `f64` output rows, sixteen columns per step (four 8-lane zmm
    /// accumulators).
    ///
    /// # Safety
    /// Caller must have verified AVX-512F support.
    #[target_feature(enable = "avx512f")]
    pub(crate) unsafe fn row_pair_f64(
        taps: &Taps2<f64>,
        a: &[f64],
        base: isize,
        stride: isize,
        dst0: &mut [f64],
        dst1: &mut [f64],
        pf: Prefetch,
    ) {
        debug_assert_eq!(dst0.len(), dst1.len());
        let jw = dst0.len();
        let ap = a.as_ptr();
        let r = taps.r;
        let pf_deep = base + (r + 2) * stride;
        let dst_ptrs = [dst0.as_ptr(), dst1.as_ptr()];
        let mut j = 0usize;
        while j + 16 <= jw {
            hint_step(
                ap,
                pf_deep + j as isize,
                stride,
                pf.input_rows,
                &dst_ptrs,
                j,
                pf.dst_cols,
            );
            let mut acc00 = _mm512_setzero_pd();
            let mut acc01 = _mm512_setzero_pd();
            let mut acc10 = _mm512_setzero_pd();
            let mut acc11 = _mm512_setzero_pd();
            for (p, row_taps) in taps.pair.iter().enumerate() {
                let e = p as isize - r;
                let row_base = base + e * stride + j as isize;
                for &(dj, c0, c1) in row_taps {
                    let ptr = ap.offset(row_base + dj);
                    let v0 = _mm512_loadu_pd(ptr);
                    let v1 = _mm512_loadu_pd(ptr.add(8));
                    if c0 != 0.0 {
                        let cv = _mm512_set1_pd(c0);
                        acc00 = _mm512_fmadd_pd(cv, v0, acc00);
                        acc01 = _mm512_fmadd_pd(cv, v1, acc01);
                    }
                    if c1 != 0.0 {
                        let cv = _mm512_set1_pd(c1);
                        acc10 = _mm512_fmadd_pd(cv, v0, acc10);
                        acc11 = _mm512_fmadd_pd(cv, v1, acc11);
                    }
                }
            }
            _mm512_storeu_pd(dst0.as_mut_ptr().add(j), acc00);
            _mm512_storeu_pd(dst0.as_mut_ptr().add(j + 8), acc01);
            _mm512_storeu_pd(dst1.as_mut_ptr().add(j), acc10);
            _mm512_storeu_pd(dst1.as_mut_ptr().add(j + 8), acc11);
            j += 16;
        }
        while j + 8 <= jw {
            let mut acc0 = _mm512_setzero_pd();
            let mut acc1 = _mm512_setzero_pd();
            for (p, row_taps) in taps.pair.iter().enumerate() {
                let e = p as isize - r;
                let row_base = base + e * stride + j as isize;
                for &(dj, c0, c1) in row_taps {
                    let v = _mm512_loadu_pd(ap.offset(row_base + dj));
                    if c0 != 0.0 {
                        acc0 = _mm512_fmadd_pd(_mm512_set1_pd(c0), v, acc0);
                    }
                    if c1 != 0.0 {
                        acc1 = _mm512_fmadd_pd(_mm512_set1_pd(c1), v, acc1);
                    }
                }
            }
            _mm512_storeu_pd(dst0.as_mut_ptr().add(j), acc0);
            _mm512_storeu_pd(dst1.as_mut_ptr().add(j), acc1);
            j += 8;
        }
        while j < jw {
            dst0[j] = scalar_point(&taps.flat, a, base + j as isize, stride);
            dst1[j] = scalar_point(&taps.flat, a, base + stride + j as isize, stride);
            j += 1;
        }
    }

    /// One `f64` output row, sixteen columns per step.
    ///
    /// # Safety
    /// Caller must have verified AVX-512F support.
    #[target_feature(enable = "avx512f")]
    pub(crate) unsafe fn row_single_f64(
        taps: &Taps2<f64>,
        a: &[f64],
        base: isize,
        stride: isize,
        dst: &mut [f64],
        pf: Prefetch,
    ) {
        let jw = dst.len();
        let ap = a.as_ptr();
        let r = taps.r;
        let pf_deep = base + (r + 1) * stride;
        let dst_ptrs = [dst.as_ptr()];
        let mut j = 0usize;
        while j + 16 <= jw {
            hint_step(
                ap,
                pf_deep + j as isize,
                stride,
                pf.input_rows,
                &dst_ptrs,
                j,
                pf.dst_cols,
            );
            let mut acc0 = _mm512_setzero_pd();
            let mut acc1 = _mm512_setzero_pd();
            for (p, row_taps) in taps.single.iter().enumerate() {
                let di = p as isize - r;
                let row_base = base + di * stride + j as isize;
                for &(dj, c) in row_taps {
                    let ptr = ap.offset(row_base + dj);
                    let cv = _mm512_set1_pd(c);
                    acc0 = _mm512_fmadd_pd(cv, _mm512_loadu_pd(ptr), acc0);
                    acc1 = _mm512_fmadd_pd(cv, _mm512_loadu_pd(ptr.add(8)), acc1);
                }
            }
            _mm512_storeu_pd(dst.as_mut_ptr().add(j), acc0);
            _mm512_storeu_pd(dst.as_mut_ptr().add(j + 8), acc1);
            j += 16;
        }
        while j + 8 <= jw {
            let mut acc = _mm512_setzero_pd();
            for (p, row_taps) in taps.single.iter().enumerate() {
                let di = p as isize - r;
                let row_base = base + di * stride + j as isize;
                for &(dj, c) in row_taps {
                    let v = _mm512_loadu_pd(ap.offset(row_base + dj));
                    acc = _mm512_fmadd_pd(_mm512_set1_pd(c), v, acc);
                }
            }
            _mm512_storeu_pd(dst.as_mut_ptr().add(j), acc);
            j += 8;
        }
        while j < jw {
            dst[j] = scalar_point(&taps.flat, a, base + j as isize, stride);
            j += 1;
        }
    }

    /// Two `f32` output rows, thirty-two columns per step (four 16-lane
    /// zmm accumulators).
    ///
    /// # Safety
    /// Caller must have verified AVX-512F support.
    #[target_feature(enable = "avx512f")]
    pub(crate) unsafe fn row_pair_f32(
        taps: &Taps2<f32>,
        a: &[f32],
        base: isize,
        stride: isize,
        dst0: &mut [f32],
        dst1: &mut [f32],
        pf: Prefetch,
    ) {
        debug_assert_eq!(dst0.len(), dst1.len());
        let jw = dst0.len();
        let ap = a.as_ptr();
        let r = taps.r;
        let pf_deep = base + (r + 2) * stride;
        let dst_ptrs = [dst0.as_ptr(), dst1.as_ptr()];
        let mut j = 0usize;
        while j + 32 <= jw {
            hint_step(
                ap,
                pf_deep + j as isize,
                stride,
                pf.input_rows,
                &dst_ptrs,
                j,
                pf.dst_cols,
            );
            let mut acc00 = _mm512_setzero_ps();
            let mut acc01 = _mm512_setzero_ps();
            let mut acc10 = _mm512_setzero_ps();
            let mut acc11 = _mm512_setzero_ps();
            for (p, row_taps) in taps.pair.iter().enumerate() {
                let e = p as isize - r;
                let row_base = base + e * stride + j as isize;
                for &(dj, c0, c1) in row_taps {
                    let ptr = ap.offset(row_base + dj);
                    let v0 = _mm512_loadu_ps(ptr);
                    let v1 = _mm512_loadu_ps(ptr.add(16));
                    if c0 != 0.0 {
                        let cv = _mm512_set1_ps(c0);
                        acc00 = _mm512_fmadd_ps(cv, v0, acc00);
                        acc01 = _mm512_fmadd_ps(cv, v1, acc01);
                    }
                    if c1 != 0.0 {
                        let cv = _mm512_set1_ps(c1);
                        acc10 = _mm512_fmadd_ps(cv, v0, acc10);
                        acc11 = _mm512_fmadd_ps(cv, v1, acc11);
                    }
                }
            }
            _mm512_storeu_ps(dst0.as_mut_ptr().add(j), acc00);
            _mm512_storeu_ps(dst0.as_mut_ptr().add(j + 16), acc01);
            _mm512_storeu_ps(dst1.as_mut_ptr().add(j), acc10);
            _mm512_storeu_ps(dst1.as_mut_ptr().add(j + 16), acc11);
            j += 32;
        }
        while j + 16 <= jw {
            let mut acc0 = _mm512_setzero_ps();
            let mut acc1 = _mm512_setzero_ps();
            for (p, row_taps) in taps.pair.iter().enumerate() {
                let e = p as isize - r;
                let row_base = base + e * stride + j as isize;
                for &(dj, c0, c1) in row_taps {
                    let v = _mm512_loadu_ps(ap.offset(row_base + dj));
                    if c0 != 0.0 {
                        acc0 = _mm512_fmadd_ps(_mm512_set1_ps(c0), v, acc0);
                    }
                    if c1 != 0.0 {
                        acc1 = _mm512_fmadd_ps(_mm512_set1_ps(c1), v, acc1);
                    }
                }
            }
            _mm512_storeu_ps(dst0.as_mut_ptr().add(j), acc0);
            _mm512_storeu_ps(dst1.as_mut_ptr().add(j), acc1);
            j += 16;
        }
        while j < jw {
            dst0[j] = scalar_point(&taps.flat, a, base + j as isize, stride);
            dst1[j] = scalar_point(&taps.flat, a, base + stride + j as isize, stride);
            j += 1;
        }
    }

    /// One `f32` output row, thirty-two columns per step.
    ///
    /// # Safety
    /// Caller must have verified AVX-512F support.
    #[target_feature(enable = "avx512f")]
    pub(crate) unsafe fn row_single_f32(
        taps: &Taps2<f32>,
        a: &[f32],
        base: isize,
        stride: isize,
        dst: &mut [f32],
        pf: Prefetch,
    ) {
        let jw = dst.len();
        let ap = a.as_ptr();
        let r = taps.r;
        let pf_deep = base + (r + 1) * stride;
        let dst_ptrs = [dst.as_ptr()];
        let mut j = 0usize;
        while j + 32 <= jw {
            hint_step(
                ap,
                pf_deep + j as isize,
                stride,
                pf.input_rows,
                &dst_ptrs,
                j,
                pf.dst_cols,
            );
            let mut acc0 = _mm512_setzero_ps();
            let mut acc1 = _mm512_setzero_ps();
            for (p, row_taps) in taps.single.iter().enumerate() {
                let di = p as isize - r;
                let row_base = base + di * stride + j as isize;
                for &(dj, c) in row_taps {
                    let ptr = ap.offset(row_base + dj);
                    let cv = _mm512_set1_ps(c);
                    acc0 = _mm512_fmadd_ps(cv, _mm512_loadu_ps(ptr), acc0);
                    acc1 = _mm512_fmadd_ps(cv, _mm512_loadu_ps(ptr.add(16)), acc1);
                }
            }
            _mm512_storeu_ps(dst.as_mut_ptr().add(j), acc0);
            _mm512_storeu_ps(dst.as_mut_ptr().add(j + 16), acc1);
            j += 32;
        }
        while j + 16 <= jw {
            let mut acc = _mm512_setzero_ps();
            for (p, row_taps) in taps.single.iter().enumerate() {
                let di = p as isize - r;
                let row_base = base + di * stride + j as isize;
                for &(dj, c) in row_taps {
                    let v = _mm512_loadu_ps(ap.offset(row_base + dj));
                    acc = _mm512_fmadd_ps(_mm512_set1_ps(c), v, acc);
                }
            }
            _mm512_storeu_ps(dst.as_mut_ptr().add(j), acc);
            j += 16;
        }
        while j < jw {
            dst[j] = scalar_point(&taps.flat, a, base + j as isize, stride);
            j += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stencil::presets;

    #[test]
    fn pair_merge_covers_both_rows_in_canonical_order() {
        let taps = Taps2::<f64>::new(&presets::star2d9p());
        assert_eq!(taps.pair.len(), 2 * 2 + 2);
        let mut from_pair_row0 = Vec::new();
        let mut from_pair_row1 = Vec::new();
        for (p, row) in taps.pair.iter().enumerate() {
            let e = p as isize - taps.r;
            for &(dj, c0, c1) in row {
                // dj strictly ascending within one input row.
                assert!(c0 != 0.0 || c1 != 0.0);
                if c0 != 0.0 {
                    from_pair_row0.push((e, dj, c0));
                }
                if c1 != 0.0 {
                    from_pair_row1.push((e - 1, dj, c1));
                }
            }
        }
        assert_eq!(from_pair_row0, taps.flat);
        assert_eq!(from_pair_row1, taps.flat);
    }

    #[test]
    fn flat_taps_are_sorted_and_nonzero() {
        for spec in presets::suite_2d() {
            let taps = Taps2::<f64>::new(&spec);
            assert_eq!(taps.flat.len(), spec.points());
            let mut sorted = taps.flat.clone();
            sorted.sort_by_key(|&(di, dj, _)| (di, dj));
            assert_eq!(sorted, taps.flat, "{}", spec.name());
        }
    }

    #[test]
    fn f32_taps_share_the_structure_and_narrow_the_coefficients() {
        for spec in presets::suite_2d() {
            let t64 = Taps2::<f64>::new(&spec);
            let t32 = Taps2::<f32>::new(&spec);
            assert_eq!(t32.flat.len(), t64.flat.len(), "{}", spec.name());
            for (&(di32, dj32, c32), &(di64, dj64, c64)) in t32.flat.iter().zip(&t64.flat) {
                assert_eq!((di32, dj32), (di64, dj64));
                assert_eq!(c32, c64 as f32, "round-to-nearest narrowing");
            }
        }
    }
}
