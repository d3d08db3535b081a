//! Seeded inputs.
//!
//! Every input value is a pure function of `(seed, stream, index)`, so a
//! multi-gigabyte grid can be filled by several threads at once and any
//! cell of it can be recomputed for a spot check without keeping a copy.
//! The library only ever receives the generated grids and jobs.

use hstencil_core::{presets, Element, Grid2d, Grid2dT, Grid3dT, StencilSpec};

/// The stencils the workloads run, by preset name.
pub fn preset(name: &str) -> StencilSpec {
    match name {
        "star2d5p" => presets::star2d5p(),
        "star2d9p" => presets::star2d9p(),
        "box2d9p" => presets::box2d9p(),
        "box2d25p" => presets::box2d25p(),
        "heat2d" => presets::heat2d(),
        "star3d7p" => presets::star3d7p(),
        _ => panic!("no preset {name}"),
    }
}

/// SplitMix64 finalizer over `(seed, stream, idx)`.
pub fn hash(seed: u64, stream: u64, idx: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
        .wrapping_add(idx.wrapping_mul(0x8CB9_2BA7_2F3D_8DD7))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A value in `[-1, 1)` with 53 random bits.
pub fn unit(seed: u64, stream: u64, idx: u64) -> f64 {
    (hash(seed, stream, idx) >> 11) as f64 * (2.0 / (1u64 << 53) as f64) - 1.0
}

/// The value of cell `(i, j)` (halo coordinates allowed) of the 2-D input
/// with interior width `w` and halo `r`.
pub fn cell_2d(seed: u64, stream: u64, w: usize, r: usize, i: isize, j: isize) -> f64 {
    let row = (i + r as isize) as u64;
    let col = (j + r as isize) as u64;
    unit(seed, stream, row * (w + 2 * r) as u64 + col)
}

/// A seeded `h x w` grid with halo `r`, interior and halo filled.
pub fn grid_2d<E: Element>(seed: u64, stream: u64, h: usize, w: usize, r: usize) -> Grid2dT<E> {
    Grid2dT::from_fn(h, w, r, |i, j| {
        E::from_f64(cell_2d(seed, stream, w, r, i, j))
    })
}

/// [`grid_2d`] filled by `threads` threads — the same values, for grids
/// too large to fill on one core within the set-up budget.
pub fn grid_2d_parallel(
    seed: u64,
    stream: u64,
    h: usize,
    w: usize,
    r: usize,
    threads: usize,
) -> Grid2d {
    let mut g = Grid2d::zeros(h, w, r);
    let stride = g.stride();
    // Offset of cell (-r, -r) inside the first storage row.
    let col0 = g.index(-(r as isize), -(r as isize));
    let rows: Vec<&mut [f64]> = g.raw_mut().chunks_mut(stride).collect();
    let per = rows.len().div_ceil(threads.max(1));
    let mut rows = rows;
    std::thread::scope(|s| {
        let mut first_row = 0usize;
        while !rows.is_empty() {
            let take = per.min(rows.len());
            let band: Vec<&mut [f64]> = rows.drain(..take).collect();
            let base = first_row;
            s.spawn(move || {
                for (k, row) in band.into_iter().enumerate() {
                    let i = (base + k) as isize - r as isize;
                    for (jj, v) in row[col0..col0 + w + 2 * r].iter_mut().enumerate() {
                        *v = cell_2d(seed, stream, w, r, i, jj as isize - r as isize);
                    }
                }
            });
            first_row += take;
        }
    });
    g
}

/// A seeded `d x h x w` grid with halo `r`.
pub fn grid_3d<E: Element>(
    seed: u64,
    stream: u64,
    d: usize,
    h: usize,
    w: usize,
    r: usize,
) -> Grid3dT<E> {
    let (hh, ww) = ((h + 2 * r) as u64, (w + 2 * r) as u64);
    Grid3dT::from_fn(d, h, w, r, |k, i, j| {
        let (k, i, j) = (
            (k + r as isize) as u64,
            (i + r as isize) as u64,
            (j + r as isize) as u64,
        );
        E::from_f64(unit(seed, stream, (k * hh + i) * ww + j))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_and_another_seed_changes_them() {
        let a: Grid2d = grid_2d(7, 1, 24, 40, 2);
        let b: Grid2d = grid_2d(7, 1, 24, 40, 2);
        let c: Grid2d = grid_2d(8, 1, 24, 40, 2);
        assert_eq!(a.raw(), b.raw());
        assert_ne!(a.raw(), c.raw());
        let s: Grid3dT<f32> = grid_3d(7, 2, 4, 6, 8, 1);
        assert_eq!(s, grid_3d::<f32>(7, 2, 4, 6, 8, 1));
        assert_ne!(s, grid_3d::<f32>(9, 2, 4, 6, 8, 1));
    }

    #[test]
    fn streams_are_independent() {
        let a: Grid2d = grid_2d(7, 1, 16, 16, 1);
        let b: Grid2d = grid_2d(7, 2, 16, 16, 1);
        assert_ne!(a.raw(), b.raw());
    }

    #[test]
    fn parallel_fill_matches_the_serial_grid() {
        for (h, w, r, t) in [(5, 9, 1, 2), (33, 17, 2, 3), (8, 8, 3, 1)] {
            let serial: Grid2d = grid_2d(11, 3, h, w, r);
            assert_eq!(serial, grid_2d_parallel(11, 3, h, w, r, t), "{h}x{w} r{r}");
        }
    }

    #[test]
    fn values_lie_in_the_unit_interval() {
        for idx in 0..10_000 {
            let v = unit(1, 2, idx);
            assert!((-1.0..1.0).contains(&v));
        }
    }
}
