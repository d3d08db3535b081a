//! `stream_timesteps`: `native::time_steps` with 8 sweeps on 2 threads
//! over grids at least 4x the host's last-level cache, star2d5p and
//! box2d9p in f64. DRAM traffic and the temporal executor dominate;
//! per-call dispatch and pool costs are noise at this size.

use crate::gen;
use crate::stats::{self, repeated_setup};
use crate::trace::NONE;
use crate::{check, host, Run};
use hstencil_core::native::{self, Dispatch};
use hstencil_core::{Dtype, Grid2d, StencilSpec, ThreadPool};
use hstencil_testkit::Json;
use std::time::{Duration, Instant};

/// Grid edge: 12800² f64 is 1250 MiB per array, over 4x a 300 MiB LLC.
const N: usize = 12_800;
const SWEEPS: usize = 8;
const THREADS: usize = 2;
const STENCILS: [&str; 2] = ["star2d5p", "box2d9p"];
/// Edge of each spot-checked output region, and how many per call.
const CHECK_EDGE: usize = 24;
const CHECK_REGIONS: usize = 6;

fn lazy_setup(specs: &[StencilSpec]) {
    ThreadPool::global().run(THREADS, &|_, _| {});
    for spec in specs {
        std::hint::black_box(Dispatch::for_sweep_dtype(spec, N, N, THREADS, Dtype::F64));
    }
}

/// Top-left corners of the regions checked after call `call`: the four
/// grid corners (where the real boundary meets the tiling) and seeded
/// interior points.
fn check_corners(seed: u64, call: u64, n: usize, edge: usize, count: usize) -> Vec<(usize, usize)> {
    let last = n - edge;
    let mut out = vec![(0, 0), (0, last), (last, 0), (last, last)];
    for k in 0..count.saturating_sub(4) as u64 {
        let i = gen::hash(seed, 1000 + call, 2 * k) as usize % (last + 1);
        let j = gen::hash(seed, 1000 + call, 2 * k + 1) as usize % (last + 1);
        out.push((i, j));
    }
    out
}

/// Cells of `result` (after `sweeps` steps from `input`) that miss the
/// reference in the `edge`² regions at `corners`. Each region is
/// recomputed on a window padded by the dependency cone `sweeps * r`;
/// where the window meets the grid edge it carries the real boundary.
pub fn check_regions(
    spec: &StencilSpec,
    input: &Grid2d,
    result: &Grid2d,
    sweeps: usize,
    corners: &[(usize, usize)],
    edge: usize,
) -> usize {
    let (h, w, r) = (input.h(), input.w(), spec.radius());
    let g = sweeps * r;
    let tol = check::tolerance(
        spec,
        Dtype::F64,
        check::max_abs(input.raw()).max(1.0),
        sweeps,
    );
    let mut bad = 0;
    for &(i0, j0) in corners {
        let (ilo, jlo) = (i0.saturating_sub(g), j0.saturating_sub(g));
        let (ihi, jhi) = ((i0 + edge + g).min(h), (j0 + edge + g).min(w));
        let win = Grid2d::from_fn(ihi - ilo, jhi - jlo, r, |i, j| {
            input.at(ilo as isize + i, jlo as isize + j)
        });
        let want = check::reference_steps(spec, &win, sweeps);
        for i in i0..i0 + edge {
            for j in j0..j0 + edge {
                let a = want.at((i - ilo) as isize, (j - jlo) as isize);
                let b = result.at(i as isize, j as isize);
                // Negated so a NaN can never pass.
                let within = (a - b).abs() <= tol;
                bad += usize::from(!within);
            }
        }
    }
    bad
}

/// Compulsory traffic of one `time_steps` call in bytes, computed from
/// the temporal executor's default geometry (128x512 base tiles; the
/// fused depth is the deepest trapezoid, at most 8, whose two scratch
/// levels fit 1.25 MiB): every superstep reads each tile with its
/// `r * t_block` ghost ring and writes the interior once.
pub fn computed_bytes(n: usize, r: usize, sweeps: usize, elem: usize) -> f64 {
    const TH: usize = 128;
    const TW: usize = 512;
    let scratch = |t: usize| {
        let g = r * (t - 1) + r;
        (TH + 2 * g) * (TW + 2 * g).div_ceil(8) * 8
    };
    let mut t = 1;
    while t < 8 && t < sweeps && 2 * scratch(t + 1) * 8 <= 1_280 * 1024 {
        t += 1;
    }
    let supersteps = sweeps.div_ceil(t) as f64;
    let ghost = (r * t) as f64;
    let read = (1.0 + 2.0 * ghost / TH as f64) * (1.0 + 2.0 * ghost / TW as f64);
    supersteps * (read + 1.0) * (n * n * elem) as f64
}

/// One timed call plus its spot check. Returns (seconds, failed).
fn call(run: &mut Run, spec: &StencilSpec, input: &Grid2d, idx: u64) -> (f64, bool) {
    let id = run.tracer.open("native.time_steps", NONE, None);
    let t0 = Instant::now();
    let out = native::time_steps(spec, input, SWEEPS, THREADS);
    let secs = t0.elapsed().as_secs_f64();
    run.tracer.close(id);
    let corners = check_corners(run.seed, idx, N, CHECK_EDGE, CHECK_REGIONS);
    let id = run.tracer.open("check.windows", NONE, None);
    let bad = check_regions(spec, input, &out, SWEEPS, &corners, CHECK_EDGE);
    run.tracer.close(id);
    if bad > 0 {
        eprintln!(
            "perfbench: {} call {idx}: {bad} cells outside the reference bound",
            spec.name()
        );
    }
    (secs, bad > 0)
}

/// Runs (star, box) pairs until `budget` has passed (at least one pair).
/// Returns per-call seconds, in call order.
fn pairs(
    run: &mut Run,
    specs: &[StencilSpec],
    input: &Grid2d,
    budget: Duration,
    calls: &mut u64,
) -> Vec<f64> {
    let start = Instant::now();
    let mut times = Vec::new();
    while times.is_empty() || start.elapsed() < budget {
        for spec in specs {
            let (secs, failed) = call(run, spec, input, *calls);
            run.ops(1, u64::from(failed));
            *calls += 1;
            times.push(secs);
        }
    }
    times
}

/// Median over (star, box) pairs of interior cells x sweeps / seconds
/// inside `time_steps`.
fn gcell_rate(times: &[f64]) -> f64 {
    let pairs: Vec<f64> = times
        .chunks(2)
        .map(|p| (2 * N * N * SWEEPS) as f64 / p.iter().sum::<f64>() / 1e9)
        .collect();
    stats::median(&pairs)
}

pub fn run(run: &mut Run) {
    let specs: Vec<StencilSpec> = STENCILS.iter().map(|s| gen::preset(s)).collect();
    let grid_bytes = (N * N * 8) as u64;
    let llc = host::llc_bytes();
    run.record(
        "grid",
        Json::object([
            ("edge", Json::UInt(N as u64)),
            ("bytes_per_array", Json::UInt(grid_bytes)),
            ("llc_bytes", llc.map_or(Json::Null, Json::UInt)),
            ("sweeps", Json::UInt(SWEEPS as u64)),
            ("threads", Json::UInt(THREADS as u64)),
        ]),
    );
    eprintln!(
        "perfbench: stream grid {N}x{N} f64 = {} MiB per array; LLC {}",
        grid_bytes >> 20,
        llc.map_or("unknown".into(), |b| format!("{} MiB", b >> 20))
    );
    if llc.is_some_and(|b| grid_bytes < 4 * b) {
        eprintln!("perfbench: warning: the grid is under 4x this host's LLC");
    }

    // The roofline probes run first, before the grids exist.
    if run.traced() {
        roofline(run, llc);
    }

    let seed = run.seed;
    let nproc = host::nproc();
    let reps = if run.traced() { 1 } else { 3 };
    let (input, setup_s) = repeated_setup(reps, || {
        lazy_setup(&specs);
        gen::grid_2d_parallel(seed, 0, N, N, 1, nproc)
    });
    let dispatches = specs.iter().map(|s| {
        Json::object([
            ("stencil", Json::Str(s.name().into())),
            (
                "dispatch",
                Json::Str(
                    Dispatch::for_sweep_dtype(s, N, N, THREADS, Dtype::F64)
                        .label()
                        .into(),
                ),
            ),
        ])
    });
    run.record("cases", Json::array(dispatches.collect::<Vec<_>>()));

    let budget = Duration::from_secs_f64(run.seconds);
    let mut calls = 0;
    if !run.traced() {
        run.metrics.set("setup_s", setup_s);
        let times = pairs(run, &specs, &input, budget, &mut calls);
        run.metrics.set("gcell_updates_per_s", gcell_rate(&times));
        return;
    }

    // Untraced then traced pairs give the tracing overhead; the traced
    // calls give the temporal executor's numbers.
    run.tracer.set_enabled(false);
    let plain = pairs(run, &specs, &input, budget / 2, &mut calls);
    run.tracer.set_enabled(true);
    let traced = pairs(run, &specs, &input, budget / 2, &mut calls);
    run.set_overhead(1.0 - gcell_rate(&traced) / gcell_rate(&plain));
    let all: Vec<f64> = plain.iter().chain(&traced).copied().collect();
    let per_call_bytes = computed_bytes(N, 1, SWEEPS, 8);
    let total_time: f64 = all.iter().sum();
    let total_bytes = per_call_bytes * all.len() as f64;
    let pair_flops: f64 = specs
        .iter()
        .map(|s| (N * N * SWEEPS) as f64 * s.flops_per_point() as f64)
        .sum();
    let total_flops = pair_flops * (all.len() / 2) as f64;
    run.metrics.set(
        "native.temporal.sweep_s",
        stats::median(&all) / SWEEPS as f64,
    );
    run.metrics
        .set("native.temporal.computed_gb", per_call_bytes / 1e9);
    run.metrics.set(
        "native.temporal.achieved_gb_per_s",
        total_bytes / total_time / 1e9,
    );
    let triad = run
        .metrics
        .get("host.triad_gb_per_s")
        .expect("roofline ran");
    let fma = run.metrics.get("host.fma_gflops").expect("roofline ran");
    let bound = fma.min(triad * total_flops / total_bytes);
    run.metrics.set(
        "native.temporal.roofline_frac",
        total_flops / total_time / 1e9 / bound,
    );

    // Paired: time_steps against the ping-pong time_steps_in on the same
    // grid and dispatch, ABBA.
    let spec = &specs[0];
    let d = Dispatch::for_sweep_dtype(spec, N, N, THREADS, Dtype::F64);
    let seed = run.seed;
    let mut failed = 0u64;
    let mut attempted = 0u64;
    let groups = if run.probe.is_some() { 1 } else { 2 };
    let id = run.tracer.open("native.temporal.vs_pingpong", NONE, None);
    let p = stats::abba(groups, |temporal| {
        let t0 = Instant::now();
        let out = if temporal {
            native::time_steps(spec, &input, SWEEPS, THREADS)
        } else {
            native::time_steps_in(ThreadPool::global(), d, spec, &input, SWEEPS, THREADS)
        };
        let secs = t0.elapsed().as_secs_f64();
        let corners = check_corners(seed, 5000 + attempted, N, CHECK_EDGE, CHECK_REGIONS);
        failed += u64::from(check_regions(spec, &input, &out, SWEEPS, &corners, CHECK_EDGE) > 0);
        attempted += 1;
        secs
    });
    run.tracer.close(id);
    run.ops(attempted, failed);
    // abba gives t_b / t_a: throughput of time_steps over the ping-pong.
    run.metrics.set("native.temporal.vs_pingpong", p.median);
    run.metrics.set("native.temporal.vs_pingpong.q1", p.q1);
    run.metrics.set("native.temporal.vs_pingpong.q3", p.q3);

    let selfs = run.tracer.self_seconds();
    for name in ["native.time_steps", "check.windows"] {
        run.metrics.set(
            &format!("{name}.self_s"),
            selfs.get(name).copied().unwrap_or(0.0),
        );
    }
}

/// Same-run roofline: a triad over three arrays that together span at
/// least 4x the LLC, and the FMA peak, both on every core.
fn roofline(run: &mut Run, llc: Option<u64>) {
    let total = 4 * llc.unwrap_or(300 << 20);
    let elems = (total / 3).div_ceil(8) as usize;
    let id = run.tracer.open("host.triad", NONE, None);
    let triad = host::triad_gb_per_s(elems, host::nproc(), 5);
    run.tracer.close(id);
    let id = run.tracer.open("host.fma", NONE, None);
    let fma = host::fma_gflops(host::nproc(), Duration::from_millis(300));
    run.tracer.close(id);
    run.record(
        "triad",
        Json::object([
            ("bytes_per_array", Json::UInt((elems * 8) as u64)),
            ("arrays", Json::UInt(3)),
            ("threads", Json::UInt(host::nproc() as u64)),
        ]),
    );
    run.metrics.set("host.triad_gb_per_s", triad);
    run.metrics.set("host.fma_gflops", fma);
}

#[cfg(test)]
mod tests {
    use super::*;
    use hstencil_core::presets;

    #[test]
    fn region_checks_pass_on_time_steps_and_catch_a_corrupted_cell() {
        let (n, sweeps, edge) = (160, 8, 12);
        for spec in [presets::star2d5p(), presets::box2d9p()] {
            let input: Grid2d = gen::grid_2d(4, 0, n, n, 1);
            let mut out = native::time_steps(&spec, &input, sweeps, 2);
            let corners = check_corners(4, 0, n, edge, 6);
            assert_eq!(
                check_regions(&spec, &input, &out, sweeps, &corners, edge),
                0
            );
            let (i, j) = corners[5];
            let v = out.at(i as isize + 3, j as isize + 4);
            out.set(i as isize + 3, j as isize + 4, v + 1e-6);
            assert_eq!(
                check_regions(&spec, &input, &out, sweeps, &corners, edge),
                1
            );
        }
    }

    #[test]
    fn corners_are_seeded_and_in_range() {
        let a = check_corners(1, 2, 100, 10, 6);
        assert_eq!(a, check_corners(1, 2, 100, 10, 6));
        assert_ne!(a, check_corners(2, 2, 100, 10, 6));
        assert!(a.iter().all(|&(i, j)| i <= 90 && j <= 90));
    }

    #[test]
    fn computed_traffic_follows_the_fused_depth() {
        // Radius 1, 8 sweeps: one superstep of depth 8.
        let one = computed_bytes(1024, 1, 8, 8);
        let grid = (1024 * 1024 * 8) as f64;
        assert!(one > 2.0 * grid && one < 2.3 * grid, "{one}");
        // A single sweep cannot fuse: one read and one write, plus ghosts.
        let single = computed_bytes(1024, 1, 1, 8);
        assert!(single > 2.0 * grid && single < 2.1 * grid);
    }
}
