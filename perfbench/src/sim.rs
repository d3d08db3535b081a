//! `sim_figures`: the simulated paper figures. The Figure-12 in-cache set
//! (the 2-D suite at 128² with Auto, Vector-only, Matrix-only and
//! HStencil on `MachineConfig::lx2()`), the Figure-15 out-of-cache point
//! (box2d25p at 1024²: Auto, STOP, HStencil with and without prefetch),
//! one `apple_m4()` in-cache run and one `auto_schedule(true)` run. Kernel
//! emission, `isa::sched` and the `lx2-sim` engine and hierarchy do the
//! work; no other workload touches them.

use crate::stats::{self, repeated_setup};
use crate::trace::NONE;
use crate::{gen, Run};
use hstencil_core::kernels::{inplace::InplaceKernel, tile_starts, Kernel, KernelCtx, Plane};
use hstencil_core::{presets, reference, Grid2d, Method, StencilPlan, StencilSpec};
use hstencil_testkit::Json;
use lx2_isa::{schedule_program, Program, ScheduleParams, VLEN};
use lx2_sim::{Machine, MachineConfig};
use std::time::{Duration, Instant};

struct SimCase {
    cfg: MachineConfig,
    spec: StencilSpec,
    method: Method,
    n: usize,
    warmup: usize,
    prefetch: Option<bool>,
    auto_schedule: bool,
}

fn figure_set() -> Vec<SimCase> {
    let lx2 = MachineConfig::lx2();
    let mut set = Vec::new();
    for spec in presets::suite_2d() {
        for method in [
            Method::Auto,
            Method::VectorOnly,
            Method::MatrixOnly,
            Method::HStencil,
        ] {
            set.push(SimCase {
                cfg: lx2.clone(),
                spec: spec.clone(),
                method,
                n: 128,
                warmup: 1,
                prefetch: None,
                auto_schedule: false,
            });
        }
    }
    for (method, prefetch) in [
        (Method::Auto, None),
        (Method::MatrixOnly, None),
        (Method::HStencil, Some(false)),
        (Method::HStencil, Some(true)),
    ] {
        set.push(SimCase {
            cfg: lx2.clone(),
            spec: presets::box2d25p(),
            method,
            n: 1024,
            warmup: 0,
            prefetch,
            auto_schedule: false,
        });
    }
    set.push(SimCase {
        cfg: MachineConfig::apple_m4(),
        spec: presets::star2d9p(),
        method: Method::HStencil,
        n: 128,
        warmup: 1,
        prefetch: None,
        auto_schedule: false,
    });
    set.push(SimCase {
        cfg: lx2,
        spec: presets::box2d25p(),
        method: Method::HStencil,
        n: 128,
        warmup: 1,
        prefetch: None,
        auto_schedule: true,
    });
    set
}

fn setup(seed: u64) -> Vec<(SimCase, Grid2d)> {
    figure_set()
        .into_iter()
        .enumerate()
        .map(|(i, c)| {
            let g = gen::grid_2d(seed, 4000 + i as u64, c.n, c.n, c.spec.radius());
            (c, g)
        })
        .collect()
}

/// Totals of one pass over the figure set.
#[derive(Default)]
struct SetTotals {
    instructions: u64,
    cycles: u64,
    l1_load_hits: u64,
    l1_load_accesses: u64,
    /// Simulated cell updates, warm-up sweeps included.
    cells: u64,
    host_s: f64,
    failed: u64,
}

fn run_set(run: &mut Run, set: &[(SimCase, Grid2d)]) -> SetTotals {
    let mut t = SetTotals::default();
    for (c, grid) in set {
        let mut plan = StencilPlan::new(&c.spec, c.method)
            .sweeps(1)
            .warmup(c.warmup)
            .verify(true)
            .auto_schedule(c.auto_schedule);
        if let Some(p) = c.prefetch {
            plan = plan.prefetch(p);
        }
        let id = run.tracer.open("sim.run_2d", NONE, None);
        let t0 = Instant::now();
        let out = plan.run_2d(&c.cfg, grid);
        t.host_s += t0.elapsed().as_secs_f64();
        run.tracer.close(id);
        t.cells += (c.n * c.n * (c.warmup + 1)) as u64;
        match out {
            Ok(o) => {
                let k = &o.report.counters;
                t.instructions += k.instructions;
                t.cycles += k.cycles;
                t.l1_load_hits += k.mem.l1_load_hits;
                t.l1_load_accesses += k.mem.l1_load_accesses;
            }
            Err(e) => {
                eprintln!(
                    "perfbench: {} {} {}x{} on {}: {e}",
                    c.method,
                    c.spec.name(),
                    c.n,
                    c.n,
                    c.cfg.name
                );
                t.failed += 1;
            }
        }
    }
    t
}

/// The instruction and cycle totals the figure set must reproduce,
/// recorded in the `why` of the `sim_figures` workload in
/// `BENCHMARK.json` as `instructions=<n> cycles=<n>`.
fn pinned_totals() -> Option<(u64, u64)> {
    let doc = Json::parse(include_str!("../../BENCHMARK.json")).ok()?;
    let why = doc
        .get("workloads")?
        .as_array()?
        .iter()
        .find(|w| w.get("name").and_then(Json::as_str) == Some("sim_figures"))?
        .get("why")?
        .as_str()?;
    let field = |key: &str| -> Option<u64> {
        let rest = &why[why.find(key)? + key.len()..];
        let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
        digits.parse().ok()
    };
    Some((field("instructions=")?, field("cycles=")?))
}

/// Counts a whole pass as failed when its totals leave the pins.
fn check_pins(run: &mut Run, t: &SetTotals, runs: usize) {
    let ok = pinned_totals() == Some((t.instructions, t.cycles));
    if !ok {
        eprintln!(
            "perfbench: figure set gave instructions={} cycles={}, pinned {:?}",
            t.instructions,
            t.cycles,
            pinned_totals()
        );
    }
    let failed = if ok { t.failed } else { runs as u64 };
    run.ops(runs as u64, failed);
}

pub fn run(run: &mut Run) {
    let seed = run.seed;
    let reps = if run.traced() { 1 } else { 9 };
    let (set, setup_s) = repeated_setup(reps, || setup(seed));
    run.record("sim_runs", Json::UInt(set.len() as u64));
    let budget = Duration::from_secs_f64(run.seconds);

    if !run.traced() {
        run.metrics.set("setup_s", setup_s);
        // Whole passes over the set until the budget has passed; the
        // rate is simulated cell updates per host second of `run_2d`.
        let start = Instant::now();
        let mut rates = Vec::new();
        while rates.is_empty() || start.elapsed() < budget {
            let t = run_set(run, &set);
            check_pins(run, &t, set.len());
            rates.push(t.cells as f64 / t.host_s / 1e9);
        }
        run.metrics
            .set("gcell_updates_per_s", stats::median(&rates));
        return;
    }

    // One untraced and one traced pass give the tracing overhead.
    run.tracer.set_enabled(false);
    let plain = run_set(run, &set);
    check_pins(run, &plain, set.len());
    run.tracer.set_enabled(true);
    let traced = run_set(run, &set);
    check_pins(run, &traced, set.len());
    run.set_overhead(1.0 - plain.host_s / traced.host_s);
    run.metrics.set(
        "sim.minst_per_s",
        plain.instructions as f64 / plain.host_s / 1e6,
    );
    run.metrics
        .set("machine.instructions", traced.instructions as f64);
    run.metrics.set("machine.cycles", traced.cycles as f64);
    run.metrics.set(
        "machine.l1_load_hit_rate",
        traced.l1_load_hits as f64 / traced.l1_load_accesses.max(1) as f64,
    );

    layers(run, budget / 4);

    let selfs = run.tracer.self_seconds();
    for name in [
        "sim.run_2d",
        "core.kernels.emit_tile",
        "isa.sched.schedule_program",
        "machine.execute",
    ] {
        run.metrics.set(
            &format!("{name}.self_s"),
            selfs.get(name).copied().unwrap_or(0.0),
        );
    }
}

/// Drives the three simulator layers one tile at a time for the
/// auto-scheduled HStencil box2d25p 128² sweep on LX2, timing each call:
/// `Kernel::emit_tile`, `schedule_program` and `Machine::execute`. Sweeps
/// repeat until `budget` has passed; the final output is checked against
/// the reference.
fn layers(run: &mut Run, budget: Duration) {
    let cfg = MachineConfig::lx2();
    let spec = presets::box2d25p();
    let grid: Grid2d = gen::grid_2d(run.seed, 4999, 128, 128, spec.radius());
    let mut mach = Machine::new(&cfg);
    let len = grid.raw().len();
    let ra = mach.alloc(len, VLEN);
    let rb = mach.alloc(len, VLEN);
    let stored = mach
        .mem
        .store_slice(ra.base, grid.raw())
        .and_then(|_| mach.mem.store_slice(rb.base, grid.raw()));
    stored.expect("simulated memory holds the grid");
    let mut opts = Method::HStencil.default_options();
    opts.auto_schedule = true;
    let ctx = KernelCtx {
        h: grid.h(),
        w: grid.w(),
        stride: grid.stride() as u64,
        b0: rb.base + grid.origin() as u64,
        planes: vec![Plane {
            base: ra.base + grid.origin() as u64,
            table: spec.plane_table_2d(),
        }],
        radius: spec.radius(),
        opts,
    };
    let mut kernel = InplaceKernel::new(true);
    kernel
        .setup(&ctx, &mut mach)
        .expect("HStencil kernel set-up on LX2");
    let params = ScheduleParams {
        issue_width: cfg.issue_width,
        units: [
            cfg.vector_units,
            cfg.matrix_units,
            cfg.load_units,
            cfg.store_units,
        ],
        latency: [cfg.fp_latency, cfg.fmopa_latency, 4, 1],
    };
    let (rows, cols) = (
        tile_starts(ctx.h, kernel.tile_rows(&ctx)),
        tile_starts(ctx.w, kernel.tile_cols(&ctx)),
    );
    let (mut emitted, mut executed) = (0u64, 0u64);
    let mut prog = Program::with_capacity(4096);
    let start = Instant::now();
    let mut failed = 0;
    while start.elapsed() < budget || emitted == 0 {
        let sweep = run.tracer.open("sim.layers.sweep", NONE, None);
        for &j0 in &cols {
            for &i0 in &rows {
                prog.clear();
                run.tracer.span("core.kernels.emit_tile", sweep, || {
                    kernel.emit_tile(&ctx, i0, j0, &mut prog)
                });
                let scheduled = run.tracer.span("isa.sched.schedule_program", sweep, || {
                    schedule_program(&prog, &params)
                });
                let ok = run.tracer.span("machine.execute", sweep, || {
                    mach.execute(&scheduled).is_ok()
                });
                failed += u64::from(!ok);
                emitted += prog.len() as u64;
                executed += scheduled.len() as u64;
            }
        }
        run.tracer.close(sweep);
    }
    let mut out = grid.clone();
    let loaded = mach.mem.load_slice(rb.base, out.raw_mut());
    let mut want = grid.clone();
    reference::apply_2d(&spec, &grid, &mut want);
    if loaded.is_err() || want.first_mismatch(&out, 1e-9).is_some() {
        eprintln!("perfbench: layer-by-layer HStencil sweep diverges from the reference");
        failed += 1;
    }
    run.ops(1, u64::from(failed > 0));
    let total_ns = |name: &str| run.tracer.durations(name).iter().sum::<f64>() * 1e9;
    let emit = total_ns("core.kernels.emit_tile") / emitted as f64;
    let sched = total_ns("isa.sched.schedule_program") / emitted as f64;
    let exec = total_ns("machine.execute") / executed as f64;
    run.metrics.set("core.kernels.emit_ns_per_inst", emit);
    run.metrics.set("isa.sched.ns_per_inst", sched);
    run.metrics.set("machine.execute_ns_per_inst", exec);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_figure_set_is_pinned_in_benchmark_json() {
        let (inst, cyc) = pinned_totals().expect("sim_figures why pins instructions= and cycles=");
        assert!(inst > 0 && cyc > 0);
    }

    #[test]
    fn totals_off_the_pins_fail_the_whole_pass() {
        let (instructions, cycles) = pinned_totals().unwrap();
        let mut run = Run::new(1, 1.0, false);
        let pinned = SetTotals {
            instructions,
            cycles,
            ..SetTotals::default()
        };
        check_pins(&mut run, &pinned, 34);
        assert_eq!((run.attempted, run.failed), (34, 0));
        let off = SetTotals {
            cycles: cycles + 1,
            ..pinned
        };
        check_pins(&mut run, &off, 34);
        assert_eq!((run.attempted, run.failed), (68, 34));
    }

    #[test]
    fn simulated_counts_do_not_depend_on_the_seed() {
        let spec = presets::star2d9p();
        let counts = |seed| {
            let g: Grid2d = gen::grid_2d(seed, 1, 64, 64, spec.radius());
            let o = StencilPlan::new(&spec, Method::HStencil)
                .verify(true)
                .run_2d(&MachineConfig::lx2(), &g)
                .expect("simulated run");
            (o.report.counters.instructions, o.report.cycles())
        };
        assert_eq!(counts(1), counts(2));
    }
}
