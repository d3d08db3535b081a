//! `hstencil` — command-line driver for the simulated stencil framework.
//!
//! ```text
//! hstencil list
//! hstencil run     --stencil star2d9p --method hstencil --size 256 --machine lx2
//! hstencil compare --stencil box2d25p --size 128 --machine lx2
//! hstencil asm     kernel.s            # assemble + execute a listing
//! hstencil dispatch --stencil star2d5p --size 12800 --threads 2 --dtype f64
//! ```
//!
//! `dispatch` prints the native kernel the auto entry points
//! (`apply_2d_parallel`, `time_steps`) resolve for that sweep on this
//! host, after env pins, tune plans and heuristics, and the body that
//! kernel runs for the stencil (`body=lanes<5 taps>`: the lane body
//! walking a five-tap chain; the family label for the other kernels).

use hstencil::isa::assemble;
use hstencil::native::{tune, Dispatch};
use hstencil::sim::{Machine, MachineConfig};
use hstencil::{presets, Dtype, Grid2d, Method, StencilPlan, StencilSpec};
use hstencil_testkit::outln;
use std::collections::HashMap;
use std::process::ExitCode;

fn parse_flags(args: &[String]) -> HashMap<String, String> {
    let mut out = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        if let Some(key) = args[i].strip_prefix("--") {
            let val = args
                .get(i + 1)
                .filter(|v| !v.starts_with("--"))
                .cloned()
                .unwrap_or_else(|| "true".into());
            let consumed =
                if val == "true" && args.get(i + 1).map(|v| v.starts_with("--")).unwrap_or(true) {
                    1
                } else {
                    2
                };
            out.insert(key.to_string(), val);
            i += consumed;
        } else {
            i += 1;
        }
    }
    out
}

fn stencil_by_name(name: &str) -> Option<StencilSpec> {
    presets::suite_2d().into_iter().find(|s| s.name() == name)
}

fn method_by_name(name: &str) -> Option<Method> {
    match name.to_lowercase().as_str() {
        "auto" => Some(Method::Auto),
        "vector" | "vector-only" => Some(Method::VectorOnly),
        "matrix" | "matrix-only" | "stop" => Some(Method::MatrixOnly),
        "ortho" | "mat-ortho" => Some(Method::MatrixOrtho),
        "naive" | "naive-hybrid" => Some(Method::NaiveHybrid),
        "hstencil" => Some(Method::HStencil),
        _ => None,
    }
}

fn machine_by_name(name: &str) -> Option<MachineConfig> {
    match name.to_lowercase().as_str() {
        "lx2" => Some(MachineConfig::lx2()),
        "m4" | "apple-m4" => Some(MachineConfig::apple_m4()),
        _ => None,
    }
}

fn workload(n: usize, halo: usize) -> Grid2d {
    Grid2d::from_fn(n, n, halo, |i, j| {
        ((i * 131 + j * 37 + 11) % 251) as f64 * 0.008 - 1.0
    })
}

fn cmd_list() -> ExitCode {
    outln!("stencils:");
    for s in presets::suite_2d() {
        outln!(
            "  {:<10} {:?} r={} ({} points)",
            s.name(),
            s.pattern(),
            s.radius(),
            s.points()
        );
    }
    outln!("\nmethods:   auto, vector, matrix (STOP), ortho, naive, hstencil");
    outln!("machines:  lx2, m4");
    ExitCode::SUCCESS
}

fn cmd_run(flags: &HashMap<String, String>) -> ExitCode {
    let stencil = flags
        .get("stencil")
        .map(String::as_str)
        .unwrap_or("star2d9p");
    let method = flags
        .get("method")
        .map(String::as_str)
        .unwrap_or("hstencil");
    let machine = flags.get("machine").map(String::as_str).unwrap_or("lx2");
    let size: usize = flags
        .get("size")
        .and_then(|v| v.parse().ok())
        .unwrap_or(128);
    let sweeps: usize = flags
        .get("sweeps")
        .and_then(|v| v.parse().ok())
        .unwrap_or(1);

    let Some(spec) = stencil_by_name(stencil) else {
        eprintln!("unknown stencil '{stencil}' (try `hstencil list`)");
        return ExitCode::FAILURE;
    };
    let Some(method) = method_by_name(method) else {
        eprintln!("unknown method '{method}'");
        return ExitCode::FAILURE;
    };
    let Some(cfg) = machine_by_name(machine) else {
        eprintln!("unknown machine '{machine}'");
        return ExitCode::FAILURE;
    };

    let mut plan = StencilPlan::new(&spec, method)
        .sweeps(sweeps)
        .verify(size <= 512);
    if flags.contains_key("no-prefetch") {
        plan = plan.prefetch(false);
    }
    if flags.contains_key("no-scheduling") {
        plan = plan.scheduling(false).replacement(false);
    }
    if let Some(rb) = flags.get("reg-blocks").and_then(|v| v.parse().ok()) {
        plan = plan.reg_blocks(rb);
    }

    match plan.run_2d(&cfg, &workload(size, spec.radius())) {
        Ok(out) => {
            let r = &out.report;
            outln!("{r}");
            outln!(
                "  {} instructions, {:.3} cycles/point, {:.1} GFLOP/s, simulated {:.3} ms",
                r.counters.instructions,
                r.cycles_per_point(),
                r.gflops(),
                r.time_ms()
            );
            if let Some(u) = r.matrix_utilization() {
                outln!("  matrix-unit utilization {:.1}%", u * 100.0);
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("run failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_compare(flags: &HashMap<String, String>) -> ExitCode {
    let stencil = flags
        .get("stencil")
        .map(String::as_str)
        .unwrap_or("star2d9p");
    let machine = flags.get("machine").map(String::as_str).unwrap_or("lx2");
    let size: usize = flags
        .get("size")
        .and_then(|v| v.parse().ok())
        .unwrap_or(128);
    let (Some(spec), Some(cfg)) = (stencil_by_name(stencil), machine_by_name(machine)) else {
        eprintln!("unknown stencil or machine");
        return ExitCode::FAILURE;
    };
    let grid = workload(size, spec.radius());
    outln!("{} {}x{} on {}:", spec.name(), size, size, cfg.name);
    let mut baseline = None;
    for method in Method::ALL {
        match StencilPlan::new(&spec, method)
            .verify(size <= 512)
            .run_2d(&cfg, &grid)
        {
            Ok(out) => {
                let c = out.report.cycles();
                let base = *baseline.get_or_insert(c);
                outln!(
                    "  {:<13} {:>12} cycles  IPC {:>5.2}  {:>6.2}x",
                    method.label(),
                    c,
                    out.report.ipc(),
                    base as f64 / c as f64
                );
            }
            Err(e) => outln!("  {:<13} unsupported ({e})", method.label()),
        }
    }
    ExitCode::SUCCESS
}

fn cmd_dispatch(flags: &HashMap<String, String>) -> ExitCode {
    let stencil = flags
        .get("stencil")
        .map(String::as_str)
        .unwrap_or("star2d5p");
    let size: usize = flags
        .get("size")
        .and_then(|v| v.parse().ok())
        .unwrap_or(12_800);
    let threads: usize = flags
        .get("threads")
        .and_then(|v| v.parse().ok())
        .unwrap_or(1);
    let dtype = flags.get("dtype").map(String::as_str).unwrap_or("f64");
    let (Some(spec), Some(dtype)) = (stencil_by_name(stencil), Dtype::from_label(dtype)) else {
        eprintln!("unknown stencil or dtype (f64|f32)");
        return ExitCode::FAILURE;
    };
    let threads = hstencil::native::threads::resolve(threads);
    let class = tune::ShapeClass::of_dtype(size, size, dtype);
    let dispatch = Dispatch::for_sweep_dtype(&spec, size, size, threads, dtype);
    outln!(
        "{} {size}x{size} {} threads={threads} ({class:?}, tuning {}): {} body={}",
        spec.name(),
        dtype.label(),
        if tune::enabled() { "on" } else { "off" },
        dispatch.label(),
        dispatch.body_label(&spec)
    );
    ExitCode::SUCCESS
}

fn cmd_asm(path: &str) -> ExitCode {
    let source = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let program = match assemble(&source) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut machine = Machine::new(&MachineConfig::lx2());
    machine.alloc(1 << 20, 8); // 1M elements of scratch at address 0
    match machine.execute(&program) {
        Ok(()) => {
            let c = machine.counters();
            outln!(
                "{} instructions in {} cycles (IPC {:.2}); L1 {}/{} hits",
                c.instructions,
                c.cycles,
                c.ipc(),
                c.mem.l1_load_hits,
                c.mem.l1_load_accesses
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("execution failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flags = parse_flags(&args[1.min(args.len())..]);
    match args.first().map(String::as_str) {
        Some("list") => cmd_list(),
        Some("run") => cmd_run(&flags),
        Some("compare") => cmd_compare(&flags),
        Some("dispatch") => cmd_dispatch(&flags),
        Some("asm") => match args.get(1) {
            Some(path) => cmd_asm(path),
            None => {
                eprintln!("usage: hstencil asm <file.s>");
                ExitCode::FAILURE
            }
        },
        _ => {
            eprintln!(
                "usage: hstencil <list|run|compare|asm|dispatch> [--stencil S] [--method M] \
                 [--machine lx2|m4] [--size N] [--sweeps N] [--reg-blocks N] \
                 [--no-prefetch] [--no-scheduling] [--threads N] [--dtype f64|f32]"
            );
            ExitCode::FAILURE
        }
    }
}
