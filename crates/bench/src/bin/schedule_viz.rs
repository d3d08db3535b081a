//! Visualize how the §3.2.2 instruction schedule fills the pipes: emit
//! one HStencil tile with and without scheduling and render the issue
//! timeline (the lived-in version of the paper's Figure 10).
//!
//! ```sh
//! cargo run --release -p hstencil-bench --bin schedule_viz
//! ```

use hstencil_core::{presets, Kernel, KernelCtx, Method, Plane};
use hstencil_testkit::outln;
use lx2_isa::{Program, VLEN};
use lx2_sim::{execute_traced, Machine, MachineConfig};

fn trace_one_tile(scheduling: bool) {
    let cfg = MachineConfig::lx2();
    let spec = presets::star2d9p();
    let mut mach = Machine::new(&cfg);

    // A small private arena standing in for the grid.
    let stride = 64u64;
    let rows = 32usize;
    let region = mach.alloc(rows * stride as usize * 2, VLEN);
    for k in 0..(rows as u64 * stride) {
        mach.mem
            .write(region.base + k, (k % 97) as f64 * 0.01)
            .unwrap();
    }
    let origin = region.base + 2 * stride + 8;

    let mut opts = Method::HStencil.default_options();
    opts.scheduling = scheduling;
    opts.replacement = scheduling;
    let ctx = KernelCtx {
        h: 16,
        w: 32,
        stride,
        b0: origin + rows as u64 * stride,
        planes: vec![Plane {
            base: origin,
            table: spec.plane_table_2d(),
        }],
        radius: spec.radius(),
        opts,
    };

    let mut kernel = hstencil_core::kernels::inplace::InplaceKernel::new(true);
    kernel.setup(&ctx, &mut mach).expect("setup");
    let mut prog = Program::new();
    kernel.emit_tile(&ctx, 0, 0, &mut prog);

    // Warm the caches so the timeline shows the schedule, not cold misses.
    mach.execute(&prog).expect("warmup");
    let trace = execute_traced(&mut mach, &prog).expect("trace");
    outln!(
        "== {} ==  ({} instructions, IPC {:.2}, {} bubble cycles)",
        if scheduling {
            "with scheduling"
        } else {
            "without scheduling"
        },
        trace.entries().len(),
        trace.ipc(),
        trace.bubble_cycles(),
    );
    outln!("{}", trace.render_timeline(160));
}

fn main() {
    trace_one_tile(false);
    trace_one_tile(true);
    outln!(
        "Legend: '#' one issue that cycle on that pipe, '2' more than one, \
         '.' idle.\nScheduling merges the prep/matrix/vector/store streams so \
         every pipe stays fed (paper Figure 10)."
    );
}
