//! Dump the disassembly of one emitted tile for any method — the
//! "show me the kernel" tool for inspecting what each builder generates.
//!
//! ```sh
//! cargo run --release -p hstencil-bench --bin kernel_dump [method] [stencil]
//! # e.g.
//! cargo run --release -p hstencil-bench --bin kernel_dump hstencil star2d9p
//! ```

use hstencil_core::kernels::{
    auto::AutoKernel, inplace::InplaceKernel, m4star::M4StarKernel,
    naive_hybrid::NaiveHybridKernel, ortho::OrthoKernel, vector::VectorKernel, Kernel, KernelCtx,
    Plane,
};
use hstencil_core::{presets, Method, StencilSpec};
use hstencil_testkit::{out, outln};
use lx2_isa::{Program, VLEN};
use lx2_sim::{Machine, MachineConfig};

fn spec_by_name(name: &str) -> StencilSpec {
    presets::suite_2d()
        .into_iter()
        .find(|s| s.name() == name)
        .unwrap_or_else(|| panic!("unknown stencil {name}; try star2d9p, box2d25p, heat2d, ..."))
}

fn kernel_for(method: Method, m4: bool) -> Box<dyn Kernel> {
    match method {
        Method::Auto => Box::new(AutoKernel::new(
            if m4 { 2 } else { 8 },
            if m4 { 8 } else { 3 },
        )),
        Method::VectorOnly => Box::new(VectorKernel::new()),
        Method::MatrixOnly => Box::new(InplaceKernel::new_stop()),
        Method::MatrixOrtho => Box::new(OrthoKernel::new()),
        Method::NaiveHybrid => Box::new(NaiveHybridKernel::new()),
        Method::HStencil => {
            if m4 {
                Box::new(M4StarKernel::new())
            } else {
                Box::new(InplaceKernel::new(true))
            }
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let method = match args.get(1).map(|s| s.to_lowercase()) {
        Some(m) => match m.as_str() {
            "auto" => Method::Auto,
            "vector" | "vector-only" => Method::VectorOnly,
            "matrix" | "stop" | "matrix-only" => Method::MatrixOnly,
            "ortho" | "mat-ortho" => Method::MatrixOrtho,
            "naive" | "naive-hybrid" => Method::NaiveHybrid,
            "hstencil" => Method::HStencil,
            other => panic!("unknown method {other}"),
        },
        None => Method::HStencil,
    };
    let spec = spec_by_name(args.get(2).map(|s| s.as_str()).unwrap_or("star2d9p"));
    let m4 = args.iter().any(|a| a == "--m4");

    let cfg = if m4 {
        MachineConfig::apple_m4()
    } else {
        MachineConfig::lx2()
    };
    let mut mach = Machine::new(&cfg);
    let stride = 64u64;
    let region = mach.alloc(64 * stride as usize, VLEN);
    let origin = region.base + 4 * stride + 8;
    let ctx = KernelCtx {
        h: 16,
        w: 32,
        stride,
        b0: origin + 32 * stride,
        planes: vec![Plane {
            base: origin,
            table: spec.plane_table_2d(),
        }],
        radius: spec.radius(),
        opts: method.default_options(),
    };

    let mut kernel = kernel_for(method, m4);
    kernel.setup(&ctx, &mut mach).expect("kernel setup");
    let mut prog = Program::new();
    kernel.emit_tile(&ctx, 0, 0, &mut prog);

    outln!(
        "# {} tile for {} on {} — {} instructions",
        kernel.name(),
        spec.name(),
        cfg.name,
        prog.len()
    );
    let mix = prog.mix();
    outln!(
        "# mix: {} fmopa, {} fmla, {} ext, {} prefetch, pipes v/m/l/s = {:?}\n",
        mix.fmopa,
        mix.fmla,
        mix.ext,
        mix.prefetch,
        mix.per_pipe
    );
    out!("{prog}");
}
