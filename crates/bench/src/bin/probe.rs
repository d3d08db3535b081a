//! Calibration probe: quick look at method cycle counts and IPC.
use hstencil_bench::fmt::{f2, Table};
use hstencil_bench::runner::run_method;
use hstencil_core::{presets, Method};
use hstencil_testkit::outln;
use lx2_sim::MachineConfig;

fn main() {
    let cfg = MachineConfig::lx2();
    for spec in [presets::star2d9p(), presets::box2d25p()] {
        let mut t = Table::new(format!("{} 128x128 (LX2)", spec.name()))
            .header(&["method", "cycles", "ipc", "cyc/pt", "util%", "L1%"]);
        let base = run_method(&cfg, &spec, Method::Auto, 128, 1, 1);
        for m in Method::ALL {
            if m == Method::MatrixOrtho && spec.name().starts_with("box") {
                continue;
            }
            let r = run_method(&cfg, &spec, m, 128, 1, 1);
            t.row(vec![
                m.label().into(),
                r.cycles().to_string(),
                f2(r.ipc()),
                format!("{:.3}", r.cycles_per_point()),
                r.matrix_utilization()
                    .map(|u| f2(u * 100.0))
                    .unwrap_or("-".into()),
                f2(r.l1_load_hit_rate() * 100.0),
            ]);
        }
        outln!("{}", t.render());
        outln!(
            "speedup HStencil vs auto: {:.2}x",
            run_method(&cfg, &spec, Method::HStencil, 128, 1, 1).speedup_over(&base)
        );
    }
}
