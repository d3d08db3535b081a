//! `incache_sweeps`: repeated single sweeps over cache-resident grids
//! through the auto entry points `apply_2d`, `apply_2d_parallel` (1 and
//! 2 threads) and `apply_3d`. Every working set stays under the temporal
//! executor's 4 MiB pipeline threshold, so the kernels, the per-call
//! dispatch decision and pool fork/join do the work.

use crate::metrics::PER_LAYER;
use crate::stats::{self, repeated_setup};
use crate::trace::{SpanId, NONE};
use crate::{check, gen, host, Run};
use hstencil_core::native::{self, Dispatch, NativeElement};
use hstencil_core::{presets, Dtype, Grid2dT, Grid3dT, StencilSpec, ThreadPool};
use hstencil_testkit::Json;
use std::time::{Duration, Instant};

#[derive(Clone, Copy, Debug)]
enum Entry {
    Apply2d,
    Parallel(usize),
    Apply3d,
}

/// One row of the mix: stencil, shape (`d == 0` for 2-D), dtype, entry.
struct CaseDef {
    stencil: &'static str,
    d: usize,
    h: usize,
    w: usize,
    dtype: Dtype,
    entry: Entry,
}

const fn case(stencil: &'static str, h: usize, w: usize, dtype: Dtype, entry: Entry) -> CaseDef {
    CaseDef {
        stencil,
        d: 0,
        h,
        w,
        dtype,
        entry,
    }
}

use Dtype::{F32, F64};
use Entry::{Apply2d, Parallel};

/// The mix: five 2-D stencils in both dtypes over 96²–384², the 128²
/// star through all three 2-D entries, and one small 3-D cube.
const CASES: &[CaseDef] = &[
    case("star2d5p", 128, 128, F64, Apply2d),
    case("star2d5p", 128, 128, F64, Parallel(1)),
    case("star2d5p", 128, 128, F64, Parallel(2)),
    case("star2d5p", 384, 384, F32, Parallel(2)),
    case("box2d9p", 256, 256, F64, Apply2d),
    case("box2d9p", 256, 256, F32, Parallel(2)),
    case("star2d9p", 192, 192, F64, Parallel(2)),
    case("star2d9p", 96, 96, F32, Apply2d),
    case("box2d25p", 384, 384, F64, Parallel(2)),
    case("box2d25p", 128, 128, F32, Apply2d),
    case("heat2d", 160, 224, F64, Apply2d),
    case("heat2d", 256, 256, F32, Parallel(1)),
    CaseDef {
        stencil: "star3d7p",
        d: 40,
        h: 40,
        w: 48,
        dtype: F64,
        entry: Entry::Apply3d,
    },
];

/// Cell updates each case contributes per round (rounded to whole
/// sweeps), so small grids are not drowned out by large ones.
const CELLS_PER_CASE_ROUND: usize = 100_000;

/// A case with its grids, ready to sweep.
trait Sweep {
    fn sweep(&mut self);
    fn check(&self) -> Result<(), usize>;
    fn cells(&self) -> u64;
    fn def(&self) -> &'static CaseDef;
    fn spec(&self) -> &StencilSpec;
    /// What `Dispatch::for_sweep_dtype` (2-D) or `for_width` (3-D)
    /// resolves for this case.
    fn dispatch(&self) -> Dispatch;
    /// Lanes the entry point resolves.
    fn lanes(&self) -> usize {
        match self.def().entry {
            Parallel(t) => native::threads::resolve(t),
            _ => 1,
        }
    }
}

struct Case2d<E: NativeElement> {
    def: &'static CaseDef,
    spec: StencilSpec,
    a: Grid2dT<E>,
    b: Grid2dT<E>,
}

impl<E: NativeElement> Sweep for Case2d<E> {
    fn sweep(&mut self) {
        match self.def.entry {
            Apply2d => native::apply_2d(&self.spec, &self.a, &mut self.b),
            Parallel(t) => native::apply_2d_parallel(&self.spec, &self.a, &mut self.b, t),
            Entry::Apply3d => unreachable!("2-D case"),
        }
    }
    fn check(&self) -> Result<(), usize> {
        check::check_sweep_2d(&self.spec, &self.a, &self.b)
    }
    fn cells(&self) -> u64 {
        (self.a.h() * self.a.w()) as u64
    }
    fn def(&self) -> &'static CaseDef {
        self.def
    }
    fn spec(&self) -> &StencilSpec {
        &self.spec
    }
    fn dispatch(&self) -> Dispatch {
        Dispatch::for_sweep_dtype(&self.spec, self.a.h(), self.a.w(), self.lanes(), E::DTYPE)
    }
}

struct Case3d<E: NativeElement> {
    def: &'static CaseDef,
    spec: StencilSpec,
    a: Grid3dT<E>,
    b: Grid3dT<E>,
}

impl<E: NativeElement> Sweep for Case3d<E> {
    fn sweep(&mut self) {
        native::apply_3d(&self.spec, &self.a, &mut self.b);
    }
    fn check(&self) -> Result<(), usize> {
        check::check_sweep_3d(&self.spec, &self.a, &self.b)
    }
    fn cells(&self) -> u64 {
        (self.a.d() * self.a.h() * self.a.w()) as u64
    }
    fn def(&self) -> &'static CaseDef {
        self.def
    }
    fn spec(&self) -> &StencilSpec {
        &self.spec
    }
    fn dispatch(&self) -> Dispatch {
        Dispatch::for_width(self.a.w())
    }
}

fn build(seed: u64, idx: usize, def: &'static CaseDef) -> Box<dyn Sweep> {
    let spec = gen::preset(def.stencil);
    let r = spec.radius();
    let stream = idx as u64;
    fn two<E: NativeElement>(
        seed: u64,
        stream: u64,
        def: &'static CaseDef,
        spec: StencilSpec,
    ) -> Box<dyn Sweep> {
        let a: Grid2dT<E> = gen::grid_2d(seed, stream, def.h, def.w, spec.radius());
        let b = a.halo_image();
        Box::new(Case2d { def, spec, a, b })
    }
    match (def.d, def.dtype) {
        (0, F64) => two::<f64>(seed, stream, def, spec),
        (0, F32) => two::<f32>(seed, stream, def, spec),
        (d, F64) => {
            let a: Grid3dT<f64> = gen::grid_3d(seed, stream, d, def.h, def.w, r);
            let b = a.halo_image();
            Box::new(Case3d { def, spec, a, b })
        }
        (d, F32) => {
            let a: Grid3dT<f32> = gen::grid_3d(seed, stream, d, def.h, def.w, r);
            let b = a.halo_image();
            Box::new(Case3d { def, spec, a, b })
        }
    }
}

/// Inputs plus one warm sweep per case: the first build also pays the
/// process's lazy set-up (env and tune-cache load, pool spawn).
fn setup(seed: u64) -> Vec<(Box<dyn Sweep>, usize)> {
    CASES
        .iter()
        .enumerate()
        .map(|(i, def)| {
            let mut c = build(seed, i, def);
            c.sweep();
            let reps = (CELLS_PER_CASE_ROUND / c.cells() as usize).max(1);
            (c, reps)
        })
        .collect()
}

fn span_name(entry: Entry) -> &'static str {
    match entry {
        Apply2d => "native.apply_2d",
        Parallel(_) => "native.apply_2d_parallel",
        Entry::Apply3d => "native.apply_3d",
    }
}

/// One round: every case `reps` times. Returns (cells updated, seconds).
fn round(run: &mut Run, cases: &mut [(Box<dyn Sweep>, usize)]) -> (u64, f64) {
    let t0 = Instant::now();
    let root: SpanId = run.tracer.open("incache.round", NONE, None);
    let mut cells = 0;
    for (c, reps) in cases.iter_mut() {
        let name = span_name(c.def().entry);
        for _ in 0..*reps {
            let id = run.tracer.open(name, root, None);
            c.sweep();
            run.tracer.close(id);
        }
        cells += c.cells() * *reps as u64;
    }
    run.tracer.close(root);
    (cells, t0.elapsed().as_secs_f64())
}

/// Checks every case's latest output; a wrong output fails every sweep
/// the case made (the input never changes, so they all computed it).
fn check_all(cases: &[(Box<dyn Sweep>, usize)], rounds: u64) -> u64 {
    let mut failed = 0;
    for (c, reps) in cases {
        if let Err(bad) = c.check() {
            let d = c.def();
            eprintln!(
                "perfbench: {} {}x{} {:?} {:?}: {bad} cells outside the reference bound",
                d.stencil, d.h, d.w, d.dtype, d.entry
            );
            failed += rounds * *reps as u64;
        }
    }
    failed
}

fn record_cases(run: &mut Run, cases: &[(Box<dyn Sweep>, usize)]) {
    let rows = cases.iter().map(|(c, reps)| {
        let d = c.def();
        Json::object([
            ("stencil", Json::Str(d.stencil.into())),
            (
                "shape",
                Json::Str(format!("{}x{}x{}", d.d.max(1), d.h, d.w)),
            ),
            ("dtype", Json::Str(d.dtype.label().into())),
            ("entry", Json::Str(format!("{:?}", d.entry))),
            ("dispatch", Json::Str(c.dispatch().label().into())),
            ("sweeps_per_round", Json::UInt(*reps as u64)),
        ])
    });
    run.record("cases", Json::array(rows.collect::<Vec<_>>()));
}

pub fn run(run: &mut Run) {
    let seed = run.seed;
    let reps = if run.traced() { 1 } else { 9 };
    let (mut cases, setup_s) = repeated_setup(reps, || setup(seed));
    record_cases(run, &cases);
    let sweeps_per_round: u64 = cases.iter().map(|(_, r)| *r as u64).sum();

    if !run.traced() {
        run.metrics.set("setup_s", setup_s);
        // Median over rounds of interior cells x sweeps / round time: a
        // stall of the shared host skews a few rounds, not the figure.
        let deadline = Duration::from_secs_f64(run.seconds);
        let start = Instant::now();
        let mut rates = Vec::new();
        while rates.is_empty() || start.elapsed() < deadline {
            let (cells, secs) = round(run, &mut cases);
            rates.push(cells as f64 / secs / 1e9);
        }
        let rounds = rates.len() as u64;
        let failed = check_all(&cases, rounds);
        run.ops(rounds * sweeps_per_round, failed);
        run.metrics
            .set("gcell_updates_per_s", stats::median(&rates));
        return;
    }
    traced(run, &mut cases, sweeps_per_round);
}

/// The traced run: rounds alternate untraced and traced blocks (the
/// difference is the tracing overhead), then each layer is probed
/// directly: dispatch decisions, empty pool fork/joins, a paired
/// parallel-vs-serial ratio and single-thread kernel rates.
fn traced(run: &mut Run, cases: &mut [(Box<dyn Sweep>, usize)], sweeps_per_round: u64) {
    const BLOCK: usize = 20;
    let budget = Duration::from_secs_f64(run.seconds / 2.0);
    let start = Instant::now();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    while traced.is_empty() || start.elapsed() < budget {
        for on in [false, true] {
            run.tracer.set_enabled(on);
            let rates = if on { &mut traced } else { &mut plain };
            for _ in 0..BLOCK {
                let (cells, secs) = round(run, cases);
                rates.push(cells as f64 / secs);
            }
        }
    }
    let traced_rounds = traced.len() as u64;
    let rounds = (plain.len() + traced.len()) as u64;
    let failed = check_all(cases, rounds);
    run.ops(rounds * sweeps_per_round, failed);
    run.set_overhead(1.0 - stats::median(&traced) / stats::median(&plain));

    // Per traced round: one dispatch decision per 2-D auto sweep (3-D
    // decides by width), one pool run per sweep split over 2+ lanes.
    let mut decisions = 0u64;
    let mut pool_runs = 0u64;
    for (c, reps) in cases.iter() {
        decisions += *reps as u64;
        let lanes = c.lanes();
        if matches!(c.def().entry, Parallel(_)) && lanes > 1 && c.def().h >= 2 * lanes {
            pool_runs += *reps as u64;
        }
    }
    run.metrics
        .set("native.dispatch.calls", (decisions * traced_rounds) as f64);
    run.metrics
        .set("native.pool.runs", (pool_runs * traced_rounds) as f64);

    let probe = Duration::from_secs_f64((run.seconds / 16.0).max(0.05));

    // The dispatch decision each case's auto entry makes, per call,
    // averaged over the sweeps of a round.
    let mut decide_s = 0.0;
    for (c, reps) in cases.iter() {
        let id = run.tracer.open("native.dispatch.decide", NONE, None);
        let per_call = stats::batches(probe / 16, 3, 1000, || {
            std::hint::black_box(c.dispatch());
        });
        run.tracer.close(id);
        decide_s += stats::median(&per_call) * *reps as f64;
    }
    run.metrics.set(
        "native.dispatch.decide_ns",
        decide_s / sweeps_per_round as f64 * 1e9,
    );

    // Empty fork/join on the shared pool at the host's lane count.
    let lanes = host::nproc().max(2);
    let pool = ThreadPool::global();
    let id = run.tracer.open("native.pool.run", NONE, None);
    let fj = stats::batches(probe, 5, 200, || pool.run(lanes, &|_, _| {}));
    run.tracer.close(id);
    run.metrics
        .set("native.pool.fork_join_us", stats::median(&fj) * 1e6);

    // Paired: 2-thread against 1-thread sweeps of the 128² star, ABBA.
    {
        let spec = presets::star2d5p();
        let a: Grid2dT<f64> = gen::grid_2d(run.seed, 100, 128, 128, 1);
        let mut b = a.halo_image();
        const SWEEPS: usize = 20;
        let id = run.tracer.open("native.pool.par_speedup_128", NONE, None);
        let p = stats::abba(25, |parallel| {
            stats::time(|| {
                for _ in 0..SWEEPS {
                    if parallel {
                        native::apply_2d_parallel(&spec, &a, &mut b, 2);
                    } else {
                        native::apply_2d(&spec, &a, &mut b);
                    }
                }
            })
        });
        run.tracer.close(id);
        let failed = u64::from(check::check_sweep_2d(&spec, &a, &b).is_err());
        run.ops(1, failed);
        run.metrics.set("native.pool.par_speedup_128", p.median);
        run.metrics.set("native.pool.par_speedup_128.q1", p.q1);
        run.metrics.set("native.pool.par_speedup_128.q3", p.q3);
        run.record("par_speedup_128_pairs", Json::UInt(p.pairs as u64));
    }

    kernel_rates(run, probe);

    // Computed traffic of the mix: each sweep reads and writes every
    // cell once (halo and neighbour re-reads hit cache).
    let (mut cells, mut bytes, mut flops) = (0.0, 0.0, 0.0);
    for (c, reps) in cases.iter() {
        let n = (c.cells() * *reps as u64) as f64;
        cells += n;
        bytes += n * 2.0 * c.def().dtype.size() as f64;
        flops += n * c.spec().flops_per_point() as f64;
    }
    run.metrics
        .set("native.kernel.bytes_per_cell_computed", bytes / cells);
    run.metrics
        .set("native.kernel.flops_per_byte", flops / bytes);

    let selfs = run.tracer.self_seconds();
    for name in [
        "incache.round",
        "native.apply_2d",
        "native.apply_2d_parallel",
        "native.apply_3d",
    ] {
        run.metrics.set(
            &format!("{name}.self_s"),
            selfs.get(name).copied().unwrap_or(0.0),
        );
    }
}

/// Single-thread `apply_2d_with` at the dispatch `apply_2d` resolves,
/// 128² for every (stencil, dtype) pair of the mix.
fn kernel_rates(run: &mut Run, probe: Duration) {
    fn rate<E: NativeElement>(run: &mut Run, name: &str, probe: Duration) -> f64 {
        let spec = gen::preset(name);
        let a: Grid2dT<E> = gen::grid_2d(run.seed, 200, 128, 128, spec.radius());
        let mut b = a.halo_image();
        let d = Dispatch::for_sweep_dtype(&spec, 128, 128, 1, E::DTYPE);
        let id = run.tracer.open("native.kernel.apply_2d_with", NONE, None);
        let per_sweep = stats::batches(probe / 10, 5, 20, || {
            native::apply_2d_with(d, &spec, &a, &mut b)
        });
        run.tracer.close(id);
        let failed = u64::from(check::check_sweep_2d(&spec, &a, &b).is_err());
        run.ops(1, failed);
        (128.0 * 128.0) / stats::median(&per_sweep) / 1e9
    }
    for def in PER_LAYER {
        let Some(rest) = def.name.strip_prefix("native.kernel.") else {
            continue;
        };
        let Some((stencil, dtype)) = rest
            .strip_suffix(".gcells_per_s")
            .and_then(|s| s.split_once('.'))
        else {
            continue;
        };
        let v = match dtype {
            "f64" => rate::<f64>(run, stencil, probe),
            _ => rate::<f32>(run, stencil, probe),
        };
        run.metrics.set(def.name, v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_case_stays_under_the_pipeline_threshold() {
        for def in CASES {
            let bytes = 2 * def.d.max(1) * def.h * def.w * def.dtype.size();
            assert!(bytes <= 4 << 20, "{} {}x{}", def.stencil, def.h, def.w);
        }
    }

    #[test]
    fn a_corrupted_output_fails_every_sweep_of_its_case() {
        let mut cases = setup(9);
        let rounds = 3;
        assert_eq!(check_all(&cases, rounds), 0);
        let def = &CASES[0];
        let spec = gen::preset(def.stencil);
        let a: Grid2dT<f64> = gen::grid_2d(9, 0, def.h, def.w, spec.radius());
        let mut b = a.halo_image();
        native::apply_2d(&spec, &a, &mut b);
        let v = b.at(5, 5);
        b.set(5, 5, v + 0.5);
        cases[0].0 = Box::new(Case2d { def, spec, a, b });
        assert_eq!(check_all(&cases, rounds), rounds * cases[0].1 as u64);
    }
}
