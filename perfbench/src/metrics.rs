//! The metric registry: every metric the benchmark prints, its unit,
//! which direction is better and the workloads whose figures it is read
//! with. Every workload prints every metric of its mode.
//! `BENCHMARK.json` declares the same list; a test keeps the two equal.

use hstencil_testkit::Json;
use std::collections::BTreeMap;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    IncacheSweeps,
    StreamTimesteps,
    ServeClosed,
    SimFigures,
}

use Workload::*;

impl Workload {
    pub const ALL: [Workload; 4] = [IncacheSweeps, StreamTimesteps, ServeClosed, SimFigures];

    /// The workloads `BENCHMARK.json` declares. `serve_closed` is left
    /// out: its throughput is the latency of thread hand-offs, which on a
    /// shared two-core host follows the other tenants' load (ten seeds
    /// gave a spread of 0.56 of the median), beyond any bound. Its layers
    /// are still measured, by the serve probe of every traced run, and
    /// `--workload serve_closed` still runs it alone.
    #[allow(dead_code)]
    pub const DECLARED: [Workload; 3] = [IncacheSweeps, StreamTimesteps, SimFigures];

    pub fn name(self) -> &'static str {
        match self {
            IncacheSweeps => "incache_sweeps",
            StreamTimesteps => "stream_timesteps",
            ServeClosed => "serve_closed",
            SimFigures => "sim_figures",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Higher,
    Lower,
}

// `better` is declared for `BENCHMARK.json`, which the agreement test
// compares against this registry; the benchmark itself never reads it.
#[allow(dead_code)]
impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    #[allow(dead_code)]
    pub better: Better,
    /// The workloads this metric explains: what each workload's `why` in
    /// `BENCHMARK.json` tells a reader to look at. It is printed on all.
    #[allow(dead_code)]
    pub read_on: &'static [Workload],
}

const fn def(
    name: &'static str,
    unit: &'static str,
    better: Better,
    read_on: &'static [Workload],
) -> Def {
    Def {
        name,
        unit,
        better,
        read_on,
    }
}

const ALL: &[Workload] = &Workload::ALL;
const IN: &[Workload] = &[IncacheSweeps];
const ST: &[Workload] = &[StreamTimesteps];
const SV: &[Workload] = &[ServeClosed];
const SM: &[Workload] = &[SimFigures];
use Better::{Higher as H, Lower as L};

/// Printed by the untraced run (`--trace 0`).
pub const END_TO_END: &[Def] = &[
    def("setup_s", "s", L, ALL),
    def("peak_rss_mib", "MiB", L, ALL),
    def("gcell_updates_per_s", "Gcell/s", H, ALL),
];

/// Printed by the traced run (`--trace 1`).
pub const PER_LAYER: &[Def] = &[
    def("ops_failed_frac", "frac", L, ALL),
    def("trace.overhead_frac", "frac", L, ALL),
    // native dispatch and pool: what every in-cache call pays on top of
    // the kernel.
    def("native.dispatch.decide_ns", "ns", L, IN),
    def("native.dispatch.calls", "count", L, IN),
    def("native.pool.fork_join_us", "us", L, IN),
    def("native.pool.runs", "count", L, IN),
    def("native.pool.par_speedup_128", "ratio", H, IN),
    def("native.pool.par_speedup_128.q1", "ratio", H, IN),
    def("native.pool.par_speedup_128.q3", "ratio", H, IN),
    // native kernels, single thread, in cache, at the resolved dispatch.
    def("native.kernel.star2d5p.f64.gcells_per_s", "Gcell/s", H, IN),
    def("native.kernel.star2d5p.f32.gcells_per_s", "Gcell/s", H, IN),
    def("native.kernel.box2d9p.f64.gcells_per_s", "Gcell/s", H, IN),
    def("native.kernel.box2d9p.f32.gcells_per_s", "Gcell/s", H, IN),
    def("native.kernel.star2d9p.f64.gcells_per_s", "Gcell/s", H, IN),
    def("native.kernel.star2d9p.f32.gcells_per_s", "Gcell/s", H, IN),
    def("native.kernel.box2d25p.f64.gcells_per_s", "Gcell/s", H, IN),
    def("native.kernel.box2d25p.f32.gcells_per_s", "Gcell/s", H, IN),
    def("native.kernel.heat2d.f64.gcells_per_s", "Gcell/s", H, IN),
    def("native.kernel.heat2d.f32.gcells_per_s", "Gcell/s", H, IN),
    def("native.kernel.bytes_per_cell_computed", "B", L, IN),
    def("native.kernel.flops_per_byte", "flop/B", H, IN),
    def("incache.round.self_s", "s", L, IN),
    def("native.apply_2d.self_s", "s", L, IN),
    def("native.apply_2d_parallel.self_s", "s", L, IN),
    def("native.apply_3d.self_s", "s", L, IN),
    // temporal executor on out-of-cache grids, against a same-run
    // roofline.
    def("native.temporal.sweep_s", "s", L, ST),
    def("native.temporal.vs_pingpong", "ratio", H, ST),
    def("native.temporal.vs_pingpong.q1", "ratio", H, ST),
    def("native.temporal.vs_pingpong.q3", "ratio", H, ST),
    def("native.temporal.computed_gb", "GB", L, ST),
    def("native.temporal.achieved_gb_per_s", "GB/s", H, ST),
    def("native.temporal.roofline_frac", "frac", H, ST),
    def("host.triad_gb_per_s", "GB/s", H, ST),
    def("host.fma_gflops", "GFLOP/s", H, ST),
    def("native.time_steps.self_s", "s", L, ST),
    def("check.windows.self_s", "s", L, ST),
    // serve stages.
    def("serve.jobs_per_s", "1/s", H, SV),
    def("serve.submit_us", "us", L, SV),
    def("serve.stage.admission.busy_frac", "frac", L, SV),
    def("serve.stage.batches.busy_frac", "frac", L, SV),
    def("serve.stage.completions.busy_frac", "frac", L, SV),
    def("serve.batch.mean_jobs", "count", H, SV),
    def("serve.rejected", "count", L, SV),
    def("serve.overhead_us_p50", "us", L, SV),
    def("serve.job_latency_p50_ms", "ms", L, SV),
    def("serve.job_latency_p95_ms", "ms", L, SV),
    def("serve.job_latency_p99_ms", "ms", L, SV),
    def("serve.submit.self_s", "s", L, SV),
    def("serve.wait.self_s", "s", L, SV),
    def("serve.reference_result.self_s", "s", L, SV),
    // simulator layers.
    def("sim.minst_per_s", "Minst/s", H, SM),
    def("core.kernels.emit_ns_per_inst", "ns", L, SM),
    def("isa.sched.ns_per_inst", "ns", L, SM),
    def("machine.execute_ns_per_inst", "ns", L, SM),
    def("machine.instructions", "count", L, SM),
    def("machine.cycles", "count", L, SM),
    def("machine.l1_load_hit_rate", "frac", H, SM),
    def("sim.run_2d.self_s", "s", L, SM),
    def("core.kernels.emit_tile.self_s", "s", L, SM),
    def("isa.sched.schedule_program.self_s", "s", L, SM),
    def("machine.execute.self_s", "s", L, SM),
];

/// The registry for one mode.
pub fn defs(trace: bool) -> &'static [Def] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// The metrics one run has measured.
#[derive(Default)]
pub struct Metrics {
    vals: BTreeMap<&'static str, f64>,
}

impl Metrics {
    /// Records `name`.
    ///
    /// # Panics
    /// Panics if `name` is not in the registry (a bug in the benchmark).
    pub fn set(&mut self, name: &str, value: f64) {
        let def = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .find(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the registry"));
        self.vals.insert(def.name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.vals.get(name).copied()
    }

    /// The `metrics` object of the result line, checked against the
    /// registry: exactly the metrics of this mode, each a finite number.
    pub fn to_json(&self, trace: bool) -> Result<Json, String> {
        let mut out = Vec::new();
        for d in defs(trace) {
            let v = self
                .get(d.name)
                .ok_or_else(|| format!("metric {} was not measured", d.name))?;
            if !v.is_finite() {
                return Err(format!("metric {} is not finite: {v}", d.name));
            }
            out.push((
                d.name,
                Json::object([("value", Json::Num(v)), ("unit", Json::Str(d.unit.into()))]),
            ));
        }
        if let Some(extra) = self.vals.keys().find(|k| !out.iter().any(|(n, _)| n == *k)) {
            return Err(format!("metric {extra} does not belong to this run"));
        }
        Ok(Json::object(out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hstencil_testkit::Json;

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    /// Whether `name` is a legal metric name: `[A-Za-z0-9_.-]+`, starting
    /// with a letter or digit, at most 64 characters.
    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-')
    }

    fn bench() -> Json {
        Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses")
    }

    #[test]
    fn every_metric_name_is_legal_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(d.name), "{}", d.name);
            assert!(seen.insert(d.name), "{} listed twice", d.name);
            assert!(!d.read_on.is_empty(), "{} is read on no workload", d.name);
        }
        assert!(!valid_name("a b") && !valid_name(".a") && !valid_name("a/b"));
    }

    fn declared(key: &str) -> Vec<(String, String, String)> {
        bench()
            .get(key)
            .and_then(Json::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                let s = |k| m.get(k).and_then(Json::as_str).expect(k).to_string();
                (s("name"), s("unit"), s("better"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_the_registry() {
        for (key, reg) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let want: Vec<_> = reg
                .iter()
                .map(|d| (d.name.into(), d.unit.into(), d.better.label().into()))
                .collect();
            assert_eq!(declared(key), want, "{key}");
        }
    }

    #[test]
    fn benchmark_json_bounds_stay_within_the_contract() {
        let e2e = bench();
        let bounds: Vec<(String, f64)> = e2e
            .get("end_to_end")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|m| {
                let name = m.get("name").and_then(Json::as_str).unwrap().to_string();
                (name, m.get("bound").and_then(Json::as_f64).unwrap())
            })
            .collect();
        let setup = bounds.iter().find(|(n, _)| n == "setup_s").unwrap().1;
        for (name, b) in &bounds {
            assert!(*b > 0.0 && *b <= 0.25, "{name}: {b}");
            assert!(*b <= setup, "setup_s must carry the largest bound");
        }
    }

    /// Each workload's `why` says why it was chosen and names the
    /// end-to-end metrics and per-layer groups it is read with.
    #[test]
    fn benchmark_json_records_why_and_metric_mapping_per_workload() {
        let b = bench();
        let workloads = b.get("workloads").and_then(Json::as_array).unwrap();
        let names: Vec<&str> = workloads
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(names, Workload::DECLARED.map(Workload::name));
        for (w, entry) in Workload::DECLARED.into_iter().zip(workloads) {
            let why = entry.get("why").and_then(Json::as_str).unwrap();
            assert!(why.len() <= 200 && !why.contains('\n'), "{}", w.name());
            let own = |d: &&Def| d.read_on.contains(&w) && d.read_on.len() < Workload::ALL.len();
            for d in END_TO_END.iter().filter(own) {
                assert!(why.contains(d.name), "{}: why lacks {}", w.name(), d.name);
            }
            for d in PER_LAYER.iter().filter(own) {
                let group = d.name.split('.').take(2).collect::<Vec<_>>().join(".");
                let top = d.name.split('.').next().unwrap();
                assert!(
                    why.contains(&group) || why.contains(&format!("{top}.*")),
                    "{}: why names neither {group} nor {top}.*",
                    w.name()
                );
            }
        }
    }

    #[test]
    fn result_json_rejects_missing_extra_and_non_finite_metrics() {
        let mut m = Metrics::default();
        for d in END_TO_END {
            m.set(d.name, 1.5);
        }
        let json = m.to_json(false).unwrap();
        assert!(END_TO_END.iter().all(|d| json.get(d.name).is_some()));
        assert!(m.to_json(true).is_err(), "per-layer metrics are missing");
        m.set("sim.minst_per_s", 2.0);
        assert!(m.to_json(false).is_err(), "a per-layer metric is extra");
        let mut m = Metrics::default();
        for d in END_TO_END {
            m.set(d.name, 1.5);
        }
        m.set("gcell_updates_per_s", f64::NAN);
        assert!(m.to_json(false).is_err());
    }
}
