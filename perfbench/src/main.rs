//! perfbench — the HStencil repository benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One seeded workload per run (see `BENCHMARK.json` for why each was
//! chosen). Every output is checked. The last line of standard output is
//! `{"correct", "attempted", "failed", "metrics"}`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics of a separate traced
//! run with `--trace 1`. Every workload prints every metric of its mode:
//! a traced run measures its own workload with the full `--seconds`, then
//! the other three workloads' layers with a short probe of each. Spans and the run's configuration are written to
//! `.perfbench_out/`. The exit code is non-zero when any check failed.
//!
//! The library crates are called only through their public APIs; every
//! `HSTENCIL_*` knob is unset and `HSTENCIL_TUNE` points at a file that
//! does not exist, so no tune cache or stray setting can change dispatch.

mod check;
mod gen;
mod host;
mod incache;
mod metrics;
mod serve;
mod sim;
mod stats;
mod stream;
mod trace;

use hstencil_testkit::Json;
use metrics::{Metrics, Workload};
use std::path::Path;
use std::time::Instant;
use trace::Tracer;

const USAGE: &str = "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>";

/// Where spans and the run configuration are written.
const OUT_DIR: &str = ".perfbench_out";

/// `HSTENCIL_TUNE` for every run: a plan file that does not exist, so
/// dispatch never depends on a tune cache left in the checkout.
const ABSENT_TUNE_FILE: &str = ".perfbench_out/absent/hstencil-tune.json";

/// One run's inputs and everything it measures.
pub struct Run {
    pub seed: u64,
    pub seconds: f64,
    pub tracer: Tracer,
    pub metrics: Metrics,
    /// Operations (sweeps, jobs, simulated runs) attempted and failed.
    pub attempted: u64,
    pub failed: u64,
    /// The workload being probed inside another workload's traced run;
    /// `None` while the run's own workload is measured.
    pub probe: Option<&'static str>,
    config: Vec<(String, Json)>,
}

impl Run {
    pub fn new(seed: u64, seconds: f64, trace: bool) -> Run {
        Run {
            seed,
            seconds,
            tracer: Tracer::new(Instant::now(), trace),
            metrics: Metrics::default(),
            attempted: 0,
            failed: 0,
            probe: None,
            config: Vec::new(),
        }
    }

    pub fn traced(&self) -> bool {
        self.tracer.enabled()
    }

    /// Adds an entry to the run's recorded configuration; a probe's
    /// entries are prefixed with the probed workload's name.
    pub fn record(&mut self, key: impl Into<String>, value: Json) {
        let key = key.into();
        let key = match self.probe {
            Some(w) => format!("{w}.{key}"),
            None => key,
        };
        self.config.push((key, value));
    }

    /// Records the tracing overhead measured by the run's own workload;
    /// a probe is too short to give it.
    pub fn set_overhead(&mut self, frac: f64) {
        if self.probe.is_none() {
            self.metrics.set("trace.overhead_frac", frac);
        }
    }

    pub fn ops(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Clears every `HSTENCIL_*` knob and points `HSTENCIL_TUNE` at a file
/// that must not exist. Runs before any library call and before any
/// thread is spawned.
fn pin_environment() -> Result<Json, String> {
    if Path::new(ABSENT_TUNE_FILE).exists() {
        return Err(format!("{ABSENT_TUNE_FILE} must not exist"));
    }
    let knobs: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("HSTENCIL_"))
        .collect();
    for k in &knobs {
        std::env::remove_var(k);
    }
    std::env::set_var("HSTENCIL_TUNE", ABSENT_TUNE_FILE);
    Ok(Json::object([
        ("cleared", Json::array(knobs.into_iter().map(Json::Str))),
        ("HSTENCIL_TUNE", Json::Str(ABSENT_TUNE_FILE.into())),
    ]))
}

fn write_out(workload: Workload, trace: bool, doc: &Json) -> std::io::Result<()> {
    std::fs::create_dir_all(OUT_DIR)?;
    let path = format!(
        "{OUT_DIR}/{}-trace{}.json",
        workload.name(),
        u8::from(trace)
    );
    std::fs::write(path, doc.to_compact())
}

/// A probe inside a traced run runs for `--seconds` divided by this.
const PROBE_DIVISOR: f64 = 4.0;

fn run_workload(run: &mut Run, workload: Workload) {
    match workload {
        Workload::IncacheSweeps => incache::run(run),
        Workload::StreamTimesteps => stream::run(run),
        Workload::ServeClosed => serve::run(run),
        Workload::SimFigures => sim::run(run),
    }
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let env = match pin_environment() {
        Ok(env) => env,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut run = Run::new(args.seed, args.seconds, args.trace);
    run.record("workload", Json::Str(args.workload.name().into()));
    run.record("seed", Json::UInt(args.seed));
    run.record("host", host::describe());
    run.record("env", env);

    run_workload(&mut run, args.workload);
    if args.trace {
        // Every per-layer metric is printed by every traced run: the
        // layers of the other workloads are measured by short probes.
        run.seconds = args.seconds / PROBE_DIVISOR;
        for w in Workload::ALL.into_iter().filter(|&w| w != args.workload) {
            run.probe = Some(w.name());
            run_workload(&mut run, w);
        }
        run.probe = None;
    }

    if args.trace {
        run.metrics.set(
            "ops_failed_frac",
            run.failed as f64 / run.attempted.max(1) as f64,
        );
    } else {
        match host::peak_rss_mib() {
            Some(mib) => run.metrics.set("peak_rss_mib", mib),
            None => {
                eprintln!("perfbench: VmHWM is unavailable");
                std::process::exit(1);
            }
        }
    }
    let metrics = match run.metrics.to_json(args.trace) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };

    let config = Json::object(std::mem::take(&mut run.config));
    let doc = Json::object([("config", config.clone()), ("spans", run.tracer.to_json())]);
    if let Err(e) = write_out(args.workload, args.trace, &doc) {
        eprintln!("perfbench: could not write {OUT_DIR}: {e}");
        std::process::exit(1);
    }
    println!("config: {}", config.to_compact());
    let correct = run.failed == 0 && run.attempted > 0;
    let result = Json::object([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::UInt(run.attempted.max(1))),
        ("failed", Json::UInt(run.failed)),
        ("metrics", metrics),
    ]);
    println!("{}", result.to_compact());
    if !correct {
        eprintln!(
            "perfbench: {} of {} operations failed their checks",
            run.failed, run.attempted
        );
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args("--workload serve_closed --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload, Workload::ServeClosed);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload sim_figures --seed -1 --seconds 1 --trace 0",
            "--workload sim_figures --seed 1 --seconds 0 --trace 0",
            "--workload sim_figures --seed 1 --seconds 1 --trace 2",
            "--workload sim_figures --seed 1 --seconds 1",
            "--workload sim_figures --seed 1 --seconds 1 --trace 0 --extra 1",
            "--workload",
        ] {
            assert!(args(bad).is_err(), "{bad}");
        }
    }
}
