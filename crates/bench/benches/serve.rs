//! Wall-clock latency benchmark of the **stencil job server**
//! (`crates/serve`, ISSUE 8): a seeded open-loop load generator offers
//! the standard mixed job scenario to a live [`Server`] and records the
//! submit→completion latency distribution the server itself measured
//! (exact order statistics over every completed job, not collector-side
//! timing — waiting handles in submission order would inflate the tail).
//!
//! Two scenarios per run:
//!
//! * `mixed_open_loop` — the six standard job classes arriving as a
//!   Poisson process ([`Pace::Wall`]), the latency-under-offered-load
//!   number the `serve_p99_ms` gate bounds (with every scenario's p99).
//! * `uniform_burst` — a single job class submitted back-to-back
//!   ([`Pace::Immediate`]) into a queue sized to take the whole burst,
//!   the saturation case where batching by plan key amortizes dispatch
//!   resolution (mean batch size is recorded for the summary line).
//!
//! The arrival schedule and every grid's contents derive from
//! `TESTKIT_SEED` (default `0x5EED_0001`), so a run replays its exact
//! job stream. Writes `BENCH_serve.json` at the repository root via the
//! testkit JSON writer; `--out=PATH` redirects it (the `=` form, as with
//! the native bench) and `--smoke` shrinks the job counts for the
//! verify.sh smoke tier, which points `--out=` at a scratch file so
//! smoke numbers never clobber the committed latency baseline.

use hstencil_core::native::threads;
use hstencil_serve::{job_for, run_open_loop, Pace, ServeConfig, Server};
use hstencil_testkit::load::{self, ScheduleSpec};
use hstencil_testkit::outln;
use hstencil_testkit::{Json, ToJson};
use std::time::Instant;

/// One scenario's recorded outcome, destined for JSON.
struct Row {
    name: &'static str,
    jobs: u64,
    mean_gap_ns: u64,
    queue: usize,
    batch: usize,
    lanes: usize,
    submitted: u64,
    rejected: u64,
    completed: u64,
    failed: u64,
    batches: u64,
    batched_jobs: u64,
    p50_ms: f64,
    p90_ms: f64,
    p99_ms: f64,
    max_ms: f64,
    mean_ms: f64,
    wall_s: f64,
}

impl Row {
    fn jobs_per_s(&self) -> f64 {
        self.completed as f64 / self.wall_s
    }

    fn mean_batch(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.batched_jobs as f64 / self.batches as f64
        }
    }

    fn to_json(&self) -> Json {
        Json::object([
            ("scenario", self.name.to_json()),
            ("jobs", self.jobs.to_json()),
            ("mean_gap_ns", self.mean_gap_ns.to_json()),
            ("queue", self.queue.to_json()),
            ("batch", self.batch.to_json()),
            ("lanes", self.lanes.to_json()),
            ("submitted", self.submitted.to_json()),
            ("rejected", self.rejected.to_json()),
            ("completed", self.completed.to_json()),
            ("failed", self.failed.to_json()),
            ("batches", self.batches.to_json()),
            ("batched_jobs", self.batched_jobs.to_json()),
            ("mean_batch", self.mean_batch().to_json()),
            ("p50_ms", self.p50_ms.to_json()),
            ("p90_ms", self.p90_ms.to_json()),
            ("p99_ms", self.p99_ms.to_json()),
            ("max_ms", self.max_ms.to_json()),
            ("mean_ms", self.mean_ms.to_json()),
            ("wall_s", self.wall_s.to_json()),
            ("jobs_per_s", self.jobs_per_s().to_json()),
        ])
    }
}

/// Runs one scenario against a fresh server and reads the latency
/// distribution out of the server's own snapshot.
fn run_scenario(
    name: &'static str,
    seed: u64,
    spec: &ScheduleSpec,
    pace: Pace,
    cfg: ServeConfig,
) -> Row {
    let classes = hstencil_serve::loadgen::standard_classes();
    let schedule = load::schedule(seed, spec);
    let server = Server::start(cfg);
    let t0 = Instant::now();
    let outcome = run_open_loop(
        &server,
        &schedule,
        pace,
        |arr| job_for(&classes, arr),
        |_, _| {},
    );
    let wall_s = t0.elapsed().as_secs_f64();
    let snap = server.snapshot();
    server.shutdown();
    Row {
        name,
        jobs: spec.jobs,
        mean_gap_ns: spec.mean_gap_ns,
        queue: cfg.queue,
        batch: cfg.batch,
        lanes: cfg.lanes,
        submitted: outcome.submitted,
        rejected: outcome.rejected,
        completed: snap.completed,
        failed: snap.failed,
        batches: snap.batches,
        batched_jobs: snap.batched_jobs,
        p50_ms: snap.latency.p50 * 1e3,
        p90_ms: snap.latency.p90 * 1e3,
        p99_ms: snap.latency.p99 * 1e3,
        max_ms: snap.latency.max * 1e3,
        mean_ms: snap.latency.mean * 1e3,
        wall_s,
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let seed = load::seed_from_env(0x5EED_0001);
    let lanes = threads::auto();

    // Open-loop offered load: ~2000 jobs/s of the mixed scenario. On a
    // loaded 1-core host the queue absorbs scheduling hiccups; p99 stays
    // far below the gate unless the pipeline genuinely regresses.
    let (open_jobs, burst_jobs) = if smoke { (60, 32) } else { (400, 256) };
    let open_spec = ScheduleSpec {
        jobs: open_jobs,
        mean_gap_ns: 500_000,
        classes: 6,
    };
    // Burst: a single class submitted back-to-back into a queue wide
    // enough for the whole burst — saturation, so batching has material
    // to coalesce (mean batch size tells whether it did).
    let burst_spec = ScheduleSpec {
        jobs: burst_jobs,
        mean_gap_ns: 1,
        classes: 1,
    };

    let rows = vec![
        run_scenario(
            "mixed_open_loop",
            seed,
            &open_spec,
            Pace::Wall,
            ServeConfig::new(64, 8, lanes),
        ),
        run_scenario(
            "uniform_burst",
            seed ^ 0xB0B5,
            &burst_spec,
            Pace::Immediate,
            ServeConfig::new(burst_jobs as usize, 8, lanes),
        ),
    ];

    for r in &rows {
        outln!(
            "{}: {} jobs ({} rejected, {} failed), p50 {:.3} ms, p99 {:.3} ms, \
             {:.0} jobs/s, mean batch {:.2}",
            r.name,
            r.completed,
            r.rejected,
            r.failed,
            r.p50_ms,
            r.p99_ms,
            r.jobs_per_s(),
            r.mean_batch(),
        );
    }

    let doc = Json::object([
        ("bench", "serve_load_gen".to_json()),
        ("smoke", smoke.to_json()),
        ("seed", format!("{seed:#x}").to_json()),
        (
            "host_threads",
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .to_json(),
        ),
        ("scenarios", Json::array(rows.iter().map(Row::to_json))),
    ]);

    // Repo-root artifact, independent of the cwd cargo gives bench
    // binaries; `--out=PATH` redirects (verify.sh smoke runs).
    let path = std::env::args()
        .find_map(|a| a.strip_prefix("--out=").map(std::path::PathBuf::from))
        .unwrap_or_else(|| {
            std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("../..")
                .join("BENCH_serve.json")
        });
    match std::fs::write(&path, doc.to_pretty() + "\n") {
        Ok(()) => outln!("wrote {}", path.display()),
        Err(e) => {
            eprintln!("error: failed to write {}: {e}", path.display());
            std::process::exit(1);
        }
    }
}
