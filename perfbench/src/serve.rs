//! `serve_closed`: the `loadgen::standard_classes()` job mix sent to a
//! `Server` at its default sizing by a closed loop of 2 clients, each
//! submitting its next job only after `JobHandle::wait` returns. Jobs
//! are small, so stage hand-offs (admission, batcher, executor,
//! completion) do the work.

use crate::stats::{self, repeated_setup};
use crate::trace::{Tracer, NONE};
use crate::{check, gen, Run};
use hstencil_core::native::Dispatch;
use hstencil_core::{Dtype, Grid2d, ThreadPool};
use hstencil_serve::loadgen::{standard_classes, JobClass};
use hstencil_serve::{reference_result, JobRequest, ServeConfig, Server, ServerSnapshot};
use hstencil_testkit::Json;
use std::time::{Duration, Instant};

const CLIENTS: usize = 2;
/// Distinct seeded inputs per job class; jobs draw from these so every
/// expected result is computed once, during set-up.
const INPUTS_PER_CLASS: usize = 16;
/// Jobs of the traced run whose direct `reference_result` is timed.
const REFERENCE_SAMPLES: usize = 2000;

struct Inputs {
    classes: Vec<JobClass>,
    grids: Vec<Vec<Grid2d>>,
    expected: Vec<Vec<Grid2d>>,
}

fn inputs(seed: u64) -> Inputs {
    let classes = standard_classes();
    let grids: Vec<Vec<Grid2d>> = classes
        .iter()
        .enumerate()
        .map(|(c, class)| {
            (0..INPUTS_PER_CLASS)
                .map(|k| {
                    let stream = 2000 + (c * INPUTS_PER_CLASS + k) as u64;
                    gen::grid_2d(seed, stream, class.h, class.w, class.spec.radius())
                })
                .collect()
        })
        .collect();
    let expected = classes
        .iter()
        .zip(&grids)
        .map(|(class, gs)| {
            gs.iter()
                .map(|g| reference_result(&class.spec, g, class.sweeps))
                .collect()
        })
        .collect();
    Inputs {
        classes,
        grids,
        expected,
    }
}

fn request(inp: &Inputs, c: usize, k: usize) -> JobRequest {
    let class = &inp.classes[c];
    JobRequest::from_spec(class.spec.clone(), inp.grids[c][k].clone(), class.sweeps)
        .expect("generated jobs are valid")
}

/// Server start, inputs with their expected results (computing them
/// loads the tune cache), and the shared pool's workers spawned at the
/// server's lane count.
fn setup(seed: u64) -> (Server, Inputs) {
    let server = Server::start(ServeConfig::from_env());
    let inp = inputs(seed);
    ThreadPool::global().run(server.config().lanes, &|_, _| {});
    (server, inp)
}

/// A traced job, kept for the `reference_result` re-run.
struct Job {
    id: u64,
    class: usize,
    input: usize,
    latency_s: f64,
}

/// What one client observed. Untraced runs keep only fixed-size records
/// per job, so peak memory does not follow throughput.
#[derive(Default)]
struct ClientOut {
    latencies_ms: Vec<f32>,
    /// Jobs completed in each whole second since the loop started.
    per_second: Vec<f64>,
    /// Interior cells x sweeps of the jobs completed in each second.
    cells_per_second: Vec<f64>,
    /// Traced runs only.
    jobs: Vec<Job>,
    failed: u64,
}

/// One closed-loop client: pick a job, submit, wait, check, repeat
/// until `deadline`. Latency runs from `submit` to `wait` returning; the
/// request is built before and the check made after.
fn client(
    server: &Server,
    inp: &Inputs,
    seed: u64,
    who: usize,
    (start, deadline): (Instant, Instant),
    tracer: &mut Tracer,
) -> ClientOut {
    let windows = (deadline - start).as_secs() as usize;
    let mut out = ClientOut {
        per_second: vec![0.0; windows],
        cells_per_second: vec![0.0; windows],
        ..ClientOut::default()
    };
    let mut n = 0u64;
    let classes = inp.classes.len() as u64;
    while Instant::now() < deadline {
        let pick = gen::hash(seed, 3000 + who as u64, n);
        n += 1;
        let (c, k) = (
            (pick % classes) as usize,
            ((pick / classes) % INPUTS_PER_CLASS as u64) as usize,
        );
        let req = request(inp, c, k);
        let job = tracer.open("serve.job", NONE, None);
        let t0 = Instant::now();
        let sub = tracer.open("serve.submit", job, None);
        let handle = server.submit(req);
        tracer.close(sub);
        let handle = match handle {
            Ok(h) => h,
            Err(e) => {
                tracer.close(job);
                eprintln!("perfbench: submit failed: {e}");
                out.failed += 1;
                continue;
            }
        };
        let id = handle.id().0;
        let wait = tracer.open("serve.wait", job, Some(id));
        let result = handle.wait();
        let done = Instant::now();
        tracer.close(wait);
        tracer.close(job);
        tracer.set_job(job, id);
        tracer.set_job(sub, id);
        match result {
            Ok(g) if check::bit_identical(&g, &inp.expected[c][k]) => {
                let latency_s = (done - t0).as_secs_f64();
                out.latencies_ms.push((latency_s * 1e3) as f32);
                let window = (done - start).as_secs() as usize;
                if window < windows {
                    let class = &inp.classes[c];
                    out.per_second[window] += 1.0;
                    out.cells_per_second[window] += (class.h * class.w * class.sweeps) as f64;
                }
                if tracer.enabled() {
                    out.jobs.push(Job {
                        id,
                        class: c,
                        input: k,
                        latency_s,
                    });
                }
            }
            Ok(_) => {
                eprintln!("perfbench: job {id} differs from reference_result");
                out.failed += 1;
            }
            Err(e) => {
                eprintln!("perfbench: job {id} failed: {e}");
                out.failed += 1;
            }
        }
    }
    out
}

/// What one closed loop observed.
struct LoopOut {
    /// Every correct job's latency in ms.
    latencies_ms: Vec<f64>,
    /// Median over whole seconds of the jobs completed in each (a stall
    /// of the shared host costs one window, not the figure).
    jobs_per_s: f64,
    /// The same median of interior cells x sweeps completed, in Gcell/s.
    gcells_per_s: f64,
    /// Traced runs only.
    jobs: Vec<Job>,
}

/// Runs the closed loop for `dur`, counting its jobs as operations.
fn closed_loop(run: &mut Run, server: &Server, inp: &Inputs, dur: Duration) -> LoopOut {
    let seed = run.seed;
    let start = Instant::now();
    let span = (start, start + dur);
    let mut tracers: Vec<Tracer> = (0..CLIENTS).map(|_| run.tracer.fork()).collect();
    let outs: Vec<ClientOut> = std::thread::scope(|s| {
        let hs: Vec<_> = tracers
            .iter_mut()
            .enumerate()
            .map(|(who, t)| s.spawn(move || client(server, inp, seed ^ 0x5eed, who, span, t)))
            .collect();
        hs.into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    for t in tracers {
        run.tracer.absorb(t);
    }
    let mut per_second = vec![0.0; dur.as_secs() as usize];
    let mut cells_per_second = per_second.clone();
    let (mut latencies_ms, mut jobs, mut failed) = (Vec::new(), Vec::new(), 0);
    let mut cells = 0.0;
    for o in outs {
        for (w, n) in per_second.iter_mut().zip(&o.per_second) {
            *w += n;
        }
        for (w, n) in cells_per_second.iter_mut().zip(&o.cells_per_second) {
            *w += n;
        }
        cells += o.cells_per_second.iter().sum::<f64>();
        latencies_ms.extend(o.latencies_ms.iter().map(|&l| f64::from(l)));
        jobs.extend(o.jobs);
        failed += o.failed;
    }
    run.ops(latencies_ms.len() as u64 + failed, failed);
    let (jobs_per_s, cells_per_s) = if per_second.is_empty() {
        let secs = dur.as_secs_f64();
        (latencies_ms.len() as f64 / secs, cells / secs)
    } else {
        (stats::median(&per_second), stats::median(&cells_per_second))
    };
    LoopOut {
        latencies_ms,
        jobs_per_s,
        gcells_per_s: cells_per_s / 1e9,
        jobs,
    }
}

fn record_server(run: &mut Run, server: &Server, inp: &Inputs) {
    let cfg = server.config();
    let classes = inp.classes.iter().map(|c| {
        let d = Dispatch::for_sweep_dtype(&c.spec, c.h, c.w, cfg.lanes, Dtype::F64);
        Json::object([
            ("class", Json::Str(c.name.into())),
            ("dispatch", Json::Str(d.label().into())),
        ])
    });
    run.record("cases", Json::array(classes.collect::<Vec<_>>()));
    run.record(
        "server",
        Json::object([
            ("queue", Json::UInt(cfg.queue as u64)),
            ("batch", Json::UInt(cfg.batch as u64)),
            ("lanes", Json::UInt(cfg.lanes as u64)),
            ("clients", Json::UInt(CLIENTS as u64)),
            ("loop", Json::Str("closed".into())),
        ]),
    );
}

pub fn run(run: &mut Run) {
    let seed = run.seed;
    // A set-up takes ~10 ms, most of it thread start-up, so it is
    // repeated often enough for its median to settle.
    let reps = if run.traced() { 1 } else { 25 };
    let ((server, inp), setup_s) = repeated_setup(reps, || setup(seed));
    record_server(run, &server, &inp);
    let budget = Duration::from_secs_f64(run.seconds);

    if !run.traced() {
        run.metrics.set("setup_s", setup_s);
        // Jobs per second and latency are reported by the traced run
        // only: on a shared two-core host even the median latency moves
        // by a third between identical runs whenever other tenants load
        // the cores (a preempted stage thread or client stretches every
        // hand-off), more than any bound an end-to-end metric can be
        // held to.
        let out = closed_loop(run, &server, &inp, budget);
        run.record("jobs", Json::UInt(out.latencies_ms.len() as u64));
        run.metrics.set("gcell_updates_per_s", out.gcells_per_s);
        return;
    }
    traced(run, &server, &inp, budget);
}

/// The traced run: untraced and traced segments alternate (the
/// difference in jobs/s is the tracing overhead), stage counters are
/// read around them, then a sample of the traced jobs is re-run directly
/// through `reference_result` under a span carrying the same job id.
fn traced(run: &mut Run, server: &Server, inp: &Inputs, budget: Duration) {
    let before: ServerSnapshot = server.snapshot();
    let t0 = Instant::now();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let (mut lat_ms, mut traced_jobs) = (Vec::new(), Vec::new());
    for on in [false, true, false, true] {
        run.tracer.set_enabled(on);
        let out = closed_loop(run, server, inp, budget / 4);
        if on {
            traced.push(out.jobs_per_s);
            traced_jobs.extend(out.jobs);
        } else {
            plain.push(out.jobs_per_s);
        }
        lat_ms.extend(out.latencies_ms);
    }
    let wall = t0.elapsed().as_secs_f64();
    let after = server.snapshot();
    run.set_overhead(1.0 - stats::median(&traced) / stats::median(&plain));
    run.metrics.set("serve.jobs_per_s", stats::median(&plain));

    let submit_us: Vec<f64> = run
        .tracer
        .durations("serve.submit")
        .into_iter()
        .map(|s| s * 1e6)
        .collect();
    run.metrics
        .set("serve.submit_us", stats::median(&submit_us));
    for (b, a) in before.stages.iter().zip(&after.stages) {
        let busy = a.busy.saturating_sub(b.busy).as_secs_f64();
        run.metrics
            .set(&format!("serve.stage.{}.busy_frac", a.name), busy / wall);
    }
    let batches = (after.batches - before.batches).max(1);
    run.metrics.set(
        "serve.batch.mean_jobs",
        (after.batched_jobs - before.batched_jobs) as f64 / batches as f64,
    );
    run.metrics
        .set("serve.rejected", (after.rejected - before.rejected) as f64);

    // Job latency minus the direct execution time of the same job.
    let step = (traced_jobs.len() / REFERENCE_SAMPLES).max(1);
    let mut overhead_us = Vec::new();
    let mut failed = 0u64;
    for job in traced_jobs.iter().step_by(step) {
        let class = &inp.classes[job.class];
        let grid = &inp.grids[job.class][job.input];
        let id = run
            .tracer
            .open("serve.reference_result", NONE, Some(job.id));
        let t0 = Instant::now();
        let want = reference_result(&class.spec, grid, class.sweeps);
        let secs = t0.elapsed().as_secs_f64();
        run.tracer.close(id);
        failed += u64::from(!check::bit_identical(
            &want,
            &inp.expected[job.class][job.input],
        ));
        overhead_us.push((job.latency_s - secs) * 1e6);
    }
    run.ops(overhead_us.len() as u64, failed);
    run.metrics
        .set("serve.overhead_us_p50", stats::median(&overhead_us));
    run.metrics
        .set("serve.job_latency_p50_ms", stats::percentile(&lat_ms, 50.0));
    run.metrics
        .set("serve.job_latency_p95_ms", stats::percentile(&lat_ms, 95.0));
    run.metrics
        .set("serve.job_latency_p99_ms", stats::percentile(&lat_ms, 99.0));

    let selfs = run.tracer.self_seconds();
    for name in ["serve.submit", "serve.wait", "serve.reference_result"] {
        run.metrics.set(
            &format!("{name}.self_s"),
            selfs.get(name).copied().unwrap_or(0.0),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_result_that_differs_from_reference_result_is_a_failed_job() {
        let (server, mut inp) = setup(5);
        for g in inp.expected[0].iter_mut() {
            let v = g.at(1, 1);
            g.set(1, 1, v + 1.0);
        }
        let start = Instant::now();
        let mut tracer = Tracer::new(start, true);
        let span = (start, start + Duration::from_millis(300));
        let out = client(&server, &inp, 5, 0, span, &mut tracer);
        assert!(out.failed > 0, "no job of the corrupted class ran");
        assert!(!out.jobs.is_empty());
        assert_eq!(out.jobs.len(), out.latencies_ms.len());
        assert!(out.jobs.iter().all(|j| j.class != 0));
    }
}
