//! A served multi-sweep job on a streaming-class grid. The executor
//! resolves the dispatch with `threads = 1` but runs the job on all of
//! its lanes, and on this shape the pick is the tempvec family, whose
//! fused wavefront runs on interior tiles. The served grid must still be
//! bit-identical to the direct single-thread oracle: only tempvec's
//! lane and tile invariance makes that hold.
//!
//! The kernel pins are cleared and `HSTENCIL_TUNE` points at a plan file
//! that does not exist, so the streaming heuristic (not an ambient pin
//! or a recorded plan) decides. The env is read once per process, which
//! is why this is its own test binary.

use hstencil_core::native::tempvec;
use hstencil_core::{presets, Dispatch, Dtype, Grid2d};
use hstencil_serve::loadgen;
use hstencil_serve::{JobRequest, ServeConfig, Server};
use hstencil_testkit::load;
use hstencil_testkit::rng::{Rng, Xoshiro256};

const DEFAULT_SEED: u64 = 0x5EED_0001;
/// Streaming for f64 (≈ 9.8 MB working set), with fully interior tiles
/// under the default 128 × 512 trapezoid tiling.
const H: usize = 384;
const W: usize = 1600;
const SWEEPS: usize = 4;

#[test]
fn served_streaming_multi_sweep_jobs_are_bit_identical_to_direct_execution() {
    std::env::remove_var("HSTENCIL_DISPATCH");
    let missing = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("no-such-tune-plans.json");
    std::env::set_var("HSTENCIL_TUNE", missing);

    let seed = load::seed_from_env(DEFAULT_SEED);
    let server = Server::start(ServeConfig::new(8, 2, 2));
    for (k, spec) in [presets::star2d5p(), presets::box2d9p()]
        .into_iter()
        .enumerate()
    {
        if Dispatch::avx2_available() {
            assert_eq!(
                Dispatch::for_sweep_dtype(&spec, H, W, 1, Dtype::F64),
                Dispatch::TempVec,
                "{}: the executor's query must reach the streaming arm",
                spec.name()
            );
        }
        let mut rng = Xoshiro256::seed_from_u64(seed ^ k as u64);
        let grid = Grid2d::from_fn(H, W, spec.radius(), |_, _| rng.gen_range(-1.0..1.0));
        let req = JobRequest::from_spec(spec.clone(), grid.clone(), SWEEPS).expect("valid job");
        let tiles = tempvec::wave_tiles();
        let served = server
            .submit(req)
            .expect("admitted")
            .wait()
            .expect("job completes");
        if Dispatch::avx2_available() {
            assert!(
                tempvec::wave_tiles() > tiles,
                "{}: the served job never ran the fused wavefront",
                spec.name()
            );
        }
        let direct = loadgen::reference_result(&spec, &grid, SWEEPS);
        assert_eq!(
            served,
            direct,
            "{} {H}x{W} x{SWEEPS}: served result diverged from direct execution",
            spec.name()
        );
    }
    server.shutdown();
}
