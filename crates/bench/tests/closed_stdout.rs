//! Report binaries whose reader closes the pipe early
//! (`bench_diff OLD NEW | head -5`) must stop quietly, not panic on the
//! broken pipe, and must still finish their work: a gate that fails
//! after the reader left still fails the run.
//!
//! Each binary runs with stdout connected to a pipe whose read end is
//! already closed, so its first write fails with `EPIPE`.

use hstencil_testkit::Json;
use std::path::Path;
use std::process::{Command, Output};

fn run_with_closed_stdout(bin: &str, args: &[&str]) -> Output {
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    Command::new(bin)
        .args(args)
        .stdout(writer)
        .output()
        .expect("spawn")
}

fn assert_no_panic(out: &Output, what: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !stderr.contains("panicked") && !stderr.contains("Broken pipe"),
        "{what}: stderr shows a panic:\n{stderr}"
    );
}

fn assert_quiet_exit(out: &Output, what: &str) {
    assert_no_panic(out, what);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "{what}: exit {:?}\n{stderr}",
        out.status
    );
}

fn baseline() -> String {
    let p = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_native.json");
    p.to_str().expect("utf-8 path").to_string()
}

#[test]
fn bench_diff_exits_quietly_when_stdout_closes() {
    let base = baseline();
    let out = run_with_closed_stdout(env!("CARGO_BIN_EXE_bench_diff"), &[&base, &base]);
    assert_quiet_exit(&out, "bench_diff");
}

#[test]
fn check_bench_json_exits_quietly_when_stdout_closes() {
    let out = run_with_closed_stdout(env!("CARGO_BIN_EXE_check_bench_json"), &[&baseline()]);
    assert_quiet_exit(&out, "check_bench_json");
}

/// The committed baseline with its 256² f64 star `hybrid8x8` rows
/// slowed 100×, so the `reuse_star2d5p_256_t1` gate fails — after
/// earlier gates have already printed their `ok` lines.
fn baseline_with_a_failing_gate() -> String {
    let doc = Json::parse(&std::fs::read_to_string(baseline()).expect("read baseline"))
        .expect("parse baseline");
    let Json::Obj(mut top) = doc else {
        panic!("baseline is not an object")
    };
    let Some((_, Json::Arr(rows))) = top.iter_mut().find(|(k, _)| k == "results") else {
        panic!("baseline has no results array")
    };
    let mut slowed = 0;
    for row in rows.iter_mut() {
        let str_is = |k: &str, v: &str| row.get(k).and_then(Json::as_str) == Some(v);
        let num_is = |k: &str, v: f64| row.get(k).and_then(Json::as_f64) == Some(v);
        let target = str_is("stencil", "star2d5p")
            && str_is("kernel", "hybrid8x8")
            && str_is("dtype", "f64")
            && num_is("size", 256.0)
            && num_is("sweeps", 1.0)
            && num_is("threads", 1.0);
        let Json::Obj(fields) = row else { continue };
        if !target {
            continue;
        }
        for (k, v) in fields.iter_mut() {
            if k.ends_with("_s") {
                *v = Json::Num(v.as_f64().expect("seconds") * 100.0);
            }
        }
        slowed += 1;
    }
    assert!(slowed > 0, "no 256^2 f64 star hybrid8x8 row in the baseline");
    let path = std::env::temp_dir().join(format!(
        "closed_stdout_failing_gate_{}.json",
        std::process::id()
    ));
    std::fs::write(&path, Json::Obj(top).to_pretty()).expect("write artifact");
    path.to_str().expect("utf-8 path").to_string()
}

#[test]
fn check_bench_json_still_fails_a_gate_when_stdout_closes() {
    let art = baseline_with_a_failing_gate();
    let open = Command::new(env!("CARGO_BIN_EXE_check_bench_json"))
        .arg(&art)
        .output()
        .expect("spawn");
    let stdout = String::from_utf8_lossy(&open.stdout);
    let stderr = String::from_utf8_lossy(&open.stderr);
    assert_eq!(open.status.code(), Some(1), "open stdout:\n{stdout}\n{stderr}");
    assert!(
        stdout.contains(" ok (") && stderr.contains("reuse_star2d5p_256_t1 failed"),
        "an ok line must precede the failing gate:\n{stdout}\n{stderr}"
    );
    let closed = run_with_closed_stdout(env!("CARGO_BIN_EXE_check_bench_json"), &[&art]);
    std::fs::remove_file(&art).ok();
    assert_no_panic(&closed, "check_bench_json");
    assert_eq!(
        closed.status.code(),
        Some(1),
        "closed stdout: {}",
        String::from_utf8_lossy(&closed.stderr)
    );
}
