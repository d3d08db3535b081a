//! `hstencil list | head -1` must stop quietly with status 0 when the
//! reader closes the pipe, not panic on the broken pipe.

use std::process::Command;

#[test]
fn cli_exits_quietly_when_stdout_closes() {
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_hstencil"))
        .arg("list")
        .stdout(writer)
        .output()
        .expect("spawn");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !stderr.contains("panicked"),
        "stderr shows a panic:\n{stderr}"
    );
    assert!(out.status.success(), "exit {:?}\n{stderr}", out.status);
}
