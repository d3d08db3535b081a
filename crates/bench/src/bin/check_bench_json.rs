//! CI gate for the bench artifacts (scripts/verify.sh):
//!
//! ```text
//! check_bench_json PATH
//! ```
//!
//! `PATH` (`BENCH_native.json`, `BENCH_serve.json` or a smoke-tier
//! copy) must exist, parse with the testkit JSON reader and pass the
//! schema of its kind ([`gates::Artifact::from_json`]). The tool then
//! judges it against every entry of `crates/bench/gates.txt` bounded in
//! the artifact's own tier, read from its `smoke` field (DESIGN.md §16).
//!
//! Exit codes: 0 ok, 1 usage error, malformed/incomplete artifact or
//! gate failure, 2 missing/unreadable.

use hstencil_bench::gates::{self, Artifact, Outcome};
use hstencil_testkit::outln;
use hstencil_testkit::Json;

fn fail(code: i32, msg: String) -> ! {
    eprintln!("check_bench_json: {msg}");
    std::process::exit(code);
}

/// The single artifact path, or a usage error. Flags are rejected by
/// name: the gates and their bounds live in the table, not on the
/// command line.
fn parse_args(args: &[String]) -> Result<&str, String> {
    if let Some(flag) = args.iter().find(|a| a.starts_with("--")) {
        return Err(format!(
            "unknown flag '{flag}': gates and bounds live in crates/bench/gates.txt; \
             usage: check_bench_json PATH"
        ));
    }
    match args {
        [path] => Ok(path),
        _ => Err("usage: check_bench_json PATH".to_string()),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let path = parse_args(&args).unwrap_or_else(|e| fail(1, e));
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => fail(2, format!("cannot read {path}: {e}")),
    };
    let doc = Json::parse(&text).unwrap_or_else(|e| fail(1, format!("{path}: {e}")));
    let art = Artifact::from_json(&doc).unwrap_or_else(|e| fail(1, format!("{path}: {e}")));
    let tier = if art.smoke { "smoke" } else { "baseline" };
    for entry in gates::table() {
        let name = &entry.name;
        match entry.judge(&art) {
            None => {}
            Some(Outcome::Ok(v, bound)) => outln!("check_bench_json: {name} ok ({v:.2} {bound})"),
            Some(Outcome::Skipped(why)) => outln!("check_bench_json: {name} SKIPPED ({why})"),
            Some(Outcome::Fail(why)) => {
                fail(1, format!("{path}: {tier} gate {name} failed: {why}"))
            }
        }
    }
    outln!("check_bench_json: {path} ok ({tier} tier)");
}

#[cfg(test)]
mod tests {
    use super::parse_args;

    #[test]
    fn exactly_one_path_is_accepted_and_any_flag_names_the_gate_table() {
        let parse = |list: &[&str]| {
            parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>()).map(str::to_string)
        };
        assert_eq!(
            parse(&["BENCH_native.json"]),
            Ok("BENCH_native.json".into())
        );
        for flag in [
            &["--bound=1.15", "BENCH_native.json"][..],
            &["BENCH_native.json", "--smoke"],
        ] {
            assert!(parse(flag).unwrap_err().contains("crates/bench/gates.txt"));
        }
        for usage in [&[][..], &["a.json", "b.json"]] {
            assert!(parse(usage).unwrap_err().starts_with("usage"));
        }
    }
}
