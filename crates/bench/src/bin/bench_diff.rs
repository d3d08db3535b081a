//! Perf diff between two `BENCH_native.json` artifacts.
//!
//! ```text
//! bench_diff OLD.json NEW.json [--threshold=0.90] [--fail-on-regression]
//! ```
//!
//! Prints one line per (stencil, size, sweeps, threads, kernel) case
//! present in both files with the `old_median / new_median` ratio
//! (> 1.00 means NEW is faster), and flags cases whose ratio falls
//! below the threshold as regressions. Cases present in only one file
//! are listed as added/removed, and a bench *group* present in only
//! one artifact gets its own one-line `group only in old/new: NAME`
//! notice up front — a whole family appearing or vanishing (new bench
//! tier, recording host lacking an ISA) is a different signal than
//! row-level churn and must never be silently skipped. Exit code is 0 unless
//! `--fail-on-regression` is passed and at least one case regressed —
//! the default is report-only, which is how `scripts/verify.sh` runs
//! it against the committed baseline (smoke samples are far too noisy
//! to gate on; the real gates live in `check_bench_json`).
//!
//! Each per-case line is annotated with the kernel's static memory
//! profile, derived from the bench naming scheme alone: `ld/elem` is
//! element loads per output element (per-tap-load kernels load every
//! tap; the shifted-register reuse family — `*reuse*` labels and
//! `hybrid8x8` — loads each aligned row vector once and synthesizes
//! the shifted operands in-register, DESIGN.md §14), and `ai` is the
//! arithmetic intensity in FMA-flops per loaded element. The column is
//! omitted for rows with no static model (the multi-sweep
//! naive/temporal executors, whose traffic depends on tile geometry).
//!
//! After the per-case diff, a scaling section lists every
//! (stencil, size, sweeps, kernel) config measured at more than one
//! thread count, with its t-vs-t1 wall-clock ratios in OLD and NEW side
//! by side — so a change that leaves single-thread medians intact but
//! flattens the multi-core curve is visible in the report, not just in
//! the raw per-thread rows.
//!
//! Exit codes: 0 ok/report-only, 1 regression (with
//! `--fail-on-regression`) or malformed input, 2 unreadable file.

use hstencil_bench::gates;
use hstencil_testkit::outln;
use hstencil_testkit::Json;
use std::collections::{BTreeMap, BTreeSet};

fn fail(code: i32, msg: String) -> ! {
    eprintln!("bench_diff: {msg}");
    std::process::exit(code);
}

/// One artifact's comparable content: the per-case medians plus the set
/// of bench group names its rows carry. Rows recorded before the
/// `group` field existed contribute nothing to the group set — an old
/// baseline is simply silent about groups, not "missing every group".
struct Artifact {
    cases: BTreeMap<String, f64>,
    groups: BTreeSet<String>,
}

/// One-line notices for bench groups present in only one artifact. A
/// whole group appearing or vanishing (a new kernel family's bench
/// tier, or a recording host that lacked the ISA for one) is a
/// different signal than its individual cases being added/removed row
/// by row, so it gets its own line instead of being inferred from the
/// case-level noise.
fn group_notices(old: &BTreeSet<String>, new: &BTreeSet<String>) -> Vec<String> {
    let mut notices = Vec::new();
    for g in old.difference(new) {
        notices.push(format!("group only in old: {g}"));
    }
    for g in new.difference(old) {
        notices.push(format!("group only in new: {g}"));
    }
    notices
}

/// `case key -> median_s`, min over duplicate rows (a kernel can appear
/// in more than one bench group; best-vs-best is the stable comparison).
fn load(path: &str) -> Artifact {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => fail(2, format!("cannot read {path}: {e}")),
    };
    let rows = Json::parse(&text)
        .map_err(|e| e.to_string())
        .and_then(|doc| gates::rows(&doc))
        .unwrap_or_else(|e| fail(1, format!("{path}: {e}")));
    let mut cases = BTreeMap::new();
    let mut groups = BTreeSet::new();
    for r in rows {
        groups.extend(r.group);
        // f64 keeps the bare key so old and new artifacts stay
        // comparable; other dtypes get their own cases.
        let dtype_seg = if r.dtype == "f64" {
            String::new()
        } else {
            format!("/{}", r.dtype)
        };
        let key = format!(
            "{}/{}{dtype_seg}/s{}/t{}/{}",
            r.stencil, r.size, r.sweeps, r.threads, r.kernel
        );
        cases
            .entry(key)
            .and_modify(|m: &mut f64| *m = m.min(r.median_s))
            .or_insert(r.median_s);
    }
    Artifact { cases, groups }
}

/// `--threshold=T`: a finite ratio with 0 < T <= 1. NaN would pass every
/// regression (`ratio < NaN` is never true), so it is rejected with the
/// rest.
fn parse_threshold(text: &str) -> Option<f64> {
    text.parse::<f64>().ok().filter(|t| *t > 0.0 && *t <= 1.0)
}

/// `(is_star, dims, radius)` parsed from the bench preset naming
/// scheme (`star2d5p`, `box2d9p`, `heat3d`, ...); `None` for names
/// outside it. The point count is validated against the pattern so a
/// typo'd name drops the column instead of printing a wrong model.
fn shape(stencil: &str) -> Option<(bool, u32, u32)> {
    if stencil == "heat3d" {
        return Some((true, 3, 1));
    }
    let (star, rest) = if let Some(r) = stencil.strip_prefix("star") {
        (true, r)
    } else if let Some(r) = stencil.strip_prefix("box") {
        (false, r)
    } else {
        return None;
    };
    let (dims, pts) = rest.split_once('d')?;
    let dims: u32 = dims.parse().ok()?;
    let pts: u32 = pts.strip_suffix('p')?.parse().ok()?;
    if star {
        // pts = 2*dims*r + 1
        let r = pts.checked_sub(1)? / (2 * dims).max(1);
        (2 * dims * r + 1 == pts && r > 0).then_some((true, dims, r))
    } else {
        // pts = (2r+1)^dims
        let mut r = 1u32;
        loop {
            let n = (2 * r + 1).checked_pow(dims)?;
            match n.cmp(&pts) {
                std::cmp::Ordering::Equal => return Some((false, dims, r)),
                std::cmp::Ordering::Greater => return None,
                std::cmp::Ordering::Less => r += 1,
            }
        }
    }
}

/// Static memory profile for a (stencil, kernel) case:
/// `(loads_per_element, arithmetic_intensity)` where the intensity is
/// FMA-flops per loaded element (2 flops per tap). Per-tap-load
/// kernels load one element per tap per output. The reuse family
/// loads each stencil row's aligned vector pair once per 2L outputs
/// and only pays extra loads for the out-of-pair edge taps, so a row
/// with horizontal taps costs (2 + r_left + r_right)/2 = r+1 element
/// loads per output and a vertical-only row costs 1 (DESIGN.md §14):
/// star -> 3r+1, box -> (2r+1)(r+1). Returns `None` for kernels with
/// no static model (the multi-sweep naive/temporal executors) and for
/// shapes the reuse family does not cover (3-D).
fn intensity(stencil: &str, kernel: &str) -> Option<(f64, f64)> {
    let (star, dims, r) = shape(stencil)?;
    let taps = if star {
        2 * dims * r + 1
    } else {
        (2 * r + 1).pow(dims)
    } as f64;
    let flops = 2.0 * taps;
    let reuse_family = kernel.contains("reuse") || kernel == "hybrid8x8";
    let loads = if reuse_family {
        if dims != 2 {
            return None;
        }
        if star {
            (3 * r + 1) as f64
        } else {
            ((2 * r + 1) * (r + 1)) as f64
        }
    } else if matches!(kernel, "seed" | "scalar" | "avx2+fma" | "avx512") {
        taps
    } else {
        return None;
    };
    Some((loads, flops / loads))
}

/// The ld/elem + ai suffix for a case key, or "" when no model applies.
fn annotate(key: &str) -> String {
    let stencil = key.split('/').next().unwrap_or("");
    let kernel = key.rsplit('/').next().unwrap_or("");
    match intensity(stencil, kernel) {
        Some((loads, ai)) => format!("  [{loads:.1} ld/elem, ai {ai:.2}]"),
        None => String::new(),
    }
}

fn main() {
    const USAGE: &str =
        "usage: bench_diff OLD.json NEW.json [--threshold=0.90] [--fail-on-regression]";
    let mut paths = Vec::new();
    let mut threshold = 0.90f64;
    let mut fail_on_regression = false;
    for arg in std::env::args().skip(1) {
        if let Some(t) = arg.strip_prefix("--threshold=") {
            let bad = || {
                fail(
                    1,
                    format!("bad --threshold '{t}' (want 0 < T <= 1); {USAGE}"),
                )
            };
            threshold = parse_threshold(t).unwrap_or_else(bad);
        } else if arg == "--fail-on-regression" {
            fail_on_regression = true;
        } else if arg.starts_with("--") {
            fail(1, format!("unknown flag '{arg}'"));
        } else {
            paths.push(arg);
        }
    }
    if paths.len() != 2 {
        fail(1, USAGE.into());
    }
    let (old_art, new_art) = (load(&paths[0]), load(&paths[1]));
    for notice in group_notices(&old_art.groups, &new_art.groups) {
        outln!("{notice}");
    }
    let (old, new) = (old_art.cases, new_art.cases);

    let mut regressions = 0usize;
    let mut compared = 0usize;
    for (key, &old_s) in &old {
        let Some(&new_s) = new.get(key) else {
            outln!("removed    {key} (old {old_s:.4}s){}", annotate(key));
            continue;
        };
        compared += 1;
        let ratio = old_s / new_s;
        let mark = if ratio < threshold {
            regressions += 1;
            "REGRESSED"
        } else if ratio > 1.0 / threshold {
            "improved "
        } else {
            "ok       "
        };
        outln!(
            "{mark}  {key}: {ratio:.2}x (old {old_s:.4}s -> new {new_s:.4}s){}",
            annotate(key)
        );
    }
    for (key, &new_s) in &new {
        if !old.contains_key(key) {
            outln!("added      {key} (new {new_s:.4}s){}", annotate(key));
        }
    }
    // Per-thread-count scaling: fold each artifact's cases into
    // (stencil/size/sweeps/kernel) -> threads -> median and report the
    // t-vs-t1 ratio curves side by side. `curves` keys look like
    // "star2d5p/4096/s1/{t}/avx2+fma" with the thread segment abstracted
    // out.
    let curves = |cases: &BTreeMap<String, f64>| -> BTreeMap<String, BTreeMap<u64, f64>> {
        let mut out: BTreeMap<String, BTreeMap<u64, f64>> = BTreeMap::new();
        for (key, &median) in cases {
            let parts: Vec<&str> = key.split('/').collect();
            // stencil/size/sweeps/threads/kernel — skip anything else.
            let [stencil, size, sweeps, threads, kernel] = parts[..] else {
                continue;
            };
            let Some(t) = threads
                .strip_prefix('t')
                .and_then(|t| t.parse::<f64>().ok())
            else {
                continue;
            };
            let base = format!("{stencil}/{size}/{sweeps}/{{t}}/{kernel}");
            out.entry(base).or_default().insert(t as u64, median);
        }
        out.retain(|_, by_t| by_t.len() > 1 && by_t.contains_key(&1));
        out
    };
    let (old_curves, new_curves) = (curves(&old), curves(&new));
    let mut bases: Vec<&String> = old_curves.keys().chain(new_curves.keys()).collect();
    bases.sort();
    bases.dedup();
    if !bases.is_empty() {
        outln!("--- scaling (t-vs-t1 wall-clock ratio; higher is better) ---");
    }
    for base in bases {
        let render = |c: Option<&BTreeMap<u64, f64>>| -> String {
            let Some(by_t) = c else {
                return "absent".to_string();
            };
            let one = by_t[&1];
            by_t.iter()
                .filter(|(t, _)| **t > 1)
                .map(|(t, m)| format!("t{t} {:.2}x", one / m))
                .collect::<Vec<_>>()
                .join(", ")
        };
        outln!(
            "scaling    {base}: old [{}] -> new [{}]",
            render(old_curves.get(base)),
            render(new_curves.get(base))
        );
    }
    outln!(
        "bench_diff: {compared} cases compared, {regressions} below the {threshold:.2} threshold"
    );
    if fail_on_regression && regressions > 0 {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_tap_load_kernels_load_every_tap() {
        assert_eq!(intensity("star2d5p", "avx2+fma"), Some((5.0, 2.0)));
        assert_eq!(intensity("star2d13p", "seed"), Some((13.0, 2.0)));
        assert_eq!(intensity("box2d9p", "scalar"), Some((9.0, 2.0)));
        assert_eq!(intensity("box2d25p", "avx512"), Some((25.0, 2.0)));
        assert_eq!(intensity("heat3d", "avx512"), Some((7.0, 2.0)));
    }

    #[test]
    fn reuse_family_loads_each_row_vector_once() {
        // Star r=1: center row costs r+1 = 2 element loads per output,
        // each of the 2r vertical rows costs 1 -> 3r+1 = 4 (vs 5 taps).
        assert_eq!(intensity("star2d5p", "avx2+reuse"), Some((4.0, 2.5)));
        assert_eq!(intensity("star2d5p", "avx512+reuse"), Some((4.0, 2.5)));
        assert_eq!(intensity("star2d5p", "hybrid8x8"), Some((4.0, 2.5)));
        // Star r=3: 3r+1 = 10 loads against 13 taps (26 flops).
        assert_eq!(intensity("star2d13p", "avx2+reuse"), Some((10.0, 2.6)));
        // Box r=1: every row has horizontal taps -> (2r+1)(r+1) = 6
        // loads against 9 taps (18 flops).
        assert_eq!(intensity("box2d9p", "avx2+reuse"), Some((6.0, 3.0)));
    }

    #[test]
    fn rows_without_a_static_model_get_no_column() {
        // Multi-sweep executors: traffic depends on tile geometry.
        assert!(intensity("star2d5p", "naive").is_none());
        assert!(intensity("star2d5p", "temporal3").is_none());
        // No 3-D shift-synthesis path exists (narrow_3d re-dispatches).
        assert!(intensity("heat3d", "hybrid8x8").is_none());
        assert!(intensity("heat3d", "avx2+reuse").is_none());
        // Names outside the preset scheme, or with an inconsistent
        // point count, drop the column rather than guessing.
        assert!(intensity("mystencil", "avx2+fma").is_none());
        assert!(intensity("star2d6p", "avx2+fma").is_none());
    }

    #[test]
    fn groups_in_only_one_artifact_are_announced_not_silently_skipped() {
        let set =
            |names: &[&str]| -> BTreeSet<String> { names.iter().map(|s| s.to_string()).collect() };
        let old = set(&["native2d", "native2d_sweeps"]);
        let new = set(&["native2d", "native2d_sweeps", "native2d_tempvec"]);
        assert_eq!(
            group_notices(&old, &new),
            vec!["group only in new: native2d_tempvec".to_string()]
        );
        // Both directions, old-side first, sorted within each side.
        let old = set(&["native2d", "native2d_reuse", "native3d"]);
        let new = set(&["native2d", "native2d_f32"]);
        assert_eq!(
            group_notices(&old, &new),
            vec![
                "group only in old: native2d_reuse".to_string(),
                "group only in old: native3d".to_string(),
                "group only in new: native2d_f32".to_string(),
            ]
        );
        // Identical sets — including both-empty (two pre-group-field
        // artifacts) — produce no notices at all.
        assert!(group_notices(&old, &old).is_empty());
        assert!(group_notices(&set(&[]), &set(&[])).is_empty());
    }

    #[test]
    fn threshold_accepts_only_a_finite_ratio_in_zero_to_one() {
        assert_eq!(parse_threshold("0.90"), Some(0.9));
        assert_eq!(parse_threshold("1"), Some(1.0));
        for bad in ["nan", "NaN", "0", "-0.5", "inf", "1.5", "", "x"] {
            assert_eq!(parse_threshold(bad), None, "{bad}");
        }
    }

    #[test]
    fn annotate_extracts_stencil_and_kernel_from_the_case_key() {
        assert_eq!(
            annotate("star2d5p/256/s1/t1/avx2+reuse"),
            "  [4.0 ld/elem, ai 2.50]"
        );
        // Dtype-segmented keys still end with the kernel label.
        assert_eq!(
            annotate("star2d5p/256/f32/s1/t1/avx2+fma"),
            "  [5.0 ld/elem, ai 2.00]"
        );
        assert_eq!(annotate("star2d5p/256/s5/t1/naive"), "");
    }
}
