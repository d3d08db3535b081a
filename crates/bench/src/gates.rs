//! Bench gates as data: the bench artifacts' row parser, the committed
//! gate table (`crates/bench/gates.txt`) and the one evaluator that
//! reads it (DESIGN.md §16).
//!
//! `check_bench_json` judges an artifact against every entry bounded for
//! the artifact's own tier; `benches/native.rs` records every ratio
//! entry's reading as a `speedup_<name>` field; `bench_diff` loads rows
//! through [`rows`]. All parsers here return an error on malformed input
//! and never panic.

use hstencil_testkit::Json;

/// The committed gate table, `crates/bench/gates.txt`.
pub fn table() -> Vec<Entry> {
    parse_table(include_str!("../gates.txt")).expect("the embedded gates.txt parses (unit-tested)")
}

/// One row of a native bench artifact's `results` array.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    /// Bench group; `None` for rows recorded before the field existed.
    pub group: Option<String>,
    pub stencil: String,
    pub size: u64,
    pub sweeps: u64,
    pub threads: u64,
    pub kernel: String,
    /// Element type; rows recorded before the dtype axis are `f64`.
    pub dtype: String,
    /// Median wall clock in seconds, finite and positive.
    pub median_s: f64,
}

fn uint(doc: &Json, key: &str) -> Result<u64, String> {
    match doc.get(key).and_then(Json::as_f64) {
        Some(v) if v >= 0.0 && v.fract() == 0.0 && v < 9.0e15 => Ok(v as u64),
        _ => Err(format!("lacks a non-negative integer '{key}'")),
    }
}

fn text(doc: &Json, key: &str) -> Result<String, String> {
    match doc.get(key).and_then(Json::as_str) {
        Some(s) => Ok(s.to_string()),
        None => Err(format!("lacks string '{key}'")),
    }
}

fn positive(doc: &Json, key: &str) -> Result<f64, String> {
    match doc.get(key).and_then(Json::as_f64) {
        Some(v) if v > 0.0 && v.is_finite() => Ok(v),
        _ => Err(format!("lacks positive '{key}'")),
    }
}

impl Row {
    /// Parses one `results` element. Every timing field must be
    /// positive, though the gates read only the median.
    pub(crate) fn from_json(row: &Json) -> Result<Row, String> {
        let opt = |key| row.get(key).map(|_| text(row, key)).transpose();
        for key in ["p10_s", "p90_s", "elems_per_s"] {
            positive(row, key)?;
        }
        let row = Row {
            group: opt("group")?,
            stencil: text(row, "stencil")?,
            size: uint(row, "size")?,
            sweeps: uint(row, "sweeps")?,
            threads: uint(row, "threads")?,
            kernel: text(row, "kernel")?,
            dtype: opt("dtype")?.unwrap_or_else(|| "f64".to_string()),
            median_s: positive(row, "median_s")?,
        };
        if row.sweeps == 0 {
            return Err(format!("({}) lacks positive 'sweeps'", row.stencil));
        }
        Ok(row)
    }
}

/// Every row of a native artifact, errors naming the failing index.
pub fn rows(doc: &Json) -> Result<Vec<Row>, String> {
    let results = doc
        .get("results")
        .and_then(Json::as_array)
        .ok_or("'results' is not an array")?;
    results
        .iter()
        .enumerate()
        .map(|(i, r)| Row::from_json(r).map_err(|e| format!("results[{i}] {e}")))
        .collect()
}

/// One serve scenario's `(name, p99_ms)`. Job accounting must balance
/// (a serve run that failed jobs is broken however fast it was) and the
/// latency order statistics must be finite and ordered.
fn scenario(s: &Json) -> Result<(String, f64), String> {
    let name = text(s, "scenario")?;
    let num = |key: &str| match s.get(key).and_then(Json::as_f64) {
        Some(v) if v.is_finite() && v >= 0.0 => Ok(v),
        _ => Err(format!("({name}) lacks finite non-negative '{key}'")),
    };
    for key in [
        "jobs",
        "submitted",
        "rejected",
        "batches",
        "batched_jobs",
        "mean_ms",
        "wall_s",
        "jobs_per_s",
    ] {
        num(key)?;
    }
    if num("completed")? < 1.0 {
        return Err(format!("({name}) completed no jobs"));
    }
    if num("failed")? != 0.0 {
        return Err(format!(
            "({name}) recorded failed jobs — a latency number over a failing server attests nothing"
        ));
    }
    let [p50, p90, p99, max] = ["p50_ms", "p90_ms", "p99_ms", "max_ms"].map(num);
    let (p50, p90, p99, max) = (p50?, p90?, p99?, max?);
    if !(p50 <= p90 && p90 <= p99 && p99 <= max) {
        return Err(format!(
            "({name}) latency percentiles out of order (p50 {p50}, p90 {p90}, p99 {p99}, max {max})"
        ));
    }
    Ok((name, p99))
}

/// What the gates read from one artifact.
#[derive(Clone, Debug)]
pub struct Artifact {
    /// The tier: smoke artifacts are held to the smoke bounds.
    pub smoke: bool,
    host_threads: u64,
    dispatch: Option<String>,
    /// Groups the recording host could not run (ISA-gated).
    skipped_groups: Vec<String>,
    serve: bool,
    rows: Vec<Row>,
    /// `(scenario, p99_ms)` of a serve artifact.
    scenarios: Vec<(String, f64)>,
}

impl Artifact {
    /// Reads and schema-checks a `native_executor_v2` artifact (at least
    /// six distinct stencil/size/sweeps/threads configurations) or a
    /// `serve_load_gen` one (at least one scenario).
    pub fn from_json(doc: &Json) -> Result<Artifact, String> {
        let serve = match doc.get("bench").and_then(Json::as_str) {
            Some("native_executor_v2") => false,
            Some("serve_load_gen") => true,
            _ => return Err("missing or wrong 'bench' tag".to_string()),
        };
        let Some(&Json::Bool(smoke)) = doc.get("smoke") else {
            return Err("lacks boolean 'smoke' (the tier its gates read)".to_string());
        };
        let skipped_groups = match doc.get("skipped_groups") {
            None => Vec::new(),
            Some(list) => list
                .as_array()
                .and_then(|gs| gs.iter().map(|g| g.as_str().map(str::to_string)).collect())
                .ok_or("'skipped_groups' is not an array of strings")?,
        };
        let (rows, scenarios) = if serve {
            let list = match doc.get("scenarios").and_then(Json::as_array) {
                Some(list) if !list.is_empty() => list,
                _ => return Err("'scenarios' is missing or empty".to_string()),
            };
            let scenarios = list
                .iter()
                .enumerate()
                .map(|(i, s)| scenario(s).map_err(|e| format!("scenarios[{i}] {e}")));
            (Vec::new(), scenarios.collect::<Result<_, _>>()?)
        } else {
            let rows = rows(doc)?;
            let configs: std::collections::BTreeSet<_> = rows
                .iter()
                .map(|r| (&r.stencil, r.size, r.sweeps, r.threads))
                .collect();
            if configs.len() < 6 {
                return Err(format!(
                    "only {} distinct (stencil, size, sweeps, threads) configurations; need >= 6",
                    configs.len()
                ));
            }
            (rows, Vec::new())
        };
        Ok(Artifact {
            smoke,
            host_threads: uint(doc, "host_threads")?,
            dispatch: text(doc, "dispatch").ok(),
            skipped_groups,
            serve,
            rows,
            scenarios,
        })
    }
}

/// A row filter: `group/stencil/size/sweeps/threads/dtype/kernel`.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct Selector {
    text: String,
    group: Option<String>,
    stencil: Option<String>,
    size: Option<u64>,
    sweeps: Option<u64>,
    threads: Option<u64>,
    dtype: Option<String>,
    /// Kernels a row may have (empty: any), then kernels it may not.
    kernels: Vec<String>,
    excluded: Vec<String>,
}

impl Selector {
    /// Parses one selector; `*` in any field matches every row.
    pub(crate) fn parse<'a>(text: &'a str) -> Result<Selector, String> {
        let fields: Vec<&str> = text.split('/').collect();
        let [group, stencil, size, sweeps, threads, dtype, kernel] = fields[..] else {
            return Err(format!(
                "selector '{text}': want group/stencil/size/sweeps/threads/dtype/kernel"
            ));
        };
        let any = |f: &'a str| (f != "*").then_some(f);
        let name = |f: &'a str| match any(f) {
            Some(n) if n.is_empty() || n.contains([' ', ',', '!']) => {
                Err(format!("selector '{text}': bad name '{n}'"))
            }
            n => Ok(n.map(str::to_string)),
        };
        let num = |f: &'a str| {
            let n = any(f).map(str::parse::<u64>).transpose();
            n.map_err(|_| format!("selector '{text}': '{f}' is not a count or '*'"))
        };
        let (mut kernels, mut excluded) = (Vec::new(), Vec::new());
        if kernel != "*" {
            for term in kernel.split(',') {
                let (list, k) = match term.strip_prefix('!') {
                    Some(k) => (&mut excluded, k),
                    None => (&mut kernels, term),
                };
                let no_star = || format!("selector '{text}': '*' inside a kernel list");
                list.push(name(k)?.ok_or_else(no_star)?);
            }
        }
        Ok(Selector {
            text: text.to_string(),
            group: name(group)?,
            stencil: name(stencil)?,
            size: num(size)?,
            sweeps: num(sweeps)?,
            threads: num(threads)?,
            dtype: name(dtype)?,
            kernels,
            excluded,
        })
    }

    fn matches(&self, row: &Row, dispatch: Option<&str>) -> bool {
        let is = |k: &String| match k.as_str() {
            "@dispatch" => dispatch == Some(row.kernel.as_str()),
            k => k == row.kernel,
        };
        self.group
            .as_ref()
            .is_none_or(|g| row.group.as_ref() == Some(g))
            && self.stencil.as_ref().is_none_or(|s| *s == row.stencil)
            && self.size.is_none_or(|n| n == row.size)
            && self.sweeps.is_none_or(|n| n == row.sweeps)
            && self.threads.is_none_or(|n| n == row.threads)
            && self.dtype.as_ref().is_none_or(|d| *d == row.dtype)
            && (self.kernels.is_empty() || self.kernels.iter().any(is))
            && !self.excluded.iter().any(is)
    }

    /// The minimum median over the matching rows.
    fn read(&self, art: &Artifact) -> Result<f64, String> {
        art.rows
            .iter()
            .filter(|r| self.matches(r, art.dispatch.as_deref()))
            .map(|r| r.median_s)
            .min_by(f64::total_cmp)
            .ok_or_else(|| format!("no row matches {}", self.text))
    }
}

/// A gate bound: the reading must be `>=` or `<=` `limit`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Bound {
    op: &'static str,
    limit: f64,
}

impl Bound {
    fn holds(&self, v: f64) -> bool {
        if self.op == "<=" {
            v <= self.limit
        } else {
            v >= self.limit
        }
    }

    fn parse(text: &str) -> Result<Option<Bound>, String> {
        if text == "-" {
            return Ok(None);
        }
        let op = [">=", "<="].into_iter().find(|op| text.starts_with(op));
        match (op, text.get(2..).and_then(|v| v.parse::<f64>().ok())) {
            (Some(op), Some(limit)) if limit.is_finite() && limit > 0.0 => {
                Ok(Some(Bound { op, limit }))
            }
            _ => Err(format!(
                "bound '{text}': want >=X or <=X, X finite and positive, or -"
            )),
        }
    }
}

impl std::fmt::Display for Bound {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} {}", self.op, self.limit)
    }
}

#[derive(Clone, Debug, PartialEq)]
enum Quantity {
    /// Numerator reading ÷ denominator reading over native rows.
    Ratio(Box<[Selector; 2]>),
    /// The worst scenario p99 of a serve artifact.
    WorstP99,
}

/// One line of the gate table.
#[derive(Clone, Debug, PartialEq)]
pub struct Entry {
    pub name: String,
    quantity: Quantity,
    smoke: Option<Bound>,
    baseline: Option<Bound>,
}

/// The verdict of one bounded entry on one artifact.
#[derive(Clone, Debug, PartialEq)]
pub enum Outcome {
    /// The reading met the bound.
    Ok(f64, Bound),
    /// The recording host could not run a side; the notice says why.
    Skipped(String),
    /// A side is missing or the reading broke the bound.
    Fail(String),
}

impl Entry {
    /// Parses one `name | num | den | smoke | baseline | history` line.
    pub(crate) fn parse(line: &str) -> Result<Entry, String> {
        let cols: Vec<&str> = line.splitn(6, '|').map(str::trim).collect();
        let [name, num, den, smoke, baseline, _history] = cols[..] else {
            return Err("want name | numerator | denominator | smoke | baseline | history".into());
        };
        if name.is_empty() || !name.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'_') {
            return Err(format!("entry name '{name}' is not [A-Za-z0-9_]+"));
        }
        let quantity = match (num, den) {
            ("max(p99_ms)", "-") => Quantity::WorstP99,
            ("max(p99_ms)", _) => return Err("max(p99_ms) takes '-' as its denominator".into()),
            _ => Quantity::Ratio(Box::new([Selector::parse(num)?, Selector::parse(den)?])),
        };
        Ok(Entry {
            name: name.to_string(),
            quantity,
            smoke: Bound::parse(smoke)?,
            baseline: Bound::parse(baseline)?,
        })
    }

    /// True when the entry reads this kind of artifact.
    pub fn applies_to(&self, art: &Artifact) -> bool {
        (self.quantity == Quantity::WorstP99) == art.serve
    }

    /// The entry's value on `art`, or why a side is missing.
    pub fn reading(&self, art: &Artifact) -> Result<f64, String> {
        match &self.quantity {
            Quantity::Ratio(sides) => Ok(sides[0].read(art)? / sides[1].read(art)?),
            Quantity::WorstP99 => art
                .scenarios
                .iter()
                .map(|s| s.1)
                .max_by(f64::total_cmp)
                .ok_or_else(|| "max(p99_ms) over zero scenarios proves nothing".to_string()),
        }
    }

    /// Why the recording host could not have run a side, if it could not.
    fn skip_reason(&self, art: &Artifact) -> Option<String> {
        let Quantity::Ratio(sides) = &self.quantity else {
            return None;
        };
        sides.iter().find_map(|sel| match (&sel.group, sel.threads) {
            (Some(g), _) if art.skipped_groups.contains(g) => Some(format!(
                "group {g} is in the artifact's skipped_groups (its ISA is absent on the recording host)"
            )),
            (_, Some(t)) if t > art.host_threads => Some(format!(
                "{} asks for {t} threads; the artifact's host_threads is {}",
                sel.text, art.host_threads
            )),
            _ => None,
        })
    }

    /// Judges the entry on `art` at its tier; `None` when the entry does
    /// not apply to the artifact's kind or is unbounded in its tier.
    pub fn judge(&self, art: &Artifact) -> Option<Outcome> {
        let bound = if art.smoke { self.smoke } else { self.baseline }?;
        if !self.applies_to(art) {
            return None;
        }
        if let Some(why) = self.skip_reason(art) {
            return Some(Outcome::Skipped(why));
        }
        Some(match self.reading(art) {
            Err(why) => Outcome::Fail(why),
            Ok(v) if bound.holds(v) => Outcome::Ok(v, bound),
            Ok(v) => Outcome::Fail(format!("reads {v:.3}, outside the {bound} bound")),
        })
    }
}

/// Parses a whole table, rejecting duplicate names.
pub(crate) fn parse_table(text: &str) -> Result<Vec<Entry>, String> {
    let mut entries: Vec<Entry> = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let at = format!("gates.txt:{}", i + 1);
        let entry = Entry::parse(line).map_err(|e| format!("{at}: {e}"))?;
        if entries.iter().any(|e| e.name == entry.name) {
            return Err(format!("{at}: duplicate entry '{}'", entry.name));
        }
        entries.push(entry);
    }
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hstencil_testkit::prop::{self, any_u8, range, vec_of, Config};

    type Spec<'a> = (&'a str, u64, u64, u64, &'a str, &'a str, f64);

    /// A native artifact over star2d5p rows `(group, size, sweeps,
    /// threads, kernel, dtype, median_s)` on a 4-thread host.
    fn native(rows: &[Spec]) -> Artifact {
        let row = |&(g, size, sweeps, threads, k, d, median_s): &Spec| Row {
            group: Some(g.into()),
            stencil: "star2d5p".into(),
            size,
            sweeps,
            threads,
            kernel: k.into(),
            dtype: d.into(),
            median_s,
        };
        Artifact {
            smoke: false,
            host_threads: 4,
            dispatch: Some("avx2+fma".into()),
            skipped_groups: Vec::new(),
            serve: false,
            rows: rows.iter().map(row).collect(),
            scenarios: Vec::new(),
        }
    }

    fn serve(p99s: &[f64]) -> Artifact {
        let scenarios = p99s.iter().map(|&p| ("s".to_string(), p)).collect();
        Artifact {
            serve: true,
            scenarios,
            ..native(&[])
        }
    }

    fn entry(num: &str, den: &str, bound: &str) -> Entry {
        Entry::parse(&format!("e | {num} | {den} | - | {bound} | test")).unwrap()
    }

    fn named(name: &str) -> Entry {
        table().into_iter().find(|e| e.name == name).unwrap()
    }

    fn verdict(entry: &Entry, art: &Artifact) -> String {
        match entry.judge(art) {
            None => "unjudged".to_string(),
            Some(Outcome::Ok(v, bound)) => format!("ok {v:.2} {bound}"),
            Some(Outcome::Skipped(why)) => format!("skip: {why}"),
            Some(Outcome::Fail(why)) => format!("fail: {why}"),
        }
    }

    fn committed(file: &str) -> String {
        std::fs::read_to_string(format!("{}/../../{file}", env!("CARGO_MANIFEST_DIR"))).unwrap()
    }

    fn load(file: &str) -> Artifact {
        Artifact::from_json(&Json::parse(&committed(file)).unwrap()).unwrap()
    }

    #[test]
    fn selectors_read_the_minimum_over_their_exact_point() {
        let art = native(&[
            ("a", 256, 1, 1, "avx2+fma", "f64", 4.0),
            ("b", 256, 1, 1, "avx2+fma", "f64", 3.0),
            ("a", 256, 1, 1, "seed", "f64", 0.5),
            ("a", 256, 1, 1, "hybrid8x8", "f64", 6.0),
            ("b", 256, 1, 1, "avx512", "f32", 2.0),
            ("a", 512, 1, 1, "avx512", "f64", 0.1),
            ("a", 256, 8, 1, "avx512", "f64", 0.1),
            ("a", 256, 1, 2, "avx512", "f64", 0.1),
        ]);
        let read = |k: &str| Selector::parse(&format!("*/star2d5p/256/1/1/f64/{k}"))?.read(&art);
        assert_eq!(read("*"), Ok(0.5));
        assert_eq!(read("avx2+fma"), Ok(3.0), "min over duplicate rows");
        assert_eq!(read("!seed"), Ok(3.0));
        assert_eq!(read("!seed,!avx2+fma"), Ok(6.0));
        assert_eq!(read("hybrid8x8,seed"), Ok(0.5));
        assert_eq!(read("@dispatch"), Ok(3.0));
        assert!(read("avx512").unwrap_err().contains("no row matches"));
    }

    #[test]
    fn a_reading_equal_to_the_bound_passes_and_one_past_it_fails() {
        let art = native(&[
            ("g", 1, 1, 1, "a", "f64", 2.0),
            ("g", 1, 1, 1, "b", "f64", 1.0),
        ]);
        let ratio = |bound| verdict(&entry("*/*/*/*/*/*/a", "*/*/*/*/*/*/b", bound), &art);
        assert_eq!(ratio(">=2"), "ok 2.00 >= 2");
        assert_eq!(
            ratio(">=2.01"),
            "fail: reads 2.000, outside the >= 2.01 bound"
        );
        let worst = named("serve_p99_ms");
        assert_eq!(verdict(&worst, &serve(&[4.2, 250.0])), "ok 250.00 <= 250");
        assert!(verdict(&worst, &serve(&[250.5, 4.2])).starts_with("fail: reads 250.500"));
        let zero = verdict(&worst, &serve(&[]));
        assert_eq!(zero, "fail: max(p99_ms) over zero scenarios proves nothing");
        // Entries judge only their own artifact kind, and only when
        // bounded in the artifact's tier.
        assert_eq!(verdict(&worst, &native(&[])), "unjudged");
        let smoke = Artifact {
            smoke: true,
            ..native(&[])
        };
        assert_eq!(
            verdict(&named("tempvec_star2d5p_4096_s8_t1"), &smoke),
            "unjudged"
        );
    }

    #[test]
    fn t2_and_t4_rows_listed_before_t1_leave_the_temporal_reading_unchanged() {
        let t1: [Spec; 2] = [
            ("native2d_sweeps", 4096, 8, 1, "naive", "f64", 0.36),
            ("native2d_sweeps", 4096, 8, 1, "temporal", "f64", 0.30),
        ];
        let scaling: [Spec; 2] = [
            ("native_scaling_sweeps", 4096, 8, 2, "naive", "f64", 0.50),
            ("native_scaling_sweeps", 4096, 8, 4, "temporal", "f64", 0.20),
        ];
        let temporal = named("temporal_star2d5p_4096_s8");
        let read = |rows: Vec<Spec>| temporal.reading(&native(&rows)).unwrap();
        assert!((read([t1, scaling].concat()) - 1.2).abs() < 1e-12);
        assert_eq!(read([scaling, t1].concat()), read([t1, scaling].concat()));
    }

    #[test]
    fn each_skip_cause_names_its_reason_and_any_other_gap_fails() {
        let mut art = native(&[
            ("native2d_sweeps", 4096, 8, 1, "temporal", "f64", 0.3),
            ("native_scaling", 4096, 1, 1, "avx2+fma", "f64", 0.03),
            ("native_scaling", 4096, 1, 4, "avx2+fma", "f64", 0.01),
        ]);
        art.host_threads = 2;
        art.skipped_groups = vec!["native2d_tempvec".into()];
        let tempvec = named("tempvec_star2d5p_4096_s8_t1");
        let threads = named("threads_star2d5p_4096_t4");
        let f32 = named("f32_star2d5p_256_t1");
        assert!(verdict(&tempvec, &art)
            .starts_with("skip: group native2d_tempvec is in the artifact's skipped_groups"));
        assert!(verdict(&threads, &art)
            .ends_with("asks for 4 threads; the artifact's host_threads is 2"));
        // f32 rows are always recorded, so their absence fails.
        assert!(
            verdict(&f32, &art).starts_with("fail: no row matches */star2d5p/256/1/1/f64/!seed")
        );
        // The same gaps without a recorded cause fail.
        art.host_threads = 4;
        art.skipped_groups.clear();
        assert_eq!(verdict(&threads, &art), "ok 3.00 >= 1.6");
        assert!(verdict(&tempvec, &art).starts_with("fail: no row matches native2d_tempvec/"));
    }

    #[test]
    fn schema_errors_in_artifacts_tables_and_selectors_are_reported() {
        let serve =
            committed("BENCH_serve.json").replacen("\"p90_ms\": 0.546532", "\"p90_ms\": 9", 1);
        let err = Artifact::from_json(&Json::parse(&serve).unwrap()).unwrap_err();
        assert!(err.contains("scenarios[0] (mixed_open_loop) latency percentiles out of order"));
        for bad in [
            "*/s/1/1/1/f64",
            "*/s/1/1/1/f64/a/b",
            "*/s/big/1/1/f64/*",
            "*/s/1/1/1/f64/a,*",
        ] {
            assert!(Selector::parse(bad).expect_err(bad).contains(bad));
        }
        let ok = "*/*/*/*/*/*/*";
        for bad in [
            format!("e | {ok} | {ok} | - | -"),
            format!("e f | {ok} | {ok} | - | - | h"),
            format!("e | {ok} | {ok} | 1.3 | >=nan | h"),
            format!("e | max(p99_ms) | {ok} | - | <=250 | h"),
        ] {
            assert!(Entry::parse(&bad).is_err(), "{bad}");
        }
        let dup = format!("e | {ok} | {ok} | - | - | h\ne | {ok} | {ok} | - | - | h");
        assert!(parse_table(&dup)
            .unwrap_err()
            .contains("duplicate entry 'e'"));
    }

    /// Every ratio entry reads rows the committed baseline records and
    /// reproduces its `speedup_*` field; at the bounds the per-gate
    /// flags pinned, the table gives their outcomes in both tiers. The
    /// baselines must record the baseline tier, or they would be held to
    /// the loose smoke bounds. Re-recording a baseline moves the
    /// two-decimal readings below.
    #[test]
    fn golden_the_table_agrees_with_the_gates_it_replaced() {
        let doc = Json::parse(&committed("BENCH_native.json")).unwrap();
        let (mut art, entries) = (Artifact::from_json(&doc).unwrap(), table());
        let mut reproduced = 0;
        for e in entries.iter().filter(|e| e.applies_to(&art)) {
            let got = e.reading(&art).unwrap();
            if let Some(want) = doc
                .get(&format!("speedup_{}", e.name))
                .and_then(Json::as_f64)
            {
                assert!((got - want).abs() < 1e-12, "{}: {got} vs {want}", e.name);
                reproduced += 1;
            }
        }
        assert_eq!(reproduced, 12);
        let verdicts = |art: &Artifact| -> Vec<String> {
            let judged = entries.iter().filter(|e| e.judge(art).is_some());
            judged
                .map(|e| format!("{} {}", e.name, verdict(e, art)))
                .collect()
        };
        let threads = "threads_star2d5p_4096_t4 skip: */star2d5p/4096/1/4/f64/!seed asks for 4 \
                       threads; the artifact's host_threads is 1";
        assert_eq!(
            verdicts(&art),
            [
                "temporal_star2d5p_4096_s8 ok 1.17 >= 1.15",
                "tempvec_star2d5p_4096_s8_t1 ok 1.36 >= 1.05",
                "hybrid_star2d5p_4096_t1 ok 1.22 >= 1.1",
                "f32_star2d5p_256_t1 ok 1.54 >= 1.3",
                "reuse_star2d5p_256_t1 ok 0.74 >= 0.7",
                threads,
            ]
        );
        assert!(!art.smoke);
        art.smoke = true;
        assert_eq!(
            verdicts(&art),
            [
                "temporal_star2d5p_2048_s8 ok 1.08 >= 0.91",
                "tempvec_star2d5p_2048_s8_t1 ok 1.81 >= 0.9",
                "hybrid_star2d5p_4096_t1 ok 1.22 >= 0.4",
                "f32_star2d5p_256_t1 ok 1.54 >= 1",
                "reuse_star2d5p_256_t1 ok 0.74 >= 0.5",
                threads,
            ]
        );
        let mut serve = load("BENCH_serve.json");
        assert!(!serve.smoke);
        assert_eq!(verdicts(&serve), ["serve_p99_ms ok 12.33 <= 250"]);
        serve.smoke = true;
        assert_eq!(verdicts(&serve), ["serve_p99_ms ok 12.33 <= 2000"]);
    }

    /// The text parsers on arbitrary bytes: low bytes map onto table
    /// and JSON syntax so cases reach deep paths; the rest stay raw.
    #[test]
    fn text_parsers_return_a_value_or_an_error_on_arbitrary_bytes() {
        const SYNTAX: &[u8] = b"*/!,|@<>=.0123456789 abfx_(p)m\n#{}[]\":-+eE\\tru";
        let map = |&b: &u8| {
            if b < 128 {
                SYNTAX[b as usize % SYNTAX.len()]
            } else {
                b
            }
        };
        prop::check(
            &Config::with_cases(1024),
            &vec_of(any_u8(), 0..96),
            |bytes| {
                let text = String::from_utf8_lossy(&bytes.iter().map(map).collect::<Vec<_>>())
                    .into_owned();
                let _ = (
                    Selector::parse(&text),
                    Entry::parse(&text),
                    parse_table(&text),
                );
                let _ = Json::parse(&text);
                Ok(())
            },
        );
    }

    /// Row and artifact parsing on the committed baseline's first row
    /// with up to six fields replaced by arbitrary values or deleted.
    #[test]
    fn the_row_parser_returns_a_row_or_an_error_on_any_json() {
        let values = Json::parse(r#"[null, true, -3, 18446744073709551615, 0, 2.5, "f32", []]"#);
        let values = values.unwrap().as_array().unwrap().to_vec();
        let doc = Json::parse(&committed("BENCH_native.json")).unwrap();
        let results = doc.get("results").and_then(Json::as_array).unwrap();
        let Json::Obj(base) = results[0].clone() else {
            unreachable!()
        };
        let edits = vec_of((range(0..base.len()), range(0..values.len() + 1)), 0..6);
        prop::check(&Config::with_cases(512), &edits, |edits| {
            let mut row = base.clone();
            for &(k, v) in edits {
                let key = base[k].0.clone();
                row.retain(|(other, _)| *other != key);
                row.extend(values.get(v).map(|v| (key, v.clone())));
            }
            let row = Json::Obj(row);
            if let Ok(r) = Row::from_json(&row) {
                hstencil_testkit::prop_assert!(r.median_s > 0.0 && r.sweeps > 0);
            }
            let doc = Json::object([
                ("bench", Json::Str("native_executor_v2".into())),
                ("smoke", Json::Bool(false)),
                ("host_threads", Json::UInt(1)),
                ("results", Json::array(results.iter().cloned().chain([row]))),
            ]);
            let _ = Artifact::from_json(&doc);
            Ok(())
        });
    }
}
