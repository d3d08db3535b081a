//! A `std::time` micro-benchmark harness (the workspace's `criterion`
//! replacement) for `harness = false` bench targets.
//!
//! Each benchmark runs `warmup` untimed iterations followed by
//! `sample_size` timed iterations and reports median / p10 / p90 wall
//! time plus derived element throughput:
//!
//! ```text
//! engine/compute_mix_10k        median 1.234 ms  p10 1.198 ms  p90 1.402 ms  (8.1 Melem/s)
//! ```
//!
//! A substring filter can be passed on the command line (as `cargo bench
//! -- <filter>` does) to run a subset of benchmarks.

use crate::outln;
use std::time::Instant;

/// Summary statistics over one benchmark's timed samples (seconds).
#[derive(Clone, Copy, Debug)]
pub struct Summary {
    /// Median sample.
    pub median: f64,
    /// 10th percentile.
    pub p10: f64,
    /// 90th percentile.
    pub p90: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Number of timed samples.
    pub samples: usize,
}

impl Summary {
    /// Computes a summary from raw samples (need not be sorted).
    pub fn from_samples(samples: &[f64]) -> Summary {
        assert!(!samples.is_empty());
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let pick = |p: f64| sorted[((sorted.len() - 1) as f64 * p).round() as usize];
        Summary {
            median: pick(0.5),
            p10: pick(0.1),
            p90: pick(0.9),
            mean: sorted.iter().sum::<f64>() / sorted.len() as f64,
            samples: sorted.len(),
        }
    }
}

/// Top-level harness: owns the CLI filter and runs groups.
pub struct Harness {
    filter: Option<String>,
}

impl Harness {
    /// Harness with the filter taken from the process arguments
    /// (first argument that is not a `--flag`).
    pub fn from_args() -> Harness {
        let filter = std::env::args()
            .skip(1)
            .find(|a| !a.starts_with('-') && !a.is_empty());
        Harness { filter }
    }

    /// Starts a named group of related benchmarks.
    pub fn group(&self, name: &str) -> BenchGroup<'_> {
        BenchGroup {
            harness: self,
            name: name.to_string(),
            warmup: 3,
            sample_size: 10,
            throughput_elems: None,
        }
    }

    fn selected(&self, id: &str) -> bool {
        match &self.filter {
            Some(f) => id.contains(f.as_str()),
            None => true,
        }
    }
}

/// A group of benchmarks sharing warmup/sample/throughput settings.
pub struct BenchGroup<'a> {
    harness: &'a Harness,
    name: String,
    warmup: usize,
    sample_size: usize,
    throughput_elems: Option<u64>,
}

impl BenchGroup<'_> {
    /// Sets the number of timed samples (default 10).
    pub fn sample_size(mut self, n: usize) -> Self {
        assert!(n > 0);
        self.sample_size = n;
        self
    }

    /// Sets the number of untimed warmup iterations (default 3).
    pub fn warmup(mut self, n: usize) -> Self {
        self.warmup = n;
        self
    }

    /// Declares elements processed per iteration, enabling a
    /// `elem/s` column.
    pub fn throughput_elems(mut self, n: u64) -> Self {
        self.throughput_elems = Some(n);
        self
    }

    /// Runs one benchmark and prints its summary line. The closure's
    /// return value is passed through `std::hint::black_box` so the
    /// compiler cannot elide the work.
    pub fn bench<R>(&self, id: &str, mut f: impl FnMut() -> R) -> Option<Summary> {
        let full = format!("{}/{id}", self.name);
        if !self.harness.selected(&full) {
            return None;
        }
        for _ in 0..self.warmup {
            std::hint::black_box(f());
        }
        let mut samples = Vec::with_capacity(self.sample_size);
        for _ in 0..self.sample_size {
            let t0 = Instant::now();
            std::hint::black_box(f());
            samples.push(t0.elapsed().as_secs_f64());
        }
        let s = Summary::from_samples(&samples);
        let tput = match self.throughput_elems {
            Some(n) if s.median > 0.0 => format!("  ({}/s)", si(n as f64 / s.median)),
            _ => String::new(),
        };
        outln!(
            "{full:<40} median {}  p10 {}  p90 {}{tput}",
            time(s.median),
            time(s.p10),
            time(s.p90),
        );
        Some(s)
    }
}

/// Human time formatting (s / ms / µs / ns).
fn time(secs: f64) -> String {
    if secs >= 1.0 {
        format!("{secs:.3} s")
    } else if secs >= 1e-3 {
        format!("{:.3} ms", secs * 1e3)
    } else if secs >= 1e-6 {
        format!("{:.3} µs", secs * 1e6)
    } else {
        format!("{:.1} ns", secs * 1e9)
    }
}

/// SI-prefixed rate formatting.
fn si(rate: f64) -> String {
    if rate >= 1e9 {
        format!("{:.2} Gelem", rate / 1e9)
    } else if rate >= 1e6 {
        format!("{:.2} Melem", rate / 1e6)
    } else if rate >= 1e3 {
        format!("{:.2} kelem", rate / 1e3)
    } else {
        format!("{rate:.0} elem")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_percentiles() {
        let samples: Vec<f64> = (1..=11).map(|i| i as f64).collect();
        let s = Summary::from_samples(&samples);
        assert_eq!(s.median, 6.0);
        assert_eq!(s.p10, 2.0);
        assert_eq!(s.p90, 10.0);
        assert_eq!(s.samples, 11);
        assert!((s.mean - 6.0).abs() < 1e-12);
    }

    #[test]
    fn bench_runs_requested_iterations() {
        let h = Harness { filter: None };
        let count = std::cell::Cell::new(0usize);
        let s = h
            .group("g")
            .warmup(2)
            .sample_size(5)
            .bench("b", || count.set(count.get() + 1))
            .expect("selected");
        assert_eq!(count.get(), 7); // 2 warmup + 5 timed
        assert_eq!(s.samples, 5);
    }

    #[test]
    fn filter_skips_unmatched_benchmarks() {
        let h = Harness {
            filter: Some("other".into()),
        };
        let ran = std::cell::Cell::new(false);
        let s = h.group("g").bench("b", || ran.set(true));
        assert!(s.is_none());
        assert!(!ran.get());
    }

    #[test]
    fn time_formatting_picks_sane_units() {
        assert_eq!(time(2.5), "2.500 s");
        assert_eq!(time(2.5e-3), "2.500 ms");
        assert_eq!(time(2.5e-6), "2.500 µs");
        assert_eq!(time(2.5e-9), "2.5 ns");
    }
}
