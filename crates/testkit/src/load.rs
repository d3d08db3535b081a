//! Seeded open-loop load generation and latency order statistics.
//!
//! The serve harness (`crates/serve`) drives its job server from an
//! *arrival schedule*: a pure-data list of `(offset, job class)` pairs
//! derived entirely from a single `u64` seed, so a load test replays
//! bit-for-bit under `TESTKIT_SEED` with no wall-clock randomness.
//! Inter-arrival gaps are exponentially distributed (`-mean·ln(1-u)`, a
//! Poisson arrival process — the standard open-loop model where the
//! generator never waits for completions), and each arrival carries a
//! deterministic per-job seed for grid contents.
//!
//! [`LatencyStats`] complements the [`crate::bench::Summary`] used by the
//! throughput benches with the *exact* order statistics a latency gate
//! needs (p50/p90/p99/max over every completed job, not a sampled
//! median), matching the `serve_p99_ms` gate in `crates/bench/gates.txt`.

use crate::rng::{Rng, SplitMix64, Xoshiro256};

/// Parses `TESTKIT_SEED` (decimal or `0x`-prefixed hex, matching the
/// property harness's replay format) and falls back to `default` when
/// the variable is unset, empty or malformed. Shared by the tuner's
/// measurement grids and the serve load generator so one seed pins every
/// stochastic input in a verify run.
pub fn seed_from_env(default: u64) -> u64 {
    match std::env::var("TESTKIT_SEED") {
        Ok(text) => parse_seed(&text).unwrap_or(default),
        Err(_) => default,
    }
}

/// Decimal or `0x`-hex `u64`, `None` on anything else.
pub fn parse_seed(text: &str) -> Option<u64> {
    let t = text.trim();
    if t.is_empty() {
        return None;
    }
    match t.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => t.parse().ok(),
    }
}

/// One scheduled job arrival. Pure data: the driver decides whether to
/// pace submissions to `at_ns` (wall-clock bench mode) or submit
/// back-to-back in schedule order (deterministic replay mode).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Arrival {
    /// Submission order, `0..jobs`.
    pub seq: u64,
    /// Nanosecond offset from the scenario start (monotonic in `seq`).
    pub at_ns: u64,
    /// Index into the scenario's job-class table, `0..classes`.
    pub class: usize,
    /// Per-job seed for grid contents — `SplitMix64::nth_from(seed, seq)`,
    /// so job payloads replay independently of the arrival process.
    pub job_seed: u64,
}

/// Shape of a generated schedule.
#[derive(Clone, Copy, Debug)]
pub struct ScheduleSpec {
    /// Number of arrivals to generate.
    pub jobs: u64,
    /// Mean inter-arrival gap in nanoseconds (exponential distribution).
    pub mean_gap_ns: u64,
    /// Number of job classes to cycle over (uniform choice per arrival).
    pub classes: usize,
}

/// Generates the deterministic arrival schedule for `(seed, spec)`.
/// Same inputs, same schedule — the only randomness source is the
/// seeded [`Xoshiro256`] stream.
pub fn schedule(seed: u64, spec: &ScheduleSpec) -> Vec<Arrival> {
    assert!(spec.classes >= 1, "schedule needs at least one job class");
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let mut at_ns = 0u64;
    let mut out = Vec::with_capacity(spec.jobs as usize);
    for seq in 0..spec.jobs {
        // Exponential gap: -mean·ln(1-u). `gen_unit_f64` is in [0,1) so
        // the argument of `ln` stays in (0,1] and the gap is finite.
        let u = rng.gen_unit_f64();
        let gap = (-(spec.mean_gap_ns as f64) * (1.0 - u).ln()).round() as u64;
        at_ns = at_ns.saturating_add(gap);
        let class = rng.gen_below(spec.classes as u64) as usize;
        out.push(Arrival {
            seq,
            at_ns,
            class,
            job_seed: SplitMix64::nth_from(seed, seq),
        });
    }
    out
}

/// Exact order statistics over a full set of per-job latencies.
///
/// Percentiles use the nearest-rank definition (`ceil(q·n)`-th smallest
/// sample), so `p50`/`p90`/`p99` are always actual observed values and
/// `p100 == max`. All fields are in seconds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LatencyStats {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Nearest-rank 50th percentile.
    pub p50: f64,
    /// Nearest-rank 90th percentile.
    pub p90: f64,
    /// Nearest-rank 99th percentile.
    pub p99: f64,
    /// Largest sample.
    pub max: f64,
}

impl LatencyStats {
    /// Computes the stats; all fields are zero for an empty input.
    pub fn from_samples(samples: &[f64]) -> LatencyStats {
        if samples.is_empty() {
            return LatencyStats {
                count: 0,
                mean: 0.0,
                p50: 0.0,
                p90: 0.0,
                p99: 0.0,
                max: 0.0,
            };
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("latency samples must not be NaN"));
        let nearest = |q: f64| {
            let rank = (q * sorted.len() as f64).ceil() as usize;
            sorted[rank.clamp(1, sorted.len()) - 1]
        };
        LatencyStats {
            count: sorted.len(),
            mean: sorted.iter().sum::<f64>() / sorted.len() as f64,
            p50: nearest(0.50),
            p90: nearest(0.90),
            p99: nearest(0.99),
            max: *sorted.last().expect("non-empty"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_parsing_accepts_decimal_and_hex_and_rejects_garbage() {
        assert_eq!(parse_seed("42"), Some(42));
        assert_eq!(
            parse_seed("  0xdead_beef".replace('_', "").as_str()),
            Some(0xdead_beef)
        );
        assert_eq!(parse_seed("0x5EED0001"), Some(0x5EED_0001));
        assert_eq!(parse_seed(""), None);
        assert_eq!(parse_seed("zebra"), None);
        assert_eq!(parse_seed("0xZZ"), None);
    }

    #[test]
    fn schedules_are_deterministic_in_the_seed() {
        let spec = ScheduleSpec {
            jobs: 64,
            mean_gap_ns: 250_000,
            classes: 5,
        };
        let a = schedule(0x5EED_0001, &spec);
        let b = schedule(0x5EED_0001, &spec);
        assert_eq!(a, b, "same seed must replay the identical schedule");
        let c = schedule(0x5EED_0002, &spec);
        assert_ne!(a, c, "different seeds must produce different schedules");
    }

    #[test]
    fn schedules_are_monotonic_with_classes_and_seeds_in_range() {
        let spec = ScheduleSpec {
            jobs: 200,
            mean_gap_ns: 100_000,
            classes: 3,
        };
        let arr = schedule(7, &spec);
        assert_eq!(arr.len(), 200);
        for w in arr.windows(2) {
            assert!(
                w[0].at_ns <= w[1].at_ns,
                "arrival offsets must be monotonic"
            );
            assert_eq!(w[1].seq, w[0].seq + 1);
        }
        assert!(arr.iter().all(|a| a.class < 3));
        // Per-job seeds are the SplitMix64 stream: independent of gaps.
        assert_eq!(arr[5].job_seed, SplitMix64::nth_from(7, 5));
        // The mean gap should land in the right ballpark (exponential
        // with mean 100µs over 200 draws: well within 3x either way).
        let mean = arr.last().expect("non-empty").at_ns as f64 / 200.0;
        assert!((30_000.0..300_000.0).contains(&mean), "mean gap {mean} off");
    }

    #[test]
    fn latency_stats_are_exact_order_statistics() {
        // 1..=100 ms: nearest-rank percentiles are exact sample values.
        let samples: Vec<f64> = (1..=100).map(|i| i as f64 * 1e-3).collect();
        let s = LatencyStats::from_samples(&samples);
        assert_eq!(s.count, 100);
        assert!((s.p50 - 0.050).abs() < 1e-12);
        assert!((s.p90 - 0.090).abs() < 1e-12);
        assert!((s.p99 - 0.099).abs() < 1e-12);
        assert!((s.max - 0.100).abs() < 1e-12);
        assert!((s.mean - 0.0505).abs() < 1e-12);

        let one = LatencyStats::from_samples(&[0.25]);
        assert_eq!((one.p50, one.p99, one.max), (0.25, 0.25, 0.25));

        let none = LatencyStats::from_samples(&[]);
        assert_eq!(none.count, 0);
        assert_eq!(none.max, 0.0);
    }
}
