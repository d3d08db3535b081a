//! Order statistics and paired A/B ratios.

use std::time::{Duration, Instant};

/// Median of `xs` (mean of the middle two for an even count).
///
/// # Panics
/// Panics on an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First and third quartile by the method of Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method), so
/// spreads computed from this benchmark read the same as Python's.
/// A single sample is its own quartiles.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let s = sorted(xs);
    let n = s.len() as i64;
    if n == 1 {
        return (s[0], s[0]);
    }
    let q = |k: i64| {
        let m = n + 1;
        let j = (k * m / 4).clamp(1, n - 1);
        let delta = (k * m - j * 4) as f64;
        let j = j as usize;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// Nearest-rank percentile `p` in `[0, 100]`.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let s = sorted(xs);
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    assert!(!xs.is_empty(), "order statistic of an empty sample");
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Runs `build` `reps` times, dropping each result before the next build,
/// and returns the last result with the median build time in seconds.
pub fn repeated_setup<T>(reps: usize, mut build: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        drop(last.take());
        let t0 = Instant::now();
        let v = build();
        times.push(t0.elapsed().as_secs_f64());
        last = Some(v);
    }
    (last.expect("at least one set-up rep"), median(&times))
}

/// Seconds taken by `f`.
pub fn time(f: impl FnOnce()) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_secs_f64()
}

/// A paired ratio: the median per-pair value with its quartiles.
#[derive(Clone, Copy, Debug)]
pub struct Paired {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub pairs: usize,
}

/// Throughput of `a` relative to `b` from samples interleaved in ABBA
/// order within this process: each group runs A, B, B, A and yields the
/// pairs (A1, B1) and (A2, B2). `sample(true)` runs one A sample and
/// `sample(false)` one B sample, each returning its seconds; a pair's
/// ratio is `t_b / t_a`. Drift that is linear over a group cancels
/// between its two pairs, and no ratio is ever taken of separately timed
/// medians.
pub fn abba(groups: usize, mut sample: impl FnMut(bool) -> f64) -> Paired {
    let mut ratios = Vec::with_capacity(2 * groups);
    for _ in 0..groups.max(1) {
        let a1 = sample(true);
        let b1 = sample(false);
        let b2 = sample(false);
        let a2 = sample(true);
        ratios.push(b1 / a1);
        ratios.push(b2 / a2);
    }
    let (q1, q3) = quartiles(&ratios);
    Paired {
        median: median(&ratios),
        q1,
        q3,
        pairs: ratios.len(),
    }
}

/// Repeats `f` in batches until `budget` has passed (at least `min`
/// batches) and returns the per-call seconds of each batch.
pub fn batches(budget: Duration, min: usize, per_batch: usize, mut f: impl FnMut()) -> Vec<f64> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < min || start.elapsed() < budget {
        let t0 = Instant::now();
        for _ in 0..per_batch {
            f();
        }
        out.push(t0.elapsed().as_secs_f64() / per_batch as f64);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_match_python() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(median(&xs), 5.5);
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 2.25));
        assert_eq!(median(&[4.0, 1.0]), 2.5);
    }

    #[test]
    fn nearest_rank_percentile() {
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 100.0);
        assert_eq!(percentile(&xs, 99.0), 198.0);
        assert_eq!(percentile(&[5.0], 99.0), 5.0);
    }

    #[test]
    fn abba_pairs_each_a_with_its_neighbouring_b() {
        let mut ta = [1.0, 2.0].into_iter();
        let mut tb = [3.0, 8.0].into_iter();
        let p = abba(1, |a| if a { ta.next() } else { tb.next() }.unwrap());
        // Pairs: (A1 = 1, B1 = 3) and (A2 = 2, B2 = 8).
        assert_eq!(p.pairs, 2);
        assert_eq!(p.median, (3.0 + 4.0) / 2.0);
    }
}
