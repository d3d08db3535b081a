//! The host: what it is (recorded with every run) and what it can do
//! (roofline probes measured in the same run as the kernels they bound).

use crate::stats;
use hstencil_testkit::Json;
use std::time::{Duration, Instant};

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Size in bytes of the last-level cache cpu0 reports, if any.
pub fn llc_bytes() -> Option<u64> {
    let mut best: Option<(u32, u64)> = None;
    for idx in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{idx}");
        let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).ok();
        let (Some(level), Some(size)) = (read("level"), read("size")) else {
            continue;
        };
        let (Ok(level), Some(bytes)) = (level.trim().parse::<u32>(), parse_size(size.trim()))
        else {
            continue;
        };
        if best.is_none_or(|(l, _)| level >= l) {
            best = Some((level, bytes));
        }
    }
    best.map(|(_, b)| b)
}

/// Parses sysfs cache sizes such as `307200K` or `4M`.
fn parse_size(s: &str) -> Option<u64> {
    let (num, mult) = match s.as_bytes().last()? {
        b'K' => (&s[..s.len() - 1], 1 << 10),
        b'M' => (&s[..s.len() - 1], 1 << 20),
        b'G' => (&s[..s.len() - 1], 1 << 30),
        _ => (s, 1),
    };
    num.parse::<u64>().ok().map(|n| n * mult)
}

/// ISA features the native dispatch cares about.
pub fn isa_flags() -> Vec<&'static str> {
    #[allow(unused_mut)]
    let mut flags = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx2") {
            flags.push("avx2");
        }
        if is_x86_feature_detected!("fma") {
            flags.push("fma");
        }
        if is_x86_feature_detected!("avx512f") {
            flags.push("avx512f");
        }
    }
    flags
}

pub fn describe() -> Json {
    Json::object([
        ("nproc", Json::UInt(nproc() as u64)),
        ("llc_bytes", llc_bytes().map_or(Json::Null, Json::UInt)),
        (
            "isa",
            Json::array(isa_flags().into_iter().map(|f| Json::Str(f.into()))),
        ),
    ])
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// STREAM-style triad `a[i] = b[i] + s * c[i]` over three arrays of
/// `elems` f64 each, split across `threads` threads. Returns the median
/// GB/s over `passes` timed passes, counting 24 bytes per element (the
/// STREAM convention, write-allocate traffic not counted). The arrays are
/// first touched by the same threads that later use them.
pub fn triad_gb_per_s(elems: usize, threads: usize, passes: usize) -> f64 {
    let threads = threads.max(1);
    let mut a = vec![0.0f64; elems];
    let mut b = vec![0.0f64; elems];
    let mut c = vec![0.0f64; elems];
    let chunk = elems.div_ceil(threads);
    let run = |a: &mut [f64], b: &mut [f64], c: &mut [f64], init: bool| {
        std::thread::scope(|s| {
            for ((a, b), c) in a
                .chunks_mut(chunk)
                .zip(b.chunks_mut(chunk))
                .zip(c.chunks_mut(chunk))
            {
                s.spawn(move || {
                    if init {
                        a.fill(0.0);
                        b.fill(1.0);
                        c.fill(2.0);
                    } else {
                        for ((a, b), c) in a.iter_mut().zip(b.iter()).zip(c.iter()) {
                            *a = *b + 3.0 * *c;
                        }
                    }
                });
            }
        });
    };
    run(&mut a, &mut b, &mut c, true);
    let rates: Vec<f64> = (0..passes.max(1))
        .map(|_| {
            let t = stats::time(|| run(&mut a, &mut b, &mut c, false));
            24.0 * elems as f64 / t / 1e9
        })
        .collect();
    assert!(
        a.iter().step_by(4096).all(|&x| x == 7.0),
        "triad produced a wrong value"
    );
    stats::median(&rates)
}

/// Peak FMA throughput in GFLOP/s on `threads` threads, each running
/// independent AVX2 FMA chains (the ISA of the default native kernels)
/// for `dur`; 0 when the host lacks AVX2+FMA.
pub fn fma_gflops(threads: usize, dur: Duration) -> f64 {
    #[cfg(target_arch = "x86_64")]
    {
        if !(is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma")) {
            return 0.0;
        }
        std::thread::scope(|s| {
            let hs: Vec<_> = (0..threads.max(1))
                .map(|_| {
                    s.spawn(move || {
                        let start = Instant::now();
                        let mut done = 0u64;
                        while start.elapsed() < dur {
                            // SAFETY: AVX2 and FMA were detected above.
                            unsafe { fma_block(&mut done) };
                        }
                        done as f64 / start.elapsed().as_secs_f64() / 1e9
                    })
                })
                .collect();
            hs.into_iter()
                .map(|h| h.join().expect("fma probe thread panicked"))
                .sum()
        })
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (threads, dur);
        0.0
    }
}

/// One block of the FMA probe: 12 independent 4-lane chains (enough to
/// cover FMA latency on two ports) for `ITERS` steps; adds the flops
/// done to `done`.
///
/// # Safety
/// The caller must have checked that the CPU supports AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn fma_block(done: &mut u64) {
    use std::arch::x86_64::*;
    const CHAINS: usize = 12;
    const ITERS: usize = 100_000;
    // Operands come through `black_box` so the chains cannot be folded
    // at compile time.
    let mul = _mm256_set1_pd(std::hint::black_box(0.999_999_9));
    let add = _mm256_set1_pd(std::hint::black_box(1e-7));
    let mut acc = [_mm256_set1_pd(std::hint::black_box(1.0)); CHAINS];
    for _ in 0..ITERS {
        for x in acc.iter_mut() {
            *x = _mm256_fmadd_pd(*x, mul, add);
        }
    }
    let mut sum = _mm256_setzero_pd();
    for x in acc {
        sum = _mm256_add_pd(sum, x);
    }
    std::hint::black_box(sum);
    *done += (CHAINS * ITERS * 4 * 2) as u64;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sysfs_sizes_parse() {
        assert_eq!(parse_size("307200K"), Some(307200 << 10));
        assert_eq!(parse_size("4M"), Some(4 << 20));
        assert_eq!(parse_size("512"), Some(512));
        assert_eq!(parse_size("x"), None);
    }

    #[test]
    fn probes_return_positive_rates() {
        assert!(triad_gb_per_s(1 << 16, 2, 2) > 0.0);
        if isa_flags().contains(&"fma") {
            // A folded loop would report far beyond any core's peak.
            let g = fma_gflops(1, Duration::from_millis(20));
            assert!(g > 0.1 && g < 1000.0, "{g}");
        }
    }
}
