//! Sample statistics and process probes (CPU time, resident memory).

use std::time::Instant;

/// Fewest samples a reported percentile must have strictly beyond it.
pub const MIN_BEYOND: usize = 10;

/// The `q`-quantile (`0 < q < 1`) of `sorted` by nearest rank, or `None`
/// when fewer than [`MIN_BEYOND`] samples lie beyond it — a tail
/// percentile is only reported when the data can support it.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() || !(q > 0.0 && q < 1.0) {
        return None;
    }
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    let beyond = n - rank;
    (beyond >= MIN_BEYOND).then(|| sorted[rank - 1])
}

/// Sort samples for [`percentile`].
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// Median of `values` (mean of the middle pair for even counts); `0.0`
/// for no values.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let v = sorted(values.to_vec());
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Interquartile mean of `values`: the mean of what is left after the
/// lowest and the highest quarter (rounded down) are dropped; `0.0` for no
/// values.
pub fn interquartile_mean(values: &[f64]) -> f64 {
    let v = sorted(values.to_vec());
    let middle = &v[v.len() / 4..v.len() - v.len() / 4];
    if middle.is_empty() {
        return 0.0;
    }
    middle.iter().sum::<f64>() / middle.len() as f64
}

/// Samples a window needs before its p99 has [`MIN_BEYOND`] beyond it.
pub const MIN_WINDOW_SAMPLES: usize = 100 * MIN_BEYOND;

/// Per-window median and p99 of `(time s, value)` samples, windows of
/// `window_s` by sample time; windows too thin for a p99 are skipped.
pub fn windowed_percentiles(samples: &[(f64, f64)], window_s: f64) -> (Vec<f64>, Vec<f64>) {
    let mut windows: std::collections::BTreeMap<u64, Vec<f64>> = Default::default();
    for &(t, v) in samples {
        windows
            .entry((t.max(0.0) / window_s) as u64)
            .or_default()
            .push(v);
    }
    let mut p50 = Vec::new();
    let mut p99 = Vec::new();
    for values in windows.into_values() {
        let v = sorted(values);
        if let (Some(a), Some(b)) = (percentile(&v, 0.5), percentile(&v, 0.99)) {
            p50.push(a);
            p99.push(b);
        }
    }
    (p50, p99)
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

#[cfg(target_env = "gnu")]
extern "C" {
    fn malloc_trim(pad: usize) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_clock(clock: i32) -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) and the clock ids are the fixed Linux
    // constants for this process's and this thread's CPU clocks.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// User + system CPU seconds consumed by the whole process so far.
pub fn process_cpu_s() -> f64 {
    cpu_clock(CLOCK_PROCESS_CPUTIME_ID)
}

/// User + system CPU seconds consumed by the calling thread so far.
pub fn thread_cpu_s() -> f64 {
    cpu_clock(CLOCK_THREAD_CPUTIME_ID)
}

/// Resident set size in bytes (`/proc/self/statm`), 0 if unreadable.
pub fn rss_bytes() -> u64 {
    let Ok(text) = std::fs::read_to_string("/proc/self/statm") else {
        return 0;
    };
    let pages: u64 = text
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    pages * 4096
}

/// Return freed heap pages to the kernel so a repetition's RSS growth is
/// measured against live data, not against the allocator's free lists
/// left by the previous repetition.
pub fn trim_heap() {
    #[cfg(target_env = "gnu")]
    // SAFETY: `malloc_trim` only releases free allocator memory; it has no
    // preconditions beyond a glibc allocator, which `target_env = "gnu"`
    // guarantees.
    unsafe {
        malloc_trim(0);
    }
}

/// Peak-RSS tracker for one repetition: baseline after a heap trim, then
/// the largest RSS seen at each [`sample`](Self::sample).
pub struct RssPeak {
    base: u64,
    peak: u64,
}

impl RssPeak {
    pub fn start() -> RssPeak {
        trim_heap();
        let base = rss_bytes();
        RssPeak { base, peak: base }
    }

    pub fn sample(&mut self) {
        self.peak = self.peak.max(rss_bytes());
    }

    /// Peak growth over the baseline, in MiB.
    pub fn growth_mb(&mut self) -> f64 {
        self.sample();
        (self.peak - self.base) as f64 / (1024.0 * 1024.0)
    }
}

/// Seconds elapsed since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        // p99 of 1000 samples has exactly 10 beyond it; of 999, only 9.
        assert_eq!(percentile(&ramp(1000), 0.99), Some(990.0));
        assert_eq!(percentile(&ramp(999), 0.99), None);
        // The median needs 20 samples.
        assert_eq!(percentile(&ramp(20), 0.5), Some(10.0));
        assert_eq!(percentile(&ramp(19), 0.5), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v = ramp(100);
        assert_eq!(percentile(&v, 0.5), Some(50.0));
        assert_eq!(percentile(&v, 0.9), Some(90.0));
        assert_eq!(percentile(&v, 0.91), None, "only 9 beyond");
    }

    #[test]
    fn windows_without_a_supported_p99_are_skipped() {
        // 1000 samples in window 0, 999 in window 1.
        let mut samples: Vec<(f64, f64)> = (1..=1000).map(|i| (0.1, i as f64)).collect();
        samples.extend((1..=999).map(|i| (0.7, i as f64)));
        let (p50, p99) = windowed_percentiles(&samples, 0.5);
        assert_eq!(p50, vec![500.0]);
        assert_eq!(p99, vec![990.0]);
    }

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn interquartile_mean_drops_each_outer_quarter() {
        // 8 values: the lowest and highest two are dropped.
        let v = [100.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, -50.0];
        assert_eq!(interquartile_mean(&v), 3.5);
        // Fewer than 4 values: nothing is dropped.
        assert_eq!(interquartile_mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(interquartile_mean(&[]), 0.0);
    }

    #[test]
    fn cpu_clocks_advance() {
        let p0 = process_cpu_s();
        let t0 = thread_cpu_s();
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        assert!(process_cpu_s() > p0);
        assert!(thread_cpu_s() > t0);
    }
}
