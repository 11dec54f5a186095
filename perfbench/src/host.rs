//! Host facts, run conditions and order statistics.

/// Pool width the benchmark sets for itself: at most two workers, and
/// never more than the machine has.
pub fn pool_width() -> usize {
    cores().min(2)
}

/// Logical cores available to this process.
pub fn cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// SIMD features the host CPU reports, as `(name, present)` pairs. The
/// tensor kernels dispatch on AVX at run time; AVX2, AVX-512 and F16C are
/// recorded because the quantized kernels are expected to start using
/// them.
pub fn simd_features() -> [(&'static str, bool); 4] {
    #[cfg(target_arch = "x86_64")]
    {
        [
            ("avx", std::arch::is_x86_feature_detected!("avx")),
            ("avx2", std::arch::is_x86_feature_detected!("avx2")),
            ("avx512f", std::arch::is_x86_feature_detected!("avx512f")),
            ("f16c", std::arch::is_x86_feature_detected!("f16c")),
        ]
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        [
            ("avx", false),
            ("avx2", false),
            ("avx512f", false),
            ("f16c", false),
        ]
    }
}

/// One-line summary of the host facts for the report.
pub fn describe() -> String {
    let present: Vec<&str> = simd_features()
        .iter()
        .filter(|(_, on)| *on)
        .map(|(name, _)| *name)
        .collect();
    let simd = if present.is_empty() {
        "scalar".to_owned()
    } else {
        present.join("+")
    };
    format!("cores={} pool_width={} simd={simd}", cores(), pool_width())
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Spreads measured operations evenly over the CPUs this process may
/// run on. On a small shared guest, how fast a vCPU runs our code swings
/// by up to 2x for tens of seconds at a time, independently per vCPU
/// (another tenant's load on the core behind it); alternating vCPUs
/// operation by operation makes every run sample each vCPU equally
/// instead of resting on whichever one the scheduler kept it on. The
/// original affinity is restored on drop, so threads spawned later (the
/// set-up's pool) see every CPU again.
pub struct CpuRotation {
    original: Option<affinity::Mask>,
    cpus: Vec<usize>,
}

impl CpuRotation {
    pub fn new() -> Self {
        let original = affinity::get();
        let cpus = original.as_ref().map_or_else(Vec::new, |m| {
            (0..affinity::MAX_CPUS)
                .filter(|&c| m[c / 64] & (1 << (c % 64)) != 0)
                .collect()
        });
        Self { original, cpus }
    }

    /// Pins the calling thread to the `i`-th allowed CPU (cyclically).
    /// A no-op with fewer than two CPUs or where affinity is unavailable.
    /// Threads the pinned thread spawns inherit the pin.
    pub fn pin(&self, i: usize) {
        if self.cpus.len() < 2 {
            return;
        }
        let cpu = self.cpus[i % self.cpus.len()];
        let mut mask = [0u64; affinity::WORDS];
        mask[cpu / 64] = 1 << (cpu % 64);
        affinity::set(&mask);
    }

    /// Restores the affinity the rotation started from.
    pub fn unpin(&self) {
        if let Some(m) = &self.original {
            affinity::set(m);
        }
    }
}

impl Drop for CpuRotation {
    fn drop(&mut self) {
        self.unpin();
    }
}

#[cfg(target_os = "linux")]
mod affinity {
    pub const WORDS: usize = 16;
    pub const MAX_CPUS: usize = WORDS * 64;
    pub type Mask = [u64; WORDS];

    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }

    /// The calling thread's CPU mask.
    pub fn get() -> Option<Mask> {
        let mut mask = [0u64; WORDS];
        // SAFETY: pid 0 names the calling thread; the pointer and size
        // describe `mask`, a live, writable buffer of exactly that size.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<Mask>(), mask.as_mut_ptr()) };
        (rc == 0).then_some(mask)
    }

    /// Sets the calling thread's CPU mask; returns whether it took.
    pub fn set(mask: &Mask) -> bool {
        // SAFETY: pid 0 names the calling thread; the pointer and size
        // describe `mask`, a live buffer the call only reads.
        unsafe { sched_setaffinity(0, std::mem::size_of::<Mask>(), mask.as_ptr()) == 0 }
    }
}

#[cfg(not(target_os = "linux"))]
mod affinity {
    pub const WORDS: usize = 16;
    pub const MAX_CPUS: usize = WORDS * 64;
    pub type Mask = [u64; WORDS];

    pub fn get() -> Option<Mask> {
        None
    }

    pub fn set(_mask: &Mask) -> bool {
        false
    }
}

/// Median of `xs` (mean of the two middle values for even counts).
/// Returns 0 for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The tail: the highest percentile, up to p99, with at least ten
/// samples beyond it, returned as `(percentile, value)`. Below 1000
/// samples that is the eleventh-largest sample, and the percentile
/// follows the sample count smoothly, so a run that takes a few more or
/// fewer samples than the last reports nearly the same point. The p99
/// cap keeps the tail off the handful of samples a vCPU preemption
/// stretches, which set p99.9 on a shared host. With ten samples or
/// fewer it is the maximum.
pub fn tail(xs: &[f64]) -> (f64, f64) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n <= 10 {
        return (100.0, v.last().copied().unwrap_or(0.0));
    }
    let rank = n - 10.max(n.div_ceil(100));
    (100.0 * rank as f64 / n as f64, v[rank - 1])
}

/// Nearest-rank percentile of `xs` (`p` in 0..=100); 0 when empty.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&xs), (90.0, 90.0));
        let xs: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        assert_eq!(tail(&xs), (95.0, 190.0));
        let xs: Vec<f64> = (1..=5000).map(f64::from).collect();
        assert_eq!(tail(&xs), (99.0, 4950.0));
        let few: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(tail(&few), (100.0, 5.0));
    }

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 50.0), 2.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 100.0), 4.0);
    }
}
