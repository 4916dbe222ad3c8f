//! Order statistics and process readings (CPU time, peak RSS, host facts).

use std::time::Duration;

/// The `q`-quantile (0..=1) of `values` by nearest rank; 0 when empty.
pub fn quantile(values: &mut [u64], q: f64) -> u64 {
    if values.is_empty() {
        return 0;
    }
    values.sort_unstable();
    let rank = ((values.len() as f64 * q).ceil() as usize).clamp(1, values.len());
    values[rank - 1]
}

pub fn median(values: &mut [u64]) -> u64 {
    quantile(values, 0.5)
}

pub fn median_f64(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    values[(values.len() - 1) / 2]
}

/// Times `op` in `batches` batches of `per_batch` runs and returns the
/// median ns per run.
pub fn time_per_op(batches: usize, per_batch: usize, mut op: impl FnMut()) -> f64 {
    let mut per_op: Vec<f64> = (0..batches)
        .map(|_| {
            let start = std::time::Instant::now();
            for _ in 0..per_batch {
                op();
            }
            start.elapsed().as_nanos() as f64 / per_batch as f64
        })
        .collect();
    median_f64(&mut per_op)
}

/// CPU time of the process's live threads, from their scheduler
/// statistics (ns resolution; threads that have exited are not counted).
pub fn threads_cpu() -> Duration {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return Duration::ZERO;
    };
    let ns: u64 = tasks
        .flatten()
        .filter_map(|t| std::fs::read_to_string(t.path().join("schedstat")).ok())
        .filter_map(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .sum();
    Duration::from_nanos(ns)
}

/// (steal, total) CPU ticks of the whole host so far, from `/proc/stat`:
/// steal is time the hypervisor ran something else on this VM's CPUs.
pub fn host_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// glibc's `struct mallinfo2`.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
#[repr(C)]
struct MallInfo2 {
    arena: usize,
    ordblks: usize,
    smblks: usize,
    hblks: usize,
    hblkhd: usize,
    usmblks: usize,
    fsmblks: usize,
    uordblks: usize,
    fordblks: usize,
    keepcost: usize,
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    fn mallinfo2() -> MallInfo2;
}

/// Bytes the process holds allocated: heap chunks in use plus mmap'd
/// blocks, summed over every malloc arena. Unlike the resident set, it does
/// not depend on which arena a thread happened to get or on freed memory the
/// allocator keeps. 0 where glibc's statistics are unavailable.
pub fn heap_in_use() -> usize {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        // SAFETY: `mallinfo2` takes no arguments and returns a struct by
        // value whose layout `MallInfo2` repeats field for field (ten
        // `size_t`s, glibc 2.33 and later); glibc takes its own arena locks.
        let info = unsafe { mallinfo2() };
        info.uordblks + info.hblkhd
    }
    #[cfg(not(all(target_os = "linux", target_env = "gnu")))]
    {
        0
    }
}

/// Peak resident set size of the process, in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .unwrap_or(0.0)
}

pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".into())
}

pub fn kernel() -> String {
    std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_owned())
        .unwrap_or_else(|_| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let mut v: Vec<u64> = (1..=100).collect();
        assert_eq!(median(&mut v), 50);
        assert_eq!(quantile(&mut v, 0.99), 99);
        assert_eq!(quantile(&mut v, 1.0), 100);
        assert_eq!(median(&mut []), 0);
    }

    #[test]
    fn process_readings_are_plausible() {
        // Spin until the thread-CPU reading grows; wall time alone does not
        // bound it, since the host may preempt this thread.
        let before = threads_cpu();
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while threads_cpu() < before + Duration::from_millis(10)
            && std::time::Instant::now() < deadline
        {}
        assert!(threads_cpu() >= before + Duration::from_millis(10));
        assert!(peak_rss_mib() > 0.0);
        let block = std::hint::black_box(vec![1u8; 8 << 20]);
        assert!(heap_in_use() >= block.len());
    }
}
