//! Wall-clock speed-up measurements (experiment E8).
//!
//! Runs the same shared-memory allocation under rayon thread counts of
//! different sizes and reports wall-clock times. On a single-core machine the
//! curve is flat (speed-up ≈ 1); the harness still exercises the full parallel
//! code path and reports whatever the hardware provides.

use std::time::Instant;

use crate::executor::run_concurrent_threshold;

/// One point of the speed-up curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpeedupPoint {
    /// Number of rayon threads used.
    pub threads: usize,
    /// Wall-clock seconds for the allocation.
    pub seconds: f64,
    /// Speed-up relative to the 1-thread measurement of the same sweep.
    pub speedup: f64,
}

/// Measures wall-clock time of a fixed-threshold allocation for each thread
/// count in `thread_counts`. The first entry is used as the baseline for the
/// speed-up column (conventionally 1 thread).
pub fn measure_speedup(
    m: u64,
    n: usize,
    threshold: u32,
    thread_counts: &[usize],
    seed: u64,
) -> Vec<SpeedupPoint> {
    let mut points = Vec::with_capacity(thread_counts.len());
    let mut baseline = None;
    for &threads in thread_counts {
        let threads = threads.max(1);
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("thread pool");
        let start = Instant::now();
        let out = pool.install(|| run_concurrent_threshold(m, n, threshold, 10_000, seed));
        let seconds = start.elapsed().as_secs_f64();
        assert_eq!(out.unallocated, 0, "speed-up run must complete");
        let base = *baseline.get_or_insert(seconds);
        points.push(SpeedupPoint {
            threads,
            seconds,
            speedup: if seconds > 0.0 { base / seconds } else { 1.0 },
        });
    }
    points
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn produces_one_point_per_thread_count() {
        let m = 50_000u64;
        let n = 128usize;
        let t = (m / n as u64) as u32 + 10;
        let points = measure_speedup(m, n, t, &[1, 2], 3);
        assert_eq!(points.len(), 2);
        assert_eq!(points[0].threads, 1);
        assert_eq!(points[1].threads, 2);
        assert!((points[0].speedup - 1.0).abs() < 1e-9);
        assert!(points.iter().all(|p| p.seconds >= 0.0));
        assert!(points.iter().all(|p| p.speedup > 0.0));
    }

    #[test]
    fn zero_threads_is_clamped() {
        let points = measure_speedup(10_000, 64, 200, &[0], 1);
        assert_eq!(points[0].threads, 1);
    }
}
