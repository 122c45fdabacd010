//! Rayon-based shared-memory round executor.
//!
//! Each synchronous round of a threshold protocol becomes one parallel pass over
//! the unallocated balls: every ball samples its bin from its deterministic
//! `(seed, ball, round)` stream and tries a bounded atomic increment against the
//! round's threshold. Rejected balls are collected and retried next round. The
//! per-bin loads produced this way satisfy exactly the same per-round threshold
//! invariants as the model engines (the accepted *count* per bin is the same; only
//! *which* requester wins differs, which the model leaves arbitrary anyway), so
//! experiment E8 can cross-validate the two and measure parallel speed-up.

use rayon::prelude::*;

use pba_algorithms::schedule::ThresholdSchedule;
use pba_model::rng::SplitMix64;
use pba_stats::LoadMetrics;

use crate::atomic_bins::AtomicBins;

/// Result of a shared-memory execution.
#[derive(Debug, Clone)]
pub struct ConcurrentOutcome {
    /// Final per-bin loads.
    pub loads: Vec<u32>,
    /// Rounds executed.
    pub rounds: usize,
    /// Balls left unallocated when the executor stopped (0 unless the threshold
    /// schedule's total capacity is insufficient).
    pub unallocated: u64,
    /// Total requests issued over all rounds.
    pub requests: u64,
}

impl ConcurrentOutcome {
    /// Load summary of the final allocation.
    pub fn load_metrics(&self) -> LoadMetrics {
        LoadMetrics::from_loads(&self.loads)
    }

    /// Excess of the maximum load over `⌈m/n⌉`.
    pub fn excess(&self, m: u64) -> i64 {
        if self.loads.is_empty() {
            return 0;
        }
        let ideal = m.div_ceil(self.loads.len() as u64);
        self.loads.iter().copied().max().unwrap_or(0) as i64 - ideal as i64
    }
}

/// Runs a fixed-threshold protocol (`T` per bin, degree 1) to completion (or
/// `max_rounds`) under the current rayon thread count.
pub fn run_concurrent_threshold(
    m: u64,
    n: usize,
    threshold: u32,
    max_rounds: usize,
    seed: u64,
) -> ConcurrentOutcome {
    let thresholds = vec![threshold; max_rounds.max(1)];
    run_rounds(m, n, seed, &thresholds)
}

/// Runs the phase-1 schedule of `A_heavy` (cumulative thresholds per round)
/// followed by a generous fixed-threshold clean-up phase, entirely on atomics.
///
/// This is not a new algorithm — it is the same threshold family executed by a
/// different mechanism — but it exercises the code path a real shared-memory
/// deployment would use.
pub fn run_concurrent_heavy(m: u64, n: usize, seed: u64) -> ConcurrentOutcome {
    let schedule = ThresholdSchedule::new(m, n, 2.0);
    let mut thresholds: Vec<u32> = schedule
        .thresholds
        .iter()
        .map(|&t| t.min(u32::MAX as u64) as u32)
        .collect();
    // Clean-up phase: allow every bin a constant amount of headroom above the
    // final schedule threshold (enough for the O(n) leftovers), and keep retrying
    // under that fixed cap until everything is placed.
    let final_t = schedule.final_threshold() as u32;
    let headroom = ((m.div_ceil(n.max(1) as u64) as u32).saturating_sub(final_t)).saturating_add(4);
    for _ in 0..64u32 {
        thresholds.push(final_t.saturating_add(headroom));
    }
    run_rounds(m, n, seed, &thresholds)
}

/// Core loop: round `r` uses cumulative per-bin threshold `thresholds[r]`.
fn run_rounds(m: u64, n: usize, seed: u64, thresholds: &[u32]) -> ConcurrentOutcome {
    assert!(n > 0 || m == 0, "cannot allocate {m} balls into zero bins");
    let bins = AtomicBins::new(n);
    let mut unallocated: Vec<u64> = (0..m).collect();
    let mut rounds = 0usize;
    let mut requests = 0u64;

    for (round, &threshold) in thresholds.iter().enumerate() {
        if unallocated.is_empty() {
            break;
        }
        rounds += 1;
        requests += unallocated.len() as u64;
        let round_key = SplitMix64::substream_key(seed, round as u64);
        unallocated = unallocated
            .par_iter()
            .filter_map(|&ball| {
                let mut rng = SplitMix64::for_stream_under(round_key, ball);
                let bin = rng.gen_index(n);
                if bins.try_acquire(bin, threshold) {
                    None
                } else {
                    Some(ball)
                }
            })
            .collect();
    }

    ConcurrentOutcome {
        loads: bins.snapshot(),
        rounds,
        unallocated: unallocated.len() as u64,
        requests,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_threshold_completes_with_slack() {
        let m = 200_000u64;
        let n = 256usize;
        let t = (m / n as u64) as u32 + 10;
        let out = run_concurrent_threshold(m, n, t, 200, 7);
        assert_eq!(out.unallocated, 0);
        assert_eq!(out.loads.iter().map(|&l| l as u64).sum::<u64>(), m);
        assert!(out.loads.iter().all(|&l| l <= t));
        assert!(out.rounds >= 1);
        assert!(out.requests >= m);
    }

    #[test]
    fn conservation_with_insufficient_capacity() {
        let m = 10_000u64;
        let n = 10usize;
        let t = 500u32;
        let out = run_concurrent_threshold(m, n, t, 100, 3);
        let allocated: u64 = out.loads.iter().map(|&l| l as u64).sum();
        assert_eq!(allocated, (t as u64) * n as u64);
        assert_eq!(allocated + out.unallocated, m);
        assert!(out.loads.iter().all(|&l| l == t));
    }

    #[test]
    fn concurrent_heavy_matches_model_guarantees() {
        let m = 1u64 << 18;
        let n = 1usize << 8;
        let out = run_concurrent_heavy(m, n, 11);
        assert_eq!(
            out.unallocated, 0,
            "concurrent heavy left balls unallocated"
        );
        assert!(out.excess(m) <= 12, "excess {} is not O(1)", out.excess(m));
        // Round count should be small (log log (m/n) + clean-up), certainly far
        // below the naive Ω(log n).
        assert!(out.rounds <= 40, "took {} rounds", out.rounds);
    }

    #[test]
    fn first_round_loads_match_model_engine_exactly() {
        // In round 0 both executions see the same set of unallocated balls, and
        // every ball's target is the same pure function of (seed, ball, 0), so the
        // per-bin accepted counts min(quota, requests) are identical. (From round 1
        // on the *identities* of the rejected balls differ, so only aggregate
        // agreement is expected — covered by the next test.)
        use pba_model::engine::{run_agent_engine, EngineConfig};
        use pba_model::protocol::FixedThresholdProtocol;
        let m = 50_000u64;
        let n = 64usize;
        let t = (m / n as u64) as u32 + 5;
        let concurrent = run_concurrent_threshold(m, n, t, 1, 21);
        let mut protocol = FixedThresholdProtocol::new(t, 1);
        protocol.max_rounds = 1;
        let model = run_agent_engine(&protocol, m, n, 21, &EngineConfig::sequential());
        assert_eq!(concurrent.loads, model.loads);
        assert_eq!(concurrent.unallocated, model.remaining);
    }

    #[test]
    fn full_run_agrees_with_model_engine_in_aggregate() {
        use pba_model::engine::{run_agent_engine, EngineConfig};
        use pba_model::protocol::FixedThresholdProtocol;
        let m = 50_000u64;
        let n = 64usize;
        let t = (m / n as u64) as u32 + 5;
        let concurrent = run_concurrent_threshold(m, n, t, 500, 21);
        let mut protocol = FixedThresholdProtocol::new(t, 1);
        protocol.max_rounds = 500;
        let model = run_agent_engine(&protocol, m, n, 21, &EngineConfig::sequential());
        assert_eq!(concurrent.unallocated, 0);
        assert_eq!(model.remaining, 0);
        let max_c = concurrent.loads.iter().copied().max().unwrap() as i64;
        let max_m = model.loads.iter().copied().max().unwrap() as i64;
        assert!((max_c - max_m).abs() <= 5);
        assert!((concurrent.rounds as i64 - model.rounds as i64).abs() <= 10);
    }

    #[test]
    fn zero_balls_and_zero_rounds() {
        let out = run_concurrent_threshold(0, 8, 5, 10, 1);
        assert_eq!(out.rounds, 0);
        assert_eq!(out.unallocated, 0);
        let out = run_concurrent_threshold(10, 4, 100, 0, 1);
        assert_eq!(out.rounds, 1, "max_rounds is clamped to at least one round");
    }

    #[test]
    fn excess_and_metrics_helpers() {
        let out = ConcurrentOutcome {
            loads: vec![3, 5, 4],
            rounds: 2,
            unallocated: 0,
            requests: 12,
        };
        assert_eq!(out.excess(12), 1);
        assert_eq!(out.load_metrics().max_load, 5);
        let empty = ConcurrentOutcome {
            loads: vec![],
            rounds: 0,
            unallocated: 0,
            requests: 0,
        };
        assert_eq!(empty.excess(5), 0);
    }
}
