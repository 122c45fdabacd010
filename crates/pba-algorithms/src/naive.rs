//! The naive fixed-threshold strawman (Section 1.1).
//!
//! "Consider the most naive algorithm, in which each bin agrees to accept at most
//! `T = m/n + O(1)` balls in total, without modifying its threshold over the
//! course of the algorithm." After one round a constant fraction of the bins are
//! full, so an unallocated ball keeps hitting full bins with constant probability
//! — the algorithm needs `Ω(log n)` rounds (and this is exactly what the lower
//! bound of Section 4 formalises). Experiment E4 contrasts its round count with
//! `A_heavy`'s.

use pba_model::engine::{run_agent_engine, EngineConfig};
use pba_model::outcome::{AllocationOutcome, Allocator};
use pba_model::protocol::FixedThresholdProtocol;

/// The naive allocator: fixed per-bin capacity `⌈m/n⌉ + slack` in every round,
/// degree-`d` uniform random choices per ball per round.
#[derive(Debug, Clone, Copy)]
pub struct NaiveThresholdAllocator {
    /// Additive slack on top of `⌈m/n⌉` (the `O(1)` of the strawman).
    pub slack: u32,
    /// Bins contacted per ball per round.
    pub degree: usize,
    /// Safety cap on rounds.
    pub max_rounds: usize,
    /// Passed on as
    /// [`EngineConfig::parallel`](pba_model::engine::EngineConfig::parallel),
    /// which the agent engine does not read: it changes no result and no
    /// speed.
    pub parallel: bool,
}

impl Default for NaiveThresholdAllocator {
    fn default() -> Self {
        Self {
            slack: 1,
            degree: 1,
            max_rounds: 16_384,
            parallel: false,
        }
    }
}

impl NaiveThresholdAllocator {
    /// Creates the allocator with a given slack and degree.
    pub fn new(slack: u32, degree: usize) -> Self {
        Self {
            slack,
            degree: degree.max(1),
            ..Self::default()
        }
    }
}

impl Allocator for NaiveThresholdAllocator {
    fn name(&self) -> String {
        format!("naive-threshold(+{},d={})", self.slack, self.degree)
    }

    fn allocate(&self, m: u64, n: usize, seed: u64) -> AllocationOutcome {
        assert!(n > 0 || m == 0, "cannot allocate {m} balls into zero bins");
        if m == 0 {
            return AllocationOutcome {
                loads: vec![0; n],
                ..Default::default()
            };
        }
        let threshold = (m.div_ceil(n as u64) as u32).saturating_add(self.slack);
        let mut protocol = FixedThresholdProtocol::new(threshold, self.degree);
        protocol.max_rounds = self.max_rounds;
        let cfg = EngineConfig {
            parallel: self.parallel,
            track_per_ball: false,
            record_rounds: true,
        };
        run_agent_engine(&protocol, m, n, seed, &cfg).into_outcome()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn completes_with_slack_and_respects_cap() {
        let m = 1u64 << 16;
        let n = 1usize << 8;
        let alloc = NaiveThresholdAllocator::new(2, 1);
        let out = alloc.allocate(m, n, 3);
        assert!(out.is_complete(m));
        let cap = m.div_ceil(n as u64) + 2;
        assert!(out.max_load() <= cap);
        assert!(out.excess(m) <= 2);
    }

    #[test]
    fn needs_many_more_rounds_than_heavy() {
        // The strawman's Ω(log n) behaviour: with +1 slack it takes far more rounds
        // than A_heavy's O(log log(m/n) + log* n) on the same instance.
        let m = 1u64 << 18;
        let n = 1usize << 10;
        let naive = NaiveThresholdAllocator::new(1, 1);
        let heavy = crate::heavy::HeavyAllocator::default();
        let out_naive = naive.allocate(m, n, 7);
        let out_heavy = heavy.allocate(m, n, 7);
        assert!(out_naive.is_complete(m));
        assert!(out_heavy.is_complete(m));
        assert!(
            out_naive.rounds >= 2 * out_heavy.rounds,
            "naive {} rounds vs heavy {} rounds",
            out_naive.rounds,
            out_heavy.rounds
        );
        // And it should be in the right ballpark of log n (>= (log2 n)/2).
        assert!(
            out_naive.rounds as f64 >= (n as f64).log2() / 2.0,
            "naive finished suspiciously fast: {} rounds",
            out_naive.rounds
        );
    }

    #[test]
    fn higher_degree_reduces_rounds_but_not_below_logarithmic_scaling() {
        let m = 1u64 << 16;
        let n = 1usize << 10;
        let d1 = NaiveThresholdAllocator::new(1, 1);
        let d2 = NaiveThresholdAllocator::new(1, 2);
        let r1 = d1.allocate(m, n, 5).rounds;
        let r2 = d2.allocate(m, n, 5).rounds;
        assert!(r2 <= r1, "degree 2 should not be slower ({r2} vs {r1})");
        assert!(
            r2 >= 3,
            "even degree 2 needs several rounds with tight thresholds"
        );
    }

    #[test]
    fn zero_balls() {
        let alloc = NaiveThresholdAllocator::default();
        let out = alloc.allocate(0, 16, 1);
        assert_eq!(out.allocated(), 0);
        assert_eq!(out.loads.len(), 16);
    }

    #[test]
    fn name_includes_parameters() {
        assert_eq!(
            NaiveThresholdAllocator::new(3, 2).name(),
            "naive-threshold(+3,d=2)"
        );
    }
}
