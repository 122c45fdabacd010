//! `A_heavy` — the paper's symmetric threshold algorithm (Section 3, Theorems 1 & 6).
//!
//! The algorithm has two phases:
//!
//! 1. **Threshold phase** (`O(log log(m/n))` rounds): every unallocated ball
//!    contacts one uniformly random bin per round; every bin accepts requests up
//!    to the cumulative threshold `T_i = m/n − (m̃_i/n)^{2/3}` of the shared
//!    [`ThresholdSchedule`]. Setting the threshold *below* the running average is
//!    the key idea: essentially every bin receives enough requests to fill up to
//!    exactly `T_i`, so bins stay equally loaded and the number of unallocated
//!    balls follows `m̃_{i+1} = m̃_i^{2/3} n^{1/3}` down to `O(n)`.
//! 2. **Clean-up phase** (`log* n + O(1)` rounds): the `O(n)` leftover balls are
//!    handed to [`A_light`](crate::light) with every real bin simulating
//!    `g = O(1)` virtual bins, adding at most `capacity · g = O(1)` balls per real
//!    bin.
//!
//! The final load is therefore `m/n + O(1)` w.h.p., met with `O(m)` total
//! messages — exactly the statement of Theorem 6, which experiments E1–E3
//! reproduce.

use pba_model::engine::{run_agent_engine, EngineConfig, EngineResult};
use pba_model::metrics::{MessageCensus, RoundRecord};
use pba_model::outcome::{AllocationOutcome, Allocator};
use pba_model::rng::mix64;

use crate::light::{LightAllocator, LightConfig};
use crate::schedule::ThresholdSchedule;
use crate::threshold::ScheduledThresholdProtocol;
use crate::virtual_bins::VirtualBinMap;

/// Configuration of `A_heavy`.
#[derive(Debug, Clone, Copy)]
pub struct HeavyConfig {
    /// Phase 1 stops once the estimate `m̃_i` drops to `stop_factor · n`
    /// (the paper's Claim 3 uses `2n`).
    pub stop_factor: f64,
    /// Slack exponent `α` in `T_i = m/n − (m̃_i/n)^α` (paper: `2/3`); swept by the
    /// ablation experiment E9.
    pub slack_exponent: f64,
    /// Configuration of the phase-2 `A_light` subroutine.
    pub light: LightConfig,
    /// Passed on as
    /// [`EngineConfig::parallel`](pba_model::engine::EngineConfig::parallel),
    /// which the agent engine does not read: it changes no result and no
    /// speed.
    pub parallel: bool,
    /// Track per-ball sent-message counts (costs `O(m)` memory).
    pub track_per_ball: bool,
}

impl Default for HeavyConfig {
    fn default() -> Self {
        Self {
            stop_factor: 2.0,
            slack_exponent: 2.0 / 3.0,
            light: LightConfig::default(),
            parallel: false,
            track_per_ball: false,
        }
    }
}

/// Execution trace of one `A_heavy` run, beyond what [`AllocationOutcome`] carries.
#[derive(Debug, Clone)]
pub struct HeavyTrace {
    /// The phase-1 threshold schedule that was used.
    pub schedule: ThresholdSchedule,
    /// Rounds spent in phase 1.
    pub phase1_rounds: usize,
    /// Rounds spent in phase 2 (`A_light`).
    pub phase2_rounds: usize,
    /// Extra rounds spent in the deterministic straggler fallback (0 in virtually
    /// every run; non-zero only if `A_light` hit its round cap).
    pub fallback_rounds: usize,
    /// Unallocated balls left after phase 1 (handed to `A_light`).
    pub leftover_after_phase1: u64,
    /// Virtual bins per real bin used in phase 2.
    pub virtual_per_real: usize,
}

/// The `A_heavy` allocator.
#[derive(Debug, Clone, Default)]
pub struct HeavyAllocator {
    /// Algorithm configuration.
    pub config: HeavyConfig,
}

impl HeavyAllocator {
    /// Creates an allocator with the given configuration.
    pub fn new(config: HeavyConfig) -> Self {
        Self { config }
    }

    /// The threshold schedule this allocator would use on an `(m, n)` instance.
    pub fn schedule_for(&self, m: u64, n: usize) -> ThresholdSchedule {
        ThresholdSchedule::with_exponent(m, n, self.config.stop_factor, self.config.slack_exponent)
    }

    /// Runs the algorithm and also returns the [`HeavyTrace`].
    pub fn allocate_traced(&self, m: u64, n: usize, seed: u64) -> (AllocationOutcome, HeavyTrace) {
        assert!(n > 0 || m == 0, "cannot allocate {m} balls into zero bins");
        let schedule = self.schedule_for(m, n);

        let engine_cfg = EngineConfig {
            parallel: self.config.parallel,
            track_per_ball: self.config.track_per_ball,
            record_rounds: true,
        };

        // ---- Phase 1: scheduled thresholds. ----
        let phase1: EngineResult = if schedule.rounds() > 0 {
            let protocol = ScheduledThresholdProtocol::new(schedule.clone());
            run_agent_engine(&protocol, m, n, seed, &engine_cfg)
        } else {
            // Nothing for phase 1 to do: every ball is a "leftover".
            EngineResult {
                loads: vec![0; n],
                rounds: 0,
                remaining: m,
                remaining_balls: (0..m).collect(),
                totals: Default::default(),
                per_round: Vec::new(),
                census: MessageCensus::new(
                    n,
                    if self.config.track_per_ball {
                        Some(m)
                    } else {
                        None
                    },
                ),
            }
        };

        let mut loads = phase1.loads;
        let mut totals = phase1.totals;
        let mut per_round = phase1.per_round;
        let mut per_bin_received = phase1.census.per_bin_received;
        let mut per_ball_sent = phase1.census.per_ball_sent;
        let mut rounds = phase1.rounds;
        let phase1_rounds = phase1.rounds;
        let leftover_after_phase1 = phase1.remaining;

        // ---- Phase 2: A_light on virtual bins. ----
        let leftovers = phase1.remaining_balls;
        let mut phase2_rounds = 0usize;
        let mut fallback_rounds = 0usize;
        let mut virtual_per_real = 0usize;

        if !leftovers.is_empty() {
            let map = VirtualBinMap::sized_for(n, leftovers.len() as u64);
            virtual_per_real = map.per_real();
            let light = LightAllocator::new(self.config.light);
            let phase2_seed = mix64(seed ^ 0x5_1bba_11e5_u64);
            let r2 = light.allocate_balls(
                &leftovers,
                m,
                map.n_virtual(),
                phase2_seed,
                self.config.track_per_ball,
            );

            map.fold_loads(&r2.loads, &mut loads);
            map.fold_messages(&r2.census.per_bin_received, &mut per_bin_received);
            if self.config.track_per_ball {
                if per_ball_sent.is_empty() {
                    per_ball_sent = r2.census.per_ball_sent.clone();
                } else {
                    for (dst, src) in per_ball_sent.iter_mut().zip(&r2.census.per_ball_sent) {
                        *dst += *src;
                    }
                }
            }
            totals.merge(&r2.totals);
            for rec in &r2.per_round {
                per_round.push(RoundRecord {
                    round: rounds + rec.round,
                    ..*rec
                });
            }
            phase2_rounds = r2.rounds;
            rounds += r2.rounds;

            // ---- Straggler fallback (virtually never taken): A_light hit its round
            // cap with a handful of balls left. Place them greedily into the least
            // loaded real bins in one extra synchronous round so the outcome is
            // always a complete allocation with bounded extra load. ----
            if r2.remaining > 0 {
                for &ball in &r2.remaining_balls {
                    let (idx, _) = loads
                        .iter()
                        .enumerate()
                        .min_by_key(|&(_, &l)| l)
                        .expect("n > 0");
                    loads[idx] += 1;
                    totals.requests += 1;
                    totals.responses += 1;
                    totals.accepts += 1;
                    per_bin_received[idx] += 1;
                    if self.config.track_per_ball {
                        per_ball_sent[ball as usize] += 1;
                    }
                }
                fallback_rounds = 1;
                rounds += 1;
            }
        }

        let outcome = AllocationOutcome {
            loads,
            rounds,
            unallocated: 0,
            messages: totals,
            per_round,
            census: MessageCensus {
                per_bin_received,
                per_ball_sent,
            },
        };
        let trace = HeavyTrace {
            schedule,
            phase1_rounds,
            phase2_rounds,
            fallback_rounds,
            leftover_after_phase1,
            virtual_per_real,
        };
        (outcome, trace)
    }
}

impl Allocator for HeavyAllocator {
    fn name(&self) -> String {
        if (self.config.slack_exponent - 2.0 / 3.0).abs() < 1e-9 {
            "A_heavy".to_string()
        } else {
            format!("A_heavy(alpha={:.2})", self.config.slack_exponent)
        }
    }

    fn allocate(&self, m: u64, n: usize, seed: u64) -> AllocationOutcome {
        self.allocate_traced(m, n, seed).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pba_stats::{log_log2, log_star};

    fn excess_of(out: &AllocationOutcome, m: u64) -> i64 {
        out.excess(m)
    }

    #[test]
    fn achieves_m_over_n_plus_constant_load() {
        for &(m, n) in &[
            (1u64 << 18, 1usize << 8),
            (1 << 20, 1 << 10),
            (1 << 22, 1 << 8),
            (1 << 16, 1 << 12),
        ] {
            for seed in 0..3u64 {
                let alloc = HeavyAllocator::default();
                let out = alloc.allocate(m, n, seed);
                assert!(out.is_complete(m), "m={m} n={n} seed={seed}");
                assert!(out.conserves_balls(m));
                let excess = excess_of(&out, m);
                assert!(
                    excess <= 8,
                    "m={m} n={n} seed={seed}: excess {excess} is not O(1)"
                );
            }
        }
    }

    #[test]
    fn round_count_matches_theorem_one() {
        for &(m, n) in &[
            (1u64 << 20, 1usize << 10),
            (1 << 24, 1 << 10),
            (1 << 22, 1 << 12),
        ] {
            let alloc = HeavyAllocator::default();
            let (out, trace) = alloc.allocate_traced(m, n, 7);
            assert!(out.is_complete(m));
            let predicted =
                log_log2(m as f64 / n as f64).ceil() as usize + log_star(n as f64) as usize + 8;
            assert!(
                out.rounds <= predicted,
                "m={m} n={n}: {} rounds > predicted {}",
                out.rounds,
                predicted
            );
            assert_eq!(
                out.rounds,
                trace.phase1_rounds + trace.phase2_rounds + trace.fallback_rounds
            );
        }
    }

    #[test]
    fn phase_one_leaves_order_n_leftovers() {
        let m = 1u64 << 22;
        let n = 1usize << 10;
        let alloc = HeavyAllocator::default();
        let (_, trace) = alloc.allocate_traced(m, n, 5);
        assert!(trace.phase1_rounds > 0);
        assert!(
            (trace.leftover_after_phase1 as f64) <= 4.0 * n as f64,
            "leftover {} is not O(n)",
            trace.leftover_after_phase1
        );
        assert!(trace.virtual_per_real >= 1);
        assert!(trace.virtual_per_real <= 4);
        assert_eq!(trace.fallback_rounds, 0);
    }

    #[test]
    fn message_totals_are_linear_in_m() {
        let m = 1u64 << 20;
        let n = 1usize << 10;
        let alloc = HeavyAllocator::default();
        let out = alloc.allocate(m, n, 3);
        // Theorem 6: O(m) messages total. Requests alone are at most ~2m (geometric
        // series); counting responses doubles that.
        assert!(
            out.messages.requests <= 3 * m,
            "requests {} exceed 3m",
            out.messages.requests
        );
        assert!(
            out.messages.total() <= 7 * m,
            "total messages {} exceed 7m",
            out.messages.total()
        );
    }

    #[test]
    fn per_bin_messages_are_balanced() {
        let m = 1u64 << 20;
        let n = 1usize << 10;
        let alloc = HeavyAllocator::default();
        let out = alloc.allocate(m, n, 9);
        let mean = m as f64 / n as f64;
        let bound = 1.3 * mean + 10.0 * (n as f64).ln();
        let max_received = out.census.per_bin_received.iter().copied().max().unwrap() as f64;
        assert!(
            max_received <= bound,
            "a bin received {max_received} messages, bound {bound}"
        );
    }

    #[test]
    fn per_ball_messages_are_constant_in_expectation() {
        let m = 1u64 << 18;
        let n = 1usize << 8;
        let alloc = HeavyAllocator::new(HeavyConfig {
            track_per_ball: true,
            ..HeavyConfig::default()
        });
        let out = alloc.allocate(m, n, 11);
        assert_eq!(out.census.per_ball_sent.len(), m as usize);
        let mean = out.census.mean_ball_sent();
        assert!(mean <= 3.0, "mean messages per ball {mean} is not O(1)");
        let max = out.census.max_ball_sent() as f64;
        assert!(
            max <= 6.0 * (n as f64).log2(),
            "max messages per ball {max} is not O(log n)"
        );
    }

    #[test]
    fn deterministic_per_seed_and_parallel_matches_sequential() {
        let m = 1u64 << 16;
        let n = 1usize << 8;
        let seq = HeavyAllocator::default();
        let par = HeavyAllocator::new(HeavyConfig {
            parallel: true,
            ..HeavyConfig::default()
        });
        let a = seq.allocate(m, n, 21);
        let b = seq.allocate(m, n, 21);
        let c = par.allocate(m, n, 21);
        assert_eq!(a.loads, b.loads);
        assert_eq!(a.rounds, b.rounds);
        assert_eq!(a.loads, c.loads, "parallel execution must be bit-identical");
        let d = seq.allocate(m, n, 22);
        assert_ne!(a.loads, d.loads);
    }

    #[test]
    fn light_instances_skip_phase_one_entirely() {
        // m == n: A_heavy degenerates to A_light with one virtual bin per real bin.
        let n = 1usize << 10;
        let m = n as u64;
        let alloc = HeavyAllocator::default();
        let (out, trace) = alloc.allocate_traced(m, n, 13);
        assert_eq!(trace.phase1_rounds, 0);
        assert!(out.is_complete(m));
        assert!(out.max_load() <= 2 * trace.virtual_per_real as u64 + 1);
    }

    #[test]
    fn tiny_and_empty_instances() {
        let alloc = HeavyAllocator::default();
        let out = alloc.allocate(0, 8, 1);
        assert_eq!(out.allocated(), 0);
        assert_eq!(out.rounds, 0);

        let out = alloc.allocate(3, 8, 1);
        assert!(out.is_complete(3));
        assert!(out.max_load() <= 2);

        let out = alloc.allocate(5, 1, 1);
        assert!(out.is_complete(5));
        assert_eq!(out.loads, vec![5]);
    }

    #[test]
    fn non_power_of_two_sizes() {
        let m = 1_234_567u64;
        let n = 999usize;
        let alloc = HeavyAllocator::default();
        let out = alloc.allocate(m, n, 17);
        assert!(out.is_complete(m));
        assert!(out.excess(m) <= 8, "excess {}", out.excess(m));
    }

    #[test]
    fn ablation_exponent_affects_phase1_rounds() {
        let m = 1u64 << 24;
        let n = 1usize << 10;
        let paper = HeavyAllocator::default();
        let timid = HeavyAllocator::new(HeavyConfig {
            slack_exponent: 0.9,
            ..HeavyConfig::default()
        });
        let (_, t_paper) = paper.allocate_traced(m, n, 19);
        let (out_timid, t_timid) = timid.allocate_traced(m, n, 19);
        assert!(t_timid.phase1_rounds >= t_paper.phase1_rounds);
        assert!(out_timid.is_complete(m));
    }

    #[test]
    fn allocator_name_reflects_exponent() {
        assert_eq!(HeavyAllocator::default().name(), "A_heavy");
        let ablated = HeavyAllocator::new(HeavyConfig {
            slack_exponent: 0.5,
            ..HeavyConfig::default()
        });
        assert!(ablated.name().contains("alpha=0.50"));
    }
}
