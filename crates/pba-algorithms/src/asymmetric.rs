//! The asymmetric superbin algorithm (Section 5, Theorem 3).
//!
//! In the asymmetric setting all balls share a global labelling of the bins, so
//! the bins can be organised into **superbins** of consecutive bins, each
//! controlled by a leader bin. In every round:
//!
//! 1. every active ball picks a uniformly random bin label and contacts the
//!    **leader** of that bin's superbin;
//! 2. each leader accepts up to its quota of requests and answers them
//!    round-robin with an offset `j` into its superbin;
//! 3. a ball that received offset `j` from a leader whose superbin starts at bin
//!    `i` joins bin `i + j` and informs it.
//!
//! Because each non-final round accepts exactly `q_r` balls **per member bin**
//! (w.h.p. every leader receives enough requests to fill its quota), the
//! allocation stays perfectly balanced up to ±1 per bin per round; the final
//! round spreads the `O(n)` stragglers over superbins of at least `~log n` bins,
//! adding only `O(1)` balls per bin. Together with the optional symmetric
//! pre-round for `m > n·log n`, this yields Theorem 3's guarantees: constant
//! round count, maximal load `m/n + O(1)`, and `(1+o(1))·m/n + O(log n)` messages
//! per bin. Experiment E5 reproduces all three.
//!
//! **Reconstruction note (see DESIGN.md):** the source text's round schedule
//! (`n_r = m_r·min{n/m, 1/log n}`, terminate when `⌈m_r/n_r − δ_r⌉ ≤ 2c²log n`)
//! is internally inconsistent as transcribed — for `m ≫ n log n` the ratio
//! `m_r/n_r` stays constant across rounds, so the stated termination condition
//! can never fire even though Claim 9 argues termination within 3 rounds. We
//! implement the reconstruction below, which keeps the same leader / threshold /
//! round-robin mechanics and the same style of parameterisation
//! (`δ_r = c·√(μ_r·log n)` deviations, per-leader budgets of
//! `max(m_r/n, Θ(c²·log n))` messages, an accept-everything final round on
//! superbins of `≥ log n` bins), and provably preserves all three guarantees of
//! Theorem 3 while terminating in a small, `m/n`-independent number of rounds.

use pba_model::engine::{run_agent_engine, EngineConfig};
use pba_model::metrics::{MessageCensus, MessageTotals, RoundRecord};
use pba_model::outcome::{AllocationOutcome, Allocator};
use pba_model::protocol::FixedThresholdProtocol;
use pba_model::rng::SplitMix64;

/// Configuration of the asymmetric algorithm.
#[derive(Debug, Clone, Copy)]
pub struct AsymmetricConfig {
    /// The concentration constant `c` of `δ_r = c·√(μ_r · log n)`.
    pub c: f64,
    /// Run the single symmetric pre-round when `m > n·log n` (Theorem 3's
    /// message-bound refinement). Enabled by default.
    pub symmetric_preround: bool,
    /// Safety cap on the number of threshold ("bulk") rounds before the final
    /// accept-everything round is forced.
    pub max_bulk_rounds: usize,
    /// Safety cap on final (accept-everything) rounds; one is always enough in
    /// practice because a final round accepts every request it receives.
    pub max_final_rounds: usize,
}

impl Default for AsymmetricConfig {
    fn default() -> Self {
        Self {
            c: 2.0,
            symmetric_preround: true,
            max_bulk_rounds: 10,
            max_final_rounds: 4,
        }
    }
}

/// Execution trace of one asymmetric run.
#[derive(Debug, Clone, Default)]
pub struct AsymmetricTrace {
    /// Whether the symmetric pre-round ran.
    pub preround: bool,
    /// Superbin counts `n_r` per asymmetric round (bulk rounds then final rounds).
    pub superbins_per_round: Vec<usize>,
    /// Per-bin quotas `q_r` per bulk round (`u64::MAX` marks a final round).
    pub quotas_per_round: Vec<u64>,
    /// Number of bulk (threshold) rounds.
    pub bulk_rounds: usize,
    /// Number of final (accept-everything) rounds.
    pub final_rounds: usize,
}

/// The asymmetric superbin allocator.
#[derive(Debug, Clone, Default)]
pub struct AsymmetricAllocator {
    /// Algorithm configuration.
    pub config: AsymmetricConfig,
}

/// Internal per-round plan.
struct RoundPlan {
    /// Number of superbins.
    n_r: usize,
    /// Per-member-bin acceptance quota; `None` = accept everything (final round).
    per_bin_quota: Option<u64>,
}

impl AsymmetricAllocator {
    /// Creates an allocator with the given configuration.
    pub fn new(config: AsymmetricConfig) -> Self {
        Self { config }
    }

    fn plan_round(&self, m_r: u64, n: usize, log_n: f64, bulk_budget_left: bool) -> RoundPlan {
        let c = self.config.c.max(1.0);
        let nf = n as f64;
        let mean_r = m_r as f64 / nf;
        let stop = 2.0 * c * c * nf; // enter the final round below this many balls
        if (m_r as f64) <= stop || !bulk_budget_left {
            // Final round: superbins of ≥ ~log n bins, accept everything.
            let max_superbins = ((nf / log_n.ceil()).floor() as usize).max(1);
            let wanted = ((m_r as f64) / (2.0 * c * c * log_n)).ceil() as usize;
            let n_r = wanted.clamp(1, max_superbins);
            return RoundPlan {
                n_r,
                per_bin_quota: None,
            };
        }
        // Bulk round: superbin size s chosen so each leader expects
        // max(m_r/n, 4c²·log n) requests; per-bin quota q_r = mean − deviation,
        // where the deviation is the per-bin share of the leader-level Chernoff
        // slack δ = c·√(E[requests]·log n).
        let s = ((4.0 * c * c * log_n * nf / m_r as f64).ceil() as usize).clamp(1, n);
        let n_r = (n / s).max(1);
        let expected_per_leader = mean_r * s as f64;
        let delta = c * (expected_per_leader * log_n).sqrt();
        let q_r = ((expected_per_leader - delta) / s as f64).floor().max(0.0) as u64;
        if q_r == 0 {
            // Not enough headroom for a threshold round; go straight to the final.
            return self.plan_round(m_r, n, log_n, false);
        }
        RoundPlan {
            n_r,
            per_bin_quota: Some(q_r),
        }
    }

    /// Runs the algorithm and also returns its [`AsymmetricTrace`].
    pub fn allocate_traced(
        &self,
        m: u64,
        n: usize,
        seed: u64,
    ) -> (AllocationOutcome, AsymmetricTrace) {
        assert!(n > 0 || m == 0, "cannot allocate {m} balls into zero bins");
        let mut trace = AsymmetricTrace::default();
        if m == 0 {
            return (
                AllocationOutcome {
                    loads: vec![0; n],
                    ..Default::default()
                },
                trace,
            );
        }

        let nf = n as f64;
        let log_n = nf.ln().max(1.0);

        let mut loads = vec![0u32; n];
        let mut census = MessageCensus::new(n, None);
        let mut totals = MessageTotals::default();
        let mut per_round: Vec<RoundRecord> = Vec::new();
        let mut rounds = 0usize;
        let mut unallocated: Vec<u64>;

        // ---- Optional symmetric pre-round (only useful when m > n log n). ----
        if self.config.symmetric_preround && (m as f64) > nf * log_n {
            let mean = m as f64 / nf;
            let threshold = (mean - mean.powf(2.0 / 3.0)).floor().max(0.0) as u32;
            let mut pre = FixedThresholdProtocol::new(threshold, 1);
            pre.max_rounds = 1;
            let r = run_agent_engine(&pre, m, n, seed, &EngineConfig::sequential());
            loads = r.loads;
            census = r.census;
            totals = r.totals;
            per_round = r.per_round;
            rounds = r.rounds;
            unallocated = r.remaining_balls;
            trace.preround = true;
        } else {
            unallocated = (0..m).collect();
        }

        // ---- Asymmetric superbin rounds. ----
        // Scratch buffers reused across rounds.
        let mut accepted_in_group: Vec<u64> = Vec::new();
        while !unallocated.is_empty() {
            let bulk_budget_left = trace.bulk_rounds < self.config.max_bulk_rounds;
            let plan = self.plan_round(unallocated.len() as u64, n, log_n, bulk_budget_left);
            let is_final = plan.per_bin_quota.is_none();
            if is_final {
                if trace.final_rounds >= self.config.max_final_rounds {
                    break;
                }
                trace.final_rounds += 1;
            } else {
                trace.bulk_rounds += 1;
            }
            trace.superbins_per_round.push(plan.n_r);
            trace
                .quotas_per_round
                .push(plan.per_bin_quota.unwrap_or(u64::MAX));

            let n_r = plan.n_r;
            // Balanced partition: superbin g covers bins [g·n/n_r, (g+1)·n/n_r),
            // so sizes differ by at most one bin.
            let group_start = |g: usize| g * n / n_r;
            let group_of_bin = |b: usize| -> usize {
                // Inverse of the balanced partition (exact despite integer division).
                let mut g = (b * n_r) / n;
                while group_start(g + 1) <= b {
                    g += 1;
                }
                while group_start(g) > b {
                    g -= 1;
                }
                g
            };

            accepted_in_group.clear();
            accepted_in_group.resize(n_r, 0);

            let before = unallocated.len() as u64;
            let mut next_unallocated = Vec::new();
            let mut accepted_this_round = 0u64;
            let round_index = rounds;
            let round_key = SplitMix64::substream_key(seed ^ 0xA57u64, round_index as u64);

            for &ball in &unallocated {
                let mut rng = SplitMix64::for_stream_under(round_key, ball);
                // The ball picks a uniformly random bin label and contacts the
                // leader of that bin's superbin, so leaders of larger superbins
                // receive proportionally more requests.
                let b = rng.gen_index(n);
                let g = group_of_bin(b);
                let start = group_start(g);
                let end = group_start(g + 1).max(start + 1);
                let size = (end - start) as u64;
                // The leader role rotates within the superbin across rounds so that
                // no single bin pays the leader's message cost every round.
                let leader = start + (round_index % size as usize);
                census.per_bin_received[leader] += 1;
                totals.requests += 1;

                let rank = accepted_in_group[g];
                let cap = match plan.per_bin_quota {
                    Some(q) => q.saturating_mul(size),
                    None => u64::MAX,
                };
                if rank < cap {
                    accepted_in_group[g] += 1;
                    let offset = (rank % size) as usize;
                    let member = start + offset;
                    loads[member] += 1;
                    totals.responses += 1;
                    totals.accepts += 1;
                    totals.notifications += 1; // the ball informs its member bin
                    census.per_bin_received[member] += 1;
                    accepted_this_round += 1;
                } else {
                    next_unallocated.push(ball);
                }
            }

            per_round.push(RoundRecord {
                round: round_index,
                unallocated_before: before,
                unallocated_after: next_unallocated.len() as u64,
                requests: before,
                accepts: accepted_this_round,
                committed: accepted_this_round,
                global_threshold: plan.per_bin_quota,
            });
            rounds += 1;
            unallocated = next_unallocated;
        }

        // ---- Deterministic fallback (never taken in practice: a final round
        // accepts every request, so `unallocated` can only be non-empty here if
        // the round caps were configured to zero). ----
        if !unallocated.is_empty() {
            for _ball in &unallocated {
                let (idx, _) = loads
                    .iter()
                    .enumerate()
                    .min_by_key(|&(_, &l)| l)
                    .expect("n > 0");
                loads[idx] += 1;
                totals.requests += 1;
                totals.responses += 1;
                totals.accepts += 1;
                census.per_bin_received[idx] += 1;
            }
            rounds += 1;
            unallocated.clear();
        }

        (
            AllocationOutcome {
                loads,
                rounds,
                unallocated: 0,
                messages: totals,
                per_round,
                census,
            },
            trace,
        )
    }
}

impl Allocator for AsymmetricAllocator {
    fn name(&self) -> String {
        "asymmetric-superbin".to_string()
    }

    fn allocate(&self, m: u64, n: usize, seed: u64) -> AllocationOutcome {
        self.allocate_traced(m, n, seed).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_rounds_and_constant_excess_heavy_regime() {
        // m > n log n: pre-round plus a handful of asymmetric rounds, independent
        // of how large m/n is.
        for &(m, n) in &[
            (1u64 << 20, 1usize << 10),
            (1 << 22, 1 << 12),
            (1 << 18, 1 << 8),
        ] {
            for seed in 0..3u64 {
                let alloc = AsymmetricAllocator::default();
                let (out, trace) = alloc.allocate_traced(m, n, seed);
                assert!(out.is_complete(m), "m={m} n={n} seed={seed}");
                assert!(
                    out.rounds <= 9,
                    "m={m} n={n} seed={seed}: {} rounds is not constant-like",
                    out.rounds
                );
                assert!(trace.preround);
                assert!(trace.final_rounds <= 2);
                let excess = out.excess(m);
                assert!(
                    excess <= 16,
                    "m={m} n={n} seed={seed}: excess {excess} too large"
                );
            }
        }
    }

    #[test]
    fn round_count_does_not_grow_with_ratio() {
        // The defining contrast with the symmetric algorithm: the number of rounds
        // is (essentially) independent of m/n.
        let n = 1usize << 8;
        let r_small = AsymmetricAllocator::default()
            .allocate((n as u64) << 6, n, 3)
            .rounds;
        let r_large = AsymmetricAllocator::default()
            .allocate((n as u64) << 14, n, 3)
            .rounds;
        assert!(
            r_large <= r_small + 3,
            "rounds grew with m/n: {r_small} -> {r_large}"
        );
        assert!(r_large <= 9);
    }

    #[test]
    fn light_regime_uses_superbins_and_stays_logarithmic() {
        // m <= n log n: no pre-round; the final round hands each superbin's balls
        // round-robin over at least ~log n member bins.
        let n = 1usize << 12;
        let m = (n as u64) * 3; // well below n log n
        let alloc = AsymmetricAllocator::default();
        let (out, trace) = alloc.allocate_traced(m, n, 5);
        assert!(out.is_complete(m));
        assert!(!trace.preround);
        assert!(out.rounds <= 4);
        assert!(
            trace.superbins_per_round[0] < n,
            "superbins should group bins"
        );
        assert!(
            out.max_load() <= m.div_ceil(n as u64) + 20,
            "max load {} too large",
            out.max_load()
        );
    }

    #[test]
    fn per_bin_messages_match_theorem_three() {
        let m = 1u64 << 20;
        let n = 1usize << 10;
        let alloc = AsymmetricAllocator::default();
        let out = alloc.allocate(m, n, 7);
        let mean = m as f64 / n as f64;
        let bound = 1.35 * mean + 60.0 * (n as f64).ln();
        let max_received = out.census.per_bin_received.iter().copied().max().unwrap() as f64;
        assert!(
            max_received <= bound,
            "a bin received {max_received} messages, bound {bound}"
        );
    }

    #[test]
    fn total_messages_linear_in_m() {
        let m = 1u64 << 20;
        let n = 1usize << 10;
        let alloc = AsymmetricAllocator::default();
        let out = alloc.allocate(m, n, 11);
        assert!(out.messages.requests <= 3 * m);
        assert!(out.messages.total() <= 9 * m);
    }

    #[test]
    fn deterministic_per_seed() {
        let alloc = AsymmetricAllocator::default();
        let a = alloc.allocate(1 << 18, 1 << 9, 42);
        let b = alloc.allocate(1 << 18, 1 << 9, 42);
        assert_eq!(a.loads, b.loads);
        assert_eq!(a.rounds, b.rounds);
        let c = alloc.allocate(1 << 18, 1 << 9, 43);
        assert_ne!(a.loads, c.loads);
    }

    #[test]
    fn trace_reports_schedule_parameters() {
        let alloc = AsymmetricAllocator::default();
        let (_, trace) = alloc.allocate_traced(1 << 20, 1 << 10, 3);
        assert_eq!(
            trace.superbins_per_round.len(),
            trace.quotas_per_round.len()
        );
        assert!(!trace.superbins_per_round.is_empty());
        assert_eq!(
            trace.bulk_rounds + trace.final_rounds,
            trace.superbins_per_round.len()
        );
        // The last planned round is an accept-everything round.
        assert_eq!(*trace.quotas_per_round.last().unwrap(), u64::MAX);
    }

    #[test]
    fn loads_stay_balanced() {
        // Each bulk round adds the same quota to every bin and the final round adds
        // O(1), so the final gap must be small.
        let m = 1u64 << 20;
        let n = 1usize << 10;
        let alloc = AsymmetricAllocator::default();
        let (out, _) = alloc.allocate_traced(m, n, 13);
        let min = out.loads.iter().copied().min().unwrap() as i64;
        let max = out.loads.iter().copied().max().unwrap() as i64;
        assert!(
            max - min <= 32,
            "load gap {} too large for an asymmetric allocation",
            max - min
        );
    }

    #[test]
    fn small_and_degenerate_instances() {
        let alloc = AsymmetricAllocator::default();
        let out = alloc.allocate(0, 16, 1);
        assert_eq!(out.allocated(), 0);

        let out = alloc.allocate(5, 1, 1);
        assert!(out.is_complete(5));
        assert_eq!(out.loads, vec![5]);

        let out = alloc.allocate(17, 4, 2);
        assert!(out.is_complete(17));

        let out = alloc.allocate(1000, 999, 3);
        assert!(out.is_complete(1000));
    }

    #[test]
    fn disabling_preround_still_completes() {
        let alloc = AsymmetricAllocator::new(AsymmetricConfig {
            symmetric_preround: false,
            ..AsymmetricConfig::default()
        });
        let m = 1u64 << 18;
        let n = 1usize << 9;
        let (out, trace) = alloc.allocate_traced(m, n, 9);
        assert!(out.is_complete(m));
        assert!(!trace.preround);
        assert!(out.rounds <= 12);
    }

    #[test]
    fn forced_final_round_still_allocates_everything() {
        // With zero bulk rounds allowed, the algorithm goes straight to the
        // accept-everything final round(s) and must still complete.
        let alloc = AsymmetricAllocator::new(AsymmetricConfig {
            max_bulk_rounds: 0,
            ..AsymmetricConfig::default()
        });
        let m = 1u64 << 16;
        let n = 1usize << 8;
        let (out, trace) = alloc.allocate_traced(m, n, 21);
        assert!(out.is_complete(m));
        assert_eq!(trace.bulk_rounds, 0);
        assert!(trace.final_rounds >= 1);
    }

    #[test]
    fn non_power_of_two_bin_counts() {
        // The balanced partition must handle n that is not a multiple of the
        // superbin count.
        let alloc = AsymmetricAllocator::default();
        for &(m, n) in &[(100_000u64, 777usize), (50_000, 333), (12_345, 101)] {
            let out = alloc.allocate(m, n, 5);
            assert!(out.is_complete(m), "m={m} n={n}");
            assert!(out.excess(m) <= 20, "m={m} n={n} excess={}", out.excess(m));
        }
    }
}
