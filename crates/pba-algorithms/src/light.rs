//! `A_light` — the `[LW16]` substrate (Theorem 5).
//!
//! Theorem 5 (quoted from the paper) promises a symmetric algorithm placing `n`
//! balls into `n` bins within `log* n + O(1)` rounds with bin load at most 2,
//! using `O(n)` messages in total. `A_heavy` uses it as a black box for its
//! phase 2 (with each real bin simulating `O(1)` virtual bins).
//!
//! **Substitution note (see DESIGN.md):** the original Lenzen–Wattenhofer
//! protocol is re-implemented here as its standard *adaptive request-doubling
//! collision protocol*:
//!
//! * every bin has capacity `c` (default 2) and accepts requests while it has
//!   spare capacity;
//! * in round `r`, every still-unallocated ball contacts `k_r` bins chosen
//!   uniformly at random, where `k_r` follows the tower sequence
//!   `1, 2, 4, 16, 2^16, …` capped by a per-round message budget of
//!   `budget_factor · n / u_r` (so the total number of messages stays `O(n)`
//!   even though the degree explodes);
//! * a ball that receives several accepts joins the first one and releases the
//!   others.
//!
//! The number of unallocated balls drops roughly like `u ↦ u·2^{-k_r}` which
//! iterates to the `log* n + O(1)` round bound; experiment E6 verifies rounds,
//! load and message count empirically, which is all Theorem 6 relies on.

use pba_model::engine::{run_agent_engine, run_agent_engine_on, EngineConfig};
use pba_model::outcome::{AllocationOutcome, Allocator};
use pba_model::protocol::{Protocol, RoundCtx};

/// Configuration of `A_light`.
#[derive(Debug, Clone, Copy)]
pub struct LightConfig {
    /// Per-bin capacity (Theorem 5: 2).
    pub capacity: u32,
    /// Message budget factor: in a round with `u` unallocated balls the degree is
    /// capped at `budget_factor · n / u` (at least 1). Keeps total messages `O(n)`.
    pub budget_factor: f64,
    /// Safety cap on rounds (`log* n` is at most 5 for any feasible `n`, so this
    /// is generous).
    pub max_rounds: usize,
    /// Passed on as
    /// [`EngineConfig::parallel`](pba_model::engine::EngineConfig::parallel),
    /// which the agent engine does not read: it changes no result and no
    /// speed.
    pub parallel: bool,
}

impl Default for LightConfig {
    fn default() -> Self {
        Self {
            capacity: 2,
            budget_factor: 4.0,
            max_rounds: 64,
            parallel: false,
        }
    }
}

/// The request-doubling collision protocol (see the module docs).
#[derive(Debug, Clone)]
pub struct LightProtocol {
    config: LightConfig,
    name: String,
}

impl LightProtocol {
    /// Creates the protocol.
    pub fn new(config: LightConfig) -> Self {
        Self {
            name: format!("light(capacity={})", config.capacity),
            config,
        }
    }

    /// The tower-sequence degree for round `r` (0-based): 1, 2, 4, 16, 65536, …
    fn tower_degree(round: usize) -> u64 {
        let mut k: u64 = 1;
        for _ in 0..round {
            if k >= 32 {
                return u64::MAX;
            }
            k = 1u64 << k;
        }
        k
    }
}

impl Protocol for LightProtocol {
    fn name(&self) -> &str {
        &self.name
    }

    fn degree(&self, ctx: &RoundCtx) -> usize {
        if ctx.remaining == 0 || ctx.n_bins == 0 {
            return 1;
        }
        let tower = Self::tower_degree(ctx.round);
        let budget =
            ((self.config.budget_factor * ctx.n_bins as f64 / ctx.remaining as f64).floor() as u64)
                .max(1);
        let cap = ctx.n_bins as u64;
        tower.min(budget).min(cap).max(1) as usize
    }

    fn distinct_choices(&self) -> bool {
        true
    }

    fn bin_quota(&self, _bin: u32, committed: u32, _ctx: &RoundCtx) -> u32 {
        self.config.capacity.saturating_sub(committed)
    }

    fn global_threshold(&self, _ctx: &RoundCtx) -> Option<u64> {
        Some(self.config.capacity as u64)
    }

    fn max_rounds(&self) -> usize {
        self.config.max_rounds
    }
}

/// `A_light` as a standalone [`Allocator`] (used directly by experiment E6 and as
/// the phase-2 subroutine of `A_heavy`).
#[derive(Debug, Clone, Default)]
pub struct LightAllocator {
    /// Protocol configuration.
    pub config: LightConfig,
}

impl LightAllocator {
    /// Creates an allocator with the given configuration.
    pub fn new(config: LightConfig) -> Self {
        Self { config }
    }

    /// Runs `A_light` for an explicit set of ball identities on `n` bins, as
    /// `A_heavy` does for its phase-2 leftovers. `m_total` sizes the per-ball
    /// census when tracking is enabled.
    pub fn allocate_balls(
        &self,
        balls: &[u64],
        m_total: u64,
        n: usize,
        seed: u64,
        track_per_ball: bool,
    ) -> pba_model::engine::EngineResult {
        let protocol = LightProtocol::new(self.config);
        let engine_cfg = EngineConfig {
            parallel: self.config.parallel,
            track_per_ball,
            record_rounds: true,
        };
        run_agent_engine_on(&protocol, balls, m_total, n, seed, &engine_cfg)
    }
}

impl Allocator for LightAllocator {
    fn name(&self) -> String {
        format!("A_light(capacity={})", self.config.capacity)
    }

    fn allocate(&self, m: u64, n: usize, seed: u64) -> AllocationOutcome {
        let protocol = LightProtocol::new(self.config);
        let engine_cfg = EngineConfig {
            parallel: self.config.parallel,
            track_per_ball: false,
            record_rounds: true,
        };
        run_agent_engine(&protocol, m, n, seed, &engine_cfg).into_outcome()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pba_stats::log_star;

    #[test]
    fn tower_degree_sequence() {
        assert_eq!(LightProtocol::tower_degree(0), 1);
        assert_eq!(LightProtocol::tower_degree(1), 2);
        assert_eq!(LightProtocol::tower_degree(2), 4);
        assert_eq!(LightProtocol::tower_degree(3), 16);
        assert_eq!(LightProtocol::tower_degree(4), 65536);
        assert_eq!(LightProtocol::tower_degree(5), u64::MAX);
        assert_eq!(LightProtocol::tower_degree(50), u64::MAX);
    }

    #[test]
    fn degree_respects_budget_and_bin_count() {
        let p = LightProtocol::new(LightConfig::default());
        // Early rounds with many balls: degree stays small.
        let ctx = RoundCtx {
            round: 3,
            n_bins: 1000,
            m_total: 1000,
            remaining: 1000,
        };
        // tower(3) = 16 but budget = 4 * 1000/1000 = 4.
        assert_eq!(p.degree(&ctx), 4);
        // Few balls left: budget is huge, tower and bin count cap apply.
        let ctx_late = RoundCtx {
            round: 3,
            n_bins: 1000,
            m_total: 1000,
            remaining: 2,
        };
        assert_eq!(p.degree(&ctx_late), 16);
        let ctx_tiny_bins = RoundCtx {
            round: 4,
            n_bins: 8,
            m_total: 8,
            remaining: 1,
        };
        assert_eq!(p.degree(&ctx_tiny_bins), 8);
    }

    #[test]
    fn load_never_exceeds_capacity() {
        for n in [256usize, 1024, 4096] {
            let alloc = LightAllocator::default();
            let out = alloc.allocate(n as u64, n, 7);
            assert_eq!(out.unallocated, 0, "n = {n}");
            assert!(out.loads.iter().all(|&l| l <= 2), "n = {n}");
            assert_eq!(out.allocated(), n as u64);
        }
    }

    #[test]
    fn rounds_are_log_star_plus_constant() {
        for n in [1usize << 10, 1 << 14, 1 << 16] {
            let alloc = LightAllocator::default();
            let out = alloc.allocate(n as u64, n, 3);
            assert_eq!(out.unallocated, 0);
            let bound = log_star(n as f64) as usize + 6;
            assert!(
                out.rounds <= bound,
                "n = {n}: {} rounds exceeds log* n + 6 = {bound}",
                out.rounds
            );
        }
    }

    #[test]
    fn total_messages_are_linear() {
        for n in [1usize << 12, 1 << 15] {
            let alloc = LightAllocator::default();
            let out = alloc.allocate(n as u64, n, 11);
            assert_eq!(out.unallocated, 0);
            let per_ball = out.messages.total() as f64 / n as f64;
            assert!(
                per_ball < 16.0,
                "n = {n}: {:.1} messages per ball is not O(1)-ish",
                per_ball
            );
        }
    }

    #[test]
    fn capacity_one_still_terminates_with_enough_bins() {
        // u balls into 4u bins with capacity 1: a pure collision protocol.
        let u = 2048u64;
        let n = 4 * u as usize;
        let alloc = LightAllocator::new(LightConfig {
            capacity: 1,
            ..LightConfig::default()
        });
        let out = alloc.allocate(u, n, 5);
        assert_eq!(out.unallocated, 0);
        assert!(out.loads.iter().all(|&l| l <= 1));
    }

    #[test]
    fn allocate_balls_preserves_identities_and_loads() {
        let balls: Vec<u64> = (1000..1500).collect();
        let n = 512usize;
        let alloc = LightAllocator::default();
        let r = alloc.allocate_balls(&balls, 2000, n, 9, true);
        assert_eq!(r.remaining, 0);
        assert_eq!(
            r.loads.iter().map(|&l| l as u64).sum::<u64>(),
            balls.len() as u64
        );
        // Only the given balls sent messages.
        let senders = r
            .census
            .per_ball_sent
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, _)| i as u64)
            .collect::<Vec<_>>();
        assert!(senders.iter().all(|b| balls.contains(b)));
        assert_eq!(senders.len(), balls.len());
    }

    #[test]
    fn fewer_balls_than_bins_is_fine() {
        let alloc = LightAllocator::default();
        let out = alloc.allocate(100, 10_000, 13);
        assert_eq!(out.unallocated, 0);
        assert!(out.loads.iter().all(|&l| l <= 2));
        assert!(
            out.rounds <= 2,
            "100 balls into 10k bins should finish almost immediately (took {})",
            out.rounds
        );
    }

    #[test]
    fn zero_balls() {
        let alloc = LightAllocator::default();
        let out = alloc.allocate(0, 128, 1);
        assert_eq!(out.rounds, 0);
        assert_eq!(out.allocated(), 0);
    }

    #[test]
    fn allocator_name_mentions_capacity() {
        assert!(LightAllocator::default().name().contains("capacity=2"));
    }
}
