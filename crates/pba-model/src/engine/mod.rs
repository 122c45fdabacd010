//! Protocol executors.
//!
//! Two engines execute a [`Protocol`](crate::protocol::Protocol):
//!
//! * the [**agent engine**](agent::run_agent_engine) simulates every ball:
//!   it samples each ball's bin choices from its own deterministic stream and
//!   plays the three-step round of Section 3 exactly, as one pass over the
//!   unallocated balls in which each bin counts the requests it has heard. A
//!   round holds `O(n + leftover)` memory — per-bin vectors and the balls
//!   rejected so far — never a buffer sized by `m`. It optionally tracks
//!   per-ball message counts, and runs on the calling thread: every random
//!   choice is a pure function of `(seed, ball, round)`.
//! * the [**count engine**](counts::run_count_engine) tracks only per-bin request
//!   *counts* per round (a multinomial sample), which is sufficient for degree-1
//!   protocols whose quotas depend only on counts. It scales to instances far
//!   larger than memory would allow for per-ball simulation.
//!
//! Both return an [`EngineResult`], convertible into the workspace-wide
//! [`AllocationOutcome`](crate::outcome::AllocationOutcome).

pub mod agent;
pub mod counts;

pub use agent::{run_agent_engine, run_agent_engine_on};
pub use counts::run_count_engine;

use crate::metrics::{MessageCensus, MessageTotals, RoundRecord};
use crate::outcome::AllocationOutcome;

/// Execution options for the engines.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Not read by either engine: the agent engine's round is one pass on the
    /// calling thread. The field stays while the benchmark sets it (through
    /// `HeavyConfig::parallel`).
    pub parallel: bool,
    /// Track per-ball sent-message counts (agent engine only; costs `O(m)` memory).
    pub track_per_ball: bool,
    /// Record a [`RoundRecord`] per round.
    pub record_rounds: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            parallel: false,
            track_per_ball: false,
            record_rounds: true,
        }
    }
}

impl EngineConfig {
    /// Sequential execution with round tracing (the default).
    pub fn sequential() -> Self {
        Self::default()
    }

    /// The default with [`EngineConfig::parallel`] set, which changes nothing.
    pub fn parallel() -> Self {
        Self {
            parallel: true,
            ..Self::default()
        }
    }

    /// Enables per-ball message tracking (builder style).
    pub fn with_per_ball_tracking(mut self, enabled: bool) -> Self {
        self.track_per_ball = enabled;
        self
    }

    /// Enables or disables per-round records (builder style).
    pub fn with_round_records(mut self, enabled: bool) -> Self {
        self.record_rounds = enabled;
        self
    }
}

/// The raw result of an engine execution.
#[derive(Debug, Clone, Default)]
pub struct EngineResult {
    /// Final committed load per bin.
    pub loads: Vec<u32>,
    /// Rounds executed.
    pub rounds: usize,
    /// Balls still unallocated when the engine stopped.
    pub remaining: u64,
    /// Identities of the balls still unallocated (agent engine only; empty for the
    /// count engine). `A_heavy` uses this to hand phase-1 leftovers to `A_light`.
    pub remaining_balls: Vec<u64>,
    /// Message totals.
    pub totals: MessageTotals,
    /// Per-round records (empty when disabled).
    pub per_round: Vec<RoundRecord>,
    /// Message census (per-ball part empty unless tracking was enabled).
    pub census: MessageCensus,
}

impl EngineResult {
    /// Converts the engine result into the workspace-wide outcome type.
    pub fn into_outcome(self) -> AllocationOutcome {
        AllocationOutcome {
            loads: self.loads,
            rounds: self.rounds,
            unallocated: self.remaining,
            messages: self.totals,
            per_round: self.per_round,
            census: self.census,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_builders() {
        let c = EngineConfig::sequential();
        assert!(!c.parallel);
        assert!(c.record_rounds);
        let p = EngineConfig::parallel()
            .with_per_ball_tracking(true)
            .with_round_records(false);
        assert!(p.parallel);
        assert!(p.track_per_ball);
        assert!(!p.record_rounds);
    }

    #[test]
    fn engine_result_into_outcome_maps_fields() {
        let r = EngineResult {
            loads: vec![2, 3],
            rounds: 4,
            remaining: 1,
            remaining_balls: vec![7],
            totals: MessageTotals {
                requests: 10,
                responses: 10,
                accepts: 5,
                notifications: 0,
            },
            per_round: vec![],
            census: MessageCensus::new(2, None),
        };
        let o = r.into_outcome();
        assert_eq!(o.loads, vec![2, 3]);
        assert_eq!(o.rounds, 4);
        assert_eq!(o.unallocated, 1);
        assert_eq!(o.messages.requests, 10);
        assert_eq!(o.allocated(), 5);
    }
}
