//! The replay driver: push any [`Trace`] through any engine × policy ×
//! weights × thread count, producing a stable [`ReplayOutcome`].
//!
//! Replay is route-by-route: the `i`-th arrival of the trace is the `i`-th
//! `route(key)` call, and a ball scripted `r=<j>` is released immediately
//! after arrival `j` routes. Because every engine stamps sequential ball
//! ids, the replayed ids equal the trace's arrival ids, and the
//! single-caller determinism contract of the workspace carries over:
//! replaying the same trace on [`StreamAllocator`] and a 1-caller
//! [`ConcurrentRouter`] — two ownership shells of one engine core — yields
//! bit-identical placements, loads, gap trajectories and batch counts — the
//! regression anchor `tests/replay_properties.rs` and the golden files pin.
//! Every deterministic replay (both shells and the one-shot adapter) runs
//! one event loop, generic over [`Router`]; the streaming fingerprint is
//! built in one place for both shells and every caller count.
//!
//! With [`ReplayConfig::route_group`] ≥ 1 the deterministic engines
//! (`Stream`, `Concurrent { callers: 1 }` and `OneShot`) replay through the
//! batched `route_many` surface instead: consecutive arrivals are buffered into
//! groups of up to `route_group` keys and routed in one call. Groups are cut
//! early at every point where route-by-route replay would interleave a
//! side effect — an arrival whose id carries scripted releases ends its
//! group (so the releases fire at exactly the same point in the call
//! sequence), and any `Reweight`/`Membership` event flushes the buffer
//! before staging. Because `route_many` is bit-identical to a loop of
//! `route` calls, grouped replay pins the *same* golden lines as
//! route-by-route replay — the property the `mini-batched` golden trace
//! exists to hold.
//!
//! With `Concurrent { callers: k > 1 }` the arrival sequence is dealt
//! round-robin across `k` caller threads (each routing its share in trace
//! order, releasing its own scripted balls); placements then depend on the
//! interleaving, but conservation, ledger consistency and epoch monotonicity
//! must hold for every schedule — the invariants [`crate::invariants`]
//! checks. `OneShot` replays the arrival **count** through a precomputed
//! [`OneShotRouter`] (keys are ignored there by contract — the documented
//! deviation of the adapter), exercising the same release schedule.
//!
//! v2 traces (membership events) replay on `Stream` and `Concurrent
//! { callers: 1 }` — each `m` line stages the change exactly where the
//! trace interleaves it, the engine applies it at its next batch boundary,
//! and the 1-caller bit-identity contract extends through scale events. With
//! k > 1 callers there is no deterministic staging point relative to the
//! dealt arrivals, and the one-shot adapter has no boundaries at all, so
//! both refuse with [`ReplayError::UnsupportedMembership`]. The engines are
//! sized with [`Trace::needed_reserve`] reserve slots so every scripted
//! `m add` finds a retired slot to commission.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use pba_algorithms::HeavyAllocator;
use pba_model::router::{OneShotRouter, Placement, Router, Ticket};
use pba_model::weights::BinWeights;
use pba_obs::MetricsRegistry;
use pba_stream::{ConcurrentRouter, MembershipPlan, Policy, StreamAllocator, StreamConfig};

use crate::trace::{Trace, TraceEvent};

/// Which engine a replay drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplayEngine {
    /// The single-threaded [`StreamAllocator`], via its `route` surface.
    Stream,
    /// The shared-handle [`ConcurrentRouter`] with `callers` caller threads
    /// (`1` is the bit-identical twin of [`ReplayEngine::Stream`]).
    Concurrent {
        /// Caller threads routing the trace concurrently.
        callers: usize,
    },
    /// A precomputed [`OneShotRouter`] over [`HeavyAllocator`] (keys are
    /// ignored by the adapter's contract; the arrival count and release
    /// schedule still replay).
    OneShot,
}

impl ReplayEngine {
    /// Short label used in golden-snapshot lines.
    pub fn label(&self) -> String {
        match self {
            Self::Stream => "stream".into(),
            Self::Concurrent { callers } => format!("concurrent{callers}"),
            Self::OneShot => "oneshot".into(),
        }
    }
}

/// One replay configuration: engine × policy × weights × drain threads.
#[derive(Debug, Clone)]
pub struct ReplayConfig {
    /// The engine to drive.
    pub engine: ReplayEngine,
    /// Placement policy (ignored by [`ReplayEngine::OneShot`]).
    pub policy: Policy,
    /// Bin weights (must prescribe the trace's bin count when non-uniform;
    /// ignored by [`ReplayEngine::OneShot`]).
    pub weights: BinWeights,
    /// Drain threads (`0` = the ambient count / `PBA_THREADS`); placements
    /// are bit-identical for every value — the knob the golden matrix varies
    /// to prove it.
    pub num_threads: usize,
    /// Arrival grouping for the deterministic replays: `0` (the default)
    /// replays route-by-route through `route(key)`; `n ≥ 1` buffers up to
    /// `n` consecutive arrivals and routes each group through `route_many`,
    /// cutting groups early at scripted-release points and non-arrival
    /// events (see the [module docs](self)). Outcomes are bit-identical for
    /// every value — the knob the `mini-batched` golden varies to prove it.
    /// Ignored by k-caller replays.
    pub route_group: usize,
}

impl ReplayConfig {
    /// A stream replay with the given policy, uniform weights, ambient
    /// thread count.
    pub fn stream(policy: Policy) -> Self {
        Self {
            engine: ReplayEngine::Stream,
            policy,
            weights: BinWeights::Uniform,
            num_threads: 0,
            route_group: 0,
        }
    }

    /// A `callers`-thread concurrent replay with the given policy.
    pub fn concurrent(policy: Policy, callers: usize) -> Self {
        Self {
            engine: ReplayEngine::Concurrent { callers },
            ..Self::stream(policy)
        }
    }

    /// A one-shot replay (policy/weights ignored by the adapter).
    pub fn one_shot() -> Self {
        Self {
            engine: ReplayEngine::OneShot,
            ..Self::stream(Policy::TwoChoice)
        }
    }

    /// Sets the weights (builder style).
    pub fn weights(mut self, weights: BinWeights) -> Self {
        self.weights = weights;
        self
    }

    /// Sets the drain worker count (builder style).
    pub fn num_threads(mut self, threads: usize) -> Self {
        self.num_threads = threads;
        self
    }

    /// Sets the arrival group size for `route_many` replay (builder style);
    /// `0` restores the route-by-route path.
    pub fn route_group(mut self, group: usize) -> Self {
        self.route_group = group;
        self
    }
}

/// Replay failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplayError {
    /// The trace reweights mid-stream, which only [`ReplayEngine::Stream`]
    /// supports (concurrent and one-shot engines fix weights at
    /// construction).
    UnsupportedReweight {
        /// The engine that cannot replay the trace.
        engine: String,
    },
    /// The trace stages membership changes, which replay deterministically
    /// only on [`ReplayEngine::Stream`] and a 1-caller
    /// [`ReplayEngine::Concurrent`] (a k-caller schedule has no well-defined
    /// staging point relative to the dealt arrivals, and the one-shot
    /// adapter has no batch boundaries to apply at).
    UnsupportedMembership {
        /// The engine that cannot replay the trace.
        engine: String,
    },
    /// `callers` was zero.
    NoCallers,
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::UnsupportedReweight { engine } => {
                write!(f, "engine {engine} cannot replay a reweighting trace")
            }
            Self::UnsupportedMembership { engine } => {
                write!(f, "engine {engine} cannot replay a membership trace")
            }
            Self::NoCallers => write!(f, "concurrent replay needs at least one caller"),
        }
    }
}

impl std::error::Error for ReplayError {}

/// The stable outcome of one replay: everything the golden snapshot hashes
/// or prints.
#[derive(Debug, Clone)]
pub struct ReplayOutcome {
    /// Engine label (see [`ReplayEngine::label`]).
    pub engine: String,
    /// Bin chosen per arrival id. Deterministic for `Stream`,
    /// `Concurrent { callers: 1 }` and `OneShot`; schedule-dependent for
    /// k > 1 callers (still recorded — each run's own evidence).
    pub placements: Vec<u32>,
    /// Final per-bin loads.
    pub loads: Vec<u32>,
    /// Per-batch gap trajectory.
    pub gap_trajectory: Vec<f64>,
    /// Batch boundaries produced.
    pub batches: u64,
    /// Gap after the final boundary.
    pub final_gap: f64,
    /// Balls resident at the end.
    pub resident: u64,
    /// Balls routed.
    pub routed: u64,
    /// Tickets released.
    pub released: u64,
    /// Sum of every no-silent-drops counter the engine fired (0 on a clean
    /// replay; `OneShot` carries no registry and always reports 0).
    pub drops: u64,
    /// Whether the engine's conservation invariant held at the end.
    pub conserved: bool,
}

/// Scripted releases of a trace, grouped by release point: entry `j` lists
/// the arrival ids to release right after arrival `j` routes.
pub(crate) fn release_schedule(trace: &Trace) -> HashMap<u64, Vec<u64>> {
    let mut due: HashMap<u64, Vec<u64>> = HashMap::new();
    let mut id = 0u64;
    for event in &trace.events {
        if let TraceEvent::Arrival { release_after, .. } = event {
            if let Some(after) = release_after {
                due.entry(*after).or_default().push(id);
            }
            id += 1;
        }
    }
    due
}

/// Replays `trace` under `config`. See the [module docs](self) for the
/// schedule semantics per engine.
pub fn replay(trace: &Trace, config: &ReplayConfig) -> Result<ReplayOutcome, ReplayError> {
    config.engine.admit(trace)?;
    Ok(match config.engine {
        ReplayEngine::Stream => replay_stream(trace, config),
        ReplayEngine::Concurrent { callers } => replay_concurrent(trace, config, callers),
        ReplayEngine::OneShot => replay_one_shot(trace, config),
    })
}

impl ReplayEngine {
    /// Refuses a trace this engine cannot replay deterministically: see
    /// [`ReplayError`] for which engine stages what.
    fn admit(&self, trace: &Trace) -> Result<(), ReplayError> {
        let engine = self.label();
        match *self {
            Self::Concurrent { callers: 0 } => Err(ReplayError::NoCallers),
            Self::Concurrent { .. } | Self::OneShot if trace.has_reweights() => {
                Err(ReplayError::UnsupportedReweight { engine })
            }
            Self::Concurrent { callers: 2.. } | Self::OneShot if trace.has_membership() => {
                Err(ReplayError::UnsupportedMembership { engine })
            }
            _ => Ok(()),
        }
    }
}

fn stream_config(trace: &Trace, config: &ReplayConfig) -> StreamConfig {
    StreamConfig::new(trace.bins)
        .policy(config.policy)
        .batch_size(trace.batch_size)
        .seed(trace.seed)
        .num_threads(config.num_threads)
        .weights(config.weights.clone())
        .reserve_bins(trace.needed_reserve())
}

/// The event-ordered replay every deterministic engine runs, returning the
/// bin chosen per arrival: each arrival routes (or joins its `route_many`
/// group when `group ≥ 1`) where the trace has it, its scripted releases fire
/// right after it, and each reweight or membership event goes to `stage`
/// exactly where the trace interleaves it, after the buffered group routes
/// (a streaming engine applies it at its next batch boundary).
fn replay_events<R: Router>(
    router: &mut R,
    trace: &Trace,
    group: usize,
    mut stage: impl FnMut(&mut R, &TraceEvent),
) -> Vec<u32> {
    let due = release_schedule(trace);
    let mut placed: Vec<Placement> = Vec::with_capacity(trace.arrivals() as usize);
    let mut buffered: Vec<u64> = Vec::with_capacity(group);
    let mut id = 0u64;
    for event in &trace.events {
        let TraceEvent::Arrival { key, .. } = event else {
            route_buffered(router, &mut buffered, &mut placed);
            stage(router, event);
            continue;
        };
        if group == 0 {
            placed.push(router.route(*key).expect("the engine routes every arrival"));
        } else {
            buffered.push(*key);
            // An arrival with scripted releases ends its group so the
            // releases fire at the same point as route-by-route.
            if due.contains_key(&id) || buffered.len() >= group {
                route_buffered(router, &mut buffered, &mut placed);
            }
        }
        for &ball in due.get(&id).into_iter().flatten() {
            let ticket = placed[ball as usize].ticket;
            router.release(ticket).expect("scripted ticket is resident");
        }
        id += 1;
    }
    route_buffered(router, &mut buffered, &mut placed);
    placed.iter().map(|p| p.bin as u32).collect()
}

/// Routes a buffered arrival group through `route_many` (grouped replay
/// only; route-by-route replay never fills the buffer).
fn route_buffered<R: Router>(router: &mut R, buffered: &mut Vec<u64>, placed: &mut Vec<Placement>) {
    if !buffered.is_empty() {
        let routed = router.route_many(buffered);
        placed.extend(routed.expect("the engine routes every arrival"));
        buffered.clear();
    }
}

/// The fingerprint of a flushed streaming engine, either shell: counters
/// and loads through its [`Router`] face, the rest from the shell's own
/// readings. `conserved` is the conservation invariant *and* the books
/// agreeing with the counters: one snapshot epoch per batch boundary, one
/// resident ticket per unreleased route.
#[allow(clippy::too_many_arguments)] // the shell's raw readings
pub(crate) fn streaming_outcome(
    engine: ReplayEngine,
    placements: Vec<u32>,
    router: &dyn Router,
    gap_trajectory: Vec<f64>,
    conserves_balls: bool,
    snapshot_epoch: u64,
    resident_tickets: usize,
    registry: &MetricsRegistry,
) -> ReplayOutcome {
    let stats = router.stats();
    ReplayOutcome {
        engine: engine.label(),
        placements,
        loads: router.loads(),
        gap_trajectory,
        batches: stats.batches,
        final_gap: stats.gap,
        resident: stats.resident,
        routed: stats.routed,
        released: stats.released,
        drops: pba_obs::drops_of(&registry.snapshot()),
        conserved: conserves_balls
            && snapshot_epoch == stats.batches
            && resident_tickets as u64 == stats.routed - stats.released,
    }
}

fn replay_stream(trace: &Trace, config: &ReplayConfig) -> ReplayOutcome {
    let registry = Arc::new(MetricsRegistry::new());
    let mut stream = StreamAllocator::new(stream_config(trace, config));
    stream.install_metrics(registry.clone());
    let stage = |stream: &mut StreamAllocator, event: &TraceEvent| match event {
        TraceEvent::Reweight { weights } => stream.set_weights(Trace::weights_of(weights)),
        TraceEvent::Membership { event } => {
            stream.stage_membership(MembershipPlan::new().push(*event));
        }
        TraceEvent::Arrival { .. } => unreachable!("arrivals route, they are not staged"),
    };
    let placements = replay_events(&mut stream, trace, config.route_group, stage);
    stream.flush();
    streaming_outcome(
        ReplayEngine::Stream,
        placements,
        &stream,
        stream.gap_trajectory().to_vec(),
        stream.conserves_balls(),
        stream.snapshot_epoch(),
        stream.resident_tickets(),
        &registry,
    )
}

fn replay_concurrent(trace: &Trace, config: &ReplayConfig, callers: usize) -> ReplayOutcome {
    let registry = Arc::new(MetricsRegistry::new());
    let mut router = ConcurrentRouter::with_metrics(stream_config(trace, config), registry.clone());
    let placements = if callers == 1 {
        replay_events(&mut router, trace, config.route_group, |router, event| {
            let TraceEvent::Membership { event } = event else {
                unreachable!("the handle admits no reweighting trace");
            };
            router.stage_membership(MembershipPlan::new().push(*event));
        })
    } else {
        replay_dealt(&router, trace, callers)
    };
    router.flush();
    streaming_outcome(
        ReplayEngine::Concurrent { callers },
        placements,
        &router,
        router.gap_trajectory(),
        router.conserves_balls(),
        router.snapshot_epoch(),
        router.resident_tickets(),
        &registry,
    )
}

/// The k-caller replay: deals the arrivals round-robin over `callers`
/// threads sharing `router` and returns the bin chosen per arrival.
fn replay_dealt(router: &ConcurrentRouter, trace: &Trace, callers: usize) -> Vec<u32> {
    let due = release_schedule(trace);
    let keys: Vec<u64> = trace
        .events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Arrival { key, .. } => Some(*key),
            TraceEvent::Reweight { .. } | TraceEvent::Membership { .. } => None,
        })
        .collect();
    let arrivals = keys.len();
    // Deal arrivals round-robin: caller `t` routes ids `t, t+k, t+2k, …` in
    // trace order and releases its *own* scripted balls once its routing
    // cursor passes their release point. With one caller this would be the
    // stream schedule — route arrival j, then release everything due at j.
    let mut workers = Vec::new();
    for t in 0..callers {
        let router = router.clone();
        let own: Vec<(u64, u64)> = (t..arrivals)
            .step_by(callers)
            .map(|id| (id as u64, keys[id]))
            .collect();
        // This caller's scripted releases, keyed by the *own-arrival* after
        // which they fire: a release due at trace point j fires once the
        // caller has routed its last own arrival ≤ j (every caller would
        // otherwise need cross-thread progress tracking).
        let mut own_due: HashMap<u64, Vec<u64>> = HashMap::new();
        for (&(own_id, _), next) in own.iter().zip(own.iter().skip(1).map(Some).chain([None])) {
            let upper = match next {
                Some(&(next_id, _)) => next_id, // points in [own_id, next_id)
                None => arrivals as u64,        // tail: everything remaining
            };
            for point in own_id..upper {
                if let Some(ready) = due.get(&point) {
                    let mine: Vec<u64> = ready
                        .iter()
                        .copied()
                        .filter(|ball| (*ball as usize) % callers == t)
                        .collect();
                    if !mine.is_empty() {
                        own_due.entry(own_id).or_default().extend(mine);
                    }
                }
            }
        }
        workers.push(std::thread::spawn(move || {
            let mut placed: Vec<(u64, u32)> = Vec::with_capacity(own.len());
            let mut tickets: HashMap<u64, Ticket> = HashMap::new();
            for &(id, key) in &own {
                let placement = router.route(key).expect("concurrent route is infallible");
                placed.push((id, placement.bin as u32));
                tickets.insert(id, placement.ticket);
                if let Some(ready) = own_due.get(&id) {
                    for ball in ready {
                        let ticket = tickets.remove(ball).expect("own ball routed earlier");
                        router.release(ticket).expect("scripted ticket is resident");
                    }
                }
            }
            placed
        }));
    }
    let mut placements = vec![0u32; arrivals];
    for worker in workers {
        for (id, bin) in worker.join().expect("caller thread") {
            placements[id as usize] = bin;
        }
    }
    placements
}

fn replay_one_shot(trace: &Trace, config: &ReplayConfig) -> ReplayOutcome {
    let arrivals = trace.arrivals();
    let mut router =
        OneShotRouter::new(HeavyAllocator::default(), arrivals, trace.bins, trace.seed);
    let placements = replay_events(&mut router, trace, config.route_group, |_, _| {
        unreachable!("the one-shot adapter admits no staged event")
    });
    let stats = router.stats();
    ReplayOutcome {
        engine: ReplayEngine::OneShot.label(),
        placements,
        loads: router.loads(),
        gap_trajectory: vec![stats.gap],
        batches: stats.batches,
        final_gap: stats.gap,
        resident: stats.resident,
        routed: stats.routed,
        released: stats.released,
        drops: 0,
        conserved: stats.resident == stats.routed - stats.released,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_and_one_caller_concurrent_replays_are_bit_identical() {
        let trace = Trace::mini();
        for policy in [Policy::TwoChoice, Policy::Threshold { d: 2, slack: 1 }] {
            let stream = replay(&trace, &ReplayConfig::stream(policy)).unwrap();
            let concurrent = replay(&trace, &ReplayConfig::concurrent(policy, 1)).unwrap();
            assert_eq!(stream.placements, concurrent.placements);
            assert_eq!(stream.loads, concurrent.loads);
            assert_eq!(stream.gap_trajectory, concurrent.gap_trajectory);
            assert_eq!(stream.batches, concurrent.batches);
            assert_eq!(stream.drops, 0);
            assert!(stream.conserved && concurrent.conserved);
        }
    }

    #[test]
    fn grouped_replay_is_bit_identical_to_route_by_route() {
        // Every group size — aligned, misaligned, bigger than a batch — must
        // reproduce the route-by-route outcome exactly, on every
        // deterministic engine, including across membership staging points
        // (which the one-shot adapter refuses).
        for trace in [
            Trace::mini(),
            Trace::mini_batched(),
            Trace::mini_membership(),
        ] {
            for policy in [
                Policy::TwoChoice,
                Policy::CapacityThreshold { d: 2, slack: 2 },
            ] {
                let mut configs = vec![
                    ReplayConfig::stream(policy),
                    ReplayConfig::concurrent(policy, 1),
                ];
                if !trace.has_membership() {
                    configs.push(ReplayConfig::one_shot());
                }
                for config in configs {
                    let looped = replay(&trace, &config).unwrap();
                    for group in [1usize, 3, 7, 64] {
                        let grouped = replay(&trace, &config.clone().route_group(group)).unwrap();
                        assert_eq!(
                            grouped.placements, looped.placements,
                            "placements diverged: {} {} group={group}",
                            trace.name, grouped.engine
                        );
                        assert_eq!(grouped.loads, looped.loads);
                        assert_eq!(grouped.gap_trajectory, looped.gap_trajectory);
                        assert_eq!(grouped.batches, looped.batches);
                        assert_eq!(grouped.released, looped.released);
                        assert_eq!(grouped.drops, looped.drops);
                        assert!(grouped.conserved);
                    }
                }
            }
        }
    }

    #[test]
    fn multi_caller_replay_conserves_for_every_schedule() {
        let trace = Trace::mini();
        let outcome = replay(&trace, &ReplayConfig::concurrent(Policy::TwoChoice, 4)).unwrap();
        assert!(outcome.conserved);
        assert_eq!(outcome.routed, trace.arrivals());
        assert_eq!(
            outcome.released,
            trace
                .events
                .iter()
                .filter(|e| matches!(
                    e,
                    TraceEvent::Arrival {
                        release_after: Some(_),
                        ..
                    }
                ))
                .count() as u64
        );
    }

    #[test]
    fn reweighting_traces_replay_on_stream_only() {
        let trace = Trace::mini_reweighted();
        assert!(replay(&trace, &ReplayConfig::stream(Policy::TwoChoice)).is_ok());
        assert!(matches!(
            replay(&trace, &ReplayConfig::concurrent(Policy::TwoChoice, 1)),
            Err(ReplayError::UnsupportedReweight { .. })
        ));
        assert!(matches!(
            replay(&trace, &ReplayConfig::one_shot()),
            Err(ReplayError::UnsupportedReweight { .. })
        ));
    }

    #[test]
    fn membership_traces_replay_bit_identically_on_stream_and_one_caller() {
        let trace = Trace::mini_membership();
        for policy in [Policy::TwoChoice, Policy::Threshold { d: 2, slack: 1 }] {
            let stream = replay(&trace, &ReplayConfig::stream(policy)).unwrap();
            let concurrent = replay(&trace, &ReplayConfig::concurrent(policy, 1)).unwrap();
            assert_eq!(stream.placements, concurrent.placements);
            assert_eq!(stream.loads, concurrent.loads);
            assert_eq!(stream.gap_trajectory, concurrent.gap_trajectory);
            assert_eq!(stream.batches, concurrent.batches);
            // `drops` folds in the *visible* policy fallbacks (the threshold
            // rule legitimately falls back under drain pressure); bit-identity
            // makes the twins agree on those too. Plain two-choice has no
            // fallback path, so there the sum must be exactly zero.
            assert_eq!(stream.drops, concurrent.drops);
            if policy == Policy::TwoChoice {
                assert_eq!(stream.drops, 0, "membership replay must not drop silently");
            }
            assert!(stream.conserved && concurrent.conserved);
            // The drained-then-removed slot 5 ends the trace recommissioned
            // (the first re-add reuses it), and the second add grew the
            // cluster past the recorded bin count.
            assert_eq!(stream.loads.len(), trace.bins + trace.needed_reserve());
        }
    }

    #[test]
    fn membership_traces_refuse_engines_without_a_staging_point() {
        let trace = Trace::mini_membership();
        assert!(matches!(
            replay(&trace, &ReplayConfig::concurrent(Policy::TwoChoice, 4)),
            Err(ReplayError::UnsupportedMembership { .. })
        ));
        assert!(matches!(
            replay(&trace, &ReplayConfig::one_shot()),
            Err(ReplayError::UnsupportedMembership { .. })
        ));
    }

    #[test]
    fn one_shot_replay_is_deterministic_and_conserves() {
        let trace = Trace::mini();
        let a = replay(&trace, &ReplayConfig::one_shot()).unwrap();
        let b = replay(&trace, &ReplayConfig::one_shot()).unwrap();
        assert_eq!(a.placements, b.placements);
        assert_eq!(a.loads, b.loads);
        assert!(a.conserved);
        assert_eq!(a.routed, 48);
    }

    #[test]
    fn num_threads_does_not_change_stream_replay() {
        let trace = Trace::mini();
        let ambient = replay(&trace, &ReplayConfig::stream(Policy::TwoChoice)).unwrap();
        let dedicated = replay(
            &trace,
            &ReplayConfig::stream(Policy::TwoChoice).num_threads(4),
        )
        .unwrap();
        assert_eq!(ambient.placements, dedicated.placements);
        assert_eq!(ambient.loads, dedicated.loads);
        assert_eq!(ambient.gap_trajectory, dedicated.gap_trajectory);
    }
}
