//! The replay driver: push any [`Trace`] through any engine × policy ×
//! weights, producing a stable [`ReplayOutcome`].
//!
//! Replay is route-by-route: the `i`-th arrival of the trace is the `i`-th
//! `route(key)` call, and a ball scripted `r=<j>` is released immediately
//! after arrival `j` routes. Because every engine stamps sequential ball
//! ids, the replayed ids equal the trace's arrival ids. Every
//! deterministic replay — the 1-caller [`ConcurrentRouter`] and the one-shot
//! adapter — runs one event loop, generic over [`Router`], and so does the
//! fault harness: [`crate::fault::FaultPlan`] edits the loop's release and
//! reversal schedule and injects through its hooks, so an empty plan *is* the
//! clean replay. The streaming fingerprint is built in one place for every
//! caller count.
//!
//! With [`ReplayConfig::route_group`] ≥ 1 the deterministic engines replay
//! through the batched `route_many` surface instead: consecutive arrivals are
//! buffered into groups of up to `route_group` keys and routed in one call.
//! Groups are cut early at every point where route-by-route replay would
//! interleave a side effect — an arrival whose id carries scripted releases
//! ends its group (so the releases fire at exactly the same point in the call
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
//! Reweighting and v2 (membership) traces replay on `Concurrent { callers: 1
//! }` — each `w` or `m` line stages the change exactly where the trace
//! interleaves it, and the engine applies it at its next batch boundary.
//! With k > 1 callers there is no deterministic staging point relative to
//! the dealt arrivals, and the one-shot adapter has no boundaries at all, so
//! both refuse with [`ReplayError::UnsupportedReweight`] or
//! [`ReplayError::UnsupportedMembership`]. The engines are sized with
//! [`Trace::needed_reserve`] reserve slots so every scripted `m add` finds a
//! retired slot to commission.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use pba_algorithms::HeavyAllocator;
use pba_model::router::{OneShotRouter, Placement, Router, Ticket};
use pba_model::weights::BinWeights;
use pba_model::Allocator;
use pba_obs::MetricsRegistry;
use pba_stream::{ConcurrentRouter, MembershipPlan, Policy, StreamConfig};

use crate::trace::{Trace, TraceEvent};

/// Which engine a replay drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplayEngine {
    /// The shared-handle [`ConcurrentRouter`] with `callers` caller threads
    /// (`1` is the deterministic streaming replay).
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
            Self::Concurrent { callers } => format!("concurrent{callers}"),
            Self::OneShot => "oneshot".into(),
        }
    }
}

/// One replay configuration: engine × policy × weights.
#[derive(Debug, Clone)]
pub struct ReplayConfig {
    /// The engine to drive.
    pub engine: ReplayEngine,
    /// Placement policy (ignored by [`ReplayEngine::OneShot`]).
    pub policy: Policy,
    /// Bin weights (must prescribe the trace's bin count when non-uniform;
    /// ignored by [`ReplayEngine::OneShot`]).
    pub weights: BinWeights,
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
    /// A `callers`-thread concurrent replay with the given policy and
    /// uniform weights.
    pub fn concurrent(policy: Policy, callers: usize) -> Self {
        Self {
            engine: ReplayEngine::Concurrent { callers },
            policy,
            weights: BinWeights::Uniform,
            route_group: 0,
        }
    }

    /// A one-shot replay (policy/weights ignored by the adapter).
    pub fn one_shot() -> Self {
        Self {
            engine: ReplayEngine::OneShot,
            ..Self::concurrent(Policy::TwoChoice, 1)
        }
    }

    /// Sets the weights (builder style).
    pub fn weights(mut self, weights: BinWeights) -> Self {
        self.weights = weights;
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
    /// The trace reweights mid-stream, which replays deterministically only
    /// on a 1-caller [`ReplayEngine::Concurrent`]: k callers have no
    /// well-defined staging point relative to the dealt arrivals, and the
    /// one-shot adapter has no batch boundaries to apply at.
    UnsupportedReweight {
        /// The engine that cannot replay the trace.
        engine: String,
    },
    /// The trace stages membership changes, which replay deterministically
    /// only on a 1-caller [`ReplayEngine::Concurrent`], for the same reasons
    /// as [`ReplayError::UnsupportedReweight`].
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
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayOutcome {
    /// Engine label (see [`ReplayEngine::label`]).
    pub engine: String,
    /// Bin chosen per arrival id. Deterministic for `Concurrent { callers: 1
    /// }` and `OneShot`; schedule-dependent for k > 1 callers (still
    /// recorded — each run's own evidence).
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

/// What the event loop delivers besides the trace's own order: the releases
/// due at each arrival point and the arrival windows delivered in reverse.
/// [`Schedule::of`] is the clean replay's; the fault harness edits it.
#[derive(Debug, Clone, Default)]
pub(crate) struct Schedule {
    /// Ball ids released right after each arrival point routes, in id order.
    pub(crate) due: HashMap<u64, Vec<u64>>,
    /// Arrival windows `[start, end)` delivered in reverse, keyed by `start`.
    pub(crate) reversed: HashMap<u64, u64>,
}

impl Schedule {
    /// The trace's scripted releases, delivered in trace order.
    pub(crate) fn of(trace: &Trace) -> Self {
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
        Self {
            due,
            reversed: HashMap::new(),
        }
    }
}

/// The calls the event loop makes into its caller. Each default is the
/// clean replay's: stage nothing, release plainly, inject nothing.
pub(crate) trait ReplayHooks<R: Router> {
    /// Stages a reweight or membership event where the trace has it.
    fn stage(&mut self, _router: &mut R, _event: &TraceEvent) {}

    /// Releases scripted ball `ball`, whose ticket is `ticket`.
    fn release(&mut self, router: &mut R, _ball: u64, ticket: Ticket) {
        router.release(ticket).expect("scripted ticket is resident");
    }

    /// Runs once arrival point `point` has routed and its releases are done.
    fn settled(&mut self, _router: &mut R, _point: u64) {}
}

/// A clean replay's hooks: the handle stages the trace's events, the
/// one-shot adapter admits none.
pub(crate) struct Clean;

impl ReplayHooks<ConcurrentRouter> for Clean {
    fn stage(&mut self, router: &mut ConcurrentRouter, event: &TraceEvent) {
        stage(router, event);
    }
}

impl<A: Allocator> ReplayHooks<OneShotRouter<A>> for Clean {}

/// Stages a trace's reweight or membership event on the handle; the engine
/// applies it at its next batch boundary. A `w` line weighs the trace's bins;
/// the engine's reserve slots past them keep their current weight.
pub(crate) fn stage(router: &ConcurrentRouter, event: &TraceEvent) {
    match event {
        TraceEvent::Reweight { weights } if weights.is_empty() => {
            router.set_weights(BinWeights::Uniform);
        }
        TraceEvent::Reweight { weights } => {
            let reserve = (weights.len()..router.capacity()).map(|bin| router.slot_weight(bin));
            router.set_weights(BinWeights::explicit(
                weights.iter().copied().chain(reserve).collect(),
            ));
        }
        TraceEvent::Membership { event } => {
            router.stage_membership(MembershipPlan::new().push(*event));
        }
        TraceEvent::Arrival { .. } => unreachable!("arrivals route, they are not staged"),
    }
}

/// Replays `trace` under `config`. See the [module docs](self) for the
/// schedule semantics per engine.
pub fn replay(trace: &Trace, config: &ReplayConfig) -> Result<ReplayOutcome, ReplayError> {
    config.engine.admit(trace)?;
    Ok(match config.engine {
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
            Self::Concurrent { callers: 2.. } | Self::OneShot if trace.has_reweights() => {
                Err(ReplayError::UnsupportedReweight { engine })
            }
            Self::Concurrent { callers: 2.. } | Self::OneShot if trace.has_membership() => {
                Err(ReplayError::UnsupportedMembership { engine })
            }
            _ => Ok(()),
        }
    }
}

pub(crate) fn stream_config(trace: &Trace, config: &ReplayConfig) -> StreamConfig {
    StreamConfig::new(trace.bins)
        .policy(config.policy)
        .batch_size(trace.batch_size)
        .seed(trace.seed)
        .weights(config.weights.clone())
        .reserve_bins(trace.needed_reserve())
}

/// The event-ordered replay every deterministic engine runs, returning the
/// bin chosen per arrival. Each arrival routes (or joins its `route_many`
/// group when `group ≥ 1`), after the reweight and membership events the
/// trace puts before it go to [`ReplayHooks::stage`]. Then each arrival
/// point settles: the releases `schedule` has due there go to
/// [`ReplayHooks::release`], and [`ReplayHooks::settled`] runs. A reversed
/// window routes its arrivals last to first, each with its staged events,
/// then settles its points in ascending order. With `group ≥ 1` a point
/// settles with arrivals since the last cut still buffered; the fault
/// harness replays route-by-route.
pub(crate) fn replay_events<R: Router>(
    router: &mut R,
    trace: &Trace,
    group: usize,
    schedule: &Schedule,
    hooks: &mut impl ReplayHooks<R>,
) -> Vec<u32> {
    // Each arrival's key, with the events the trace stages before it.
    let mut arrivals: Vec<(&[TraceEvent], u64)> = Vec::new();
    let mut from = 0;
    for (at, event) in trace.events.iter().enumerate() {
        if let TraceEvent::Arrival { key, .. } = event {
            arrivals.push((&trace.events[from..at], *key));
            from = at + 1;
        }
    }
    let m = arrivals.len() as u64;
    let mut routed = Routed {
        group,
        placed: vec![None; arrivals.len()],
        keys: Vec::with_capacity(group),
        ids: Vec::with_capacity(group),
    };
    let mut start = 0u64;
    while start < m {
        let end = schedule
            .reversed
            .get(&start)
            .map_or(start + 1, |&end| end.clamp(start + 1, m));
        for id in (start..end).rev() {
            let (staged, key) = arrivals[id as usize];
            for event in staged {
                routed.flush(router);
                hooks.stage(router, event);
            }
            routed.push(router, id, key);
        }
        for point in start..end {
            if let Some(balls) = schedule.due.get(&point) {
                routed.flush(router);
                for &ball in balls {
                    let placed = routed.placed[ball as usize];
                    let ticket = placed.expect("a ball routes before its release").ticket;
                    hooks.release(router, ball, ticket);
                }
            }
            hooks.settled(router, point);
        }
        start = end;
    }
    routed.flush(router);
    for event in &trace.events[from..] {
        hooks.stage(router, event);
    }
    let placed = routed
        .placed
        .into_iter()
        .map(|p| p.expect("every arrival routes"));
    placed.map(|p| p.bin as u32).collect()
}

/// The arrivals placed so far, by id, and the group still buffered for
/// `route_many` (grouped replay only; route-by-route never buffers).
struct Routed {
    group: usize,
    placed: Vec<Option<Placement>>,
    keys: Vec<u64>,
    ids: Vec<u64>,
}

impl Routed {
    fn push<R: Router>(&mut self, router: &mut R, id: u64, key: u64) {
        if self.group == 0 {
            let placement = router.route(key).expect("the engine routes every arrival");
            self.placed[id as usize] = Some(placement);
            return;
        }
        self.keys.push(key);
        self.ids.push(id);
        if self.keys.len() >= self.group {
            self.flush(router);
        }
    }

    fn flush<R: Router>(&mut self, router: &mut R) {
        if self.keys.is_empty() {
            return;
        }
        let placements = router
            .route_many(&self.keys)
            .expect("the engine routes every arrival");
        self.keys.clear();
        for (id, placement) in self.ids.drain(..).zip(placements) {
            self.placed[id as usize] = Some(placement);
        }
    }
}

/// The fingerprint of a flushed handle, for every caller count and for the
/// fault harness. `conserved` is the conservation invariant *and* the books
/// agreeing with the counters: one snapshot epoch per batch boundary, one
/// resident ticket per unreleased route.
pub(crate) fn streaming_outcome(
    engine: ReplayEngine,
    placements: Vec<u32>,
    router: &ConcurrentRouter,
    registry: &MetricsRegistry,
) -> ReplayOutcome {
    let stats = router.stats();
    ReplayOutcome {
        engine: engine.label(),
        placements,
        loads: router.loads(),
        gap_trajectory: router.gap_trajectory(),
        batches: stats.batches,
        final_gap: stats.gap,
        resident: stats.resident,
        routed: stats.routed,
        released: stats.released,
        drops: pba_obs::drops_of(&registry.snapshot()),
        conserved: router.conserves_balls()
            && router.snapshot_epoch() == stats.batches
            && router.resident_tickets() as u64 == stats.routed - stats.released,
    }
}

fn replay_concurrent(trace: &Trace, config: &ReplayConfig, callers: usize) -> ReplayOutcome {
    let registry = Arc::new(MetricsRegistry::new());
    let mut router = ConcurrentRouter::with_metrics(stream_config(trace, config), registry.clone());
    let placements = if callers == 1 {
        let schedule = Schedule::of(trace);
        replay_events(
            &mut router,
            trace,
            config.route_group,
            &schedule,
            &mut Clean,
        )
    } else {
        replay_dealt(&router, trace, callers)
    };
    router.flush();
    streaming_outcome(config.engine, placements, &router, &registry)
}

/// The k-caller replay: deals the arrivals round-robin over `callers`
/// threads sharing `router` and returns the bin chosen per arrival.
fn replay_dealt(router: &ConcurrentRouter, trace: &Trace, callers: usize) -> Vec<u32> {
    let due = Schedule::of(trace).due;
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
    // 1-caller schedule — route arrival j, then release everything due at j.
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
    let schedule = Schedule::of(trace);
    let placements = replay_events(
        &mut router,
        trace,
        config.route_group,
        &schedule,
        &mut Clean,
    );
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
    fn grouped_replay_is_bit_identical_to_route_by_route() {
        // Every group size — aligned, misaligned, bigger than a batch — must
        // reproduce the route-by-route outcome exactly, on every
        // deterministic engine, including across reweight and membership
        // staging points (which the one-shot adapter refuses).
        for trace in [
            Trace::mini(),
            Trace::mini_batched(),
            Trace::mini_reweighted(),
            Trace::mini_membership(),
        ] {
            for policy in [
                Policy::TwoChoice,
                Policy::CapacityThreshold { d: 2, slack: 2 },
            ] {
                let mut configs = vec![ReplayConfig::concurrent(policy, 1)];
                if !trace.has_membership() && !trace.has_reweights() {
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
        // The streaming replay is the 1-caller handle, which stages the
        // reweights where the trace has them; k callers have no staging point.
        let trace = Trace::mini_reweighted();
        let outcome = replay(&trace, &ReplayConfig::concurrent(Policy::TwoChoice, 1)).unwrap();
        assert!(outcome.conserved);
        assert_eq!(outcome.drops, 0);
        assert!(matches!(
            replay(&trace, &ReplayConfig::concurrent(Policy::TwoChoice, 2)),
            Err(ReplayError::UnsupportedReweight { .. })
        ));
        assert!(matches!(
            replay(&trace, &ReplayConfig::one_shot()),
            Err(ReplayError::UnsupportedReweight { .. })
        ));
    }

    #[test]
    fn membership_traces_replay_on_one_caller() {
        let trace = Trace::mini_membership();
        for policy in [Policy::TwoChoice, Policy::Threshold { d: 2, slack: 1 }] {
            let outcome = replay(&trace, &ReplayConfig::concurrent(policy, 1)).unwrap();
            // `drops` folds in the *visible* policy fallbacks (the threshold
            // rule legitimately falls back under drain pressure). Plain
            // two-choice has no fallback path, so there the sum must be
            // exactly zero.
            if policy == Policy::TwoChoice {
                assert_eq!(outcome.drops, 0, "membership replay must not drop silently");
            }
            assert!(outcome.conserved);
            // The drained-then-removed slot 5 ends the trace recommissioned
            // (the first re-add reuses it), and the second add grew the
            // cluster past the recorded bin count.
            assert_eq!(outcome.loads.len(), trace.bins + trace.needed_reserve());
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
}
