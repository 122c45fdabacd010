//! The replay driver: push any [`Trace`] through any engine × policy ×
//! weights × thread count, producing a stable [`ReplayOutcome`].
//!
//! Replay is route-by-route: the `i`-th arrival of the trace is the `i`-th
//! `route(key)` call, and a ball scripted `r=<j>` is released immediately
//! after arrival `j` routes. Because every engine stamps sequential ball
//! ids, the replayed ids equal the trace's arrival ids, and the
//! single-caller determinism contract of the workspace carries over:
//! replaying the same trace on [`StreamAllocator`] and a 1-caller
//! [`ConcurrentRouter`] — two ownership shells of one engine core, driven
//! here by one event-ordered body — yields bit-identical placements, loads,
//! gap trajectories and batch counts — the regression anchor
//! `tests/replay_properties.rs` and the golden files pin.
//!
//! With [`ReplayConfig::route_group`] ≥ 1 the deterministic engines
//! (`Stream` and `Concurrent {{ callers: 1 }}`) replay through the batched
//! `route_many` surface instead: consecutive arrivals are buffered into
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
//! {{ callers: 1 }}` — each `m` line stages the change exactly where the
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
use pba_model::router::{OneShotRouter, Router, Ticket};
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
    /// Arrival grouping for the deterministic engines: `0` (the default)
    /// replays route-by-route through `route(key)`; `n ≥ 1` buffers up to
    /// `n` consecutive arrivals and routes each group through `route_many`,
    /// cutting groups early at scripted-release points and non-arrival
    /// events (see the [module docs](self)). Outcomes are bit-identical for
    /// every value — the knob the `mini-batched` golden varies to prove it.
    /// Ignored by k-caller and one-shot replays.
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
    /// `Concurrent {{ callers: 1 }}` and `OneShot`; schedule-dependent for
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
    match config.engine {
        ReplayEngine::Stream => replay_stream(trace, config),
        ReplayEngine::Concurrent { callers } => replay_concurrent(trace, config, callers),
        ReplayEngine::OneShot => replay_one_shot(trace),
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

/// The event-ordered replay of the two deterministic engines — the sole
/// owner and the 1-caller handle are shells over one core with the same
/// method names, so one body serves both: every arrival routes (or joins its
/// `route_many` group) where the trace has it, its scripted releases fire
/// right after it, and reweights and membership changes are staged exactly
/// where the trace interleaves them (the engine applies them at its next
/// batch boundary).
macro_rules! replay_in_trace_order {
    ($engine:ident, $label:expr, $trace:ident, $config:ident, $registry:ident) => {{
        let due = release_schedule($trace);
        let arrivals = $trace.arrivals() as usize;
        let mut placements = Vec::with_capacity(arrivals);
        let mut tickets: Vec<Option<Ticket>> = Vec::with_capacity(arrivals);
        let group = $config.route_group;
        let mut buffered: Vec<u64> = Vec::with_capacity(group);
        // Routes the buffered arrival group through `route_many` (grouped
        // replay only; with `route_group == 0` the buffer is never filled).
        macro_rules! flush_group {
            () => {
                if !buffered.is_empty() {
                    let routed = $engine.route_many(&buffered);
                    for placement in routed.expect("streaming route is infallible") {
                        placements.push(placement.bin as u32);
                        tickets.push(Some(placement.ticket));
                    }
                    buffered.clear();
                }
            };
        }
        let mut id = 0u64;
        for event in &$trace.events {
            match event {
                TraceEvent::Arrival { key, .. } => {
                    if group == 0 {
                        let placement = $engine.route(*key);
                        let placement = placement.expect("streaming route is infallible");
                        placements.push(placement.bin as u32);
                        tickets.push(Some(placement.ticket));
                    } else {
                        buffered.push(*key);
                        // An arrival with scripted releases ends its group so
                        // the releases fire at the same point as
                        // route-by-route.
                        if due.contains_key(&id) || buffered.len() >= group {
                            flush_group!();
                        }
                    }
                    if let Some(ready) = due.get(&id) {
                        for &ball in ready {
                            let ticket = tickets[ball as usize]
                                .take()
                                .expect("trace schedules each release once");
                            $engine
                                .release(ticket)
                                .expect("scripted ticket is resident");
                        }
                    }
                    id += 1;
                }
                TraceEvent::Reweight { weights } => {
                    flush_group!();
                    $engine.set_weights(Trace::weights_of(weights));
                }
                TraceEvent::Membership { event } => {
                    flush_group!();
                    $engine.stage_membership(MembershipPlan::new().push(*event));
                }
            }
        }
        flush_group!();
        $engine.flush();
        let stats = $engine.stats();
        ReplayOutcome {
            engine: $label.label(),
            placements,
            loads: $engine.loads(),
            gap_trajectory: $engine.gap_trajectory().to_vec(),
            batches: stats.batches,
            final_gap: stats.gap,
            resident: stats.resident,
            routed: stats.routed,
            released: stats.released,
            drops: pba_obs::drops_of(&$registry.snapshot()),
            conserved: $engine.conserves_balls()
                && $engine.snapshot_epoch() == stats.batches
                && $engine.resident_tickets() as u64 == stats.routed - stats.released,
        }
    }};
}

fn replay_stream(trace: &Trace, config: &ReplayConfig) -> Result<ReplayOutcome, ReplayError> {
    let registry = Arc::new(MetricsRegistry::new());
    let mut stream = StreamAllocator::new(stream_config(trace, config));
    stream.install_metrics(registry.clone());
    let label = ReplayEngine::Stream;
    Ok(replay_in_trace_order!(
        stream, label, trace, config, registry
    ))
}

fn replay_concurrent(
    trace: &Trace,
    config: &ReplayConfig,
    callers: usize,
) -> Result<ReplayOutcome, ReplayError> {
    let label = ReplayEngine::Concurrent { callers };
    if callers == 0 {
        return Err(ReplayError::NoCallers);
    }
    if trace.has_reweights() {
        return Err(ReplayError::UnsupportedReweight {
            engine: label.label(),
        });
    }
    if trace.has_membership() && callers != 1 {
        return Err(ReplayError::UnsupportedMembership {
            engine: label.label(),
        });
    }
    let registry = Arc::new(MetricsRegistry::new());
    let router = ConcurrentRouter::with_metrics(stream_config(trace, config), registry.clone());
    if callers == 1 {
        return Ok(replay_in_trace_order!(
            router, label, trace, config, registry
        ));
    }
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
    // cursor passes their release point. With one caller this is exactly the
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
    router.flush();
    let stats = router.stats();
    Ok(ReplayOutcome {
        engine: label.label(),
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
    })
}

fn replay_one_shot(trace: &Trace) -> Result<ReplayOutcome, ReplayError> {
    if trace.has_reweights() {
        return Err(ReplayError::UnsupportedReweight {
            engine: ReplayEngine::OneShot.label(),
        });
    }
    if trace.has_membership() {
        return Err(ReplayError::UnsupportedMembership {
            engine: ReplayEngine::OneShot.label(),
        });
    }
    let arrivals = trace.arrivals();
    let mut router =
        OneShotRouter::new(HeavyAllocator::default(), arrivals, trace.bins, trace.seed);
    let due = release_schedule(trace);
    let mut placements = Vec::with_capacity(arrivals as usize);
    let mut tickets: Vec<Option<Ticket>> = Vec::with_capacity(arrivals as usize);
    let mut id = 0u64;
    for event in &trace.events {
        let TraceEvent::Arrival { key, .. } = event else {
            continue;
        };
        let placement = router.route(*key).expect("router sized to the trace");
        placements.push(placement.bin as u32);
        tickets.push(Some(placement.ticket));
        if let Some(ready) = due.get(&id) {
            for &ball in ready {
                let ticket = tickets[ball as usize]
                    .take()
                    .expect("trace schedules each release once");
                router.release(ticket).expect("scripted ticket is resident");
            }
        }
        id += 1;
    }
    let stats = router.stats();
    Ok(ReplayOutcome {
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
    })
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
        // reproduce the route-by-route outcome exactly, on both deterministic
        // engines, including across membership staging points.
        for trace in [
            Trace::mini(),
            Trace::mini_batched(),
            Trace::mini_membership(),
        ] {
            for policy in [
                Policy::TwoChoice,
                Policy::CapacityThreshold { d: 2, slack: 2 },
            ] {
                let stream_loop = replay(&trace, &ReplayConfig::stream(policy)).unwrap();
                let conc_loop = replay(&trace, &ReplayConfig::concurrent(policy, 1)).unwrap();
                for group in [1usize, 3, 7, 64] {
                    let stream_grouped =
                        replay(&trace, &ReplayConfig::stream(policy).route_group(group)).unwrap();
                    let conc_grouped = replay(
                        &trace,
                        &ReplayConfig::concurrent(policy, 1).route_group(group),
                    )
                    .unwrap();
                    for (grouped, looped) in
                        [(&stream_grouped, &stream_loop), (&conc_grouped, &conc_loop)]
                    {
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
