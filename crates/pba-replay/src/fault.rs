//! [`FaultPlan`]: scripted fault injection over a trace replay, with named
//! counters and invariant checks after every fault.
//!
//! A fault plan replays a [`Trace`] on a [`StreamAllocator`] exactly like
//! [`crate::replay`], but injects failures at scripted arrival points:
//!
//! | fault | injection | named counter |
//! |---|---|---|
//! | [`Fault::CrashBin`] | force-release every ticketed resident of a bin mid-batch | `fault.bin_crash_releases` |
//! | [`Fault::DelayRelease`] | postpone one scripted release to a later arrival point | `fault.delayed_releases` |
//! | [`Fault::DuplicateRelease`] | replay one release a second time (must be rejected) | `fault.duplicated_releases` |
//! | [`Fault::ReorderWindow`] | deliver a window of arrivals in reverse order | `fault.reordered_arrivals` |
//! | [`Fault::PoisonObserver`] | poison an observer's lock mid-run | `fault.poisoned_observers` |
//! | [`Fault::Backpressure`] | bound an observer's queue so it sheds events | `fault.backpressure_dropped` |
//! | [`Fault::AddBinMidTrace`] | stage an unscripted bin commission mid-trace | `fault.bins_added` |
//! | [`Fault::DrainBinMidTrace`] | stage an unscripted bin drain mid-trace | `fault.bins_drained` |
//!
//! After each injection the harness runs the [`crate::invariants`] checks —
//! conservation, ledger consistency, counter identities — and records the
//! result per fault in a [`FaultCheck`]. The acceptance rule: **every
//! injected fault class leaves the invariants intact and its named counter
//! non-zero** (plus, where the engine itself rejects something, the engine's
//! own no-silent-drops counter fires too: a duplicated release shows up in
//! `route.rejected_unknown_ticket`, a poisoned observer in
//! `observer.errors`).
//!
//! Out-of-order delivery at the **ingress** (the concurrent push path) needs
//! the shared-handle engine; [`inject_ingress_reorder`] covers it via
//! [`ConcurrentRouter::stamp_delayed`], tripping `ingress.late_arrivals`.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::{Arc, Mutex};

use pba_model::router::{RouteEvent, RouterObserver, Ticket};
use pba_obs::{FaultCounters, MetricsRegistry};
use pba_stream::{ConcurrentRouter, MembershipPlan, Policy, StreamAllocator, StreamConfig};

use crate::invariants;
use crate::replay::{release_schedule, streaming_outcome, ReplayEngine, ReplayOutcome};
use crate::trace::{Trace, TraceEvent};

/// One scripted fault. Arrival points are trace arrival ids; a fault "at
/// `after_arrival = j`" injects right after arrival `j` has been routed (and
/// its scripted releases applied).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Fault {
    /// Crash `bin` after arrival `after_arrival`: every ticketed resident of
    /// the bin is force-released mid-batch through the normal release path.
    CrashBin {
        /// Injection point.
        after_arrival: u64,
        /// The bin that crashes.
        bin: usize,
    },
    /// Postpone the scripted release of ball `arrival` until after arrival
    /// `until` has been routed (clamped to the end of the trace).
    DelayRelease {
        /// The ball whose release is delayed.
        arrival: u64,
        /// New release point.
        until: u64,
    },
    /// Release ball `arrival` a second time right after its scripted
    /// release; the engine must reject the duplicate.
    DuplicateRelease {
        /// The ball released twice.
        arrival: u64,
    },
    /// Deliver arrivals `[start, start + len)` in reverse order.
    ReorderWindow {
        /// First arrival of the reversed window.
        start: u64,
        /// Window length in arrivals.
        len: usize,
    },
    /// Poison the harness observer's lock after arrival `after_arrival`;
    /// every later observer event is skipped and counted in
    /// `observer.errors`.
    PoisonObserver {
        /// Injection point.
        after_arrival: u64,
    },
    /// Attach an observer whose event queue holds at most `capacity` events;
    /// overflow is shed (and counted) instead of blocking the engine.
    Backpressure {
        /// Queue bound.
        capacity: usize,
    },
    /// Stage an **unscripted** bin commission after arrival `after_arrival`
    /// — a scale-up the trace never recorded. The harness sizes the engine's
    /// reserve so the add cannot be rejected for lack of a retired slot; the
    /// engine applies it at its next batch boundary.
    AddBinMidTrace {
        /// Injection point.
        after_arrival: u64,
        /// Capacity weight of the commissioned bin.
        weight: f64,
    },
    /// Stage an **unscripted** drain of `bin` after arrival `after_arrival`
    /// — a scale-down the trace never recorded. The bin leaves the sampling
    /// set at the next boundary but keeps its residents (conservation must
    /// hold through and after the shrink).
    DrainBinMidTrace {
        /// Injection point.
        after_arrival: u64,
        /// The bin to drain.
        bin: u32,
    },
}

impl Fault {
    /// Short display name (used in experiment tables).
    pub fn name(&self) -> &'static str {
        match self {
            Self::CrashBin { .. } => "bin-crash",
            Self::DelayRelease { .. } => "delayed-release",
            Self::DuplicateRelease { .. } => "duplicated-release",
            Self::ReorderWindow { .. } => "reordered-arrivals",
            Self::PoisonObserver { .. } => "poisoned-observer",
            Self::Backpressure { .. } => "backpressure",
            Self::AddBinMidTrace { .. } => "bin-added-mid-trace",
            Self::DrainBinMidTrace { .. } => "bin-drained-mid-trace",
        }
    }

    /// The named counter this fault class must fire.
    pub fn counter(&self) -> &'static str {
        match self {
            Self::CrashBin { .. } => "fault.bin_crash_releases",
            Self::DelayRelease { .. } => "fault.delayed_releases",
            Self::DuplicateRelease { .. } => "fault.duplicated_releases",
            Self::ReorderWindow { .. } => "fault.reordered_arrivals",
            Self::PoisonObserver { .. } => "fault.poisoned_observers",
            Self::Backpressure { .. } => "fault.backpressure_dropped",
            Self::AddBinMidTrace { .. } => "fault.bins_added",
            Self::DrainBinMidTrace { .. } => "fault.bins_drained",
        }
    }
}

/// The post-injection evidence of one fault.
#[derive(Debug, Clone)]
pub struct FaultCheck {
    /// [`Fault::name`] of the injected fault.
    pub fault: String,
    /// [`Fault::counter`] — the counter that must be non-zero.
    pub counter: String,
    /// The counter's value at check time.
    pub fired: u64,
    /// `Some(description)` when an invariant check failed right after the
    /// injection; `None` on a clean pass.
    pub invariant_error: Option<String>,
}

impl FaultCheck {
    /// The evidence of `fault` right after its injection: its counter's
    /// value and the engine's invariants at this instant.
    fn after(stream: &StreamAllocator, fault: &Fault, fired: u64) -> Self {
        Self {
            fault: fault.name().into(),
            counter: fault.counter().into(),
            fired,
            invariant_error: invariants::check_stream(stream, false).err(),
        }
    }

    /// True when the fault left its evidence and broke nothing: counter
    /// fired, invariants intact.
    pub fn passed(&self) -> bool {
        self.fired > 0 && self.invariant_error.is_none()
    }
}

/// A scripted set of faults to inject into one replay.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// The faults, in no particular order (each carries its own script
    /// point).
    pub faults: Vec<Fault>,
}

/// Outcome of a faulted replay: the final engine fingerprint, one
/// [`FaultCheck`] per injected fault, and the registry holding every engine
/// and fault counter.
#[derive(Debug)]
pub struct FaultRun {
    /// Final state, same shape as a clean [`crate::replay::replay`] outcome.
    pub outcome: ReplayOutcome,
    /// One check per injected fault, in injection order.
    pub checks: Vec<FaultCheck>,
    /// The registry the run recorded into (engine counters + `fault.*`).
    pub registry: Arc<MetricsRegistry>,
}

impl FaultRun {
    /// True when every fault fired its counter and no invariant broke.
    pub fn all_passed(&self) -> bool {
        self.checks.iter().all(FaultCheck::passed)
    }
}

/// A harness observer with a bounded event queue: events past `capacity`
/// are shed and counted instead of growing without bound (the backpressure
/// fault). Also the observer whose lock the poisoning fault breaks.
#[derive(Debug)]
struct BoundedLog {
    seen: Vec<u64>,
    capacity: usize,
    shed: pba_obs::Counter,
}

impl RouterObserver for BoundedLog {
    fn on_route(&mut self, event: &RouteEvent) {
        if self.seen.len() < self.capacity {
            self.seen.push(event.ticket.id());
        } else {
            self.shed.inc();
        }
    }
}

impl FaultPlan {
    /// Convenience: a plan with one fault.
    pub fn single(fault: Fault) -> Self {
        Self {
            faults: vec![fault],
        }
    }

    /// Replays `trace` on a [`StreamAllocator`] under `policy`, injecting
    /// every scripted fault and checking invariants after each. Reweight
    /// events in the trace apply as in a clean replay.
    pub fn run(&self, trace: &Trace, policy: Policy) -> FaultRun {
        let registry = Arc::new(MetricsRegistry::new());
        let fault_counters = FaultCounters::resolve(&registry);
        // Size the reserve so neither the trace's own `m add` lines nor the
        // injected scale-ups can be rejected for lack of a retired slot.
        let injected_adds = self
            .faults
            .iter()
            .filter(|f| matches!(f, Fault::AddBinMidTrace { .. }))
            .count();
        let mut stream = StreamAllocator::new(
            StreamConfig::new(trace.bins)
                .policy(policy)
                .batch_size(trace.batch_size)
                .seed(trace.seed)
                .reserve_bins(trace.needed_reserve() + injected_adds),
        );
        stream.install_metrics(registry.clone());

        // Index the scripted faults by their injection coordinates.
        let mut crash_at: HashMap<u64, Vec<usize>> = HashMap::new();
        let mut poison_at: HashSet<u64> = HashSet::new();
        let mut delays: BTreeMap<u64, u64> = BTreeMap::new();
        let mut duplicates: HashSet<u64> = HashSet::new();
        let mut reorder_at: HashMap<u64, usize> = HashMap::new();
        let mut add_bin_at: HashMap<u64, Vec<f64>> = HashMap::new();
        let mut drain_bin_at: HashMap<u64, Vec<u32>> = HashMap::new();
        let mut queue_capacity: Option<usize> = None;
        for fault in &self.faults {
            match *fault {
                Fault::CrashBin { after_arrival, bin } => {
                    crash_at.entry(after_arrival).or_default().push(bin);
                }
                Fault::DelayRelease { arrival, until } => {
                    delays.insert(arrival, until);
                }
                Fault::DuplicateRelease { arrival } => {
                    duplicates.insert(arrival);
                }
                Fault::ReorderWindow { start, len } => {
                    reorder_at.insert(start, len);
                }
                Fault::PoisonObserver { after_arrival } => {
                    poison_at.insert(after_arrival);
                }
                Fault::Backpressure { capacity } => queue_capacity = Some(capacity),
                Fault::AddBinMidTrace {
                    after_arrival,
                    weight,
                } => {
                    add_bin_at.entry(after_arrival).or_default().push(weight);
                }
                Fault::DrainBinMidTrace { after_arrival, bin } => {
                    drain_bin_at.entry(after_arrival).or_default().push(bin);
                }
            }
        }

        // The harness observer: backpressure bound when scripted (a huge
        // bound otherwise — attached regardless so the poisoning fault has a
        // lock to break and `on_route` traffic flows either way).
        let observer = Arc::new(Mutex::new(BoundedLog {
            seen: Vec::new(),
            capacity: queue_capacity.unwrap_or(usize::MAX),
            shed: fault_counters.backpressure_dropped.clone(),
        }));
        stream.add_observer(observer.clone());

        // One pre-scan: each arrival's key and scripted release point, and
        // the reweight and scripted membership events keyed by the arrival
        // id they precede.
        let mut arrivals: Vec<u64> = Vec::new();
        let mut scripted_release: Vec<Option<u64>> = Vec::new();
        let mut reweight_before: HashMap<u64, Vec<&[f64]>> = HashMap::new();
        let mut membership_before: HashMap<u64, MembershipPlan> = HashMap::new();
        for event in &trace.events {
            let id = arrivals.len() as u64;
            match event {
                TraceEvent::Arrival { key, release_after } => {
                    arrivals.push(*key);
                    scripted_release.push(*release_after);
                }
                TraceEvent::Reweight { weights } => {
                    reweight_before.entry(id).or_default().push(weights);
                }
                TraceEvent::Membership { event } => {
                    membership_before
                        .entry(id)
                        .or_default()
                        .extend(MembershipPlan::new().push(*event));
                }
            }
        }
        let m = arrivals.len() as u64;
        // The clean replay's release schedule, with each delayed ball moved
        // from its scripted point to its effective one (lists stay in id
        // order, as a scan of the trace would build them).
        let mut due = release_schedule(trace);
        let mut delay_notice_at: HashMap<u64, Vec<u64>> = HashMap::new();
        for (&ball, &until) in &delays {
            let Some(&Some(after)) = scripted_release.get(ball as usize) else {
                continue;
            };
            let effective = until.max(after).min(m.saturating_sub(1));
            if let Some(scripted) = due.get_mut(&after) {
                scripted.retain(|&id| id != ball);
            }
            let moved = due.entry(effective).or_default();
            moved.push(ball);
            moved.sort_unstable();
            delay_notice_at.entry(after).or_default().push(ball);
        }

        let mut checks: Vec<FaultCheck> = Vec::new();
        let mut placements = vec![0u32; arrivals.len()];
        let mut tickets: Vec<Option<Ticket>> = vec![None; arrivals.len()];

        let mut route_one = |stream: &mut StreamAllocator,
                             placements: &mut Vec<u32>,
                             tickets: &mut Vec<Option<Ticket>>,
                             id: u64| {
            for weights in reweight_before.remove(&id).unwrap_or_default() {
                stream.set_weights(Trace::weights_of(weights));
            }
            if let Some(plan) = membership_before.remove(&id) {
                stream.stage_membership(plan);
            }
            let placement = stream
                .route(arrivals[id as usize])
                .expect("streaming route is infallible");
            placements[id as usize] = placement.bin as u32;
            tickets[id as usize] = Some(placement.ticket);
        };

        // Releases everything due at `point`; duplicate and crashed-ball
        // releases turn into their respective counters instead of panics.
        let mut settle_point = |stream: &mut StreamAllocator,
                                tickets: &mut Vec<Option<Ticket>>,
                                checks: &mut Vec<FaultCheck>,
                                point: u64| {
            for ball in delay_notice_at.remove(&point).unwrap_or_default() {
                fault_counters.delayed_releases.inc();
                let fault = Fault::DelayRelease {
                    arrival: ball,
                    until: 0,
                };
                let fired = fault_counters.delayed_releases.get();
                checks.push(FaultCheck::after(stream, &fault, fired));
            }
            for ball in due.remove(&point).unwrap_or_default() {
                let ticket = tickets[ball as usize]
                    .take()
                    .expect("trace schedules each release once");
                if stream.release(ticket).is_err() {
                    // The ball died earlier (bin crash): the scripted
                    // release is dropped, visibly.
                    fault_counters.dropped_releases.inc();
                    continue;
                }
                if duplicates.contains(&ball) {
                    let rejected = stream.release(ticket).is_err();
                    assert!(rejected, "a duplicate release must be rejected");
                    fault_counters.duplicated_releases.inc();
                    let fault = Fault::DuplicateRelease { arrival: ball };
                    let fired = fault_counters.duplicated_releases.get();
                    checks.push(FaultCheck::after(stream, &fault, fired));
                }
            }
        };

        let mut id = 0u64;
        while id < m {
            if let Some(len) = reorder_at.remove(&id) {
                // Deliver the window in reverse, then settle its release
                // points in ascending order (a scripted release may name a
                // ball the reversal routes later).
                let end = (id + len as u64).min(m);
                for j in (id..end).rev() {
                    route_one(&mut stream, &mut placements, &mut tickets, j);
                }
                fault_counters.reordered_arrivals.add(end - id);
                let fault = Fault::ReorderWindow {
                    start: id,
                    len: (end - id) as usize,
                };
                let fired = fault_counters.reordered_arrivals.get();
                checks.push(FaultCheck::after(&stream, &fault, fired));
                for j in id..end {
                    settle_point(&mut stream, &mut tickets, &mut checks, j);
                }
                id = end;
                continue;
            }
            route_one(&mut stream, &mut placements, &mut tickets, id);
            settle_point(&mut stream, &mut tickets, &mut checks, id);
            for bin in crash_at.remove(&id).unwrap_or_default() {
                let evicted = stream.crash_bin(bin);
                fault_counters.bin_crash_releases.add(evicted);
                // The crash released the bin's tickets: a later scripted
                // release of one of them fails and counts under
                // `fault.dropped_releases`.
                let fault = Fault::CrashBin {
                    after_arrival: id,
                    bin,
                };
                let fired = fault_counters.bin_crash_releases.get();
                checks.push(FaultCheck::after(&stream, &fault, fired));
            }
            for weight in add_bin_at.remove(&id).unwrap_or_default() {
                stream.stage_membership(MembershipPlan::new().add(weight));
                fault_counters.bins_added.inc();
                let fault = Fault::AddBinMidTrace {
                    after_arrival: id,
                    weight,
                };
                let fired = fault_counters.bins_added.get();
                checks.push(FaultCheck::after(&stream, &fault, fired));
            }
            for bin in drain_bin_at.remove(&id).unwrap_or_default() {
                stream.stage_membership(MembershipPlan::new().drain(bin));
                fault_counters.bins_drained.inc();
                let fault = Fault::DrainBinMidTrace {
                    after_arrival: id,
                    bin,
                };
                let fired = fault_counters.bins_drained.get();
                checks.push(FaultCheck::after(&stream, &fault, fired));
            }
            if poison_at.remove(&id) {
                // Poison the observer's lock from a scratch thread: the
                // panic stays contained there, the lock stays poisoned here.
                // The hook swap keeps the intentional panic out of stderr.
                let victim = observer.clone();
                let previous_hook = std::panic::take_hook();
                std::panic::set_hook(Box::new(|_| {}));
                let _ = std::thread::spawn(move || {
                    let _guard = victim.lock().expect("first poisoner takes the lock");
                    panic!("injected observer poisoning");
                })
                .join();
                std::panic::set_hook(previous_hook);
                fault_counters.poisoned_observers.inc();
                let fault = Fault::PoisonObserver { after_arrival: id };
                let fired = fault_counters.poisoned_observers.get();
                checks.push(FaultCheck::after(&stream, &fault, fired));
            }
            id += 1;
        }
        stream.flush();

        if let Some(capacity) = queue_capacity {
            let fault = Fault::Backpressure { capacity };
            let fired = fault_counters.backpressure_dropped.get();
            checks.push(FaultCheck::after(&stream, &fault, fired));
        }

        let outcome = streaming_outcome(
            ReplayEngine::Stream,
            placements,
            &stream,
            stream.gap_trajectory().to_vec(),
            stream.conserves_balls(),
            stream.snapshot_epoch(),
            stream.resident_tickets(),
            &registry,
        );
        FaultRun {
            outcome,
            checks,
            registry,
        }
    }
}

/// Injects **ingress-level** out-of-order delivery into the concurrent push
/// path: one ball per `gap` is stamped early but delivered only after a
/// drain has taken a later id, so the next drain counts it late
/// (`ingress.late_arrivals`) and merges it by id into what is still
/// undrained — the documented reordering behaviour, with its named counters. Returns the
/// check plus the router's invariant status at quiescence.
pub fn inject_ingress_reorder(trace: &Trace, policy: Policy, gap: u64) -> (FaultCheck, u64) {
    assert!(gap >= 2, "a reorder gap below 2 cannot hold a ball back");
    let registry = Arc::new(MetricsRegistry::new());
    let fault_counters = FaultCounters::resolve(&registry);
    let router = ConcurrentRouter::with_metrics(
        StreamConfig::new(trace.bins)
            .policy(policy)
            .batch_size(trace.batch_size)
            .seed(trace.seed),
        registry.clone(),
    );
    let mut held = Vec::new();
    let mut id = 0u64;
    for event in &trace.events {
        let TraceEvent::Arrival { key, .. } = event else {
            continue; // weights are fixed at construction on this engine
        };
        if id.is_multiple_of(gap) {
            held.push(router.stamp_delayed(*key));
        } else {
            router.push(*key);
        }
        id += 1;
    }
    // The drain takes ids beyond the held balls'…
    router.drain_ready();
    // …so delivering them now is out-of-order: the next drain counts them.
    let reordered = held.len() as u64;
    for ball in held {
        router.deliver_delayed(ball);
    }
    fault_counters.reordered_arrivals.add(reordered);
    router.flush();
    let late = registry.snapshot().counter("ingress.late_arrivals");
    let check = FaultCheck {
        fault: "reordered-ingress".into(),
        counter: "fault.reordered_arrivals".into(),
        fired: fault_counters.reordered_arrivals.get(),
        invariant_error: invariants::check_concurrent(&router, false)
            .err()
            .or_else(|| (late == 0).then(|| "ingress.late_arrivals did not fire".to_string())),
    };
    (check, late)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_fault_class_fires_its_counter_and_keeps_invariants() {
        let trace = Trace::mini();
        let plan = FaultPlan {
            faults: vec![
                Fault::CrashBin {
                    after_arrival: 20,
                    bin: 3,
                },
                Fault::DelayRelease {
                    arrival: 5,
                    until: 40,
                },
                Fault::DuplicateRelease { arrival: 10 },
                Fault::ReorderWindow { start: 24, len: 6 },
                Fault::PoisonObserver { after_arrival: 42 },
                Fault::Backpressure { capacity: 4 },
            ],
        };
        let run = plan.run(&trace, Policy::TwoChoice);
        assert!(run.outcome.conserved);
        assert!(!run.checks.is_empty());
        for check in &run.checks {
            assert!(
                check.passed(),
                "fault {} failed: counter {} fired {} times, invariant error {:?}",
                check.fault,
                check.counter,
                check.fired,
                check.invariant_error
            );
        }
        // The engine-side evidence fired too: the duplicate was rejected
        // (rejected_unknown_ticket) and poisoned-observer events were
        // skipped visibly (observer.errors).
        let snap = run.registry.snapshot();
        assert!(snap.counter("route.rejected_unknown_ticket") > 0);
        assert!(snap.counter("observer.errors") > 0);
        assert!(snap.sum_counters("fault.") > 0);
    }

    #[test]
    fn crash_releases_every_ticket_of_the_bin() {
        let trace = Trace::mini();
        let run = FaultPlan::single(Fault::CrashBin {
            after_arrival: 47,
            bin: 0,
        })
        .run(&trace, Policy::OneChoice);
        assert!(run.all_passed());
        let check = &run.checks[run.checks.len() - 1];
        assert_eq!(check.counter, "fault.bin_crash_releases");
        // After a crash at the very end, bin 0 holds no tickets.
        assert!(run.outcome.conserved);
    }

    #[test]
    fn membership_faults_fire_their_counters_and_keep_invariants() {
        let trace = Trace::mini();
        let plan = FaultPlan {
            faults: vec![
                Fault::AddBinMidTrace {
                    after_arrival: 12,
                    weight: 2.0,
                },
                Fault::DrainBinMidTrace {
                    after_arrival: 28,
                    bin: 3,
                },
            ],
        };
        let run = plan.run(&trace, Policy::TwoChoice);
        assert!(run.all_passed(), "{:?}", run.checks);
        assert!(run.outcome.conserved);
        // The scale-up grew the slot capacity past the recorded bin count…
        assert_eq!(run.outcome.loads.len(), trace.bins + 1);
        let snap = run.registry.snapshot();
        assert_eq!(snap.counter("fault.bins_added"), 1);
        assert_eq!(snap.counter("fault.bins_drained"), 1);
        // …and the engine's own membership counters account for both events
        // (no silent drops: staged changes either apply or are rejected
        // visibly — here both are legal and apply).
        assert_eq!(snap.counter("membership.adds"), 1);
        assert_eq!(snap.counter("membership.drains"), 1);
        assert_eq!(snap.counter("membership.rejected_adds"), 0);
        assert_eq!(snap.counter("membership.rejected_drains"), 0);
    }

    #[test]
    fn membership_faults_compose_with_a_scripted_membership_trace() {
        // Injected scale events on top of a v2 trace that already drains,
        // removes and re-adds: the reserve sizing must cover both sources.
        let trace = Trace::mini_membership();
        let plan = FaultPlan {
            faults: vec![
                Fault::AddBinMidTrace {
                    after_arrival: 40,
                    weight: 1.5,
                },
                Fault::DrainBinMidTrace {
                    after_arrival: 50,
                    bin: 1,
                },
            ],
        };
        let run = plan.run(&trace, Policy::TwoChoice);
        assert!(run.all_passed(), "{:?}", run.checks);
        assert!(run.outcome.conserved);
        let snap = run.registry.snapshot();
        assert_eq!(snap.counter("membership.adds"), 3); // 2 scripted + 1 injected
        assert_eq!(snap.counter("membership.drains"), 2); // 1 scripted + 1 injected
        assert_eq!(snap.counter("membership.removes"), 1);
        assert_eq!(snap.counter("membership.rejected_adds"), 0);
    }

    #[test]
    fn ingress_reorder_trips_the_late_arrival_counter() {
        let trace = Trace::mini();
        let (check, late) = inject_ingress_reorder(&trace, Policy::TwoChoice, 8);
        assert!(check.passed(), "{:?}", check.invariant_error);
        assert!(late > 0, "held balls must be counted late");
    }
}
