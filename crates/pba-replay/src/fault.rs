//! [`FaultPlan`]: scripted fault injection over a trace replay, with named
//! counters and invariant checks after every fault.
//!
//! A fault plan replays a [`Trace`] on the 1-caller [`ConcurrentRouter`]
//! through the clean replay's own event loop ([`crate::replay`]). It edits
//! the loop's schedule before the run — a delay moves a release to a later
//! arrival point, a reorder window reverses its arrivals — and injects every
//! other fault through the loop's hooks once its arrival point has settled.
//! An empty plan is therefore the clean replay, bit for bit.
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
//! scripted fault is injected, leaves the invariants intact and fires its
//! named counter** (plus, where the engine itself rejects something, the
//! engine's own no-silent-drops counter fires too: a duplicated release
//! shows up in `route.rejected_unknown_ticket`, a poisoned observer in
//! `observer.errors`). A fault the run never reaches — a point past the
//! last arrival, a ball the trace never releases — still leaves its one
//! check, with `fired = 0`, so it fails.
//!
//! Out-of-order arrival is [`Fault::ReorderWindow`]'s, on the route path.
//! The push path has no such fault: [`ConcurrentRouter::push`] stamps each
//! arrival under the inbox lock, so no arrival can reach a drain behind a
//! later one.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use pba_model::router::{RouteEvent, RouterObserver, Ticket};
use pba_obs::{FaultCounters, MetricsRegistry};
use pba_stream::{ConcurrentRouter, MembershipPlan, Policy};

use crate::invariants;
use crate::replay::{
    replay_events, stage, stream_config, streaming_outcome, ReplayConfig, ReplayEngine,
    ReplayHooks, ReplayOutcome, Schedule,
};
use crate::trace::{Trace, TraceEvent};

/// One scripted fault. Arrival points are trace arrival ids; a fault "at
/// `after_arrival = j`" injects right after arrival `j` has been routed (and
/// its scripted releases applied), also inside a reversed window.
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
    /// `until` has been routed (clamped to the end of the trace). Counted at
    /// the ball's scripted release point.
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
    /// Deliver arrivals `[start, start + len)` in reverse order (clamped to
    /// the end of the trace; a window overlapping an earlier one of the
    /// plan is not injected). Counted once the window's first point settles.
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
    /// Counted once the last arrival point settles.
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
    fn after(router: &ConcurrentRouter, fault: &Fault, fired: u64) -> Self {
        Self {
            fault: fault.name().into(),
            counter: fault.counter().into(),
            fired,
            invariant_error: invariants::check(router).err(),
        }
    }

    /// The evidence of a fault the run never reached: it fired nothing.
    fn never_injected(fault: &Fault) -> Self {
        Self {
            fault: fault.name().into(),
            counter: fault.counter().into(),
            fired: 0,
            invariant_error: None,
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
    /// One check per scripted fault, in plan order.
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

    /// Replays `trace` on the 1-caller handle under `policy`, injecting
    /// every scripted fault and checking invariants after each. Reweight and
    /// membership events in the trace apply as in a clean replay, which an
    /// empty plan is.
    pub fn run(&self, trace: &Trace, policy: Policy) -> FaultRun {
        let registry = Arc::new(MetricsRegistry::new());
        let counters = FaultCounters::resolve(&registry);
        // Size the reserve so neither the trace's own `m add` lines nor the
        // injected scale-ups can be rejected for lack of a retired slot.
        let injected_adds = self
            .faults
            .iter()
            .filter(|f| matches!(f, Fault::AddBinMidTrace { .. }))
            .count();
        let config = stream_config(trace, &ReplayConfig::concurrent(policy, 1))
            .reserve_bins(trace.needed_reserve() + injected_adds);
        let mut router = ConcurrentRouter::with_metrics(config, registry.clone());

        // The harness observer: backpressure bound when scripted (a huge
        // bound otherwise — attached regardless so the poisoning fault has a
        // lock to break and `on_route` traffic flows either way).
        let capacity = self.faults.iter().rev().find_map(|f| match f {
            Fault::Backpressure { capacity } => Some(*capacity),
            _ => None,
        });
        let observer = Arc::new(Mutex::new(BoundedLog {
            seen: Vec::new(),
            capacity: capacity.unwrap_or(usize::MAX),
            shed: counters.backpressure_dropped.clone(),
        }));
        router.add_observer(observer.clone());

        // Edit the clean schedule, and index every other fault by the
        // arrival point whose settling injects it.
        let m = trace.arrivals();
        let mut schedule = Schedule::of(trace);
        let mut at: HashMap<u64, Vec<usize>> = HashMap::new();
        for (i, fault) in self.faults.iter().enumerate() {
            let point = match *fault {
                Fault::DelayRelease { arrival, until } => {
                    let mut due = schedule.due.iter_mut();
                    let Some((&scripted, balls)) = due.find(|(_, b)| b.contains(&arrival)) else {
                        continue;
                    };
                    balls.retain(|&ball| ball != arrival);
                    let effective = until.max(scripted).min(m - 1);
                    let moved = schedule.due.entry(effective).or_default();
                    moved.push(arrival);
                    moved.sort_unstable();
                    scripted
                }
                Fault::ReorderWindow { start, len } => {
                    let end = (start + len as u64).min(m);
                    let overlaps = schedule
                        .reversed
                        .iter()
                        .any(|(&from, &to)| start < to && from < end);
                    if start >= end || overlaps {
                        continue;
                    }
                    schedule.reversed.insert(start, end);
                    start
                }
                Fault::CrashBin { after_arrival, .. }
                | Fault::PoisonObserver { after_arrival }
                | Fault::AddBinMidTrace { after_arrival, .. }
                | Fault::DrainBinMidTrace { after_arrival, .. } => after_arrival,
                // The shed count is read once the last point settles.
                Fault::Backpressure { .. } => m.saturating_sub(1),
                // Injected by the release hook.
                Fault::DuplicateRelease { .. } => continue,
            };
            at.entry(point).or_default().push(i);
        }

        let mut injector = Injector {
            faults: &self.faults,
            arrivals: m,
            counters,
            observer,
            at,
            checks: vec![None; self.faults.len()],
        };
        let placements = replay_events(&mut router, trace, 0, &schedule, &mut injector);
        router.flush();
        let engine = ReplayEngine::Concurrent { callers: 1 };
        let outcome = streaming_outcome(engine, placements, &router, &registry);
        let checks = self
            .faults
            .iter()
            .zip(injector.checks)
            .map(|(fault, check)| check.unwrap_or_else(|| FaultCheck::never_injected(fault)))
            .collect();
        FaultRun {
            outcome,
            checks,
            registry,
        }
    }
}

/// A plan's injections, fired through the replay loop's hooks: one check
/// slot per fault, filled when the fault fires.
struct Injector<'a> {
    faults: &'a [Fault],
    arrivals: u64,
    counters: FaultCounters,
    observer: Arc<Mutex<BoundedLog>>,
    /// Plan indices of the faults injected once each arrival point settles.
    at: HashMap<u64, Vec<usize>>,
    checks: Vec<Option<FaultCheck>>,
}

impl ReplayHooks<ConcurrentRouter> for Injector<'_> {
    fn stage(&mut self, router: &mut ConcurrentRouter, event: &TraceEvent) {
        stage(router, event);
    }

    // Duplicate and crashed-ball releases turn into their counters instead of
    // panics.
    fn release(&mut self, router: &mut ConcurrentRouter, ball: u64, ticket: Ticket) {
        if router.release(ticket).is_err() {
            // The ball died earlier (bin crash): the scripted release is
            // dropped, visibly.
            self.counters.dropped_releases.inc();
        }
        for (i, fault) in self.faults.iter().enumerate() {
            if *fault == (Fault::DuplicateRelease { arrival: ball }) {
                let rejected = router.release(ticket).is_err();
                assert!(rejected, "a duplicate release must be rejected");
                self.counters.duplicated_releases.inc();
                let fired = self.counters.duplicated_releases.get();
                self.checks[i] = Some(FaultCheck::after(router, fault, fired));
            }
        }
    }

    fn settled(&mut self, router: &mut ConcurrentRouter, point: u64) {
        for i in self.at.remove(&point).unwrap_or_default() {
            let fault = self.faults[i];
            let counter = match fault {
                Fault::CrashBin { bin, .. } => {
                    // The crash released the bin's tickets: a later scripted
                    // release of one of them fails and counts under
                    // `fault.dropped_releases`.
                    let evicted = router.crash_bin(bin);
                    self.counters.bin_crash_releases.add(evicted);
                    &self.counters.bin_crash_releases
                }
                Fault::DelayRelease { .. } => {
                    self.counters.delayed_releases.inc();
                    &self.counters.delayed_releases
                }
                Fault::ReorderWindow { start, len } => {
                    let end = (start + len as u64).min(self.arrivals);
                    self.counters.reordered_arrivals.add(end - start);
                    &self.counters.reordered_arrivals
                }
                Fault::PoisonObserver { .. } => {
                    poison(&self.observer);
                    self.counters.poisoned_observers.inc();
                    &self.counters.poisoned_observers
                }
                Fault::AddBinMidTrace { weight, .. } => {
                    router.stage_membership(MembershipPlan::new().add(weight));
                    self.counters.bins_added.inc();
                    &self.counters.bins_added
                }
                Fault::DrainBinMidTrace { bin, .. } => {
                    router.stage_membership(MembershipPlan::new().drain(bin));
                    self.counters.bins_drained.inc();
                    &self.counters.bins_drained
                }
                Fault::Backpressure { .. } => &self.counters.backpressure_dropped,
                Fault::DuplicateRelease { .. } => unreachable!("injected by the release hook"),
            };
            let fired = counter.get();
            self.checks[i] = Some(FaultCheck::after(router, &fault, fired));
        }
    }
}

/// Poisons the observer's lock from a scratch thread: the panic stays
/// contained there, the lock stays poisoned here. The hook swap keeps the
/// intentional panic out of stderr.
fn poison(observer: &Arc<Mutex<BoundedLog>>) {
    let victim = observer.clone();
    let previous_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let _ = std::thread::spawn(move || {
        let _guard = victim.lock().expect("first poisoner takes the lock");
        panic!("injected observer poisoning");
    })
    .join();
    std::panic::set_hook(previous_hook);
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
                // Inside the reversed window: injected once point 26 settles.
                Fault::CrashBin {
                    after_arrival: 26,
                    bin: 5,
                },
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
    fn an_empty_plan_is_the_clean_replay() {
        let policies = [
            Policy::OneChoice,
            Policy::TwoChoice,
            Policy::DChoice(3),
            Policy::Threshold { d: 2, slack: 1 },
            Policy::WeightedTwoChoice,
            Policy::CapacityThreshold { d: 2, slack: 2 },
        ];
        for trace in [
            Trace::mini(),
            Trace::mini_reweighted(),
            Trace::mini_membership(),
        ] {
            for policy in policies {
                let clean = crate::replay::replay(&trace, &ReplayConfig::concurrent(policy, 1));
                let faulted = FaultPlan::default().run(&trace, policy);
                assert_eq!(
                    faulted.outcome,
                    clean.unwrap(),
                    "{} {}",
                    trace.name,
                    policy.name()
                );
                assert!(faulted.checks.is_empty());
            }
        }
    }

    #[test]
    fn faults_the_run_never_reaches_fail_with_nothing_fired() {
        let trace = Trace::mini();
        let m = trace.arrivals();
        let scripted = trace.scripted_releases();
        let unreleased = (0..m).find(|ball| !scripted.contains(ball)).unwrap();
        for fault in [
            Fault::DelayRelease {
                arrival: unreleased,
                until: m - 1,
            },
            Fault::DuplicateRelease {
                arrival: unreleased,
            },
            Fault::CrashBin {
                after_arrival: m,
                bin: 0,
            },
            Fault::PoisonObserver { after_arrival: m },
        ] {
            let run = FaultPlan::single(fault).run(&trace, Policy::TwoChoice);
            assert_eq!(run.checks.len(), 1, "{}", fault.name());
            assert_eq!(run.checks[0].fired, 0, "{}", fault.name());
            assert!(!run.all_passed(), "{} passed vacuously", fault.name());
        }
    }
}
