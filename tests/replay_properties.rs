//! Replay and fault-injection properties, driven through the façade:
//!
//! 1. the trace codec round-trips byte-identically, and the committed
//!    `tests/golden/mini.trace` equals its canonical constructor's encoding;
//! 2. a committed trace replays on the 1-caller `ConcurrentRouter` to the
//!    committed golden snapshot's lines, for all six policies, route-by-route
//!    and through `route_many`;
//! 3. the one-shot adapter replays the same trace deterministically with a
//!    conserved ledger;
//! 4. every fault class of the `FaultPlan` harness fires its named `fault.*`
//!    counter while conservation and ledger invariants hold.
//!
//! CI runs this suite under `PBA_THREADS=4` as well: replay routes and never
//! pushes, so the drain pool's size must not reach a single fingerprint, and
//! the committed goldens hold with a 4-thread pool as with the default.

#[path = "support/policies.rs"]
mod policies;

use parallel_balanced_allocations::replay::{
    diff_golden, golden_line,
    replay::{replay, ReplayError},
    Fault, FaultPlan, ReplayConfig, Trace, TraceError, TraceEvent, TRACE_HEADER,
};
use parallel_balanced_allocations::stream::Policy;
use policies::POLICIES;

fn committed(name: &str) -> String {
    let path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("missing {path}: {e}"))
}

#[test]
fn codec_round_trips_byte_identically() {
    for trace in [Trace::mini(), Trace::mini_reweighted()] {
        let encoded = trace.encode();
        assert!(encoded.starts_with(TRACE_HEADER));
        let decoded = Trace::decode(&encoded).expect("decode own encoding");
        assert_eq!(decoded, trace);
        assert_eq!(decoded.encode(), encoded, "encode∘decode must be identity");
    }
}

#[test]
fn committed_trace_matches_its_canonical_constructor() {
    assert_eq!(committed("mini.trace"), Trace::mini().encode());
    assert_eq!(
        committed("mini-batched.trace"),
        Trace::mini_batched().encode()
    );
    assert_eq!(
        committed("mini-reweighted.trace"),
        Trace::mini_reweighted().encode()
    );
    assert_eq!(
        committed("mini-membership.trace"),
        Trace::mini_membership().encode()
    );
}

#[test]
fn committed_batched_golden_matches_a_grouped_replay() {
    // The `mini-batched` golden is blessed through `route_many` with
    // `route_group = 7`; re-rendering rows through the grouped surface must
    // hit the committed lines exactly, and the route-by-route path must hit
    // the *same* lines — the bit-identity contract of the batched surface.
    let trace = Trace::decode(&committed("mini-batched.trace")).expect("v1 trace decodes");
    let snap = committed("mini-batched.snap");
    for policy in [Policy::TwoChoice, Policy::DChoice(3)] {
        for group in [0usize, 7] {
            let config = ReplayConfig::concurrent(policy, 1).route_group(group);
            let outcome = replay(&trace, &config).expect("concurrent1 replay");
            let line = golden_line(&outcome, &policy.name(), "uniform");
            assert!(
                snap.lines().any(|l| l == line),
                "batched golden lacks the line just produced (group={group}):\n  {line}"
            );
        }
    }
}

#[test]
fn committed_membership_golden_matches_a_fresh_replay() {
    // The drain/remove/re-add cycle of the v2 golden replays on the
    // 1-caller handle to the committed snapshot's row per policy.
    let trace = Trace::decode(&committed("mini-membership.trace")).expect("v2 trace decodes");
    assert!(trace.has_membership());
    let snap = committed("mini-membership.snap");
    for policy in [Policy::TwoChoice, Policy::Threshold { d: 2, slack: 1 }] {
        let outcome = replay(&trace, &ReplayConfig::concurrent(policy, 1)).expect("concurrent1");
        let line = golden_line(&outcome, &policy.name(), "uniform");
        assert!(
            snap.lines().any(|l| l == line),
            "membership golden lacks the concurrent1 line:\n  {line}"
        );
    }
}

#[test]
fn committed_trace_decodes_and_is_the_same_workload() {
    let decoded = Trace::decode(&committed("mini.trace")).expect("committed trace decodes");
    assert_eq!(decoded, Trace::mini());
}

#[test]
fn decoder_rejects_malformed_input() {
    assert!(matches!(
        Trace::decode("not-a-trace v9\n"),
        Err(TraceError::BadHeader)
    ));
    let truncated: String = Trace::mini()
        .encode()
        .lines()
        .take(10)
        .map(|l| format!("{l}\n"))
        .collect();
    assert!(Trace::decode(&truncated).is_err());
}

#[test]
fn replay_matches_the_committed_golden_snapshot() {
    // Re-render the concurrent1 rows the golden file pins (uniform
    // weights) and check them line by line against the committed snapshot —
    // the same comparison `replay_golden` runs over the full matrix, here
    // gated on every `cargo test`.
    let trace = Trace::decode(&committed("mini.trace")).unwrap();
    let snap = committed("mini.snap");
    for policy in POLICIES {
        let outcome = replay(&trace, &ReplayConfig::concurrent(policy, 1)).unwrap();
        let line = golden_line(&outcome, &policy.name(), "uniform");
        assert!(
            snap.lines().any(|l| l == line),
            "golden file lacks the line just produced:\n  {line}"
        );
    }
    // And the whole-file diff helper agrees with itself.
    assert!(diff_golden("mini", &snap, &snap).is_none());
}

#[test]
fn one_shot_replay_is_deterministic_and_conserves() {
    let trace = Trace::decode(&committed("mini.trace")).unwrap();
    let a = replay(&trace, &ReplayConfig::one_shot()).unwrap();
    let b = replay(&trace, &ReplayConfig::one_shot()).unwrap();
    assert_eq!(a.placements, b.placements);
    assert_eq!(a.loads, b.loads);
    assert!(a.conserved);
    assert_eq!(a.routed, trace.arrivals());
}

#[test]
fn reweighting_traces_replay_on_stream_only() {
    // The streaming replay is the 1-caller handle, which stages the
    // reweights where the trace has them; k callers have no staging point.
    let trace = Trace::mini_reweighted();
    assert!(replay(&trace, &ReplayConfig::concurrent(Policy::TwoChoice, 1)).is_ok());
    assert!(matches!(
        replay(&trace, &ReplayConfig::concurrent(Policy::TwoChoice, 2)),
        Err(ReplayError::UnsupportedReweight { .. })
    ));
}

#[test]
fn multi_caller_replay_conserves_for_every_policy() {
    let trace = Trace::mini();
    for policy in POLICIES {
        let outcome = replay(&trace, &ReplayConfig::concurrent(policy, 4)).unwrap();
        assert!(outcome.conserved, "conservation under {}", policy.name());
        assert_eq!(outcome.routed, trace.arrivals());
        // `drops` sums the rejection counters
        // (`route.rejected_unknown_ticket`, `observer.errors`) and the
        // `policy.*` fallbacks. A threshold rule's fallbacks depend on the
        // loads a caller happens to see, i.e. on the
        // schedule once there are four callers, so only the policies without
        // such a path pin the sum — and with it every rejection counter,
        // which no policy can influence — to exactly zero here.
        let load_dependent_fallback = matches!(
            policy,
            Policy::Threshold { .. } | Policy::CapacityThreshold { .. }
        );
        if !load_dependent_fallback {
            assert_eq!(outcome.drops, 0, "drops under {}", policy.name());
        }
        // With one caller the schedule is fixed and the sum is exact for
        // every policy: zero without a load-dependent fallback, the committed
        // golden's count with one. Every scripted release fires under any
        // schedule, so the four callers end with the same counts.
        let fixed = replay(&trace, &ReplayConfig::concurrent(policy, 1)).unwrap();
        assert!(fixed.conserved, "conservation under {}", policy.name());
        let expected_drops = if load_dependent_fallback {
            golden_drops("mini.snap", policy)
        } else {
            0
        };
        assert_eq!(fixed.drops, expected_drops, "drops under {}", policy.name());
        assert_eq!(outcome.released, fixed.released);
        assert_eq!(outcome.resident, fixed.resident);
    }
}

/// The `drops=` count of `policy`'s uniform-weights `concurrent1` line in
/// the committed golden snapshot `name`.
fn golden_drops(name: &str, policy: Policy) -> u64 {
    let prefix = format!("concurrent1 policy={} weights=uniform ", policy.name());
    let snapshot = committed(name);
    let line = snapshot
        .lines()
        .find(|line| line.starts_with(&prefix))
        .unwrap_or_else(|| panic!("{name} has no line {prefix}…"));
    let drops = line
        .split(' ')
        .find_map(|field| field.strip_prefix("drops="));
    drops
        .expect("a golden line counts its drops")
        .parse()
        .expect("drops is a count")
}

/// A bin holding a routed, unreleased ball once arrival point `point` has
/// settled in the clean 1-caller replay of `trace` under `policy`: a crash
/// there has a ticket to release whichever bins the candidate stream picks.
fn occupied_bin(trace: &Trace, policy: Policy, point: u64) -> usize {
    let clean = replay(trace, &ReplayConfig::concurrent(policy, 1)).unwrap();
    let arrivals = trace.events.iter().filter_map(|event| match event {
        TraceEvent::Arrival { release_after, .. } => Some(*release_after),
        _ => None,
    });
    let resident = (0..=point)
        .zip(arrivals)
        .find(|&(_, release_after)| release_after.is_none_or(|after| after > point));
    let (ball, _) = resident.expect("some ball is resident at the crash point");
    clean.placements[ball as usize] as usize
}

#[test]
fn every_fault_class_fires_its_counter_and_keeps_invariants() {
    let trace = Trace::mini();
    let m = trace.arrivals();
    let faults = [
        Fault::CrashBin {
            after_arrival: m / 2,
            bin: occupied_bin(&trace, Policy::TwoChoice, m / 2),
        },
        Fault::DelayRelease {
            arrival: 0,
            until: m - 2,
        },
        Fault::DuplicateRelease { arrival: 5 },
        Fault::ReorderWindow {
            start: m / 3,
            len: 8,
        },
        Fault::PoisonObserver {
            after_arrival: m / 2,
        },
        Fault::Backpressure { capacity: 4 },
    ];
    for fault in faults {
        let run = FaultPlan::single(fault).run(&trace, Policy::TwoChoice);
        assert!(
            !run.checks.is_empty(),
            "fault {} produced no checks",
            fault.name()
        );
        for check in &run.checks {
            assert!(
                check.passed(),
                "fault {} failed: counter {} fired {}, invariant error {:?}",
                check.fault,
                check.counter,
                check.fired,
                check.invariant_error
            );
        }
        assert!(run.outcome.conserved, "conservation under {}", fault.name());
        assert!(
            run.registry.snapshot().counter(fault.counter()) > 0,
            "named counter {} must be visible in the registry",
            fault.counter()
        );
    }
}

#[test]
fn a_reweight_after_an_added_bin_weighs_the_reserve_slot_too() {
    // The trace's `w` line names its 16 bins; the engine holds a 17th slot
    // for the injected add, which must keep its weight rather than make the
    // reweight describe too few slots.
    let trace = Trace::mini_reweighted();
    for policy in POLICIES {
        let run = FaultPlan::single(Fault::AddBinMidTrace {
            after_arrival: 4,
            weight: 1.0,
        })
        .run(&trace, policy);
        assert!(run.all_passed(), "checks under {}", policy.name());
        assert!(
            run.outcome.conserved,
            "conservation under {}",
            policy.name()
        );
        assert_eq!(run.outcome.routed, trace.arrivals());
        assert_eq!(run.outcome.loads.len(), trace.bins + 1);
    }
}

#[test]
fn combined_fault_plan_survives_everything_at_once() {
    let trace = Trace::mini();
    let policy = Policy::Threshold { d: 2, slack: 1 };
    // Every other fault acts at or after the crash point or only keeps balls
    // resident longer, so the clean replay's occupied bin is occupied here.
    let run = FaultPlan {
        faults: vec![
            Fault::CrashBin {
                after_arrival: 20,
                bin: occupied_bin(&trace, policy, 20),
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
    }
    .run(&trace, policy);
    assert!(run.all_passed());
    assert!(run.outcome.conserved);
    let snap = run.registry.snapshot();
    assert!(snap.counter("route.rejected_unknown_ticket") > 0);
    assert!(snap.counter("observer.errors") > 0);
}
