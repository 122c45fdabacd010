//! Replay and fault-injection properties, driven through the façade:
//!
//! 1. the trace codec round-trips byte-identically, and the committed
//!    `tests/golden/mini.trace` equals its canonical constructor's encoding;
//! 2. a committed trace replays **bit-identically** on `StreamAllocator` and
//!    a 1-caller `ConcurrentRouter` for all six policies under
//!    `num_threads ∈ {1, 4}` (and matches the committed golden snapshot);
//! 3. the one-shot adapter replays the same trace deterministically with a
//!    conserved ledger;
//! 4. every fault class of the `FaultPlan` harness fires its named `fault.*`
//!    counter while conservation and ledger invariants hold.
//!
//! CI runs this suite under `PBA_THREADS=4` as well: no assertion here may
//! depend on the ambient pool width (that is assertion 2's whole point).

use parallel_balanced_allocations::replay::{
    diff_golden, golden_line, inject_ingress_reorder,
    replay::{replay, ReplayError},
    Fault, FaultPlan, ReplayConfig, Trace, TraceError, TRACE_HEADER,
};
use parallel_balanced_allocations::stream::Policy;

const POLICIES: [Policy; 6] = [
    Policy::OneChoice,
    Policy::TwoChoice,
    Policy::DChoice(3),
    Policy::Threshold { d: 2, slack: 1 },
    Policy::WeightedTwoChoice,
    Policy::CapacityThreshold { d: 2, slack: 2 },
];

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
        for threads in [0usize, 4] {
            for group in [0usize, 7] {
                let config = ReplayConfig::stream(policy)
                    .num_threads(threads)
                    .route_group(group);
                let outcome = replay(&trace, &config).expect("stream replay");
                let line = golden_line(&outcome, &policy.name(), "uniform", threads);
                assert!(
                    snap.lines().any(|l| l == line),
                    "batched golden lacks the line just produced (group={group}):\n  {line}"
                );
            }
        }
        let outcome = replay(&trace, &ReplayConfig::concurrent(policy, 1).route_group(7))
            .expect("concurrent1 grouped replay");
        let line = golden_line(&outcome, &policy.name(), "uniform", 0);
        assert!(
            snap.lines().any(|l| l == line),
            "batched golden lacks the concurrent1 line:\n  {line}"
        );
    }
}

#[test]
fn committed_membership_golden_matches_a_fresh_replay() {
    // The drain/remove/re-add cycle of the v2 golden replays bit-identically
    // on the stream engine (threads 0 and 4) and the 1-caller concurrent
    // twin; the committed snapshot pins all three rows per policy.
    let trace = Trace::decode(&committed("mini-membership.trace")).expect("v2 trace decodes");
    assert!(trace.has_membership());
    let snap = committed("mini-membership.snap");
    for policy in [Policy::TwoChoice, Policy::Threshold { d: 2, slack: 1 }] {
        for threads in [0usize, 4] {
            let config = ReplayConfig::stream(policy).num_threads(threads);
            let outcome = replay(&trace, &config).expect("stream replay");
            let line = golden_line(&outcome, &policy.name(), "uniform", threads);
            assert!(
                snap.lines().any(|l| l == line),
                "membership golden lacks the line just produced:\n  {line}"
            );
        }
        let outcome = replay(&trace, &ReplayConfig::concurrent(policy, 1)).expect("concurrent1");
        let line = golden_line(&outcome, &policy.name(), "uniform", 0);
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
fn stream_and_one_caller_concurrent_are_bit_identical_for_all_policies() {
    let trace = Trace::decode(&committed("mini.trace")).unwrap();
    for policy in POLICIES {
        for threads in [1usize, 4] {
            let stream = replay(&trace, &ReplayConfig::stream(policy).num_threads(threads))
                .expect("stream replay");
            let concurrent = replay(
                &trace,
                &ReplayConfig::concurrent(policy, 1).num_threads(threads),
            )
            .expect("concurrent replay");
            assert_eq!(
                stream.placements,
                concurrent.placements,
                "placements diverged: {} threads={threads}",
                policy.name()
            );
            assert_eq!(stream.loads, concurrent.loads);
            assert_eq!(stream.gap_trajectory, concurrent.gap_trajectory);
            assert_eq!(stream.batches, concurrent.batches);
            assert_eq!(stream.drops, 0);
            assert_eq!(concurrent.drops, 0);
            assert!(stream.conserved && concurrent.conserved);
        }
    }
}

#[test]
fn replay_matches_the_committed_golden_snapshot() {
    // Re-render the stream rows the golden file pins (threads 0 and 4,
    // uniform weights) and check them line by line against the committed
    // snapshot — the same comparison `replay_golden` runs over the full
    // matrix, here gated on every `cargo test`.
    let trace = Trace::decode(&committed("mini.trace")).unwrap();
    let snap = committed("mini.snap");
    for policy in POLICIES {
        for threads in [0usize, 4] {
            let config = ReplayConfig::stream(policy).num_threads(threads);
            let outcome = replay(&trace, &config).unwrap();
            let line = golden_line(&outcome, &policy.name(), "uniform", threads);
            assert!(
                snap.lines().any(|l| l == line),
                "golden file lacks the line just produced:\n  {line}"
            );
        }
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
    let trace = Trace::mini_reweighted();
    assert!(replay(&trace, &ReplayConfig::stream(Policy::TwoChoice)).is_ok());
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
        // `drops` sums the three rejection counters
        // (`route.rejected_unknown_ticket`, `ingress.late_arrivals`,
        // `observer.errors`) and the `policy.*` fallbacks. A threshold rule's
        // fallbacks depend on the loads a caller happens to see, i.e. on the
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
        // With one caller, and on the stream engine, the schedule is fixed
        // and the sum is exact for every policy; every scripted release fires
        // under any schedule, so the four callers end with the same counts.
        for config in [
            ReplayConfig::concurrent(policy, 1),
            ReplayConfig::stream(policy),
        ] {
            let fixed = replay(&trace, &config).unwrap();
            assert!(fixed.conserved, "conservation under {}", policy.name());
            assert_eq!(fixed.drops, 0, "drops under {}", policy.name());
            assert_eq!(outcome.released, fixed.released);
            assert_eq!(outcome.resident, fixed.resident);
        }
    }
}

#[test]
fn every_fault_class_fires_its_counter_and_keeps_invariants() {
    let trace = Trace::mini();
    let m = trace.arrivals();
    let faults = [
        Fault::CrashBin {
            after_arrival: m / 2,
            bin: 2,
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
fn combined_fault_plan_survives_everything_at_once() {
    let trace = Trace::mini();
    let run = FaultPlan {
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
    }
    .run(&trace, Policy::Threshold { d: 2, slack: 1 });
    assert!(run.all_passed());
    assert!(run.outcome.conserved);
    let snap = run.registry.snapshot();
    assert!(snap.counter("route.rejected_unknown_ticket") > 0);
    assert!(snap.counter("observer.errors") > 0);
}

#[test]
fn ingress_reordering_is_counted_not_dropped() {
    let trace = Trace::mini();
    let (check, late) = inject_ingress_reorder(&trace, Policy::TwoChoice, 8);
    assert!(check.passed(), "{:?}", check.invariant_error);
    assert!(
        late > 0,
        "held-back balls must land in ingress.late_arrivals"
    );
}
