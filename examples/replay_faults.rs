//! The replay & fault-injection harness, end to end: **record → encode →
//! replay everywhere → inject faults**.
//!
//! A churn workload (uniform arrivals, ticket releases after warm-up) is
//! frozen into a portable text trace, round-tripped through the codec
//! byte-identically, and replayed on the 1-caller `ConcurrentRouter` (the
//! deterministic replay), through the fault harness with an empty plan (the
//! same event loop, so the example asserts the outcome is identical), and on
//! 4 callers (schedule-dependent placements, same conservation guarantees).
//! Then the whole fault catalogue runs against the trace: a mid-batch bin
//! crash, a delayed and a duplicated release, a reversed arrival window,
//! observer poisoning and backpressure — each must fire its named `fault.*`
//! counter while conservation and the ticket ledger stay intact.
//!
//! Run with: `cargo run --release --example replay_faults`

use parallel_balanced_allocations::replay::{
    churn_trace, inject_ingress_reorder, replay::replay, Fault, FaultPlan, ReplayConfig, Trace,
};
use parallel_balanced_allocations::stream::{Policy, StreamConfig};

fn main() {
    // 1. Freeze a live workload into a trace.
    let config = StreamConfig::new(32).batch_size(32).seed(18);
    let trace = churn_trace(config, 60, 8, 0.4, 15);
    let text = trace.encode();
    println!(
        "recorded trace '{}': {} arrivals over {} bins (batch {}), {} bytes of text",
        trace.name,
        trace.arrivals(),
        trace.bins,
        trace.batch_size,
        text.len()
    );
    let decoded = Trace::decode(&text).expect("own encoding decodes");
    assert_eq!(decoded.encode(), text, "codec is byte-identity");
    println!("codec round trip: byte-identical\n");

    // 2. Replay it on every engine.
    let concurrent1 = replay(&trace, &ReplayConfig::concurrent(Policy::TwoChoice, 1)).unwrap();
    let unfaulted = FaultPlan::default().run(&trace, Policy::TwoChoice);
    assert_eq!(unfaulted.outcome, concurrent1);
    println!(
        "concurrent(1) ≡ empty fault plan: {} placements, {} batches, final gap {:.3} — identical",
        concurrent1.placements.len(),
        concurrent1.batches,
        concurrent1.final_gap
    );
    let concurrent4 = replay(&trace, &ReplayConfig::concurrent(Policy::TwoChoice, 4)).unwrap();
    assert!(concurrent4.conserved);
    println!(
        "concurrent(4): schedule-dependent placements, final gap {:.3}, conserved: {}\n",
        concurrent4.final_gap, concurrent4.conserved
    );

    // 3. Run the fault catalogue. Release-directed faults must target balls
    //    the trace actually releases.
    let m = trace.arrivals();
    let scripted = trace.scripted_releases();
    let faults = [
        Fault::CrashBin {
            after_arrival: m / 2,
            bin: 3,
        },
        Fault::DelayRelease {
            arrival: scripted[0],
            until: m - 2,
        },
        Fault::DuplicateRelease {
            arrival: scripted[1],
        },
        Fault::ReorderWindow {
            start: m / 3,
            len: 32,
        },
        Fault::PoisonObserver {
            after_arrival: m / 2,
        },
        Fault::Backpressure { capacity: 16 },
    ];
    println!("fault catalogue over the same trace:");
    for fault in faults {
        let run = FaultPlan::single(fault).run(&trace, Policy::TwoChoice);
        assert!(
            run.all_passed(),
            "fault {} broke an invariant",
            fault.name()
        );
        assert!(run.outcome.conserved);
        let fired = run.registry.snapshot().counter(fault.counter());
        assert!(fired > 0, "fault {} must fire its counter", fault.name());
        println!(
            "  {:<20} {:<28} fired {:>5}×   gap {:.3}   conserved: yes   invariants: ok",
            fault.name(),
            fault.counter(),
            fired,
            run.outcome.final_gap
        );
    }
    let (check, late) = inject_ingress_reorder(&trace, Policy::TwoChoice, 8);
    assert!(check.passed());
    println!(
        "  {:<20} {:<28} fired {:>5}×   {} counted late at the ingress",
        "reordered-ingress", check.counter, check.fired, late
    );
    println!("\nevery fault fired its counter; conservation and the ledger held throughout");
}
