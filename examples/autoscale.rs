//! Elastic membership, end to end: **rolling restart → flash crowd**, both
//! under skewed (Zipf) arrivals with churn, with the metrics registry
//! watching for silent drops.
//!
//! Act 1 rolls a restart across the first half of the cluster: each bin in
//! turn is drained (leaves the sampling set, keeps its residents), its
//! ticketed residents are force-migrated through the ledger, the empty bin
//! is retired, and a fresh unit-weight bin is commissioned into the
//! just-freed slot — all while arrivals keep routing. Act 2 commissions a
//! surge of extra bins for a flash crowd and decommissions them afterwards;
//! the surge slots must end the run retired **and empty**.
//!
//! Throughout, the no-silent-drops ledger holds: every migration shows up in
//! `membership.migrations`, no membership event is rejected, no ticket is
//! lost or duplicated, and conservation (`arrived − departed = resident`)
//! survives every topology change.
//!
//! Run with: `cargo run --release --example autoscale`

use parallel_balanced_allocations::prelude::{BinState, MetricsRegistry};
use parallel_balanced_allocations::stream::{
    run_scenario_on, ArrivalProcess, ConcurrentRouter, Policy, ScenarioConfig, StreamConfig,
};

/// Zipf-skewed arrivals: a hot-key workload, the hard case for rebalancing.
fn zipf(rate: usize) -> ArrivalProcess {
    ArrivalProcess::Zipf {
        keys: 1 << 16,
        exponent: 1.1,
        rate,
    }
}

fn run(scenario: &ScenarioConfig, config: StreamConfig) {
    let registry = std::sync::Arc::new(MetricsRegistry::new());
    let router = ConcurrentRouter::with_metrics(config, registry.clone());
    let report = run_scenario_on(scenario, router);

    println!(
        "{:>16}: {} events staged ({} unapplied), {} residents migrated, \
         min active fraction {:.3}, final gap {:.3} (max {:.3})",
        report.name,
        report.events_staged,
        report.events_unapplied,
        report.migrated,
        report.min_active_fraction,
        report.final_gap,
        report.max_gap,
    );

    // Every scripted event must have applied — the driver defers an event
    // until the membership state machine accepts it, so nothing is left
    // pending.
    assert_eq!(report.events_unapplied, 0, "scripted events must all apply");

    // Conservation through every topology change: arrived − departed =
    // resident, and the ticket ledger agrees with the bin loads.
    let router = &report.router;
    assert!(
        router.conserves_balls(),
        "conservation must survive scaling"
    );

    // The no-silent-drops ledger: nothing was rejected, nothing got lost.
    let snap = registry.snapshot();
    for counter in [
        "route.rejected_unknown_ticket",
        "observer.errors",
        "membership.rejected_adds",
        "membership.rejected_drains",
        "membership.rejected_removes",
    ] {
        assert_eq!(snap.counter(counter), 0, "silent-drop counter {counter}");
    }
    // ... and every force-migration is accounted for by name.
    assert_eq!(
        snap.counter("membership.migrations"),
        report.migrated,
        "the registry must account for every migration"
    );

    // Retired slots must be empty: a bin leaves the cluster only after its
    // residents were released or migrated.
    let membership = router.membership();
    for (bin, &state) in membership.states().iter().enumerate() {
        if state == BinState::Retired {
            assert_eq!(router.load(bin), 0, "retired bin {bin} still holds load");
            assert_eq!(
                router.tickets_in(bin),
                0,
                "retired bin {bin} still holds tickets"
            );
        }
    }
    println!(
        "{:>16}  conservation ok, zero silent drops, {} retired slots all empty\n",
        "",
        membership
            .states()
            .iter()
            .filter(|&&s| s == BinState::Retired)
            .count()
    );
}

fn main() {
    let bins = 32;
    let config = StreamConfig::new(bins)
        .policy(Policy::TwoChoice)
        .batch_size(bins)
        .seed(19);

    // Act 1: rolling restart of the first half of the cluster. Reserve is
    // zero — every re-add reuses the slot its remove just freed.
    let restart =
        ScenarioConfig::rolling_restart(120, zipf(16), bins / 2, 10, 5).with_churn(0.3, 10);
    assert_eq!(restart.needed_reserve(), 0, "restarts recycle their slots");
    run(&restart, config.clone());

    // Act 2: flash crowd — 8 surge bins commissioned at tick 20, drained at
    // tick 60, retired once empty. They need real reserve slots.
    let crowd = ScenarioConfig::flash_crowd(120, zipf(16), bins, 8, 20, 40).with_churn(0.3, 10);
    run(&crowd, config.reserve_bins(crowd.needed_reserve()));

    println!("autoscale example: all invariants held");
}
