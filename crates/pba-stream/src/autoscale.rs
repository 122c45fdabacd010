//! Autoscaling scenario driver: scripted scale events over a live stream.
//!
//! [`run_scenario`](crate::run_scenario) exercises arrivals and churn against
//! a *fixed* cluster; this module adds the elastic axis. A [`ScaleScenario`]
//! is a tick-driven workload (arrival process + optional load-proportional
//! churn) plus a script of [`ScaleEvent`]s — bin commissions, drains and
//! removals at scheduled ticks. The driver stages each event through
//! [`StreamAllocator::stage_membership`] and lets the engine apply it at its
//! next batch boundary, exactly as a live operator driving the `ADD` /
//! `DRAIN` / `REMOVE` socket verbs would.
//!
//! **Legality is the driver's job, not the script author's.** A scripted
//! drain waits until its bin is `Active`; a scripted remove first
//! force-migrates the bin's residents ([`StreamAllocator::migrate_drained`])
//! and waits until the bin is both `Draining` and empty before staging.
//! Deferred events retry every following tick, so a script spaced tighter
//! than the batch cadence still executes — just later — and the engine's
//! `membership.rejected_*` counters stay at zero for any well-formed script.
//! Events still pending when the ticks run out are reported in
//! [`ScaleReport::events_unapplied`] (give the scenario trailing ticks).
//!
//! The four canonical patterns of experiment E19 ship as constructors:
//!
//! | pattern | shape |
//! |---|---|
//! | [`ScaleScenario::ramp_up`] | start small, add one bin at a fixed cadence |
//! | [`ScaleScenario::flash_crowd`] | surge bins in at a spike, drain + retire them after |
//! | [`ScaleScenario::rolling_restart`] | drain → migrate → remove → re-add each bin in turn |
//! | [`ScaleScenario::scale_to_zero_and_back`] | retire everything but a core, recommission later |
//!
//! Availability is measured, not assumed: the report carries
//! `routed / offered` (which the lock-free boundary machinery keeps at 1.0 —
//! no scale event ever pauses routing) and the minimum active-bin fraction
//! the cluster passed through.

use pba_membership::{BinState, MembershipPlan};
use pba_model::rng::SplitMix64;

use crate::arrival::{ArrivalProcess, ArrivalSampler};
use crate::engine::{StreamAllocator, StreamConfig};

/// Stream used for arrival-key randomness (distinct from the fixed-cluster
/// scenario streams so reports are not cross-correlated).
const ARRIVAL_STREAM: u64 = 0x5ca1_e0a5;
/// Stream used for churn (departure) randomness.
const DEPART_STREAM: u64 = 0x5ca1_ed09;

/// One scripted scale action.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ScaleAction {
    /// Commission a bin with the given capacity weight. Deferred until a
    /// retired slot exists (the driver sizes the reserve so a well-formed
    /// script always finds one eventually).
    Add {
        /// Capacity weight of the commissioned bin.
        weight: f64,
    },
    /// Start draining `bin`. Deferred until the bin is `Active`.
    Drain {
        /// The bin slot to drain.
        bin: u32,
    },
    /// Retire `bin`: force-migrate its residents off, then remove it once
    /// empty. Deferred until the bin is `Draining` with zero occupancy.
    Remove {
        /// The bin slot to retire.
        bin: u32,
    },
}

/// A scale action scheduled at a tick of the scenario clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScaleEvent {
    /// First tick at which the driver may stage the action (it retries every
    /// later tick until the action's precondition holds).
    pub at_tick: u64,
    /// The action to stage.
    pub action: ScaleAction,
}

/// A tick-driven workload with scripted scale events.
#[derive(Debug, Clone)]
pub struct ScaleScenario {
    /// Ticks to simulate.
    pub ticks: u64,
    /// The arrival process.
    pub arrivals: ArrivalProcess,
    /// Expected departures per arrival once warm-up has passed
    /// (load-proportional, as in [`crate::scenario`]).
    pub churn: f64,
    /// Ticks before churn starts.
    pub warmup_ticks: u64,
    /// The scale script, in schedule order.
    pub events: Vec<ScaleEvent>,
    /// Name of the pattern (used in experiment tables).
    pub name: String,
}

impl ScaleScenario {
    /// A bare scenario with no scale events (the static baseline).
    pub fn steady(name: &str, ticks: u64, arrivals: ArrivalProcess) -> Self {
        Self {
            ticks,
            arrivals,
            churn: 0.0,
            warmup_ticks: 0,
            events: Vec::new(),
            name: name.into(),
        }
    }

    /// Adds load-proportional churn after a warm-up period (builder style).
    pub fn with_churn(mut self, churn: f64, warmup_ticks: u64) -> Self {
        self.churn = churn;
        self.warmup_ticks = warmup_ticks;
        self
    }

    /// **Ramp-up**: commission `extra` unit-weight bins, one every
    /// `every` ticks starting at `start_at`.
    pub fn ramp_up(
        ticks: u64,
        arrivals: ArrivalProcess,
        extra: usize,
        start_at: u64,
        every: u64,
    ) -> Self {
        let events = (0..extra)
            .map(|i| ScaleEvent {
                at_tick: start_at + i as u64 * every,
                action: ScaleAction::Add { weight: 1.0 },
            })
            .collect();
        Self {
            events,
            name: "ramp-up".into(),
            ..Self::steady("ramp-up", ticks, arrivals)
        }
    }

    /// **Flash crowd**: `surge` unit-weight bins commissioned together at
    /// `surge_at`; once the spike passes (`surge_at + hold`), the surge bins
    /// are drained and — after migration — retired again. The surge slots
    /// are the `surge` slots right above the initial bin count.
    pub fn flash_crowd(
        ticks: u64,
        arrivals: ArrivalProcess,
        initial_bins: usize,
        surge: usize,
        surge_at: u64,
        hold: u64,
    ) -> Self {
        let mut events = Vec::new();
        for i in 0..surge {
            events.push(ScaleEvent {
                at_tick: surge_at,
                action: ScaleAction::Add { weight: 1.0 },
            });
            let bin = (initial_bins + i) as u32;
            events.push(ScaleEvent {
                at_tick: surge_at + hold,
                action: ScaleAction::Drain { bin },
            });
            events.push(ScaleEvent {
                at_tick: surge_at + hold + 2,
                action: ScaleAction::Remove { bin },
            });
        }
        Self {
            events,
            name: "flash-crowd".into(),
            ..Self::steady("flash-crowd", ticks, arrivals)
        }
    }

    /// **Rolling restart**: each of `bins` in turn is drained, migrated,
    /// retired and recommissioned (the re-add reuses the just-retired slot),
    /// one bin every `every` ticks starting at `start_at`.
    pub fn rolling_restart(
        ticks: u64,
        arrivals: ArrivalProcess,
        bins: usize,
        start_at: u64,
        every: u64,
    ) -> Self {
        let mut events = Vec::new();
        for (i, bin) in (0..bins as u32).enumerate() {
            let base = start_at + i as u64 * every;
            events.push(ScaleEvent {
                at_tick: base,
                action: ScaleAction::Drain { bin },
            });
            events.push(ScaleEvent {
                at_tick: base + 2,
                action: ScaleAction::Remove { bin },
            });
            events.push(ScaleEvent {
                at_tick: base + 4,
                action: ScaleAction::Add { weight: 1.0 },
            });
        }
        Self {
            events,
            name: "rolling-restart".into(),
            ..Self::steady("rolling-restart", ticks, arrivals)
        }
    }

    /// **Scale to zero and back**: every bin above the `core` is drained,
    /// migrated and retired at `idle_at`, then recommissioned at `busy_at`.
    pub fn scale_to_zero_and_back(
        ticks: u64,
        arrivals: ArrivalProcess,
        bins: usize,
        core: usize,
        idle_at: u64,
        busy_at: u64,
    ) -> Self {
        assert!(core < bins, "the core must be a strict subset of the bins");
        let mut events = Vec::new();
        for bin in core as u32..bins as u32 {
            events.push(ScaleEvent {
                at_tick: idle_at,
                action: ScaleAction::Drain { bin },
            });
            events.push(ScaleEvent {
                at_tick: idle_at + 2,
                action: ScaleAction::Remove { bin },
            });
            events.push(ScaleEvent {
                at_tick: busy_at,
                action: ScaleAction::Add { weight: 1.0 },
            });
        }
        Self {
            events,
            name: "scale-to-zero".into(),
            ..Self::steady("scale-to-zero", ticks, arrivals)
        }
    }

    /// Reserve slots the engine must pre-allocate so no scripted add is ever
    /// rejected: adds first reuse slots freed by earlier-scheduled removes
    /// (the lowest-retired-slot rule), the rest need fresh reserve. Same
    /// simulation as `Trace::needed_reserve` in the replay crate.
    pub fn needed_reserve(&self) -> usize {
        let mut ordered = self.events.clone();
        ordered.sort_by_key(|e| e.at_tick);
        let mut freed = 0usize;
        let mut reserve = 0usize;
        for event in &ordered {
            match event.action {
                ScaleAction::Remove { .. } => freed += 1,
                ScaleAction::Add { .. } if freed > 0 => freed -= 1,
                ScaleAction::Add { .. } => reserve += 1,
                ScaleAction::Drain { .. } => {}
            }
        }
        reserve
    }
}

/// Outcome of a scale scenario run.
#[derive(Debug)]
pub struct ScaleReport {
    /// The allocator in its final state.
    pub stream: StreamAllocator,
    /// Pattern name (from the scenario).
    pub name: String,
    /// Total arrivals offered (and routed — routing never pauses).
    pub arrived: u64,
    /// Departures executed by churn.
    pub departed: u64,
    /// Tickets force-migrated off draining bins.
    pub migrated: u64,
    /// Scale events staged (each exactly once, after its precondition held).
    pub events_staged: u64,
    /// Scripted events still deferred when the ticks ran out (0 for a
    /// well-formed script with trailing ticks).
    pub events_unapplied: u64,
    /// `routed / offered` — 1.0 means no arrival was ever refused or paused
    /// by a scale event.
    pub availability: f64,
    /// Minimum over ticks of `active bins / peak commissioned bins`.
    pub min_active_fraction: f64,
    /// Gap after the final boundary.
    pub final_gap: f64,
    /// Maximum gap at any boundary.
    pub max_gap: f64,
    /// Mean gap over all boundaries.
    pub mean_gap: f64,
}

/// State of one scripted event inside the driver.
#[derive(Debug, Clone, Copy, PartialEq)]
enum EventState {
    Pending,
    Staged,
}

/// Runs `scenario` on a fresh [`StreamAllocator`] built from `config`, with
/// the reserve automatically widened to [`ScaleScenario::needed_reserve`].
pub fn run_scale_scenario(scenario: &ScaleScenario, config: StreamConfig) -> ScaleReport {
    let reserve = config.reserve_bins.max(scenario.needed_reserve());
    run_scale_scenario_on(scenario, StreamAllocator::new(config.reserve_bins(reserve)))
}

/// Runs `scenario` on an already-constructed [`StreamAllocator`] (attach
/// observers or a metrics registry first). The reserve must already cover
/// the script's adds — use [`run_scale_scenario`] unless pre-seeding.
pub fn run_scale_scenario_on(scenario: &ScaleScenario, mut stream: StreamAllocator) -> ScaleReport {
    let seed = stream.config().seed;
    let initial_bins = stream.config().bins;
    let sampler = ArrivalSampler::new(scenario.arrivals.clone());
    let mut key_rng = SplitMix64::for_stream(seed, ARRIVAL_STREAM, 0);
    let mut depart_rng = SplitMix64::for_stream(seed, DEPART_STREAM, 0);
    let mut churn_credit = 0.0f64;

    let mut states = vec![EventState::Pending; scenario.events.len()];
    let mut order: Vec<usize> = (0..scenario.events.len()).collect();
    order.sort_by_key(|&i| scenario.events[i].at_tick);

    let mut migrated = 0u64;
    let mut events_staged = 0u64;
    let mut offered = 0u64;
    let mut peak_bins = initial_bins;
    let mut min_active_fraction = 1.0f64;

    for tick in 0..scenario.ticks {
        let arrivals = sampler.arrivals_at(tick);
        for _ in 0..arrivals {
            let key = sampler.sample_key(&mut key_rng);
            stream.route(key).expect("streaming route is infallible");
            offered += 1;
        }

        if scenario.churn > 0.0 && tick >= scenario.warmup_ticks {
            churn_credit += scenario.churn * arrivals as f64;
            while churn_credit >= 1.0 && stream.resident_tickets() > 0 {
                churn_credit -= 1.0;
                // Uniform over resident tickets via a linear cursor: cheap at
                // scenario scale and unbiased enough for scale experiments.
                let capacity = stream.capacity();
                let start = depart_rng.gen_index(capacity);
                let bin = (0..capacity)
                    .map(|step| (start + step) % capacity)
                    .find(|&b| stream.tickets_in(b) > 0)
                    .expect("resident_tickets > 0 guarantees a ticketed bin");
                let ticket = stream.ticket_in(bin).expect("bin holds a ticket");
                stream.release(ticket).expect("ticket read from the ledger");
            }
        }

        // Stage every due event whose precondition holds; deferred ones
        // retry next tick. Draining residents are migrated opportunistically
        // so removes become legal.
        for &i in &order {
            let event = &scenario.events[i];
            if states[i] != EventState::Pending || event.at_tick > tick {
                continue;
            }
            let staged = try_stage(&mut stream, event.action, &mut migrated);
            if staged {
                states[i] = EventState::Staged;
                events_staged += 1;
            }
        }

        let (active, commissioned) = active_counts(&stream);
        peak_bins = peak_bins.max(commissioned);
        min_active_fraction = min_active_fraction.min(active as f64 / peak_bins as f64);
    }
    stream.flush();
    // Settle the tail of the script: each flush closes a boundary, applying
    // whatever is staged, which can unlock the next deferred event (a remove
    // waiting on its drain, an add waiting on its remove). Bounded — every
    // pass either stages an event or stops making progress.
    for _ in 0..scenario.events.len() + 2 {
        let mut progressed = false;
        for &i in &order {
            if states[i] != EventState::Pending {
                continue;
            }
            if try_stage(&mut stream, scenario.events[i].action, &mut migrated) {
                states[i] = EventState::Staged;
                events_staged += 1;
                progressed = true;
            }
        }
        if !progressed {
            break;
        }
        stream.flush();
    }

    let events_unapplied = states.iter().filter(|s| **s == EventState::Pending).count() as u64;
    let snapshot = stream.snapshot();
    let final_gap = stream.gap_trajectory().last().copied().unwrap_or(0.0);
    let max_gap = stream.gap_stats().max();
    let max_gap = if max_gap.is_nan() { 0.0 } else { max_gap };
    let mean_gap = stream.gap_stats().mean();
    let mean_gap = if mean_gap.is_nan() { 0.0 } else { mean_gap };
    ScaleReport {
        name: scenario.name.clone(),
        arrived: snapshot.arrived,
        departed: snapshot.departed,
        migrated,
        events_staged,
        events_unapplied,
        // `route` is infallible and never paused by membership changes; the
        // identity is still *measured* so a regression shows up here.
        availability: if offered == 0 {
            1.0
        } else {
            snapshot.arrived as f64 / offered as f64
        },
        min_active_fraction,
        final_gap,
        max_gap,
        mean_gap,
        stream,
    }
}

/// Stages `action` if its precondition holds right now; returns whether it
/// was staged. Migrates draining residents when a remove is blocked on
/// occupancy.
fn try_stage(stream: &mut StreamAllocator, action: ScaleAction, migrated: &mut u64) -> bool {
    match action {
        ScaleAction::Add { weight } => {
            // Without a retired slot staging would be rejected, so keep
            // deferring.
            if !stream.membership().states().contains(&BinState::Retired) {
                return false;
            }
            stream.stage_membership(MembershipPlan::new().add(weight));
            true
        }
        ScaleAction::Drain { bin } => {
            if state_of(stream, bin) != Some(BinState::Active) {
                return false;
            }
            stream.stage_membership(MembershipPlan::new().drain(bin));
            true
        }
        ScaleAction::Remove { bin } => {
            if state_of(stream, bin) != Some(BinState::Draining) {
                return false;
            }
            if stream.load(bin as usize) > 0 || stream.tickets_in(bin as usize) > 0 {
                *migrated += stream.migrate_drained();
            }
            if stream.load(bin as usize) > 0 || stream.tickets_in(bin as usize) > 0 {
                // Anonymous residents (pre-seeded loads) cannot be migrated
                // by ticket; the remove stays deferred.
                return false;
            }
            stream.stage_membership(MembershipPlan::new().remove(bin));
            true
        }
    }
}

/// The lifecycle state of `bin`, if the engine has such a slot.
fn state_of(stream: &StreamAllocator, bin: u32) -> Option<BinState> {
    stream.membership().states().get(bin as usize).copied()
}

/// `(active bins, commissioned bins)` — commissioned counts active and
/// draining slots (they still hold residents), not the retired reserve.
fn active_counts(stream: &StreamAllocator) -> (usize, usize) {
    let table = stream.membership();
    let active = table.active_count();
    let draining = table
        .states()
        .iter()
        .filter(|s| **s == BinState::Draining)
        .count();
    (active, active + draining)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrival::UNIQUE_KEYS;
    use crate::policy::Policy;

    fn uniform(rate: usize) -> ArrivalProcess {
        ArrivalProcess::Uniform {
            keys: UNIQUE_KEYS,
            rate,
        }
    }

    fn base(bins: usize) -> StreamConfig {
        StreamConfig::new(bins)
            .policy(Policy::TwoChoice)
            .batch_size(32)
            .seed(41)
    }

    #[test]
    fn ramp_up_commissions_every_scripted_bin() {
        let scenario = ScaleScenario::ramp_up(80, uniform(64), 8, 10, 4);
        assert_eq!(scenario.needed_reserve(), 8);
        let report = run_scale_scenario(&scenario, base(8));
        assert_eq!(report.events_unapplied, 0);
        assert_eq!(report.events_staged, 8);
        assert_eq!(report.availability, 1.0);
        assert!(report.stream.conserves_balls());
        let table = report.stream.membership();
        assert_eq!(table.active_count(), 16);
    }

    #[test]
    fn flash_crowd_returns_to_the_initial_cluster() {
        let scenario =
            ScaleScenario::flash_crowd(120, uniform(64), 16, 4, 20, 40).with_churn(0.9, 10);
        assert_eq!(scenario.needed_reserve(), 4);
        let report = run_scale_scenario(&scenario, base(16));
        assert_eq!(report.events_unapplied, 0, "script must settle");
        assert_eq!(report.availability, 1.0);
        assert!(report.stream.conserves_balls());
        let table = report.stream.membership();
        assert_eq!(table.active_count(), 16, "surge bins retired again");
        for bin in 16..20u32 {
            assert_eq!(table.state(bin as usize), BinState::Retired);
            assert_eq!(report.stream.load(bin as usize), 0, "retired bins empty");
        }
    }

    #[test]
    fn rolling_restart_migrates_and_recommissions_every_bin() {
        let scenario = ScaleScenario::rolling_restart(140, uniform(64), 8, 10, 8);
        assert_eq!(scenario.needed_reserve(), 0, "re-adds reuse retired slots");
        let report = run_scale_scenario(&scenario, base(8));
        assert_eq!(report.events_unapplied, 0);
        assert_eq!(report.events_staged, 24);
        assert_eq!(report.availability, 1.0);
        assert!(report.migrated > 0, "restarts must move residents");
        assert!(report.stream.conserves_balls());
        let table = report.stream.membership();
        assert_eq!(table.active_count(), 8, "every bin recommissioned");
        // Never fewer than 7 of the 8 peak bins active at once.
        assert!(report.min_active_fraction >= 7.0 / 8.0);
    }

    #[test]
    fn scale_to_zero_and_back_keeps_every_ball() {
        let scenario = ScaleScenario::scale_to_zero_and_back(100, uniform(48), 12, 4, 20, 60);
        let report = run_scale_scenario(&scenario, base(12));
        assert_eq!(report.events_unapplied, 0);
        assert_eq!(report.availability, 1.0);
        assert!(report.migrated > 0, "idle bins hand their residents off");
        assert!(report.stream.conserves_balls());
        let table = report.stream.membership();
        assert_eq!(table.active_count(), 12, "cluster restored");
        assert!(report.min_active_fraction <= 4.0 / 12.0 + 1e-9);
    }

    #[test]
    fn scale_runs_are_deterministic() {
        let scenario = ScaleScenario::rolling_restart(100, uniform(48), 8, 10, 8);
        let run = || {
            let r = run_scale_scenario(&scenario, base(8));
            (r.stream.loads(), r.migrated, r.final_gap.to_bits())
        };
        assert_eq!(run(), run());
    }
}
