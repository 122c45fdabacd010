//! Scenario driver: an arrival process, optional churn, an optional script
//! of scale events and a policy, run for a fixed number of ticks on the
//! 1-caller [`ConcurrentRouter`].
//!
//! This is the piece that turns the router API into end-to-end experiments.
//! Each tick runs three steps, in order:
//!
//! 1. **Arrivals.** The process's arrivals are routed (batch boundaries
//!    advance automatically every `batch_size` placements, exactly as a
//!    `push` + drain loop would).
//! 2. **Churn.** After a warm-up, residents retire at a configurable rate by
//!    **releasing their tickets**. Two service models are supported
//!    ([`ChurnMode`]):
//!    * [`ChurnMode::LoadProportional`] — a departing ball is drawn
//!      uniformly over *residents*, so a bin is hit proportionally to its
//!      load (the standard M/M/∞-style model).
//!    * [`ChurnMode::CapacityProportional`] — the departing bin is drawn
//!      proportionally to its **weight**: big backends drain connections
//!      faster, the service-rate-∝-capacity model heterogeneous fleets
//!      actually exhibit. Under uniform weights this degrades to a uniformly
//!      random (non-empty) slot.
//! 3. **Staging.** Every due [`ScaleEvent`] of the script that the membership
//!    state machine accepts is staged through
//!    [`ConcurrentRouter::stage_membership`]; the engine applies it at its
//!    next batch boundary, exactly as a live operator driving the `ADD` /
//!    `DRAIN` / `REMOVE` socket verbs would. An empty script is the fixed
//!    cluster.
//!
//! **Legality is the driver's job, not the script author's, and
//! [`Membership::apply`] is its one rulebook.** The driver keeps a
//! *projected* table: the router's applied table with every event it has
//! staged applied in staging order. A due event is staged only when
//! `Membership::apply` accepts it on the projection; the engine applies the
//! same events in the same order at its boundary, so it rejects none of
//! them. A bin counts as occupied until the applied table has it `Draining`
//! (routes can land on it until then) and while it holds load or tickets,
//! so a remove waits for its drain to apply and its bin to empty; once the
//! drain has applied, the driver force-migrates the bin's residents
//! ([`ConcurrentRouter::migrate_drained`]) first. Deferred events retry
//! every following tick, so a script spaced tighter than the batch cadence
//! still executes, just later, and the engine's `membership.rejected_*`
//! counters stay at zero. The projection is reset to the applied table at
//! every tick with nothing staged, so events staged on the router past the
//! driver (before the run, or on a clone of the handle) enter it once a
//! boundary applies them; until then the driver cannot see them, and the
//! engine may reject a driver event they made illegal. Events still pending
//! when the ticks run out — an illegal one, say, a drain of the last active
//! bin — are reported in [`ScenarioReport::events_unapplied`].
//!
//! The four canonical scale shapes of experiment E19 ship as constructors:
//!
//! | pattern | shape |
//! |---|---|
//! | [`ScenarioConfig::ramp_up`] | start small, add one bin at a fixed cadence |
//! | [`ScenarioConfig::flash_crowd`] | surge bins in at a spike, drain + retire them after |
//! | [`ScenarioConfig::rolling_restart`] | drain → migrate → remove → re-add each bin in turn |
//! | [`ScenarioConfig::scale_to_zero_and_back`] | retire everything but a core, recommission later |
//!
//! The report also carries the minimum active-bin fraction the cluster
//! passed through.

use pba_membership::{BinState, Membership, MembershipEvent, MembershipPlan};
use pba_model::rng::SplitMix64;

use crate::arrival::{ArrivalProcess, ArrivalSampler};
use crate::concurrent::ConcurrentRouter;
use crate::engine::StreamConfig;

/// Stream used for arrival-key randomness.
const ARRIVAL_STREAM: u64 = 0xa331_7a15;
/// Stream used for departure randomness.
const DEPART_STREAM: u64 = 0xdea9_0b75;

/// How churn picks the ball that departs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ChurnMode {
    /// Departures sample uniformly over resident balls: a bin is hit
    /// proportionally to its load (M/M/∞-style service).
    #[default]
    LoadProportional,
    /// The departing bin is sampled proportionally to its **weight** (service
    /// rate ∝ capacity); one of that bin's resident tickets is released.
    /// Empty draws retry a bounded number of times, then fall back to the
    /// nearest non-empty bin, so the draw always terminates.
    CapacityProportional,
}

impl ChurnMode {
    /// Short display name used in experiment tables.
    pub fn name(&self) -> &'static str {
        match self {
            Self::LoadProportional => "load-prop",
            Self::CapacityProportional => "capacity-prop",
        }
    }
}

/// A membership event scheduled at a tick of the scenario clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScaleEvent {
    /// First tick at which the driver may stage the event (it retries every
    /// later tick until [`Membership::apply`] accepts it on the driver's
    /// projected table).
    pub at_tick: u64,
    /// The event to stage. [`run_scenario`] sizes the reserve so that every
    /// `Add` finds a retired slot eventually.
    pub event: MembershipEvent,
}

impl ScaleEvent {
    fn new(at_tick: u64, event: MembershipEvent) -> Self {
        Self { at_tick, event }
    }
}

/// The unit-weight `Add` every scale shape commissions.
const ADD: MembershipEvent = MembershipEvent::Add { weight: 1.0 };

/// A complete streaming scenario.
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    /// Name of the pattern (used in experiment tables).
    pub name: String,
    /// Ticks to simulate.
    pub ticks: u64,
    /// The arrival process.
    pub arrivals: ArrivalProcess,
    /// Expected departures per arrival once warm-up has passed (`0.0` = pure
    /// growth; `1.0` = steady state).
    pub churn: f64,
    /// Which resident departs when churn strikes.
    pub churn_mode: ChurnMode,
    /// Ticks before churn starts (lets the system fill up first).
    pub warmup_ticks: u64,
    /// The scale script; empty for a fixed cluster. Events are staged in
    /// `at_tick` order.
    pub events: Vec<ScaleEvent>,
}

impl ScenarioConfig {
    /// A growth-only scenario on a fixed cluster: `ticks` ticks of the given
    /// arrivals, no churn, no scale events.
    pub fn growth(ticks: u64, arrivals: ArrivalProcess) -> Self {
        Self {
            name: "growth".into(),
            ticks,
            arrivals,
            churn: 0.0,
            churn_mode: ChurnMode::default(),
            warmup_ticks: 0,
            events: Vec::new(),
        }
    }

    /// Adds churn after a warm-up period (builder style).
    pub fn with_churn(mut self, churn: f64, warmup_ticks: u64) -> Self {
        self.churn = churn;
        self.warmup_ticks = warmup_ticks;
        self
    }

    /// Selects how churn picks departing balls (builder style).
    pub fn with_churn_mode(mut self, mode: ChurnMode) -> Self {
        self.churn_mode = mode;
        self
    }

    /// A scenario named `name` running `events`.
    fn scripted(name: &str, ticks: u64, arrivals: ArrivalProcess, events: Vec<ScaleEvent>) -> Self {
        Self {
            name: name.into(),
            events,
            ..Self::growth(ticks, arrivals)
        }
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
            .map(|i| ScaleEvent::new(start_at + i as u64 * every, ADD))
            .collect();
        Self::scripted("ramp-up", ticks, arrivals, events)
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
            let bin = (initial_bins + i) as u32;
            events.extend([
                ScaleEvent::new(surge_at, ADD),
                ScaleEvent::new(surge_at + hold, MembershipEvent::Drain { bin }),
                ScaleEvent::new(surge_at + hold + 2, MembershipEvent::Remove { bin }),
            ]);
        }
        Self::scripted("flash-crowd", ticks, arrivals, events)
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
            events.extend([
                ScaleEvent::new(base, MembershipEvent::Drain { bin }),
                ScaleEvent::new(base + 2, MembershipEvent::Remove { bin }),
                ScaleEvent::new(base + 4, ADD),
            ]);
        }
        Self::scripted("rolling-restart", ticks, arrivals, events)
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
            events.extend([
                ScaleEvent::new(idle_at, MembershipEvent::Drain { bin }),
                ScaleEvent::new(idle_at + 2, MembershipEvent::Remove { bin }),
                ScaleEvent::new(busy_at, ADD),
            ]);
        }
        Self::scripted("scale-to-zero", ticks, arrivals, events)
    }

    /// Reserve slots the engine must pre-allocate so every scripted add
    /// finds a retired slot (0 without a script):
    /// [`MembershipPlan::needed_reserve`] of the script in tick order.
    pub fn needed_reserve(&self) -> usize {
        let mut ordered = self.events.clone();
        ordered.sort_by_key(|e| e.at_tick);
        let plan: MembershipPlan = ordered.iter().map(|e| e.event).collect();
        plan.needed_reserve()
    }
}

/// Outcome of a scenario run.
#[derive(Debug)]
pub struct ScenarioReport {
    /// The router in its final state (loads, stats, trajectory).
    pub router: ConcurrentRouter,
    /// Pattern name (from the scenario).
    pub name: String,
    /// Arrivals the scenario routed (all it offered: a refused route would
    /// panic the run).
    pub arrived: u64,
    /// Departures executed by churn.
    pub departed: u64,
    /// Tickets force-migrated off draining bins.
    pub migrated: u64,
    /// Scale events staged (each exactly once, once the projected table
    /// accepted it).
    pub events_staged: u64,
    /// Scripted events still deferred when the ticks ran out (0 for a
    /// well-formed script with trailing ticks).
    pub events_unapplied: u64,
    /// Minimum over ticks of `active bins / peak commissioned bins`.
    pub min_active_fraction: f64,
    /// Gap after the final boundary (`0` when no batch was closed).
    pub final_gap: f64,
    /// Maximum gap at any boundary.
    pub max_gap: f64,
    /// Mean gap over all boundaries.
    pub mean_gap: f64,
}

/// Runs `scenario` on a fresh [`ConcurrentRouter`] built from `config`, with
/// the reserve widened to [`ScenarioConfig::needed_reserve`].
pub fn run_scenario(scenario: &ScenarioConfig, config: StreamConfig) -> ScenarioReport {
    let reserve = config.reserve_bins.max(scenario.needed_reserve());
    let router = ConcurrentRouter::new(config.reserve_bins(reserve));
    run_scenario_on(scenario, router)
}

/// Runs `scenario` on an already-constructed [`ConcurrentRouter`] — the
/// entry point to use when observers or a metrics registry must be attached
/// (or residents pre-seeded) before the run. The reserve must already cover
/// the script's adds. Arrival and departure randomness derive from the
/// router's configured seed; the report counts only the scenario's own
/// arrivals and departures.
pub fn run_scenario_on(scenario: &ScenarioConfig, router: ConcurrentRouter) -> ScenarioReport {
    let seed = router.config().seed;
    let sampler = ArrivalSampler::new(scenario.arrivals.clone());
    let mut key_rng = SplitMix64::for_stream(seed, ARRIVAL_STREAM, 0);
    let mut depart_rng = SplitMix64::for_stream(seed, DEPART_STREAM, 0);
    // Fractional churn accumulates across ticks so e.g. 0.5 retires one ball
    // every other arrival on average.
    let mut churn_credit = 0.0f64;
    let mut script = Script::new(&scenario.events, router.membership());
    let start = router.stats();
    let mut peak_bins = commissioned(router.membership().states());
    let mut min_active_fraction = 1.0f64;

    for tick in 0..scenario.ticks {
        let arrivals = sampler.arrivals_at(tick);
        for _ in 0..arrivals {
            let key = sampler.sample_key(&mut key_rng);
            router.route(key).expect("streaming route is infallible");
        }

        if scenario.churn > 0.0 && tick >= scenario.warmup_ticks {
            churn_credit += scenario.churn * arrivals as f64;
            churn(
                &router,
                scenario.churn_mode,
                &mut churn_credit,
                &mut depart_rng,
            );
        }

        script.stage_due(&router, tick);
        let applied = router.membership();
        peak_bins = peak_bins.max(commissioned(applied.states()));
        let active = applied.active().len();
        min_active_fraction = min_active_fraction.min(active as f64 / peak_bins as f64);
    }
    router.flush();
    // Settle the tail of the script: each flush closes a boundary, applying
    // whatever is staged, which can unlock the next deferred event (a remove
    // waiting on its drain, an add waiting on its remove). Bounded — every
    // pass either stages an event or stops.
    for _ in 0..scenario.events.len() + 2 {
        if script.stage_due(&router, u64::MAX) == 0 {
            break;
        }
        router.flush();
    }

    let end = router.stats();
    let gaps = router.gap_stats();
    let finite = |x: f64| if x.is_nan() { 0.0 } else { x };
    ScenarioReport {
        name: scenario.name.clone(),
        arrived: end.routed - start.routed,
        departed: end.released - start.released,
        migrated: script.migrated,
        events_staged: script.staged.iter().filter(|&&s| s).count() as u64,
        events_unapplied: script.staged.iter().filter(|&&s| !s).count() as u64,
        min_active_fraction,
        final_gap: router.gap_trajectory().last().copied().unwrap_or(0.0),
        max_gap: finite(gaps.max()),
        mean_gap: finite(gaps.mean()),
        router,
    }
}

/// Releases up to `credit` whole departures (leaving the fraction), drawn by
/// `mode`'s sampler over every capacity slot.
fn churn(router: &ConcurrentRouter, mode: ChurnMode, credit: &mut f64, rng: &mut SplitMix64) {
    match mode {
        ChurnMode::LoadProportional => {
            if *credit >= 1.0 && router.resident_tickets() > 0 {
                // One O(n) Fenwick build per tick, then O(log n) per
                // departure — the per-departure linear scan would make churn
                // cost O(departures · n).
                let mut tree = LoadTree::build_from(router);
                while *credit >= 1.0 && tree.total() > 0 {
                    *credit -= 1.0;
                    let bin = tree.sample_and_remove(rng.gen_range(tree.total()));
                    release_resident_in(router, bin);
                }
            }
        }
        ChurnMode::CapacityProportional => {
            // Track the releasable count locally: `resident_tickets` is
            // cheap, but the loop should not re-query per step.
            let mut residents = router.resident_tickets() as u64;
            while *credit >= 1.0 && residents > 0 {
                *credit -= 1.0;
                residents -= 1;
                let bin = sample_capacity_bin(router, rng);
                release_resident_in(router, bin);
            }
        }
    }
}

/// Releases a resident of `bin` (the churn samplers only propose bins with
/// resident *tickets*, so one always exists; which resident is
/// arbitrary-but-deterministic — balls are exchangeable for every load-level
/// property).
fn release_resident_in(router: &ConcurrentRouter, bin: usize) {
    let ticket = router
        .ticket_in(bin)
        .expect("churn chose a bin without resident tickets");
    router
        .release(ticket)
        .expect("ticket was just read from the ledger");
}

/// Draws the departing bin with probability proportional to its weight
/// (uniformly over the capacity slots when the router is unweighted). A
/// drawn ticketless bin is redrawn up to [`MAX_EMPTY_DRAWS`] times — under
/// pathological skew the heavy bins may all be empty — after which the draw
/// falls forward cyclically to the first bin holding a ticket, so the sample
/// always terminates in O(n) worst case while staying a pure function of the
/// RNG stream. Only *ticketed* residents are releasable, so the ledger, not
/// the raw load, decides eligibility (a pre-seeded engine may hold anonymous
/// balls on top).
fn sample_capacity_bin(router: &ConcurrentRouter, rng: &mut SplitMix64) -> usize {
    debug_assert!(router.resident_tickets() > 0);
    let n = router.capacity();
    let mut bin = 0usize;
    let weights = router.weights();
    for _ in 0..MAX_EMPTY_DRAWS {
        bin = match &weights {
            Some(weights) => weights.sample(rng) as usize,
            None => rng.gen_index(n),
        };
        if router.tickets_in(bin) > 0 {
            return bin;
        }
    }
    (0..n)
        .map(|step| (bin + step) % n)
        .find(|&candidate| router.tickets_in(candidate) > 0)
        .expect("resident_tickets > 0 guarantees a ticketed bin")
}

/// Ticketless-bin redraws tolerated by [`sample_capacity_bin`] before it
/// falls forward to the nearest bin holding a ticket.
const MAX_EMPTY_DRAWS: usize = 64;

/// Fenwick (binary indexed) tree over per-slot **resident-ticket** counts,
/// used to sample a departing ball uniformly over the releasable residents:
/// bin `i` is drawn with probability `tickets_i / total`, in `O(log n)` per
/// draw after an `O(n)` build. For a router whose balls were all routed (the
/// scenario driver's own arrivals) this is identical to sampling by load;
/// anonymous residents of a pre-seeded engine are excluded — they cannot be
/// released.
struct LoadTree {
    /// 1-based Fenwick array of partial sums.
    tree: Vec<u64>,
    total: u64,
}

impl LoadTree {
    /// Builds the tree over every capacity slot of `router`.
    fn build_from(router: &ConcurrentRouter) -> Self {
        let n = router.capacity();
        let mut tree = vec![0u64; n + 1];
        let mut total = 0u64;
        for bin in 0..n {
            let tickets = router.tickets_in(bin) as u64;
            total += tickets;
            tree[bin + 1] += tickets;
            let parent = (bin + 1) + ((bin + 1) & (bin + 1).wrapping_neg());
            if parent <= n {
                let v = tree[bin + 1];
                tree[parent] += v;
            }
        }
        Self { total, tree }
    }

    fn total(&self) -> u64 {
        self.total
    }

    /// Finds the bin holding the `target`-th resident ball (0-based over the
    /// cumulative load order) and removes one ball from it in the tree.
    fn sample_and_remove(&mut self, mut target: u64) -> usize {
        debug_assert!(target < self.total);
        let n = self.tree.len() - 1;
        let mut pos = 0usize;
        let mut mask = n.next_power_of_two();
        while mask > 0 {
            let next = pos + mask;
            if next <= n && self.tree[next] <= target {
                target -= self.tree[next];
                pos = next;
            }
            mask >>= 1;
        }
        // `pos` is the count of bins whose cumulative load is ≤ target, i.e.
        // the 0-based bin index to depart from.
        let bin = pos;
        let mut idx = bin + 1;
        while idx <= n {
            self.tree[idx] -= 1;
            idx += idx & idx.wrapping_neg();
        }
        self.total -= 1;
        bin
    }
}

/// The driver's side of a scale script: which events it has staged, and
/// the table they leave once the engine has applied them.
struct Script<'a> {
    events: &'a [ScaleEvent],
    /// Event indices in `at_tick` order (stable, so same-tick events keep
    /// their script order).
    order: Vec<usize>,
    staged: Vec<bool>,
    /// The router's applied table with every event the driver staged since
    /// the last boundary applied in staging order — what the engine's table
    /// becomes at its next boundary. Reset to the applied table at every
    /// tick with nothing staged.
    projected: Membership,
    migrated: u64,
}

impl<'a> Script<'a> {
    fn new(events: &'a [ScaleEvent], applied: Membership) -> Self {
        let mut order: Vec<usize> = (0..events.len()).collect();
        order.sort_by_key(|&i| events[i].at_tick);
        Self {
            events,
            order,
            staged: vec![false; events.len()],
            projected: applied,
            migrated: 0,
        }
    }

    /// Stages every unstaged event due by `tick` that [`Membership::apply`]
    /// accepts on the projected table; returns how many it staged. A remove
    /// of a draining bin that still holds residents migrates them first.
    fn stage_due(&mut self, router: &ConcurrentRouter, tick: u64) -> usize {
        let (applied, staged_ahead) = router.membership_and_staged();
        if !staged_ahead {
            // Nothing waits for a boundary, so the applied table is the
            // projection; events staged past the driver (on a clone of the
            // handle, or before the run) show here once applied.
            self.projected = applied.clone();
        }
        let draining = |bin: u32| applied.states().get(bin as usize) == Some(&BinState::Draining);
        // Routes can land on a bin until a boundary has applied its drain.
        let occupied = |bin: u32| {
            let slot = bin as usize;
            !draining(bin) || router.load(slot) > 0 || router.tickets_in(slot) > 0
        };
        let mut staged = 0;
        for &i in &self.order {
            let ScaleEvent { at_tick, event } = self.events[i];
            if self.staged[i] || at_tick > tick {
                continue;
            }
            if let MembershipEvent::Remove { bin } = event {
                if draining(bin) && occupied(bin) {
                    self.migrated += router.migrate_drained();
                }
            }
            let plan = MembershipPlan::new().push(event);
            let mut projected = self.projected.clone();
            if projected.apply(&plan, occupied).rejected() > 0 {
                // Not legal yet; retried next tick. (A bin holding anonymous
                // residents — pushed balls, which cannot be migrated by
                // ticket — keeps its remove deferred.)
                continue;
            }
            self.projected = projected;
            router.stage_membership(plan);
            self.staged[i] = true;
            staged += 1;
        }
        staged
    }
}

/// Commissioned slots: active and draining (they still hold residents), not
/// the retired reserve.
fn commissioned(states: &[BinState]) -> usize {
    states.iter().filter(|s| **s != BinState::Retired).count()
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
    fn growth_scenario_allocates_every_arrival() {
        let scenario = ScenarioConfig::growth(50, uniform(40));
        let report = run_scenario(&scenario, StreamConfig::new(64).batch_size(100).seed(1));
        assert_eq!(report.arrived, 2000);
        assert_eq!(report.departed, 0);
        assert_eq!(report.router.resident(), 2000);
        assert!(report.router.conserves_balls());
        assert!(report.final_gap >= 0.0);
        assert!(report.max_gap >= report.final_gap);
    }

    #[test]
    fn churn_on_a_preseeded_engine_only_releases_ticketed_balls() {
        // A pre-seeded engine holds anonymous residents (no tickets); churn
        // must sample over the ticket ledger, not raw loads, or it would pick
        // a bin whose load is anonymous-only and panic. Both churn modes.
        for mode in [ChurnMode::LoadProportional, ChurnMode::CapacityProportional] {
            let router = ConcurrentRouter::new(StreamConfig::new(32).batch_size(16).seed(5));
            for key in 0..128u64 {
                router.push(key); // 128 anonymous residents
            }
            router.flush();
            let scenario = ScenarioConfig::growth(120, uniform(8))
                .with_churn(1.0, 10)
                .with_churn_mode(mode);
            let report = run_scenario_on(&scenario, router);
            assert!(report.departed > 0, "churn must run ({mode:?})");
            assert!(report.router.conserves_balls());
            // The anonymous seed population is untouchable: residents can
            // never drop below it.
            assert!(
                report.router.resident() >= 128,
                "anonymous residents were released ({mode:?})"
            );
        }
    }

    #[test]
    fn steady_state_churn_keeps_population_bounded() {
        let scenario = ScenarioConfig::growth(400, uniform(64)).with_churn(1.0, 100);
        let report = run_scenario(&scenario, StreamConfig::new(64).batch_size(64).seed(2));
        assert!(report.departed > 0);
        assert!(report.router.conserves_balls());
        // Population ≈ warm-up intake; certainly far below total arrivals.
        let resident = report.router.resident();
        assert!(
            resident < report.arrived / 2,
            "churn failed to retire balls: {resident} of {}",
            report.arrived
        );
    }

    #[test]
    fn bursty_arrivals_are_all_drained() {
        let scenario = ScenarioConfig::growth(
            60,
            ArrivalProcess::Bursty {
                keys: 1024,
                base_rate: 16,
                burst_every: 10,
                burst_len: 3,
                burst_mult: 8,
            },
        );
        let report = run_scenario(&scenario, StreamConfig::new(32).batch_size(64).seed(3));
        // 60 ticks: per window of 10 → 3·128 + 7·16 = 496; 6 windows = 2976.
        assert_eq!(report.arrived, 2976);
        assert_eq!(report.router.pending(), 0);
        assert_eq!(report.router.resident(), 2976);
    }

    #[test]
    fn scenarios_are_deterministic() {
        let fixed = ScenarioConfig::growth(
            100,
            ArrivalProcess::Zipf {
                keys: 512,
                exponent: 1.1,
                rate: 32,
            },
        );
        let scripted = ScenarioConfig::rolling_restart(100, uniform(48), 8, 10, 8);
        for scenario in [fixed, scripted] {
            for mode in [ChurnMode::LoadProportional, ChurnMode::CapacityProportional] {
                let scenario = scenario.clone().with_churn(0.5, 20).with_churn_mode(mode);
                let run = || {
                    let r = run_scenario(&scenario, base(8).batch_size(64));
                    let gap = r.final_gap.to_bits();
                    (r.router.loads(), r.departed, r.migrated, gap)
                };
                assert_eq!(run(), run(), "{} / {}", scenario.name, mode.name());
            }
        }
    }

    #[test]
    fn churn_modes_are_both_deterministic() {
        for mode in [ChurnMode::LoadProportional, ChurnMode::CapacityProportional] {
            let scenario = ScenarioConfig::growth(
                120,
                ArrivalProcess::Uniform {
                    keys: 512,
                    rate: 32,
                },
            )
            .with_churn(0.8, 20)
            .with_churn_mode(mode);
            let run = || {
                let r = run_scenario(&scenario, StreamConfig::new(64).batch_size(64).seed(3));
                (r.router.loads(), r.departed)
            };
            assert_eq!(run(), run(), "mode {}", mode.name());
        }
    }

    #[test]
    fn scale_runs_are_deterministic() {
        let scenario = ScenarioConfig::rolling_restart(100, uniform(48), 8, 10, 8);
        let run = || {
            let r = run_scenario(&scenario, base(8));
            (r.router.loads(), r.migrated, r.final_gap.to_bits())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn load_tree_sampling_matches_linear_scan_reference() {
        // Route (not push) so every resident is ticketed — the tree samples
        // over the ticket ledger, which for an all-routed router equals the
        // loads the linear reference scans.
        let router = ConcurrentRouter::new(StreamConfig::new(16).batch_size(16).seed(5));
        for k in 0..200u64 {
            router.route(k).unwrap();
        }
        let loads = router.loads();
        let total: u64 = loads.iter().map(|&l| l as u64).sum();
        for target in 0..total {
            let mut tree = LoadTree::build_from(&router);
            assert_eq!(tree.total(), total);
            let bin = tree.sample_and_remove(target);
            // Linear reference: first bin whose cumulative load exceeds target.
            let mut t = target;
            let expected = loads
                .iter()
                .position(|&l| {
                    if t < l as u64 {
                        true
                    } else {
                        t -= l as u64;
                        false
                    }
                })
                .unwrap();
            assert_eq!(bin, expected, "target {target}");
            assert_eq!(tree.total(), total - 1);
        }
    }

    #[test]
    fn capacity_proportional_churn_retires_from_heavy_bins() {
        use pba_model::router::{ReleaseEvent, RouterObserver};
        use pba_model::weights::BinWeights;
        use std::sync::{Arc, Mutex};

        /// Counts releases per bin via the observer hook — the per-bin
        /// departure census that distinguishes capacity-proportional churn
        /// from a load- or uniform-bin sampler.
        struct ReleaseCensus(Vec<u64>);
        impl RouterObserver for ReleaseCensus {
            fn on_release(&mut self, event: &ReleaseEvent) {
                self.0[event.ticket.bin()] += 1;
            }
        }

        // 4 bins of weight 8 and 28 of weight 1 (W = 60): each heavy bin
        // receives 8/60 of the departures vs 1/60 per light bin — an 8x
        // higher per-bin service rate. A weight-oblivious sampler (uniform
        // bins, or load-proportional once the weighted policy has balanced
        // load ∝ weight... which would also give ~8x; uniform gives 1x)
        // cannot reproduce the 8x per-bin ratio we assert.
        let n = 32usize;
        let weights = BinWeights::power_of_two_tiers(&[(4, 3), (28, 0)]);
        let scenario = ScenarioConfig::growth(400, uniform(n))
            .with_churn(1.0, 50)
            .with_churn_mode(ChurnMode::CapacityProportional);
        let census = Arc::new(Mutex::new(ReleaseCensus(vec![0; n])));
        let router = ConcurrentRouter::new(
            StreamConfig::new(n)
                .policy(Policy::WeightedTwoChoice)
                .batch_size(n)
                .seed(11)
                .weights(weights),
        );
        router.add_observer(census.clone());
        let report = run_scenario_on(&scenario, router);
        assert!(report.departed > 0);
        assert!(report.router.conserves_balls());
        let resident = report.router.resident();
        assert!(
            resident < report.arrived / 2,
            "churn failed to retire balls: {resident} of {}",
            report.arrived
        );
        // The per-bin departure census must show the 8x service-rate skew.
        let counts = &census.lock().unwrap().0;
        let heavy_per_bin: f64 = counts[..4].iter().sum::<u64>() as f64 / 4.0;
        let light_per_bin: f64 = counts[4..].iter().sum::<u64>() as f64 / 28.0;
        assert_eq!(counts.iter().sum::<u64>(), report.departed);
        assert!(
            heavy_per_bin > 5.0 * light_per_bin,
            "heavy bins should retire ~8x per bin: heavy {heavy_per_bin:.1}, \
             light {light_per_bin:.1}"
        );
    }

    #[test]
    fn two_choice_beats_one_choice_under_zipf() {
        let scenario = ScenarioConfig::growth(
            200,
            ArrivalProcess::Zipf {
                keys: 1 << 14,
                exponent: 0.9,
                rate: 256,
            },
        );
        let base = StreamConfig::new(256).batch_size(512).seed(4);
        let one = run_scenario(&scenario, base.clone().policy(Policy::OneChoice));
        let two = run_scenario(&scenario, base.policy(Policy::TwoChoice));
        assert!(
            two.final_gap < one.final_gap,
            "two-choice {} vs one-choice {}",
            two.final_gap,
            one.final_gap
        );
    }

    #[test]
    fn ramp_up_commissions_every_scripted_bin() {
        let scenario = ScenarioConfig::ramp_up(80, uniform(64), 8, 10, 4);
        assert_eq!(scenario.needed_reserve(), 8);
        let report = run_scenario(&scenario, base(8));
        assert_eq!(report.events_unapplied, 0);
        assert_eq!(report.events_staged, 8);
        assert!(report.router.conserves_balls());
        assert_eq!(report.router.membership().active().len(), 16);
    }

    #[test]
    fn flash_crowd_returns_to_the_initial_cluster() {
        let scenario =
            ScenarioConfig::flash_crowd(120, uniform(64), 16, 4, 20, 40).with_churn(0.9, 10);
        assert_eq!(scenario.needed_reserve(), 4);
        let report = run_scenario(&scenario, base(16));
        assert_eq!(report.events_unapplied, 0, "script must settle");
        assert!(report.router.conserves_balls());
        let membership = report.router.membership();
        assert_eq!(membership.active().len(), 16, "surge bins retired again");
        for (bin, &state) in membership.states().iter().enumerate().skip(16) {
            assert_eq!(state, BinState::Retired);
            assert_eq!(report.router.load(bin), 0, "retired bins empty");
        }
    }

    #[test]
    fn rolling_restart_migrates_and_recommissions_every_bin() {
        let scenario = ScenarioConfig::rolling_restart(140, uniform(64), 8, 10, 8);
        assert_eq!(scenario.needed_reserve(), 0, "re-adds reuse retired slots");
        let report = run_scenario(&scenario, base(8));
        assert_eq!(report.events_unapplied, 0);
        assert_eq!(report.events_staged, 24);
        assert!(report.migrated > 0, "restarts must move residents");
        assert!(report.router.conserves_balls());
        assert_eq!(
            report.router.membership().active().len(),
            8,
            "every bin recommissioned"
        );
        // Never fewer than 7 of the 8 peak bins active at once.
        assert!(report.min_active_fraction >= 7.0 / 8.0);
    }

    #[test]
    fn scale_to_zero_and_back_keeps_every_ball() {
        let scenario = ScenarioConfig::scale_to_zero_and_back(100, uniform(48), 12, 4, 20, 60);
        let report = run_scenario(&scenario, base(12));
        assert_eq!(report.events_unapplied, 0);
        assert!(report.migrated > 0, "idle bins hand their residents off");
        assert!(report.router.conserves_balls());
        assert_eq!(
            report.router.membership().active().len(),
            12,
            "cluster restored"
        );
        assert!(report.min_active_fraction <= 4.0 / 12.0 + 1e-9);
    }

    #[test]
    fn adds_staged_before_one_boundary_each_get_a_slot() {
        use BinState::{Active as A, Draining as D, Retired as R};
        use MembershipEvent::{Add, Drain, Remove};
        struct Row {
            bins: usize,
            script: &'static [(u64, MembershipEvent)],
            reserve: usize,
            unapplied: u64,
            /// Accepted adds, drains and removes.
            accepted: [u64; 3],
            states: &'static [BinState],
        }
        const ADD: MembershipEvent = Add { weight: 1.0 };
        // Events due before one boundary, each of which is legal only
        // against the table the earlier ones leave: two adds with one free
        // slot (the second waits for the slot the remove frees, so slot 3
        // is reused and reserve slot 4 used), one bin drained twice, both
        // bins of two drained, one bin removed twice.
        let rows = [
            Row {
                bins: 4,
                script: &[
                    (0, Drain { bin: 3 }),
                    (0, Remove { bin: 3 }),
                    (0, ADD),
                    (0, ADD),
                ],
                reserve: 1,
                unapplied: 0,
                accepted: [2, 1, 1],
                states: &[A, A, A, A, A],
            },
            Row {
                bins: 4,
                script: &[(0, Drain { bin: 3 }), (0, Drain { bin: 3 })],
                reserve: 0,
                unapplied: 1,
                accepted: [0, 1, 0],
                states: &[A, A, A, D],
            },
            Row {
                bins: 2,
                script: &[(0, Drain { bin: 0 }), (0, Drain { bin: 1 })],
                reserve: 0,
                unapplied: 1,
                accepted: [0, 1, 0],
                states: &[D, A],
            },
            Row {
                bins: 4,
                script: &[
                    (0, Drain { bin: 3 }),
                    (2, Remove { bin: 3 }),
                    (2, Remove { bin: 3 }),
                ],
                reserve: 0,
                unapplied: 1,
                accepted: [0, 1, 1],
                states: &[A, A, A, R],
            },
        ];
        for row in rows {
            let script = row.script;
            let scenario = ScenarioConfig {
                events: script
                    .iter()
                    .map(|&(at, e)| ScaleEvent::new(at, e))
                    .collect(),
                ..ScenarioConfig::growth(40, uniform(8))
            };
            assert_eq!(scenario.needed_reserve(), row.reserve, "{script:?}");
            let registry = std::sync::Arc::new(pba_obs::MetricsRegistry::new());
            let config = StreamConfig::new(row.bins)
                .batch_size(4)
                .seed(1)
                .reserve_bins(row.reserve);
            let router = ConcurrentRouter::with_metrics(config, registry.clone());
            let report = run_scenario_on(&scenario, router);
            let snap = registry.snapshot();
            let mut accepted = 0;
            for (verb, expected) in ["adds", "drains", "removes"].into_iter().zip(row.accepted) {
                let rejected = snap.counter(&format!("membership.rejected_{verb}"));
                assert_eq!(rejected, 0, "{verb} of {script:?}");
                let count = snap.counter(&format!("membership.{verb}"));
                assert_eq!(count, expected, "{verb} of {script:?}");
                accepted += count;
            }
            assert_eq!(
                report.events_staged + report.events_unapplied,
                script.len() as u64
            );
            assert_eq!(report.events_unapplied, row.unapplied, "{script:?}");
            assert_eq!(accepted, report.events_staged, "{script:?}");
            assert_eq!(
                report.router.membership().states(),
                row.states,
                "{script:?}"
            );
        }
    }

    #[test]
    fn events_staged_outside_the_driver_resync_its_projection() {
        // A drain and an add staged on the router before the run reach the
        // driver's projection once a boundary applies them: the scripted
        // remove of the drained bin then goes through (without the resync
        // it would stay deferred), and the scripted add reuses the slot it
        // frees, since the router's own add took reserve slot 4.
        let registry = std::sync::Arc::new(pba_obs::MetricsRegistry::new());
        let config = StreamConfig::new(4).batch_size(4).seed(1).reserve_bins(2);
        let router = ConcurrentRouter::with_metrics(config, registry.clone());
        router.stage_membership(MembershipPlan::new().drain(1).add(1.0));
        let scenario = ScenarioConfig {
            events: vec![
                ScaleEvent::new(0, MembershipEvent::Remove { bin: 1 }),
                ScaleEvent::new(0, MembershipEvent::Add { weight: 1.0 }),
            ],
            ..ScenarioConfig::growth(40, uniform(8))
        };
        let report = run_scenario_on(&scenario, router);
        assert_eq!(report.events_unapplied, 0);
        let snap = registry.snapshot();
        for verb in ["adds", "drains", "removes"] {
            assert_eq!(
                snap.counter(&format!("membership.rejected_{verb}")),
                0,
                "{verb}"
            );
        }
        use BinState::{Active as A, Retired as R};
        assert_eq!(report.router.membership().states(), &[A, A, A, A, A, R]);
        assert!(report.router.conserves_balls());
    }
}
