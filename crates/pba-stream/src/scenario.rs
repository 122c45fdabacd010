//! Scenario driver: an arrival process, optional churn, and a policy, run for
//! a fixed number of ticks.
//!
//! This is the piece that turns the incremental [`StreamAllocator`] API into
//! end-to-end experiments: each tick **routes** the process's arrivals
//! through the handle-based router surface (batch boundaries advance
//! automatically every `batch_size` placements, exactly as a `push` + drain
//! loop would) and, after a warm-up, retires residents at a configurable
//! churn rate by **releasing their tickets**. Two service models are
//! supported ([`ChurnMode`]):
//!
//! * [`ChurnMode::LoadProportional`] — a departing ball is drawn uniformly
//!   over *residents*, so a bin is hit proportionally to its load (the
//!   standard M/M/∞-style model).
//! * [`ChurnMode::CapacityProportional`] — the departing bin is drawn
//!   proportionally to its **weight**: big backends drain connections faster,
//!   the service-rate-∝-capacity model heterogeneous fleets actually exhibit.
//!   Under uniform weights this degrades to a uniformly random (non-empty)
//!   bin.

use pba_model::rng::SplitMix64;

use crate::arrival::{ArrivalProcess, ArrivalSampler};
use crate::engine::{StreamAllocator, StreamConfig};

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

/// A complete streaming scenario.
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
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
    /// Whether to close the final partial batch at the end of the run (so its
    /// boundary is recorded in the gap trajectory).
    pub flush_at_end: bool,
}

impl ScenarioConfig {
    /// A growth-only scenario: `ticks` ticks of the given arrivals, no churn.
    pub fn growth(ticks: u64, arrivals: ArrivalProcess) -> Self {
        Self {
            ticks,
            arrivals,
            churn: 0.0,
            churn_mode: ChurnMode::default(),
            warmup_ticks: 0,
            flush_at_end: true,
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
}

/// Outcome of a scenario run.
#[derive(Debug)]
pub struct ScenarioReport {
    /// The allocator in its final state (loads, stats, trajectory).
    pub stream: StreamAllocator,
    /// Total arrivals generated.
    pub arrived: u64,
    /// Total departures executed.
    pub departed: u64,
    /// Gap after the final batch (`0` when no batch was drained).
    pub final_gap: f64,
    /// Maximum gap observed at any batch boundary.
    pub max_gap: f64,
    /// Mean gap over all batch boundaries.
    pub mean_gap: f64,
}

/// Runs `scenario` on a fresh [`StreamAllocator`] built from `config`.
pub fn run_scenario(scenario: &ScenarioConfig, config: StreamConfig) -> ScenarioReport {
    run_scenario_on(scenario, StreamAllocator::new(config))
}

/// Runs `scenario` on an already-constructed [`StreamAllocator`] — the entry
/// point to use when observers must be attached (or state pre-seeded) before
/// the run. The stream should be freshly constructed; arrival and departure
/// randomness derive from its configured seed.
pub fn run_scenario_on(scenario: &ScenarioConfig, mut stream: StreamAllocator) -> ScenarioReport {
    let seed = stream.config().seed;
    let n = stream.config().bins;
    let sampler = ArrivalSampler::new(scenario.arrivals.clone());
    let mut key_rng = SplitMix64::for_stream(seed, ARRIVAL_STREAM, 0);
    let mut depart_rng = SplitMix64::for_stream(seed, DEPART_STREAM, 0);
    // Fractional churn accumulates across ticks so e.g. 0.5 retires one ball
    // every other arrival on average.
    let mut churn_credit = 0.0f64;

    for tick in 0..scenario.ticks {
        let arrivals = sampler.arrivals_at(tick);
        for _ in 0..arrivals {
            let key = sampler.sample_key(&mut key_rng);
            stream.route(key).expect("streaming route is infallible");
        }

        if scenario.churn > 0.0 && tick >= scenario.warmup_ticks {
            churn_credit += scenario.churn * arrivals as f64;
            match scenario.churn_mode {
                ChurnMode::LoadProportional => {
                    if churn_credit >= 1.0 && stream.resident_tickets() > 0 {
                        // One O(n) Fenwick build per tick, then O(log n) per
                        // departure — the per-departure linear scan would make
                        // churn cost O(departures · n).
                        let mut tree = LoadTree::build_from(&stream, n);
                        while churn_credit >= 1.0 && tree.total() > 0 {
                            churn_credit -= 1.0;
                            let bin = tree.sample_and_remove(depart_rng.gen_range(tree.total()));
                            release_resident_in(&mut stream, bin);
                        }
                    }
                }
                ChurnMode::CapacityProportional => {
                    // Track the releasable count locally: `resident_tickets`
                    // is cheap, but the loop should not re-query per step.
                    let mut residents = stream.resident_tickets() as u64;
                    while churn_credit >= 1.0 && residents > 0 {
                        churn_credit -= 1.0;
                        residents -= 1;
                        let bin = sample_capacity_bin(&stream, &mut depart_rng, n);
                        release_resident_in(&mut stream, bin);
                    }
                }
            }
        }
    }
    if scenario.flush_at_end {
        stream.flush();
    }

    let trajectory = stream.gap_trajectory();
    let final_gap = trajectory.last().copied().unwrap_or(0.0);
    let max_gap = stream.gap_stats().max();
    let max_gap = if max_gap.is_nan() { 0.0 } else { max_gap };
    let mean_gap = stream.gap_stats().mean();
    let snapshot = stream.snapshot();
    ScenarioReport {
        arrived: snapshot.arrived,
        departed: snapshot.departed,
        final_gap,
        max_gap,
        mean_gap,
        stream,
    }
}

/// Releases a resident of `bin` (the churn samplers only propose bins with
/// resident *tickets*, so one always exists; which resident is
/// arbitrary-but-deterministic — balls are exchangeable for every load-level
/// property).
fn release_resident_in(stream: &mut StreamAllocator, bin: usize) {
    let ticket = stream
        .ticket_in(bin)
        .expect("churn chose a bin without resident tickets");
    stream
        .release(ticket)
        .expect("ticket was just read from the ledger");
}

/// Draws the departing bin with probability proportional to its weight
/// (uniformly when the stream is unweighted). A drawn ticketless bin is
/// redrawn up to [`MAX_EMPTY_DRAWS`] times — under pathological skew the
/// heavy bins may all be empty — after which the draw falls forward
/// cyclically to the first bin holding a ticket, so the sample always
/// terminates in O(n) worst case while staying a pure function of the RNG
/// stream. Only *ticketed* residents are releasable, so the ledger, not the
/// raw load, decides eligibility (a pre-seeded engine may hold anonymous
/// balls on top).
fn sample_capacity_bin(stream: &StreamAllocator, rng: &mut SplitMix64, n: usize) -> usize {
    debug_assert!(stream.resident_tickets() > 0);
    let mut bin = 0usize;
    let weights = stream.weights();
    for _ in 0..MAX_EMPTY_DRAWS {
        bin = match &weights {
            Some(weights) => weights.sample(rng) as usize,
            None => rng.gen_index(n),
        };
        if stream.tickets_in(bin) > 0 {
            return bin;
        }
    }
    (0..n)
        .map(|step| (bin + step) % n)
        .find(|&candidate| stream.tickets_in(candidate) > 0)
        .expect("resident_tickets > 0 guarantees a ticketed bin")
}

/// Ticketless-bin redraws tolerated by [`sample_capacity_bin`] before it
/// falls forward to the nearest bin holding a ticket.
const MAX_EMPTY_DRAWS: usize = 64;

/// Fenwick (binary indexed) tree over per-bin **resident-ticket** counts,
/// used to sample a departing ball uniformly over the releasable residents:
/// bin `i` is drawn with probability `tickets_i / total`, in `O(log n)` per
/// draw after an `O(n)` build. For a stream whose balls were all routed (the
/// scenario driver's own arrivals) this is identical to sampling by load;
/// anonymous residents of a pre-seeded engine are excluded — they cannot be
/// released.
struct LoadTree {
    /// 1-based Fenwick array of partial sums.
    tree: Vec<u64>,
    total: u64,
}

impl LoadTree {
    fn build_from(stream: &StreamAllocator, n: usize) -> Self {
        let mut tree = vec![0u64; n + 1];
        let mut total = 0u64;
        for bin in 0..n {
            let tickets = stream.tickets_in(bin) as u64;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::Policy;

    #[test]
    fn growth_scenario_allocates_every_arrival() {
        let scenario = ScenarioConfig::growth(
            50,
            ArrivalProcess::Uniform {
                keys: crate::arrival::UNIQUE_KEYS,
                rate: 40,
            },
        );
        let report = run_scenario(&scenario, StreamConfig::new(64).batch_size(100).seed(1));
        assert_eq!(report.arrived, 2000);
        assert_eq!(report.departed, 0);
        assert_eq!(report.stream.resident(), 2000);
        assert!(report.stream.conserves_balls());
        assert!(report.final_gap >= 0.0);
        assert!(report.max_gap >= report.final_gap);
    }

    #[test]
    fn churn_on_a_preseeded_engine_only_releases_ticketed_balls() {
        // A pre-seeded engine holds anonymous residents (no tickets); churn
        // must sample over the ticket ledger, not raw loads, or it would pick
        // a bin whose load is anonymous-only and panic. Both churn modes.
        for mode in [ChurnMode::LoadProportional, ChurnMode::CapacityProportional] {
            let n = 32usize;
            let seeded_loads = vec![4u32; n]; // 128 anonymous residents
            let stream = StreamAllocator::with_resident_loads(
                StreamConfig::new(n).batch_size(16).seed(5),
                &seeded_loads,
            );
            let scenario = ScenarioConfig::growth(
                120,
                ArrivalProcess::Uniform {
                    keys: crate::arrival::UNIQUE_KEYS,
                    rate: 8,
                },
            )
            .with_churn(1.0, 10)
            .with_churn_mode(mode);
            let report = run_scenario_on(&scenario, stream);
            assert!(report.departed > 0, "churn must run ({mode:?})");
            assert!(report.stream.conserves_balls());
            // The anonymous seed population is untouchable: residents can
            // never drop below it.
            assert!(
                report.stream.resident() >= 128,
                "anonymous residents were released ({mode:?})"
            );
        }
    }

    #[test]
    fn steady_state_churn_keeps_population_bounded() {
        let scenario = ScenarioConfig::growth(
            400,
            ArrivalProcess::Uniform {
                keys: crate::arrival::UNIQUE_KEYS,
                rate: 64,
            },
        )
        .with_churn(1.0, 100);
        let report = run_scenario(&scenario, StreamConfig::new(64).batch_size(64).seed(2));
        assert!(report.departed > 0);
        assert!(report.stream.conserves_balls());
        // Population ≈ warm-up intake; certainly far below total arrivals.
        let resident = report.stream.resident();
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
        assert_eq!(report.stream.pending(), 0);
        assert_eq!(report.stream.resident(), 2976);
    }

    #[test]
    fn scenarios_are_deterministic() {
        let scenario = ScenarioConfig::growth(
            100,
            ArrivalProcess::Zipf {
                keys: 512,
                exponent: 1.1,
                rate: 32,
            },
        )
        .with_churn(0.5, 20);
        let run = || {
            let r = run_scenario(
                &scenario,
                StreamConfig::new(64)
                    .policy(Policy::TwoChoice)
                    .batch_size(128)
                    .seed(9),
            );
            (r.stream.loads(), r.departed)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn load_tree_sampling_matches_linear_scan_reference() {
        // Route (not push) so every resident is ticketed — the tree samples
        // over the ticket ledger, which for an all-routed stream equals the
        // loads the linear reference scans.
        let mut stream = StreamAllocator::new(StreamConfig::new(16).batch_size(16).seed(5));
        for k in 0..200u64 {
            stream.route(k).unwrap();
        }
        let loads = stream.loads();
        let total: u64 = loads.iter().map(|&l| l as u64).sum();
        for target in 0..total {
            let mut tree = LoadTree::build_from(&stream, 16);
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
        let scenario = ScenarioConfig::growth(
            400,
            ArrivalProcess::Uniform {
                keys: crate::arrival::UNIQUE_KEYS,
                rate: n,
            },
        )
        .with_churn(1.0, 50)
        .with_churn_mode(ChurnMode::CapacityProportional);
        let census = Arc::new(Mutex::new(ReleaseCensus(vec![0; n])));
        let mut stream = StreamAllocator::new(
            StreamConfig::new(n)
                .policy(Policy::WeightedTwoChoice)
                .batch_size(n)
                .seed(11)
                .weights(weights),
        );
        stream.add_observer(census.clone());
        let report = run_scenario_on(&scenario, stream);
        assert!(report.departed > 0);
        assert!(report.stream.conserves_balls());
        let resident = report.stream.resident();
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
        let stats = report.stream.shard_stats();
        let departed_total: u64 = stats.iter().map(|s| s.departed).sum();
        assert_eq!(departed_total, report.departed);
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
                (r.stream.loads(), r.departed)
            };
            assert_eq!(run(), run(), "mode {}", mode.name());
        }
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
}
