//! Layer probes: the layers the serving path calls *inside* the router —
//! ticket ledger, sharded bins, epoch cell, policy, metrics handles — and the
//! single-call and boundary costs of the router itself, each driven through
//! its public functions on the serve workloads' shapes (256 bins, 8 shards,
//! 65 536 resident, groups of 32). The reactor cannot be spanned from
//! outside, and neither can these from outside the router, so each probe is
//! the layer alone, in blocks of calls with one span per block; the figure
//! reported is the median block divided by its calls.

use std::collections::VecDeque;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use pba_concurrent::EpochCell;
use pba_model::rng::SplitMix64;
use pba_model::router::SharedTicketLedger;
use pba_obs::MetricsRegistry;
use pba_stream::{
    choose_bin, ChoiceCtx, ConcurrentRouter, Policy, ShardedBins, StreamAllocator, StreamConfig,
    Ticket,
};

use crate::alloc_count;
use crate::metrics::Metrics;
use crate::pass::Scale;
use crate::serve::{router_config, BINS, RESIDENT, ROUTER_SEED, SHARDS, WINDOW};
use crate::stats;
use crate::trace::{Tracer, NO_SPAN};

/// Calls per group, the serve workloads' run length.
const GROUP: usize = WINDOW / 2;
/// Groups per block: a block is 4096 grouped operations.
const GROUPS_PER_BLOCK: usize = 128;
const CALLS_PER_BLOCK: usize = GROUP * GROUPS_PER_BLOCK;
/// Blocks per nominal second of scale.
const BLOCKS_PER_SECOND: u64 = 8;

/// Runs `block` `blocks` times under one span each and returns the median
/// block time divided by `calls` — ns per call.
fn per_call(
    tracer: &mut Tracer,
    name: &'static str,
    blocks: u32,
    calls: usize,
    mut block: impl FnMut(),
) -> f64 {
    let mut block_ns = Vec::with_capacity(blocks as usize);
    for index in 0..blocks {
        let started = Instant::now();
        block();
        let ended = Instant::now();
        block_ns.push((ended - started).as_nanos() as u64);
        tracer.record(
            name,
            tracer.ns_of(started),
            tracer.ns_of(ended),
            NO_SPAN,
            index,
        );
    }
    block_ns.sort_unstable();
    stats::percentile(&block_ns, 0.5) as f64 / calls as f64
}

/// The two routing cores behind one single-call face, so the same probe
/// prices `ConcurrentRouter::route` (`&self`) and `StreamAllocator::route`
/// (`&mut self`) — the comparison a merge of the cores has to start from.
trait SingleCalls {
    fn route_one(&mut self, key: u64) -> Ticket;
    fn release_one(&mut self, ticket: Ticket);
}

impl SingleCalls for ConcurrentRouter {
    fn route_one(&mut self, key: u64) -> Ticket {
        self.route(key).expect("routing is infallible").ticket
    }
    fn release_one(&mut self, ticket: Ticket) {
        self.release(ticket).expect("an issued ticket releases");
    }
}

impl SingleCalls for StreamAllocator {
    fn route_one(&mut self, key: u64) -> Ticket {
        self.route(key).expect("routing is infallible").ticket
    }
    fn release_one(&mut self, ticket: Ticket) {
        self.release(ticket).expect("an issued ticket releases");
    }
}

/// Per-call figures of [`single_calls`].
struct SingleCallNs {
    /// Median turn: what a call costs when no boundary falls into the turn.
    route: f64,
    release: f64,
    /// Mean turn, the slowest 1 % dropped as interruptions: boundaries (one
    /// turn in eight holds one) are in it.
    route_mean: f64,
}

/// One core under the single-call probe, with its own copy of the input.
struct Probed<'a> {
    core: &'a mut dyn SingleCalls,
    /// Span names of its route and release turns.
    names: [&'static str; 2],
    keys: SplitMix64,
    tickets: VecDeque<Ticket>,
    route_ns: Vec<u64>,
    release_ns: Vec<u64>,
}

/// Looped single `route` / `release` calls against the resident set, 32 of
/// each per turn as in a window. The cores alternate block by block (128
/// turns, about a millisecond), so each runs on warm caches yet whatever the
/// host does to one it does to its neighbours, and differences and ratios
/// between the cores are of like with like.
fn single_calls(
    cores: Vec<(&mut dyn SingleCalls, [&'static str; 2])>,
    seed: u64,
    blocks: u32,
    tracer: &mut Tracer,
) -> Vec<SingleCallNs> {
    let mut probed: Vec<Probed<'_>> = cores
        .into_iter()
        .map(|(core, names)| {
            let mut keys = SplitMix64::for_stream(seed, 0x51c1, 0);
            let tickets = (0..RESIDENT)
                .map(|_| core.route_one(keys.next_u64()))
                .collect();
            Probed {
                core,
                names,
                keys,
                tickets,
                route_ns: Vec::new(),
                release_ns: Vec::new(),
            }
        })
        .collect();
    for block in 0..blocks {
        for probe in &mut probed {
            for turn in block * GROUPS_PER_BLOCK as u32..(block + 1) * GROUPS_PER_BLOCK as u32 {
                let started = Instant::now();
                for _ in 0..GROUP {
                    let ticket = probe.core.route_one(probe.keys.next_u64());
                    probe.tickets.push_back(ticket);
                }
                let routed = Instant::now();
                for _ in 0..GROUP {
                    let oldest = probe
                        .tickets
                        .pop_front()
                        .expect("resident set never drains");
                    probe.core.release_one(oldest);
                }
                let released = Instant::now();
                probe.route_ns.push((routed - started).as_nanos() as u64);
                probe.release_ns.push((released - routed).as_nanos() as u64);
                let (a, b, c) = (
                    tracer.ns_of(started),
                    tracer.ns_of(routed),
                    tracer.ns_of(released),
                );
                tracer.record(probe.names[0], a, b, NO_SPAN, turn);
                tracer.record(probe.names[1], b, c, NO_SPAN, turn);
            }
        }
    }
    probed
        .into_iter()
        .map(|mut probe| {
            probe.route_ns.sort_unstable();
            probe.release_ns.sort_unstable();
            let kept = &probe.route_ns[..probe.route_ns.len() - probe.route_ns.len() / 100];
            SingleCallNs {
                route: stats::percentile(&probe.route_ns, 0.5) as f64 / GROUP as f64,
                release: stats::percentile(&probe.release_ns, 0.5) as f64 / GROUP as f64,
                route_mean: kept.iter().sum::<u64>() as f64 / (kept.len() * GROUP) as f64,
            }
        })
        .collect()
}

/// Every probe, at `scale`.
pub fn probe(seed: u64, scale: Scale, tracer: &mut Tracer) -> Metrics {
    let blocks = scale.count(BLOCKS_PER_SECOND, 1) as u32;
    let mut metrics = Metrics::default();
    let mut rng = SplitMix64::for_stream(seed, 0x1a7e, 0);
    let mut group_of_bins = move || -> Vec<u32> {
        (0..GROUP)
            .map(|_| (rng.next_u64() % BINS as u64) as u32)
            .collect()
    };

    // router: single calls on the serving router; the same calls with a
    // batch that never closes (subtracted: what a boundary costs per ball),
    // on a bare router (divided: what the metric handles cost), and on the
    // `&mut` engine.
    let instrumented = |config: StreamConfig| {
        ConcurrentRouter::with_metrics(config, Arc::new(MetricsRegistry::new()))
    };
    let mut served = instrumented(router_config());
    let mut unbounded = instrumented(router_config().batch_size(1 << 30));
    let mut bare = ConcurrentRouter::new(router_config());
    let mut engine = StreamAllocator::new(router_config());
    engine.install_metrics(Arc::new(MetricsRegistry::new()));
    let calls = single_calls(
        vec![
            (&mut served, ["router.route", "router.release"]),
            (
                &mut unbounded,
                ["router.route.b2e30", "router.release.b2e30"],
            ),
            (&mut bare, ["router.route.bare", "router.release.bare"]),
            (&mut engine, ["engine.route", "engine.release"]),
        ],
        seed,
        blocks,
        tracer,
    );
    let [served, unbounded, bare, engine] = &calls[..] else {
        unreachable!("four cores went in");
    };
    metrics.set("router.route_ns_per_key", served.route);
    metrics.set("router.release_ns_per_ticket", served.release);
    metrics.set(
        "router.boundary_ns_per_ball",
        served.route_mean - unbounded.route_mean,
    );
    metrics.set("obs.route_overhead_ratio", served.route / bare.route);
    metrics.set("engine.route_ns_per_key", engine.route);

    // ledger: grouped and single issue / redeem against a full ledger.
    let ledger = SharedTicketLedger::new(BINS, SHARDS);
    let mut next_id = 0u64;
    let mut resident: VecDeque<Ticket> =
        VecDeque::with_capacity(RESIDENT as usize + CALLS_PER_BLOCK);
    while (resident.len() as u64) < RESIDENT {
        resident.extend(ledger.issue_many(next_id, &group_of_bins()));
        next_id += GROUP as u64;
    }
    let groups: Vec<Vec<u32>> = (0..GROUPS_PER_BLOCK).map(|_| group_of_bins()).collect();
    let mut oldest: Vec<Ticket> = Vec::with_capacity(GROUP);
    metrics.set(
        "ledger.issue_many_ns_per_ticket",
        per_call(tracer, "ledger.issue_many", blocks, CALLS_PER_BLOCK, || {
            for bins in &groups {
                resident.extend(ledger.issue_many(next_id, bins));
                next_id += GROUP as u64;
            }
        }),
    );
    metrics.set(
        "ledger.redeem_many_ns_per_ticket",
        per_call(
            tracer,
            "ledger.redeem_many",
            blocks,
            CALLS_PER_BLOCK,
            || {
                for _ in 0..GROUPS_PER_BLOCK {
                    oldest.clear();
                    oldest.extend(resident.drain(..GROUP));
                    black_box(
                        ledger
                            .redeem_many(&oldest)
                            .expect("resident tickets redeem"),
                    );
                }
            },
        ),
    );
    alloc_count::set_counting(true);
    let allocations_before = alloc_count::allocations();
    metrics.set(
        "ledger.issue_ns_per_ticket",
        per_call(tracer, "ledger.issue", blocks, CALLS_PER_BLOCK, || {
            for bins in &groups {
                for &bin in bins {
                    resident.push_back(ledger.issue(next_id, bin as usize));
                    next_id += 1;
                }
            }
        }),
    );
    metrics.set(
        "ledger.redeem_ns_per_ticket",
        per_call(tracer, "ledger.redeem", blocks, CALLS_PER_BLOCK, || {
            for ticket in resident.drain(..CALLS_PER_BLOCK) {
                black_box(ledger.redeem(ticket).expect("resident tickets redeem"));
            }
        }),
    );
    let allocations = alloc_count::allocations() - allocations_before;
    alloc_count::set_counting(false);
    metrics.set(
        "ledger.allocs_per_ticket",
        allocations as f64 / (2 * blocks as usize * CALLS_PER_BLOCK) as f64,
    );

    // bins: grouped and single commits on loaded bins.
    let bins = ShardedBins::new(BINS, SHARDS);
    for bin in 0..BINS {
        bins.place_many_unrecorded(bin, (RESIDENT / BINS as u64) as u32);
    }
    metrics.set(
        "bins.place_group_ns_per_ball",
        per_call(tracer, "bins.place_group", blocks, CALLS_PER_BLOCK, || {
            for group in &groups {
                bins.place_group(group);
            }
        }),
    );
    metrics.set(
        "bins.release_group_ns_per_ball",
        per_call(
            tracer,
            "bins.release_group",
            blocks,
            CALLS_PER_BLOCK,
            || {
                for group in &groups {
                    black_box(bins.release_group(group));
                }
            },
        ),
    );
    metrics.set(
        "bins.place_ns_per_ball",
        per_call(tracer, "bins.place", blocks, CALLS_PER_BLOCK, || {
            for group in &groups {
                for &bin in group {
                    bins.place(bin as usize);
                }
            }
        }),
    );

    // epoch: the snapshot read every route (or group) pays, and the
    // publication every boundary pays.
    let cell = EpochCell::new(vec![0u32; BINS]);
    metrics.set(
        "epoch.load_ns",
        per_call(tracer, "epoch.load", blocks, CALLS_PER_BLOCK, || {
            for _ in 0..CALLS_PER_BLOCK {
                black_box(cell.load());
            }
        }),
    );
    let (small, large) = (vec![1u32; BINS], vec![1u32; 4 * BINS]);
    metrics.set(
        "epoch.publish_ns",
        per_call(
            tracer,
            "epoch.publish",
            blocks,
            2 * GROUPS_PER_BLOCK,
            || {
                for _ in 0..GROUPS_PER_BLOCK {
                    black_box(cell.publish(small.clone()));
                    black_box(cell.publish(large.clone()));
                }
            },
        ),
    );

    // policy: one two-choice decision against a loaded snapshot.
    let snapshot: Vec<u32> = (0..BINS)
        .map(|bin| (RESIDENT / BINS as u64) as u32 + (bin % 7) as u32)
        .collect();
    let ctx = ChoiceCtx {
        snapshot: &snapshot,
        weights: None,
        batch_threshold: 0,
        capacity_thresholds: &[],
        seed: ROUTER_SEED,
        bins: BINS,
        active: None,
        active_weights: None,
        counters: None,
    };
    let mut candidates = Vec::with_capacity(2);
    let mut key = seed;
    metrics.set(
        "policy.choose_ns_per_key",
        per_call(tracer, "policy.choose_bin", blocks, CALLS_PER_BLOCK, || {
            for _ in 0..CALLS_PER_BLOCK {
                key = key.wrapping_add(0x9e37_79b9_7f4a_7c15);
                black_box(choose_bin(Policy::TwoChoice, &ctx, key, &mut candidates));
            }
        }),
    );

    // obs: what one metric event costs.
    let registry = MetricsRegistry::new();
    let counter = registry.counter("probe.counter");
    metrics.set(
        "obs.counter_inc_ns",
        per_call(tracer, "obs.counter_inc", blocks, CALLS_PER_BLOCK, || {
            for _ in 0..CALLS_PER_BLOCK {
                counter.inc();
            }
        }),
    );
    let histogram = registry.histogram("probe.histogram");
    let mut state = seed | 1;
    metrics.set(
        "obs.histogram_record_ns",
        per_call(
            tracer,
            "obs.histogram_record",
            blocks,
            CALLS_PER_BLOCK,
            || {
                for _ in 0..CALLS_PER_BLOCK {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                    histogram.record(state >> 40);
                }
            },
        ),
    );
    metrics
}
