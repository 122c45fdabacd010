//! `stream-drain`: the in-process batch face of the engine. Ticks of 4096
//! `push` of uniform independent keys followed by `drain_ready`, on a
//! `StreamAllocator` with two drain workers. No sockets, codec, tickets or
//! park map: `engine`, `commit`/`policy`, `shard` and the worker pool do all
//! the work, and the input is deterministic, so `balance_gap` and the final
//! loads repeat exactly for a given seed.

use std::sync::Arc;
use std::time::Instant;

use pba_model::rng::SplitMix64;
use pba_obs::MetricsRegistry;
use pba_stream::{Policy, Router, StreamAllocator, StreamConfig};

use crate::affinity::{self, Confinement};
use crate::metrics::Metrics;
use crate::pass::{loads_fnv, set_up, Outcome, PassTimes, Scale, TimedPass, Traced};
use crate::serve::drops_of;
use crate::stats::SLICES;
use crate::trace::{Tracer, NO_SPAN};

const BINS: usize = 1024;
/// Batch size, and balls per tick (the unit of latency).
const BATCH: usize = 4096;
/// Timed balls per nominal second.
const BALLS_PER_SECOND: u64 = 3 << 23;
/// Warm-up balls per nominal second (2^24 at the default 16 s).
const WARMUP_PER_SECOND: u64 = 1 << 20;
const COUNT_MULTIPLE: u64 = (BATCH * SLICES) as u64;
/// The gap envelope `b/n + log2 n` of the batched model.
const GAP_ENVELOPE: f64 = (BATCH / BINS) as f64 + 10.0;

fn config() -> StreamConfig {
    StreamConfig::new(BINS)
        .policy(Policy::TwoChoice)
        .batch_size(BATCH)
        .shards(8)
        .num_threads(2)
        .seed(7)
}

struct Stream {
    engine: StreamAllocator,
    registry: Arc<MetricsRegistry>,
    keys: SplitMix64,
    pushed: u64,
    pending_max: usize,
}

impl Stream {
    /// Engine and pool built, keys seeded, warm-up drained: what `setup_s`
    /// pays for.
    fn ready(config: StreamConfig, seed: u64, scale: Scale) -> Self {
        let registry = Arc::new(MetricsRegistry::new());
        let mut engine = StreamAllocator::new(config);
        engine.install_metrics(Arc::clone(&registry));
        let mut stream = Self {
            engine,
            registry,
            keys: SplitMix64::for_stream(seed, 0xd7a1, 0),
            pushed: 0,
            pending_max: 0,
        };
        let warmup = scale.count(WARMUP_PER_SECOND, BATCH as u64);
        stream.ticks(warmup / BATCH as u64, None, &mut Tracer::off());
        stream
    }

    fn ticks(&mut self, ticks: u64, mut pass: Option<&mut TimedPass>, tracer: &mut Tracer) {
        for tick in 0..ticks as u32 {
            let started = Instant::now();
            for _ in 0..BATCH {
                self.engine.push(self.keys.next_u64());
            }
            self.pushed += BATCH as u64;
            self.pending_max = self.pending_max.max(self.engine.pending());
            let pushed = if tracer.is_on() {
                Some(Instant::now())
            } else {
                None
            };
            self.engine.drain_ready();
            let done = Instant::now();
            if let Some(pass) = pass.as_deref_mut() {
                pass.unit_done(started, done);
            }
            if let Some(pushed) = pushed {
                let (a, b, c) = (
                    tracer.ns_of(started),
                    tracer.ns_of(pushed),
                    tracer.ns_of(done),
                );
                let unit = tracer.record("engine.tick", a, c, NO_SPAN, tick);
                tracer.record("engine.push", a, b, unit, tick);
                tracer.record("engine.drain", b, c, unit, tick);
            }
        }
    }

    /// The timed pass, with the gap averaged over its own batch boundaries.
    fn timed_pass(&mut self, balls: u64, tracer: &mut Tracer) -> (PassTimes, f64) {
        let before = *self.engine.gap_stats();
        let mut pass = TimedPass::begin(balls / BATCH as u64, BATCH as u64);
        self.ticks(balls / BATCH as u64, Some(&mut pass), tracer);
        let times = pass.finish();
        let after = self.engine.gap_stats();
        let boundaries = after.count() - before.count();
        let gap = (after.sum() - before.sum()) / boundaries.max(1) as f64;
        (times, gap)
    }

    fn check_outputs(&self, outcome: &mut Outcome, gap: f64) {
        let stats = self.engine.stats();
        outcome.check(self.engine.conserves_balls(), || {
            "conserves_balls() is false".into()
        });
        outcome.check(self.engine.resident() == self.pushed, || {
            format!(
                "{} resident of {} pushed",
                self.engine.resident(),
                self.pushed
            )
        });
        outcome.check(self.engine.loads().len() == BINS, || {
            "a ball left [0, n)".into()
        });
        outcome.check(stats.batches == self.pushed / BATCH as u64, || {
            format!("{} batches for {} balls", stats.batches, self.pushed)
        });
        outcome.check(self.engine.pending() == 0, || "balls left pending".into());
        outcome.check(gap <= GAP_ENVELOPE, || {
            format!("balance gap {gap:.3} exceeds b/n + log2 n = {GAP_ENVELOPE}")
        });
        let drops = drops_of(&self.registry.snapshot());
        outcome.failed += drops;
        outcome.check(drops == 0, || format!("{drops} balls hit a drop counter"));
    }
}

/// The untraced run.
pub fn run(seed: u64, scale: Scale) -> Result<Outcome, String> {
    let (mut stream, setup_s) = set_up(|| Ok::<_, String>(Stream::ready(config(), seed, scale)))?;
    let balls = scale.count(BALLS_PER_SECOND, COUNT_MULTIPLE);
    let (times, gap) = stream.timed_pass(balls, &mut Tracer::off());
    let mut outcome = Outcome::default();
    outcome.set_end_to_end(&setup_s, &times, gap);
    stream.check_outputs(&mut outcome, gap);
    outcome.set_ok_ratio();
    Ok(outcome)
}

/// `engine.drain` span time per ball over `balls` balls of the seed's input.
fn drain_ns_per_ball(config: StreamConfig, seed: u64, scale: Scale, balls: u64) -> f64 {
    let mut tracer = Tracer::on((3 * balls / BATCH as u64) as usize);
    Stream::ready(config, seed, scale).timed_pass(balls, &mut tracer);
    tracer.totals_from(0)["engine.drain"].total_ns as f64 / balls as f64
}

/// The traced run: an untraced reference pass, the same pass with a span
/// around each tick's pushes and its drain, a sequential-drain pass over a
/// prefix of the same input — all on one CPU, like the gated run — and then,
/// with every CPU allowed, the reference pass and both drain paths again.
pub fn trace(seed: u64, scale: Scale, cpus: Option<&Confinement>, tracer: &mut Tracer) -> Traced {
    let balls = scale.count(BALLS_PER_SECOND, COUNT_MULTIPLE);
    let reference_pass = || {
        Stream::ready(config(), seed, scale)
            .timed_pass(balls, &mut Tracer::off())
            .0
    };
    let reference = reference_pass();

    let mut stream = Stream::ready(config(), seed, scale);
    let first_span = tracer.spans().len();
    let (times, gap) = stream.timed_pass(balls, tracer);
    let mut checks = Outcome::default();
    stream.check_outputs(&mut checks, gap);
    let totals = tracer.totals_from(first_span);
    let span_ns = |name: &str| totals.get(name).map_or(0, |t| t.total_ns);
    // Push and drain are all a tick does, so their spans should cover the
    // wall. Below a few dozen ticks per slice the harness's own sixteen
    // `/proc` reads at the slice marks are several percent of the pass, and
    // the check would be measuring those.
    if balls / BATCH as u64 >= 64 * SLICES as u64 {
        let covered = (span_ns("engine.push") + span_ns("engine.drain")) as f64;
        checks.check(covered >= 0.95 * times.wall_ns as f64, || {
            format!(
                "push + drain spans cover {:.1} % of the timed wall",
                100.0 * covered / times.wall_ns as f64
            )
        });
    }

    let prefix = scale.reduced(4).count(BALLS_PER_SECOND, COUNT_MULTIPLE);
    let sequential_ns_per_ball = drain_ns_per_ball(config().sequential(), seed, scale, prefix);
    // What the second drain worker buys when it has a CPU of its own.
    let (all_cpus, parallel_speedup) = affinity::on_all_cpus(cpus, || {
        let sequential = drain_ns_per_ball(config().sequential(), seed, scale, prefix);
        let parallel = drain_ns_per_ball(config(), seed, scale, prefix);
        (reference_pass(), sequential / parallel)
    });

    let mut metrics = Metrics::default();
    metrics.set(
        "engine.push_ns_per_ball",
        span_ns("engine.push") as f64 / balls as f64,
    );
    metrics.set(
        "engine.drain_ns_per_ball",
        span_ns("engine.drain") as f64 / balls as f64,
    );
    metrics.set("engine.drain_seq_ns_per_ball", sequential_ns_per_ball);
    metrics.set("engine.drain_parallel_speedup", parallel_speedup);
    metrics.set("engine.batches", stream.engine.stats().batches as f64);
    metrics.set("engine.pending_max", stream.pending_max as f64);
    metrics.set("engine.gap_mean", gap);
    Traced {
        metrics,
        attempted: times.ops,
        overhead_ratio: times.ns_per_op() / reference.ns_per_op(),
        all_cpus_ns_per_op: all_cpus.ns_per_op(),
        reference,
        loads_fnv: loads_fnv(&stream.engine.loads()),
        failures: checks.failures,
    }
}
