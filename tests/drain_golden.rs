//! Committed fingerprints of the streaming **drain** (`tests/golden/drain.snap`).
//!
//! The sequential ≡ parallel and `StreamAllocator` ≡ `ConcurrentRouter`
//! properties compare two runs of the *same* build, so a change to the commit
//! stage moves both sides at once and they keep agreeing; the mini replay
//! goldens run 16–64 bins with batches of a few dozen and never reach the
//! shape the `stream-drain` workload runs (1024 bins, batch 4096, a pool).
//! This file pins that shape: one line per
//! `(engine, policy, bins, batch, execution mode, weights)` with FNV-1a hashes
//! of the final loads, the gap trajectory (bit patterns) and the
//! `route.bin_commits` vector. A drain change that is meant to preserve
//! behaviour must pass this test against the file as committed.
//!
//! Regenerate (only when a placement change is intended, and say why):
//!
//! ```text
//! cargo test --test drain_golden -- --ignored bless
//! ```

use std::sync::Arc;

use parallel_balanced_allocations::model::rng::SplitMix64;
use parallel_balanced_allocations::prelude::*;
use parallel_balanced_allocations::replay::{diff_golden, fnv1a64};
use parallel_balanced_allocations::stream::{
    ConcurrentRouter, Policy, StreamAllocator, StreamConfig,
};

const POLICIES: [Policy; 6] = [
    Policy::OneChoice,
    Policy::TwoChoice,
    Policy::DChoice(3),
    Policy::Threshold { d: 2, slack: 1 },
    Policy::WeightedTwoChoice,
    Policy::CapacityThreshold { d: 2, slack: 2 },
];

fn hash_u64s(values: impl IntoIterator<Item = u64>) -> String {
    let bytes: Vec<u8> = values.into_iter().flat_map(u64::to_le_bytes).collect();
    format!("fnv:{:016x}", fnv1a64(&bytes))
}

/// What a drained engine leaves behind, whichever engine it was.
struct Drained {
    loads: Vec<u32>,
    gaps: Vec<f64>,
    commits: Vec<u64>,
    batches: u64,
}

impl Drained {
    fn render(&self) -> String {
        format!(
            "batches={} loads={} gaps={} commits={}",
            self.batches,
            hash_u64s(self.loads.iter().map(|&l| l as u64)),
            hash_u64s(self.gaps.iter().map(|g| g.to_bits())),
            hash_u64s(self.commits.iter().copied()),
        )
    }
}

/// The push/drain surface the two engines share, so one driver feeds both.
trait PushDrain {
    fn push_key(&mut self, key: u64);
    fn drain_full(&mut self);
    fn flush_all(&mut self);
    fn stage(&mut self, plan: MembershipPlan);
    fn drained(&self, registry: &MetricsRegistry) -> Drained;
}

fn commits_of(registry: &MetricsRegistry) -> Vec<u64> {
    registry
        .snapshot()
        .counter_vecs
        .get("route.bin_commits")
        .cloned()
        .unwrap_or_default()
}

impl PushDrain for StreamAllocator {
    fn push_key(&mut self, key: u64) {
        self.push(key);
    }
    fn drain_full(&mut self) {
        self.drain_ready();
    }
    fn flush_all(&mut self) {
        self.flush();
    }
    fn stage(&mut self, plan: MembershipPlan) {
        self.stage_membership(plan);
    }
    fn drained(&self, registry: &MetricsRegistry) -> Drained {
        assert!(self.conserves_balls());
        Drained {
            loads: self.loads(),
            gaps: self.gap_trajectory().to_vec(),
            commits: commits_of(registry),
            batches: self.stats().batches,
        }
    }
}

impl PushDrain for ConcurrentRouter {
    fn push_key(&mut self, key: u64) {
        self.push(key);
    }
    fn drain_full(&mut self) {
        self.drain_ready();
    }
    fn flush_all(&mut self) {
        self.flush();
    }
    fn stage(&mut self, plan: MembershipPlan) {
        self.stage_membership(plan);
    }
    fn drained(&self, registry: &MetricsRegistry) -> Drained {
        assert!(self.conserves_balls());
        Drained {
            loads: self.loads(),
            gaps: self.gap_trajectory(),
            commits: commits_of(registry),
            batches: self.batches(),
        }
    }
}

/// Pushes in ticks that cover what a drain can meet: exactly one batch, two
/// batches and a tail in one `drain_ready`, half a batch (nothing to drain),
/// one more batch, and a final partial batch at `flush`. `plan`, when given,
/// is staged after the first tick so the rest drains over a gapped topology.
fn drive(engine: &mut dyn PushDrain, batch: usize, repeats: usize, plan: Option<MembershipPlan>) {
    let mut keys = SplitMix64::new(0xd7a1);
    let mut plan = plan;
    for _ in 0..repeats {
        for tick in [batch, 2 * batch + 7, batch / 2, batch] {
            for _ in 0..tick {
                engine.push_key(keys.next_u64());
            }
            engine.drain_full();
            if let Some(plan) = plan.take() {
                engine.stage(plan);
            }
        }
    }
    engine.flush_all();
}

/// Quarter of the bins at weight 4, a quarter at 2, the rest at 1.
fn tiered(bins: usize) -> BinWeights {
    BinWeights::power_of_two_tiers(&[(bins / 4, 2), (bins / 4, 1), (bins - 2 * (bins / 4), 0)])
}

/// Both engines over one configuration; returns the two rendered lines.
fn rows(out: &mut String, label: &str, config: StreamConfig, plan: Option<MembershipPlan>) {
    let batch = config.batch_size;
    // Short batches get more of them, so every row crosses ≥ 18 boundaries
    // or ≥ 18k balls.
    let repeats = if batch < 1024 { 4 } else { 1 };

    let registry = Arc::new(MetricsRegistry::new());
    let mut stream = StreamAllocator::new(config.clone());
    stream.install_metrics(Arc::clone(&registry));
    drive(&mut stream, batch, repeats, plan.clone());
    out.push_str(&format!(
        "stream {label} {}\n",
        stream.drained(&registry).render()
    ));

    let registry = Arc::new(MetricsRegistry::new());
    let mut router = ConcurrentRouter::with_metrics(config, Arc::clone(&registry));
    drive(&mut router, batch, repeats, plan);
    out.push_str(&format!(
        "concurrent1 {label} {}\n",
        router.drained(&registry).render()
    ));
}

/// Every pinned row, rendered. 1000 bins keep the rejection-sampling draw and
/// a shard count that does not divide the bins (7) pinned beside the
/// power-of-two fast path; batch 257 stays below every parallel cutoff the
/// drain has had, batch 4096 is the benchmark's.
fn render() -> String {
    let mut out = String::new();
    for policy in POLICIES {
        for (bins, shards) in [(1000usize, 7usize), (1024, 8)] {
            for batch in [257usize, 4096] {
                for threads in [0usize, 4] {
                    for weighted in [false, true] {
                        let mut config = StreamConfig::new(bins)
                            .policy(policy)
                            .batch_size(batch)
                            .shards(shards)
                            .seed(7);
                        config = if threads == 0 {
                            config.sequential()
                        } else {
                            config.num_threads(threads)
                        };
                        if weighted {
                            config = config.weights(tiered(bins));
                        }
                        let label = format!(
                            "policy={} bins={bins} batch={batch} exec={} weights={}",
                            policy.name(),
                            if threads == 0 {
                                "sequential".to_string()
                            } else {
                                format!("threads{threads}")
                            },
                            if weighted { "tiered" } else { "uniform" },
                        );
                        rows(&mut out, &label, config, None);
                    }
                }
            }
        }
    }
    // Gapped membership: a tenth of the bins drain after the first tick (so
    // the active list has holes the sampler must map through) and two
    // reserve slots are commissioned at weight 2.
    for policy in [
        Policy::TwoChoice,
        Policy::CapacityThreshold { d: 2, slack: 2 },
    ] {
        for threads in [0usize, 4] {
            let bins = 1000;
            let mut plan = MembershipPlan::new();
            for bin in (0..bins as u32).step_by(10) {
                plan = plan.drain(bin);
            }
            plan = plan.add(2.0).add(2.0);
            let mut config = StreamConfig::new(bins)
                .policy(policy)
                .batch_size(4096)
                .shards(7)
                .seed(7)
                .reserve_bins(4)
                .weights(tiered(bins));
            config = if threads == 0 {
                config.sequential()
            } else {
                config.num_threads(threads)
            };
            let label = format!(
                "policy={} bins={bins}+4 batch=4096 exec={} weights=tiered membership=gapped",
                policy.name(),
                if threads == 0 {
                    "sequential".to_string()
                } else {
                    format!("threads{threads}")
                },
            );
            rows(&mut out, &label, config, Some(plan));
        }
    }
    out
}

fn snap_path() -> String {
    format!("{}/tests/golden/drain.snap", env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn streaming_drain_matches_the_committed_fingerprints() {
    let committed = std::fs::read_to_string(snap_path()).expect("tests/golden/drain.snap");
    if let Some(report) = diff_golden("drain.snap", &committed, &render()) {
        panic!("{report}");
    }
}

#[test]
#[ignore = "rewrites tests/golden/drain.snap"]
fn bless() {
    std::fs::write(snap_path(), render()).expect("write tests/golden/drain.snap");
}
