//! Committed fingerprints of the streaming **drain** (`tests/golden/drain.snap`).
//!
//! A property that compares two runs of the *same* build — the engine against
//! the executable model of the batched process (`tests/model_properties.rs`),
//! or a split drain against the sequential one — cannot see a change that
//! moves both sides at once, such as a change to the policies both choose
//! through. And the model test and the mini replay goldens run 16–64 bins with
//! batches of a few dozen, never the shape the `stream-drain` workload runs
//! (1024 bins, batch 4096, a pool). This file pins that shape: one line per
//! `(policy, bins, batch, execution mode, weights)` with FNV-1a hashes of the
//! final loads and the gap trajectory (bit patterns), drained by the sole
//! owner with metrics installed. (The 1-caller handle runs the same
//! drain; the model test checks it against the model op by op.) A drain
//! change that is meant to preserve behaviour must pass this test against
//! the file as committed.
//!
//! Regenerate (only when a placement change is intended, and say why):
//!
//! ```text
//! cargo test --test drain_golden -- --ignored bless
//! ```

#[path = "support/policies.rs"]
mod policies;

use std::sync::Arc;

use parallel_balanced_allocations::model::rng::SplitMix64;
use parallel_balanced_allocations::prelude::*;
use parallel_balanced_allocations::replay::{diff_golden, fnv1a64};
use parallel_balanced_allocations::stream::{Policy, StreamAllocator, StreamConfig};
use policies::POLICIES;

fn hash_u64s(values: impl IntoIterator<Item = u64>) -> String {
    let bytes: Vec<u8> = values.into_iter().flat_map(u64::to_le_bytes).collect();
    format!("fnv:{:016x}", fnv1a64(&bytes))
}

/// What a drained engine leaves behind, rendered.
fn render_drained(stream: &StreamAllocator) -> String {
    assert!(stream.conserves_balls());
    format!(
        "batches={} loads={} gaps={}",
        stream.stats().batches,
        hash_u64s(stream.loads().iter().map(|&l| l as u64)),
        hash_u64s(stream.gap_trajectory().iter().map(|g| g.to_bits())),
    )
}

/// Pushes in ticks that cover what a drain can meet: exactly one batch, two
/// batches and a tail in one `drain_ready`, half a batch (nothing to drain),
/// one more batch, and a final partial batch at `flush`. `plan`, when given,
/// is staged after the first tick so the rest drains over a gapped topology.
fn drive(stream: &mut StreamAllocator, batch: usize, repeats: usize, plan: Option<MembershipPlan>) {
    let mut keys = SplitMix64::new(0xd7a1);
    let mut plan = plan;
    for _ in 0..repeats {
        for tick in [batch, 2 * batch + 7, batch / 2, batch] {
            for _ in 0..tick {
                stream.push(keys.next_u64());
            }
            stream.drain_ready();
            if let Some(plan) = plan.take() {
                stream.stage_membership(plan);
            }
        }
    }
    stream.flush();
}

/// Quarter of the bins at weight 4, a quarter at 2, the rest at 1.
fn tiered(bins: usize) -> BinWeights {
    BinWeights::power_of_two_tiers(&[(bins / 4, 2), (bins / 4, 1), (bins - 2 * (bins / 4), 0)])
}

/// The sole owner over one configuration; appends its rendered line.
fn row(out: &mut String, label: &str, config: StreamConfig, plan: Option<MembershipPlan>) {
    let batch = config.batch_size;
    // Short batches get more of them, so every row crosses ≥ 18 boundaries
    // or ≥ 18k balls.
    let repeats = if batch < 1024 { 4 } else { 1 };
    let mut stream = StreamAllocator::new(config);
    stream.install_metrics(Arc::new(MetricsRegistry::new()));
    drive(&mut stream, batch, repeats, plan);
    out.push_str(&format!("stream {label} {}\n", render_drained(&stream)));
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
                        row(&mut out, &label, config, None);
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
            row(&mut out, &label, config, Some(plan));
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
