//! Committed fingerprints of the one-shot algorithms (`tests/golden/oneshot.snap`).
//!
//! E1–E9 are the fixed reference for fidelity to the paper, and every one of
//! them is a function of what the round engine returns. This file pins that
//! return value: one line per `(allocator, m, n, seed)` with FNV-1a hashes of
//! the loads, the per-round records and both census vectors, plus the scalar
//! round and message counters. An engine change that is meant to preserve
//! behaviour must pass this test against the file as committed.
//!
//! Regenerate (only when an algorithmic change is intended, and say why):
//!
//! ```text
//! cargo test --test oneshot_golden -- --ignored bless
//! ```

use parallel_balanced_allocations::prelude::*;
use parallel_balanced_allocations::replay::{diff_golden, fnv1a64};

fn hash_u64s(values: impl IntoIterator<Item = u64>) -> String {
    let bytes: Vec<u8> = values.into_iter().flat_map(u64::to_le_bytes).collect();
    format!("fnv:{:016x}", fnv1a64(&bytes))
}

fn line(label: &str, m: u64, n: usize, seed: u64, out: &AllocationOutcome) -> String {
    let per_round = out.per_round.iter().flat_map(|r| {
        [
            r.round as u64,
            r.unallocated_before,
            r.unallocated_after,
            r.requests,
            r.accepts,
            r.committed,
            r.global_threshold.unwrap_or(u64::MAX),
        ]
    });
    format!(
        "{label} m={m} n={n} seed={seed} loads={} rounds={} unallocated={} requests={} \
         responses={} accepts={} notifications={} per_round={} bin_received={} ball_sent={}",
        hash_u64s(out.loads.iter().map(|&l| l as u64)),
        out.rounds,
        out.unallocated,
        out.messages.requests,
        out.messages.responses,
        out.messages.accepts,
        out.messages.notifications,
        hash_u64s(per_round),
        hash_u64s(out.census.per_bin_received.iter().copied()),
        hash_u64s(out.census.per_ball_sent.iter().map(|&c| c as u64)),
    )
}

/// Appends one line per instance and seed for `allocator`.
fn rows(out: &mut String, label: &str, allocator: &dyn Allocator, instances: &[(u64, usize)]) {
    for &(m, n) in instances {
        for seed in [1u64, 2] {
            out.push_str(&line(label, m, n, seed, &allocator.allocate(m, n, seed)));
            out.push('\n');
        }
    }
}

/// Every pinned instance, rendered. Sizes are small enough for a debug build
/// and still cross several engine blocks; `(100_000, 300)` and `(1000, 1000)`
/// keep a non-power-of-two bin count (the rejection-sampling draw) pinned.
fn render() -> String {
    let heavy = HeavyAllocator::default();
    let tracked_parallel = HeavyAllocator::new(HeavyConfig {
        parallel: true,
        track_per_ball: true,
        ..HeavyConfig::default()
    });
    let mut out = String::new();
    rows(
        &mut out,
        "A_heavy",
        &heavy,
        &[(1 << 18, 1 << 6), (1 << 16, 1 << 8), (100_000, 300)],
    );
    rows(
        &mut out,
        "A_heavy(parallel,tracked)",
        &tracked_parallel,
        &[(1 << 16, 1 << 8), (100_000, 300)],
    );
    rows(
        &mut out,
        "A_light",
        &LightAllocator::default(),
        &[(1 << 12, 1 << 12), (1000, 1000)],
    );
    rows(
        &mut out,
        "naive-threshold(+1,d=1)",
        &NaiveThresholdAllocator::new(1, 1),
        &[(1 << 14, 1 << 6), (10_000, 30)],
    );
    rows(
        &mut out,
        "fixed-threshold(+2,d=2)",
        &NaiveThresholdAllocator::new(2, 2),
        &[(1 << 16, 1 << 7), (10_000, 30)],
    );
    rows(
        &mut out,
        "asymmetric",
        &AsymmetricAllocator::default(),
        &[(1 << 16, 1 << 8), (50_000, 333)],
    );
    out
}

fn snap_path() -> String {
    format!("{}/tests/golden/oneshot.snap", env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn one_shot_algorithms_match_the_committed_fingerprints() {
    let committed = std::fs::read_to_string(snap_path()).expect("tests/golden/oneshot.snap");
    if let Some(report) = diff_golden("oneshot.snap", &committed, &render()) {
        panic!("{report}");
    }
}

#[test]
#[ignore = "rewrites tests/golden/oneshot.snap"]
fn bless() {
    std::fs::write(snap_path(), render()).expect("write tests/golden/oneshot.snap");
}
