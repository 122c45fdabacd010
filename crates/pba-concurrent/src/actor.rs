//! Crossbeam-channel actor executor.
//!
//! A message-passing realisation of one threshold round: the bins are sharded
//! over a handful of worker threads ("bin actors"), each owning the load
//! counters of its shard. Ball requests are sent over the shards' channels; each
//! shard applies the threshold rule to its own bins and reports how many
//! requests it accepted. This mirrors the paper's model (balls *send messages*
//! to bins, bins decide locally) more literally than the shared-memory
//! executor and is used to cross-validate it.

use crossbeam::channel;

use pba_model::rng::{IndexRange, SplitMix64};

use crate::executor::ConcurrentOutcome;

/// A request routed to a bin shard: the index of the bin within the shard.
struct ShardRequest {
    local_bin: u32,
    ball: u64,
}

/// Runs a degree-1 fixed-threshold protocol with `shards` bin-actor threads.
///
/// Semantics are identical to
/// [`run_concurrent_threshold`](crate::executor::run_concurrent_threshold): in
/// each round every unallocated ball contacts one uniformly random bin, and each
/// bin accepts requests while its load is below `threshold`.
pub fn run_actor_threshold(
    m: u64,
    n: usize,
    threshold: u32,
    max_rounds: usize,
    shards: usize,
    seed: u64,
) -> ConcurrentOutcome {
    assert!(n > 0 || m == 0, "cannot allocate {m} balls into zero bins");
    let shards = shards.clamp(1, n.max(1));
    // Shard s owns bins [s·n/shards, (s+1)·n/shards).
    let shard_start = |s: usize| s * n / shards;
    let shard_of_bin = |b: usize| -> usize {
        let mut s = (b * shards) / n.max(1);
        while shard_start(s + 1) <= b && s + 1 < shards {
            s += 1;
        }
        while shard_start(s) > b {
            s -= 1;
        }
        s
    };

    let mut shard_loads: Vec<Vec<u32>> = (0..shards)
        .map(|s| vec![0u32; shard_start(s + 1).max(shard_start(s)) - shard_start(s)])
        .collect();
    let mut unallocated: Vec<u64> = (0..m).collect();
    let mut rounds = 0usize;
    let mut requests = 0u64;
    let range = IndexRange::new(n as u64);

    for round in 0..max_rounds {
        if unallocated.is_empty() {
            break;
        }
        rounds += 1;
        requests += unallocated.len() as u64;

        // Route every ball's request to its bin's shard.
        let mut senders = Vec::with_capacity(shards);
        let mut receivers = Vec::with_capacity(shards);
        for _ in 0..shards {
            let (tx, rx) = channel::unbounded::<ShardRequest>();
            senders.push(tx);
            receivers.push(rx);
        }
        let round_key = SplitMix64::substream_key(seed, round as u64);
        for &ball in &unallocated {
            let bin = range.sample(&mut SplitMix64::for_stream_under(round_key, ball)) as usize;
            let shard = shard_of_bin(bin);
            let local = (bin - shard_start(shard)) as u32;
            senders[shard]
                .send(ShardRequest {
                    local_bin: local,
                    ball,
                })
                .expect("receiver alive");
        }
        drop(senders);

        // Each shard actor drains its mailbox and applies the threshold rule.
        let results: Vec<(Vec<u32>, Vec<u64>)> = crossbeam::thread::scope(|scope| {
            let handles: Vec<_> = receivers
                .into_iter()
                .zip(shard_loads.iter())
                .map(|(rx, loads)| {
                    scope.spawn(move |_| {
                        let mut loads = loads.clone();
                        let mut rejected = Vec::new();
                        while let Ok(req) = rx.recv() {
                            let slot = &mut loads[req.local_bin as usize];
                            if *slot < threshold {
                                *slot += 1;
                            } else {
                                rejected.push(req.ball);
                            }
                        }
                        (loads, rejected)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        })
        .expect("actor threads do not panic");

        let mut next_unallocated = Vec::new();
        for (s, (loads, rejected)) in results.into_iter().enumerate() {
            shard_loads[s] = loads;
            next_unallocated.extend(rejected);
        }
        // Keep the ball order deterministic across shard interleavings.
        next_unallocated.sort_unstable();
        unallocated = next_unallocated;
    }

    let mut loads = Vec::with_capacity(n);
    for shard in &shard_loads {
        loads.extend_from_slice(shard);
    }
    ConcurrentOutcome {
        loads,
        rounds,
        unallocated: unallocated.len() as u64,
        requests,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::run_concurrent_threshold;

    #[test]
    fn completes_and_respects_threshold() {
        let m = 100_000u64;
        let n = 128usize;
        let t = (m / n as u64) as u32 + 8;
        let out = run_actor_threshold(m, n, t, 300, 4, 7);
        assert_eq!(out.unallocated, 0);
        assert_eq!(out.loads.len(), n);
        assert_eq!(out.loads.iter().map(|&l| l as u64).sum::<u64>(), m);
        assert!(out.loads.iter().all(|&l| l <= t));
    }

    #[test]
    fn matches_shared_memory_executor_exactly() {
        // Both executors resolve each round's per-bin accepted count to
        // min(threshold - load, requests); with the same seed the sampled targets
        // are identical in round 0, and because both then carry the *count* of
        // rejected balls per bin forward identically (the rejected identities are
        // resorted deterministically), the final loads agree exactly.
        let m = 30_000u64;
        let n = 64usize;
        let t = (m / n as u64) as u32 + 5;
        let actor = run_actor_threshold(m, n, t, 200, 4, 21);
        let shared = run_concurrent_threshold(m, n, t, 200, 21);
        assert_eq!(actor.unallocated, 0);
        assert_eq!(shared.unallocated, 0);
        let sum_a: u64 = actor.loads.iter().map(|&l| l as u64).sum();
        let sum_s: u64 = shared.loads.iter().map(|&l| l as u64).sum();
        assert_eq!(sum_a, sum_s);
        let max_a = actor.loads.iter().copied().max().unwrap() as i64;
        let max_s = shared.loads.iter().copied().max().unwrap() as i64;
        assert!((max_a - max_s).abs() <= 5);
    }

    #[test]
    fn single_shard_degenerates_gracefully() {
        let m = 5_000u64;
        let n = 16usize;
        let t = (m / n as u64) as u32 + 3;
        let out = run_actor_threshold(m, n, t, 100, 1, 3);
        assert_eq!(out.unallocated, 0);
    }

    #[test]
    fn more_shards_than_bins_is_clamped() {
        let m = 1_000u64;
        let n = 4usize;
        let t = (m / n as u64) as u32 + 2;
        let out = run_actor_threshold(m, n, t, 100, 64, 5);
        assert_eq!(out.unallocated, 0);
        assert_eq!(out.loads.len(), n);
    }

    #[test]
    fn zero_balls() {
        let out = run_actor_threshold(0, 8, 5, 10, 2, 1);
        assert_eq!(out.rounds, 0);
        assert_eq!(out.unallocated, 0);
        assert_eq!(out.loads, vec![0; 8]);
    }

    #[test]
    fn insufficient_capacity_is_reported() {
        let m = 10_000u64;
        let n = 8usize;
        let out = run_actor_threshold(m, n, 100, 50, 2, 9);
        assert_eq!(out.loads.iter().map(|&l| l as u64).sum::<u64>(), 800);
        assert_eq!(out.unallocated, m - 800);
    }
}
