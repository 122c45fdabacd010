//! The **ingress** stage of the streaming pipeline: arriving balls, stamped
//! with a monotone arrival id, waiting to be allocated.
//!
//! Ingress is the one stage the two ownership shells of the engine core do
//! **not** share — everything after it (batching, choose, commit, boundary)
//! is the core's single drain over a buffer in arrival order:
//!
//! * The sole owner, [`StreamAllocator`](crate::StreamAllocator), pushes
//!   [`PendingBall`]s straight into that buffer, a plain `Vec` — arrival
//!   order is call order.
//! * The shared [`ConcurrentRouter`](crate::ConcurrentRouter) handle accepts
//!   `push`es from many producer threads at once through a
//!   [`ShardedIngress`]: a set of MPMC lanes (crossbeam channels) chosen by
//!   arrival id, so producers do not contend on one queue head. Because a
//!   slow producer can publish its ball *after* a later-stamped ball from a
//!   faster thread, a drain first collects every queued ball into the buffer
//!   and then **sequences** it — sorts by arrival id — before batching. With
//!   one producer thread the sequence equals call order exactly, so the two
//!   push paths must be bit-identical in the single-caller case — a claim
//!   held by test (`tests/concurrent_properties.rs`, `tests/golden/drain.snap`),
//!   since this is where the two shells run different code; with many
//!   producers the ids (and therefore batch compositions) are exactly as
//!   reproducible as the arrival interleaving itself.

use std::sync::atomic::{AtomicU64, Ordering};

use crossbeam::channel::{unbounded, Receiver, Sender};

/// A ball waiting in an arrival buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PendingBall {
    /// Globally unique, monotonically increasing ball id (the arrival
    /// sequence number).
    pub id: u64,
    /// Router key; candidate bins are a pure hash of `(seed, key)`.
    pub key: u64,
}

/// Sharded MPMC arrival lanes for the concurrent engine (see the module
/// docs). All operations take `&self`; `enqueue` may run from any number of
/// producer threads while a drainer collects.
pub(crate) struct ShardedIngress {
    /// The lanes. Both channel halves are kept so the ingress never
    /// disconnects; a ball's lane is `id % lanes`, a pure function of the
    /// arrival id so lane assignment is reproducible.
    lanes: Vec<(Sender<PendingBall>, Receiver<PendingBall>)>,
    /// Balls enqueued and not yet collected by a drain.
    queued: AtomicU64,
    /// One past the largest arrival id any drain has collected — the
    /// re-sequencing watermark. A ball collected *below* it surfaced after a
    /// later-stamped ball had already been seen (a slow producer published
    /// late), i.e. the sequencer had to stall/re-merge for it.
    high_water: AtomicU64,
}

impl std::fmt::Debug for ShardedIngress {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedIngress")
            .field("lanes", &self.lanes.len())
            .field("queued", &self.queued())
            .finish()
    }
}

impl ShardedIngress {
    /// An empty ingress with `lanes` MPMC lanes (clamped to at least 1).
    pub fn new(lanes: usize) -> Self {
        Self {
            lanes: (0..lanes.max(1)).map(|_| unbounded()).collect(),
            queued: AtomicU64::new(0),
            high_water: AtomicU64::new(0),
        }
    }

    /// Enqueues one stamped ball on its lane.
    pub fn enqueue(&self, ball: PendingBall) {
        self.queued.fetch_add(1, Ordering::AcqRel);
        let lane = (ball.id % self.lanes.len() as u64) as usize;
        self.lanes[lane]
            .0
            .send(ball)
            .expect("ingress lane holds both halves");
    }

    /// Balls enqueued and not yet collected.
    pub fn queued(&self) -> u64 {
        self.queued.load(Ordering::Acquire)
    }

    /// Collects every currently queued ball into `out` and sequences the
    /// whole buffer by arrival id; returns `(collected, late)` — how many
    /// balls were collected, and how many of them were **late arrivals**:
    /// balls below the watermark of a previous collection, i.e. published by
    /// a slow producer after a later-stamped ball had already been drained
    /// past (the re-sequencing stalls the no-silent-drops rule makes
    /// countable). `out` may carry an (already sorted) leftover tail from a
    /// previous drain — the sort re-merges it with the new arrivals.
    ///
    /// Callers hold the drain lock, so collections are serial; the watermark
    /// uses plain atomic load/store rather than a CAS loop.
    pub fn collect_into(&self, out: &mut Vec<PendingBall>) -> (usize, u64) {
        let mut collected = 0usize;
        let mut late = 0u64;
        let watermark = self.high_water.load(Ordering::Acquire);
        let mut max_seen = watermark;
        for (_, receiver) in &self.lanes {
            while let Ok(ball) = receiver.try_recv() {
                if ball.id < watermark {
                    late += 1;
                } else if ball.id >= max_seen {
                    max_seen = ball.id + 1;
                }
                out.push(ball);
                collected += 1;
            }
        }
        self.high_water.store(max_seen, Ordering::Release);
        self.queued.fetch_sub(collected as u64, Ordering::AcqRel);
        out.sort_unstable_by_key(|ball| ball.id);
        (collected, late)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collect_sequences_by_arrival_id_across_lanes() {
        let ingress = ShardedIngress::new(3);
        // Enqueue out of order (as racing producers would publish).
        for id in [4u64, 0, 2, 5, 1, 3] {
            ingress.enqueue(PendingBall { id, key: id * 10 });
        }
        assert_eq!(ingress.queued(), 6);
        let mut out = Vec::new();
        assert_eq!(ingress.collect_into(&mut out), (6, 0));
        assert_eq!(ingress.queued(), 0);
        let ids: Vec<u64> = out.iter().map(|b| b.id).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn late_arrivals_are_counted_against_the_watermark() {
        let ingress = ShardedIngress::new(2);
        ingress.enqueue(PendingBall { id: 5, key: 5 });
        let mut out = Vec::new();
        // First collection sets the watermark past id 5; nothing is late yet
        // (out-of-order *within* one collection is resolved by the sort).
        assert_eq!(ingress.collect_into(&mut out), (1, 0));
        // Ids 2 and 3 surface after id 5 was already collected: both late.
        ingress.enqueue(PendingBall { id: 2, key: 2 });
        ingress.enqueue(PendingBall { id: 3, key: 3 });
        ingress.enqueue(PendingBall { id: 8, key: 8 });
        assert_eq!(ingress.collect_into(&mut out), (3, 2));
        // The watermark advanced past 8; a fresh on-time ball is not late.
        ingress.enqueue(PendingBall { id: 9, key: 9 });
        assert_eq!(ingress.collect_into(&mut out), (1, 0));
    }

    #[test]
    fn leftover_tail_is_remerged() {
        let ingress = ShardedIngress::new(2);
        ingress.enqueue(PendingBall { id: 7, key: 7 });
        let mut out = vec![PendingBall { id: 3, key: 3 }, PendingBall { id: 9, key: 9 }];
        ingress.collect_into(&mut out);
        let ids: Vec<u64> = out.iter().map(|b| b.id).collect();
        assert_eq!(ids, vec![3, 7, 9]);
    }

    #[test]
    fn concurrent_producers_never_lose_balls() {
        use std::sync::Arc;
        let ingress = Arc::new(ShardedIngress::new(4));
        let next = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let ingress = Arc::clone(&ingress);
            let next = Arc::clone(&next);
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    let id = next.fetch_add(1, Ordering::Relaxed);
                    ingress.enqueue(PendingBall { id, key: id });
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let mut out = Vec::new();
        assert_eq!(ingress.collect_into(&mut out).0, 4000);
        let ids: Vec<u64> = out.iter().map(|b| b.id).collect();
        assert_eq!(ids, (0..4000).collect::<Vec<u64>>(), "sequenced, no loss");
    }
}
