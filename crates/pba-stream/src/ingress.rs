//! The **ingress** stage of the streaming pipeline: arriving balls, stamped
//! with a monotone arrival id, waiting to be allocated.
//!
//! Both ownership shells of the engine core feed the *same* buffer — the
//! drain side's `Vec` of [`PendingBall`]s in arrival order — and everything
//! after it (batching, choose, commit, boundary) is the core's single drain.
//! They differ only in how a ball reaches that buffer:
//!
//! * The sole owner, [`StreamAllocator`](crate::StreamAllocator), pushes
//!   straight into it — arrival order is call order.
//! * The shared [`ConcurrentRouter`](crate::ConcurrentRouter) handle takes
//!   `push`es from many producer threads into an inbox `Vec` behind one
//!   mutex: a producer locks, stamps and appends, so the inbox is id-sorted
//!   **by construction** and a drain moves it into the buffer whole, without
//!   sorting. Arrival order is the one order the batched model needs kept —
//!   each ball decides from the loads at the previous batch boundary — and
//!   no ball can arrive out of it.

/// A ball waiting in an arrival buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PendingBall {
    /// Globally unique, monotonically increasing ball id (the arrival
    /// sequence number).
    pub id: u64,
    /// Router key; candidate bins are a pure hash of `(seed, key)`.
    pub key: u64,
}

impl crate::policy::Keyed for PendingBall {
    #[inline(always)]
    fn key(&self) -> u64 {
        self.key
    }
}

#[cfg(test)]
mod tests {
    use crate::{ConcurrentRouter, StreamConfig};

    #[test]
    fn concurrent_producers_never_lose_balls() {
        // Four producers push on clones of one handle: every push gets its
        // own id, no ball is lost, and the drain takes the inbox in id order
        // (the take's `debug_assert` checks it) without a sort.
        let router = ConcurrentRouter::new(StreamConfig::new(8).batch_size(64));
        let producers: Vec<_> = (0..4)
            .map(|t| {
                let router = router.clone();
                std::thread::spawn(move || {
                    (0..1000u64)
                        .map(|i| router.push(t * 1000 + i))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let mut ids: Vec<u64> = producers
            .into_iter()
            .flat_map(|producer| producer.join().unwrap())
            .collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..4000).collect::<Vec<u64>>());
        assert_eq!(router.pending(), 4000);
        assert_eq!(router.flush(), 4000 / 64 + 1);
        assert_eq!(router.pending(), 0);
        assert_eq!(router.resident(), 4000);
        assert!(router.conserves_balls());
    }
}
