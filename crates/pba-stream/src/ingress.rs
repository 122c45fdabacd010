//! The **ingress** stage of the streaming pipeline: arriving balls, stamped
//! with a monotone arrival id, waiting to be allocated.
//!
//! Both ownership shells of the engine core feed the *same* buffer — the
//! drain side's `Vec` of bare router keys (8 bytes a ball) in arrival order
//! — and everything after it (batching, choose, commit, boundary) is the
//! core's single drain. A ball's id is its place in that order, so the
//! buffer need not store it: `push` returns it, and nothing after ingress
//! reads it. The shells differ only in how a key reaches that buffer:
//!
//! * The sole owner, [`StreamAllocator`](crate::StreamAllocator), pushes
//!   straight into it — arrival order is call order.
//! * The shared [`ConcurrentRouter`](crate::ConcurrentRouter) handle takes
//!   `push`es from many producer threads into an inbox `Vec` behind one
//!   mutex: a producer locks, stamps and appends, so the inbox is in id
//!   order **by construction** and a drain moves it into the buffer whole,
//!   without sorting. Arrival order is the one order the batched model needs
//!   kept — each ball decides from the loads at the previous batch boundary
//!   — and no ball can arrive out of it.

#[cfg(test)]
mod tests {
    use crate::{ConcurrentRouter, StreamConfig};

    #[test]
    fn concurrent_producers_never_lose_balls() {
        // Four producers push on clones of one handle: every push gets its
        // own id, no ball is lost, and the drain takes the inbox whole.
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
