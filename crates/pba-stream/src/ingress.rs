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
//!   `push`es from many producer threads through an [`Inbox`] behind one
//!   mutex: a producer locks, stamps and appends, so the inbox is id-sorted
//!   **by construction** and a drain moves it into the buffer whole, without
//!   sorting. The one way to break stamp order is the fault-injection pair
//!   `stamp_delayed` / `deliver_delayed`: a ball delivered after a drain has
//!   already taken a later id is a **late arrival** — counted
//!   (`ingress.late_arrivals`), and merged into the undrained remainder by
//!   id rather than dropped.

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

/// The shared handle's arrival buffer (see the module docs): what producers
/// append to between two drains. Lives behind the handle's inbox mutex.
#[derive(Debug, Default)]
pub(crate) struct Inbox {
    /// Arrivals no drain has taken yet, sorted by id.
    balls: Vec<PendingBall>,
    /// One past the largest id any drain has taken: a ball delivered below
    /// it arrives after the sequence has moved past it.
    taken_upto: u64,
    /// Late arrivals delivered since the last take.
    late: u64,
}

impl Inbox {
    /// Appends a ball stamped **under the inbox lock**, which is what keeps
    /// the inbox sorted: no later id can get in ahead of it.
    pub fn push(&mut self, ball: PendingBall) {
        debug_assert!(self.balls.last().is_none_or(|last| last.id < ball.id));
        self.balls.push(ball);
    }

    /// Delivers a ball stamped earlier, outside the lock: inserted at its
    /// place in id order, and counted late when a drain has already taken a
    /// later id.
    pub fn deliver(&mut self, ball: PendingBall) {
        self.late += (ball.id < self.taken_upto) as u64;
        let at = self.balls.partition_point(|queued| queued.id < ball.id);
        self.balls.insert(at, ball);
    }

    /// Balls no drain has taken yet.
    pub fn len(&self) -> usize {
        self.balls.len()
    }

    /// Moves every ball into `buffer` — the drain's arrival-ordered buffer,
    /// holding at most the undrained remainder of earlier takes — and returns
    /// how many of them were late. On-time balls all follow the remainder, so
    /// the move is a swap or an append; only a late ball, whose id belongs
    /// somewhere inside the remainder, makes the buffer sort.
    pub fn take_into(&mut self, buffer: &mut Vec<PendingBall>) -> u64 {
        if let Some(last) = self.balls.last() {
            self.taken_upto = self.taken_upto.max(last.id + 1);
        }
        if buffer.is_empty() {
            std::mem::swap(buffer, &mut self.balls);
        } else {
            buffer.append(&mut self.balls);
        }
        let late = std::mem::take(&mut self.late);
        if late > 0 {
            buffer.sort_unstable_by_key(|ball| ball.id);
        }
        late
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Arc, Mutex};

    fn ball(id: u64) -> PendingBall {
        PendingBall { id, key: id * 10 }
    }

    fn ids(buffer: &[PendingBall]) -> Vec<u64> {
        buffer.iter().map(|ball| ball.id).collect()
    }

    #[test]
    fn concurrent_producers_never_lose_balls() {
        // Four producers stamp under the lock, as `ConcurrentRouter::push`
        // does: the inbox comes out id-sorted with no sort and no loss.
        let inbox = Arc::new(Mutex::new(Inbox::default()));
        let next = Arc::new(AtomicU64::new(0));
        let producers: Vec<_> = (0..4)
            .map(|_| {
                let (inbox, next) = (Arc::clone(&inbox), Arc::clone(&next));
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        let mut inbox = inbox.lock().unwrap();
                        inbox.push(ball(next.fetch_add(1, Ordering::Relaxed)));
                    }
                })
            })
            .collect();
        for producer in producers {
            producer.join().unwrap();
        }
        let mut inbox = inbox.lock().unwrap();
        assert_eq!(inbox.len(), 4000);
        assert_eq!(ids(&inbox.balls), (0..4000).collect::<Vec<u64>>());
        let mut buffer = Vec::new();
        assert_eq!(inbox.take_into(&mut buffer), 0);
        assert_eq!(ids(&buffer), (0..4000).collect::<Vec<u64>>());
        assert_eq!(inbox.len(), 0);
    }

    #[test]
    fn a_held_ball_delivered_before_any_take_is_merely_reordered() {
        // Stamped 0, delivered after 1 and 2 were pushed but before a drain
        // took anything: it still makes its place in the sequence, uncounted.
        let mut inbox = Inbox::default();
        inbox.push(ball(1));
        inbox.push(ball(2));
        inbox.deliver(ball(0));
        let mut buffer = Vec::new();
        assert_eq!(inbox.take_into(&mut buffer), 0);
        assert_eq!(ids(&buffer), vec![0, 1, 2]);
    }

    #[test]
    fn late_arrivals_are_counted_against_the_watermark() {
        let mut inbox = Inbox::default();
        inbox.push(ball(5));
        let mut buffer = Vec::new();
        // The first take moves the watermark past id 5; nothing is late yet.
        assert_eq!(inbox.take_into(&mut buffer), 0);
        // Ids 2 and 3 surface after id 5 was already taken: both late, each
        // counted once, by the take that collects them.
        inbox.deliver(ball(2));
        inbox.deliver(ball(3));
        inbox.push(ball(8));
        assert_eq!(inbox.take_into(&mut buffer), 2);
        assert_eq!(inbox.take_into(&mut buffer), 0, "counted once");
        // An on-time ball after them is not late, nor is a held ball whose
        // id no take has passed yet.
        inbox.push(ball(11));
        inbox.deliver(ball(9));
        assert_eq!(inbox.take_into(&mut buffer), 0);
        assert_eq!(ids(&buffer), vec![2, 3, 5, 8, 9, 11]);
    }

    #[test]
    fn leftover_tail_is_remerged() {
        // The buffer still holds an undrained remainder (3, 9) of a take
        // that reached id 9. An on-time take appends behind it untouched…
        let mut inbox = Inbox {
            taken_upto: 10,
            ..Inbox::default()
        };
        let mut buffer = vec![ball(3), ball(9)];
        inbox.push(ball(12));
        assert_eq!(inbox.take_into(&mut buffer), 0);
        assert_eq!(ids(&buffer), vec![3, 9, 12]);
        // …and a late ball lands where its id puts it — here the very front
        // of the remainder, ahead of everything still waiting.
        inbox.deliver(ball(1));
        inbox.deliver(ball(7));
        assert_eq!(inbox.take_into(&mut buffer), 2);
        assert_eq!(ids(&buffer), vec![1, 3, 7, 9, 12]);
    }
}
