//! Epoch-published snapshots for concurrent readers.
//!
//! The batched/stale-information model gives every ball of a batch the same
//! load snapshot — the loads *as of the previous batch boundary*. A
//! multi-threaded router therefore needs exactly one concurrency primitive on
//! its read path: a cell holding the current snapshot that many reader
//! threads can clone cheaply while one boundary thread swaps in the next
//! snapshot. [`EpochCell`] is that cell: the value lives behind an `Arc` so a
//! swap is a pointer exchange (readers holding the old `Arc` keep a coherent
//! old snapshot — nothing is ever mutated in place), and every publication
//! bumps a monotone **epoch** counter so observers can tell which batch
//! boundary a snapshot belongs to and verify publication order.
//!
//! A boundary publishes on every batch, so [`EpochCell::publish_with`]
//! **recycles**: the snapshot one publication displaces is the buffer the next
//! one refills — once no reader holds it any more. Two buffers then alternate
//! and a steady-state publication allocates nothing; a reader that is still
//! holding the displaced snapshot keeps it untouched and costs that one
//! publication a fresh buffer.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use crate::padded::CachePadded;

/// A snapshot cell with monotone epoch publication.
///
/// Readers call [`EpochCell::load`] (a read-lock held only for one `Arc`
/// clone — many readers proceed concurrently); the boundary thread calls
/// [`EpochCell::publish`] to atomically swap in the next snapshot and bump
/// the epoch. The epoch is incremented while the write lock is held, so
/// [`EpochCell::with`] always sees a consistent `(epoch, value)` pair and
/// epochs observed by any reader are non-decreasing.
///
/// The epoch word is [`CachePadded`]: readers poll it on every route while
/// the boundary thread's publish writes it, and without padding it would
/// share a line with the `RwLock` state the readers also touch.
#[derive(Debug)]
pub struct EpochCell<T> {
    epoch: CachePadded<AtomicU64>,
    value: RwLock<Arc<T>>,
    /// The snapshot the last [`EpochCell::publish_with`] displaced, waiting
    /// to be refilled by the next one. Lock order: `spare` before `value`.
    spare: Mutex<Option<Arc<T>>>,
}

impl<T> EpochCell<T> {
    /// A cell holding `initial` at epoch 0.
    pub fn new(initial: T) -> Self {
        Self {
            epoch: CachePadded::new(AtomicU64::new(0)),
            value: RwLock::new(Arc::new(initial)),
            spare: Mutex::new(None),
        }
    }

    /// The epoch of the most recent publication (0 = the initial value).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// The current snapshot. The read lock is held only for the `Arc`
    /// clone; the returned handle stays valid (and unchanged) across later
    /// publications.
    pub fn load(&self) -> Arc<T> {
        Arc::clone(&self.value.read().expect("epoch cell lock"))
    }

    /// Runs `f` on the current `(epoch, snapshot)` pair, read consistently —
    /// publication bumps the epoch while holding the write lock, so the pair
    /// can never mix one publication's epoch with another's value — and
    /// under the read lock, without [`EpochCell::load`]'s `Arc` clone and
    /// drop: for a reader that is done with the snapshot within a
    /// microsecond and counts its atomics. A publication waits for `f` to
    /// return.
    pub fn with<R>(&self, f: impl FnOnce(u64, &T) -> R) -> R {
        let guard = self.value.read().expect("epoch cell lock");
        f(self.epoch.load(Ordering::Acquire), &guard)
    }

    /// Atomically swaps in `value` as the next snapshot and bumps the epoch;
    /// returns the new epoch. Readers that already hold the previous `Arc`
    /// keep reading the previous (coherent) snapshot.
    pub fn publish(&self, value: T) -> u64 {
        let mut guard = self.value.write().expect("epoch cell lock");
        *guard = Arc::new(value);
        self.epoch.fetch_add(1, Ordering::AcqRel) + 1
    }

    /// [`EpochCell::publish`] without the allocation: `fill` overwrites a
    /// spare buffer — the snapshot the previous call displaced, when no
    /// reader holds it any more; a fresh `T::default()` otherwise, so a
    /// reader's snapshot is never written to — which is then swapped in as
    /// the next snapshot. Returns the new epoch and the snapshot just
    /// published. Uniqueness is tested here, one publication *after* the
    /// displacement, so readers get a whole batch to let go.
    pub fn publish_with(&self, fill: impl FnOnce(&mut T)) -> (u64, Arc<T>)
    where
        T: Default,
    {
        let mut spare = self.spare.lock().expect("epoch cell spare");
        let mut next = spare.take().unwrap_or_default();
        if Arc::get_mut(&mut next).is_none() {
            next = Arc::default();
        }
        fill(Arc::get_mut(&mut next).expect("checked unique above"));
        let published = Arc::clone(&next);
        let mut guard = self.value.write().expect("epoch cell lock");
        *spare = Some(std::mem::replace(&mut *guard, next));
        let epoch = self.epoch.fetch_add(1, Ordering::AcqRel) + 1;
        (epoch, published)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn publish_bumps_epoch_and_swaps_value() {
        let cell = EpochCell::new(vec![0u32; 4]);
        assert_eq!(cell.epoch(), 0);
        assert_eq!(*cell.load(), vec![0; 4]);
        let held = cell.load();
        assert_eq!(cell.publish(vec![1, 2, 3, 4]), 1);
        assert_eq!(cell.epoch(), 1);
        assert_eq!(*cell.load(), vec![1, 2, 3, 4]);
        // A reader that loaded before the swap keeps its coherent snapshot.
        assert_eq!(*held, vec![0; 4]);
        assert_eq!(
            cell.with(|epoch, value| (epoch, value.clone())),
            (1, vec![1, 2, 3, 4])
        );
    }

    /// Fills the way a boundary does: overwrite, keeping the allocation.
    fn refill(with: u32) -> impl FnOnce(&mut Vec<u32>) {
        move |buffer| {
            buffer.clear();
            buffer.extend([with; 4]);
        }
    }

    #[test]
    fn publish_with_reuses_the_displaced_buffer_once_no_reader_holds_it() {
        let cell = EpochCell::new(vec![0u32; 4]);
        let initial = cell.load().as_ptr();
        // The first recycling publish has nothing to recycle yet.
        let first = cell.publish_with(refill(1)).1.as_ptr();
        // From then on the two buffers alternate: each publication refills
        // the one displaced by the publication before it.
        for round in 2..=9u32 {
            let (epoch, published) = cell.publish_with(refill(round));
            assert_eq!((epoch, &*published), (round as u64, &vec![round; 4]));
            let expected = if round % 2 == 0 { initial } else { first };
            assert_eq!(published.as_ptr(), expected, "round {round} allocated");
        }
    }

    #[test]
    fn publish_with_leaves_a_held_snapshot_alone_and_takes_a_fresh_buffer() {
        let cell = EpochCell::new(vec![7u32; 4]);
        let held = cell.load();
        assert_eq!(cell.publish_with(refill(1)).0, 1);
        // `held` is the displaced spare and a reader still reads it: the next
        // publication must not write into it.
        let (epoch, second) = cell.publish_with(refill(2));
        assert_eq!((epoch, &*second), (2, &vec![2; 4]));
        assert_ne!(second.as_ptr(), held.as_ptr(), "wrote into a held snapshot");
        assert_eq!(*held, vec![7; 4], "a reader's snapshot changed under it");
        // Epochs stay monotone across both kinds of publication.
        assert_eq!(cell.publish(vec![3; 4]), 3);
        assert_eq!(cell.publish_with(refill(4)).0, 4);
        assert_eq!(
            cell.with(|epoch, value| (epoch, value.clone())),
            (4, vec![4; 4])
        );
        assert_eq!(*held, vec![7; 4]);
    }

    #[test]
    fn concurrent_readers_observe_monotone_epochs_and_consistent_pairs() {
        // The publisher stores the epoch inside the value as well, so readers
        // can detect a torn (epoch, value) pair or an epoch going backwards.
        let cell = Arc::new(EpochCell::new(0u64));
        let stop = Arc::new(AtomicBool::new(false));
        let mut readers = Vec::new();
        for _ in 0..4 {
            let cell = Arc::clone(&cell);
            let stop = Arc::clone(&stop);
            readers.push(std::thread::spawn(move || {
                let mut last = 0u64;
                while !stop.load(Ordering::Acquire) {
                    let (epoch, value) = cell.with(|epoch, value| (epoch, *value));
                    assert_eq!(epoch, value, "epoch/value pair torn");
                    assert!(epoch >= last, "epoch went backwards");
                    last = epoch;
                }
                last
            }));
        }
        for next in 1..=1000u64 {
            assert_eq!(cell.publish(next), next);
        }
        stop.store(true, Ordering::Release);
        for reader in readers {
            assert!(reader.join().expect("reader panicked") <= 1000);
        }
        assert_eq!(cell.epoch(), 1000);
    }
}
