//! # pba-concurrent
//!
//! A shared-memory, truly multi-threaded execution substrate for the paper's
//! threshold protocols. The round-based simulator in [`pba_model`] is the ground
//! truth for the *model-level* quantities (rounds, loads, messages); this crate
//! answers the systems question "what does the protocol look like as an actual
//! parallel program?" and provides the speed-up experiment E8:
//!
//! * [`atomic_bins`] — bins as a flat array of atomic counters. A ball claims a
//!   slot with a bounded `fetch_update`, which is exactly the "bin accepts up to
//!   `T − ℓ` requests" rule of the threshold model, resolved by the hardware's
//!   arbitration instead of the simulator's arrival order.
//! * [`executor`] — a rayon-based round executor: in each round all unallocated
//!   balls try to claim a slot in a uniformly random bin under the round's
//!   threshold; rejected balls retry next round. Supports the `A_heavy` schedule
//!   and fixed thresholds. A round long enough to split (two 32 Ki-ball chunks
//!   or more) runs one chunk per thread on the rayon shim's scoped threads,
//!   as the streaming drain does; a shorter round runs on the calling thread.
//! * [`actor`] — a crossbeam-channel actor executor: bins are sharded over worker
//!   threads, balls' requests are messages on the shards' channels and accepts
//!   flow back over a result channel. A faithful "message passing" realisation of
//!   the model, used to cross-validate the shared-memory path.
//! * [`epoch`] — [`EpochCell`]: epoch-published load snapshots, the read-side
//!   primitive of the concurrent streaming router (many reader threads clone
//!   the current stale snapshot, one boundary thread swaps in the next and
//!   bumps a monotone epoch).
//! * [`padded`] — [`CachePadded`]: a `#[repr(align(64))]` wrapper giving hot
//!   atomics (per-bin counters, the epoch word) their own cache line, so
//!   writes by one thread stop invalidating their neighbours' lines.
//! * [`speedup`] — wall-clock measurements of one allocation under varying rayon
//!   thread counts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod actor;
pub mod atomic_bins;
pub mod epoch;
pub mod executor;
pub mod padded;
pub mod speedup;

pub use actor::run_actor_threshold;
pub use atomic_bins::AtomicBins;
pub use epoch::EpochCell;
pub use executor::{run_concurrent_heavy, run_concurrent_threshold, ConcurrentOutcome};
pub use padded::CachePadded;
pub use speedup::{measure_speedup, SpeedupPoint};
