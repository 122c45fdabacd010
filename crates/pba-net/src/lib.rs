//! # pba-net
//!
//! The **serving path**: the line protocol of
//! [`pba_stream::ConcurrentRouter`], its executor, and the TCP front-end
//! that carries it. This crate is the single home of the wire protocol —
//! one parser, one verb dispatcher, and no ticket table: a wire id names its
//! ticket's slot in the router's ledger.
//!
//! * [`codec`] — the wire protocol (verb table, [`MAX_LINE_LEN`],
//!   [`MAX_ADD_TIER`]) and its zero-allocation codec: requests parse from
//!   byte slices in reusable per-connection buffers, replies render through
//!   itoa-style integer writers into a reusable reply buffer. No `String`,
//!   no `format!` in steady state.
//! * [`session`] — [`Session`]: the socket-free request executor. Takes
//!   request bytes in arbitrary chunks, appends reply bytes to a
//!   caller-owned buffer; owns wire-id resolution, line splitting with
//!   the oversized-line discard, and the batching of each pipelined run of
//!   `ROUTE` and `RELEASE` lines, in any order, into one `serve_wire` call.
//!   Protocol tests and in-process embeddings drive it directly — no TCP,
//!   no ports, no sleeps.
//! * [`reactor`] — [`ReactorServer`]: the TCP front-end. A small fixed pool
//!   of reactor threads drives nonblocking sockets through readiness polling
//!   and hands every byte to a [`Session`].
//! * [`poller`] — the [`Poller`] trait with two implementations: raw
//!   level-triggered `epoll` via `extern "C"` bindings on Linux
//!   ([`EpollPoller`]) and a portable nonblocking poll loop
//!   ([`FallbackPoller`]) so tests pass anywhere.
//! * [`client`] — [`LineClient`]: a blocking client for tests, examples and
//!   load generators.
//!
//! `pba-stream` forbids `unsafe` and never touches `std::net`; the epoll
//! bindings need exactly one well-fenced unsafe block per syscall. All
//! unsafe in this crate lives in [`poller`].
//!
//! ## Quick start
//!
//! ```no_run
//! use pba_net::{LineClient, ReactorConfig, ReactorServer};
//! use pba_stream::{ConcurrentRouter, Policy, StreamConfig};
//!
//! let router = ConcurrentRouter::new(
//!     StreamConfig::new(64).policy(Policy::TwoChoice).batch_size(128).seed(7),
//! );
//! let server = ReactorServer::start(router, ReactorConfig::default()).unwrap();
//! let mut client = LineClient::connect(server.local_addr()).unwrap();
//! let (bin, id) = client.route(42).unwrap();
//! assert_eq!(client.release(id).unwrap(), Some(bin));
//! server.shutdown();
//! ```

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod client;
pub mod codec;
pub mod poller;
pub mod reactor;
pub mod session;

pub use client::LineClient;
pub use codec::{parse_request, Request, MAX_ADD_TIER, MAX_LINE_LEN};
#[cfg(target_os = "linux")]
pub use poller::EpollPoller;
pub use poller::{new_poller, FallbackPoller, Poller};
pub use reactor::{ReactorConfig, ReactorServer};
pub use session::{ConnState, Session};
