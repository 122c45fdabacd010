//! Readiness polling behind one small trait.
//!
//! [`Poller`] is the only thing the reactor knows about: register a
//! nonblocking socket under an integer token, ask which tokens are ready to
//! read. Two implementations exist:
//!
//! * [`EpollPoller`] (Linux only) — raw level-triggered `epoll` through
//!   `extern "C"` bindings. No crate dependency: `std` already links libc,
//!   so the three syscall wrappers resolve at link time. This is the
//!   production path: an idle reactor sleeps in `epoll_wait` and wakes the
//!   moment any of its connections has bytes.
//! * [`FallbackPoller`] (everywhere) — a portable nonblocking poll loop: it
//!   sleeps a short tick and then reports *every* registered token as ready.
//!   Readiness is allowed to be spurious — connections are nonblocking, so
//!   a read on a quiet socket just returns `WouldBlock` — which makes this
//!   trivially correct, merely less efficient. Tests and non-Linux builds
//!   run on it; [`new_poller`] picks the best available at runtime.
//!
//! Only read-interest is registered. The reactor retries pending writes on
//! every poll tick instead of plumbing write-interest through the trait —
//! replies are tiny, so a full socket send buffer is a transient condition a
//! tick-later retry absorbs.

use std::io;
use std::net::TcpStream;
use std::time::Duration;

/// Readiness-polling interface the reactor drives (see the
/// [module docs](self)).
pub trait Poller: Send {
    /// Starts watching `stream` for read-readiness under `token`.
    fn register(&mut self, stream: &TcpStream, token: usize) -> io::Result<()>;

    /// Stops watching `stream` / `token`.
    fn deregister(&mut self, stream: &TcpStream, token: usize) -> io::Result<()>;

    /// Clears `ready` and fills it with the tokens that are (possibly
    /// spuriously) ready to read, waiting at most `timeout`.
    fn poll(&mut self, ready: &mut Vec<usize>, timeout: Duration) -> io::Result<()>;
}

/// Builds the best poller available: [`EpollPoller`] on Linux (unless
/// `force_fallback` asks for the portable path, which tests use to exercise
/// both implementations on one machine), [`FallbackPoller`] otherwise.
pub fn new_poller(force_fallback: bool) -> io::Result<Box<dyn Poller>> {
    #[cfg(target_os = "linux")]
    {
        if !force_fallback {
            return Ok(Box::new(EpollPoller::new()?));
        }
    }
    let _ = force_fallback;
    Ok(Box::new(FallbackPoller::new()))
}

/// The portable poll loop: every registered token is reported ready after a
/// short sleep. Spurious readiness is harmless against nonblocking sockets;
/// the sleep bounds the busy-loop cost.
#[derive(Debug, Default)]
pub struct FallbackPoller {
    tokens: Vec<usize>,
}

/// The fallback's busy-loop damper: with connections registered it sleeps
/// this long (capped by the caller's timeout) before declaring everything
/// ready, trading up to 500µs of added latency for a bounded spin rate.
const FALLBACK_TICK: Duration = Duration::from_micros(500);

impl FallbackPoller {
    /// Creates an empty poller.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Poller for FallbackPoller {
    fn register(&mut self, _stream: &TcpStream, token: usize) -> io::Result<()> {
        if !self.tokens.contains(&token) {
            self.tokens.push(token);
        }
        Ok(())
    }

    fn deregister(&mut self, _stream: &TcpStream, token: usize) -> io::Result<()> {
        self.tokens.retain(|&t| t != token);
        Ok(())
    }

    fn poll(&mut self, ready: &mut Vec<usize>, timeout: Duration) -> io::Result<()> {
        ready.clear();
        if self.tokens.is_empty() {
            // Nothing to be ready: honour the full timeout like a real
            // poller would, so an idle reactor doesn't spin.
            std::thread::sleep(timeout);
            return Ok(());
        }
        std::thread::sleep(timeout.min(FALLBACK_TICK));
        ready.extend_from_slice(&self.tokens);
        Ok(())
    }
}

/// Raw `epoll` syscall surface. `std` links libc on Linux, so these resolve
/// without any new dependency.
#[cfg(target_os = "linux")]
mod sys {
    use std::os::raw::c_int;

    /// Mirror of libc's `struct epoll_event`. On x86-64 the kernel ABI packs
    /// it (no padding between the 32-bit mask and the 64-bit data word);
    /// elsewhere it is plain C layout.
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Debug, Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    pub const EPOLLIN: u32 = 0x1;
    pub const EPOLL_CTL_ADD: c_int = 1;
    pub const EPOLL_CTL_DEL: c_int = 2;
    pub const EPOLL_CLOEXEC: c_int = 0x80000;

    extern "C" {
        pub fn epoll_create1(flags: c_int) -> c_int;
        pub fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        pub fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        pub fn close(fd: c_int) -> c_int;
    }
}

/// Level-triggered `epoll` readiness polling (Linux). An idle reactor sleeps
/// in `epoll_wait`; a connection with buffered bytes is re-reported every
/// poll until drained, so the reactor never needs edge-triggered
/// re-arm bookkeeping.
#[cfg(target_os = "linux")]
#[derive(Debug)]
pub struct EpollPoller {
    epfd: std::os::raw::c_int,
    events: Vec<sys::EpollEvent>,
}

#[cfg(target_os = "linux")]
impl EpollPoller {
    /// Largest batch of events one `epoll_wait` returns; level-triggered
    /// polling re-reports anything that didn't fit, so this caps memory, not
    /// correctness.
    const MAX_EVENTS: usize = 64;

    /// Creates a close-on-exec epoll instance.
    pub fn new() -> io::Result<Self> {
        // SAFETY: epoll_create1 takes a flags word and returns a new fd (or
        // -1); no pointers are involved.
        let epfd = unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Self {
            epfd,
            events: vec![sys::EpollEvent { events: 0, data: 0 }; Self::MAX_EVENTS],
        })
    }
}

#[cfg(target_os = "linux")]
impl Drop for EpollPoller {
    fn drop(&mut self) {
        // SAFETY: epfd is a live fd owned by this struct; closing it twice
        // is impossible because Drop runs once.
        unsafe {
            sys::close(self.epfd);
        }
    }
}

#[cfg(target_os = "linux")]
impl Poller for EpollPoller {
    fn register(&mut self, stream: &TcpStream, token: usize) -> io::Result<()> {
        use std::os::fd::AsRawFd;
        let mut event = sys::EpollEvent {
            events: sys::EPOLLIN,
            data: token as u64,
        };
        // SAFETY: `event` is a live, properly laid out EpollEvent for the
        // duration of the call; the fd is valid (borrowed from the stream).
        let rc = unsafe {
            sys::epoll_ctl(
                self.epfd,
                sys::EPOLL_CTL_ADD,
                stream.as_raw_fd(),
                &mut event,
            )
        };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    fn deregister(&mut self, stream: &TcpStream, _token: usize) -> io::Result<()> {
        use std::os::fd::AsRawFd;
        // Pre-2.6.9 kernels require a non-null event pointer even for DEL;
        // passing a dummy keeps the call portable across kernel vintages.
        let mut event = sys::EpollEvent { events: 0, data: 0 };
        // SAFETY: same as register — valid fd, valid event pointer.
        let rc = unsafe {
            sys::epoll_ctl(
                self.epfd,
                sys::EPOLL_CTL_DEL,
                stream.as_raw_fd(),
                &mut event,
            )
        };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    fn poll(&mut self, ready: &mut Vec<usize>, timeout: Duration) -> io::Result<()> {
        ready.clear();
        // Sub-millisecond timeouts round *up* so a short poll interval never
        // degenerates into a busy spin (epoll takes whole milliseconds).
        let ms = if timeout.is_zero() {
            0
        } else {
            timeout.as_millis().clamp(1, i32::MAX as u128) as i32
        };
        // SAFETY: `events` is a live buffer of MAX_EVENTS properly
        // initialized EpollEvents; the kernel writes at most `maxevents`
        // entries into it.
        let n = unsafe {
            sys::epoll_wait(
                self.epfd,
                self.events.as_mut_ptr(),
                self.events.len() as std::os::raw::c_int,
                ms,
            )
        };
        if n < 0 {
            let err = io::Error::last_os_error();
            // A signal interrupting the wait is not an error; the reactor
            // simply polls again on its next tick.
            if err.kind() == io::ErrorKind::Interrupted {
                return Ok(());
            }
            return Err(err);
        }
        for event in &self.events[..n as usize] {
            // Copy out of the (possibly packed) struct before use.
            let token = { event.data };
            ready.push(token as usize);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::TcpListener;

    /// Both pollers must drive the same tiny scenario: a registered
    /// connection becomes readable when the peer writes, and deregistering
    /// stops (epoll) or at worst spuriously continues (fallback) reports.
    fn exercise(mut poller: Box<dyn Poller>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut peer = TcpStream::connect(addr).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        server_side.set_nonblocking(true).unwrap();
        poller.register(&server_side, 7).unwrap();

        peer.write_all(b"hello").unwrap();
        let mut ready = Vec::new();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            poller.poll(&mut ready, Duration::from_millis(10)).unwrap();
            if ready.contains(&7) {
                break;
            }
            assert!(std::time::Instant::now() < deadline, "never became ready");
        }
        let mut buf = [0u8; 16];
        let n = (&server_side).read(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"hello");
        poller.deregister(&server_side, 7).unwrap();
        poller.poll(&mut ready, Duration::from_millis(1)).unwrap();
    }

    #[test]
    fn fallback_poller_reports_readiness() {
        exercise(Box::new(FallbackPoller::new()));
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn epoll_poller_reports_readiness() {
        exercise(Box::new(EpollPoller::new().unwrap()));
    }

    #[test]
    fn new_poller_honours_force_fallback() {
        // Must construct on every platform.
        let _ = new_poller(true).unwrap();
        let _ = new_poller(false).unwrap();
    }
}
