//! [`LineClient`]: a blocking client for the line protocol of
//! [`crate::codec`].

use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;

/// A blocking line-protocol client — the test/benchmark counterpart of
/// [`ReactorServer`](crate::ReactorServer) (E17's load generators are
/// `LineClient`s).
///
/// The typed helpers (`route`, `release`, …) render requests into an
/// internal reusable buffer and read replies through
/// [`LineClient::request_into`], so a steady-state route/release loop does
/// not allocate a fresh `String` per call.
#[derive(Debug)]
pub struct LineClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// Request-render buffer reused by the typed helpers.
    scratch: String,
    /// Reply buffer reused by the typed helpers.
    reply: String,
}

impl LineClient {
    /// Connects to a running server.
    pub fn connect(addr: impl std::net::ToSocketAddrs) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(Self {
            reader: BufReader::new(stream),
            writer,
            scratch: String::new(),
            reply: String::new(),
        })
    }

    /// Sends one raw request line and returns the raw reply line (trimmed).
    /// Allocates a fresh `String` per call; hot loops should prefer
    /// [`LineClient::request_into`].
    pub fn request(&mut self, line: &str) -> io::Result<String> {
        let mut reply = String::new();
        self.request_into(line, &mut reply)?;
        Ok(reply)
    }

    /// Sends one raw request line and reads the reply line (trimmed) into
    /// `reply`, reusing its capacity — the allocation-free form of
    /// [`LineClient::request`] for steady-state loops.
    pub fn request_into(&mut self, line: &str, reply: &mut String) -> io::Result<()> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        reply.clear();
        let n = self.reader.read_line(reply)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        reply.truncate(reply.trim_end().len());
        Ok(())
    }

    /// Renders a request with `render`, round-trips it through the reusable
    /// scratch/reply buffers, and leaves the trimmed reply in `self.reply`.
    fn round_trip(&mut self, render: impl FnOnce(&mut String)) -> io::Result<()> {
        let line = {
            let mut scratch = std::mem::take(&mut self.scratch);
            scratch.clear();
            render(&mut scratch);
            scratch
        };
        let mut reply = std::mem::take(&mut self.reply);
        let result = self.request_into(&line, &mut reply);
        self.scratch = line;
        self.reply = reply;
        result
    }

    /// `ROUTE key` → `(bin, id)`.
    pub fn route(&mut self, key: u64) -> io::Result<(usize, u64)> {
        use std::fmt::Write as _;
        self.round_trip(|line| {
            let _ = write!(line, "ROUTE {key}");
        })?;
        let reply = self.reply.as_str();
        let mut parts = reply.split_ascii_whitespace();
        match (parts.next(), parts.next(), parts.next()) {
            (Some("OK"), Some(bin), Some(id)) => match (bin.parse(), id.parse()) {
                (Ok(bin), Ok(id)) => Ok((bin, id)),
                _ => Err(protocol_error(reply)),
            },
            _ => Err(protocol_error(reply)),
        }
    }

    /// `RELEASE id` → `Some(bin)` on success, `None` for an unknown ticket.
    pub fn release(&mut self, id: u64) -> io::Result<Option<usize>> {
        use std::fmt::Write as _;
        self.round_trip(|line| {
            let _ = write!(line, "RELEASE {id}");
        })?;
        let reply = self.reply.as_str();
        if reply == "ERR unknown-ticket" {
            return Ok(None);
        }
        let mut parts = reply.split_ascii_whitespace();
        match (parts.next(), parts.next()) {
            (Some("OK"), Some(bin)) => bin.parse().map(Some).map_err(|_| protocol_error(reply)),
            _ => Err(protocol_error(reply)),
        }
    }

    /// `FLUSH` → batch boundaries produced.
    pub fn flush(&mut self) -> io::Result<usize> {
        let reply = self.request("FLUSH")?;
        match reply.strip_prefix("OK ") {
            Some(rest) => rest.parse().map_err(|_| protocol_error(&reply)),
            None => Err(protocol_error(&reply)),
        }
    }

    /// `ADD weight` — stage commissioning one bin.
    pub fn stage_add(&mut self, weight: f64) -> io::Result<()> {
        self.expect_staged(&format!("ADD {weight}"))
    }

    /// `ADD weight tier` — stage commissioning one bin of weight
    /// `weight·2^tier` (a power-of-two capacity class; see [`MAX_ADD_TIER`](crate::MAX_ADD_TIER)).
    pub fn stage_add_tiered(&mut self, weight: f64, tier: u32) -> io::Result<()> {
        self.expect_staged(&format!("ADD {weight} {tier}"))
    }

    /// `DRAIN bin` — stage draining a bin out of the sampling set.
    pub fn stage_drain(&mut self, bin: u32) -> io::Result<()> {
        self.expect_staged(&format!("DRAIN {bin}"))
    }

    /// `REMOVE bin` — stage retiring a drained, empty bin.
    pub fn stage_remove(&mut self, bin: u32) -> io::Result<()> {
        self.expect_staged(&format!("REMOVE {bin}"))
    }

    /// `MIGRATE` → residents force-migrated off draining bins.
    pub fn migrate(&mut self) -> io::Result<u64> {
        let reply = self.request("MIGRATE")?;
        match reply.strip_prefix("OK ") {
            Some(rest) => rest.parse().map_err(|_| protocol_error(&reply)),
            None => Err(protocol_error(&reply)),
        }
    }

    fn expect_staged(&mut self, line: &str) -> io::Result<()> {
        let reply = self.request(line)?;
        if reply == "OK staged" {
            Ok(())
        } else {
            Err(protocol_error(&reply))
        }
    }
}

fn protocol_error(reply: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("unexpected reply: {reply:?}"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ReactorConfig, ReactorServer};
    use pba_stream::{ConcurrentRouter, StreamConfig};

    #[test]
    fn request_into_reuses_the_reply_buffer() {
        let router = ConcurrentRouter::new(StreamConfig::new(8).batch_size(8).seed(11));
        let server = ReactorServer::start(router, ReactorConfig::default()).expect("bind");
        let mut client = LineClient::connect(server.local_addr()).unwrap();
        let mut reply = String::new();
        client.request_into("ROUTE 1", &mut reply).unwrap();
        assert!(reply.starts_with("OK "), "{reply}");
        let warmed = reply.capacity();
        client.request_into("STATS", &mut reply).unwrap();
        assert!(reply.starts_with("OK routed 1"), "{reply}");
        client.request_into("FLUSH", &mut reply).unwrap();
        assert_eq!(reply, "OK 1");
        assert!(
            reply.capacity() >= warmed,
            "the reply buffer must be reused, never shrunk"
        );
        server.shutdown();
    }
}
