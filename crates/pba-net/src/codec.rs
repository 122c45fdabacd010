//! The wire protocol and its zero-allocation codec.
//!
//! One request per `\n`-terminated line, one reply line per request:
//!
//! | request | reply | meaning |
//! |---|---|---|
//! | `ROUTE <key>` | `OK <bin> <id>` | route one ball; `<id>` is its ticket's wire id |
//! | `RELEASE <id>` | `OK <bin>` or `ERR unknown-ticket` | redeem the ticket wire id `<id>` names; `<bin>` is the bin the ball left |
//! | `FLUSH` | `OK <boundaries>` | close the open batch (boundaries produced by this flush) |
//! | `STATS` | `OK routed <r> released <d> resident <n> batches <b>` | aggregate counters |
//! | `ADD <weight> [tier]` | `OK staged` | stage commissioning one bin of weight `weight·2^tier` (tier defaults to 0, max [`MAX_ADD_TIER`]) |
//! | `DRAIN <bin>` | `OK staged` | stage draining `<bin>` out of the sampling set |
//! | `REMOVE <bin>` | `OK staged` | stage retiring a drained, empty `<bin>` |
//! | `MIGRATE` | `OK <count>` | force-migrate ticketed residents off draining bins |
//! | anything else | `ERR bad-request` | counted, never silently dropped |
//!
//! The membership verbs stage a [`pba_membership::MembershipPlan`] on the
//! shared router; like every scale event it applies at the next batch
//! boundary, and illegal transitions (draining the last bin, removing an
//! occupied one) are *rejected there*, visible in the
//! `membership.rejected_*` counters — `OK staged` acknowledges staging, not
//! acceptance.
//!
//! Tickets are opaque to the wire: a client holds a **wire id** (a ledger
//! slot handle over the arrival id mod 2³², resolved through the router's
//! ledger; it survives migration, and a stale one is refused for the next
//! 2³² arrivals). A `RELEASE` for an id naming no resident ball (never issued,
//! released, repeated within its run, or forged) is an `ERR unknown-ticket`
//! and increments `server.unknown_ticket`, per the no-silent-drops rule.
//!
//! ## The codec
//!
//! Requests are parsed straight from the byte slice of a complete line
//! sitting in a reusable per-connection read buffer, and replies are
//! rendered with a small itoa-style integer writer into a reusable reply
//! buffer. In steady state neither direction allocates: no `String`, no
//! `format!`, no per-request `Vec` — the counting-allocator test
//! (`tests/zero_alloc_codec.rs`) pins that down.
//!
//! A line that is not valid UTF-8 parses as [`Request::Bad`]
//! (`ERR bad-request`), never a hangup. On every `&str`-representable line —
//! valid or malformed — the parser agrees with a plain
//! `split_ascii_whitespace` reference, property-tested in
//! `tests/serving_properties.rs`.
//!
//! **Fast path.** A canonical line — `ROUTE ` or `RELEASE `, 1–20 digits
//! that fit a `u64`, `\n` — is parsed in the scan that finds its end
//! ([`parse_canonical_line`]), anything else by the general path. They agree:
//! the reference splits it into that verb and number, and at ≤ 29 bytes it is
//! never cut by [`MAX_LINE_LEN`] (edge table in the tests).

/// Largest accepted `tier` of the `ADD <weight> [tier]` verb. A tier is a
/// power-of-two capacity-class exponent (the wire analogue of
/// [`pba_model::weights::BinWeights::power_of_two_tiers`]); `2^32` already
/// dwarfs any realistic heterogeneity, and capping here keeps the staged
/// weight `weight·2^tier` comfortably finite.
pub const MAX_ADD_TIER: u32 = 32;

/// Longest accepted request line in bytes (newline excluded). The longest
/// legitimate request (`ADD <f64> <tier>`) fits in well under 64 bytes; the
/// cap exists so a hostile client writing an endless unterminated "line"
/// cannot balloon the server's read buffer. An oversized line is answered
/// with `ERR bad-request` (counted under `server.bad_request`), its bytes
/// are discarded up to the next newline, and the connection keeps serving.
pub const MAX_LINE_LEN: usize = 1024;

/// One parsed request line. Malformed lines — unknown verbs, garbage
/// numbers, trailing tokens, out-of-range tiers — uniformly parse as
/// [`Request::Bad`]: the reply is `ERR bad-request`, counted, never a
/// hangup.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Request {
    /// `ROUTE <key>` — route one ball.
    Route {
        /// The routing key.
        key: u64,
    },
    /// `RELEASE <id>` — redeem the ticket wire id `id` names.
    Release {
        /// The wire id a `ROUTE` reply carried.
        id: u64,
    },
    /// `FLUSH` — close the open batch.
    Flush,
    /// `STATS` — aggregate counters.
    Stats,
    /// `ADD <weight> [tier]` — stage commissioning one bin; `weight` is the
    /// already-staged `weight·2^tier` (tier validated against
    /// [`MAX_ADD_TIER`] during parsing).
    Add {
        /// The staged weight (`weight·2^tier`).
        weight: f64,
    },
    /// `DRAIN <bin>` — stage draining a bin.
    Drain {
        /// The bin to drain.
        bin: u32,
    },
    /// `REMOVE <bin>` — stage retiring a drained, empty bin.
    Remove {
        /// The bin to retire.
        bin: u32,
    },
    /// `MIGRATE` — force-migrate residents off draining bins.
    Migrate,
    /// Anything else.
    Bad,
}

/// The canonical `ROUTE <n>` / `RELEASE <n>` at the head of `bytes`, read in
/// one pass (at most 20 digits: `u64::MAX` has 20), and the bytes it spans.
fn canonical(bytes: &[u8]) -> Option<(Request, usize)> {
    let (route, rest) = match bytes.strip_prefix(b"ROUTE ") {
        Some(rest) => (true, rest),
        None => (false, bytes.strip_prefix(b"RELEASE ")?),
    };
    let (mut value, mut digits) = (0u64, 0);
    for &b in rest.iter().take(20).take_while(|b| b.is_ascii_digit()) {
        value = value.checked_mul(10)?.checked_add(u64::from(b - b'0'))?;
        digits += 1;
    }
    let request = match route {
        true => Request::Route { key: value },
        false => Request::Release { id: value },
    };
    (digits > 0).then_some((request, bytes.len() - rest.len() + digits))
}

/// The canonical line at the head of `buf` and the bytes it consumes, its
/// newline included — `None` for any other line, or one still incomplete.
pub fn parse_canonical_line(buf: &[u8]) -> Option<(Request, usize)> {
    let (request, len) = canonical(buf)?;
    (buf.get(len) == Some(&b'\n')).then_some((request, len + 1))
}

/// Parses one complete request line (newline already stripped) from raw
/// bytes: whitespace-split tokens over the verb table, every field
/// validated strictly, without allocating (canonical lines: one pass).
pub fn parse_request(line: &[u8]) -> Request {
    if let Some((request, _)) = canonical(line).filter(|&(_, len)| len == line.len()) {
        return request;
    }
    // The protocol is ASCII; `from_utf8` is a validation pass, not a copy.
    // Invalid UTF-8 cannot be a well-formed request, so it is a bad request.
    let Ok(line) = std::str::from_utf8(line) else {
        return Request::Bad;
    };
    let mut parts = line.split_ascii_whitespace();
    match (parts.next(), parts.next(), parts.next()) {
        (Some("ROUTE"), Some(key), None) => match key.parse() {
            Ok(key) => Request::Route { key },
            Err(_) => Request::Bad,
        },
        (Some("RELEASE"), Some(id), None) => match id.parse() {
            Ok(id) => Request::Release { id },
            Err(_) => Request::Bad,
        },
        (Some("ADD"), Some(weight), tier) => {
            // `ADD <weight> [tier]`: every field validates strictly — a
            // garbage weight, a non-integer tier, a tier above
            // `MAX_ADD_TIER`, or trailing tokens are a bad request.
            let tier = match tier {
                None => Some(0u32),
                Some(t) => t.parse::<u32>().ok().filter(|&t| t <= MAX_ADD_TIER),
            };
            match (weight.parse::<f64>(), tier, parts.next()) {
                (Ok(weight), Some(tier), None) if weight.is_finite() && weight > 0.0 => {
                    Request::Add {
                        weight: weight * (1u64 << tier) as f64,
                    }
                }
                _ => Request::Bad,
            }
        }
        (Some("DRAIN"), Some(bin), None) => match bin.parse() {
            Ok(bin) => Request::Drain { bin },
            Err(_) => Request::Bad,
        },
        (Some("REMOVE"), Some(bin), None) => match bin.parse() {
            Ok(bin) => Request::Remove { bin },
            Err(_) => Request::Bad,
        },
        (Some("MIGRATE"), None, None) => Request::Migrate,
        (Some("FLUSH"), None, None) => Request::Flush,
        (Some("STATS"), None, None) => Request::Stats,
        _ => Request::Bad,
    }
}

/// Appends the decimal digits of `value` — an itoa-style writer: a stack
/// scratch of at most 20 digits, one `extend_from_slice`, no heap traffic
/// beyond the buffer the caller reuses.
pub fn push_u64(buf: &mut Vec<u8>, value: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    let mut rest = value;
    loop {
        at -= 1;
        digits[at] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    buf.extend_from_slice(&digits[at..]);
}

/// `OK <bin> <id>\n` — the `ROUTE` reply.
pub fn write_ok_route(buf: &mut Vec<u8>, bin: usize, id: u64) {
    buf.extend_from_slice(b"OK ");
    push_u64(buf, bin as u64);
    buf.push(b' ');
    push_u64(buf, id);
    buf.push(b'\n');
}

/// `OK <bin>\n` — the `RELEASE` reply.
pub fn write_ok_bin(buf: &mut Vec<u8>, bin: usize) {
    buf.extend_from_slice(b"OK ");
    push_u64(buf, bin as u64);
    buf.push(b'\n');
}

/// `OK <count>\n` — the `FLUSH` / `MIGRATE` reply.
pub fn write_ok_count(buf: &mut Vec<u8>, count: u64) {
    buf.extend_from_slice(b"OK ");
    push_u64(buf, count);
    buf.push(b'\n');
}

/// `OK staged\n` — the membership-staging acknowledgement.
pub fn write_ok_staged(buf: &mut Vec<u8>) {
    buf.extend_from_slice(b"OK staged\n");
}

/// `OK routed <r> released <d> resident <n> batches <b>\n` — the `STATS`
/// reply.
pub fn write_stats(buf: &mut Vec<u8>, routed: u64, released: u64, resident: u64, batches: u64) {
    buf.extend_from_slice(b"OK routed ");
    push_u64(buf, routed);
    buf.extend_from_slice(b" released ");
    push_u64(buf, released);
    buf.extend_from_slice(b" resident ");
    push_u64(buf, resident);
    buf.extend_from_slice(b" batches ");
    push_u64(buf, batches);
    buf.push(b'\n');
}

/// `ERR bad-request\n`.
pub fn write_err_bad_request(buf: &mut Vec<u8>) {
    buf.extend_from_slice(b"ERR bad-request\n");
}

/// `ERR unknown-ticket\n`.
pub fn write_err_unknown_ticket(buf: &mut Vec<u8>) {
    buf.extend_from_slice(b"ERR unknown-ticket\n");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_matches_the_verb_table() {
        assert_eq!(parse_request(b"ROUTE 42"), Request::Route { key: 42 });
        assert_eq!(parse_request(b"RELEASE 7"), Request::Release { id: 7 });
        assert_eq!(parse_request(b"FLUSH"), Request::Flush);
        assert_eq!(parse_request(b"STATS"), Request::Stats);
        assert_eq!(parse_request(b"ADD 1.5"), Request::Add { weight: 1.5 });
        assert_eq!(parse_request(b"ADD 1.5 3"), Request::Add { weight: 12.0 });
        assert_eq!(parse_request(b"DRAIN 3"), Request::Drain { bin: 3 });
        assert_eq!(parse_request(b"REMOVE 3"), Request::Remove { bin: 3 });
        assert_eq!(parse_request(b"MIGRATE"), Request::Migrate);
        // Leading, trailing and repeated whitespace is insignificant.
        assert_eq!(parse_request(b"  ROUTE  42  "), Request::Route { key: 42 });
    }

    #[test]
    fn malformed_lines_parse_as_bad() {
        for line in [
            &b""[..],
            b"   ",
            b"NONSENSE line",
            b"ROUTE",
            b"ROUTE x",
            b"ROUTE 1 2",
            b"ROUTE 99999999999999999999999",
            b"RELEASE nope",
            b"ADD -1",
            b"ADD nope 2",
            b"ADD 1.0 x",
            b"ADD 1.0 33",
            b"ADD 1.0 2 extra",
            b"ADD inf",
            b"DRAIN x",
            b"FLUSH now",
            b"STATS 1",
            b"MIGRATE 1",
            b"route 1",
            b"\xff\xfe",
        ] {
            assert_eq!(parse_request(line), Request::Bad, "{:?}", line);
        }
    }

    #[test]
    fn fast_path_edges_agree_with_the_reference() {
        let route = |key| Request::Route { key };
        let padded = |digits: usize| format!("ROUTE {:0digits$}", 5);
        let (twenty, twenty_one) = (padded(20), padded(21));
        let past_the_cap = format!("RELEASE {:0width$}", 7, width = MAX_LINE_LEN);
        // (line, what the `split_ascii_whitespace` reference parses it to,
        // whether it is canonical).
        let table: [(&[u8], Request, bool); 17] = [
            (b"ROUTE 18446744073709551615", route(u64::MAX), true),
            (b"RELEASE 0", Request::Release { id: 0 }, true),
            (b"ROUTE 18446744073709551616", Request::Bad, false),
            (
                b"ROUTE 12345678901234567890",
                route(12_345_678_901_234_567_890),
                true,
            ),
            (b"ROUTE 123456789012345678901", Request::Bad, false),
            (twenty.as_bytes(), route(5), true),
            (twenty_one.as_bytes(), route(5), false),
            (past_the_cap.as_bytes(), Request::Release { id: 7 }, false),
            (b"ROUTE +5", route(5), false),
            (b"ROUTE -5", Request::Bad, false),
            (b"ROUTE  5", route(5), false),
            (b"ROUTE\t5", route(5), false),
            (b"ROUTE 5\r", route(5), false),
            (b"ROUTE 5 ", route(5), false),
            (b"ROUTE5", Request::Bad, false),
            (b"route 5", Request::Bad, false),
            (b"RELEASE ", Request::Bad, false),
        ];
        for (line, expected, canonical) in table {
            let shown = String::from_utf8_lossy(line);
            assert_eq!(parse_request(line), expected, "{shown:?}");
            let mut terminated = line.to_vec();
            terminated.extend_from_slice(b"\nROUTE 1\n");
            let split = canonical.then_some((expected, line.len() + 1));
            assert_eq!(parse_canonical_line(&terminated), split, "{shown:?}");
            assert_eq!(
                parse_canonical_line(line),
                None,
                "{shown:?}: no newline yet"
            );
        }
    }

    #[test]
    fn integer_writer_matches_format() {
        let mut buf = Vec::new();
        for value in [0u64, 1, 9, 10, 99, 12_345, u64::MAX] {
            buf.clear();
            push_u64(&mut buf, value);
            assert_eq!(buf, format!("{value}").into_bytes());
        }
        buf.clear();
        write_ok_route(&mut buf, 31, 907);
        assert_eq!(buf, b"OK 31 907\n");
        buf.clear();
        write_stats(&mut buf, 4, 3, 1, 2);
        assert_eq!(&buf, b"OK routed 4 released 3 resident 1 batches 2\n");
    }
}
