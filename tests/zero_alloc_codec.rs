//! Counting-allocator proof of the serving codec's zero-allocation claim:
//! once a connection's reply buffer has warmed up, parsing any request line
//! and rendering its reply touches the heap **zero** times. This is the
//! per-request steady state of the reactor front-end — buffers live per
//! connection and are reused, so heap traffic per request is exactly what
//! this test measures.
//!
//! The counter is the per-thread `#[global_allocator]` of
//! `tests/support/counting_alloc.rs`.

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::allocations_during;
use parallel_balanced_allocations::net::codec::{
    parse_request, write_err_bad_request, write_err_unknown_ticket, write_ok_bin, write_ok_count,
    write_ok_route, write_ok_staged, write_stats, Request,
};

#[test]
fn steady_state_parse_and_render_never_touch_the_heap() {
    // The request mix every reply writer and every parse arm sees at least
    // once, including the malformed/error paths.
    let lines: &[&[u8]] = &[
        b"ROUTE 8412974097",
        b"RELEASE 90833",
        b"ROUTE 17",
        b"  ROUTE  42  ",
        b"RELEASE 18446744073709551615",
        b"STATS",
        b"FLUSH",
        b"ADD 1.5 3",
        b"DRAIN 7",
        b"REMOVE 7",
        b"MIGRATE",
        b"ROUTE notanumber",
        b"",
        b"\xff\xfeGARBAGE",
    ];
    // Warm-up: grows the reply buffer to its steady-state capacity (the
    // longest reply in the mix) — the one legitimate allocation a real
    // connection pays once, not per request.
    let mut reply: Vec<u8> = Vec::new();
    let render = |reply: &mut Vec<u8>, line: &[u8], salt: u64| {
        reply.clear();
        match parse_request(line) {
            Request::Route { key } => write_ok_route(reply, (key % 256) as usize, salt),
            Request::Release { id } => write_ok_bin(reply, (id % 256) as usize),
            Request::Flush => write_ok_count(reply, salt),
            Request::Stats => write_stats(reply, salt, salt / 2, salt / 2, salt / 256),
            Request::Add { .. } | Request::Drain { .. } | Request::Remove { .. } => {
                write_ok_staged(reply)
            }
            Request::Migrate => write_ok_count(reply, salt),
            Request::Bad => {
                // Both error writers, so each is pinned allocation-free.
                write_err_bad_request(reply);
                reply.clear();
                write_err_unknown_ticket(reply);
            }
        }
    };
    for (i, line) in lines.iter().enumerate() {
        render(&mut reply, line, u64::MAX - i as u64);
    }
    // Steady state: 10k requests through the warmed buffer — zero heap
    // traffic, the property the reactor's per-connection buffers rely on.
    let allocs = allocations_during(|| {
        for i in 0..10_000u64 {
            let line = lines[(i % lines.len() as u64) as usize];
            render(&mut reply, line, i);
        }
    });
    assert_eq!(
        allocs, 0,
        "steady-state parse+render must not allocate (got {allocs} allocations over 10k requests)"
    );
    assert!(!reply.is_empty(), "the loop really rendered replies");
}

#[test]
fn parse_alone_never_allocates_even_cold() {
    // Parsing has no buffer at all — it is allocation-free from the first
    // byte, warm-up or not, across valid and malformed lines.
    let lines: &[&[u8]] = &[
        b"ROUTE 1",
        b"RELEASE 2",
        b"ADD 2.25 31",
        b"STATS",
        b"garbage here",
        b"\x80\x81\x82",
    ];
    let allocs = allocations_during(|| {
        let mut routes = 0u64;
        for i in 0..1_000u64 {
            let line = lines[(i % lines.len() as u64) as usize];
            if matches!(parse_request(line), Request::Route { .. }) {
                routes += 1;
            }
        }
        assert!(routes > 0);
    });
    assert_eq!(allocs, 0, "parse_request allocated {allocs} times");
}
