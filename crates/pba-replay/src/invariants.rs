//! Invariant checks the fault harness runs after every injected fault.
//!
//! A fault plan's promise is not "nothing changed" — faults *do* move loads
//! and placements — but "nothing broke silently": conservation
//! (`placed − departed == Σ loads`), epoch monotonicity (the published
//! snapshot epoch equals the boundary count) and ledger consistency (the
//! resident-ticket table agrees with itself bin by bin, with the loads and
//! with the routed/released counters). Every check returns
//! `Err(description)` instead of panicking so a fault report can carry the
//! violation into an experiment table.

use pba_stream::{ConcurrentRouter, Router, StreamAllocator};

/// The one check, written against the method names the two shells of the
/// engine core share. Call at quiescence — no route/release in flight.
macro_rules! check_engine {
    ($engine:ident, $all_routed:ident) => {{
        if !$engine.conserves_balls() {
            return Err("conservation violated: placed − departed != Σ loads".into());
        }
        let stats = $engine.stats();
        if $engine.snapshot_epoch() != stats.batches {
            return Err(format!(
                "epoch {} diverged from boundary count {}",
                $engine.snapshot_epoch(),
                stats.batches
            ));
        }
        // Over the full slot capacity, not just the initial bin count: an
        // elastic engine may hold residents in added or draining slots past
        // `config().bins`.
        let mut per_bin = 0usize;
        for bin in 0..$engine.capacity() {
            let tickets = $engine.tickets_in(bin);
            if tickets as u32 > $engine.load(bin) {
                return Err(format!(
                    "bin {bin} holds {tickets} tickets but only load {}",
                    $engine.load(bin)
                ));
            }
            per_bin += tickets;
        }
        let resident_tickets = $engine.resident_tickets();
        if per_bin != resident_tickets {
            return Err(format!(
                "ledger inconsistent: per-bin ticket counts sum to {per_bin}, \
                 ledger holds {resident_tickets}"
            ));
        }
        if $all_routed && resident_tickets as u64 != stats.routed - stats.released {
            return Err(format!(
                "ledger out of step with counters: {resident_tickets} resident tickets vs \
                 routed {} − released {}",
                stats.routed, stats.released
            ));
        }
        Ok(())
    }};
}

/// Checks the streaming engine's invariants. `all_routed` asserts the
/// stricter ledger↔counter identity that holds when every ball entered via
/// `route` (no anonymous pushes).
pub fn check_stream(stream: &StreamAllocator, all_routed: bool) -> Result<(), String> {
    check_engine!(stream, all_routed)
}

/// Checks the concurrent router's invariants — the same check as
/// [`check_stream`], on the shared handle.
pub fn check_concurrent(router: &ConcurrentRouter, all_routed: bool) -> Result<(), String> {
    check_engine!(router, all_routed)
}

#[cfg(test)]
mod tests {
    use pba_stream::{Policy, StreamConfig};

    use super::*;

    #[test]
    fn clean_engines_pass_every_check() {
        let mut stream = StreamAllocator::new(
            StreamConfig::new(8)
                .policy(Policy::TwoChoice)
                .batch_size(4)
                .seed(1),
        );
        let mut tickets = Vec::new();
        for key in 0..20u64 {
            tickets.push(stream.route(key).unwrap().ticket);
        }
        stream.release(tickets[3]).unwrap();
        check_stream(&stream, true).expect("clean stream");

        let router = ConcurrentRouter::new(StreamConfig::new(8).batch_size(4).seed(1));
        let t = router.route(9).unwrap().ticket;
        router.release(t).unwrap();
        router.flush();
        check_concurrent(&router, true).expect("clean router");
    }

    #[test]
    fn anonymous_pushes_relax_only_the_counter_identity() {
        let mut stream = StreamAllocator::new(StreamConfig::new(8).batch_size(4).seed(2));
        for key in 0..8u64 {
            stream.push(key);
        }
        stream.flush();
        stream.route(42).unwrap();
        check_stream(&stream, false).expect("mixed traffic, relaxed");
    }
}
