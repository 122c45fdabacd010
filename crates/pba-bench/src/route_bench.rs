//! The committed **route-perf trajectory**: microbenchmarks of the serving
//! hot path rendered as tables for `BENCH_route.json` (written by the
//! `bench_snapshot` binary, drift-checked by its `--check` mode).
//!
//! Two tables:
//!
//! * **ROUTE** — per-key cost of `route` (the one-at-a-time surface) vs
//!   `route_many` at group sizes 1/64/256, at 1, 2 and 4 caller threads
//!   sharing one [`ConcurrentRouter`] handle. The grouped surface reads the
//!   epoch cell, the thresholds cell and the topology once per *group* and
//!   commits per-bin deltas and ledger tickets in shard-grouped passes, so
//!   its per-key cost must fall as the group grows; at group 1 it does the
//!   same work as `route` plus one `Vec` allocation.
//! * **GUARD** — the `route_instrumented_vs_bare` overhead guard from
//!   `benches/bench_stream.rs`, in snapshot form: the same 1-caller looped
//!   workload with and without a metrics registry installed, with the
//!   bit-identity of the two arms asserted (metrics are write-only).
//!
//! Timing columns (wall ms, ns/op, ratios) are machine-dependent — on a
//! 1-core container caller threads serialise — so the committed snapshot is
//! compared structurally, never by time: the [`structural_fingerprint`]
//! keeps the workload-shape and invariant columns (callers, surface, routed,
//! batches, conserved, drops, bit-identity) and drops every timing cell.

use std::sync::Arc;
use std::time::Instant;

use pba_model::rng::SplitMix64;
use pba_obs::{drops_of, MetricsRegistry};
use pba_stats::{Align, Cell, Table};
use pba_stream::{ConcurrentRouter, StreamConfig};

/// Bins (= batch size) of the benchmark router.
const BINS: usize = 256;
/// Keys routed per caller thread (quick / full).
fn per_caller(quick: bool) -> u64 {
    if quick {
        64 * 1024
    } else {
        512 * 1024
    }
}

/// Routes `per_caller` keys from each of `callers` threads through one
/// shared handle; `group == 0` loops `route`, `group ≥ 1` calls `route_many`
/// in groups of that size. Returns (seconds, placements) — placements in
/// route order, only meaningful at 1 caller.
fn run(
    router: &ConcurrentRouter,
    callers: u64,
    per: u64,
    group: usize,
    seed: u64,
) -> (f64, Vec<u32>) {
    let start = Instant::now();
    let placements: Vec<u32> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..callers)
            .map(|t| {
                let router = router.clone();
                scope.spawn(move || {
                    let mut rng = SplitMix64::for_stream(seed, 0x707e, t);
                    let mut placed = Vec::with_capacity(per as usize);
                    if group == 0 {
                        for _ in 0..per {
                            placed
                                .push(router.route(rng.next_u64()).expect("infallible").bin as u32);
                        }
                    } else {
                        let mut routed = 0u64;
                        let mut keys = Vec::with_capacity(group);
                        while routed < per {
                            let take = group.min((per - routed) as usize);
                            keys.clear();
                            keys.extend((0..take).map(|_| rng.next_u64()));
                            for placement in router.route_many(&keys).expect("infallible") {
                                placed.push(placement.bin as u32);
                            }
                            routed += take as u64;
                        }
                    }
                    placed
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("caller thread"))
            .collect()
    });
    (start.elapsed().as_secs_f64(), placements)
}

fn bench_router(registry: &Arc<MetricsRegistry>, seed: u64) -> ConcurrentRouter {
    ConcurrentRouter::with_metrics(
        StreamConfig::new(BINS)
            .batch_size(BINS)
            .seed(seed)
            .shards(8),
        Arc::clone(registry),
    )
}

/// The ROUTE table: `route` vs grouped `route_many` per-key cost at 1/2/4
/// callers. Both surfaces run metrics-instrumented so the ratio column
/// compares like with like (the GUARD table prices the instrumentation
/// itself).
pub fn route_hot_path(quick: bool) -> Table {
    route_hot_path_sized(per_caller(quick))
}

/// [`route_hot_path`] with an explicit per-caller workload (the unit test
/// runs a small one; timings there are meaningless, structure is not).
fn route_hot_path_sized(per: u64) -> Table {
    let seed = 7u64;
    let mut table = Table::with_alignments(
        "ROUTE: serving hot path — route vs route_many ns per key (timing smoke on 1-core)",
        &[
            ("callers", Align::Right),
            ("surface", Align::Left),
            ("routed", Align::Right),
            ("wall ms", Align::Right),
            ("ns/op", Align::Right),
            ("vs route", Align::Right),
            ("batches", Align::Right),
            ("drops", Align::Right),
            ("conserved", Align::Left),
            ("≡ looped route", Align::Left),
        ],
    );
    for callers in [1u64, 2, 4] {
        // The looped-route reference for this caller count: at 1 caller its
        // placements are the bit-identity baseline for every grouped row.
        let mut reference: Option<Vec<u32>> = None;
        let mut baseline_ns = 0.0f64;
        for (surface, group) in [
            ("route", 0usize),
            ("route_many(1)", 1),
            ("route_many(64)", 64),
            ("route_many(256)", 256),
        ] {
            let warm = bench_router(&Arc::new(MetricsRegistry::new()), seed);
            // One discarded warm-up pass per row (page in the ledger shards
            // and the published snapshot), then best-of-3 timed passes, each
            // on a fresh router so every pass routes from the same empty
            // state — the min is the least scheduler-perturbed estimate,
            // which matters on a 1-core container.
            let _ = run(&warm, callers, per.min(8 * 1024), group, seed ^ 0x5eed);
            let mut seconds = f64::INFINITY;
            let mut best: Option<(Arc<MetricsRegistry>, ConcurrentRouter, Vec<u32>)> = None;
            for _ in 0..3 {
                let registry = Arc::new(MetricsRegistry::new());
                let router = bench_router(&registry, seed);
                let (pass, placements) = run(&router, callers, per, group, seed);
                if pass < seconds {
                    seconds = pass;
                    best = Some((registry, router, placements));
                }
            }
            let (registry, router, placements) = best.expect("three passes ran");
            let routed = callers * per;
            let ns = seconds * 1e9 / routed as f64;
            if group == 0 {
                baseline_ns = ns;
            }
            let identical = if callers == 1 {
                if *reference.get_or_insert_with(|| placements.clone()) == placements {
                    "yes"
                } else {
                    "NO"
                }
            } else {
                "-"
            };
            let stats = router.stats();
            table.push_row([
                Cell::from(callers),
                Cell::from(surface),
                Cell::from(routed),
                Cell::from(seconds * 1e3),
                Cell::from(ns),
                Cell::from(format!("{:.2}x", ns / baseline_ns)),
                Cell::from(stats.batches),
                Cell::from(drops_of(&registry.snapshot())),
                Cell::from(if router.conserves_balls() {
                    "yes"
                } else {
                    "NO"
                }),
                Cell::from(identical),
            ]);
        }
    }
    table
}

/// The GUARD table: the `route_instrumented_vs_bare` overhead guard in
/// snapshot form — the same 1-caller looped workload bare vs instrumented,
/// with placement bit-identity asserted across the arms.
pub fn route_metrics_guard(quick: bool) -> Table {
    route_metrics_guard_sized(per_caller(quick))
}

/// [`route_metrics_guard`] with an explicit workload size (see
/// [`route_hot_path_sized`]).
fn route_metrics_guard_sized(per: u64) -> Table {
    let seed = 11u64;
    let mut table = Table::with_alignments(
        "GUARD: route_instrumented_vs_bare — metrics overhead per route (timing smoke on 1-core)",
        &[
            ("arm", Align::Left),
            ("routed", Align::Right),
            ("ns/op", Align::Right),
            ("vs bare", Align::Right),
            ("drops", Align::Right),
            ("conserved", Align::Left),
            ("identical placements", Align::Left),
        ],
    );
    let mut reference: Option<Vec<u32>> = None;
    let mut baseline_ns = 0.0f64;
    for instrumented in [false, true] {
        let registry = Arc::new(MetricsRegistry::new());
        let config = StreamConfig::new(BINS)
            .batch_size(BINS)
            .seed(seed)
            .shards(8);
        let make = || {
            if instrumented {
                ConcurrentRouter::with_metrics(config.clone(), Arc::clone(&registry))
            } else {
                ConcurrentRouter::new(config.clone())
            }
        };
        let _ = run(&make(), 1, per.min(8 * 1024), 0, seed ^ 0x5eed);
        let mut seconds = f64::INFINITY;
        let mut best: Option<(ConcurrentRouter, Vec<u32>)> = None;
        for _ in 0..3 {
            let router = make();
            let (pass, placements) = run(&router, 1, per, 0, seed);
            if pass < seconds {
                seconds = pass;
                best = Some((router, placements));
            }
        }
        let (router, placements) = best.expect("three passes ran");
        let ns = seconds * 1e9 / per as f64;
        if !instrumented {
            baseline_ns = ns;
        }
        let identical = *reference.get_or_insert_with(|| placements.clone()) == placements;
        table.push_row([
            Cell::from(if instrumented { "instrumented" } else { "bare" }),
            Cell::from(per),
            Cell::from(ns),
            Cell::from(format!("{:.2}x", ns / baseline_ns)),
            Cell::from(if instrumented {
                drops_of(&registry.snapshot()).to_string()
            } else {
                "-".into()
            }),
            Cell::from(if router.conserves_balls() {
                "yes"
            } else {
                "NO"
            }),
            Cell::from(if identical { "yes" } else { "NO" }),
        ]);
    }
    table
}

/// Columns that are part of the committed snapshot's *structure* — workload
/// shape and invariants, never timing. `bench_snapshot -- --check` fails if
/// any of these cells drift from the committed `BENCH_route.json`.
const STRUCTURAL_COLUMNS: &[&str] = &[
    "callers",
    "surface",
    "arm",
    "routed",
    "batches",
    "drops",
    "conserved",
    "≡ looped route",
    "identical placements",
];

/// Renders the timing-free fingerprint of the route tables: title, column
/// list, and per row only the `STRUCTURAL_COLUMNS` cells — counts,
/// boundary cadence, drops, conservation and bit-identity, never timings.
pub fn structural_fingerprint(tables: &[&Table]) -> String {
    let mut out = String::new();
    for table in tables {
        out.push_str(table.title());
        out.push('|');
        let names = table.column_names();
        out.push_str(&names.join(","));
        for row in table.rows() {
            out.push('|');
            let cells: Vec<String> = row
                .iter()
                .zip(names.iter())
                .filter(|(_, name)| STRUCTURAL_COLUMNS.contains(name))
                .map(|(cell, name)| format!("{name}={}", cell.0))
                .collect();
            out.push_str(&cells.join(","));
        }
        out.push(';');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The structural invariants the committed snapshot pins, asserted on a
    /// small fresh run: conservation and zero drops on every row, grouped
    /// placements bit-identical to looped `route` at 1 caller, and one
    /// boundary per `batch_size` routed balls.
    #[test]
    fn route_tables_hold_their_structural_invariants() {
        let per = 4 * 1024u64;
        let route = route_hot_path_sized(per);
        assert_eq!(route.n_rows(), 12, "3 caller counts × 4 surfaces");
        for row in route.rows() {
            let callers: u64 = row[0].0.parse().unwrap();
            let routed: u64 = row[2].0.parse().unwrap();
            let batches: u64 = row[6].0.parse().unwrap();
            assert_eq!(routed, callers * per);
            assert_eq!(batches, routed / BINS as u64, "one boundary per batch");
            assert_eq!(row[7].0, "0", "drops at callers={callers}");
            assert_eq!(row[8].0, "yes", "conserved at callers={callers}");
            if callers == 1 {
                assert_eq!(row[9].0, "yes", "grouped ≡ looped at 1 caller");
            } else {
                assert_eq!(row[9].0, "-");
            }
        }
        let guard = route_metrics_guard_sized(per);
        assert_eq!(guard.n_rows(), 2);
        for row in guard.rows() {
            assert_eq!(row[5].0, "yes", "conserved");
            assert_eq!(row[6].0, "yes", "instrumented ≡ bare");
        }
        assert_eq!(guard.rows()[1][4].0, "0", "instrumented arm drops");
        // The fingerprint is stable across runs (timing excluded).
        let again = route_hot_path_sized(per);
        assert_eq!(
            structural_fingerprint(&[&route]),
            structural_fingerprint(&[&again])
        );
    }
}
