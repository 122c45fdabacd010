//! Golden replay snapshots: regenerate (`--bless`) or verify the committed
//! files under `tests/golden/`.
//!
//! Usage:
//!
//! ```text
//! cargo run -p pba-bench --bin replay_golden            # diff mode (CI): exit 1 on drift
//! cargo run -p pba-bench --bin replay_golden -- --bless # rewrite tests/golden/
//! ```
//!
//! For every committed trace the binary replays the full
//! **schedule-deterministic** matrix — a `concurrent1` row per policy under
//! uniform weights, a weighted `concurrent1` row, and one `oneshot` row
//! where the trace admits it — and renders each outcome as one
//! stable [`pba_replay::golden_line`] (FNV-1a hashes of placements, loads
//! and gap trajectories plus the scalar counters). Any placement drift — a
//! policy tweak, an RNG reordering, a batching change — shows up as the
//! exact line that moved. The `mini-batched` trace replays its
//! deterministic rows through the grouped `route_many` surface
//! (`route_group = 7`), pinning the batched path to the same bit-identity
//! contract. Under `--bless` the traces themselves are also rewritten from
//! their canonical constructors, keeping `mini.trace` byte-identical to
//! `Trace::mini().encode()`.

use std::fs;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::{Arc, Mutex};

use pba_model::rng::SplitMix64;
use pba_model::router::RouterObserver;
use pba_model::weights::BinWeights;
use pba_net::{ReactorConfig, ReactorServer};
use pba_replay::{diff_golden, golden_line, replay::replay, ReplayConfig, Trace, TraceRecorder};
use pba_stream::{ConcurrentRouter, Policy, StreamConfig};

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden")
}

fn policies() -> [Policy; 6] {
    [
        Policy::OneChoice,
        Policy::TwoChoice,
        Policy::DChoice(3),
        Policy::Threshold { d: 2, slack: 1 },
        Policy::WeightedTwoChoice,
        Policy::CapacityThreshold { d: 2, slack: 2 },
    ]
}

/// The traces the golden files pin, from their canonical constructors.
fn traces() -> Vec<Trace> {
    vec![
        Trace::mini(),
        Trace::mini_batched(),
        Trace::mini_reweighted(),
        Trace::mini_membership(),
        mini_serving_trace(),
    ]
}

/// The serving-path golden: a [`TraceRecorder`] taps a live
/// [`ReactorServer`] while one client drives a deterministic **pipelined**
/// socket session — four windows of 16 `ROUTE`s (a contiguous run the
/// reactor hands to `route_many`), each followed by a pipelined `RELEASE`
/// run of that window's odd-offset tickets (a contiguous run for
/// `release_many`). The client drains every window's replies before the
/// next window, so TCP chunking cannot move a release across a window and
/// the recorded event order is exactly the request order. In diff mode the
/// session is re-run live: drift in the committed trace bytes means the
/// serving path reordered or re-placed something.
fn mini_serving_trace() -> Trace {
    let (bins, batch, seed) = (16usize, 8usize, 11u64);
    let recorder = Arc::new(Mutex::new(TraceRecorder::new()));
    let router = ConcurrentRouter::new(StreamConfig::new(bins).batch_size(batch).seed(seed));
    router.add_observer(Arc::clone(&recorder) as Arc<Mutex<dyn RouterObserver + Send>>);
    let server = ReactorServer::start(
        router,
        ReactorConfig {
            reactors: 1,
            ..ReactorConfig::default()
        },
    )
    .expect("bind loopback");
    let raw = TcpStream::connect(server.local_addr()).expect("connect");
    raw.set_nodelay(true).expect("nodelay");
    let mut writer = raw.try_clone().expect("clone stream");
    let mut reader = BufReader::new(raw);
    let mut rng = SplitMix64::for_stream(seed, 0x5e12, 0);
    let mut line = String::new();
    for _window in 0..4 {
        let mut request = String::new();
        for _ in 0..16 {
            use std::fmt::Write as _;
            let _ = writeln!(request, "ROUTE {}", rng.next_u64());
        }
        writer.write_all(request.as_bytes()).expect("write routes");
        let mut ids = Vec::with_capacity(16);
        for _ in 0..16 {
            line.clear();
            assert_ne!(reader.read_line(&mut line).expect("route reply"), 0);
            let id: u64 = line
                .trim_end()
                .rsplit(' ')
                .next()
                .and_then(|id| id.parse().ok())
                .expect("OK <bin> <id>");
            ids.push(id);
        }
        let mut request = String::new();
        for id in ids.iter().skip(1).step_by(2) {
            use std::fmt::Write as _;
            let _ = writeln!(request, "RELEASE {id}");
        }
        writer
            .write_all(request.as_bytes())
            .expect("write releases");
        for _ in 0..8 {
            line.clear();
            assert_ne!(reader.read_line(&mut line).expect("release reply"), 0);
            assert!(line.starts_with("OK "), "release replies OK");
        }
    }
    drop(writer);
    drop(reader);
    server.shutdown();
    let trace = recorder
        .lock()
        .expect("recorder")
        .to_trace("mini-serving", bins, batch, seed);
    assert_eq!(trace.arrivals(), 64, "the session routed 64 balls");
    trace
}

/// Renders the full deterministic matrix for one trace.
fn snapshot(trace: &Trace) -> String {
    // The batched golden replays its deterministic rows through `route_many`
    // (groups of 7 — misaligned against both the batch size and the release
    // cadence); every other trace stays route-by-route. Bit-identity of the
    // two surfaces means the snapshot format is the same either way — the
    // point of committing a golden that *runs* the grouped path.
    let group = if trace.name == "mini-batched" { 7 } else { 0 };
    let mut lines = Vec::new();
    for policy in policies() {
        let config = ReplayConfig::concurrent(policy, 1).route_group(group);
        let outcome = replay(trace, &config).expect("concurrent1 replay");
        lines.push(golden_line(
            &outcome,
            &policy.name(),
            &config.weights.name(),
        ));
    }
    // One weighted row: half the bins at double weight.
    let tiers = BinWeights::power_of_two_tiers(&[(trace.bins / 2, 1), (trace.bins / 2, 0)]);
    let config = ReplayConfig::concurrent(Policy::WeightedTwoChoice, 1)
        .weights(tiers)
        .route_group(group);
    let outcome = replay(trace, &config).expect("weighted concurrent1 replay");
    lines.push(golden_line(
        &outcome,
        &Policy::WeightedTwoChoice.name(),
        &config.weights.name(),
    ));
    // One precomputed one-shot row (keys ignored by the adapter's contract).
    if let Ok(outcome) = replay(trace, &ReplayConfig::one_shot()) {
        lines.push(golden_line(&outcome, "heavy", "uniform"));
    }
    let mut out = lines.join("\n");
    out.push('\n');
    out
}

fn main() -> ExitCode {
    let bless = std::env::args().any(|a| a == "--bless");
    let dir = golden_dir();
    let mut drift = false;
    for trace in traces() {
        let trace_path = dir.join(format!("{}.trace", trace.name));
        let snap_path = dir.join(format!("{}.snap", trace.name));
        let fresh_trace = trace.encode();
        let fresh_snap = snapshot(&trace);
        if bless {
            fs::create_dir_all(&dir).expect("create tests/golden");
            fs::write(&trace_path, &fresh_trace).expect("write trace");
            fs::write(&snap_path, &fresh_snap).expect("write snapshot");
            println!(
                "blessed {} ({} lines)",
                snap_path.display(),
                fresh_snap.lines().count()
            );
            continue;
        }
        let committed_trace = fs::read_to_string(&trace_path)
            .unwrap_or_else(|e| panic!("missing {} — run --bless ({e})", trace_path.display()));
        if committed_trace != fresh_trace {
            eprintln!(
                "trace drift in {}: the committed bytes differ from {}'s canonical constructor",
                trace_path.display(),
                trace.name
            );
            drift = true;
        }
        let committed_snap = fs::read_to_string(&snap_path)
            .unwrap_or_else(|e| panic!("missing {} — run --bless ({e})", snap_path.display()));
        match diff_golden(&trace.name, &committed_snap, &fresh_snap) {
            None => println!(
                "ok {} ({} lines)",
                snap_path.display(),
                fresh_snap.lines().count()
            ),
            Some(report) => {
                eprintln!("{report}");
                drift = true;
            }
        }
    }
    if drift {
        eprintln!("golden files drifted — rerun with --bless if the change is intended");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
