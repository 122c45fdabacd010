//! Writes the committed benchmark snapshots: `BENCH_e17.json` (the E17
//! observability/serving table plus the structural columns of E15 and E16),
//! `BENCH_route.json` (the route-hot-path perf trajectory: `route` vs
//! grouped `route_many` ns/op at 1/2/4 callers, plus the
//! `route_instrumented_vs_bare` overhead guard) and `BENCH_serve.json`
//! (the serving-path trajectory: zero-alloc codec ns/line, reactor req/s by
//! connection count, `release` vs grouped `release_many` ns/op, and the
//! session ≡ reactor ≡ reactor-fallback guard), so the serving-layer numbers
//! the repo ships are regenerable with one command.
//!
//! Usage:
//!   cargo run --release -p pba-bench --bin bench_snapshot            # print to stdout
//!   cargo run --release -p pba-bench --bin bench_snapshot -- --write # rewrite BENCH_*.json
//!   cargo run --release -p pba-bench --bin bench_snapshot -- --check # fail on structural drift
//!   cargo run --release -p pba-bench --bin bench_snapshot -- --full  # paper-scale sweeps
//!
//! Timing columns (wall ms, req/s, ns/op, speedups, latency quantiles) are
//! machine-dependent — on a 1-core container the caller threads serialise,
//! so treat them as smoke numbers and lean on the structural columns
//! (conservation, batch cadence, drops, bit-identity), which must reproduce
//! exactly. The snapshots say so in their own `caveat` fields. `--check`
//! encodes that split: it recomputes only the **structural fingerprints** of
//! the route and serve tables (workload shape + invariant columns, no
//! timings) and fails if either drifted from the committed
//! `BENCH_route.json` / `BENCH_serve.json`.

use std::process::ExitCode;

use pba_bench::{route_bench, serve_bench};
use pba_stats::Table;

/// Escapes a string for a JSON string literal (the workspace has no JSON
/// dependency by design; the subset we emit is plain ASCII tables).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders one table as a JSON object: title, columns, rows (cells as the
/// strings the text renderer prints, so diffs of the committed snapshot read
/// like the tables themselves).
fn table_json(table: &Table, indent: &str) -> String {
    let columns: Vec<String> = table
        .column_names()
        .iter()
        .map(|c| format!("\"{}\"", json_escape(c)))
        .collect();
    let mut rows = Vec::new();
    for row in table.rows() {
        let cells: Vec<String> = row
            .iter()
            .map(|cell| format!("\"{}\"", json_escape(&cell.0)))
            .collect();
        rows.push(format!("{indent}    [{}]", cells.join(", ")));
    }
    format!(
        "{{\n{indent}  \"title\": \"{}\",\n{indent}  \"columns\": [{}],\n{indent}  \"rows\": [\n{}\n{indent}  ]\n{indent}}}",
        json_escape(table.title()),
        columns.join(", "),
        rows.join(",\n")
    )
}

const CAVEAT: &str = "Timing columns are machine-dependent; on a 1-core container caller \
     threads serialise, so wall/req-per-s/ns-per-op/speedup/latency numbers are smoke values. \
     The structural columns (conserved, batches, drops, bit-identity) must reproduce exactly.";

/// Renders a whole snapshot file: header fields, optional structural
/// fingerprint, and the experiment tables.
fn snapshot_json(full: bool, structural: Option<&str>, experiments: &[(&str, &Table)]) -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"generated_by\": \"cargo run --release -p pba-bench --bin bench_snapshot -- --write\",\n",
    );
    out.push_str(&format!(
        "  \"mode\": \"{}\",\n",
        if full { "full" } else { "quick" }
    ));
    out.push_str(&format!("  \"caveat\": \"{}\",\n", json_escape(CAVEAT)));
    if let Some(fingerprint) = structural {
        out.push_str(&format!(
            "  \"structural\": \"{}\",\n",
            json_escape(fingerprint)
        ));
    }
    out.push_str("  \"experiments\": {\n");
    for (i, (id, table)) in experiments.iter().enumerate() {
        out.push_str(&format!("    \"{id}\": {}", table_json(table, "    ")));
        out.push_str(if i + 1 < experiments.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    out.push_str("  }\n}\n");
    out
}

fn workspace_path(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(name)
}

/// Extracts the `"structural"` field of a committed snapshot (the
/// fingerprint contains no quotes, so the literal ends at the next `"`).
fn committed_fingerprint(json: &str) -> Option<&str> {
    let start = json.find("\"structural\": \"")? + "\"structural\": \"".len();
    let end = json[start..].find('"')? + start;
    Some(&json[start..end])
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let write = args.iter().any(|a| a == "--write");
    let check = args.iter().any(|a| a == "--check");
    let full = args.iter().any(|a| a == "--full");
    let quick = !full;

    let route = route_bench::route_hot_path(quick);
    let guard = route_bench::route_metrics_guard(quick);
    let fingerprint = route_bench::structural_fingerprint(&[&route, &guard]);

    let codec = serve_bench::codec_cost(quick);
    let serve = serve_bench::serve_throughput(quick);
    let release = serve_bench::release_hot_path(quick);
    let serve_guard = serve_bench::server_guard(quick);
    let serve_fingerprint =
        serve_bench::structural_fingerprint(&[&codec, &serve, &release, &serve_guard]);

    if check {
        // Structural drift only: workload shape and invariant columns must
        // match the committed snapshots; timings are free to move.
        let mut ok = true;
        for (name, fresh) in [
            ("BENCH_route.json", fingerprint.as_str()),
            ("BENCH_serve.json", serve_fingerprint.as_str()),
        ] {
            let path = workspace_path(name);
            let committed = match std::fs::read_to_string(&path) {
                Ok(committed) => committed,
                Err(e) => {
                    eprintln!("missing {} — run --write ({e})", path.display());
                    ok = false;
                    continue;
                }
            };
            let Some(committed_fp) = committed_fingerprint(&committed) else {
                eprintln!("{} has no structural field — run --write", path.display());
                ok = false;
                continue;
            };
            if committed_fp == fresh {
                println!("ok {} (structural fingerprint matches)", path.display());
            } else {
                eprintln!(
                    "structural drift in {}:\n  committed: {committed_fp}\n  fresh:     {fresh}\n\
                     rerun with --write if the change is intended",
                    path.display()
                );
                ok = false;
            }
        }
        return if ok {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    let e15 = pba_workloads::experiments::e15_execution_layer(quick);
    let e16 = pba_workloads::experiments::e16_concurrent_routing(quick);
    let e17 = pba_workloads::experiments::e17_socket_serving(quick);

    let serving = snapshot_json(full, None, &[("E15", &e15), ("E16", &e16), ("E17", &e17)]);
    let route_json = snapshot_json(
        full,
        Some(&fingerprint),
        &[("ROUTE", &route), ("GUARD", &guard)],
    );
    let serve_json = snapshot_json(
        full,
        Some(&serve_fingerprint),
        &[
            ("CODEC", &codec),
            ("SERVE", &serve),
            ("RELEASE", &release),
            ("GUARD", &serve_guard),
        ],
    );

    if write {
        for (name, body) in [
            ("BENCH_e17.json", &serving),
            ("BENCH_route.json", &route_json),
            ("BENCH_serve.json", &serve_json),
        ] {
            let path = workspace_path(name);
            std::fs::write(&path, body)
                .unwrap_or_else(|e| panic!("write {} at the workspace root: {e}", name));
            eprintln!("wrote {}", path.display());
        }
    } else {
        print!("{serving}");
        print!("{route_json}");
        print!("{serve_json}");
    }
    ExitCode::SUCCESS
}
