//! Committed fingerprints of the quick experiment tables (`tests/golden/tables.snap`).
//!
//! `oneshot.snap` pins what the allocators return; this file pins the tables
//! built from it, so a changed prediction formula or a mis-aggregated column
//! fails here too. One line per quick table: its row and column counts, how
//! many columns are pinned, and an FNV-1a hash over the title, the column
//! names and every pinned cell. Columns a table marks `varying` (wall-clock
//! readings, schedule-dependent cells) are counted but never hashed. The test
//! also renders the EXPERIMENTS.md body from the same tables and checks that
//! it has every section.
//!
//! Regenerate (only when a table is meant to change, and say why):
//!
//! ```text
//! cargo test --test tables_golden -- --ignored bless
//! ```

use parallel_balanced_allocations::replay::{diff_golden, fnv1a64};
use parallel_balanced_allocations::stats::Table;
use parallel_balanced_allocations::workloads::experiments::all_experiments;
use parallel_balanced_allocations::workloads::report::render_experiments_markdown;

fn line(table: &Table) -> String {
    let id = table.title().split(':').next().unwrap_or("");
    let pinned: Vec<usize> = (0..table.n_cols())
        .filter(|&c| table.is_pinned(c))
        .collect();
    let mut bytes = Vec::new();
    for field in std::iter::once(table.title()).chain(table.column_names()) {
        bytes.extend_from_slice(field.as_bytes());
        bytes.push(0);
    }
    for row in table.rows() {
        for &c in &pinned {
            bytes.extend_from_slice(row[c].0.as_bytes());
            bytes.push(0);
        }
    }
    format!(
        "{id} rows={} cols={} pinned={}/{} cells=fnv:{:016x}",
        table.n_rows(),
        table.n_cols(),
        pinned.len(),
        table.n_cols(),
        fnv1a64(&bytes)
    )
}

fn render(tables: &[Table]) -> String {
    tables.iter().map(|t| line(t) + "\n").collect()
}

fn snap_path() -> String {
    format!("{}/tests/golden/tables.snap", env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn quick_tables_match_the_committed_fingerprints() {
    let tables = all_experiments(true);
    let md = render_experiments_markdown(&tables);
    for prefix in [
        "E1", "E2", "E3", "E4a", "E4b", "E5", "E6", "E7", "E8a", "E8b", "E9a", "E9b", "E10", "E11",
        "E12", "E13", "E14", "E15", "E16", "E17", "E18", "E19",
    ] {
        assert!(
            md.contains(&format!("### {prefix}:")),
            "report is missing section {prefix}"
        );
    }
    assert!(md.contains("Claim reproduced"));

    let committed = std::fs::read_to_string(snap_path()).expect("tests/golden/tables.snap");
    if let Some(report) = diff_golden("tables.snap", &committed, &render(&tables)) {
        panic!("{report}");
    }
}

#[test]
#[ignore = "rewrites tests/golden/tables.snap"]
fn bless() {
    std::fs::write(snap_path(), render(&all_experiments(true)))
        .expect("write tests/golden/tables.snap");
}
