//! Smoke tests for the experiment harness (quick mode): every experiment
//! E1–E19 produces non-empty tables with the expected shape, and the Markdown
//! report embeds all of them. The quick suite runs once for this file; the
//! pinned cells of every table are checked by `tests/tables_golden.rs`.

use std::sync::OnceLock;

use parallel_balanced_allocations::stats::Table;
use parallel_balanced_allocations::workloads::experiments;
use parallel_balanced_allocations::workloads::report::render_experiments_markdown;

fn quick_tables() -> &'static [Table] {
    static TABLES: OnceLock<Vec<Table>> = OnceLock::new();
    TABLES.get_or_init(|| experiments::all_experiments(true))
}

#[test]
fn all_quick_experiments_produce_tables() {
    let tables = quick_tables();
    // E1, E2, E3, E4(2), E5, E6, E7, E8(2), E9(2), E10, E11, E12, E13, E14,
    // E15, E16, E17, E18, E19 = 22.
    assert_eq!(tables.len(), 22);
    for table in tables {
        assert!(table.n_rows() > 0, "table '{}' is empty", table.title());
        assert!(table.n_cols() >= 3, "table '{}' too narrow", table.title());
    }
}

#[test]
fn markdown_report_covers_every_experiment() {
    let md = render_experiments_markdown(quick_tables());
    for prefix in [
        "E1", "E2", "E3", "E4a", "E4b", "E5", "E6", "E7", "E8a", "E8b", "E9a", "E9b", "E10", "E11",
        "E12", "E13", "E14", "E15", "E16", "E17", "E18", "E19",
    ] {
        assert!(
            md.contains(&format!("### {prefix}")),
            "report is missing section {prefix}"
        );
    }
    assert!(md.contains("Claim reproduced"));
}

#[test]
fn e7_baseline_table_contains_every_algorithm() {
    let table = experiments::e7_baselines(true);
    let text = table.render_text();
    for name in [
        "single-choice",
        "greedy[2]",
        "always-go-left[2]",
        "batched-2-choice",
        "naive-threshold",
        "trivial-deterministic",
        "A_heavy",
        "asymmetric-superbin",
    ] {
        assert!(text.contains(name), "E7 table is missing {name}");
    }
}

#[test]
fn e5_asymmetric_rounds_stay_constant_across_ratios() {
    let table = experiments::e5_asymmetric(true);
    let max_rounds: Vec<f64> = table
        .rows()
        .iter()
        .map(|r| r[3].0.parse::<f64>().unwrap())
        .collect();
    assert!(!max_rounds.is_empty());
    assert!(
        max_rounds.iter().cloned().fold(0.0, f64::max) <= 10.0,
        "asymmetric round counts {max_rounds:?} are not constant-like"
    );
}
