//! # pba-bench
//!
//! Benchmark harness and experiment binaries.
//!
//! * `benches/bench_stream.rs` — the one Criterion bench (CI runs it): arms
//!   of the streaming engine on fixed instances, among them the pairs that
//!   must read the same (`route_many_32/*`, `release_many_32/*`). The timed
//!   workloads proper are the `benchmark` binary's (`BENCHMARK.json`).
//! * `src/bin/` — the table-regenerating binaries: `exp_e1` … `exp_e18` print one
//!   experiment's tables, and `gen_tables` prints (or writes) the whole
//!   EXPERIMENTS.md body. Pass `--full` for the paper-scale parameter sweeps
//!   (the default is the quick configuration used by the test-suite).
//!   `replay_golden` verifies the committed golden replay snapshots under
//!   `tests/golden/` (and regenerates them with `--bless`).
//!
//! The library part hosts small shared helpers for the binaries plus the
//! [`route_bench`] and [`serve_bench`] table builders behind the committed
//! `BENCH_route.json` / `BENCH_serve.json` perf trajectories.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod route_bench;
pub mod serve_bench;

use pba_stats::Table;

/// Parses the common CLI flags of the experiment binaries.
///
/// Recognised flags: `--full` (use the full parameter sweeps), `--markdown`
/// (emit GitHub Markdown instead of aligned text), `--csv` (emit CSV).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExpOptions {
    /// Run the full (paper-scale) sweeps instead of the quick ones.
    pub full: bool,
    /// Emit Markdown tables.
    pub markdown: bool,
    /// Emit CSV tables.
    pub csv: bool,
}

impl ExpOptions {
    /// Parses options from an argument iterator (skipping the program name is the
    /// caller's job; unknown arguments are ignored so the binaries stay forgiving).
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Self {
        let mut opts = Self::default();
        for arg in args {
            match arg.as_str() {
                "--full" => opts.full = true,
                "--quick" => opts.full = false,
                "--markdown" | "--md" => opts.markdown = true,
                "--csv" => opts.csv = true,
                _ => {}
            }
        }
        opts
    }

    /// Parses options from `std::env::args()`.
    pub fn from_env() -> Self {
        Self::parse(std::env::args().skip(1))
    }

    /// Renders a table according to the selected output format.
    pub fn render(&self, table: &Table) -> String {
        if self.csv {
            format!("# {}\n{}", table.title(), table.render_csv())
        } else if self.markdown {
            table.render_markdown()
        } else {
            table.render_text()
        }
    }

    /// Prints a list of tables to stdout in the selected format.
    pub fn print_all(&self, tables: &[Table]) {
        for table in tables {
            println!("{}", self.render(table));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pba_stats::Cell;

    fn sample() -> Table {
        let mut t = Table::new("demo", &["x"]);
        t.push_row([Cell::from(1u64)]);
        t
    }

    #[test]
    fn parse_flags() {
        let opts = ExpOptions::parse(["--full".to_string(), "--markdown".to_string()]);
        assert!(opts.full);
        assert!(opts.markdown);
        assert!(!opts.csv);
        let opts = ExpOptions::parse(["--csv".to_string(), "--bogus".to_string()]);
        assert!(opts.csv);
        assert!(!opts.full);
        let opts = ExpOptions::parse(["--full".to_string(), "--quick".to_string()]);
        assert!(!opts.full, "--quick overrides --full when it comes later");
    }

    #[test]
    fn render_formats() {
        let t = sample();
        let text = ExpOptions::default().render(&t);
        assert!(text.contains("== demo =="));
        let md = ExpOptions {
            markdown: true,
            ..Default::default()
        }
        .render(&t);
        assert!(md.contains("### demo"));
        let csv = ExpOptions {
            csv: true,
            ..Default::default()
        }
        .render(&t);
        assert!(csv.contains("# demo"));
        assert!(csv.contains("x\n1"));
    }
}
