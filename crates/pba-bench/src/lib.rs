//! # pba-bench
//!
//! The repo's binaries:
//!
//! * `benchmark` — the one timed benchmark (`BENCHMARK.json`): four
//!   end-to-end workloads plus per-layer metrics, and `--compare` for
//!   before/after rows.
//! * `gen_tables` prints every experiment's tables (or, with `--id E17`, one
//!   experiment's) and, with `--markdown`, the whole EXPERIMENTS.md body.
//!   Pass `--full` for the paper-scale parameter sweeps (the default is the
//!   quick configuration used by the test-suite).
//! * `replay_golden` verifies the committed golden replay snapshots under
//!   `tests/golden/` (and regenerates them with `--bless`).
//!
//! The library holds only [`ExpOptions`], the `gen_tables` command line.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use pba_stats::Table;
use pba_workloads::experiments::{Experiment, EXPERIMENTS};

/// Parses the CLI flags of `gen_tables`.
///
/// Recognised flags: `--full` (use the full parameter sweeps), `--markdown`
/// (emit GitHub Markdown instead of aligned text), `--csv` (emit CSV),
/// `--id E17` (run only that experiment).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExpOptions {
    /// Run the full (paper-scale) sweeps instead of the quick ones.
    pub full: bool,
    /// Emit Markdown tables.
    pub markdown: bool,
    /// Emit CSV tables.
    pub csv: bool,
    /// Run only the experiment with this id (`None`: all of them).
    pub id: Option<String>,
}

impl ExpOptions {
    /// Parses options from an argument iterator (skipping the program name is the
    /// caller's job; unknown flags are ignored, an unknown `--id` is not — see
    /// [`ExpOptions::experiments`]).
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Self {
        let mut opts = Self::default();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--full" => opts.full = true,
                "--quick" => opts.full = false,
                "--markdown" | "--md" => opts.markdown = true,
                "--csv" => opts.csv = true,
                "--id" => opts.id = Some(args.next().unwrap_or_default()),
                _ => {}
            }
        }
        opts
    }

    /// Parses options from `std::env::args()`.
    pub fn from_env() -> Self {
        Self::parse(std::env::args().skip(1))
    }

    /// The experiments to run: every entry of [`EXPERIMENTS`], or the one
    /// `--id` names. An unknown id is an error that lists the valid ones.
    pub fn experiments(&self) -> Result<&'static [(&'static str, Experiment)], String> {
        let Some(id) = &self.id else {
            return Ok(EXPERIMENTS);
        };
        match EXPERIMENTS.iter().position(|(known, _)| known == id) {
            Some(i) => Ok(&EXPERIMENTS[i..=i]),
            None => {
                let ids: Vec<&str> = EXPERIMENTS.iter().map(|(known, _)| *known).collect();
                Err(format!(
                    "unknown experiment id '{id}'; valid ids: {}",
                    ids.join(" ")
                ))
            }
        }
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
        assert_eq!(opts.id, None);
        let opts = ExpOptions::parse(["--id", "E17", "--csv"].map(String::from));
        assert_eq!(opts.id.as_deref(), Some("E17"));
        assert!(opts.csv);
        let selected = opts.experiments().unwrap();
        assert_eq!(selected.len(), 1);
        assert_eq!(selected[0].0, "E17");
        assert_eq!(ExpOptions::default().experiments().unwrap().len(), 19);
    }

    #[test]
    fn unknown_id_is_rejected_with_the_valid_ids() {
        for args in [&["--id", "E20"][..], &["--id", "e17"], &["--id"]] {
            let opts = ExpOptions::parse(args.iter().map(|a| a.to_string()));
            let err = opts.experiments().unwrap_err();
            assert!(err.contains("unknown experiment id"), "{err}");
            assert!(err.contains("E1 E2 E3"), "{err}");
            assert!(err.ends_with("E18 E19"), "{err}");
        }
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
