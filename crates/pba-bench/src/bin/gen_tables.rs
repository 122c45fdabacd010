//! Regenerates the experiment tables (E1–E19) and prints the EXPERIMENTS.md body.
//!
//! Usage:
//!   cargo run -p pba-bench --release --bin gen_tables            # quick sweeps, text tables
//!   cargo run -p pba-bench --release --bin gen_tables -- --id E17  # one experiment
//!   cargo run -p pba-bench --release --bin gen_tables -- --full  # paper-scale sweeps
//!   cargo run -p pba-bench --release --bin gen_tables -- --full --markdown > EXPERIMENTS.md
//!
//! An unknown `--id` prints the valid ids and exits non-zero.
use std::process::ExitCode;

fn main() -> ExitCode {
    let opts = pba_bench::ExpOptions::from_env();
    let selected = match opts.experiments() {
        Ok(selected) => selected,
        Err(e) => {
            eprintln!("gen_tables: {e}");
            return ExitCode::FAILURE;
        }
    };
    let tables: Vec<_> = selected
        .iter()
        .flat_map(|(_, run)| run(!opts.full))
        .collect();
    if opts.markdown {
        print!(
            "{}",
            pba_workloads::report::render_experiments_markdown(&tables)
        );
    } else {
        opts.print_all(&tables);
    }
    ExitCode::SUCCESS
}
