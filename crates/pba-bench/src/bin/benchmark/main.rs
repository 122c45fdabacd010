//! The repository benchmark: four workloads, seven end-to-end metrics
//! measured with tracing off, and a separate traced pass that budgets the
//! cost layer by layer. `BENCHMARK.json` at the repository root declares the
//! workloads and every metric; `README.md` beside this file is the glossary.
//!
//! ```text
//! benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//!           [--smoke] [--out FILE]
//! benchmark --compare A.jsonl B.jsonl [--out FILE]
//! ```
//!
//! Without `--workload` every workload runs; without `--trace` both passes
//! run; each pass of such a run gets a process of its own. Each pass prints
//! its metrics by name with units and ends with one JSON line `{"correct",
//! "attempted", "failed", "metrics"}`; `--out` appends that record (with
//! workload, seed and pass) to a file for `--compare`. The process exits
//! non-zero if any output check failed.

mod affinity;
mod alloc_count;
mod compare;
mod json;
mod layers;
mod metrics;
mod oneshot;
mod pass;
mod procfs;
mod serve;
mod stats;
mod stream;
mod trace;

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use affinity::Confinement;
use metrics::{Declared, MetricDecl};
use pass::{Outcome, Scale};
use serve::Mix;
use trace::Tracer;

#[global_allocator]
static ALLOCATOR: alloc_count::CountingAlloc = alloc_count::CountingAlloc;

/// The traced pass runs the workload's own layers at ¼ of the counts…
const TRACED_REDUCTION: u64 = 4;
/// …and the other workloads' layers at 1/64, so every per-layer metric is a
/// measurement in every traced run, cheaply where it is only a reference.
const OFF_PATH_REDUCTION: u64 = 64;
/// `--smoke` runs everything at 1/64 of the counts.
const SMOKE_REDUCTION: u64 = 64;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Workload {
    ServePipelined,
    ServeInterleaved,
    StreamDrain,
    OneshotHeavy,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::ServePipelined,
        Workload::ServeInterleaved,
        Workload::StreamDrain,
        Workload::OneshotHeavy,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::ServePipelined => "serve-pipelined",
            Workload::ServeInterleaved => "serve-interleaved",
            Workload::StreamDrain => "stream-drain",
            Workload::OneshotHeavy => "oneshot-heavy",
        }
    }

    fn mix(self) -> Option<Mix> {
        match self {
            Workload::ServePipelined => Some(Mix::Pipelined),
            Workload::ServeInterleaved => Some(Mix::Interleaved),
            _ => None,
        }
    }

    /// The end-to-end pass, tracing off.
    fn run(self, seed: u64, scale: Scale) -> Result<Outcome, String> {
        match self {
            Workload::StreamDrain => stream::run(seed, scale),
            Workload::OneshotHeavy => oneshot::run(seed, scale),
            serve => serve::run(serve.mix().expect("a serve workload"), seed, scale),
        }
    }

    /// The traced pass: every layer measured, this workload's own at
    /// `TRACED_REDUCTION`, the rest at `OFF_PATH_REDUCTION`.
    fn trace(self, seed: u64, scale: Scale, cpus: Option<&Confinement>) -> Result<Outcome, String> {
        let scale_for = |on_path: bool| {
            scale.reduced(if on_path {
                TRACED_REDUCTION
            } else {
                OFF_PATH_REDUCTION
            })
        };
        let mut tracer = Tracer::on(1 << 20);
        let serve = serve::trace(
            self.mix().unwrap_or(Mix::Pipelined),
            seed,
            scale_for(self.mix().is_some()),
            cpus,
            &mut tracer,
        )?;
        let stream = stream::trace(
            seed,
            scale_for(self == Workload::StreamDrain),
            cpus,
            &mut tracer,
        );
        let heavy = oneshot::trace(
            seed,
            scale_for(self == Workload::OneshotHeavy),
            cpus,
            &mut tracer,
        );
        let layers = layers::probe(seed, scale_for(true), &mut tracer);

        let mut outcome = Outcome::default();
        let own = match self {
            Workload::StreamDrain => &stream,
            Workload::OneshotHeavy => &heavy,
            _ => &serve,
        };
        outcome.attempted = own.attempted;
        outcome.metrics.merge(own.harness_metrics());
        for family in [serve, stream, heavy] {
            outcome.metrics.merge(family.metrics);
            for failure in family.failures {
                outcome.check(false, || failure);
            }
        }
        outcome.metrics.merge(layers);

        let path = trace_path(self);
        tracer
            .write_jsonl(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        outcome.notes.push(format!(
            "{} spans written to {}",
            tracer.spans().len(),
            path.display()
        ));
        for (name, totals) in tracer.totals_from(0) {
            outcome.notes.push(format!(
                "span {name}: {} × — total {:.3} ms, self {:.3} ms",
                totals.spans,
                totals.total_ns as f64 / 1e6,
                totals.self_ns as f64 / 1e6
            ));
        }
        Ok(outcome)
    }
}

/// `<target dir>/benchmark/trace-<workload>.jsonl`, under the directory the
/// build itself writes to.
fn trace_path(workload: Workload) -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    Path::new(&target)
        .join("benchmark")
        .join(format!("trace-{}.jsonl", workload.name()))
}

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: Option<u64>,
    /// `Some(false)`: the untraced pass only; `Some(true)`: the traced pass
    /// only; `None`: both.
    trace: Option<bool>,
    smoke: bool,
    out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workloads: Workload::ALL.to_vec(),
        seed: 1,
        seconds: None,
        trace: None,
        smoke: false,
        out: None,
        compare: None,
    };
    while let Some(flag) = args.next() {
        let mut value = |what: &str| args.next().ok_or_else(|| format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                let workload = Workload::ALL
                    .into_iter()
                    .find(|w| w.name() == name)
                    .ok_or_else(|| format!("unknown workload `{name}`"))?;
                parsed.workloads = vec![workload];
            }
            "--seed" => {
                parsed.seed = value("a number")?
                    .parse()
                    .map_err(|_| "--seed needs a whole number".to_string())?;
            }
            "--seconds" => {
                let seconds: u64 = value("a number")?
                    .parse()
                    .map_err(|_| "--seconds needs a whole number".to_string())?;
                if !(1..=600).contains(&seconds) {
                    return Err("--seconds must be between 1 and 600".into());
                }
                parsed.seconds = Some(seconds);
            }
            "--trace" => {
                parsed.trace = Some(match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".into()),
                });
            }
            "--smoke" => parsed.smoke = true,
            "--out" => parsed.out = Some(value("a file")?.into()),
            "--compare" => {
                parsed.compare = Some((value("two files")?.into(), value("two files")?.into()));
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(parsed)
}

/// Prints one pass for people, then its record as the last line; returns the
/// record extended for `--out`.
fn report(
    workload: Workload,
    traced: bool,
    seed: u64,
    scale: Scale,
    declared: &[MetricDecl],
    mut outcome: Outcome,
) -> (bool, String) {
    for problem in outcome.metrics.mismatches(declared) {
        outcome.check(false, || problem);
    }
    let correct = outcome.failures.is_empty() && outcome.failed == 0;
    println!(
        "== {} · {} · seed {seed} · {} s ÷ {} ==",
        workload.name(),
        if traced { "traced" } else { "untraced" },
        scale.seconds,
        scale.divisor
    );
    print!("{}", outcome.metrics.to_table(declared));
    for note in &outcome.notes {
        println!("  # {note}");
    }
    for failure in &outcome.failures {
        println!("  FAILED CHECK: {failure}");
    }
    let result = format!(
        "\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}",
        outcome.attempted.max(1),
        outcome.failed,
        outcome.metrics.to_json(declared)
    );
    println!("{{{result}}}");
    let record = format!(
        "{{\"workload\": \"{}\", \"seed\": {seed}, \"seconds\": {}, \"divisor\": {}, \"trace\": {}, {result}{}}}",
        workload.name(),
        scale.seconds,
        scale.divisor,
        u8::from(traced),
        outcome
            .slices_json
            .map_or(String::new(), |slices| format!(", \"slices\": {slices}"))
    );
    (correct, record)
}

fn run(args: Args) -> Result<bool, String> {
    let declared = Declared::load()?;
    if let Some((a, b)) = &args.compare {
        return compare::compare(&declared, a, b, args.out.as_deref()).map(|regressed| !regressed);
    }
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    if declared.workloads != names {
        return Err(format!(
            "BENCHMARK.json declares workloads {:?}, this binary runs {names:?}",
            declared.workloads
        ));
    }
    let passes: &[bool] = match args.trace {
        Some(false) => &[false],
        Some(true) => &[true],
        None => &[false, true],
    };
    if let ([workload], [traced]) = (&args.workloads[..], passes) {
        return run_pass(&args, &declared, *workload, *traced);
    }
    // `peak_rss_mib` is the process's high-water mark, and a pass leaves its
    // heap and its threads behind: every pass gets a process of its own, so
    // that a workload reports the same figures here as when it runs alone.
    let this = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut all_correct = true;
    for &workload in &args.workloads {
        for &traced in passes {
            let status = std::process::Command::new(&this)
                .args(pass_args(&args, workload, traced))
                .status()
                .map_err(|e| format!("{}: {e}", this.display()))?;
            match status.code() {
                Some(0) => {}
                Some(1) => all_correct = false,
                _ => return Err(format!("{} pass ended with {status}", workload.name())),
            }
        }
    }
    Ok(all_correct)
}

/// The command line of one pass of this invocation.
fn pass_args(args: &Args, workload: Workload, traced: bool) -> Vec<String> {
    let mut line = vec![
        "--workload".to_owned(),
        workload.name().to_owned(),
        "--seed".to_owned(),
        args.seed.to_string(),
        "--trace".to_owned(),
        u8::from(traced).to_string(),
    ];
    if let Some(seconds) = args.seconds {
        line.extend(["--seconds".to_owned(), seconds.to_string()]);
    }
    if args.smoke {
        line.push("--smoke".to_owned());
    }
    if let Some(out) = &args.out {
        line.extend(["--out".to_owned(), out.display().to_string()]);
    }
    line
}

/// One pass of one workload, in this process.
fn run_pass(
    args: &Args,
    declared: &Declared,
    workload: Workload,
    traced: bool,
) -> Result<bool, String> {
    // Before any thread is spawned: they all inherit the mask.
    let cpus = affinity::confine_to_one_cpu();
    match &cpus {
        Some(confined) => println!(
            "# confined to CPU {} of {} (see affinity.rs)",
            confined.cpu(),
            confined.cpus_before()
        ),
        None => println!("# NOT confined to one CPU: timings include thread placement"),
    }
    let scale = Scale {
        seconds: args.seconds.unwrap_or(declared.run_seconds),
        divisor: if args.smoke { SMOKE_REDUCTION } else { 1 },
    };
    let (outcome, list) = if traced {
        (
            workload.trace(args.seed, scale, cpus.as_ref())?,
            &declared.per_layer,
        )
    } else {
        (workload.run(args.seed, scale)?, &declared.end_to_end)
    };
    let (correct, record) = report(workload, traced, args.seed, scale, list, outcome);
    if let Some(out) = &args.out {
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(out)
            .and_then(|mut file| writeln!(file, "{record}"))
            .map_err(|e| format!("{}: {e}", out.display()))?;
    }
    Ok(correct)
}

fn main() -> ExitCode {
    let outcome = parse_args(std::env::args().skip(1)).and_then(run);
    // The last line of standard output is the result record; make sure it
    // is out before the exit code says how it went.
    let _ = std::io::stdout().flush();
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(str::to_owned))
    }

    #[test]
    fn the_driver_command_line_parses() {
        let parsed =
            args("--workload stream-drain --seed 42 --seconds 16 --trace 1").expect("valid");
        assert_eq!(parsed.workloads, vec![Workload::StreamDrain]);
        assert_eq!(
            (parsed.seed, parsed.seconds, parsed.trace),
            (42, Some(16), Some(true))
        );
        let default = args("").expect("valid");
        assert_eq!(default.workloads.len(), 4);
        assert!(default.trace.is_none() && !default.smoke && default.seconds.is_none());
        assert!(args("--smoke --out x.jsonl").expect("valid").smoke);
        let compare = args("--compare a b").expect("valid").compare.expect("set");
        assert_eq!(compare, (PathBuf::from("a"), PathBuf::from("b")));
    }

    #[test]
    fn a_pass_of_a_longer_run_is_the_same_command_line_run_alone() {
        let whole = args("--seed 9 --seconds 4 --smoke --out x.jsonl").expect("valid");
        let line = pass_args(&whole, Workload::StreamDrain, true);
        let alone = parse_args(line.into_iter()).expect("a pass's line parses");
        assert_eq!(alone.workloads, vec![Workload::StreamDrain]);
        assert_eq!(alone.trace, Some(true));
        assert_eq!(
            (alone.seed, alone.seconds, alone.smoke, alone.out),
            (9, Some(4), true, Some(PathBuf::from("x.jsonl")))
        );
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for bad in [
            "--workload nope",
            "--seed x",
            "--seconds 0",
            "--seconds 100000",
            "--trace 2",
            "--compare only-one",
            "--frobnicate",
            "--seed",
        ] {
            assert!(args(bad).is_err(), "`{bad}` must be refused");
        }
    }

    #[test]
    fn workload_names_match_the_declaration() {
        let declared = Declared::load().expect("BENCHMARK.json parses");
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(declared.workloads, names);
    }
}
