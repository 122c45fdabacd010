//! `--compare a.jsonl b.jsonl`: the before/after table. Each file is a set
//! of runs as `--out` appends them; for every workload × end-to-end metric
//! this prints both medians with their quartile spread, the change, the
//! bound from `BENCHMARK.json`, and a verdict by the rules the repository's
//! evidence discipline uses.

use std::fmt::Write as _;
use std::path::Path;

use crate::json::{self, Value};
use crate::metrics::{Declared, MetricDecl};
use crate::stats;

/// One side's runs of one metric on one workload.
#[derive(Debug, Clone, PartialEq)]
struct Side {
    values: Vec<f64>,
    q1: f64,
    median: f64,
    q3: f64,
}

impl Side {
    fn of(values: Vec<f64>) -> Self {
        let (q1, median, q3) = stats::quartiles(&values);
        Self {
            values,
            q1,
            median,
            q3,
        }
    }

    /// Distance between the quartiles as a share of the median — the
    /// run-to-run spread the driver judges by.
    fn spread(&self) -> f64 {
        ((self.q3 - self.q1) / self.median).abs()
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Verdict {
    Improved,
    WithinBound,
    Regressed,
    /// The spread of either side is wider than the bound: the runs cannot
    /// tell "unchanged" from "regressed".
    Unresolved,
    /// One side has no runs of this workload.
    Missing,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::WithinBound => "within-bound",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
            Verdict::Missing => "missing",
        }
    }
}

/// How much worse `b` is than `a`, as a share of `a`'s median (negative:
/// better).
fn worse_by(decl: &MetricDecl, a: &Side, b: &Side) -> f64 {
    let change = (b.median - a.median) / a.median.abs();
    if decl.higher_is_better {
        -change
    } else {
        change
    }
}

fn verdict(decl: &MetricDecl, a: &Side, b: &Side) -> Verdict {
    if a.values.is_empty() || b.values.is_empty() {
        return Verdict::Missing;
    }
    let bound = decl.bound.unwrap_or(0.0);
    let better = |x: f64, y: f64| if decl.higher_is_better { x > y } else { x < y };
    let every_run_better = b
        .values
        .iter()
        .all(|&after| a.values.iter().all(|&before| better(after, before)));
    let worse = worse_by(decl, a, b);
    if a.spread().max(b.spread()) > bound {
        // Too noisy to call — unless every run of `b` beats every run of `a`.
        return if every_run_better {
            Verdict::Improved
        } else {
            Verdict::Unresolved
        };
    }
    if worse > bound {
        Verdict::Regressed
    } else if worse < 0.0
        && (b.median - a.median).abs() > (a.q3 - a.q1).abs().max((b.q3 - b.q1).abs())
    {
        // Better by more than the spread between either side's own runs.
        Verdict::Improved
    } else {
        Verdict::WithinBound
    }
}

/// One untraced run of a `--out` file.
struct Run {
    workload: String,
    /// Metric name → value.
    values: Vec<(String, f64)>,
}

/// The untraced runs of a `--out` file.
fn load_runs(path: &Path) -> Result<Vec<Run>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut runs = Vec::new();
    for (index, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let record =
            json::parse(line).map_err(|e| format!("{}:{}: {e}", path.display(), index + 1))?;
        if record.get("trace").and_then(Value::as_f64) != Some(0.0) {
            continue;
        }
        let workload = record
            .get("workload")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{}:{}: no workload", path.display(), index + 1))?;
        let metrics = record
            .get("metrics")
            .and_then(Value::as_obj)
            .ok_or_else(|| format!("{}:{}: no metrics", path.display(), index + 1))?;
        let values = metrics
            .iter()
            .filter_map(|(name, entry)| {
                Some((name.clone(), entry.get("value").and_then(Value::as_f64)?))
            })
            .collect();
        runs.push(Run {
            workload: workload.to_owned(),
            values,
        });
    }
    Ok(runs)
}

fn side(runs: &[Run], workload: &str, metric: &str) -> Side {
    Side::of(
        runs.iter()
            .filter(|run| run.workload == workload)
            .filter_map(|run| run.values.iter().find(|(name, _)| name == metric))
            .map(|&(_, value)| value)
            .collect(),
    )
}

/// Prints the table; with `out`, also writes it as JSON. Returns whether any
/// pairing regressed.
pub fn compare(
    declared: &Declared,
    a: &Path,
    b: &Path,
    out: Option<&Path>,
) -> Result<bool, String> {
    let (runs_a, runs_b) = (load_runs(a)?, load_runs(b)?);
    let mut table = String::new();
    let mut rows = String::from("[\n");
    let mut regressed = false;
    let _ = writeln!(
        table,
        "a = {} ({} runs), b = {} ({} runs)\n\n| workload | metric | unit | a median (IQR %) | b median (IQR %) | worse by % | bound % | verdict |\n|---|---|---|---|---|---|---|---|",
        a.display(),
        runs_a.len(),
        b.display(),
        runs_b.len()
    );
    for workload in &declared.workloads {
        for decl in &declared.end_to_end {
            let (side_a, side_b) = (
                side(&runs_a, workload, &decl.name),
                side(&runs_b, workload, &decl.name),
            );
            let verdict = verdict(decl, &side_a, &side_b);
            regressed |= verdict == Verdict::Regressed;
            let worse = worse_by(decl, &side_a, &side_b);
            let bound = decl.bound.unwrap_or(0.0);
            let _ = writeln!(
                table,
                "| {workload} | {} | {} | {:.4} ({:.2}) | {:.4} ({:.2}) | {:+.2} | {:.2} | {} |",
                decl.name,
                decl.unit,
                side_a.median,
                100.0 * side_a.spread(),
                side_b.median,
                100.0 * side_b.spread(),
                100.0 * worse,
                100.0 * bound,
                verdict.name()
            );
            if rows.len() > 2 {
                rows.push_str(",\n");
            }
            rows.push_str("  {\"workload\": ");
            json::push_str(&mut rows, workload);
            rows.push_str(", \"metric\": ");
            json::push_str(&mut rows, &decl.name);
            rows.push_str(", \"unit\": ");
            json::push_str(&mut rows, &decl.unit);
            for (key, value) in [
                ("a_q1", side_a.q1),
                ("a_median", side_a.median),
                ("a_q3", side_a.q3),
                ("b_q1", side_b.q1),
                ("b_median", side_b.median),
                ("b_q3", side_b.q3),
                ("worse_by", worse),
                ("bound", bound),
            ] {
                let _ = write!(rows, ", \"{key}\": ");
                json::push_num(&mut rows, value);
            }
            let _ = write!(rows, ", \"verdict\": \"{}\"}}", verdict.name());
        }
    }
    rows.push_str("\n]\n");
    print!("{table}");
    if let Some(out) = out {
        std::fs::write(out, rows).map_err(|e| format!("{}: {e}", out.display()))?;
    }
    Ok(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decl(higher_is_better: bool, bound: f64) -> MetricDecl {
        MetricDecl {
            name: "m".into(),
            unit: "u".into(),
            higher_is_better,
            bound: Some(bound),
        }
    }

    fn tight(center: f64) -> Side {
        Side::of(
            (0..10)
                .map(|i| center * (1.0 + 0.001 * f64::from(i)))
                .collect(),
        )
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let throughput = decl(true, 0.07);
        let base = tight(1000.0);
        assert_eq!(
            verdict(&throughput, &base, &tight(1001.0)),
            Verdict::WithinBound
        );
        assert_eq!(
            verdict(&throughput, &base, &tight(960.0)),
            Verdict::WithinBound
        );
        assert_eq!(
            verdict(&throughput, &base, &tight(900.0)),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&throughput, &base, &tight(1100.0)),
            Verdict::Improved
        );
        // The same numbers on a lower-is-better metric flip.
        let latency = decl(false, 0.07);
        assert_eq!(verdict(&latency, &base, &tight(1100.0)), Verdict::Regressed);
        assert_eq!(verdict(&latency, &base, &tight(900.0)), Verdict::Improved);
        assert!((worse_by(&latency, &base, &tight(1100.0)) - 0.1).abs() < 1e-9);
        assert!((worse_by(&throughput, &base, &tight(1100.0)) + 0.1).abs() < 1e-9);

        // A side whose spread exceeds the bound cannot resolve a small change…
        let noisy = Side::of(vec![800.0, 900.0, 1000.0, 1100.0, 1200.0]);
        assert!(noisy.spread() > 0.07);
        assert_eq!(
            verdict(&throughput, &noisy, &tight(1000.0)),
            Verdict::Unresolved
        );
        // …but every run beating every run is an improvement all the same.
        assert_eq!(
            verdict(&throughput, &noisy, &tight(1300.0)),
            Verdict::Improved
        );
        assert_eq!(
            verdict(&throughput, &base, &Side::of(Vec::new())),
            Verdict::Missing
        );
    }

    #[test]
    fn runs_load_from_out_records_and_skip_traced_ones() {
        let path = std::env::temp_dir().join(format!("pba-compare-{}.jsonl", std::process::id()));
        std::fs::write(
            &path,
            "{\"workload\": \"w\", \"trace\": 0, \"metrics\": {\"m\": {\"value\": 2.5, \"unit\": \"u\"}}}\n\
             {\"workload\": \"w\", \"trace\": 1, \"metrics\": {\"x\": {\"value\": 1, \"unit\": \"u\"}}}\n\n\
             {\"workload\": \"v\", \"trace\": 0, \"metrics\": {\"m\": {\"value\": null, \"unit\": \"u\"}}}\n",
        )
        .expect("writable temp dir");
        let runs = load_runs(&path).expect("well-formed");
        let _ = std::fs::remove_file(&path);
        assert_eq!(runs.len(), 2, "the traced record is skipped");
        assert_eq!(side(&runs, "w", "m").values, vec![2.5]);
        assert!(side(&runs, "v", "m").values.is_empty(), "null is no value");
        assert!(load_runs(Path::new("/nonexistent/set.jsonl")).is_err());
    }
}
