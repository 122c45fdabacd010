//! Metric declarations and results. `BENCHMARK.json` at the repository root
//! is the one place metric names, units, directions and bounds are written
//! down; it is compiled in, and every pass's results are checked against it:
//! each declared name emitted exactly once, nothing undeclared.

use std::collections::BTreeMap;

use crate::json::{self, Value};

/// The declaration file, compiled in so the check does not depend on the
/// directory the benchmark is started from.
const BENCHMARK_JSON: &str = include_str!("../../../../../BENCHMARK.json");

#[derive(Debug, Clone, PartialEq)]
pub struct MetricDecl {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the parent's median the metric may worsen by (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Declared {
    pub run_seconds: u64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricDecl>,
    pub per_layer: Vec<MetricDecl>,
}

impl Declared {
    /// The compiled-in `BENCHMARK.json`.
    pub fn load() -> Result<Self, String> {
        Self::parse(BENCHMARK_JSON)
    }

    fn parse(text: &str) -> Result<Self, String> {
        let doc = json::parse(text)?;
        let list = |key: &str| {
            doc.get(key)
                .and_then(Value::as_arr)
                .ok_or_else(|| format!("BENCHMARK.json: `{key}` is not an array"))
        };
        let text_of = |entry: &Value, key: &str| {
            entry
                .get(key)
                .and_then(Value::as_str)
                .map(str::to_owned)
                .ok_or_else(|| format!("BENCHMARK.json: an entry lacks `{key}`"))
        };
        let metrics = |key: &str| -> Result<Vec<MetricDecl>, String> {
            list(key)?
                .iter()
                .map(|entry| {
                    Ok(MetricDecl {
                        name: text_of(entry, "name")?,
                        unit: text_of(entry, "unit")?,
                        higher_is_better: match text_of(entry, "better")?.as_str() {
                            "higher" => true,
                            "lower" => false,
                            other => return Err(format!("BENCHMARK.json: better = `{other}`")),
                        },
                        bound: entry.get("bound").and_then(Value::as_f64),
                    })
                })
                .collect()
        };
        Ok(Self {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Value::as_f64)
                .filter(|s| *s >= 1.0)
                .ok_or("BENCHMARK.json: `run_seconds` missing")? as u64,
            workloads: list("workloads")?
                .iter()
                .map(|entry| text_of(entry, "name"))
                .collect::<Result<_, _>>()?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }
}

/// The values one pass produced, by metric name. `NaN` marks a metric the
/// host cannot supply (no `/proc`): printed as unavailable, never guessed.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<String, f64>,
    emitted_twice: Vec<String>,
}

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64) {
        if self.values.insert(name.to_owned(), value).is_some() {
            self.emitted_twice.push(name.to_owned());
        }
    }

    /// Sets a metric that depends on a `/proc` reading.
    pub fn set_available(&mut self, name: &str, value: Option<f64>) {
        self.set(name, value.unwrap_or(f64::NAN));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    pub fn merge(&mut self, other: Metrics) {
        for (name, value) in other.values {
            self.set(&name, value);
        }
        self.emitted_twice.extend(other.emitted_twice);
    }

    /// Every way these results disagree with the declared list: a declared
    /// name missing, a name emitted twice, a name nobody declared.
    pub fn mismatches(&self, declared: &[MetricDecl]) -> Vec<String> {
        let mut problems: Vec<String> = self
            .emitted_twice
            .iter()
            .map(|name| format!("metric `{name}` emitted more than once"))
            .collect();
        for decl in declared {
            if !self.values.contains_key(&decl.name) {
                problems.push(format!("declared metric `{}` was not emitted", decl.name));
            }
        }
        for name in self.values.keys() {
            if !declared.iter().any(|decl| &decl.name == name) {
                problems.push(format!("metric `{name}` is not declared in BENCHMARK.json"));
            }
        }
        problems
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}` in declaration order.
    pub fn to_json(&self, declared: &[MetricDecl]) -> String {
        let mut out = String::from("{");
        for decl in declared {
            let Some(value) = self.get(&decl.name) else {
                continue;
            };
            if out.len() > 1 {
                out.push_str(", ");
            }
            json::push_str(&mut out, &decl.name);
            out.push_str(": {\"value\": ");
            json::push_num(&mut out, value);
            out.push_str(", \"unit\": ");
            json::push_str(&mut out, &decl.unit);
            out.push('}');
        }
        out.push('}');
        out
    }

    /// One `name value unit` line per declared metric, for people.
    pub fn to_table(&self, declared: &[MetricDecl]) -> String {
        let width = declared.iter().map(|d| d.name.len()).max().unwrap_or(0);
        let mut out = String::new();
        for decl in declared {
            let shown = match self.get(&decl.name) {
                Some(value) if value.is_finite() => format!("{value:>18.4}"),
                Some(_) => format!("{:>18}", "unavailable"),
                None => format!("{:>18}", "MISSING"),
            };
            out.push_str(&format!("  {:<width$} {shown} {}\n", decl.name, decl.unit));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_committed_declaration_parses_and_names_are_unique() {
        let declared = Declared::load().expect("BENCHMARK.json parses");
        assert_eq!(declared.workloads.len(), 4);
        assert!(declared
            .end_to_end
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && !m.higher_is_better));
        for metric in &declared.end_to_end {
            let bound = metric.bound.expect("every end-to-end metric has a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}: {bound}", metric.name);
        }
        let mut names: Vec<&str> = declared
            .end_to_end
            .iter()
            .chain(&declared.per_layer)
            .map(|m| m.name.as_str())
            .chain(declared.workloads.iter().map(String::as_str))
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used once");
    }

    #[test]
    fn mismatches_name_missing_duplicate_and_undeclared_metrics() {
        let declared = Declared::parse(
            r#"{"run_seconds": 4, "workloads": [{"name": "w", "why": "x"}],
                "end_to_end": [{"name": "a", "unit": "s", "better": "lower", "bound": 0.1},
                               {"name": "b", "unit": "ops/s", "better": "higher", "bound": 0.1}],
                "per_layer": []}"#,
        )
        .expect("valid");
        let mut metrics = Metrics::default();
        metrics.set("a", 1.5);
        assert_eq!(
            metrics.mismatches(&declared.end_to_end).len(),
            1,
            "b missing"
        );
        metrics.set("b", 2.0);
        assert!(metrics.mismatches(&declared.end_to_end).is_empty());
        assert_eq!(
            metrics.to_json(&declared.end_to_end),
            r#"{"a": {"value": 1.5, "unit": "s"}, "b": {"value": 2, "unit": "ops/s"}}"#
        );
        metrics.set("a", 1.6);
        metrics.set("c", 0.0);
        let problems = metrics.mismatches(&declared.end_to_end);
        assert_eq!(problems.len(), 2, "{problems:?}");
    }
}
