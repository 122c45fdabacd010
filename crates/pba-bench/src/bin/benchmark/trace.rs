//! Spans for the traced pass. The benchmark's own code records one span
//! around each call into a layer's public function — `{name, start_ns,
//! end_ns, parent, unit_id}` — into a pre-sized in-memory vector, and writes
//! them out as JSON lines when the pass ends. A switched-off tracer records
//! nothing and never reads the clock, so untraced passes pay one branch.

use std::collections::BTreeMap;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// Index of a recorded span; what a child names as its parent.
pub type SpanId = u32;

/// "No parent" / "span of a switched-off tracer".
pub const NO_SPAN: SpanId = u32::MAX;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: SpanId,
    /// The unit of work (window, tick, call) this span belongs to; spans of
    /// one unit share it.
    pub unit_id: u32,
}

pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    /// What one clock read costs on this host: every span's duration holds
    /// one, and per-call figures derived from short spans subtract it.
    clock_ns: u64,
}

/// Per-name totals of a finished trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NameTotals {
    pub spans: u64,
    pub total_ns: u64,
    /// Total minus the time covered by child spans.
    pub self_ns: u64,
    /// Median span duration, net of the clock read it contains.
    pub median_net_ns: u64,
}

impl Tracer {
    /// A recording tracer with room for `capacity` spans.
    pub fn on(capacity: usize) -> Self {
        let origin = Instant::now();
        // Back-to-back reads: the smallest mean over a few bursts is the
        // cost of the read itself, not of an interruption.
        let clock_ns = (0..8)
            .map(|_| {
                let burst = Instant::now();
                for _ in 0..255 {
                    std::hint::black_box(Instant::now());
                }
                burst.elapsed().as_nanos() as u64 / 256
            })
            .min()
            .unwrap_or(0);
        Self {
            on: true,
            origin,
            spans: Vec::with_capacity(capacity),
            clock_ns,
        }
    }

    /// The tracer of an untraced pass.
    pub fn off() -> Self {
        Self {
            on: false,
            origin: Instant::now(),
            spans: Vec::new(),
            clock_ns: 0,
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Nanoseconds since this tracer was made.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// `instant` on this tracer's clock.
    pub fn ns_of(&self, instant: Instant) -> u64 {
        instant.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span now; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: SpanId, unit_id: u32) -> SpanId {
        if !self.on {
            return NO_SPAN;
        }
        let start_ns = self.now_ns();
        self.record(name, start_ns, 0, parent, unit_id)
    }

    /// Closes a span opened by [`Tracer::open`].
    pub fn close(&mut self, id: SpanId) {
        if self.on {
            let end_ns = self.now_ns();
            self.close_at(id, end_ns);
        }
    }

    /// Closes a span at a time the caller already read (adjacent spans share
    /// one clock read).
    pub fn close_at(&mut self, id: SpanId, end_ns: u64) {
        if self.on {
            self.spans[id as usize].end_ns = end_ns;
        }
    }

    /// Records a span whose times the caller measured itself.
    pub fn record(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: SpanId,
        unit_id: u32,
    ) -> SpanId {
        if !self.on {
            return NO_SPAN;
        }
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            unit_id,
        });
        (self.spans.len() - 1) as SpanId
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the part of its interval
    /// that its child spans cover (overlapping children are counted once).
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if span.parent != NO_SPAN {
                children[span.parent as usize].push((span.start_ns, span.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(span, kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut reach = span.start_ns;
                for &(start, end) in kids.iter() {
                    let start = start.max(reach);
                    let end = end.min(span.end_ns);
                    if end > start {
                        covered += end - start;
                        reach = end;
                    }
                }
                (span.end_ns - span.start_ns).saturating_sub(covered)
            })
            .collect()
    }

    /// Totals per span name over the spans recorded from index `first` on
    /// (one tracer can hold several passes).
    pub fn totals_from(&self, first: usize) -> BTreeMap<&'static str, NameTotals> {
        let self_times = self.self_times();
        let mut durations: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
        let mut totals: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(self_times).skip(first) {
            let duration = span.end_ns - span.start_ns;
            let entry = totals.entry(span.name).or_default();
            entry.spans += 1;
            entry.total_ns += duration;
            entry.self_ns += self_ns;
            durations.entry(span.name).or_default().push(duration);
        }
        for (name, mut of_name) in durations {
            of_name.sort_unstable();
            let median = crate::stats::percentile(&of_name, 0.5);
            totals.get_mut(name).expect("same keys").median_net_ns =
                median.saturating_sub(self.clock_ns);
        }
        totals
    }

    /// Writes one JSON object per span, in recording order.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        for span in &self.spans {
            write!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":",
                span.name, span.start_ns, span.end_ns
            )?;
            if span.parent == NO_SPAN {
                out.write_all(b"null")?;
            } else {
                write!(out, "{}", span.parent)?;
            }
            writeln!(out, ",\"unit_id\":{}}}", span.unit_id)?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scripted(spans: &[(&'static str, u64, u64, SpanId)]) -> Tracer {
        let mut tracer = Tracer::on(spans.len());
        tracer.clock_ns = 0;
        for &(name, start, end, parent) in spans {
            tracer.record(name, start, end, parent, 0);
        }
        tracer
    }

    #[test]
    fn self_time_is_duration_minus_covered_children() {
        let tracer = scripted(&[
            ("window", 0, 100, NO_SPAN),
            ("parse", 10, 30, 0),
            ("route", 30, 70, 0),
            // Overlaps `route` by 10 and pokes 20 past the parent's end:
            // only [70, 100) of it is newly covered.
            ("render", 60, 120, 0),
            ("grandchild", 35, 40, 2),
        ]);
        assert_eq!(tracer.self_times(), vec![10, 20, 35, 60, 5]);
        let totals = tracer.totals_from(0);
        assert_eq!(totals["window"].self_ns, 10);
        assert_eq!(totals["route"].total_ns, 40);
        assert_eq!(totals["route"].self_ns, 35);
    }

    #[test]
    fn totals_report_the_median_net_of_the_clock_read() {
        let mut tracer = scripted(&[
            ("call", 0, 120, NO_SPAN),
            ("call", 200, 300, NO_SPAN),
            ("call", 400, 9_400, NO_SPAN),
        ]);
        tracer.clock_ns = 20;
        let call = &tracer.totals_from(0)["call"];
        assert_eq!((call.spans, call.total_ns), (3, 9_220));
        assert_eq!(call.median_net_ns, 100, "median 120 minus the 20 ns read");
    }

    #[test]
    fn a_switched_off_tracer_records_nothing() {
        let mut tracer = Tracer::off();
        let id = tracer.open("x", NO_SPAN, 1);
        tracer.close(id);
        assert_eq!(id, NO_SPAN);
        assert!(tracer.spans().is_empty() && !tracer.is_on());
    }

    #[test]
    fn spans_are_written_as_json_lines() {
        let mut tracer = Tracer::on(2);
        let window = tracer.open("client.window", NO_SPAN, 7);
        let write = tracer.open("client.write", window, 7);
        tracer.close(write);
        tracer.close(window);
        let path = std::env::temp_dir().join(format!("pba-trace-{}.jsonl", std::process::id()));
        tracer.write_jsonl(&path).expect("writable temp dir");
        let text = std::fs::read_to_string(&path).expect("just written");
        let _ = std::fs::remove_file(&path);
        let lines: Vec<_> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let first = crate::json::parse(lines[0]).expect("valid JSON");
        assert_eq!(
            first.get("name").and_then(|v| v.as_str()),
            Some("client.window")
        );
        assert_eq!(first.get("parent"), Some(&crate::json::Value::Null));
        let second = crate::json::parse(lines[1]).expect("valid JSON");
        assert_eq!(second.get("parent").and_then(|v| v.as_f64()), Some(0.0));
        assert_eq!(second.get("unit_id").and_then(|v| v.as_f64()), Some(7.0));
        assert!(
            second.get("end_ns").and_then(|v| v.as_f64())
                >= second.get("start_ns").and_then(|v| v.as_f64())
        );
    }
}
