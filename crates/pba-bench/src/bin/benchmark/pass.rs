//! What the workloads share: how operation counts follow from `--seconds`,
//! the clockwork of a timed pass (unit latencies, sixteen equal-count slices,
//! CPU time), the end-to-end metrics computed from it, and the
//! outcome a pass hands back to `main`.

use std::time::Instant;

use crate::metrics::Metrics;
use crate::procfs;
use crate::stats::{self, SLICES};

/// How often a run sets the workload up; `setup_s` is the median.
const SETUPS: usize = 7;

/// Sets the workload up `SETUPS` times — each instance torn down before the
/// next one's clock starts — and returns the last instance with the seconds
/// each set-up took.
pub fn set_up<T, E>(mut ready: impl FnMut() -> Result<T, E>) -> Result<(T, Vec<f64>), E> {
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut instance = None;
    for _ in 0..SETUPS {
        drop(instance.take());
        let started = Instant::now();
        instance = Some(ready()?);
        setup_s.push(started.elapsed().as_secs_f64());
    }
    Ok((instance.expect("SETUPS > 0"), setup_s))
}

/// How much work a pass does. Every count is `rate × seconds ÷ divisor` for
/// a rate fixed per workload, so a given `--seconds` always means the same
/// operations — never "whatever fits in the time" — and both sides of a
/// comparison do identical work. The rates are calibrated so that the pass
/// lasts about `seconds` on the build host.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    pub seconds: u64,
    pub divisor: u64,
}

impl Scale {
    /// `per_second × seconds ÷ divisor`, rounded down to a multiple of
    /// `multiple` and never below one multiple.
    pub fn count(self, per_second: u64, multiple: u64) -> u64 {
        let raw = per_second.saturating_mul(self.seconds) / self.divisor;
        (raw / multiple * multiple).max(multiple)
    }

    /// The same run, `by` times shorter.
    pub fn reduced(self, by: u64) -> Self {
        Self {
            seconds: self.seconds,
            divisor: self.divisor.saturating_mul(by),
        }
    }
}

/// A timed pass in progress: `units` units of `ops_per_unit` operations
/// each, cut into (at most) sixteen equal-count slices.
pub struct TimedPass {
    origin: Instant,
    ops_per_unit: u64,
    units_per_slice: u64,
    slices: usize,
    /// Unit completion times in completion order.
    unit_ns: Vec<u64>,
    /// Per slice boundary (the pass's start first): pass-relative time and
    /// the process's CPU time.
    marks: Vec<(u64, Option<u64>)>,
}

impl TimedPass {
    /// Starts the clock. Units beyond the last whole slice (the fixed counts
    /// leave none at the default scale) belong to no slice.
    pub fn begin(units: u64, ops_per_unit: u64) -> Self {
        let slices = (SLICES as u64).min(units).max(1);
        let mut marks = Vec::with_capacity(slices as usize + 1);
        marks.push((0, procfs::cpu_time_ns()));
        Self {
            unit_ns: Vec::with_capacity(units as usize),
            marks,
            ops_per_unit,
            units_per_slice: units / slices,
            slices: slices as usize,
            origin: Instant::now(),
        }
    }

    /// Records one completed unit.
    pub fn unit_done(&mut self, started: Instant, ended: Instant) {
        self.unit_ns
            .push(ended.saturating_duration_since(started).as_nanos() as u64);
        if (self.unit_ns.len() as u64).is_multiple_of(self.units_per_slice)
            && self.marks.len() <= self.slices
        {
            self.marks.push((
                ended.saturating_duration_since(self.origin).as_nanos() as u64,
                procfs::cpu_time_ns(),
            ));
        }
    }

    /// When the pass began.
    #[cfg(test)]
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Stops the clock.
    pub fn finish(self) -> PassTimes {
        let wall_ns = self.origin.elapsed().as_nanos() as u64;
        let slice_ops = self.units_per_slice * self.ops_per_unit;
        let slices = self
            .marks
            .windows(2)
            .zip(self.unit_ns.chunks(self.units_per_slice as usize))
            .map(|(marks, units)| {
                let ((from_ns, cpu_from), (to_ns, cpu_to)) = (marks[0], marks[1]);
                let mut units = units.to_vec();
                units.sort_unstable();
                Slice {
                    rate: slice_ops as f64 * 1e9 / to_ns.saturating_sub(from_ns).max(1) as f64,
                    p50_us: stats::percentile(&units, 0.50) as f64 / 1e3,
                    p90_us: stats::percentile(&units, 0.90) as f64 / 1e3,
                    cpu_ns_per_op: cpu_from.zip(cpu_to).map_or(f64::NAN, |(from, to)| {
                        to.saturating_sub(from) as f64 / slice_ops as f64
                    }),
                }
            })
            .collect();
        let mut unit_ns = self.unit_ns;
        unit_ns.sort_unstable();
        let cpu_ns = match (self.marks[0].1, self.marks[self.marks.len() - 1].1) {
            (Some(from), Some(to)) => Some(to.saturating_sub(from)),
            _ => None,
        };
        PassTimes {
            ops: unit_ns.len() as u64 * self.ops_per_unit,
            sliced_ops: slice_ops * (self.marks.len() as u64 - 1),
            slices,
            unit_ns,
            wall_ns,
            cpu_ns,
        }
    }
}

/// What one slice of a timed pass measured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Slice {
    /// Operations per second.
    pub rate: f64,
    /// Median and 90th-percentile completion time of the slice's units.
    pub p50_us: f64,
    pub p90_us: f64,
    /// `utime + stime` of all threads ÷ operations; `NaN` without `/proc`.
    pub cpu_ns_per_op: f64,
}

/// A finished timed pass.
pub struct PassTimes {
    pub ops: u64,
    pub wall_ns: u64,
    /// Operations inside the slices, and the CPU time between the first and
    /// the last slice mark (`None` without `/proc`).
    sliced_ops: u64,
    cpu_ns: Option<u64>,
    /// Unit completion times of the whole pass, ascending.
    pub unit_ns: Vec<u64>,
    pub slices: Vec<Slice>,
}

impl PassTimes {
    /// The best slice's `value`: how a timed pass turns its sixteen slices
    /// into one gated figure. On the shared build host interference only
    /// ever makes a slice slower, in spells of seconds to minutes, so the
    /// best slice is the one closest to what the program costs: over four
    /// sets of ten runs of identical code it moved 1–17 % from run to run
    /// (quartile distance ÷ median), the median slice 2–28 %. Every slice
    /// does the same operations, so a slowdown of the program slows the best
    /// slice as much as the rest. `NaN` if no slice has a value.
    fn best_slice(&self, higher_is_better: bool, value: impl Fn(&Slice) -> f64) -> f64 {
        let values = self.slices.iter().map(value).filter(|v| !v.is_nan());
        if higher_is_better {
            values.reduce(f64::max)
        } else {
            values.reduce(f64::min)
        }
        .unwrap_or(f64::NAN)
    }

    /// Operations per second in the best slice.
    pub fn throughput(&self) -> f64 {
        self.best_slice(true, |slice| slice.rate)
    }

    /// Nanoseconds per operation at that rate.
    pub fn ns_per_op(&self) -> f64 {
        1e9 / self.throughput()
    }

    pub fn unit_percentile_us(&self, p: f64) -> f64 {
        stats::percentile(&self.unit_ns, p) as f64 / 1e3
    }

    /// The median slice's operations per second.
    pub fn median_slice_rate(&self) -> f64 {
        let rates: Vec<f64> = self.slices.iter().map(|slice| slice.rate).collect();
        stats::quartiles(&rates).1
    }

    /// `utime + stime` of the whole pass ÷ its operations; `NaN` without
    /// `/proc`.
    pub fn whole_pass_cpu_ns_per_op(&self) -> f64 {
        self.cpu_ns
            .map_or(f64::NAN, |ns| ns as f64 / self.sliced_ops.max(1) as f64)
    }

    /// The per-slice values as a JSON object of arrays, for `--out`, with
    /// the whole pass by the issue's definitions beside them (`whole_pass`:
    /// median slice rate, p50, p90, CPU ns/op).
    pub fn slices_json(&self) -> String {
        let column = |value: &dyn Fn(&Slice) -> f64| {
            let mut out = String::from("[");
            for (i, slice) in self.slices.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                crate::json::push_num(&mut out, value(slice));
            }
            out + "]"
        };
        let mut whole_pass = String::new();
        for value in [
            self.median_slice_rate(),
            self.unit_percentile_us(0.50),
            self.unit_percentile_us(0.90),
            self.whole_pass_cpu_ns_per_op(),
        ] {
            whole_pass.push_str(if whole_pass.is_empty() { "[" } else { ", " });
            crate::json::push_num(&mut whole_pass, value);
        }
        format!(
            "{{\"rate\": {}, \"p50_us\": {}, \"p90_us\": {}, \"cpu_ns_per_op\": {}, \"whole_pass\": {whole_pass}]}}",
            column(&|s| s.rate),
            column(&|s| s.p50_us),
            column(&|s| s.p90_us),
            column(&|s| s.cpu_ns_per_op),
        )
    }
}

/// What one pass of one workload hands back.
#[derive(Default)]
pub struct Outcome {
    pub metrics: Metrics,
    /// Operations the timed pass attempted.
    pub attempted: u64,
    /// Operations that failed, plus drop counters, plus failed checks.
    pub failed: u64,
    /// One line per failed output check.
    pub failures: Vec<String>,
    /// Context worth printing beside the metrics: sample counts, spreads.
    pub notes: Vec<String>,
    /// The timed pass's per-slice values (JSON), kept in the `--out` record.
    pub slices_json: Option<String>,
}

impl Outcome {
    /// An output check: a failure is reported by name and counted as a
    /// failed operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    /// Fills in the end-to-end metrics (all but `ok_ops_ratio`).
    pub fn set_end_to_end(&mut self, setup_s: &[f64], times: &PassTimes, balance_gap: f64) {
        let rates: Vec<f64> = times.slices.iter().map(|slice| slice.rate).collect();
        let (q1, q2, q3) = stats::quartiles(&rates);
        self.notes.push(format!(
            "timed pass: {} ops in {:.3} s; {} latency samples (whole-pass p50 {:.1} us, p90 {:.1} us); slice rate quartiles {q1:.0} / {q2:.0} / {q3:.0} ops/s",
            times.ops,
            times.wall_ns as f64 / 1e9,
            times.unit_ns.len(),
            times.unit_percentile_us(0.50),
            times.unit_percentile_us(0.90),
        ));
        self.attempted = times.ops;
        self.slices_json = Some(times.slices_json());
        let metrics = &mut self.metrics;
        metrics.set(
            "setup_s",
            pba_stats::quantiles::median(setup_s).unwrap_or(f64::NAN),
        );
        metrics.set("throughput_ops_s", times.throughput());
        metrics.set(
            "unit_latency_p50_us",
            times.best_slice(false, |slice| slice.p50_us),
        );
        metrics.set(
            "cpu_ns_per_op",
            times.best_slice(false, |slice| slice.cpu_ns_per_op),
        );
        metrics.set("balance_gap", balance_gap);
        metrics.set_available(
            "peak_rss_mib",
            procfs::peak_rss_kib().map(|kib| kib as f64 / 1024.0),
        );
    }

    /// `ok_ops_ratio`, set last because output checks count as failures.
    pub fn set_ok_ratio(&mut self) {
        let failed = self.failed.min(self.attempted) as f64;
        self.metrics
            .set("ok_ops_ratio", 1.0 - failed / self.attempted.max(1) as f64);
    }
}

/// What the traced pass of one workload family hands back.
pub struct Traced {
    pub metrics: Metrics,
    /// Operations of the traced pass.
    pub attempted: u64,
    /// The untraced reference pass at the same scale, on one CPU like the
    /// gated run.
    pub reference: PassTimes,
    /// ns/op of the same reference pass with every CPU allowed.
    pub all_cpus_ns_per_op: f64,
    /// Traced ÷ untraced ns/op.
    pub overhead_ratio: f64,
    /// Hash of the final loads.
    pub loads_fnv: f64,
    /// One line per failed output check.
    pub failures: Vec<String>,
}

impl Traced {
    /// The `harness.*` metrics: the reference pass by the gated estimator
    /// (`ns_per_op`), by the issue's whole-pass definitions, and against
    /// the same pass on all CPUs.
    pub fn harness_metrics(&self) -> Metrics {
        let reference = &self.reference;
        let mut metrics = Metrics::default();
        metrics.set("harness.ns_per_op", reference.ns_per_op());
        metrics.set("harness.trace_overhead_ratio", self.overhead_ratio);
        metrics.set("harness.loads_fnv", self.loads_fnv);
        metrics.set("harness.median_slice_ops_s", reference.median_slice_rate());
        metrics.set(
            "harness.whole_pass_p50_us",
            reference.unit_percentile_us(0.50),
        );
        metrics.set(
            "harness.whole_pass_p90_us",
            reference.unit_percentile_us(0.90),
        );
        metrics.set(
            "harness.whole_pass_cpu_ns_per_op",
            reference.whole_pass_cpu_ns_per_op(),
        );
        metrics.set(
            "harness.all_cpus_speedup",
            reference.ns_per_op() / self.all_cpus_ns_per_op,
        );
        metrics
    }
}

/// FNV-1a over a load vector, folded to 48 bits so the value survives a
/// trip through a JSON number.
pub fn loads_fnv(loads: &[u32]) -> f64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in loads.iter().flat_map(|load| load.to_le_bytes()) {
        hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    ((hash >> 48) ^ (hash & 0xffff_ffff_ffff)) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn counts_follow_from_seconds_and_stay_whole_multiples() {
        let full = Scale {
            seconds: 16,
            divisor: 1,
        };
        assert_eq!(full.count(1 << 20, 2048), 16_777_216);
        assert_eq!(full.reduced(4).count(1 << 20, 2048), 4_194_304);
        assert_eq!(full.reduced(64).count(8, 1), 2);
        // Never below one multiple, always a whole number of them.
        assert_eq!(full.reduced(1 << 20).count(1 << 20, 2048), 2048);
        assert_eq!(
            Scale {
                seconds: 3,
                divisor: 1
            }
            .count(1000, 64),
            2944
        );
    }

    #[test]
    fn a_pass_cuts_its_units_into_equal_slices() {
        let mut pass = TimedPass::begin(32, 64);
        let origin = pass.origin();
        for unit in 0..32u64 {
            let started = origin + Duration::from_micros(unit * 10);
            pass.unit_done(started, started + Duration::from_micros(10 + unit % 2));
        }
        let times = pass.finish();
        assert_eq!(times.ops, 32 * 64);
        assert_eq!(times.slices.len(), SLICES);
        assert_eq!(times.unit_percentile_us(0.5), 10.0);
        assert_eq!(times.unit_percentile_us(0.9), 11.0);
        // Every slice is two units = 128 ops in 20 µs.
        assert!((times.throughput() - 128.0 / 20e-6).abs() < 1.0);

        // Fewer units than slices: one slice per unit.
        let mut short = TimedPass::begin(2, 1);
        let origin = short.origin();
        short.unit_done(origin, origin + Duration::from_millis(1));
        short.unit_done(origin, origin + Duration::from_millis(2));
        assert_eq!(short.finish().slices.len(), 2);

        // 24 units: sixteen slices of one unit, eight units in no slice.
        let mut ragged = TimedPass::begin(24, 1);
        let origin = ragged.origin();
        for unit in 1..=24 {
            ragged.unit_done(origin, origin + Duration::from_millis(unit));
        }
        let times = ragged.finish();
        assert_eq!((times.slices.len(), times.unit_ns.len()), (SLICES, 24));
    }

    #[test]
    fn loads_fnv_is_stable_and_fits_a_json_number() {
        let a = loads_fnv(&[1, 2, 3]);
        assert_eq!(a, loads_fnv(&[1, 2, 3]));
        assert_ne!(a, loads_fnv(&[1, 3, 2]));
        assert!(a < (1u64 << 48) as f64 && a.fract() == 0.0);
    }
}
