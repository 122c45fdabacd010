//! Trace generators: snapshot the workspace's arrival processes into
//! replayable [`Trace`]s.
//!
//! Each generator builds a [`ConcurrentRouter`] for the requested shape,
//! attaches a [`TraceRecorder`], drives the standard scenario runner
//! ([`pba_stream::run_scenario_on`]) and returns the recorded trace — so a
//! generated trace is *exactly* the workload the scenario machinery would
//! have produced live, frozen into a file-able artifact. Generators cover
//! the four arrival regimes the experiments use: uniform, Zipf-skewed,
//! bursty, and uniform-with-churn (ticket releases).

use std::sync::{Arc, Mutex};

use pba_stream::{run_scenario_on, ArrivalProcess, ConcurrentRouter, ScenarioConfig, StreamConfig};

use crate::record::TraceRecorder;
use crate::trace::Trace;

/// Records `scenario` against a router built from `config`, returning the
/// trace under `name`. The generic entry point the canned generators wrap.
pub fn record_scenario(name: &str, scenario: &ScenarioConfig, config: StreamConfig) -> Trace {
    let recorder = Arc::new(Mutex::new(TraceRecorder::new()));
    let router = ConcurrentRouter::new(config.clone());
    router.add_observer(recorder.clone());
    run_scenario_on(scenario, router);
    Arc::try_unwrap(recorder)
        .expect("scenario runner dropped its router — no other handle remains")
        .into_inner()
        .expect("recorder lock cannot be poisoned after a clean run")
        .into_trace(name, config.bins, config.batch_size, config.seed)
}

/// Uniform arrivals: `ticks` ticks at `rate` balls/tick over a key space
/// sized so every ball is effectively unique.
pub fn uniform_trace(config: StreamConfig, ticks: u64, rate: usize) -> Trace {
    let scenario = ScenarioConfig::growth(ticks, ArrivalProcess::uniform_independent(rate));
    record_scenario("uniform", &scenario, config)
}

/// Zipf-skewed arrivals over `keys` keys with the given exponent.
pub fn zipf_trace(
    config: StreamConfig,
    ticks: u64,
    rate: usize,
    keys: u64,
    exponent: f64,
) -> Trace {
    let scenario = ScenarioConfig::growth(
        ticks,
        ArrivalProcess::Zipf {
            keys,
            exponent,
            rate,
        },
    );
    record_scenario("zipf", &scenario, config)
}

/// Bursty arrivals: `base_rate` balls/tick with `burst_mult`× bursts of
/// `burst_len` ticks every `burst_every` ticks.
pub fn bursty_trace(
    config: StreamConfig,
    ticks: u64,
    base_rate: usize,
    burst_every: usize,
    burst_len: usize,
    burst_mult: usize,
) -> Trace {
    let scenario = ScenarioConfig::growth(
        ticks,
        ArrivalProcess::Bursty {
            keys: 1 << 20,
            base_rate,
            burst_every,
            burst_len,
            burst_mult,
        },
    );
    record_scenario("bursty", &scenario, config)
}

/// Uniform arrivals with steady-state churn (`churn` expected departures per
/// arrival after `warmup` ticks) — the generator that exercises scripted
/// releases in the trace format.
pub fn churn_trace(
    config: StreamConfig,
    ticks: u64,
    rate: usize,
    churn: f64,
    warmup: u64,
) -> Trace {
    let scenario = ScenarioConfig::growth(ticks, ArrivalProcess::uniform_independent(rate))
        .with_churn(churn, warmup);
    record_scenario("churn", &scenario, config)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_produce_decodable_traces_with_expected_shapes() {
        let config = StreamConfig::new(16).batch_size(8).seed(11);
        let uniform = uniform_trace(config.clone(), 10, 8);
        assert_eq!(uniform.arrivals(), 80);
        assert!(!uniform.has_reweights());

        let zipf = zipf_trace(config.clone(), 10, 8, 512, 1.1);
        assert_eq!(zipf.arrivals(), 80);

        let bursty = bursty_trace(config.clone(), 20, 4, 10, 2, 4);
        // Per 10-tick window: 2·16 + 8·4 = 64; two windows.
        assert_eq!(bursty.arrivals(), 128);

        let churn = churn_trace(config, 40, 8, 0.5, 10);
        assert_eq!(churn.arrivals(), 320);
        let releases = churn
            .events
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    crate::trace::TraceEvent::Arrival {
                        release_after: Some(_),
                        ..
                    }
                )
            })
            .count();
        assert!(releases > 50, "churn must script releases, got {releases}");
        // Every generated trace survives the codec round trip.
        for trace in [&uniform, &zipf, &bursty, &churn] {
            let decoded = Trace::decode(&trace.encode()).expect("decode");
            assert_eq!(&decoded, trace);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let make = || uniform_trace(StreamConfig::new(8).batch_size(4).seed(5), 6, 4);
        assert_eq!(make().encode(), make().encode());
    }
}
