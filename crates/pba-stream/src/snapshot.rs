//! The **snapshot** stage of the streaming pipeline: the stale load vector a
//! batch decides from, the thresholds priced against it, and the gap measure
//! recorded when the snapshot advances.
//!
//! Everything here is a pure function of `(policy, weights, resident loads,
//! batch length)` — no engine state — which the engine core calls at every
//! batch open and boundary.

use pba_model::weights::{normalized_loads, weighted_gap, ResolvedWeights};
use pba_stats::quantiles_of;

use crate::policy::Policy;

/// A point-in-time view of the stream state.
#[derive(Debug, Clone)]
pub struct StreamSnapshot {
    /// Current (fresh) per-bin loads.
    pub loads: Vec<u32>,
    /// The stale snapshot the *next* batch will decide from.
    pub stale_loads: Vec<u32>,
    /// Balls pushed so far.
    pub arrived: u64,
    /// Balls placed into bins so far.
    pub placed: u64,
    /// Balls departed so far.
    pub departed: u64,
    /// Balls buffered but not yet drained.
    pub pending: u64,
    /// Batches drained so far.
    pub batches: u64,
    /// Current gap of the fresh loads: `max − mean` for uniform weights, the
    /// weighted gap `max_i(load_i/w_i) − (Σ load)/W` otherwise.
    pub gap: f64,
    /// Load quantiles `[p50, p90, p99, max]` of the fresh loads.
    pub load_quantiles: [f64; 4],
    /// Largest normalized load `max_i(load_i / w_i)` — equal to the raw max
    /// load for uniform weights.
    pub max_normalized_load: f64,
}

impl StreamSnapshot {
    /// Assembles a snapshot from the raw counters and a fresh load vector,
    /// computing the derived gap/quantile/normalized-load fields — the one
    /// place those derivations live. They are computed over the **active**
    /// bins only (`active`; `None` while every slot is active) — draining
    /// and retired slots hold balls that no placement decision can see —
    /// priced by `weights`, the resolve restricted to the active slots.
    #[allow(clippy::too_many_arguments)] // a constructor of raw counters
    pub(crate) fn assemble(
        loads: Vec<u32>,
        stale_loads: Vec<u32>,
        arrived: u64,
        placed: u64,
        departed: u64,
        pending: u64,
        batches: u64,
        active: Option<&[u32]>,
        weights: Option<&ResolvedWeights>,
    ) -> Self {
        let served: Vec<u32> = match active {
            Some(active) => active.iter().map(|&b| loads[b as usize]).collect(),
            None => loads.clone(),
        };
        let gap = gap_of_loads(&served, None, weights, &mut Vec::new());
        let as_f64: Vec<f64> = served.iter().map(|&l| l as f64).collect();
        let qs = quantiles_of(&as_f64, &[0.5, 0.9, 0.99, 1.0]);
        let max_normalized_load = match weights {
            None => qs[3],
            Some(weights) => normalized_loads(&served, weights)
                .into_iter()
                .fold(0.0f64, f64::max),
        };
        Self {
            loads,
            stale_loads,
            arrived,
            placed,
            departed,
            pending,
            batches,
            gap,
            load_quantiles: [qs[0], qs[1], qs[2], qs[3]],
            max_normalized_load,
        }
    }
}

/// The gap of the **active** bins of a load vector under the stream's
/// weights: classic `max − mean` when uniform (`0` for an empty stream),
/// weighted `max_i(load_i/w_i) − (Σ load)/W` otherwise. `active` lists the
/// bins that count — gathered into `scratch`, so they are priced exactly as
/// an engine over just those bins would price them (the identity behind the
/// post-drain suffix-equivalence property) — or is `None` when every bin
/// does; `weights` is the resolve restricted to them (`None` when uniform).
pub(crate) fn gap_of_loads(
    loads: &[u32],
    active: Option<&[u32]>,
    weights: Option<&ResolvedWeights>,
    scratch: &mut Vec<u32>,
) -> f64 {
    let loads = match active {
        Some(active) => {
            scratch.clear();
            scratch.extend(active.iter().map(|&b| loads[b as usize]));
            &scratch[..]
        }
        None => loads,
    };
    match weights {
        Some(weights) => weighted_gap(loads, weights),
        None if loads.is_empty() => 0.0,
        None => {
            let max = loads.iter().copied().max().unwrap_or(0) as f64;
            let total: u64 = loads.iter().map(|&l| l as u64).sum();
            max - total as f64 / loads.len() as f64
        }
    }
}

/// True for the policies that price a per-batch threshold — the only ones
/// the `O(n)` resident count behind [`batch_threshold`] and the capacity
/// thresholds is taken for.
pub(crate) fn uses_thresholds(policy: Policy) -> bool {
    matches!(
        policy,
        Policy::Threshold { .. } | Policy::CapacityThreshold { .. }
    )
}

/// The batch threshold of the paper-style [`Policy::Threshold`] rule:
/// `⌈(resident + batch)/n⌉ + slack`. Also the flat fallback threshold of
/// [`Policy::CapacityThreshold`] under uniform weights, where every bin's
/// capacity share collapses to the plain mean. `0` for non-threshold
/// policies (never consulted).
pub(crate) fn batch_threshold(policy: Policy, resident: u64, bins: usize, batch_len: u64) -> u32 {
    match policy {
        Policy::Threshold { slack, .. } | Policy::CapacityThreshold { slack, .. } => {
            let mean = (resident + batch_len).div_ceil(bins as u64);
            mean.min(u32::MAX as u64) as u32 + slack
        }
        _ => 0,
    }
}

/// Fills `out` with the per-bin thresholds
/// `⌈(active_resident + batch)·w_i/W_active⌉ + slack` of
/// [`Policy::CapacityThreshold`], scattered into a **capacity-length**
/// vector (`out[b]` for active slot `b`; entries of non-active slots are `0`
/// and never consulted, since policies only sample active candidates);
/// leaves it empty (flat-threshold fallback) for every other configuration so
/// no per-batch `O(n)` work is added to them. `active_weights` is the resolve
/// restricted to the `active` slots and `resident` the balls in them, so
/// pricing happens over the surviving weight mass only.
pub(crate) fn fill_capacity_thresholds_into(
    policy: Policy,
    active_weights: Option<&ResolvedWeights>,
    active: &[u32],
    resident: u64,
    capacity: usize,
    batch_len: u64,
    out: &mut Vec<u32>,
) {
    out.clear();
    if let (Policy::CapacityThreshold { slack, .. }, Some(weights)) = (policy, active_weights) {
        let post = (resident + batch_len) as f64;
        out.resize(capacity, 0);
        for (i, &bin) in active.iter().enumerate() {
            let fair = (post * weights.share(i)).ceil();
            out[bin as usize] = (fair as u64).min(u32::MAX as u64) as u32 + slack;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pba_model::weights::BinWeights;

    const CAPACITY_THRESHOLD: Policy = Policy::CapacityThreshold { d: 2, slack: 1 };

    #[test]
    fn gap_of_handles_empty_and_weighted_paths() {
        let scratch = &mut Vec::new();
        assert_eq!(gap_of_loads(&[], None, None, scratch), 0.0);
        assert_eq!(gap_of_loads(&[4, 0], None, None, scratch), 2.0);
        let weights = BinWeights::explicit(vec![3.0, 1.0]).resolve(2).unwrap();
        // max(3/3, 3/1) − 6/4.
        assert_eq!(gap_of_loads(&[3, 3], None, Some(&weights), scratch), 1.5);
    }

    #[test]
    fn batch_threshold_only_prices_threshold_policies() {
        assert_eq!(batch_threshold(Policy::TwoChoice, 100, 4, 4), 0);
        // ⌈(100 + 4)/4⌉ + 2 = 28.
        assert_eq!(
            batch_threshold(Policy::Threshold { d: 2, slack: 2 }, 100, 4, 4),
            28
        );
        assert_eq!(batch_threshold(CAPACITY_THRESHOLD, 0, 4, 8), 3);
    }

    #[test]
    fn capacity_thresholds_follow_weight_shares() {
        let weights = BinWeights::explicit(vec![2.0, 1.0, 1.0])
            .resolve(3)
            .unwrap();
        let every_bin = [0u32, 1, 2];
        let mut out = Vec::new();
        let fill = |policy, weights, out: &mut Vec<u32>| {
            fill_capacity_thresholds_into(policy, weights, &every_bin, 0, 3, 8, out)
        };
        fill(CAPACITY_THRESHOLD, Some(&weights), &mut out);
        // Shares 1/2, 1/4, 1/4 of 8 balls → ⌈4⌉+1, ⌈2⌉+1, ⌈2⌉+1.
        assert_eq!(out, vec![5, 3, 3]);
        // Every other configuration leaves the vector empty.
        fill(Policy::TwoChoice, Some(&weights), &mut out);
        assert!(out.is_empty());
        fill(CAPACITY_THRESHOLD, None, &mut out);
        assert!(out.is_empty(), "uniform weights use the flat threshold");
    }

    #[test]
    fn active_gap_matches_a_compacted_load_vector() {
        let loads = vec![4u32, 99, 2, 99, 6];
        let active = vec![0u32, 2, 4];
        let mut scratch = Vec::new();
        let gap = gap_of_loads(&loads, Some(&active), None, &mut scratch);
        assert_eq!(scratch, vec![4, 2, 6]);
        assert_eq!(gap, gap_of_loads(&[4, 2, 6], None, None, &mut Vec::new()));
    }

    #[test]
    fn active_capacity_thresholds_scatter_into_slot_space() {
        // Capacity 5, active slots {0, 3, 4} with surviving weights 2:1:1.
        let active = vec![0u32, 3, 4];
        let weights = BinWeights::explicit(vec![2.0, 1.0, 1.0])
            .resolve(3)
            .unwrap();
        let mut out = Vec::new();
        fill_capacity_thresholds_into(
            CAPACITY_THRESHOLD,
            Some(&weights),
            &active,
            0,
            5,
            8,
            &mut out,
        );
        // Same shares as the compacted test: ⌈4⌉+1, ⌈2⌉+1, ⌈2⌉+1, scattered.
        assert_eq!(out, vec![5, 0, 0, 3, 3]);
        // Uniform survivors leave the vector empty (flat threshold path).
        fill_capacity_thresholds_into(CAPACITY_THRESHOLD, None, &active, 0, 5, 8, &mut out);
        assert!(out.is_empty());
    }
}
