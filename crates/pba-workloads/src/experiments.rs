//! The reproduction experiments E1–E19 (see DESIGN.md for the full index).
//! E1–E9 validate the SPAA'19 paper; E10–E12 measure the streaming engine of
//! `pba-stream` in the batched/stale-information model (Los–Sauerwald 2022),
//! with E12 exercising both load- and capacity-proportional churn through the
//! handle-based router surface; E13 measures weighted multi-backend routing
//! over heterogeneous capacity tiers (streaming policies plus the weighted
//! asymmetric algorithm), including the weighted Θ(b/W) staleness fit; E14
//! measures **runtime reweighting** — a capacity change applied to a running
//! stream at a batch boundary; E15 measures the **execution layer** — drain
//! throughput vs thread count at the shortest batch the drain splits; E16
//! measures the **concurrent serving core** — route throughput vs caller
//! threads through one shared `ConcurrentRouter` handle, with conservation
//! and 1-caller bit-identity checked in-table; E17 measures the
//! **observability layer** under serving load — loopback clients over the
//! TCP line-protocol front-end, with route latency quantiles from the
//! server's own histogram and the no-silent-drops counter ledger summed
//! in-table; E18 measures the **replay
//! and fault-injection harness** — a recorded trace replayed clean and under
//! every scripted fault class of `pba-replay`, each fault firing its named
//! counter while conservation and ledger invariants hold; E19 measures
//! **elastic membership** — the canonical autoscaling shapes (ramp-up, flash
//! crowd, rolling restart, scale-to-zero) run as scripted `ScenarioConfig`s
//! against a live router, with migration volume, the minimum active fraction
//! and the final gap compared against a never-scaled cluster's two-choice
//! envelope.
//!
//! The paper is a theory paper without numbered tables/figures, so each
//! experiment here plays the role of a table: it validates one theorem, claim or
//! message bound and reports the measured quantity next to the paper's
//! prediction. Every function has a `quick` mode (small instances, used by the
//! test-suite and CI) and a full mode (recorded in EXPERIMENTS.md).
//! [`EXPERIMENTS`] lists them all by id; `gen_tables` runs that list, and
//! `tests/tables_golden.rs` pins every quick table's pinned cells.

use pba_algorithms::{
    AsymmetricAllocator, HeavyAllocator, HeavyConfig, LightAllocator, NaiveThresholdAllocator,
    TrivialAllocator, WeightedAsymmetricAllocator,
};
use pba_baselines::{
    AlwaysGoLeftAllocator, BatchedTwoChoiceAllocator, GreedyDAllocator, SingleChoiceAllocator,
};
use pba_concurrent::{
    measure_speedup, run_actor_threshold, run_concurrent_heavy, run_concurrent_threshold,
};
use pba_lowerbound::{
    lower_bound_round_prediction, measure_rounds_to_finish, rejection,
    simulate_degree_d_by_degree_1, ClassDecomposition,
};
use pba_model::engine::run_count_engine;
use pba_model::protocol::FixedThresholdProtocol;
use pba_model::weights::BinWeights;
use pba_model::Allocator;
use pba_stats::{log_log2, log_star, power_law_exponent, Align, Cell, SeedAggregate, Table};
use pba_stream::{
    run_scenario, ArrivalProcess, ChurnMode, Policy, ReweightLog, ScenarioConfig, StreamAllocator,
    StreamConfig,
};

use crate::config::SweepConfig;
use crate::runner::{run_sweep, summaries_to_table};

/// Number of seeds per configuration.
fn seeds(quick: bool) -> u64 {
    if quick {
        2
    } else {
        5
    }
}

/// E1 — Theorem 1 / Theorem 6: `A_heavy` achieves `m/n + O(1)` load in
/// `≈ log₂log₂(m/n) + log* n` rounds.
pub fn e1_heavy_load_and_rounds(quick: bool) -> Table {
    let (ns, ratios, cap): (Vec<usize>, Vec<u64>, u64) = if quick {
        (vec![128, 256], vec![16, 256], 1 << 18)
    } else {
        (
            vec![256, 1024, 4096],
            vec![16, 64, 256, 1024, 4096],
            1 << 24,
        )
    };
    let sweep = SweepConfig::cross("E1", &ns, &ratios, seeds(quick), cap);
    let mut table = Table::with_alignments(
        "E1: A_heavy — maximal load and round count vs the Theorem 1 prediction",
        &[
            ("n", Align::Right),
            ("m/n", Align::Right),
            ("excess mean", Align::Right),
            ("excess max", Align::Right),
            ("rounds mean", Align::Right),
            ("rounds max", Align::Right),
            ("phase1 rounds", Align::Right),
            ("predicted rounds", Align::Right),
            ("leftover/n after phase1", Align::Right),
            ("complete", Align::Left),
        ],
    );
    let alloc = HeavyAllocator::default();
    for inst in &sweep.instances {
        let m = inst.m();
        let mut agg = SeedAggregate::new();
        let mut complete = true;
        for seed in 0..sweep.seeds {
            let (out, trace) = alloc.allocate_traced(m, inst.n, seed);
            complete &= out.is_complete(m);
            agg.record("excess", out.excess(m) as f64);
            agg.record("rounds", out.rounds as f64);
            agg.record("phase1", trace.phase1_rounds as f64);
            agg.record(
                "leftover_ratio",
                trace.leftover_after_phase1 as f64 / inst.n as f64,
            );
        }
        let predicted = log_log2(inst.ratio as f64).ceil() + log_star(inst.n as f64) as f64 + 2.0;
        table.push_row([
            Cell::from(inst.n),
            Cell::from(inst.ratio),
            Cell::from(agg.mean("excess")),
            Cell::from(agg.max("excess")),
            Cell::from(agg.mean("rounds")),
            Cell::from(agg.max("rounds")),
            Cell::from(agg.mean("phase1")),
            Cell::from(predicted),
            Cell::from(agg.mean("leftover_ratio")),
            Cell::from(if complete { "yes" } else { "NO" }),
        ]);
    }
    table
}

/// E2 — Claims 1–4: the per-round trajectory of unallocated balls follows
/// `m̃_{i+1} = m̃_i^{2/3} · n^{1/3}`.
pub fn e2_trajectory(quick: bool) -> Table {
    let (n, ratio) = if quick {
        (256usize, 256u64)
    } else {
        (1024usize, 4096u64)
    };
    let m = n as u64 * ratio;
    let alloc = HeavyAllocator::default();
    let (out, trace) = alloc.allocate_traced(m, n, 0);
    let mut table = Table::with_alignments(
        "E2: unallocated-ball trajectory of A_heavy vs the m̃_i recursion",
        &[
            ("round", Align::Right),
            ("measured unallocated", Align::Right),
            ("predicted m̃_i", Align::Right),
            ("measured / predicted", Align::Right),
            ("threshold T_i", Align::Right),
        ],
    );
    for rec in out.per_round.iter().take(trace.phase1_rounds) {
        let predicted = trace
            .schedule
            .predicted_remaining(rec.round)
            .unwrap_or(f64::NAN);
        let ratio_cell = if predicted > 0.0 {
            rec.unallocated_before as f64 / predicted
        } else {
            f64::NAN
        };
        table.push_row([
            Cell::from(rec.round),
            Cell::from(rec.unallocated_before),
            Cell::from(predicted),
            Cell::from(ratio_cell),
            Cell::from(rec.global_threshold.unwrap_or(0)),
        ]);
    }
    table
}

/// E3 — Theorem 6's message bounds: `O(m)` total, `O(1)` expected per ball,
/// `O(log n)` per ball w.h.p., `(1+o(1))·m/n + O(log n)` per bin.
pub fn e3_messages(quick: bool) -> Table {
    let (ns, ratios, cap): (Vec<usize>, Vec<u64>, u64) = if quick {
        (vec![256], vec![64, 256], 1 << 18)
    } else {
        (vec![1024, 4096], vec![64, 256, 1024], 1 << 23)
    };
    let sweep = SweepConfig::cross("E3", &ns, &ratios, seeds(quick), cap);
    let mut table = Table::with_alignments(
        "E3: A_heavy message complexity vs the Theorem 6 bounds",
        &[
            ("n", Align::Right),
            ("m/n", Align::Right),
            ("requests / m", Align::Right),
            ("total msgs / m", Align::Right),
            ("mean msgs per ball", Align::Right),
            ("max msgs per ball", Align::Right),
            ("O(log n) reference", Align::Right),
            ("max bin received", Align::Right),
            ("bin bound m/n+3√(m/n·ln n)", Align::Right),
        ],
    );
    let alloc = HeavyAllocator::new(HeavyConfig {
        track_per_ball: true,
        ..HeavyConfig::default()
    });
    for inst in &sweep.instances {
        let m = inst.m();
        let mut agg = SeedAggregate::new();
        for seed in 0..sweep.seeds {
            let out = alloc.allocate(m, inst.n, seed);
            agg.record("req_per_m", out.messages.requests as f64 / m as f64);
            agg.record("total_per_m", out.messages.total() as f64 / m as f64);
            agg.record("mean_ball", out.census.mean_ball_sent());
            agg.record("max_ball", out.census.max_ball_sent() as f64);
            agg.record("max_bin", out.census.max_bin_received() as f64);
        }
        let mean = inst.ratio as f64;
        let bin_bound = mean + 3.0 * (mean * (inst.n as f64).ln()).sqrt();
        table.push_row([
            Cell::from(inst.n),
            Cell::from(inst.ratio),
            Cell::from(agg.mean("req_per_m")),
            Cell::from(agg.mean("total_per_m")),
            Cell::from(agg.mean("mean_ball")),
            Cell::from(agg.max("max_ball")),
            Cell::from((inst.n as f64).log2()),
            Cell::from(agg.max("max_bin")),
            Cell::from(bin_bound),
        ]);
    }
    table
}

/// E4 — the lower bound (Theorems 2 and 7): per-phase rejections scale like
/// `√(Mn)/t`, and fixed-threshold ("naive") algorithms need far more rounds than
/// `A_heavy`, which itself tracks the `log log(m/n)` prediction.
pub fn e4_lower_bound(quick: bool) -> Vec<Table> {
    let n = if quick { 256usize } else { 1024 };
    let ratios: Vec<u64> = if quick {
        vec![64, 256]
    } else {
        vec![64, 256, 1024, 4096]
    };
    let n_seeds = seeds(quick);

    // (a) Single-phase rejection census vs the Theorem 7 reference.
    let mut rejections = Table::with_alignments(
        "E4a: single-phase rejections vs the Theorem 7 prediction Ω(√(Mn)/t)",
        &[
            ("n", Align::Right),
            ("M/n", Align::Right),
            ("capacity layout", Align::Left),
            ("rejected mean", Align::Right),
            ("√(Mn)/t reference", Align::Right),
            ("constant estimate", Align::Right),
            ("expected-rejection LB (Cor. 1)", Align::Right),
        ],
    );
    for &ratio in &ratios {
        let m = n as u64 * ratio;
        for (layout, caps) in [
            ("uniform +1", rejection::uniform_capacities(m, n, 1)),
            ("skewed +2/0", rejection::skewed_capacities(m, n, 1)),
        ] {
            let mut agg = SeedAggregate::new();
            let mut reference = 0.0;
            for seed in 0..n_seeds {
                let census = rejection::run_rejection_phase(m, &caps, seed);
                agg.record("rejected", census.rejected as f64);
                agg.record("constant", census.constant_estimate());
                reference = census.reference;
            }
            let decomposition = ClassDecomposition::new(m, &caps);
            rejections.push_row([
                Cell::from(n),
                Cell::from(ratio),
                Cell::from(layout),
                Cell::from(agg.mean("rejected")),
                Cell::from(reference),
                Cell::from(agg.mean("constant")),
                Cell::from(decomposition.expected_rejections_lower_bound(m, n)),
            ]);
        }
    }

    // (b) Round counts: naive fixed threshold vs A_heavy vs the predictions.
    let mut rounds = Table::with_alignments(
        "E4b: rounds to completion — naive fixed threshold vs A_heavy vs predictions",
        &[
            ("n", Align::Right),
            ("m/n", Align::Right),
            ("naive(+1) rounds", Align::Right),
            ("naive(+4) rounds", Align::Right),
            ("A_heavy rounds", Align::Right),
            ("lower-bound prediction", Align::Right),
            ("log2 n (naive reference)", Align::Right),
        ],
    );
    let seed_list: Vec<u64> = (0..n_seeds).collect();
    for &ratio in &ratios {
        let m = n as u64 * ratio;
        let (naive1, _) =
            measure_rounds_to_finish(&NaiveThresholdAllocator::new(1, 1), m, n, &seed_list);
        let (naive4, _) =
            measure_rounds_to_finish(&NaiveThresholdAllocator::new(4, 1), m, n, &seed_list);
        let (heavy, _) = measure_rounds_to_finish(&HeavyAllocator::default(), m, n, &seed_list);
        rounds.push_row([
            Cell::from(n),
            Cell::from(ratio),
            Cell::from(naive1),
            Cell::from(naive4),
            Cell::from(heavy),
            Cell::from(lower_bound_round_prediction(m, n, 4.0) as u64),
            Cell::from((n as f64).log2()),
        ]);
    }

    vec![rejections, rounds]
}

/// E5 — Theorem 3: the asymmetric algorithm finishes in a constant number of
/// rounds with `m/n + O(1)` load and `(1+o(1))·m/n + O(log n)` messages per bin.
pub fn e5_asymmetric(quick: bool) -> Table {
    let (ns, ratios, cap): (Vec<usize>, Vec<u64>, u64) = if quick {
        (vec![256], vec![4, 64, 256], 1 << 18)
    } else {
        (vec![1024, 4096], vec![4, 64, 1024, 4096], 1 << 23)
    };
    let sweep = SweepConfig::cross("E5", &ns, &ratios, seeds(quick), cap);
    let mut table = Table::with_alignments(
        "E5: asymmetric superbin algorithm — rounds, load and per-bin messages (Theorem 3)",
        &[
            ("n", Align::Right),
            ("m/n", Align::Right),
            ("rounds mean", Align::Right),
            ("rounds max", Align::Right),
            ("bulk rounds", Align::Right),
            ("excess mean", Align::Right),
            ("excess max", Align::Right),
            ("max bin msgs", Align::Right),
            ("bin bound (1.35·m/n + 60·ln n)", Align::Right),
            ("preround", Align::Left),
        ],
    );
    let alloc = AsymmetricAllocator::default();
    for inst in &sweep.instances {
        let m = inst.m();
        let mut agg = SeedAggregate::new();
        let mut preround = false;
        for seed in 0..sweep.seeds {
            let (out, trace) = alloc.allocate_traced(m, inst.n, seed);
            agg.record("rounds", out.rounds as f64);
            agg.record("bulk", trace.bulk_rounds as f64);
            agg.record("excess", out.excess(m) as f64);
            agg.record("max_bin", out.census.max_bin_received() as f64);
            preround = trace.preround;
        }
        let bound = 1.35 * inst.ratio as f64 + 60.0 * (inst.n as f64).ln();
        table.push_row([
            Cell::from(inst.n),
            Cell::from(inst.ratio),
            Cell::from(agg.mean("rounds")),
            Cell::from(agg.max("rounds")),
            Cell::from(agg.mean("bulk")),
            Cell::from(agg.mean("excess")),
            Cell::from(agg.max("excess")),
            Cell::from(agg.max("max_bin")),
            Cell::from(bound),
            Cell::from(if preround { "yes" } else { "no" }),
        ]);
    }
    table
}

/// E6 — Theorem 5 (the `A_light` substrate): load ≤ 2, `log* n + O(1)` rounds,
/// `O(n)` messages for `n` balls into `n` bins.
pub fn e6_light(quick: bool) -> Table {
    let ns: Vec<usize> = if quick {
        vec![1 << 10, 1 << 12]
    } else {
        vec![1 << 10, 1 << 12, 1 << 14, 1 << 16, 1 << 18]
    };
    let n_seeds = seeds(quick);
    let mut table = Table::with_alignments(
        "E6: A_light (LW16 substrate) — rounds, load and messages (Theorem 5)",
        &[
            ("n", Align::Right),
            ("rounds mean", Align::Right),
            ("rounds max", Align::Right),
            ("log* n + 4 reference", Align::Right),
            ("max load (bound 2)", Align::Right),
            ("msgs per ball mean", Align::Right),
        ],
    );
    let alloc = LightAllocator::default();
    for &n in &ns {
        let mut agg = SeedAggregate::new();
        for seed in 0..n_seeds {
            let out = alloc.allocate(n as u64, n, seed);
            agg.record("rounds", out.rounds as f64);
            agg.record("max_load", out.max_load() as f64);
            agg.record("msgs", out.messages.total() as f64 / n as f64);
        }
        table.push_row([
            Cell::from(n),
            Cell::from(agg.mean("rounds")),
            Cell::from(agg.max("rounds")),
            Cell::from(log_star(n as f64) as u64 + 4),
            Cell::from(agg.max("max_load")),
            Cell::from(agg.mean("msgs")),
        ]);
    }
    table
}

/// E7 — the baseline landscape of the introduction: single-choice vs `Greedy[2]`
/// vs always-go-left vs batched two-choice vs the trivial deterministic sweep vs
/// the naive threshold strawman vs `A_heavy` vs the asymmetric algorithm.
pub fn e7_baselines(quick: bool) -> Table {
    let (n, ratios, cap): (usize, Vec<u64>, u64) = if quick {
        (256, vec![16, 256], 1 << 18)
    } else {
        (1024, vec![16, 256, 4096], 1 << 23)
    };
    let sweep = SweepConfig::cross("E7", &[n], &ratios, seeds(quick), cap);
    let heavy = HeavyAllocator::default();
    let asymmetric = AsymmetricAllocator::default();
    let single = SingleChoiceAllocator::default();
    let greedy = GreedyDAllocator::new(2);
    let agl = AlwaysGoLeftAllocator::new(2);
    let batched = BatchedTwoChoiceAllocator::default();
    let naive = NaiveThresholdAllocator::new(1, 1);
    let trivial = TrivialAllocator;
    let allocators: Vec<&dyn Allocator> = vec![
        &single,
        &greedy,
        &agl,
        &batched,
        &naive,
        &trivial,
        &heavy,
        &asymmetric,
    ];
    let summaries = run_sweep(&allocators, &sweep);
    summaries_to_table(
        "E7: baseline landscape — excess load and round counts across algorithms",
        &summaries,
    )
}

/// E8 — engine fidelity and parallel speed-up: the agent engine, the count
/// engine, the shared-memory executor and the actor executor agree on the
/// aggregate behaviour of the same protocol; plus wall-clock speed-up of the
/// shared-memory executor over rayon thread counts.
pub fn e8_engines(quick: bool) -> Vec<Table> {
    let (m, n) = if quick {
        (1u64 << 16, 1usize << 8)
    } else {
        (1u64 << 20, 1usize << 10)
    };
    let threshold = (m / n as u64) as u32 + 8;

    let mut fidelity = Table::with_alignments(
        "E8a: execution-substrate fidelity — same protocol, four executors",
        &[
            ("executor", Align::Left),
            ("max load", Align::Right),
            ("excess", Align::Right),
            ("rounds", Align::Right),
            ("unallocated", Align::Right),
        ],
    )
    // The shared-memory executor's balls race for bin capacity on atomics,
    // so its round count depends on how the worker threads interleave.
    .varying(&["rounds"]);
    let ideal = m.div_ceil(n as u64);

    let mut fixed = FixedThresholdProtocol::new(threshold, 1);
    fixed.max_rounds = 10_000;
    let agent = pba_model::engine::run_agent_engine(
        &fixed,
        m,
        n,
        3,
        &pba_model::engine::EngineConfig::sequential(),
    );
    fidelity.push_row([
        Cell::from("agent engine (model)"),
        Cell::from(*agent.loads.iter().max().unwrap() as u64),
        Cell::from(*agent.loads.iter().max().unwrap() as i64 - ideal as i64),
        Cell::from(agent.rounds),
        Cell::from(agent.remaining),
    ]);
    let count = run_count_engine(&fixed, m, n, 3);
    fidelity.push_row([
        Cell::from("count engine (multinomial)"),
        Cell::from(*count.loads.iter().max().unwrap() as u64),
        Cell::from(*count.loads.iter().max().unwrap() as i64 - ideal as i64),
        Cell::from(count.rounds),
        Cell::from(count.remaining),
    ]);
    let shared = run_concurrent_threshold(m, n, threshold, 10_000, 3);
    fidelity.push_row([
        Cell::from("shared-memory (atomics + rayon)"),
        Cell::from(*shared.loads.iter().max().unwrap() as u64),
        Cell::from(shared.excess(m)),
        Cell::from(shared.rounds),
        Cell::from(shared.unallocated),
    ]);
    let actor = run_actor_threshold(m, n, threshold, 10_000, 4, 3);
    fidelity.push_row([
        Cell::from("actor (crossbeam channels)"),
        Cell::from(*actor.loads.iter().max().unwrap() as u64),
        Cell::from(actor.excess(m)),
        Cell::from(actor.rounds),
        Cell::from(actor.unallocated),
    ]);
    let heavy_concurrent = run_concurrent_heavy(m, n, 3);
    fidelity.push_row([
        Cell::from("shared-memory A_heavy schedule"),
        Cell::from(*heavy_concurrent.loads.iter().max().unwrap() as u64),
        Cell::from(heavy_concurrent.excess(m)),
        Cell::from(heavy_concurrent.rounds),
        Cell::from(heavy_concurrent.unallocated),
    ]);

    let threads: Vec<usize> = if quick { vec![1, 2] } else { vec![1, 2, 4, 8] };
    let mut speedup = Table::with_alignments(
        "E8b: shared-memory executor wall-clock vs rayon thread count",
        &[
            ("threads", Align::Right),
            ("seconds", Align::Right),
            ("speedup vs 1 thread", Align::Right),
        ],
    )
    // Wall-clock readings.
    .varying(&["seconds", "speedup vs 1 thread"]);
    for point in measure_speedup(m, n, threshold, &threads, 5) {
        speedup.push_row([
            Cell::from(point.threads),
            Cell::from(point.seconds),
            Cell::from(point.speedup),
        ]);
    }
    vec![fidelity, speedup]
}

/// E9 — ablations: the slack exponent of the threshold schedule (the paper's
/// `2/3` vs alternatives) and the degree-`d` → degree-1 simulation of Lemmas 2–3.
pub fn e9_ablation(quick: bool) -> Vec<Table> {
    let (m, n) = if quick {
        (1u64 << 16, 1usize << 8)
    } else {
        (1u64 << 22, 1usize << 10)
    };
    let n_seeds = seeds(quick);

    let mut exponents = Table::with_alignments(
        "E9a: ablation of the threshold slack exponent α (paper: 2/3)",
        &[
            ("alpha", Align::Right),
            ("phase1 rounds", Align::Right),
            ("total rounds mean", Align::Right),
            ("excess mean", Align::Right),
            ("excess max", Align::Right),
            ("leftover/n after phase1", Align::Right),
        ],
    );
    for &alpha in &[0.5f64, 2.0 / 3.0, 0.75, 0.9] {
        let alloc = HeavyAllocator::new(HeavyConfig {
            slack_exponent: alpha,
            ..HeavyConfig::default()
        });
        let mut agg = SeedAggregate::new();
        for seed in 0..n_seeds {
            let (out, trace) = alloc.allocate_traced(m, n, seed);
            agg.record("phase1", trace.phase1_rounds as f64);
            agg.record("rounds", out.rounds as f64);
            agg.record("excess", out.excess(m) as f64);
            agg.record("leftover", trace.leftover_after_phase1 as f64 / n as f64);
        }
        exponents.push_row([
            Cell::from(alpha),
            Cell::from(agg.mean("phase1")),
            Cell::from(agg.mean("rounds")),
            Cell::from(agg.mean("excess")),
            Cell::from(agg.max("excess")),
            Cell::from(agg.mean("leftover")),
        ]);
    }

    let mut degrees = Table::with_alignments(
        "E9b: degree-d algorithms vs their degree-1 simulations (Lemmas 2–3)",
        &[
            ("degree", Align::Right),
            ("direct rounds", Align::Right),
            ("simulated rounds", Align::Right),
            ("round ratio", Align::Right),
            ("max-load difference", Align::Right),
        ],
    );
    let (sm, sn) = if quick {
        (1u64 << 14, 1usize << 7)
    } else {
        (1u64 << 17, 1usize << 8)
    };
    let threshold = (sm / sn as u64) as u32 + 2;
    for degree in 1..=3usize {
        let cmp = simulate_degree_d_by_degree_1(sm, sn, threshold, degree, 7);
        degrees.push_row([
            Cell::from(degree),
            Cell::from(cmp.direct.rounds),
            Cell::from(cmp.simulated.rounds),
            Cell::from(cmp.round_ratio()),
            Cell::from(cmp.max_load_difference()),
        ]);
    }

    vec![exponents, degrees]
}

/// E10 — the streaming engine's batch-size sweep: with batches of size `b`
/// every ball sees loads that are up to `b` placements stale, and the
/// Los–Sauerwald bound says the two-choice gap degrades gracefully (Θ(b/n)
/// for large batches) instead of collapsing to one-choice behaviour. The
/// `Θ(b/n)` column fits a power law `gap ∝ (b/n)^α` over the staleness-
/// dominated rows (`b/n ≥ 4`) via [`pba_stats::power_law_exponent`] and
/// reports pass/fail for `α ≈ 1`, like E2 does for the `m̃_i` recursion.
pub fn e10_stream_batch_sweep(quick: bool) -> Table {
    let (n, ratio, n_seeds): (usize, u64, u64) = if quick { (256, 64, 2) } else { (1024, 256, 5) };
    let m = n as u64 * ratio;
    // Quick mode keeps three points in the staleness-dominated regime
    // (b/n ≥ 4) so the power-law fit below is never a degenerate 2-point fit.
    let batch_factors: &[usize] = if quick {
        &[1, 4, 8, 16]
    } else {
        &[1, 4, 16, 64]
    };
    let mut table = Table::with_alignments(
        "E10: streaming two-choice — gap vs batch size (staleness window)",
        &[
            ("n", Align::Right),
            ("balls", Align::Right),
            ("batch b", Align::Right),
            ("b/n", Align::Right),
            ("final gap mean", Align::Right),
            ("max gap mean", Align::Right),
            ("one-choice final gap", Align::Right),
            ("gap/(b/n)", Align::Right),
            ("Θ(b/n) fit", Align::Left),
        ],
    );
    let mut rows: Vec<(usize, f64, f64, f64)> = Vec::new();
    for &factor in batch_factors {
        let batch = n * factor;
        let mut agg = SeedAggregate::new();
        for seed in 0..n_seeds {
            for (policy, key) in [(Policy::TwoChoice, "two"), (Policy::OneChoice, "one")] {
                let mut stream = StreamAllocator::new(
                    StreamConfig::new(n)
                        .policy(policy)
                        .batch_size(batch)
                        .seed(seed),
                );
                let mut keys = pba_model::rng::SplitMix64::for_stream(seed, 0xe10, factor as u64);
                for _ in 0..m {
                    stream.push(keys.next_u64());
                }
                stream.flush();
                let final_gap = stream.gap_trajectory().last().copied().unwrap_or(0.0);
                agg.record(&format!("{key}_final"), final_gap);
                agg.record(&format!("{key}_max"), stream.gap_stats().max());
            }
        }
        rows.push((
            factor,
            agg.mean("two_final"),
            agg.mean("two_max"),
            agg.mean("one_final"),
        ));
    }
    // Los–Sauerwald Θ(b/n) check: fit gap ∝ (b/n)^α over the rows where
    // staleness dominates the additive log-n term (b/n ≥ 4); pass when the
    // fitted exponent is compatible with linear growth.
    let staleness: Vec<(f64, f64)> = rows
        .iter()
        .filter(|&&(factor, ..)| factor >= 4)
        .map(|&(factor, two_final, ..)| (factor as f64, two_final))
        .collect();
    let xs: Vec<f64> = staleness.iter().map(|&(x, _)| x).collect();
    let ys: Vec<f64> = staleness.iter().map(|&(_, y)| y).collect();
    let fit_cell = match power_law_exponent(&xs, &ys) {
        Some((alpha, r2)) => {
            let verdict = if (0.5..=1.5).contains(&alpha) {
                "ok"
            } else {
                "FAIL"
            };
            format!("α={alpha:.2} (R²={r2:.2}) {verdict}")
        }
        None => "n/a".to_string(),
    };
    for (factor, two_final, two_max, one_final) in rows {
        // The verdict only annotates the rows that participated in the fit.
        let fit = if factor >= 4 { fit_cell.as_str() } else { "" };
        table.push_row([
            Cell::from(n),
            Cell::from(m),
            Cell::from(n * factor),
            Cell::from(factor),
            Cell::from(two_final),
            Cell::from(two_max),
            Cell::from(one_final),
            Cell::from(two_final / factor as f64),
            Cell::from(fit),
        ]);
    }
    table
}

/// E11 — skewed (Zipfian) keyed traffic: hot keys hash to fixed candidate
/// sets, so the engine behaves like a consistent-hashing router under a
/// power-law workload. Two-choice keeps its advantage over one-choice until
/// single keys dominate whole bins.
pub fn e11_stream_skew_sweep(quick: bool) -> Table {
    let (n, ratio, n_seeds): (usize, u64, u64) = if quick { (256, 64, 2) } else { (1024, 256, 5) };
    let m = n as u64 * ratio;
    let exponents: &[f64] = if quick {
        &[0.0, 0.9, 1.2]
    } else {
        &[0.0, 0.5, 0.9, 1.2, 1.5]
    };
    let ticks = 64u64;
    let rate = (m / ticks).max(1) as usize;
    let mut table = Table::with_alignments(
        "E11: streaming gap vs key skew (Zipf exponent), one- vs two-choice vs threshold",
        &[
            ("n", Align::Right),
            ("zipf s", Align::Right),
            ("keys", Align::Right),
            ("one-choice gap", Align::Right),
            ("two-choice gap", Align::Right),
            ("threshold gap", Align::Right),
            ("two/one ratio", Align::Right),
        ],
    );
    let keys = 16 * n as u64;
    for &exponent in exponents {
        let mut agg = SeedAggregate::new();
        for seed in 0..n_seeds {
            let scenario = ScenarioConfig::growth(
                ticks,
                ArrivalProcess::Zipf {
                    keys,
                    exponent,
                    rate,
                },
            );
            for (policy, label) in [
                (Policy::OneChoice, "one"),
                (Policy::TwoChoice, "two"),
                (Policy::Threshold { d: 2, slack: 2 }, "thr"),
            ] {
                let report = run_scenario(
                    &scenario,
                    StreamConfig::new(n).policy(policy).batch_size(n).seed(seed),
                );
                agg.record(label, report.final_gap);
            }
        }
        let (one, two) = (agg.mean("one"), agg.mean("two"));
        table.push_row([
            Cell::from(n),
            Cell::from(exponent),
            Cell::from(keys),
            Cell::from(one),
            Cell::from(two),
            Cell::from(agg.mean("thr")),
            Cell::from(if one > 0.0 { two / one } else { f64::NAN }),
        ]);
    }
    table
}

/// E12 — churn: arrivals matched by departures after a warm-up, so the
/// system sits at a steady-state population while balls flow through it.
/// The online gap must stay bounded over time instead of growing with the
/// total number of arrivals. The weighted arm runs heterogeneous 4:2:1
/// capacity tiers under both service models: load-proportional departures
/// (M/M/∞) and **capacity-proportional** departures (service rate ∝ weight)
/// — the latter is only expressible through handle-based ticket releases,
/// since the churn driver must retire a specific resident of a
/// weight-sampled bin.
pub fn e12_stream_churn(quick: bool) -> Table {
    let (n, n_seeds): (usize, u64) = if quick { (128, 2) } else { (512, 5) };
    let ticks: u64 = if quick { 300 } else { 1000 };
    let warmup = ticks / 5;
    let rate = n / 2;
    let tiers = BinWeights::power_of_two_tiers(&[(n / 8, 2), (n / 4, 1), (5 * n / 8, 0)]);
    let mut table = Table::with_alignments(
        "E12: streaming under churn — steady-state gap and population",
        &[
            ("n", Align::Right),
            ("policy", Align::Left),
            ("weights", Align::Left),
            ("churn", Align::Left),
            ("ticks", Align::Right),
            ("arrived mean", Align::Right),
            ("departed mean", Align::Right),
            ("resident mean", Align::Right),
            ("final gap mean", Align::Right),
            ("max gap mean", Align::Right),
            ("max norm load", Align::Right),
        ],
    );
    let arms: Vec<(Policy, BinWeights, ChurnMode)> = vec![
        (
            Policy::OneChoice,
            BinWeights::Uniform,
            ChurnMode::LoadProportional,
        ),
        (
            Policy::TwoChoice,
            BinWeights::Uniform,
            ChurnMode::LoadProportional,
        ),
        (
            Policy::WeightedTwoChoice,
            tiers.clone(),
            ChurnMode::LoadProportional,
        ),
        (
            Policy::WeightedTwoChoice,
            tiers,
            ChurnMode::CapacityProportional,
        ),
    ];
    for (policy, weights, churn_mode) in arms {
        let mut agg = SeedAggregate::new();
        for seed in 0..n_seeds {
            let scenario = ScenarioConfig::growth(
                ticks,
                ArrivalProcess::Uniform {
                    keys: pba_stream::UNIQUE_KEYS,
                    rate,
                },
            )
            .with_churn(1.0, warmup)
            .with_churn_mode(churn_mode);
            let report = run_scenario(
                &scenario,
                StreamConfig::new(n)
                    .policy(policy)
                    .batch_size(n)
                    .seed(seed)
                    .weights(weights.clone()),
            );
            agg.record("arrived", report.arrived as f64);
            agg.record("departed", report.departed as f64);
            agg.record("resident", report.router.resident() as f64);
            agg.record("final_gap", report.final_gap);
            agg.record("max_gap", report.max_gap);
            agg.record("max_norm", report.router.max_normalized_load());
        }
        table.push_row([
            Cell::from(n),
            Cell::from(policy.name()),
            Cell::from(weights.name()),
            Cell::from(churn_mode.name()),
            Cell::from(ticks),
            Cell::from(agg.mean("arrived")),
            Cell::from(agg.mean("departed")),
            Cell::from(agg.mean("resident")),
            Cell::from(agg.mean("final_gap")),
            Cell::from(agg.mean("max_gap")),
            Cell::from(agg.mean("max_norm")),
        ]);
    }
    table
}

/// E13 — weighted multi-backend routing: heterogeneous capacity tiers under
/// the streaming engine. The weight-oblivious two-choice baseline equalises
/// *raw* loads, overloading small backends in proportion to the skew; the
/// weighted two-choice and capacity-threshold policies balance the
/// **normalized** load `load_i / w_i` and must keep the max normalized load
/// near the capacity-fair level `m/W` regardless of the tier mix. The asym
/// column cross-checks the one-shot side: the weighted asymmetric superbin
/// algorithm's normalized excess stays `O(1)` on the same tier mix.
///
/// The batch-sweep rows (4:2:1 mix, `b/n ∈ {4, 8, 16}`) carry the
/// **weighted Los–Sauerwald check**: the weighted analogue of E10's Θ(b/n)
/// law says the weighted gap (max normalized load − fair `m/W`) grows like
/// `Θ(b/W)` once staleness dominates. The fit column fits
/// `norm gap ∝ (b/W)^α` over those rows via
/// [`pba_stats::power_law_exponent`] and reports pass/fail for `α ≈ 1`,
/// mirroring E10's verdict.
pub fn e13_weighted_routing(quick: bool) -> Table {
    let (n, ratio, n_seeds): (usize, u64, u64) = if quick { (128, 64, 2) } else { (512, 256, 5) };
    let m = n as u64 * ratio;
    // Tier mixes over a fixed n (multiples of 16), from identical bins to an
    // 8:4:2:1 capacity pyramid — all at batch = n — plus the batch sweep on
    // the 4:2:1 mix that powers the Θ(b/W) fit (three staleness-dominated
    // points in quick and full mode alike).
    /// One E13 arm: (tier label, tier layout, batch factor b/n).
    type Arm = (&'static str, Vec<(usize, u32)>, usize);
    let tiers_421: Vec<(usize, u32)> = vec![(n / 8, 2), (n / 4, 1), (5 * n / 8, 0)];
    let mut arms: Vec<Arm> = vec![
        ("uniform", vec![(n, 0)], 1),
        ("2:1", vec![(n / 4, 1), (3 * n / 4, 0)], 1),
        ("4:2:1", tiers_421.clone(), 1),
    ];
    if !quick {
        arms.push((
            "8:4:2:1",
            vec![(n / 16, 3), (n / 8, 2), (n / 4, 1), (9 * n / 16, 0)],
            1,
        ));
    }
    for factor in [4usize, 8, 16] {
        arms.push(("4:2:1", tiers_421.clone(), factor));
    }
    let mut table = Table::with_alignments(
        "E13: weighted multi-backend routing — max normalized load vs capacity skew",
        &[
            ("n", Align::Right),
            ("tiers", Align::Left),
            ("batch b", Align::Right),
            ("W/n", Align::Right),
            ("fair m/W", Align::Right),
            ("oblivious two-choice", Align::Right),
            ("weighted two-choice", Align::Right),
            ("capacity-threshold", Align::Right),
            ("weighted/oblivious", Align::Right),
            ("asym norm excess", Align::Right),
            ("norm gap/(b/W)", Align::Right),
            ("Θ(b/W) fit", Align::Left),
        ],
    );
    struct ArmResult {
        label: &'static str,
        factor: usize,
        total_weight: f64,
        fair: f64,
        oblivious: f64,
        weighted: f64,
        capacity: f64,
        asym_excess: Option<f64>,
    }
    let mut results: Vec<ArmResult> = Vec::new();
    for (label, tiers, factor) in arms {
        let weights = BinWeights::power_of_two_tiers(&tiers);
        let total_weight: f64 = weights.to_vec(n).iter().sum();
        let fair = m as f64 / total_weight;
        let mut agg = SeedAggregate::new();
        for seed in 0..n_seeds {
            for (policy, key) in [
                (Policy::TwoChoice, "oblivious"),
                (Policy::WeightedTwoChoice, "weighted"),
                (Policy::CapacityThreshold { d: 2, slack: 2 }, "capacity"),
            ] {
                let mut stream = StreamAllocator::new(
                    StreamConfig::new(n)
                        .policy(policy)
                        .batch_size(n * factor)
                        .seed(seed)
                        .weights(weights.clone()),
                );
                // Substream 0 for the historical batch = n rows (bit-stable
                // across report regenerations); the sweep rows get their own.
                let substream = if factor == 1 { 0 } else { factor as u64 };
                let mut keys = pba_model::rng::SplitMix64::for_stream(seed, 0xe13, substream);
                for _ in 0..m {
                    stream.push(keys.next_u64());
                }
                stream.flush();
                agg.record(key, stream.max_normalized_load());
            }
            if factor == 1 {
                let asym = WeightedAsymmetricAllocator::from_weights(&weights, n);
                let (out, _) = asym.allocate_traced(m, seed);
                debug_assert!(out.is_complete(m));
                agg.record("asym_excess", asym.normalized_excess(&out, m));
            }
        }
        results.push(ArmResult {
            label,
            factor,
            total_weight,
            fair,
            oblivious: agg.mean("oblivious"),
            weighted: agg.mean("weighted"),
            capacity: agg.mean("capacity"),
            asym_excess: (factor == 1).then(|| agg.mean("asym_excess")),
        });
    }
    // Weighted Los–Sauerwald Θ(b/W) check over the staleness-dominated batch
    // sweep (b/n ≥ 4): fit the weighted two-choice normalized gap
    // (max normalized load − fair) against b/W.
    let sweep: Vec<(f64, f64)> = results
        .iter()
        .filter(|arm| arm.factor >= 4)
        .map(|arm| {
            (
                (n * arm.factor) as f64 / arm.total_weight,
                arm.weighted - arm.fair,
            )
        })
        .collect();
    let xs: Vec<f64> = sweep.iter().map(|&(x, _)| x).collect();
    let ys: Vec<f64> = sweep.iter().map(|&(_, y)| y).collect();
    let fit_cell = match power_law_exponent(&xs, &ys) {
        Some((alpha, r2)) => {
            let verdict = if (0.5..=1.5).contains(&alpha) {
                "ok"
            } else {
                "FAIL"
            };
            format!("α={alpha:.2} (R²={r2:.2}) {verdict}")
        }
        None => "n/a".to_string(),
    };
    for arm in results {
        let b_over_w = (n * arm.factor) as f64 / arm.total_weight;
        // The verdict only annotates the rows that participated in the fit.
        let fit = if arm.factor >= 4 {
            fit_cell.as_str()
        } else {
            ""
        };
        table.push_row([
            Cell::from(n),
            Cell::from(arm.label),
            Cell::from(n * arm.factor),
            Cell::from(arm.total_weight / n as f64),
            Cell::from(arm.fair),
            Cell::from(arm.oblivious),
            Cell::from(arm.weighted),
            Cell::from(arm.capacity),
            Cell::from(arm.weighted / arm.oblivious),
            match arm.asym_excess {
                Some(excess) => Cell::from(excess),
                None => Cell::from(""),
            },
            Cell::from((arm.weighted - arm.fair) / b_over_w),
            Cell::from(fit),
        ]);
    }
    table
}

/// E14 — runtime reweighting: capacities change *while the stream runs*.
/// Each run routes the first half of the stream under a 4:2:1 tier mix, then
/// stages the inverted 1:2:4 mix via `set_weights` (applied at the next batch
/// boundary — a [`ReweightLog`] observer records exactly which one) and
/// routes the second half. The weighted gap spikes at the switch (the
/// resident distribution was balanced for the *old* capacities) and the
/// weight-aware policies work it back down; the last column verifies the
/// boundary semantics are **exact**: the post-switch drains must be
/// bit-identical to a fresh engine built with the new weights over the loads
/// at the switch.
pub fn e14_runtime_reweighting(quick: bool) -> Table {
    use std::sync::{Arc, Mutex};

    let (n, ratio, n_seeds): (usize, u64, u64) = if quick { (128, 64, 2) } else { (512, 256, 5) };
    let m = n as u64 * ratio;
    let half = m / 2; // multiple of the batch (= n), so the switch is boundary-aligned
    let before = BinWeights::power_of_two_tiers(&[(n / 8, 2), (n / 4, 1), (5 * n / 8, 0)]);
    let after = BinWeights::power_of_two_tiers(&[(5 * n / 8, 0), (n / 4, 1), (n / 8, 2)]);
    let mut table = Table::with_alignments(
        "E14: runtime reweighting — gap recovery after a mid-stream capacity change",
        &[
            ("n", Align::Right),
            ("policy", Align::Left),
            ("switch", Align::Left),
            ("reweight at batch", Align::Right),
            ("gap before switch", Align::Right),
            ("peak gap after", Align::Right),
            ("final gap", Align::Right),
            ("fresh-engine final gap", Align::Right),
            ("suffix identical", Align::Left),
        ],
    );
    for policy in [
        Policy::WeightedTwoChoice,
        Policy::CapacityThreshold { d: 2, slack: 2 },
    ] {
        let mut agg = SeedAggregate::new();
        let mut suffix_identical = true;
        let mut reweight_batch = 0u64;
        for seed in 0..n_seeds {
            let cfg = StreamConfig::new(n)
                .policy(policy)
                .batch_size(n)
                .seed(seed)
                .weights(before.clone());
            let mut stream = StreamAllocator::new(cfg.clone());
            let log = Arc::new(Mutex::new(ReweightLog::new()));
            stream.add_observer(log.clone());
            let mut keys = pba_model::rng::SplitMix64::for_stream(seed, 0xe14, 0);
            let first: Vec<u64> = (0..half).map(|_| keys.next_u64()).collect();
            let second: Vec<u64> = (0..m - half).map(|_| keys.next_u64()).collect();
            for &key in &first {
                stream.push(key);
            }
            stream.drain_ready();
            agg.record(
                "gap_before",
                stream.gap_trajectory().last().copied().unwrap_or(0.0),
            );
            let switch_batches = stream.gap_trajectory().len();
            let loads_at_switch = stream.loads();

            stream.set_weights(after.clone());
            for &key in &second {
                stream.push(key);
            }
            stream.flush();
            let suffix = &stream.gap_trajectory()[switch_batches..];
            agg.record(
                "peak_after",
                suffix.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            );
            agg.record("final", suffix.last().copied().unwrap_or(0.0));
            let records = log.lock().expect("observer lock").records().to_vec();
            assert_eq!(records.len(), 1, "exactly one reweighting must fire");
            reweight_batch = records[0].batch_index;

            // The exactness check: a fresh engine with the new weights over
            // the loads at the switch must drain the identical suffix.
            let mut fresh =
                StreamAllocator::with_resident_loads(cfg.weights(after.clone()), &loads_at_switch);
            for &key in &second {
                fresh.push(key);
            }
            fresh.flush();
            suffix_identical &= fresh.loads() == stream.loads() && fresh.gap_trajectory() == suffix;
            agg.record(
                "fresh_final",
                fresh.gap_trajectory().last().copied().unwrap_or(0.0),
            );
        }
        table.push_row([
            Cell::from(n),
            Cell::from(policy.name()),
            Cell::from(format!("{} → {}", before.name(), after.name())),
            Cell::from(reweight_batch),
            Cell::from(agg.mean("gap_before")),
            Cell::from(agg.mean("peak_after")),
            Cell::from(agg.mean("final")),
            Cell::from(agg.mean("fresh_final")),
            Cell::from(if suffix_identical { "yes" } else { "NO" }),
        ]);
    }
    table
}

/// E15 — the execution layer itself: end-to-end drain throughput of the
/// streaming engine vs its thread count, at the shortest batch the drain
/// splits (two [`PARALLEL_MIN_SPAN`](pba_stream::PARALLEL_MIN_SPAN) spans).
/// The "identical loads" column verifies the execution-layer invariant end
/// to end: every thread count must produce bit-identical loads, because
/// parallelism only partitions index ranges. On a 1-core host the threads
/// serialise, so the throughput and speedup columns are smoke numbers —
/// quick-mode rows routinely show speedup < 1 there (a thread spawn with no
/// core to run it on), which is not a regression; the speedup column header
/// carries the same smoke caveat E17's req/s column does.
pub fn e15_execution_layer(quick: bool) -> Table {
    use std::time::Instant;

    // Two spans: every row with more than one thread chooses each batch on
    // two threads.
    let batch = 2 * pba_stream::PARALLEL_MIN_SPAN;
    let (n, batches): (usize, usize) = if quick { (256, 4) } else { (1024, 64) };
    let m = (batch * batches) as u64;
    let mut table = Table::with_alignments(
        "E15: execution layer — drain throughput vs thread count at the shortest split batch",
        &[
            ("threads", Align::Right),
            ("drain ms", Align::Right),
            ("Mballs/s", Align::Right),
            ("speedup vs 1 (smoke on 1-core)", Align::Right),
            ("identical loads", Align::Left),
        ],
    )
    // Wall-clock readings.
    .varying(&["drain ms", "Mballs/s", "speedup vs 1 (smoke on 1-core)"]);

    let mut keys = pba_model::rng::SplitMix64::for_stream(7, 0xe15, 0);
    let keys: Vec<u64> = (0..m).map(|_| keys.next_u64()).collect();
    let run = |threads: usize| -> (f64, Vec<u32>) {
        let mut stream = StreamAllocator::new(
            StreamConfig::new(n)
                .batch_size(batch)
                .shards(8)
                .seed(7)
                .num_threads(threads),
        );
        for &key in &keys {
            stream.push(key);
        }
        let start = Instant::now();
        stream.drain_ready();
        (start.elapsed().as_secs_f64(), stream.loads())
    };

    let mut baseline = None;
    let mut reference: Option<Vec<u32>> = None;
    for threads in [1usize, 2, 4] {
        let (seconds, loads) = run(threads);
        let identical = *reference.get_or_insert_with(|| loads.clone()) == loads;
        let base = *baseline.get_or_insert(seconds);
        table.push_row([
            Cell::from(threads),
            Cell::from(seconds * 1e3),
            Cell::from(m as f64 / seconds / 1e6),
            Cell::from(base / seconds),
            Cell::from(if identical { "yes" } else { "NO" }),
        ]);
    }
    table
}

/// E16 — the concurrent serving core: route throughput vs caller threads,
/// all routing through **one shared `ConcurrentRouter` handle** (the
/// transport-less server loop of the ROADMAP's serving layer). Wall-clock
/// scales with callers only on multi-core hardware — on a 1-core container
/// the threads serialise and the throughput column is noise — so the
/// structural columns carry the reproduction: conservation at shutdown and
/// one batch boundary per `batch_size` routed balls (epoch == batches).
pub fn e16_concurrent_routing(quick: bool) -> Table {
    use pba_stream::ConcurrentRouter;
    use std::time::Instant;

    let (n, ratio): (usize, u64) = if quick { (256, 64) } else { (1024, 256) };
    let batch = n;
    let m = n as u64 * ratio;
    let callers_list: &[u64] = if quick { &[1, 2, 4] } else { &[1, 2, 4, 8] };
    let seed = 7u64;
    let mut table = Table::with_alignments(
        "E16: concurrent serving core — route throughput vs caller threads (one shared handle)",
        &[
            ("callers", Align::Right),
            ("routed", Align::Right),
            ("wall ms", Align::Right),
            ("Mroutes/s", Align::Right),
            ("speedup vs 1", Align::Right),
            ("batches", Align::Right),
            ("final gap", Align::Right),
            ("conserved", Align::Left),
        ],
    )
    // Wall-clock readings, and the gap: at k > 1 callers the interleaving
    // decides which stale snapshot each route reads.
    .varying(&["wall ms", "Mroutes/s", "speedup vs 1", "final gap"]);

    let mut baseline = None;
    for &callers in callers_list {
        let per_caller = m / callers;
        let router = ConcurrentRouter::new(StreamConfig::new(n).batch_size(batch).seed(seed));
        let start = Instant::now();
        std::thread::scope(|scope| {
            for t in 0..callers {
                let router = router.clone();
                scope.spawn(move || {
                    let mut keys = pba_model::rng::SplitMix64::for_stream(seed, 0xe16, t);
                    for _ in 0..per_caller {
                        router.route(keys.next_u64()).expect("infallible");
                    }
                });
            }
        });
        let seconds = start.elapsed().as_secs_f64();
        let base = *baseline.get_or_insert(seconds);
        let stats = router.stats();
        table.push_row([
            Cell::from(callers),
            Cell::from(stats.routed),
            Cell::from(seconds * 1e3),
            Cell::from(stats.routed as f64 / seconds / 1e6),
            Cell::from(base / seconds),
            Cell::from(stats.batches),
            Cell::from(stats.gap),
            Cell::from(if router.conserves_balls() {
                "yes"
            } else {
                "NO"
            }),
        ]);
    }
    table
}

/// E17 — the observability layer under serving load: loopback clients drive
/// a metrics-instrumented [`ConcurrentRouter`](pba_stream::ConcurrentRouter)
/// through the TCP line-protocol front-end
/// ([`ReactorServer`](pba_net::ReactorServer)), each connection routing its
/// keys and then releasing every ticket. The latency columns come from the
/// server's own `server.route_latency_ns` histogram (log-bucketed, ≤ 12.5 %
/// relative error), so the experiment also exercises the full metrics path:
/// per-connection local histograms merged at close, counters on every
/// route/release, and the no-silent-drops ledger — the drops column sums
/// every rejection/fallback counter and must read 0 for this well-behaved
/// workload, while conservation (`routed − released == resident == 0`) must
/// hold at every caller count. Throughput scales with callers only on
/// multi-core hardware; on a 1-core container the threads serialise and the
/// req/s column is a smoke number — read the structural columns instead.
pub fn e17_socket_serving(quick: bool) -> Table {
    use pba_net::{LineClient, ReactorConfig, ReactorServer};
    use pba_stream::ConcurrentRouter;
    use std::sync::Arc;
    use std::time::Instant;

    let (n, per_caller): (usize, u64) = if quick { (64, 512) } else { (256, 4_096) };
    let batch = n;
    let callers_list: &[u64] = if quick { &[1, 2, 4] } else { &[1, 2, 4, 8] };
    let seed = 17u64;
    let mut table = Table::with_alignments(
        "E17: observability under load — route/release through the TCP front-end, latency from the server's own histogram",
        &[
            ("callers", Align::Right),
            ("requests", Align::Right),
            ("wall ms", Align::Right),
            ("req/s", Align::Right),
            ("p50 us", Align::Right),
            ("p90 us", Align::Right),
            ("p99 us", Align::Right),
            ("batches", Align::Right),
            ("final gap", Align::Right),
            ("drops", Align::Right),
            ("conserved", Align::Left),
        ],
    )
    // Wall-clock readings: throughput and the server's latency histogram.
    .varying(&["wall ms", "req/s", "p50 us", "p90 us", "p99 us"]);

    for &callers in callers_list {
        let registry = Arc::new(pba_obs::MetricsRegistry::new());
        let router = ConcurrentRouter::with_metrics(
            StreamConfig::new(n).batch_size(batch).seed(seed),
            Arc::clone(&registry),
        );
        let server = ReactorServer::start(router, ReactorConfig::default()).expect("bind loopback");
        let addr = server.local_addr();
        let start = Instant::now();
        std::thread::scope(|scope| {
            for t in 0..callers {
                scope.spawn(move || {
                    let mut client = LineClient::connect(addr).expect("connect loopback");
                    let mut keys = pba_model::rng::SplitMix64::for_stream(seed, 0xe17, t);
                    let mut ids = Vec::with_capacity(per_caller as usize);
                    for _ in 0..per_caller {
                        let (_bin, id) = client.route(keys.next_u64()).expect("route over tcp");
                        ids.push(id);
                    }
                    for id in ids {
                        assert!(
                            client.release(id).expect("release over tcp").is_some(),
                            "every issued id releases once"
                        );
                    }
                });
            }
        });
        let seconds = start.elapsed().as_secs_f64();
        let requests = 2 * callers * per_caller; // one route + one release each
        let mut client = LineClient::connect(addr).expect("connect for flush");
        client.flush().expect("flush over tcp");
        let stats = server.router().stats();
        let conserved = server.router().conserves_balls() && server.router().resident() == 0;
        // Shutting down joins every reactor, which merges the per-connection
        // latency histograms — only then is the snapshot complete.
        server.shutdown();
        let snap = registry.snapshot();
        let latency = *snap
            .histogram("server.route_latency_ns")
            .expect("every row routes");
        debug_assert_eq!(latency.count, callers * per_caller);
        // The no-silent-drops ledger: every rejection/fallback counter in
        // one number. 0 here — and a test forces each path to prove it
        // counts.
        let drops = pba_obs::drops_of(&snap);
        table.push_row([
            Cell::from(callers),
            Cell::from(requests),
            Cell::from(seconds * 1e3),
            Cell::from(requests as f64 / seconds),
            Cell::from(latency.p50 as f64 / 1e3),
            Cell::from(latency.p90 as f64 / 1e3),
            Cell::from(latency.p99 as f64 / 1e3),
            Cell::from(stats.batches),
            Cell::from(stats.gap),
            Cell::from(drops),
            Cell::from(if conserved { "yes" } else { "NO" }),
        ]);
    }
    table
}

/// E18 — replay determinism and fault tolerance: a recorded churn trace is
/// replayed on the 1-caller handle, then replayed again under every scripted
/// fault class of `pba-replay`'s [`FaultPlan`](pba_replay::FaultPlan) (bin
/// crash mid-batch, delayed release, duplicated release, reversed arrival
/// window, observer poisoning, observer backpressure). Every fault row must
/// show its named `fault.*` counter > 0 ("fired"), invariants "ok"
/// (conservation + ledger consistency checked right after each injection),
/// and conserved "yes" at the end — faults move the gap, never the
/// accounting. The clean row anchors Δgap; the duplicated-release and
/// poisoned-observer rows also drive the engine's own no-silent-drops
/// counters (`route.rejected_unknown_ticket`, `observer.errors`), surfaced
/// in the drops column.
pub fn e18_replay_faults(quick: bool) -> Table {
    use pba_replay::{churn_trace, replay::replay, Fault, FaultPlan, ReplayConfig};

    let (bins, ticks, rate): (usize, u64, usize) = if quick { (16, 20, 8) } else { (64, 80, 16) };
    let policy = Policy::TwoChoice;
    let trace = churn_trace(
        StreamConfig::new(bins).batch_size(bins).seed(18),
        ticks,
        rate,
        0.4,
        ticks / 4,
    );
    let m = trace.arrivals();
    // Scripted-release balls, for the faults that target a release.
    let scripted = trace.scripted_releases();
    assert!(
        scripted.len() >= 2,
        "the churn trace must script releases for E18's fault targets"
    );

    let clean = replay(&trace, &ReplayConfig::concurrent(policy, 1)).expect("clean replay");
    let mut table = Table::with_alignments(
        "E18: replay determinism and fault injection — every fault class fires its counter and keeps the invariants",
        &[
            ("fault", Align::Left),
            ("counter", Align::Left),
            ("fired", Align::Right),
            ("final gap", Align::Right),
            ("Δgap vs clean", Align::Right),
            ("resident", Align::Right),
            ("drops", Align::Right),
            ("conserved", Align::Left),
            ("invariants", Align::Left),
        ],
    );
    table.push_row([
        Cell::from("none (clean replay)"),
        Cell::from("—"),
        Cell::from(0u64),
        Cell::from(clean.final_gap),
        Cell::from(0.0),
        Cell::from(clean.resident),
        Cell::from(clean.drops),
        Cell::from(if clean.conserved { "yes" } else { "NO" }),
        Cell::from("ok"),
    ]);

    let faults = [
        Fault::CrashBin {
            after_arrival: m / 2,
            bin: 1,
        },
        Fault::DelayRelease {
            arrival: scripted[0],
            until: m.saturating_sub(2),
        },
        Fault::DuplicateRelease {
            arrival: scripted[1],
        },
        Fault::ReorderWindow {
            start: m / 3,
            len: bins,
        },
        Fault::PoisonObserver {
            after_arrival: m / 2,
        },
        Fault::Backpressure { capacity: 8 },
    ];
    for fault in faults {
        let run = FaultPlan::single(fault).run(&trace, policy);
        let fired = run.checks.iter().map(|c| c.fired).max().unwrap_or(0);
        let violation = run
            .checks
            .iter()
            .find_map(|c| c.invariant_error.clone())
            .unwrap_or_else(|| "ok".into());
        table.push_row([
            Cell::from(fault.name()),
            Cell::from(fault.counter()),
            Cell::from(fired),
            Cell::from(run.outcome.final_gap),
            Cell::from(run.outcome.final_gap - clean.final_gap),
            Cell::from(run.outcome.resident),
            Cell::from(run.outcome.drops),
            Cell::from(if run.outcome.conserved { "yes" } else { "NO" }),
            Cell::from(violation),
        ]);
    }
    table
}

/// E19: elastic cluster membership under the canonical autoscaling shapes.
///
/// Each row runs one scripted [`ScenarioConfig`] — a schedule of
/// `Add`/`Drain`/`Remove` events staged against a live stream — under the
/// same arrival/churn process as a **never-scaled baseline** of the same
/// initial size. The acceptance bar is the paper-side envelope: scaling may
/// perturb the gap transiently, but the final gap must stay within the
/// two-choice envelope of the static cluster
/// (`baseline max gap + b/n + log₂ n`), every scripted event must apply
/// (`unapplied = 0`), migrations are counted one ticket at a time, and
/// conservation must hold at the end of every run.
pub fn e19_autoscale(quick: bool) -> Table {
    let (config, scenarios) = e19_scenarios(quick);
    let bins = config.bins;

    // The never-scaled cluster sets the envelope every elastic run must
    // re-enter: its worst transient gap plus the batched-model slack
    // O(b/n + log n) with unit constants.
    let baseline = run_scenario(&scenarios[0], config.clone());
    let envelope = baseline.max_gap + config.batch_size as f64 / bins as f64 + (bins as f64).log2();

    let mut table = Table::with_alignments(
        "E19: elastic membership — autoscaling scenarios vs a never-scaled cluster (TwoChoice, \
         final gap must re-enter the static envelope)",
        &[
            ("scenario", Align::Left),
            ("events", Align::Right),
            ("staged", Align::Right),
            ("unapplied", Align::Right),
            ("migrated", Align::Right),
            ("arrived", Align::Right),
            ("min active", Align::Right),
            ("final gap", Align::Right),
            ("max gap", Align::Right),
            ("within envelope", Align::Left),
            ("conserved", Align::Left),
        ],
    );
    for scenario in &scenarios {
        let report = run_scenario(scenario, config.clone());
        let within = report.final_gap <= envelope;
        table.push_row([
            Cell::from(report.name.as_str()),
            Cell::from(scenario.events.len()),
            Cell::from(report.events_staged),
            Cell::from(report.events_unapplied),
            Cell::from(report.migrated),
            Cell::from(report.arrived),
            Cell::from(report.min_active_fraction),
            Cell::from(report.final_gap),
            Cell::from(report.max_gap),
            Cell::from(if within { "yes" } else { "NO" }),
            Cell::from(if report.router.conserves_balls() {
                "yes"
            } else {
                "NO"
            }),
        ]);
    }
    table
}

/// E19's router configuration and its scenarios, churn included: the
/// never-scaled baseline first, then the four scale shapes.
fn e19_scenarios(quick: bool) -> (StreamConfig, Vec<ScenarioConfig>) {
    let (bins, ticks, rate): (usize, u64, usize) = if quick { (16, 64, 8) } else { (64, 240, 32) };
    let arrivals = ArrivalProcess::Uniform {
        keys: u64::MAX,
        rate,
    };
    let churn = 0.25;
    let warmup = ticks / 6;
    let config = StreamConfig::new(bins)
        .policy(Policy::TwoChoice)
        .batch_size(bins)
        .seed(19);

    let never_scaled = ScenarioConfig {
        name: "static-baseline".into(),
        ..ScenarioConfig::growth(ticks, arrivals.clone())
    };
    let scenarios = if quick {
        vec![
            never_scaled,
            ScenarioConfig::ramp_up(ticks, arrivals.clone(), 4, 8, 4),
            ScenarioConfig::flash_crowd(ticks, arrivals.clone(), bins, 4, 12, 12),
            ScenarioConfig::rolling_restart(ticks, arrivals.clone(), 4, 8, 6),
            ScenarioConfig::scale_to_zero_and_back(ticks, arrivals.clone(), bins, bins / 2, 10, 20),
        ]
    } else {
        vec![
            never_scaled,
            ScenarioConfig::ramp_up(ticks, arrivals.clone(), 16, 24, 4),
            ScenarioConfig::flash_crowd(ticks, arrivals.clone(), bins, 16, 40, 60),
            ScenarioConfig::rolling_restart(ticks, arrivals.clone(), 8, 24, 8),
            ScenarioConfig::scale_to_zero_and_back(ticks, arrivals.clone(), bins, bins / 2, 40, 80),
        ]
    };

    let scenarios = scenarios
        .into_iter()
        .map(|scenario| scenario.with_churn(churn, warmup))
        .collect();
    (config, scenarios)
}

/// One experiment: its tables, in quick (`true`) or full mode.
pub type Experiment = fn(bool) -> Vec<Table>;

/// Every experiment, in report order, under the id `gen_tables --id` takes.
pub const EXPERIMENTS: &[(&str, Experiment)] = &[
    ("E1", |quick| vec![e1_heavy_load_and_rounds(quick)]),
    ("E2", |quick| vec![e2_trajectory(quick)]),
    ("E3", |quick| vec![e3_messages(quick)]),
    ("E4", e4_lower_bound),
    ("E5", |quick| vec![e5_asymmetric(quick)]),
    ("E6", |quick| vec![e6_light(quick)]),
    ("E7", |quick| vec![e7_baselines(quick)]),
    ("E8", e8_engines),
    ("E9", e9_ablation),
    ("E10", |quick| vec![e10_stream_batch_sweep(quick)]),
    ("E11", |quick| vec![e11_stream_skew_sweep(quick)]),
    ("E12", |quick| vec![e12_stream_churn(quick)]),
    ("E13", |quick| vec![e13_weighted_routing(quick)]),
    ("E14", |quick| vec![e14_runtime_reweighting(quick)]),
    ("E15", |quick| vec![e15_execution_layer(quick)]),
    ("E16", |quick| vec![e16_concurrent_routing(quick)]),
    ("E17", |quick| vec![e17_socket_serving(quick)]),
    ("E18", |quick| vec![e18_replay_faults(quick)]),
    ("E19", |quick| vec![e19_autoscale(quick)]),
];

/// Runs every experiment and returns all tables in order (E1 … E19).
pub fn all_experiments(quick: bool) -> Vec<Table> {
    EXPERIMENTS.iter().flat_map(|(_, run)| run(quick)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e1_quick_has_expected_shape_and_sane_values() {
        let t = e1_heavy_load_and_rounds(true);
        assert!(t.n_rows() >= 4);
        assert_eq!(t.n_cols(), 10);
        // Every row must report a complete allocation.
        for row in t.rows() {
            assert_eq!(row.last().unwrap().0, "yes");
        }
    }

    #[test]
    fn e2_quick_trajectory_tracks_prediction() {
        let t = e2_trajectory(true);
        assert!(t.n_rows() >= 2);
        // The measured/predicted ratio column should be close to 1 in round 0.
        let first = &t.rows()[0];
        let ratio: f64 = first[3].0.parse().unwrap();
        assert!((ratio - 1.0).abs() < 0.2, "round-0 ratio {ratio}");
    }

    #[test]
    fn e4_quick_shows_naive_is_slower_than_heavy() {
        let tables = e4_lower_bound(true);
        assert_eq!(tables.len(), 2);
        let rounds = &tables[1];
        for row in rounds.rows() {
            let naive1: f64 = row[2].0.parse().unwrap();
            let heavy: f64 = row[4].0.parse().unwrap();
            assert!(
                naive1 > heavy,
                "naive ({naive1}) should need more rounds than A_heavy ({heavy})"
            );
        }
    }

    #[test]
    fn e6_quick_light_meets_theorem5() {
        let t = e6_light(true);
        for row in t.rows() {
            let max_load: f64 = row[4].0.parse().unwrap();
            assert!(max_load <= 2.0);
        }
    }

    #[test]
    fn e8_quick_fidelity_rows_complete() {
        let tables = e8_engines(true);
        assert_eq!(tables.len(), 2);
        for row in tables[0].rows() {
            let unallocated: f64 = row[4].0.parse().unwrap();
            assert_eq!(unallocated, 0.0, "executor {} left balls", row[0].0);
        }
        assert!(tables[1].n_rows() >= 2);
    }

    #[test]
    fn e10_quick_two_choice_beats_one_choice_at_every_batch_size() {
        let t = e10_stream_batch_sweep(true);
        assert_eq!(t.n_rows(), 4);
        for row in t.rows() {
            let two: f64 = row[4].0.parse().unwrap();
            let one: f64 = row[6].0.parse().unwrap();
            assert!(
                two < one,
                "two-choice gap {two} should beat one-choice {one}"
            );
        }
    }

    #[test]
    fn e10_quick_theta_b_over_n_fit_passes() {
        let t = e10_stream_batch_sweep(true);
        // The verdict appears exactly on the staleness-dominated rows
        // (b/n ≥ 4: three of the four quick rows, a genuine 3-point fit)
        // and must pass there; the b/n = 1 row carries no verdict.
        let verdicts: Vec<&str> = t
            .rows()
            .iter()
            .map(|row| row[8].0.as_str())
            .filter(|fit| !fit.is_empty())
            .collect();
        assert_eq!(verdicts.len(), 3, "fit should annotate the b/n ≥ 4 rows");
        for fit in verdicts {
            assert!(
                fit.ends_with("ok"),
                "Los–Sauerwald Θ(b/n) fit failed: {fit}"
            );
        }
    }

    #[test]
    fn e13_quick_weighted_beats_oblivious_under_skew() {
        let t = e13_weighted_routing(true);
        assert_eq!(t.n_rows(), 6, "3 tier mixes + 3 batch-sweep rows");
        for row in t.rows() {
            let tiers = &row[1].0;
            let ratio: f64 = row[8].0.parse().unwrap();
            if tiers == "uniform" {
                // The strict no-op: identical engines, ratio exactly 1.
                assert!((ratio - 1.0).abs() < 1e-9, "uniform ratio {ratio}");
            } else {
                assert!(
                    ratio < 0.9,
                    "weighted two-choice should beat oblivious on {tiers}: ratio {ratio}"
                );
            }
            let asym_cell = &row[9].0;
            if asym_cell.is_empty() {
                // Batch-sweep rows skip the (batch-independent) one-shot arm.
                let batch: usize = row[2].0.parse().unwrap();
                assert!(batch > 128, "only b > n rows may skip the asym column");
            } else {
                let asym_excess: f64 = asym_cell.parse().unwrap();
                assert!(
                    asym_excess.abs() <= 16.0,
                    "asymmetric normalized excess {asym_excess} too large on {tiers}"
                );
            }
        }
    }

    #[test]
    fn e13_quick_theta_b_over_w_fit_passes() {
        let t = e13_weighted_routing(true);
        // The weighted Los–Sauerwald verdict appears exactly on the
        // staleness-dominated batch-sweep rows (b/n ≥ 4 — a genuine 3-point
        // fit) and must pass there; the batch = n rows carry no verdict.
        let verdicts: Vec<&str> = t
            .rows()
            .iter()
            .map(|row| row[11].0.as_str())
            .filter(|fit| !fit.is_empty())
            .collect();
        assert_eq!(verdicts.len(), 3, "fit should annotate the b/n ≥ 4 rows");
        for fit in verdicts {
            assert!(fit.ends_with("ok"), "weighted Θ(b/W) fit failed: {fit}");
        }
    }

    #[test]
    fn e11_quick_has_one_row_per_exponent() {
        let t = e11_stream_skew_sweep(true);
        assert_eq!(t.n_rows(), 3);
        for row in t.rows() {
            let one: f64 = row[3].0.parse().unwrap();
            let two: f64 = row[4].0.parse().unwrap();
            assert!(two <= one, "two-choice {two} worse than one-choice {one}");
        }
    }

    #[test]
    fn e12_quick_churn_reaches_steady_state() {
        let t = e12_stream_churn(true);
        assert_eq!(t.n_rows(), 4, "2 uniform arms + 2 weighted churn arms");
        for row in t.rows() {
            let arrived: f64 = row[5].0.parse().unwrap();
            let departed: f64 = row[6].0.parse().unwrap();
            let resident: f64 = row[7].0.parse().unwrap();
            assert!(departed > 0.0, "churn arm {} never departed", row[3].0);
            assert!(resident < arrived / 2.0, "churn did not retire balls");
        }
        // Both churn modes appear in the weighted arm.
        let churn_modes: Vec<&str> = t.rows().iter().map(|r| r[3].0.as_str()).collect();
        assert!(churn_modes.contains(&"load-prop"));
        assert!(churn_modes.contains(&"capacity-prop"));
    }

    #[test]
    fn e14_quick_reweighting_suffix_is_exact_and_recovers() {
        let t = e14_runtime_reweighting(true);
        assert_eq!(t.n_rows(), 2, "both weight-aware policies");
        for row in t.rows() {
            // The boundary-exactness property must hold on every row.
            assert_eq!(row[8].0, "yes", "suffix not bit-identical: {}", row[1].0);
            // The reweighting fired exactly at the half-stream boundary
            // (m/2 balls in batches of n → ratio/2 batches).
            let reweight_at: u64 = row[3].0.parse().unwrap();
            assert_eq!(
                reweight_at, 32,
                "quick mode drains 64 batches, switch at 32"
            );
            // The switch disturbs the balance; the policy must work it back
            // down to (near) the fresh-engine level.
            let peak: f64 = row[5].0.parse().unwrap();
            let final_gap: f64 = row[6].0.parse().unwrap();
            let fresh_final: f64 = row[7].0.parse().unwrap();
            assert!(peak >= final_gap, "no recovery visible");
            assert!(
                (final_gap - fresh_final).abs() < 1e-9,
                "suffix-identical rows must agree on the final gap"
            );
        }
    }

    #[test]
    fn e15_quick_loads_are_bit_identical_across_worker_counts() {
        let t = e15_execution_layer(true);
        assert_eq!(t.n_rows(), 3, "threads 1, 2, 4");
        for row in t.rows() {
            // The execution-layer invariant, end to end: every worker count
            // produces the same loads.
            assert_eq!(row[4].0, "yes", "loads diverged at threads {}", row[0].0);
            let throughput: f64 = row[2].0.parse().unwrap();
            assert!(throughput > 0.0);
        }
    }

    #[test]
    fn e16_quick_conserves_and_fires_one_boundary_per_batch() {
        let t = e16_concurrent_routing(true);
        assert_eq!(t.n_rows(), 3, "callers 1, 2, 4");
        for row in t.rows() {
            let callers: u64 = row[0].0.parse().unwrap();
            let routed: u64 = row[1].0.parse().unwrap();
            let batches: u64 = row[5].0.parse().unwrap();
            // Every caller count routes the full workload, conserves balls
            // and fires exactly one boundary per batch_size routed balls.
            assert_eq!(routed, 256 * 64);
            assert_eq!(batches, routed / 256, "one boundary per batch");
            assert_eq!(row[7].0, "yes", "conservation at {callers} callers");
            let throughput: f64 = row[3].0.parse().unwrap();
            assert!(throughput > 0.0);
        }
        assert_eq!(t.n_cols(), 8);
    }

    #[test]
    fn e17_quick_serves_over_tcp_with_zero_drops() {
        let t = e17_socket_serving(true);
        assert_eq!(t.n_rows(), 3, "callers 1, 2, 4");
        assert_eq!(t.n_cols(), 11);
        for row in t.rows() {
            let callers: u64 = row[0].0.parse().unwrap();
            let requests: u64 = row[1].0.parse().unwrap();
            // One route + one release per key, all acknowledged over TCP.
            assert_eq!(requests, 2 * callers * 512);
            let p50: f64 = row[4].0.parse().unwrap();
            let p99: f64 = row[6].0.parse().unwrap();
            assert!(p50 > 0.0 && p99 >= p50, "latency quantiles are ordered");
            let drops: u64 = row[9].0.parse().unwrap();
            assert_eq!(drops, 0, "a clean workload drops nothing");
            assert_eq!(row[10].0, "yes", "conservation at {callers} callers");
        }
    }

    #[test]
    fn e18_quick_every_fault_row_fires_and_holds_invariants() {
        let t = e18_replay_faults(true);
        // clean + 6 fault classes.
        assert_eq!(t.n_rows(), 7);
        assert_eq!(t.n_cols(), 9);
        assert_eq!(t.rows()[0][0].0, "none (clean replay)");
        assert_eq!(t.rows()[0][6].0, "0", "a clean replay drops nothing");
        for row in t.rows().iter().skip(1) {
            let fired: u64 = row[2].0.parse().unwrap();
            assert!(fired > 0, "fault {} must fire its counter", row[0].0);
            assert!(
                row[1].0.starts_with("fault."),
                "named counter: {}",
                row[1].0
            );
            assert_eq!(row[7].0, "yes", "conservation under fault {}", row[0].0);
            assert_eq!(row[8].0, "ok", "invariants under fault {}", row[0].0);
        }
    }

    #[test]
    fn e19_quick_every_scenario_applies_and_reenters_the_envelope() {
        let t = e19_autoscale(true);
        // static baseline + ramp-up + flash crowd + rolling restart + scale-to-zero.
        assert_eq!(t.n_rows(), 5);
        assert_eq!(t.n_cols(), 11);
        let mut saw_migration = false;
        for row in t.rows() {
            let unapplied: u64 = row[3].0.parse().unwrap();
            assert_eq!(
                unapplied, 0,
                "{}: every scripted event must apply",
                row[0].0
            );
            assert_eq!(row[9].0, "yes", "{}: final gap outside envelope", row[0].0);
            assert_eq!(row[10].0, "yes", "{}: conservation", row[0].0);
            saw_migration |= row[4].0.parse::<u64>().unwrap() > 0;
        }
        assert!(
            saw_migration,
            "drain/remove scenarios must force-migrate at least one resident"
        );
        assert_eq!(t.rows()[0][0].0, "static-baseline");
        assert_eq!(t.rows()[0][4].0, "0", "the baseline never migrates");

        // The engine itself rejects none of the events the driver staged.
        let (config, scenarios) = e19_scenarios(true);
        for scenario in &scenarios[1..] {
            let registry = std::sync::Arc::new(pba_obs::MetricsRegistry::new());
            let config = config.clone().reserve_bins(scenario.needed_reserve());
            let router = pba_stream::ConcurrentRouter::with_metrics(config, registry.clone());
            pba_stream::run_scenario_on(scenario, router);
            let snap = registry.snapshot();
            for verb in ["adds", "drains", "removes"] {
                let rejected = snap.counter(&format!("membership.rejected_{verb}"));
                assert_eq!(rejected, 0, "{}: rejected {verb}", scenario.name);
            }
        }
    }

    #[test]
    fn e9_quick_exponent_ablation_shows_tradeoff() {
        let tables = e9_ablation(true);
        let exponents = &tables[0];
        assert_eq!(exponents.n_rows(), 4);
        // Larger alpha => more phase-1 rounds (monotone within tolerance).
        let phase1: Vec<f64> = exponents
            .rows()
            .iter()
            .map(|r| r[1].0.parse().unwrap())
            .collect();
        assert!(phase1[0] <= phase1[3] + 0.5);
    }
}
