//! The request-trace type and its versioned text codec.
//!
//! A [`Trace`] is the replayable record of one routed workload: the engine
//! shape it was recorded against (`bins`, `batch_size`, `seed`) plus an
//! ordered event list — arrivals (router key, optional scripted release
//! point) interleaved with reweighting events. Arrival ids are **implicit
//! and sequential**: the `i`-th arrival event of the trace has id `i`, which
//! is also the ball id every engine stamps when the trace is replayed
//! route-by-route. Releases are scripted *relative to the arrival sequence*
//! (`release_after = j` means "release this ball once arrival `j` has been
//! routed"), so a trace captures the interleaving of arrivals and departures
//! at arrival granularity without recording wall-clock time.
//!
//! ## Codec (`pba-trace v1` / `pba-trace v2`)
//!
//! Line-oriented UTF-8, one event per line:
//!
//! | line | meaning |
//! |---|---|
//! | `pba-trace v1` | header (exact, first line) |
//! | `pba-trace v2` | header of a trace carrying membership events |
//! | `name <s>` | trace name (single token) |
//! | `bins <n>` | bin count the trace was recorded against |
//! | `batch <b>` | batch size |
//! | `seed <s>` | engine seed |
//! | `a <id> <key>` | arrival `id` with router key `key` |
//! | `a <id> <key> r=<j>` | …released after arrival `j` has been routed |
//! | `w uniform` | reweight to uniform at this point in the sequence |
//! | `w <w0> <w1> …` | reweight to explicit per-bin weights |
//! | `m add <w>` | **v2**: commission a bin of weight `w` at this point |
//! | `m drain <j>` | **v2**: start draining bin slot `j` |
//! | `m rm <j>` | **v2**: retire (remove) drained bin slot `j` |
//! | `end <count>` | trailer: total arrivals (integrity check) |
//!
//! Versioning is **content-driven**: [`Trace::encode`] emits the `v2` header
//! exactly when the trace contains at least one membership event, and the
//! `v1` header otherwise — so every pre-elastic trace still encodes
//! byte-identically to the v1 codec, and committed v1 goldens cannot drift.
//! [`Trace::decode`] accepts both headers but rejects `m` lines under a `v1`
//! header (an unknown record there, exactly as the v1 decoder always did).
//!
//! Weights are emitted with Rust's shortest-round-trip `f64` formatting, so
//! `encode(decode(s)) == s` **byte for byte** for any trace this module
//! encoded — the golden-file property `tests/replay_properties.rs` pins.

use std::fmt;

use pba_model::rng::SplitMix64;
use pba_stream::{MembershipEvent, MembershipPlan};

/// The codec header every v1 (membership-free) trace starts with.
pub const TRACE_HEADER: &str = "pba-trace v1";

/// The codec header of a v2 trace (one carrying membership events).
pub const TRACE_HEADER_V2: &str = "pba-trace v2";

/// One event of a [`Trace`], in sequence order.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// One arriving ball. Its arrival id is its index among the trace's
    /// arrival events.
    Arrival {
        /// The router key presented to the engine.
        key: u64,
        /// When `Some(j)`: release this ball once arrival `j` has been
        /// routed (`j` ≥ this ball's own id). `None`: the ball stays
        /// resident.
        release_after: Option<u64>,
    },
    /// Reweight the engine at this point of the arrival sequence. An empty
    /// vector means uniform weights; otherwise one positive weight per bin.
    Reweight {
        /// The new per-bin weights (empty = uniform).
        weights: Vec<f64>,
    },
    /// Stage one membership change (add / drain / remove) at this point of
    /// the arrival sequence; the engine applies it at its next batch
    /// boundary, exactly as a live `stage_membership` call would. Presence
    /// of any membership event makes the trace a v2 trace.
    Membership {
        /// The staged lifecycle change.
        event: MembershipEvent,
    },
}

/// A replayable request trace. See the [module docs](self) for semantics
/// and the text codec.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// Trace name (a single token; used in golden-file names).
    pub name: String,
    /// Bin count the trace was recorded against.
    pub bins: usize,
    /// Batch size of the recording engine.
    pub batch_size: usize,
    /// Seed of the recording engine.
    pub seed: u64,
    /// Arrivals and reweights, in sequence order.
    pub events: Vec<TraceEvent>,
}

/// Decode failures of the v1 codec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// The first line is not the v1 header.
    BadHeader,
    /// A required preamble field (`name`/`bins`/`batch`/`seed`) is missing
    /// or malformed.
    BadPreamble(String),
    /// A body line failed to parse.
    BadLine {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        reason: String,
    },
    /// The `end <count>` trailer is missing or disagrees with the arrivals
    /// actually listed.
    BadTrailer(String),
    /// A scripted release points before its own arrival or past the end of
    /// the trace.
    BadRelease {
        /// The offending arrival id.
        arrival: u64,
        /// Its scripted release point.
        release_after: u64,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::BadHeader => write!(f, "missing or unsupported trace header"),
            Self::BadPreamble(what) => write!(f, "bad preamble: {what}"),
            Self::BadLine { line, reason } => write!(f, "line {line}: {reason}"),
            Self::BadTrailer(what) => write!(f, "bad trailer: {what}"),
            Self::BadRelease {
                arrival,
                release_after,
            } => write!(
                f,
                "arrival {arrival} scripts release after {release_after}, \
                 which is before it or past the trace end"
            ),
        }
    }
}

impl std::error::Error for TraceError {}

impl Trace {
    /// Number of arrival events.
    pub fn arrivals(&self) -> u64 {
        self.events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Arrival { .. }))
            .count() as u64
    }

    /// True when the trace contains at least one reweight event, which
    /// replays only on the 1-caller handle (a k-caller replay has no
    /// deterministic staging point and the one-shot adapter has no
    /// boundaries at all).
    pub fn has_reweights(&self) -> bool {
        self.events
            .iter()
            .any(|e| matches!(e, TraceEvent::Reweight { .. }))
    }

    /// True when the trace contains at least one membership event — making
    /// it a v2 trace, replayable only on the 1-caller handle, as
    /// [`Trace::has_reweights`].
    pub fn has_membership(&self) -> bool {
        self.events
            .iter()
            .any(|e| matches!(e, TraceEvent::Membership { .. }))
    }

    /// Reserve slots an engine must pre-allocate to admit every `m add` of
    /// the trace: [`MembershipPlan::needed_reserve`] of its `m` lines, in
    /// trace order.
    pub fn needed_reserve(&self) -> usize {
        let plan: MembershipPlan = self
            .events
            .iter()
            .filter_map(|event| match event {
                TraceEvent::Membership { event } => Some(*event),
                _ => None,
            })
            .collect();
        plan.needed_reserve()
    }

    /// Arrival ids that carry a scripted release (`r=<j>`), in id order —
    /// the valid targets for release-directed faults
    /// ([`crate::fault::Fault::DelayRelease`] /
    /// [`crate::fault::Fault::DuplicateRelease`], which fail unfired against
    /// a ball the trace never releases).
    pub fn scripted_releases(&self) -> Vec<u64> {
        let mut id = 0u64;
        let mut balls = Vec::new();
        for event in &self.events {
            if let TraceEvent::Arrival { release_after, .. } = event {
                if release_after.is_some() {
                    balls.push(id);
                }
                id += 1;
            }
        }
        balls
    }

    /// The committed **miniature golden trace**: 48 arrivals over 16 bins in
    /// batches of 8, every 5th ball released 7 arrivals later. Constructed in
    /// code (a pure function of nothing) so the committed
    /// `tests/golden/mini.trace` bytes can be asserted against a fresh
    /// encoding — codec drift breaks the test, not the trace.
    pub fn mini() -> Self {
        let mut rng = SplitMix64::for_stream(7, 0x7ace, 0);
        let total = 48u64;
        let events = (0..total)
            .map(|id| TraceEvent::Arrival {
                key: rng.next_u64(),
                release_after: (id % 5 == 0).then(|| (id + 7).min(total - 1)),
            })
            .collect();
        Self {
            name: "mini".into(),
            bins: 16,
            batch_size: 8,
            seed: 7,
            events,
        }
    }

    /// The committed **batched-replay golden trace**: 96 arrivals over 16
    /// bins in batches of 8, every 7th ball released 11 arrivals later. The
    /// shape is chosen for `route_many` replay: blessed with
    /// `route_group = 7`, the groups land misaligned against both the batch
    /// size and the release cadence, so the grouped path exercises
    /// batch-boundary splits *and* early cuts at scripted-release points
    /// while still pinning the exact lines route-by-route replay produces.
    /// Like [`Trace::mini`], a pure function of nothing so the committed
    /// `tests/golden/mini-batched.trace` bytes can be asserted against a
    /// fresh encoding.
    pub fn mini_batched() -> Self {
        let mut rng = SplitMix64::for_stream(11, 0xba7c4, 0);
        let total = 96u64;
        let events = (0..total)
            .map(|id| TraceEvent::Arrival {
                key: rng.next_u64(),
                release_after: (id % 7 == 0).then(|| (id + 11).min(total - 1)),
            })
            .collect();
        Self {
            name: "mini-batched".into(),
            bins: 16,
            batch_size: 8,
            seed: 11,
            events,
        }
    }

    /// A reweighting variant of [`Trace::mini`]: same shape plus a switch to
    /// 2:1 tiers a third of the way in and back to uniform two thirds in.
    /// 1-caller replay only (see [`Trace::has_reweights`]).
    pub fn mini_reweighted() -> Self {
        let mut trace = Self::mini();
        let tiers: Vec<f64> = (0..trace.bins)
            .map(|bin| if bin < trace.bins / 4 { 2.0 } else { 1.0 })
            .collect();
        // Indices into the (arrival-only) mini event list stay valid as long
        // as we insert back-to-front.
        trace
            .events
            .insert(32, TraceEvent::Reweight { weights: vec![] });
        trace
            .events
            .insert(16, TraceEvent::Reweight { weights: tiers });
        trace.name = "mini-reweighted".into();
        trace
    }

    /// The committed **membership golden trace**: a full drain → remove →
    /// re-add → scale-up cycle over 16 bins in batches of 8, with mini-style
    /// scripted releases. Bin 5 is drained before any arrival routes (so its
    /// occupancy stays zero and the later remove is deterministically
    /// legal), retired a third of the way in, recommissioned at two thirds
    /// (slot reuse), and a second add at the same point grows past the
    /// original bin count (exercising reserve sizing:
    /// [`Trace::needed_reserve`] is 1). Like [`Trace::mini`], it is a pure
    /// function of nothing so the committed golden bytes can be asserted
    /// against a fresh encoding.
    pub fn mini_membership() -> Self {
        let mut rng = SplitMix64::for_stream(7, 0x3ca1e, 0);
        let total = 64u64;
        let mut events: Vec<TraceEvent> = (0..total)
            .map(|id| TraceEvent::Arrival {
                key: rng.next_u64(),
                release_after: (id % 6 == 0).then(|| (id + 9).min(total - 1)),
            })
            .collect();
        // Back-to-front so arrival indices stay valid across inserts.
        events.insert(
            48,
            TraceEvent::Membership {
                event: MembershipEvent::Add { weight: 2.0 },
            },
        );
        events.insert(
            48,
            TraceEvent::Membership {
                event: MembershipEvent::Add { weight: 1.0 },
            },
        );
        events.insert(
            24,
            TraceEvent::Membership {
                event: MembershipEvent::Remove { bin: 5 },
            },
        );
        events.insert(
            0,
            TraceEvent::Membership {
                event: MembershipEvent::Drain { bin: 5 },
            },
        );
        Self {
            name: "mini-membership".into(),
            bins: 16,
            batch_size: 8,
            seed: 7,
            events,
        }
    }

    /// Encodes the trace in the versioned text codec (`v2` iff the trace
    /// carries membership events, `v1` otherwise — see the
    /// [module docs](self)). Decoding the result with [`Trace::decode`] and
    /// re-encoding reproduces the bytes exactly.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        out.push_str(if self.has_membership() {
            TRACE_HEADER_V2
        } else {
            TRACE_HEADER
        });
        out.push('\n');
        out.push_str(&format!("name {}\n", self.name));
        out.push_str(&format!("bins {}\n", self.bins));
        out.push_str(&format!("batch {}\n", self.batch_size));
        out.push_str(&format!("seed {}\n", self.seed));
        let mut arrivals = 0u64;
        for event in &self.events {
            match event {
                TraceEvent::Arrival { key, release_after } => {
                    match release_after {
                        Some(after) => {
                            out.push_str(&format!("a {arrivals} {key} r={after}\n"));
                        }
                        None => out.push_str(&format!("a {arrivals} {key}\n")),
                    }
                    arrivals += 1;
                }
                TraceEvent::Reweight { weights } => {
                    if weights.is_empty() {
                        out.push_str("w uniform\n");
                    } else {
                        out.push('w');
                        for w in weights {
                            out.push_str(&format!(" {w}"));
                        }
                        out.push('\n');
                    }
                }
                TraceEvent::Membership { event } => match event {
                    MembershipEvent::Add { weight } => {
                        out.push_str(&format!("m add {weight}\n"));
                    }
                    MembershipEvent::Drain { bin } => {
                        out.push_str(&format!("m drain {bin}\n"));
                    }
                    MembershipEvent::Remove { bin } => {
                        out.push_str(&format!("m rm {bin}\n"));
                    }
                },
            }
        }
        out.push_str(&format!("end {arrivals}\n"));
        out
    }

    /// Decodes a v1 or v2 text trace, validating the header, sequential
    /// arrival ids, release bounds and the `end` trailer. `m` lines are
    /// legal only under the v2 header.
    pub fn decode(text: &str) -> Result<Self, TraceError> {
        let mut lines = text.lines().enumerate();
        let (_, header) = lines.next().ok_or(TraceError::BadHeader)?;
        let v2 = match header {
            TRACE_HEADER => false,
            TRACE_HEADER_V2 => true,
            _ => return Err(TraceError::BadHeader),
        };
        let mut preamble = |field: &str| -> Result<String, TraceError> {
            let (_, line) = lines
                .next()
                .ok_or_else(|| TraceError::BadPreamble(format!("missing `{field}`")))?;
            line.strip_prefix(field)
                .and_then(|rest| rest.strip_prefix(' '))
                .map(str::to_owned)
                .ok_or_else(|| {
                    TraceError::BadPreamble(format!("expected `{field} …`, got `{line}`"))
                })
        };
        let name = preamble("name")?;
        let bins: usize = preamble("bins")?
            .parse()
            .map_err(|_| TraceError::BadPreamble("bins is not a number".into()))?;
        let batch_size: usize = preamble("batch")?
            .parse()
            .map_err(|_| TraceError::BadPreamble("batch is not a number".into()))?;
        let seed: u64 = preamble("seed")?
            .parse()
            .map_err(|_| TraceError::BadPreamble("seed is not a number".into()))?;

        let mut events = Vec::new();
        let mut arrivals = 0u64;
        let mut trailer: Option<u64> = None;
        for (index, line) in lines {
            let line_no = index + 1;
            let bad = |reason: &str| TraceError::BadLine {
                line: line_no,
                reason: reason.into(),
            };
            let mut parts = line.split_ascii_whitespace();
            match parts.next() {
                Some("a") => {
                    let id: u64 = parts
                        .next()
                        .and_then(|t| t.parse().ok())
                        .ok_or_else(|| bad("arrival id missing or not a number"))?;
                    if id != arrivals {
                        return Err(bad(&format!("arrival id {id}, expected {arrivals}")));
                    }
                    let key: u64 = parts
                        .next()
                        .and_then(|t| t.parse().ok())
                        .ok_or_else(|| bad("arrival key missing or not a number"))?;
                    let release_after = match parts.next() {
                        None => None,
                        Some(tok) => Some(
                            tok.strip_prefix("r=")
                                .and_then(|t| t.parse().ok())
                                .ok_or_else(|| bad("expected `r=<id>`"))?,
                        ),
                    };
                    if parts.next().is_some() {
                        return Err(bad("trailing tokens on arrival line"));
                    }
                    events.push(TraceEvent::Arrival { key, release_after });
                    arrivals += 1;
                }
                Some("w") => {
                    let tokens: Vec<&str> = parts.collect();
                    if tokens == ["uniform"] {
                        events.push(TraceEvent::Reweight { weights: vec![] });
                    } else {
                        if tokens.is_empty() {
                            return Err(bad("reweight line without weights"));
                        }
                        let weights = tokens
                            .iter()
                            .map(|t| t.parse::<f64>())
                            .collect::<Result<Vec<f64>, _>>()
                            .map_err(|_| bad("non-numeric weight"))?;
                        if weights.len() != bins {
                            return Err(bad(&format!("{} weights for {bins} bins", weights.len())));
                        }
                        if !weights.iter().all(|w| w.is_finite() && *w > 0.0) {
                            return Err(bad("weights must be finite and positive"));
                        }
                        events.push(TraceEvent::Reweight { weights });
                    }
                }
                Some("m") => {
                    if !v2 {
                        return Err(bad("membership record in a v1 trace"));
                    }
                    let event = match parts.next() {
                        Some("add") => {
                            let weight: f64 = parts
                                .next()
                                .and_then(|t| t.parse().ok())
                                .ok_or_else(|| bad("add weight missing or not a number"))?;
                            if !(weight.is_finite() && weight > 0.0) {
                                return Err(bad("add weight must be finite and positive"));
                            }
                            MembershipEvent::Add { weight }
                        }
                        Some("drain") => {
                            let bin: u32 = parts
                                .next()
                                .and_then(|t| t.parse().ok())
                                .ok_or_else(|| bad("drain bin missing or not a number"))?;
                            MembershipEvent::Drain { bin }
                        }
                        Some("rm") => {
                            let bin: u32 = parts
                                .next()
                                .and_then(|t| t.parse().ok())
                                .ok_or_else(|| bad("rm bin missing or not a number"))?;
                            MembershipEvent::Remove { bin }
                        }
                        _ => return Err(bad("expected `m add|drain|rm …`")),
                    };
                    if parts.next().is_some() {
                        return Err(bad("trailing tokens on membership line"));
                    }
                    events.push(TraceEvent::Membership { event });
                }
                Some("end") => {
                    let count: u64 = parts
                        .next()
                        .and_then(|t| t.parse().ok())
                        .ok_or_else(|| bad("trailer count missing or not a number"))?;
                    trailer = Some(count);
                }
                Some(other) => return Err(bad(&format!("unknown record `{other}`"))),
                None => return Err(bad("empty line")),
            }
            if trailer.is_some() {
                break;
            }
        }
        match trailer {
            None => return Err(TraceError::BadTrailer("missing `end` line".into())),
            Some(count) if count != arrivals => {
                return Err(TraceError::BadTrailer(format!(
                    "trailer says {count} arrivals, trace lists {arrivals}"
                )));
            }
            Some(_) => {}
        }
        // Release points must not precede their own arrival or overrun the
        // trace — a replay could otherwise release a not-yet-routed ball.
        let mut id = 0u64;
        for event in &events {
            if let TraceEvent::Arrival {
                release_after: Some(after),
                ..
            } = event
            {
                if *after < id || *after >= arrivals {
                    return Err(TraceError::BadRelease {
                        arrival: id,
                        release_after: *after,
                    });
                }
            }
            if matches!(event, TraceEvent::Arrival { .. }) {
                id += 1;
            }
        }
        Ok(Self {
            name,
            bins,
            batch_size,
            seed,
            events,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mini_round_trips_byte_identically() {
        let trace = Trace::mini();
        let encoded = trace.encode();
        let decoded = Trace::decode(&encoded).expect("decode");
        assert_eq!(decoded, trace);
        assert_eq!(decoded.encode(), encoded, "encode∘decode must be identity");
        assert_eq!(trace.arrivals(), 48);
        assert!(!trace.has_reweights());
    }

    #[test]
    fn reweighted_trace_round_trips_with_float_weights() {
        let trace = Trace::mini_reweighted();
        assert!(trace.has_reweights());
        let encoded = trace.encode();
        let decoded = Trace::decode(&encoded).expect("decode");
        assert_eq!(decoded, trace);
        assert_eq!(decoded.encode(), encoded);
    }

    #[test]
    fn membership_trace_round_trips_under_the_v2_header() {
        let trace = Trace::mini_membership();
        assert!(trace.has_membership());
        assert!(!trace.has_reweights());
        assert_eq!(trace.arrivals(), 64);
        // remove frees slot 5, the first add reuses it, the second add needs
        // one fresh reserve slot.
        assert_eq!(trace.needed_reserve(), 1);
        let encoded = trace.encode();
        assert!(encoded.starts_with(TRACE_HEADER_V2));
        let decoded = Trace::decode(&encoded).expect("decode");
        assert_eq!(decoded, trace);
        assert_eq!(decoded.encode(), encoded, "encode∘decode must be identity");
    }

    #[test]
    fn membership_free_traces_keep_the_v1_header() {
        // v2 is content-driven: the pre-elastic traces must keep encoding
        // byte-identically under the v1 header.
        assert!(Trace::mini().encode().starts_with("pba-trace v1\n"));
        assert!(Trace::mini_reweighted()
            .encode()
            .starts_with("pba-trace v1\n"));
        assert_eq!(Trace::mini().needed_reserve(), 0);
    }

    #[test]
    fn decode_rejects_malformed_membership_lines() {
        let prefix = "pba-trace v2\nname t\nbins 4\nbatch 2\nseed 0\n";
        for bad_line in [
            "m add 0\n",
            "m add -1\n",
            "m add nan\n",
            "m add\n",
            "m drain x\n",
            "m rm\n",
            "m retire 3\n",
            "m drain 1 2\n",
        ] {
            let text = format!("{prefix}{bad_line}a 0 5\nend 1\n");
            assert!(
                matches!(Trace::decode(&text), Err(TraceError::BadLine { .. })),
                "expected rejection of {bad_line:?}"
            );
        }
        // `m` under a v1 header is a malformed trace, not a silent downgrade.
        let v1_with_m = "pba-trace v1\nname t\nbins 4\nbatch 2\nseed 0\nm drain 1\na 0 5\nend 1\n";
        assert!(matches!(
            Trace::decode(v1_with_m),
            Err(TraceError::BadLine { .. })
        ));
        // A v2 header is legal for a membership-free trace; it simply
        // re-encodes as v1.
        let v2_plain = "pba-trace v2\nname t\nbins 4\nbatch 2\nseed 0\na 0 5\nend 1\n";
        let decoded = Trace::decode(v2_plain).expect("v2 header without m lines decodes");
        assert!(decoded.encode().starts_with("pba-trace v1\n"));
    }

    #[test]
    fn decode_rejects_malformed_traces() {
        assert_eq!(Trace::decode("garbage"), Err(TraceError::BadHeader));
        let missing_end = "pba-trace v1\nname t\nbins 4\nbatch 2\nseed 0\na 0 5\n";
        assert!(matches!(
            Trace::decode(missing_end),
            Err(TraceError::BadTrailer(_))
        ));
        let bad_count = "pba-trace v1\nname t\nbins 4\nbatch 2\nseed 0\na 0 5\nend 3\n";
        assert!(matches!(
            Trace::decode(bad_count),
            Err(TraceError::BadTrailer(_))
        ));
        let gap_in_ids = "pba-trace v1\nname t\nbins 4\nbatch 2\nseed 0\na 1 5\nend 1\n";
        assert!(matches!(
            Trace::decode(gap_in_ids),
            Err(TraceError::BadLine { .. })
        ));
        let early_release = "pba-trace v1\nname t\nbins 4\nbatch 2\nseed 0\na 0 5 r=9\nend 1\n";
        assert_eq!(
            Trace::decode(early_release),
            Err(TraceError::BadRelease {
                arrival: 0,
                release_after: 9
            })
        );
        let wrong_weight_count =
            "pba-trace v1\nname t\nbins 4\nbatch 2\nseed 0\nw 1 2\na 0 5\nend 1\n";
        assert!(matches!(
            Trace::decode(wrong_weight_count),
            Err(TraceError::BadLine { .. })
        ));
    }
}
