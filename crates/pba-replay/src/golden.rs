//! Golden-snapshot rendering and comparison.
//!
//! A golden file (`tests/golden/<trace>.snap`) holds one line per replay
//! configuration, rendering the stable fingerprint of its
//! [`ReplayOutcome`]: FNV-1a hashes of the placement vector and the final
//! loads plus the scalar counters. The `replay_golden` binary regenerates
//! the files under `--bless` and diffs them otherwise; CI runs the diff
//! mode, so any placement drift — a policy tweak, an RNG reordering, a
//! batching change — fails loudly with the exact line that moved.
//!
//! Only **schedule-deterministic** configurations belong in a golden file:
//! `concurrent1` and `oneshot` rows. Multi-caller rows are
//! schedule-dependent by design and are asserted through invariants
//! instead.

use crate::replay::ReplayOutcome;

/// 64-bit FNV-1a over a byte slice — tiny, dependency-free, stable.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// FNV-1a over a `u32` sequence (little-endian), rendered `fnv:<16 hex>`.
pub fn hash_u32s(values: &[u32]) -> String {
    let mut bytes = Vec::with_capacity(values.len() * 4);
    for v in values {
        bytes.extend_from_slice(&v.to_le_bytes());
    }
    format!("fnv:{:016x}", fnv1a64(&bytes))
}

/// FNV-1a over an `f64` sequence (little-endian bit patterns): bit-identity
/// of gap trajectories, not approximate equality.
pub fn hash_f64s(values: &[f64]) -> String {
    let mut bytes = Vec::with_capacity(values.len() * 8);
    for v in values {
        bytes.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    format!("fnv:{:016x}", fnv1a64(&bytes))
}

/// Renders one golden line for `outcome` under the labels that identify its
/// configuration. Stable text: hashes for the vectors, `{:.4}` for the gap.
pub fn golden_line(outcome: &ReplayOutcome, policy_name: &str, weights_name: &str) -> String {
    format!(
        "{} policy={} weights={} placements={} loads={} gaps={} \
         batches={} final_gap={:.4} resident={} released={} drops={} conserved={}",
        outcome.engine,
        policy_name,
        weights_name,
        hash_u32s(&outcome.placements),
        hash_u32s(&outcome.loads),
        hash_f64s(&outcome.gap_trajectory),
        outcome.batches,
        outcome.final_gap,
        outcome.resident,
        outcome.released,
        outcome.drops,
        if outcome.conserved { "yes" } else { "no" },
    )
}

/// Diffs freshly rendered lines against a committed golden file's contents.
/// Returns the human-readable mismatch report, or `None` when identical.
pub fn diff_golden(name: &str, committed: &str, fresh: &str) -> Option<String> {
    if committed == fresh {
        return None;
    }
    let mut report = format!("golden drift in {name}:\n");
    let committed_lines: Vec<&str> = committed.lines().collect();
    let fresh_lines: Vec<&str> = fresh.lines().collect();
    let rows = committed_lines.len().max(fresh_lines.len());
    for i in 0..rows {
        let old = committed_lines.get(i).copied().unwrap_or("<missing>");
        let new = fresh_lines.get(i).copied().unwrap_or("<missing>");
        if old != new {
            report.push_str(&format!("  line {}:\n  - {old}\n  + {new}\n", i + 1));
        }
    }
    Some(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        // Canonical FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn hashes_are_stable_and_order_sensitive() {
        assert_eq!(hash_u32s(&[1, 2, 3]), hash_u32s(&[1, 2, 3]));
        assert_ne!(hash_u32s(&[1, 2, 3]), hash_u32s(&[3, 2, 1]));
        assert_eq!(hash_f64s(&[0.5]), hash_f64s(&[0.5]));
        assert_ne!(hash_f64s(&[0.5]), hash_f64s(&[0.25]));
    }

    #[test]
    fn diff_reports_the_changed_line() {
        assert!(diff_golden("t", "a\nb\n", "a\nb\n").is_none());
        let report = diff_golden("t", "a\nb\n", "a\nc\n").unwrap();
        assert!(report.contains("line 2"));
        assert!(report.contains("- b"));
        assert!(report.contains("+ c"));
    }
}
