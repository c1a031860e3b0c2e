//! Property test for the profiler's working-set footprint.
//!
//! The profiler keeps one mask of touched lines per touched page and
//! counts set bits as it goes. The oracle here is the plain form: a
//! `HashSet` of line numbers and one of page numbers, fed every access.
//! Streams mix the access patterns the suite produces — sequential
//! words, lbm's 152-byte cell stride, and random addresses over windows
//! from one page to well past the 64-bit mask of one page — as loads
//! and stores.

use alberta_profile::{Footprint, Profiler, SampleConfig};
use proptest::prelude::*;
use std::collections::HashSet;

/// Stride of one lbm lattice cell in bytes.
const LBM_CELL_BYTES: u64 = 152;

/// The addresses of one stream segment: `len` accesses of pattern
/// `kind` around a base derived from `seed`.
fn segment(kind: u8, seed: u64, len: usize) -> Vec<u64> {
    let base = (seed >> 8) % (1 << 40);
    let mut state = seed | 1;
    (0..len as u64)
        .map(|i| match kind {
            0 => base + 8 * i,
            1 => base + LBM_CELL_BYTES * i,
            _ => {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                // Windows of 4 KiB (one page), 64 KiB and 16 MiB.
                let window = [1u64 << 12, 1 << 16, 1 << 24][kind as usize % 3];
                base + (state >> 20) % window
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The run footprint and every interval snapshot's cumulative
    /// footprint equal the `HashSet` oracle's count at the same access.
    #[test]
    fn page_masks_match_the_hash_set_oracle(
        segments in prop::collection::vec((0u8..5, any::<u64>(), 1usize..600), 1..10),
        interval_work in 1u64..300,
    ) {
        let mut p = Profiler::new(SampleConfig::default().with_interval_work(interval_work));
        let mut lines = HashSet::new();
        let mut pages = HashSet::new();
        // The oracle's footprint after each access. Every access
        // retires exactly one op, so access `i` ends at op `i + 1`.
        let mut after = Vec::new();
        for &(kind, seed, len) in &segments {
            for (i, addr) in segment(kind, seed, len).into_iter().enumerate() {
                if i % 3 == 0 {
                    p.store(addr);
                } else {
                    p.load(addr);
                }
                lines.insert(addr / Footprint::LINE_BYTES);
                pages.insert(addr / Footprint::PAGE_BYTES);
                after.push(Footprint {
                    lines: lines.len() as u64,
                    pages: pages.len() as u64,
                });
            }
        }
        let profile = p.finish();
        prop_assert_eq!(profile.footprint, *after.last().unwrap());
        prop_assert!(!profile.intervals.is_empty());
        for snapshot in &profile.intervals {
            prop_assert_eq!(
                snapshot.footprint,
                after[snapshot.end_ops as usize - 1],
                "interval {} ending at op {}", snapshot.index, snapshot.end_ops
            );
        }
    }
}
