//! Property-based tests for [`EventTrace`] retention invariants.
//!
//! The decimating buffer makes three promises the Top-Down pipeline
//! leans on: it never exceeds its capacity (the capacity-1 overshoot
//! was a real bug), the retained offers always sit on the lattice of
//! multiples of the current weight (the off-lattice trigger event was
//! another), and presetting a weight reproduces exactly the density a
//! decimated full run would have. Each lattice test encodes the offer
//! phase in the event payload so the retained set can be checked
//! against the lattice directly. The last two properties shadow the
//! trace against a reference that keeps a plain `Vec<Event>` buffer and
//! tests every offer's phase with a modulo: one over interleaved
//! dilutions and preset weights, one on streams that mix every event
//! kind into the [`EventChunks`] columns.

use alberta_profile::{Event, EventChunks, EventTrace, FnId};
use proptest::prelude::*;

/// Memory event whose address is the 1-based offer phase, so retained
/// events identify which offers survived.
fn tagged(phase: u64) -> Event {
    Event::Mem { addr: phase }
}

/// A trace of `capacity` and the columns it keeps its events in.
fn trace(capacity: usize) -> (EventTrace, EventChunks) {
    (EventTrace::with_capacity(capacity), EventChunks::default())
}

fn phases(chunks: &EventChunks) -> Vec<u64> {
    chunks
        .events()
        .iter()
        .map(|e| match e {
            Event::Mem { addr } => *addr,
            other => panic!("unexpected event {other:?}"),
        })
        .collect()
}

/// The capture the columns replaced: one `Vec<Event>` under the same
/// retention rule, decimated by keeping the odd indices.
struct Reference {
    events: Vec<Event>,
    capacity: usize,
    weight: u64,
    decimations: u32,
    phase: u64,
}

impl Reference {
    fn with_capacity(capacity: usize) -> Self {
        Reference {
            events: Vec::new(),
            capacity,
            weight: 1,
            decimations: 0,
            phase: 0,
        }
    }

    fn push_diluted(&mut self, event: Event, dilution: u64) -> bool {
        self.phase += 1;
        if self.events.len() >= self.capacity {
            self.events = self.events.iter().skip(1).step_by(2).copied().collect();
            self.weight *= 2;
            self.decimations += 1;
        }
        if !self.phase.is_multiple_of(self.weight * dilution) {
            return false;
        }
        self.events.push(event);
        true
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The buffer is bounded by its capacity after every single offer —
    /// including capacity 1, where decimation (halving an odd-length
    /// buffer keeps the odd indices: none) frees no slot and used to let
    /// the buffer grow without bound.
    #[test]
    fn retained_never_exceeds_capacity(
        capacity in 1usize..48,
        offers in 1u64..3000,
    ) {
        let (mut trace, mut chunks) = trace(capacity);
        for phase in 1..=offers {
            trace.push(&mut chunks, tagged(phase));
            prop_assert!(trace.len() <= capacity,
                "len {} > capacity {capacity} after offer {phase}", trace.len());
            prop_assert_eq!(chunks.len(), trace.len());
        }
        prop_assert_eq!(trace.weight(), 1u64 << trace.decimations());
    }

    /// Whatever mix of decimations and go-forward filtering happened,
    /// the survivors are *exactly* the offers at phases `{k · weight()}`
    /// for the final weight — the lattice is contiguous from the first
    /// multiple, with no off-lattice stragglers and no gaps.
    #[test]
    fn retained_offers_sit_exactly_on_the_weight_lattice(
        capacity in 1usize..48,
        offers in 1u64..3000,
    ) {
        let (mut trace, mut chunks) = trace(capacity);
        for phase in 1..=offers {
            trace.push(&mut chunks, tagged(phase));
        }
        let weight = trace.weight();
        let lattice: Vec<u64> = (1..=offers / weight).map(|k| k * weight).collect();
        prop_assert_eq!(phases(&chunks), lattice);
    }

    /// A trace preset to the final weight of a decimated run retains the
    /// same events from the same offer stream: window-gated capture can
    /// match a full run's density without replaying its decimations.
    #[test]
    fn preset_weight_reproduces_decimated_retention(
        capacity in 1usize..48,
        offers in 1u64..3000,
    ) {
        let (mut decimated, mut decimated_chunks) = trace(capacity);
        for phase in 1..=offers {
            decimated.push(&mut decimated_chunks, tagged(phase));
        }
        let (mut preset, mut preset_chunks) = trace(offers as usize);
        preset.preset_weight(decimated.weight());
        for phase in 1..=offers {
            preset.push(&mut preset_chunks, tagged(phase));
        }
        prop_assert_eq!(preset.decimations(), 0);
        prop_assert_eq!(phases(&preset_chunks), phases(&decimated_chunks));
    }

    /// Without capacity pressure, dilution alone coarsens retention to
    /// every `dilution`-th offer, and those survivors are a subset of
    /// what an undiluted trace retains — the warming-stream contract.
    #[test]
    fn dilution_retains_every_nth_offer(
        dilution in 1u64..16,
        offers in 1u64..2000,
    ) {
        let (mut diluted, mut diluted_chunks) = trace(offers as usize);
        let (mut full, mut full_chunks) = trace(offers as usize);
        for phase in 1..=offers {
            diluted.push_diluted(&mut diluted_chunks, tagged(phase), dilution);
            full.push(&mut full_chunks, tagged(phase));
        }
        let lattice: Vec<u64> = (1..=offers / dilution).map(|k| k * dilution).collect();
        prop_assert_eq!(phases(&diluted_chunks), lattice);
        let all = phases(&full_chunks);
        prop_assert!(phases(&diluted_chunks).iter().all(|p| all.contains(p)));
    }

    /// The countdown to the next lattice point retains exactly the
    /// offers the reference's per-offer modulo retains: under preset
    /// weights that need not be powers of two, through the decimations
    /// that double them, and with dilutions of 1 and 2 interleaved offer
    /// by offer, as window-gated capture interleaves in-window, memory
    /// warming and control warming offers.
    #[test]
    fn countdown_matches_the_modulo_reference(
        capacity in 1usize..64,
        preset in 1u64..13,
        dilutions in prop::collection::vec(1u64..3, 1..2000),
    ) {
        let mut reference = Reference::with_capacity(capacity);
        reference.weight = preset;
        let (mut trace, mut chunks) = trace(capacity);
        trace.preset_weight(preset);
        for (i, &dilution) in dilutions.iter().enumerate() {
            let phase = i as u64 + 1;
            let kept = reference.push_diluted(tagged(phase), dilution);
            prop_assert_eq!(
                trace.push_diluted(&mut chunks, tagged(phase), dilution),
                kept,
                "offer {}", phase
            );
            prop_assert_eq!(trace.weight(), reference.weight);
            prop_assert_eq!(trace.decimations(), reference.decimations);
            prop_assert_eq!(trace.len(), reference.events.len());
        }
        prop_assert_eq!(chunks.events(), reference.events);
    }

    /// Column capture keeps exactly what the `Vec<Event>` buffer kept,
    /// on interleaved streams of every kind: after every offer the
    /// rebuilt stream, length, weight and decimations match, and every
    /// trace range slices to the filtered reference. (The lattice
    /// properties above offer memory events only, so they cannot see
    /// one column renumbered out of step with another.)
    #[test]
    fn column_capture_matches_the_event_vector_reference(
        capacity in 1usize..64,
        dilution in 1u64..3,
        preset in 0u64..5,
        kinds in prop::collection::vec(0u8..4, 1..400),
        ranges in prop::collection::vec((any::<u16>(), any::<u16>()), 1..6),
    ) {
        let mut reference = Reference::with_capacity(capacity);
        let (mut trace, mut chunks) = trace(capacity);
        if preset > 0 {
            reference.weight = preset;
            trace.preset_weight(preset);
        }
        // Every event but a `Return` carries its offer index, so a
        // survivor misplaced within or across columns shows.
        for (i, &kind) in kinds.iter().enumerate() {
            let event = match kind {
                0 => Event::Branch { site: i as u32, taken: i % 3 == 0 },
                1 => Event::Mem { addr: i as u64 },
                2 => Event::Call { callee: FnId(i as u32) },
                _ => Event::Return,
            };
            let kept = reference.push_diluted(event, dilution);
            prop_assert_eq!(trace.push_diluted(&mut chunks, event, dilution), kept);
            prop_assert_eq!(&chunks.events(), &reference.events);
            prop_assert_eq!(trace.len(), reference.events.len());
            prop_assert_eq!(trace.weight(), reference.weight);
            prop_assert_eq!(trace.decimations(), reference.decimations);
        }
        let len = reference.events.len();
        for &(a, b) in &ranges {
            let (a, b) = (a as usize % (len + 1), b as usize % (len + 1));
            let (start, end) = (a.min(b), a.max(b));
            let slices = chunks.kind_ranges(start, end);
            let window = &reference.events[start..end];
            let branches: Vec<(u32, bool)> = window
                .iter()
                .filter_map(|e| match *e {
                    Event::Branch { site, taken } => Some((site, taken)),
                    _ => None,
                })
                .collect();
            let got: Vec<(u32, bool)> = slices
                .branch_sites
                .iter()
                .copied()
                .zip(slices.branch_takens.iter().copied())
                .collect();
            prop_assert_eq!(got, branches, "branches in {}..{}", start, end);
            let mems: Vec<u64> = window
                .iter()
                .filter_map(|e| match *e {
                    Event::Mem { addr } => Some(addr),
                    _ => None,
                })
                .collect();
            prop_assert_eq!(slices.mem_addrs, &mems[..], "memory in {}..{}", start, end);
            let calls: Vec<FnId> = window
                .iter()
                .filter_map(|e| match *e {
                    Event::Call { callee } => Some(callee),
                    _ => None,
                })
                .collect();
            prop_assert_eq!(slices.call_callees, &calls[..], "calls in {}..{}", start, end);
        }
    }
}
