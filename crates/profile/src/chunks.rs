//! Struct-of-arrays event columns: the captured trace.
//!
//! The detailed-measurement hot path replays every retained trace event
//! through the microarchitectural models. Walking a `&[Event]` pays a
//! per-event enum dispatch whose arm is data-dependent — on an
//! interleaved branch/memory/call stream the *host's* branch predictor
//! mispredicts the match continuously — plus a virtual predictor call
//! per branch. The profiler therefore captures straight into
//! [`EventChunks`]: per-kind parallel arrays over which replay engines
//! run one tight, dispatch-free kernel loop per kind. They are the only
//! copy of the kept events; [`EventChunks::events`] rebuilds the
//! interleaved stream where the scalar reference engine and tests need
//! it.
//!
//! Order preservation: the three microarchitectural state machines a
//! replay drives are *disjoint* — branch events touch only the
//! predictor, memory events only the data hierarchy, call events only
//! the instruction cache — so replaying each kind's sub-stream in its
//! own order is exactly equivalent to replaying the interleaved stream.
//! Each kind additionally records the trace index of every entry, so
//! any half-open trace range `[start, end)` (a medoid window, a warming
//! gap) maps to one contiguous sub-range per kind via binary search;
//! within a range, per-kind order is the trace order.

use crate::event::Event;
use crate::profiler::FnId;

/// Per-kind parallel arrays holding one event stream.
///
/// Filled event by event under the retention rule of an
/// [`EventTrace`](crate::EventTrace); sliced per window with
/// [`EventChunks::kind_ranges`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EventChunks {
    /// Trace indices of the branch events, ascending.
    branch_pos: Vec<usize>,
    /// Static branch sites, parallel to `branch_pos`.
    branch_sites: Vec<u32>,
    /// Branch outcomes, parallel to `branch_pos`.
    branch_takens: Vec<bool>,
    /// Trace indices of the memory events, ascending.
    mem_pos: Vec<usize>,
    /// Accessed byte addresses, parallel to `mem_pos`.
    mem_addrs: Vec<u64>,
    /// Trace indices of the call events, ascending.
    call_pos: Vec<usize>,
    /// Entered functions, parallel to `call_pos`.
    call_callees: Vec<FnId>,
    /// Total events held, including `Return`s (which carry no
    /// microarchitectural state and get no array).
    len: usize,
}

/// Per-kind slices of an [`EventChunks`] restricted to one trace range.
#[derive(Debug, Clone, Copy)]
pub struct ChunkSlices<'a> {
    /// Branch sites within the range, in trace order.
    pub branch_sites: &'a [u32],
    /// Branch outcomes, parallel to `branch_sites`.
    pub branch_takens: &'a [bool],
    /// Load/store addresses within the range, in trace order.
    pub mem_addrs: &'a [u64],
    /// Called functions within the range, in trace order.
    pub call_callees: &'a [FnId],
}

/// Keeps the entries of `values` whose trace index in the parallel
/// `pos` is odd. Branch-free, since the parity of successive entries of
/// one kind follows the interleaving of kinds.
fn keep_odd<T: Copy>(pos: &[usize], values: &mut Vec<T>) {
    let mut keep = 0;
    for (i, &p) in pos.iter().enumerate() {
        values[keep] = values[i];
        keep += p & 1;
    }
    values.truncate(keep);
}

/// Keeps the odd trace indices of `pos`, renumbered `i → i / 2`.
fn keep_odd_positions(pos: &mut Vec<usize>) {
    let mut keep = 0;
    for i in 0..pos.len() {
        let p = pos[i];
        pos[keep] = p / 2;
        keep += p & 1;
    }
    pos.truncate(keep);
}

impl EventChunks {
    /// Appends `event` at trace index [`len`](EventChunks::len).
    #[inline(always)]
    pub(crate) fn push(&mut self, event: Event) {
        let index = self.len;
        match event {
            Event::Branch { site, taken } => {
                self.branch_pos.push(index);
                self.branch_sites.push(site);
                self.branch_takens.push(taken);
            }
            Event::Mem { addr } => {
                self.mem_pos.push(index);
                self.mem_addrs.push(addr);
            }
            Event::Call { callee } => {
                self.call_pos.push(index);
                self.call_callees.push(callee);
            }
            Event::Return => {}
        }
        self.len += 1;
    }

    /// Keeps the events at odd trace indices, renumbered `i → i / 2`:
    /// one decimation of the trace, column by column.
    pub(crate) fn keep_odd_indices(&mut self) {
        keep_odd(&self.branch_pos, &mut self.branch_sites);
        keep_odd(&self.branch_pos, &mut self.branch_takens);
        keep_odd(&self.mem_pos, &mut self.mem_addrs);
        keep_odd(&self.call_pos, &mut self.call_callees);
        keep_odd_positions(&mut self.branch_pos);
        keep_odd_positions(&mut self.mem_pos);
        keep_odd_positions(&mut self.call_pos);
        self.len /= 2;
    }

    /// The interleaved event stream, rebuilt in trace order: the input
    /// of the scalar reference engine. Every trace index no column
    /// claims is a `Return`.
    pub fn events(&self) -> Vec<Event> {
        let mut events = vec![Event::Return; self.len];
        let branches = self.branch_sites.iter().zip(&self.branch_takens);
        for (&p, (&site, &taken)) in self.branch_pos.iter().zip(branches) {
            events[p] = Event::Branch { site, taken };
        }
        for (&p, &addr) in self.mem_pos.iter().zip(&self.mem_addrs) {
            events[p] = Event::Mem { addr };
        }
        for (&p, &callee) in self.call_pos.iter().zip(&self.call_callees) {
            events[p] = Event::Call { callee };
        }
        events
    }

    /// Number of events held (including `Return`s).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are held.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of branch events.
    pub fn branches(&self) -> usize {
        self.branch_pos.len()
    }

    /// Number of memory events.
    pub fn mem_accesses(&self) -> usize {
        self.mem_pos.len()
    }

    /// Number of call events.
    pub fn calls(&self) -> usize {
        self.call_pos.len()
    }

    /// The per-kind slices covering trace indices `[start, end)`.
    ///
    /// Positions are ascending, so each kind's sub-range is found by two
    /// binary searches; the returned slices preserve trace order within
    /// the range.
    pub fn kind_ranges(&self, start: usize, end: usize) -> ChunkSlices<'_> {
        let sub = |pos: &[usize]| {
            let lo = pos.partition_point(|&p| p < start);
            let hi = pos.partition_point(|&p| p < end);
            (lo, hi)
        };
        let (b_lo, b_hi) = sub(&self.branch_pos);
        let (m_lo, m_hi) = sub(&self.mem_pos);
        let (c_lo, c_hi) = sub(&self.call_pos);
        ChunkSlices {
            branch_sites: &self.branch_sites[b_lo..b_hi],
            branch_takens: &self.branch_takens[b_lo..b_hi],
            mem_addrs: &self.mem_addrs[m_lo..m_hi],
            call_callees: &self.call_callees[c_lo..c_hi],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mixed_events() -> Vec<Event> {
        let mut events = Vec::new();
        for i in 0..100u64 {
            events.push(Event::Branch {
                site: (i % 7) as u32,
                taken: i % 3 == 0,
            });
            events.push(Event::Mem { addr: i * 64 });
            if i % 5 == 0 {
                events.push(Event::Call {
                    callee: FnId((i % 4) as u32),
                });
                events.push(Event::Mem { addr: i * 8 });
                events.push(Event::Return);
            }
        }
        events
    }

    fn chunks_of(events: &[Event]) -> EventChunks {
        let mut chunks = EventChunks::default();
        for &event in events {
            chunks.push(event);
        }
        chunks
    }

    #[test]
    fn transposition_partitions_every_kind() {
        let events = mixed_events();
        let chunks = chunks_of(&events);
        assert_eq!(chunks.len(), events.len());
        assert_eq!(chunks.branches(), 100);
        assert_eq!(chunks.mem_accesses(), 120, "100 + 20 memory events");
        assert_eq!(chunks.calls(), 20);
        let full = chunks.kind_ranges(0, events.len());
        assert_eq!(full.branch_sites.len(), 100);
        assert_eq!(full.mem_addrs.len(), 120);
        assert_eq!(full.call_callees.len(), 20);
        assert_eq!(chunks.events(), events, "the columns rebuild the stream");
    }

    #[test]
    fn keeping_odd_indices_renumbers_every_column() {
        let events = mixed_events();
        let mut chunks = chunks_of(&events);
        chunks.keep_odd_indices();
        let odd: Vec<Event> = events.iter().skip(1).step_by(2).copied().collect();
        assert_eq!(chunks.events(), odd);
        assert_eq!(
            chunks,
            chunks_of(&odd),
            "same columns as pushing the survivors"
        );
    }

    #[test]
    fn kind_ranges_match_scalar_filtering() {
        let events = mixed_events();
        let chunks = chunks_of(&events);
        for (start, end) in [(0, events.len()), (10, 200), (37, 38), (50, 50)] {
            let slices = chunks.kind_ranges(start, end);
            let branches: Vec<(u32, bool)> = events[start..end]
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
            assert_eq!(got, branches, "range {start}..{end}");
            let mems: Vec<u64> = events[start..end]
                .iter()
                .filter_map(|e| match *e {
                    Event::Mem { addr } => Some(addr),
                    _ => None,
                })
                .collect();
            assert_eq!(slices.mem_addrs, &mems[..], "range {start}..{end}");
            let calls: Vec<FnId> = events[start..end]
                .iter()
                .filter_map(|e| match *e {
                    Event::Call { callee } => Some(callee),
                    _ => None,
                })
                .collect();
            assert_eq!(slices.call_callees, &calls[..], "range {start}..{end}");
        }
    }

    #[test]
    fn out_of_bounds_ranges_clamp_to_empty() {
        let chunks = chunks_of(&mixed_events());
        let past = chunks.kind_ranges(chunks.len() + 10, chunks.len() + 20);
        assert!(past.branch_sites.is_empty());
        assert!(past.mem_addrs.is_empty());
        assert!(past.call_callees.is_empty());
        let empty = EventChunks::default();
        assert!(empty.is_empty());
        assert!(empty.kind_ranges(0, 0).branch_sites.is_empty());
    }
}
