//! Sampled event traces.
//!
//! A full instruction trace of even a reduced benchmark run is billions of
//! events; the paper's hardware counters face the same constraint and
//! sample. [`EventTrace`] is the retention rule: it keeps every Nth event
//! of each kind and remembers the sampling interval so downstream
//! consumers can weight replayed events accordingly. It stores no events
//! itself — each kept event is appended to the [`EventChunks`] columns it
//! is handed, which are the trace's only copy. When the trace reaches its
//! capacity it *decimates*: every other kept event is dropped from the
//! columns and the go-forward interval doubles, which keeps the kept
//! events (approximately) uniformly spread over the whole execution
//! instead of truncating its tail.

use crate::chunks::EventChunks;
use crate::profiler::FnId;

/// One sampled dynamic event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// Control transferred into `callee`.
    Call {
        /// Function being entered.
        callee: FnId,
    },
    /// Control returned to the caller.
    Return,
    /// A conditional branch at static site `site` resolved to `taken`.
    Branch {
        /// Static branch-site identifier (stable across runs).
        site: u32,
        /// Whether the branch was taken.
        taken: bool,
    },
    /// A data load or store at `addr`. Both drive the data hierarchy
    /// identically, so the trace keeps them in one stream; the exact
    /// [`Totals`](crate::Totals) still count them apart.
    Mem {
        /// Byte address.
        addr: u64,
    },
}

/// The retention rule of a bounded, decimating trace of sampled
/// [`Event`]s, whose kept events live in an [`EventChunks`].
#[derive(Debug, Clone)]
pub struct EventTrace {
    /// Kept events, equal to the length of the columns they went to.
    len: usize,
    capacity: usize,
    /// Multiplicative weight each retained event stands for, grown by
    /// decimation. Consumers replaying the trace should scale derived
    /// counts by this factor times the per-kind sampling interval.
    weight: u64,
    decimations: u32,
    /// Offers left until the next lattice point: the next offer phase
    /// that is a multiple of `weight`. Retention counts down to it
    /// instead of dividing the phase on every offer.
    countdown: u64,
    /// That lattice point's index: its phase over `weight`.
    next_lattice: u64,
}

impl EventTrace {
    /// Creates a trace that holds at most `capacity` events before
    /// decimating.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "event trace capacity must be positive");
        EventTrace {
            len: 0,
            capacity,
            weight: 1,
            decimations: 0,
            countdown: 1,
            next_lattice: 1,
        }
    }

    /// Events offered so far: the phase of the latest offer.
    fn offered(&self) -> u64 {
        self.next_lattice * self.weight - self.countdown
    }

    /// Offers an event, decimating `chunks` first if the trace is full,
    /// and appends it to `chunks` if it is retained.
    ///
    /// Returns `true` if the event was retained. After a decimation only
    /// every `weight()`-th offered event is retained, so the buffer fills
    /// at a geometrically decreasing rate and the retained samples stay
    /// spread over the whole run. (Events are offered already downsampled
    /// by the profiler's per-kind interval.) The retained set is always
    /// exactly the offers at phases `{k · weight()}`: decimation keeps the
    /// survivors on the same lattice the go-forward retention uses.
    ///
    /// `chunks` must be the columns every earlier offer went to.
    #[inline(always)]
    pub fn push(&mut self, chunks: &mut EventChunks, event: Event) -> bool {
        self.push_diluted(chunks, event, 1)
    }

    /// Offers an event at `dilution`-times-coarser retention: only every
    /// `weight() * dilution`-th offered event is kept, while the offer
    /// phase advances exactly as for [`EventTrace::push`]. Window-gated
    /// capture uses this outside its windows to record a thin *warming*
    /// stream — enough to keep replayed predictor and cache state trained
    /// across gaps — without perturbing which in-window offers land on the
    /// retention lattice. Retained diluted events are a subset of the
    /// events an undiluted trace at the same weight would keep.
    ///
    /// # Panics
    ///
    /// Panics if `dilution` is zero.
    // Always inlined, so the kind `match` of `EventChunks::push` folds
    // away in each profiler hook. Left to `#[inline]`, the compiler kept
    // this out of line, and a serial Test sweep pinned to one CPU ran
    // 3–6% slower (2-vCPU Intel Xeon guest).
    #[inline(always)]
    pub fn push_diluted(&mut self, chunks: &mut EventChunks, event: Event, dilution: u64) -> bool {
        assert!(dilution > 0, "dilution must be positive");
        debug_assert_eq!(chunks.len(), self.len, "columns out of step with the trace");
        // Decimate *before* the retention check: the weight must double
        // first so the triggering offer is itself judged against the
        // post-decimation lattice. (Decimating after the check retained
        // the trigger unconditionally, leaving one event off-lattice.)
        // `>=` rather than `==` so the buffer can never exceed capacity
        // even if a decimation frees no room.
        if self.len >= self.capacity {
            self.decimate(chunks);
        }
        // The offer's phase is a multiple of `weight * dilution` iff it
        // is a lattice point whose index is a multiple of `dilution`.
        self.countdown -= 1;
        if self.countdown > 0 {
            return false;
        }
        self.countdown = self.weight;
        let lattice = self.next_lattice;
        self.next_lattice += 1;
        if !lattice.is_multiple_of(dilution) {
            return false;
        }
        chunks.push(event);
        self.len += 1;
        debug_assert!(self.len <= self.capacity);
        true
    }

    /// Halves the columns by keeping *odd* trace indices and doubles the
    /// weight.
    ///
    /// A full buffer at weight `w` holds the events offered at phases
    /// `w, 2w, 3w, …` (index `i` ↔ phase `(i + 1)·w`), so odd indices are
    /// exactly the phases `2w, 4w, …` — the multiples of the doubled
    /// weight. Post-decimation retention keeps `phase % 2w == 0`, so the
    /// survivors and the go-forward stream sit on the same lattice, and
    /// the retained set stays "every multiple of the current weight": the
    /// documented subset relation against a [`preset_weight`] trace at
    /// equal weight holds exactly. (Keeping *even* indices — the old
    /// behaviour — kept the odd multiples of `w` instead, misaligning
    /// every pre-decimation survivor with everything retained later.)
    /// Halving a 1-element buffer keeps nothing, so capacity 1 stays
    /// bounded rather than overshooting forever.
    ///
    /// Out of line and cold, so the inlined push path stays small.
    ///
    /// [`preset_weight`]: EventTrace::preset_weight
    #[cold]
    #[inline(never)]
    fn decimate(&mut self, chunks: &mut EventChunks) {
        chunks.keep_odd_indices();
        self.len = chunks.len();
        let offered = self.offered();
        self.weight *= 2;
        self.decimations += 1;
        self.aim_countdown(offered);
    }

    /// Points the countdown at the first lattice point after phase
    /// `offered`, for the current weight.
    fn aim_countdown(&mut self, offered: u64) {
        self.next_lattice = offered / self.weight + 1;
        self.countdown = self.next_lattice * self.weight - offered;
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events were retained.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Multiplicative weight of each retained event due to decimation.
    pub fn weight(&self) -> u64 {
        self.weight
    }

    /// Presets the retention weight, as if the trace had already been
    /// decimated to it: only every `weight`-th offered event is retained
    /// from the start. Used by window-gated capture to match the event
    /// density a full run's decimated trace would have.
    ///
    /// # Panics
    ///
    /// Panics if `weight` is zero or events were already offered — a
    /// mid-run change would make the retained stride meaningless.
    pub fn preset_weight(&mut self, weight: u64) {
        assert!(weight > 0, "trace weight must be positive");
        assert!(
            self.offered() == 0 && self.len == 0,
            "weight must be preset before any event is offered"
        );
        self.weight = weight;
        self.aim_countdown(0);
    }

    /// How many times the buffer was decimated.
    pub fn decimations(&self) -> u32 {
        self.decimations
    }
}

impl Default for EventTrace {
    fn default() -> Self {
        EventTrace::with_capacity(DEFAULT_TRACE_CAPACITY)
    }
}

/// Default maximum number of retained events (~1M, tens of MB at most).
pub(crate) const DEFAULT_TRACE_CAPACITY: usize = 1 << 20;

#[cfg(test)]
mod tests {
    use super::*;

    fn mem(i: u64) -> Event {
        Event::Mem { addr: i }
    }

    /// Offers `mem(i)` for every `i` in `addrs` to a fresh trace of
    /// `capacity` and returns it with the columns it filled.
    fn filled(capacity: usize, addrs: std::ops::Range<u64>) -> (EventTrace, EventChunks) {
        let mut t = EventTrace::with_capacity(capacity);
        let mut c = EventChunks::default();
        for i in addrs {
            t.push(&mut c, mem(i));
        }
        (t, c)
    }

    fn addrs(c: &EventChunks) -> Vec<u64> {
        c.kind_ranges(0, c.len()).mem_addrs.to_vec()
    }

    #[test]
    fn push_retains_until_capacity() {
        let (t, c) = filled(8, 0..8);
        assert_eq!(t.len(), 8);
        assert_eq!(c.len(), 8);
        assert_eq!(t.weight(), 1);
        assert_eq!(t.decimations(), 0);
    }

    #[test]
    fn decimation_halves_and_doubles_weight() {
        let (t, c) = filled(8, 0..10);
        // Offer 9 (addr 8) triggers decimation: survivors are the odd
        // indices — offer phases 2,4,6,8 (addrs 1,3,5,7) — and the
        // trigger itself (phase 9) is off the doubled lattice, so it is
        // dropped; offer 10 (addr 9, phase 10) lands on it.
        assert_eq!(t.len(), 5);
        assert_eq!(c.len(), 5);
        assert_eq!(t.weight(), 2);
        assert_eq!(t.decimations(), 1);
        assert_eq!(addrs(&c), vec![1, 3, 5, 7, 9]);
    }

    /// Every retained event sits at an offer phase that is a multiple of
    /// the *current* weight — survivors of decimation and later retains
    /// share one lattice, so a `preset_weight(w)` trace over the same
    /// stream retains a superset (event.rs's windowed-replay invariant).
    #[test]
    fn decimation_keeps_survivors_on_the_final_lattice() {
        for capacity in [4usize, 8, 16, 32] {
            // addr == offer phase
            let (t, c) = filled(capacity, 1..2001);
            let w = t.weight();
            assert!(t.decimations() > 0, "capacity {capacity} must decimate");
            let phases = addrs(&c);
            for &p in &phases {
                assert_eq!(p % w, 0, "phase {p} off the weight-{w} lattice");
            }
            // And they are *consecutive* multiples: the retained set is
            // exactly what a preset-weight trace would have kept.
            for pair in phases.windows(2) {
                assert_eq!(pair[1] - pair[0], w, "gap in {phases:?}");
            }
        }
    }

    /// Regression: tiny capacities must stay bounded. A 1-element buffer
    /// used to free no room on decimation (keeping even indices keeps
    /// index 0), overshoot, and then never satisfy the `==` fullness
    /// check again — growing without bound.
    #[test]
    fn tiny_capacities_stay_bounded() {
        for capacity in [1usize, 2, 3] {
            let mut t = EventTrace::with_capacity(capacity);
            let mut c = EventChunks::default();
            for i in 0..10_000u64 {
                t.push(&mut c, mem(i));
                assert!(
                    t.len() <= capacity && c.len() == t.len(),
                    "capacity {capacity} overshot to {} at push {i}",
                    c.len()
                );
            }
            // (A capacity-1 buffer may be transiently empty right after
            // a decimation; boundedness is the invariant, not fullness.)
            assert!(t.decimations() > 0, "capacity {capacity} never decimated");
        }
    }

    #[test]
    fn repeated_decimation_spreads_samples_over_run() {
        let (t, c) = filled(16, 0..1000);
        assert!(t.len() <= 16);
        assert!(t.weight() >= 64, "weight {} too small", t.weight());
        // Retained samples must span most of the run, not just its head.
        let max = addrs(&c).into_iter().max().unwrap();
        assert!(max >= 900, "tail not represented: max addr {max}");
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = EventTrace::with_capacity(0);
    }

    #[test]
    fn default_trace_is_empty() {
        let t = EventTrace::default();
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        assert_eq!(t.weight(), 1);
    }

    #[test]
    fn iterates_in_program_order() {
        let mut t = EventTrace::with_capacity(4);
        let mut c = EventChunks::default();
        let offered = [
            Event::Call { callee: FnId(1) },
            Event::Branch {
                site: 7,
                taken: true,
            },
            Event::Return,
        ];
        for event in offered {
            t.push(&mut c, event);
        }
        assert_eq!(c.events(), offered);
    }
}
