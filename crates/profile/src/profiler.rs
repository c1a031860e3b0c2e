//! The [`Profiler`] and its outputs.

use crate::calltree::{CallTree, PathTable};
use crate::chunks::EventChunks;
use crate::event::{Event, EventTrace, DEFAULT_TRACE_CAPACITY};
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// Identifier of an instrumented function, issued by
/// [`Profiler::register_function`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FnId(pub u32);

/// Static metadata of an instrumented function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnMeta {
    /// Human-readable name, unique per profiler.
    pub name: String,
    /// Approximate machine-code footprint in bytes, used by the I-cache
    /// model. Mini-benchmarks assign footprints commensurate with the
    /// complexity of the routine they stand in for.
    pub code_bytes: u32,
}

/// Sampling configuration: keep one out of every `interval` events of each
/// kind in the trace. Counters (totals, per-function work) are *always*
/// exact; sampling only affects the replayable [`EventTrace`].
///
/// Also carries the run's *resilience knobs*: an optional deterministic
/// [work budget](SampleConfig::work_budget) and an optional injected
/// [fault](SampleConfig::fault) used by the fault-injection harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SampleConfig {
    /// Keep every Nth conditional branch event.
    pub branch_interval: u32,
    /// Keep every Nth load/store event.
    pub mem_interval: u32,
    /// Keep every Nth call/return event.
    pub call_interval: u32,
    /// Maximum retained events before decimation kicks in.
    pub trace_capacity: usize,
    /// Deterministic watchdog: when set, the run aborts (by unwinding
    /// with a [`BudgetExceeded`] payload) as soon as retired ops exceed
    /// this budget. Retired-op counting is deterministic, so the abort
    /// fires at the same count on every repetition of the same run.
    pub work_budget: Option<u64>,
    /// Phase-sampling hook: when set, the run is sliced into fixed-work
    /// intervals of (at least) this many retired ops, and the profiler
    /// snapshots one [`IntervalSnapshot`] of exact counter deltas per
    /// interval. Slicing is by the exact retired-op count, so interval
    /// boundaries are deterministic per run.
    pub interval_work: Option<u64>,
    /// Fault to inject into this run's event stream (testing hook for the
    /// degradation paths; `None` in normal operation).
    pub fault: Option<ProfilerFault>,
}

impl Default for SampleConfig {
    fn default() -> Self {
        SampleConfig {
            branch_interval: 1,
            mem_interval: 1,
            call_interval: 1,
            trace_capacity: DEFAULT_TRACE_CAPACITY,
            work_budget: None,
            interval_work: None,
            fault: None,
        }
    }
}

impl SampleConfig {
    /// A sparser configuration for quick experiments: 1-in-4 branch and
    /// memory sampling with a smaller trace buffer.
    pub fn sparse() -> Self {
        SampleConfig {
            branch_interval: 4,
            mem_interval: 4,
            call_interval: 4,
            trace_capacity: DEFAULT_TRACE_CAPACITY / 4,
            ..SampleConfig::default()
        }
    }

    /// Returns the configuration with a work budget installed.
    pub fn with_work_budget(mut self, budget: u64) -> Self {
        self.work_budget = Some(budget);
        self
    }

    /// Returns the configuration with a fault installed.
    pub fn with_fault(mut self, fault: ProfilerFault) -> Self {
        self.fault = Some(fault);
        self
    }

    /// Returns the configuration with fixed-work interval slicing enabled.
    ///
    /// # Panics
    ///
    /// Panics if `interval_work` is zero.
    pub fn with_interval_work(mut self, interval_work: u64) -> Self {
        assert!(interval_work > 0, "interval work must be positive");
        self.interval_work = Some(interval_work);
        self
    }
}

/// A deterministic fault injected into a profiled run. Event indices count
/// every instrumentation call (`enter`, `exit`, `retire`, `branch`,
/// `load`, `store`), starting at 1, so a given fault always fires at the
/// same point of the same run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProfilerFault {
    /// Panics (with a plain string payload, like a benchmark bug would)
    /// when the Nth instrumentation event is recorded.
    PanicAtEvent(u64),
    /// Corrupts the profiler's branch bookkeeping at the Nth event by
    /// inflating the taken-branch counter past any plausible value; the
    /// corruption is caught later by [`Profile::validate`].
    CorruptEvents {
        /// Event index at which the corruption lands.
        at: u64,
    },
}

/// Panic payload carried by a deterministic work-budget abort.
///
/// [`Profiler::retire`] throws this (via [`std::panic::panic_any`]) the
/// moment retired ops exceed [`SampleConfig::work_budget`]. Harnesses
/// catch it at the benchmark boundary (`alberta_benchmarks::run_guarded`)
/// and surface it as a typed error instead of a crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BudgetExceeded {
    /// The configured budget.
    pub budget: u64,
    /// Retired ops at the moment the budget check fired (the first prefix
    /// sum strictly above the budget — deterministic per run).
    pub retired_ops: u64,
}

/// A violated internal-consistency invariant of a [`Profile`], reported
/// by [`Profile::validate`]. These only occur when the event stream was
/// corrupted (by a bug or by injected faults) — valid instrumentation
/// cannot produce them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InvariantViolation {
    /// More taken branches than branches.
    TakenExceedsBranches {
        /// Taken-branch count.
        taken: u64,
        /// Total branch count.
        branches: u64,
    },
    /// Fewer retired ops than the floor implied by the event counts
    /// (every branch, load, and store retires at least one op).
    RetiredBelowEventFloor {
        /// Retired ops recorded.
        retired: u64,
        /// Minimum implied by branches + loads + stores.
        floor: u64,
    },
    /// More work attributed to functions than was retired in total.
    AttributedExceedsRetired {
        /// Sum of per-function attributed work.
        attributed: u64,
        /// Total retired ops.
        retired: u64,
    },
    /// The aggregate call counter disagrees with the per-function calls.
    CallTotalsMismatch {
        /// Aggregate counter.
        total: u64,
        /// Sum over functions.
        per_function: u64,
    },
    /// The call tree disagrees with the flat per-function counters: the
    /// sum of per-path exclusive work must equal the sum of `fn_work`
    /// (both sides attribute every in-scope retired op exactly once).
    TreeDisagreesWithFlat {
        /// Sum of exclusive work over call-tree paths.
        tree: u64,
        /// Sum of the flat per-function work vector.
        flat: u64,
    },
}

impl fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InvariantViolation::TakenExceedsBranches { taken, branches } => {
                write!(f, "{taken} taken branches exceed {branches} total branches")
            }
            InvariantViolation::RetiredBelowEventFloor { retired, floor } => {
                write!(f, "{retired} retired ops below event floor {floor}")
            }
            InvariantViolation::AttributedExceedsRetired {
                attributed,
                retired,
            } => write!(
                f,
                "{attributed} attributed work units exceed {retired} retired ops"
            ),
            InvariantViolation::CallTotalsMismatch {
                total,
                per_function,
            } => write!(
                f,
                "aggregate call count {total} disagrees with per-function sum {per_function}"
            ),
            InvariantViolation::TreeDisagreesWithFlat { tree, flat } => write!(
                f,
                "call-tree exclusive work {tree} disagrees with flat attributed work {flat}"
            ),
        }
    }
}

impl std::error::Error for InvariantViolation {}

/// Exact aggregate event counts for one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    /// Abstract retired micro-ops (useful work).
    pub retired_ops: u64,
    /// Dynamic conditional branches.
    pub branches: u64,
    /// Dynamic taken conditional branches.
    pub taken_branches: u64,
    /// Dynamic loads.
    pub loads: u64,
    /// Dynamic stores.
    pub stores: u64,
    /// Dynamic calls to instrumented functions.
    pub calls: u64,
}

impl Totals {
    /// Component-wise difference `self - earlier`, used to turn two
    /// snapshots of the monotone counters into one interval's delta.
    pub fn delta_since(&self, earlier: &Totals) -> Totals {
        Totals {
            retired_ops: self.retired_ops - earlier.retired_ops,
            branches: self.branches - earlier.branches,
            taken_branches: self.taken_branches - earlier.taken_branches,
            loads: self.loads - earlier.loads,
            stores: self.stores - earlier.stores,
            calls: self.calls - earlier.calls,
        }
    }
}

/// Exact working-set footprint: how many distinct cache lines and pages
/// the run's loads and stores touched.
///
/// Tracked directly by the instrumentation hooks — which see every
/// access regardless of trace sampling or window gating — so footprints
/// are exact even in pilot and detail passes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Footprint {
    /// Distinct [`Footprint::LINE_BYTES`]-sized lines touched.
    pub lines: u64,
    /// Distinct [`Footprint::PAGE_BYTES`]-sized pages touched.
    pub pages: u64,
}

impl Footprint {
    /// Line granularity of footprint tracking (matches the modelled
    /// cache hierarchy's 64-byte lines).
    pub const LINE_BYTES: u64 = 64;
    /// Page granularity of footprint tracking (matches the modelled
    /// D-TLB's 4 KiB pages).
    pub const PAGE_BYTES: u64 = 4096;

    /// The footprint in bytes at line granularity.
    pub fn line_bytes(&self) -> u64 {
        self.lines * Self::LINE_BYTES
    }

    /// The footprint in bytes at page granularity.
    pub fn page_bytes(&self) -> u64 {
        self.pages * Self::PAGE_BYTES
    }
}

/// Exact counter deltas for one fixed-work interval of a run, snapshotted
/// when [`SampleConfig::interval_work`] is set.
///
/// Intervals are cut the first time the retired-op count reaches the next
/// multiple of `interval_work`, so a single large `retire` may produce an
/// interval somewhat longer than the nominal size; boundaries are exact
/// functions of the deterministic retired-op stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntervalSnapshot {
    /// Zero-based interval index in run order.
    pub index: usize,
    /// Retired-op count at the start of the interval (inclusive).
    pub start_ops: u64,
    /// Retired-op count at the end of the interval (exclusive).
    pub end_ops: u64,
    /// Counter deltas accumulated within the interval.
    pub totals: Totals,
    /// Per-function work delta within the interval, parallel to the
    /// function table *as of the cut* (functions registered later are
    /// implicitly zero — index with `get(i).unwrap_or(0)`).
    pub fn_work: Vec<u64>,
    /// Cumulative distinct lines/pages touched from the start of the
    /// run through the end of this interval (monotone across
    /// intervals; the last snapshot's value need not equal the run
    /// footprint when work retires after the final cut).
    pub footprint: Footprint,
}

/// One detail window of a re-run: the half-open retired-op range
/// `[start_ops, end_ops)` during which the profiler captured trace events,
/// plus the trace-index range those events landed in.
///
/// Trace indices are only meaningful while the trace has not decimated
/// (`Profile::trace.decimations() == 0`); orchestrators size the capacity
/// so detail runs never decimate and must check before slicing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DetailWindow {
    /// Retired-op count at which capture opens (inclusive).
    pub start_ops: u64,
    /// Retired-op count at which capture closes (exclusive).
    pub end_ops: u64,
    /// First trace index captured inside the window.
    pub trace_start: usize,
    /// One past the last trace index captured inside the window.
    pub trace_end: usize,
}

/// The result of one instrumented run.
#[derive(Debug, Clone)]
pub struct Profile {
    /// Function table, indexed by [`FnId`].
    pub functions: Vec<FnMeta>,
    /// Work units attributed to each function (parallel to `functions`).
    pub fn_work: Vec<u64>,
    /// Dynamic call counts per function (parallel to `functions`).
    pub fn_calls: Vec<u64>,
    /// Exact aggregate counters.
    pub totals: Totals,
    /// Retention state of the sampled event trace: its length, weight
    /// and decimations. The events themselves are in `chunks`.
    pub trace: EventTrace,
    /// The sampled event trace for microarchitectural replay, one column
    /// per event kind: the only copy of the kept events, written as the
    /// run is captured.
    pub chunks: EventChunks,
    /// The sampling configuration the trace was captured with.
    pub sampling: SampleConfig,
    /// Exact path-keyed call tree (unaffected by sampling).
    pub calltree: CallTree,
    /// Fixed-work interval snapshots (empty unless
    /// [`SampleConfig::interval_work`] was set).
    pub intervals: Vec<IntervalSnapshot>,
    /// Detail windows the trace capture was gated to (empty unless the
    /// profiler was built with [`Profiler::with_detail_windows`]).
    pub windows: Vec<DetailWindow>,
    /// Exact working-set footprint of the run's loads and stores.
    pub footprint: Footprint,
}

impl Profile {
    /// Method coverage as percentages of total attributed work,
    /// keyed by function name — the paper's Section V-C input.
    ///
    /// Functions with zero attributed work are included at 0%.
    pub fn coverage_percent(&self) -> BTreeMap<String, f64> {
        let total: u64 = self.fn_work.iter().sum();
        self.functions
            .iter()
            .zip(&self.fn_work)
            .map(|(meta, &work)| {
                let pct = if total == 0 {
                    0.0
                } else {
                    work as f64 / total as f64 * 100.0
                };
                (meta.name.clone(), pct)
            })
            .collect()
    }

    /// The fraction of branches that were taken, or `None` when no
    /// branches executed.
    pub fn taken_branch_fraction(&self) -> Option<f64> {
        if self.totals.branches == 0 {
            None
        } else {
            Some(self.totals.taken_branches as f64 / self.totals.branches as f64)
        }
    }

    /// Looks up a function's id by name.
    pub fn fn_id(&self, name: &str) -> Option<FnId> {
        self.functions
            .iter()
            .position(|m| m.name == name)
            .map(|i| FnId(i as u32))
    }

    /// The name-resolved view of the call tree: deterministically ordered
    /// paths with exact exclusive/inclusive work and call counts, ready
    /// for hot-path extraction and `.folded` emission.
    pub fn path_table(&self) -> PathTable {
        let names: Vec<&str> = self.functions.iter().map(|m| m.name.as_str()).collect();
        self.calltree.resolve(&names)
    }

    /// Checks the profile's internal-consistency invariants.
    ///
    /// Valid instrumentation cannot violate them; a violation means the
    /// event stream was corrupted somewhere between the benchmark and the
    /// analysis, and the run's numbers must not enter any summary.
    ///
    /// # Errors
    ///
    /// Returns the first violated [`InvariantViolation`].
    pub fn validate(&self) -> Result<(), InvariantViolation> {
        let t = &self.totals;
        if t.taken_branches > t.branches {
            return Err(InvariantViolation::TakenExceedsBranches {
                taken: t.taken_branches,
                branches: t.branches,
            });
        }
        let floor = t.branches + t.loads + t.stores;
        if t.retired_ops < floor {
            return Err(InvariantViolation::RetiredBelowEventFloor {
                retired: t.retired_ops,
                floor,
            });
        }
        let attributed: u64 = self.fn_work.iter().sum();
        if attributed > t.retired_ops {
            return Err(InvariantViolation::AttributedExceedsRetired {
                attributed,
                retired: t.retired_ops,
            });
        }
        let per_function: u64 = self.fn_calls.iter().sum();
        if t.calls != per_function {
            return Err(InvariantViolation::CallTotalsMismatch {
                total: t.calls,
                per_function,
            });
        }
        let tree = self.calltree.total_exclusive();
        if tree != attributed {
            return Err(InvariantViolation::TreeDisagreesWithFlat {
                tree,
                flat: attributed,
            });
        }
        Ok(())
    }
}

/// One open scope on the profiler's stack.
#[derive(Debug, Clone, Copy)]
struct Frame {
    /// The function this scope belongs to.
    id: FnId,
    /// Whether this scope's `Call` made it into the sampled trace; its
    /// `Return` is emitted iff it did, so the trace stays properly
    /// nested under any sampling interval.
    sampled: bool,
    /// Whether the call phase hit for this scope at all (even while the
    /// window gate was closed); its `Return` then advances the trace
    /// phase so gated capture keeps full-run retention alignment.
    offered: bool,
}

/// Hashes a page number with one wide multiply, folding the high half
/// of the product into the low so that both the bucket index (low bits)
/// and the control tag (high bits) of the map depend on every input bit.
/// Page numbers come from the benchmarks, not from an adversary, so the
/// map needs no keyed hash.
#[derive(Debug, Default)]
struct PageHasher(u64);

impl Hasher for PageHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u64(self.0 ^ u64::from(byte));
        }
    }

    fn write_u64(&mut self, n: u64) {
        let product = u128::from(n) * 0x9E37_79B9_7F4A_7C15;
        self.0 = product as u64 ^ (product >> 64) as u64;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Collects instrumentation events from a mini-benchmark run.
///
/// See the [crate documentation](crate) for an end-to-end example.
#[derive(Debug)]
pub struct Profiler {
    functions: Vec<FnMeta>,
    /// Ordered, not hashed: a default `HashMap` frees its names in an
    /// order picked by a per-process random seed, and the allocator's
    /// reuse of freed memory follows that order, so a process running
    /// many workloads would reach a different peak resident set each
    /// time.
    name_index: BTreeMap<String, FnId>,
    fn_work: Vec<u64>,
    fn_calls: Vec<u64>,
    stack: Vec<Frame>,
    totals: Totals,
    trace: EventTrace,
    chunks: EventChunks,
    calltree: CallTree,
    sampling: SampleConfig,
    branch_phase: u32,
    mem_phase: u32,
    call_phase: u32,
    events: u64,
    /// The event index at which `sampling.fault` fires (`u64::MAX`
    /// without a fault), so `tick` is one compare.
    fault_at: u64,
    /// Ops retired since the innermost scope was last credited. They
    /// go to its `fn_work` and call-tree node where the innermost scope
    /// changes or is read: `enter`, `exit` and `cut_interval`. `finish`
    /// needs no credit: every scope has closed by then, and ops retired
    /// outside all scopes stay unattributed.
    pending: u64,
    /// The retired-op count at which `pass_checkpoint` next has work:
    /// the least of the op past the budget, the next interval end and
    /// the next edge of the detail window under the cursor.
    checkpoint: u64,
    /// Interval-slicing state (active iff `sampling.interval_work`).
    intervals: Vec<IntervalSnapshot>,
    interval_start: Totals,
    interval_fn_work: Vec<u64>,
    next_interval_end: u64,
    /// Detail-window state. `trace_gated` is false for ordinary runs
    /// (capture always on); for window runs `trace_on` tracks whether the
    /// retired-op cursor is inside `windows[window_cursor]`.
    windows: Vec<DetailWindow>,
    window_cursor: usize,
    trace_gated: bool,
    trace_on: bool,
    /// Footprint state: one mask of touched lines per touched page
    /// (a 4 KiB page holds 64 lines of 64 B), found through
    /// `page_slots` only when the page changes, and the count of set
    /// mask bits. `last_line` and `last_page` memo the latest access,
    /// so the sequential hot path skips even the mask update, and
    /// `page_slot` indexes `last_page`'s mask. The shifts are the fixed
    /// `Footprint` granularities (6 and 12), so a real line/page number
    /// can never equal the `u64::MAX` "nothing seen yet" memo value.
    page_slots: HashMap<u64, usize, BuildHasherDefault<PageHasher>>,
    line_masks: Vec<u64>,
    lines_seen: u64,
    last_line: u64,
    last_page: u64,
    page_slot: usize,
}

/// Dilution factor of the *control* warming stream (branches, calls,
/// returns) captured outside detail windows: one event is retained per
/// `stride * WARM_DILUTION` offered, versus one per `stride` inside a
/// window. Replay consumers feed these inter-window events through
/// predictor/icache state without counting their outcomes, so state
/// stays trained across window gaps at a fraction of in-window capture
/// volume. Predictor tables and the I-cache hold their working state in
/// thousands of events, so a thinned stream warms them fully.
pub const WARM_DILUTION: u64 = 2;

/// Dilution factor of the *memory* warming stream (loads, stores):
/// none. Gap retention at the full in-window stride keeps the gap
/// memory sub-stream identical to the decimated stream a full replay
/// consumes, so every cache level enters each window with exactly the
/// state a full replay would have. The shared L3 is what forces the
/// distinction: at 32× the L2's capacity it holds reuse distances far
/// longer than any thinned gap stream can reproduce, and an
/// under-warmed L3 reads window DRAM rates several times high — the
/// L3-vs-DRAM split is the one estimate that cannot survive dilution.
pub const WARM_MEMORY_DILUTION: u64 = 1;

/// The retired-op count at which a work budget trips: the first count
/// above it. It saturates, so a budget of `u64::MAX` trips at that
/// count, which no run reaches without overflowing its counter.
fn budget_trip(budget: u64) -> u64 {
    budget.saturating_add(1)
}

impl Profiler {
    /// Creates a profiler with the given sampling configuration.
    ///
    /// # Panics
    ///
    /// Panics if `sampling.interval_work` is `Some(0)` or
    /// `sampling.trace_capacity` is zero.
    pub fn new(sampling: SampleConfig) -> Self {
        assert!(
            sampling.interval_work != Some(0),
            "interval work must be positive"
        );
        let next_interval_end = sampling.interval_work.unwrap_or(u64::MAX);
        let fault_at = match sampling.fault {
            Some(ProfilerFault::PanicAtEvent(at) | ProfilerFault::CorruptEvents { at }) => at,
            None => u64::MAX,
        };
        let mut profiler = Profiler {
            functions: Vec::new(),
            name_index: BTreeMap::new(),
            fn_work: Vec::new(),
            fn_calls: Vec::new(),
            stack: Vec::new(),
            totals: Totals::default(),
            trace: EventTrace::with_capacity(sampling.trace_capacity),
            chunks: EventChunks::default(),
            calltree: CallTree::new(),
            sampling,
            branch_phase: 0,
            mem_phase: 0,
            call_phase: 0,
            events: 0,
            fault_at,
            pending: 0,
            checkpoint: 0,
            intervals: Vec::new(),
            interval_start: Totals::default(),
            interval_fn_work: Vec::new(),
            next_interval_end,
            windows: Vec::new(),
            window_cursor: 0,
            trace_gated: false,
            trace_on: true,
            page_slots: HashMap::default(),
            line_masks: Vec::new(),
            lines_seen: 0,
            last_line: u64::MAX,
            last_page: u64::MAX,
            page_slot: 0,
        };
        profiler.aim_checkpoint();
        profiler
    }

    /// Creates a profiler whose trace capture is gated to the given
    /// half-open retired-op windows `[start, end)`, retaining only every
    /// `stride`-th offered event.
    ///
    /// Windows are sorted and empty ones dropped; overlapping windows are
    /// a caller bug (the gate would close at the first `end`). Counters,
    /// per-function work, and the call tree remain exact over the whole
    /// run. Outside the windows the trace still retains a warming stream
    /// — control events diluted by [`WARM_DILUTION`], memory events at
    /// the full stride ([`WARM_MEMORY_DILUTION`]) — so replay can keep
    /// microarchitectural state trained across the gaps. The produced
    /// [`Profile::windows`] records, per window, the trace index range
    /// captured inside it.
    ///
    /// The stride mirrors the retention a *full* run's decimated trace
    /// would have: the offer phase advances on gated-off and diluted
    /// events too, so in-window retention picks the same one-in-`stride`
    /// global stream positions a decimated full trace converges to. Pass
    /// 1 to retain every in-window offered event.
    ///
    /// # Panics
    ///
    /// Panics if `stride` is zero.
    pub fn with_detail_windows(
        sampling: SampleConfig,
        windows: &[(u64, u64)],
        stride: u64,
    ) -> Self {
        let mut sorted: Vec<(u64, u64)> = windows.iter().copied().filter(|(s, e)| e > s).collect();
        sorted.sort_unstable();
        let mut p = Profiler::new(sampling);
        p.trace.preset_weight(stride);
        p.windows = sorted
            .iter()
            .map(|&(start_ops, end_ops)| DetailWindow {
                start_ops,
                end_ops,
                trace_start: 0,
                trace_end: 0,
            })
            .collect();
        p.trace_gated = true;
        p.trace_on = false;
        p.update_windows();
        p.aim_checkpoint();
        p
    }

    /// Advances the window gate after the retired-op cursor moved.
    /// Windows that were jumped over entirely get an empty trace range.
    fn update_windows(&mut self) {
        if !self.trace_gated {
            return;
        }
        let ops = self.totals.retired_ops;
        loop {
            let Some(window) = self.windows.get_mut(self.window_cursor) else {
                self.trace_on = false;
                return;
            };
            if ops < window.start_ops {
                self.trace_on = false;
                return;
            }
            if ops < window.end_ops {
                if !self.trace_on {
                    self.trace_on = true;
                    window.trace_start = self.trace.len();
                }
                return;
            }
            // Cursor is at or past this window's end: close it.
            let at = self.trace.len();
            if !self.trace_on {
                window.trace_start = at;
            }
            window.trace_end = at;
            self.trace_on = false;
            self.window_cursor += 1;
        }
    }

    /// Records `addr` in the working-set footprint. Called by every
    /// load/store hook — before any sampling decision — so footprints
    /// stay exact under decimation and window gating.
    #[inline]
    fn touch(&mut self, addr: u64) {
        const LINE_SHIFT: u32 = Footprint::LINE_BYTES.trailing_zeros();
        const PAGE_SHIFT: u32 = Footprint::PAGE_BYTES.trailing_zeros();
        const LINES_PER_PAGE: u64 = Footprint::PAGE_BYTES / Footprint::LINE_BYTES;
        const _: () = assert!(LINES_PER_PAGE == u64::BITS as u64);
        let line = addr >> LINE_SHIFT;
        if line != self.last_line {
            self.last_line = line;
            let page = addr >> PAGE_SHIFT;
            if page != self.last_page {
                self.last_page = page;
                self.page_slot = self.page_slot_of(page);
            }
            let bit = 1 << (line % LINES_PER_PAGE);
            let mask = &mut self.line_masks[self.page_slot];
            if *mask & bit == 0 {
                *mask |= bit;
                self.lines_seen += 1;
            }
        }
    }

    /// The index of `page`'s line mask, adding an empty one the first
    /// time the page is touched. Out of line, so the inlined `touch`
    /// stays small.
    #[inline(never)]
    fn page_slot_of(&mut self, page: u64) -> usize {
        let masks = &mut self.line_masks;
        *self.page_slots.entry(page).or_insert_with(|| {
            masks.push(0);
            masks.len() - 1
        })
    }

    /// The cumulative footprint at the present point of the run.
    fn current_footprint(&self) -> Footprint {
        Footprint {
            lines: self.lines_seen,
            pages: self.line_masks.len() as u64,
        }
    }

    /// Cuts the current fixed-work interval at the present counter state.
    fn cut_interval(&mut self) {
        self.credit_pending();
        let totals = self.totals.delta_since(&self.interval_start);
        let fn_work: Vec<u64> = self
            .fn_work
            .iter()
            .enumerate()
            .map(|(i, &w)| w - self.interval_fn_work.get(i).copied().unwrap_or(0))
            .collect();
        self.intervals.push(IntervalSnapshot {
            index: self.intervals.len(),
            start_ops: self.interval_start.retired_ops,
            end_ops: self.totals.retired_ops,
            totals,
            fn_work,
            footprint: self.current_footprint(),
        });
        self.interval_start = self.totals;
        self.interval_fn_work.clone_from(&self.fn_work);
    }

    /// Advances the event counter and applies any injected fault. Called
    /// once per instrumentation hook, so event indices are deterministic
    /// for a deterministic benchmark.
    #[inline]
    fn tick(&mut self) {
        self.events += 1;
        if self.events == self.fault_at {
            self.inject_fault();
        }
    }

    /// Applies the injected fault at its event. Out of line: it runs at
    /// most once per run.
    #[cold]
    #[inline(never)]
    fn inject_fault(&mut self) {
        match self.sampling.fault {
            Some(ProfilerFault::PanicAtEvent(n)) => {
                panic!("injected fault: forced panic at event {n}");
            }
            Some(ProfilerFault::CorruptEvents { .. }) => {
                // Inflate past any count a real run could reach so
                // `Profile::validate` is guaranteed to notice.
                self.totals.taken_branches += 1 << 40;
            }
            None => {}
        }
    }

    /// Adds retired ops. Every retiring hook funnels through here, so the
    /// budget is checked against exact counts and trips at the same op
    /// count on every repetition. The common path is one add and one
    /// compare; the budget, interval and window checks wait for the
    /// checkpoint.
    #[inline]
    fn add_retired(&mut self, n: u64) {
        self.totals.retired_ops += n;
        self.pending += n;
        if self.totals.retired_ops >= self.checkpoint {
            self.pass_checkpoint();
        }
    }

    /// Runs the checks due at the checkpoint — the budget abort, the
    /// interval cut and the window gate, in that order — and aims the
    /// next checkpoint.
    ///
    /// # Panics
    ///
    /// Unwinds with a [`BudgetExceeded`] payload once retired ops exceed
    /// the work budget.
    #[cold]
    #[inline(never)]
    fn pass_checkpoint(&mut self) {
        let ops = self.totals.retired_ops;
        if let Some(budget) = self.sampling.work_budget {
            if ops >= budget_trip(budget) {
                std::panic::panic_any(BudgetExceeded {
                    budget,
                    retired_ops: ops,
                });
            }
        }
        if ops >= self.next_interval_end {
            // interval_work is Some here: the boundary is u64::MAX otherwise.
            let iw = self.sampling.interval_work.unwrap_or(u64::MAX);
            self.cut_interval();
            self.next_interval_end = (ops / iw + 1).saturating_mul(iw);
        }
        self.update_windows();
        self.aim_checkpoint();
    }

    /// Aims the checkpoint at the least retired-op count at which
    /// [`Profiler::pass_checkpoint`] has work.
    fn aim_checkpoint(&mut self) {
        let past_budget = self.sampling.work_budget.map_or(u64::MAX, budget_trip);
        let window_edge = match self.windows.get(self.window_cursor) {
            Some(window) if self.trace_on => window.end_ops,
            Some(window) => window.start_ops,
            None => u64::MAX,
        };
        self.checkpoint = past_budget.min(self.next_interval_end).min(window_edge);
    }

    /// Credits the pending ops to the innermost scope, if any.
    #[inline]
    fn credit_pending(&mut self) {
        if let Some(frame) = self.stack.last() {
            self.fn_work[frame.id.0 as usize] += self.pending;
            self.calltree.retire(self.pending);
        }
        self.pending = 0;
    }

    /// Instrumentation events recorded so far (for tests and fault
    /// placement).
    pub fn event_count(&self) -> u64 {
        self.events
    }

    /// Registers an instrumented function and returns its id.
    ///
    /// Registering the same name twice returns the existing id (and keeps
    /// the original footprint), so helper constructors may be called
    /// repeatedly.
    pub fn register_function(&mut self, name: &str, code_bytes: u32) -> FnId {
        if let Some(&id) = self.name_index.get(name) {
            return id;
        }
        let id = FnId(self.functions.len() as u32);
        self.name_index.insert(name.to_owned(), id);
        self.functions.push(FnMeta {
            name: name.to_owned(),
            code_bytes,
        });
        self.fn_work.push(0);
        self.fn_calls.push(0);
        id
    }

    /// Enters function `id`. Pair with [`Profiler::exit`].
    ///
    /// # Panics
    ///
    /// Panics if `id` was not issued by this profiler.
    #[inline]
    pub fn enter(&mut self, id: FnId) {
        assert!(
            (id.0 as usize) < self.functions.len(),
            "unregistered function id {id:?}"
        );
        self.tick();
        self.credit_pending();
        self.fn_calls[id.0 as usize] += 1;
        self.totals.calls += 1;
        self.calltree.descend(id);
        self.call_phase += 1;
        let phase_hit = self.call_phase >= self.sampling.call_interval;
        if phase_hit {
            self.call_phase = 0;
        }
        let sampled = phase_hit && self.trace_on;
        let event = Event::Call { callee: id };
        if sampled {
            self.trace.push(&mut self.chunks, event);
        } else if phase_hit && self.trace_gated {
            self.trace
                .push_diluted(&mut self.chunks, event, WARM_DILUTION);
        }
        self.stack.push(Frame {
            id,
            sampled,
            offered: phase_hit,
        });
    }

    /// Leaves the current function.
    ///
    /// # Panics
    ///
    /// Panics if no function is active (unbalanced `exit`).
    #[inline]
    pub fn exit(&mut self) {
        self.tick();
        self.credit_pending();
        let frame = self.stack.pop().expect("exit without matching enter");
        self.calltree.ascend();
        // Emit the Return iff *this* scope's Call was sampled, so the
        // sampled trace is always properly nested (keying off the
        // global call phase would pair the Return with whichever enter
        // happened most recently).
        if frame.sampled {
            self.trace.push(&mut self.chunks, Event::Return);
        } else if frame.offered && self.trace_gated {
            self.trace
                .push_diluted(&mut self.chunks, Event::Return, WARM_DILUTION);
        }
    }

    /// Records `n` retired micro-ops, attributed to the current function
    /// (or to no function when called outside any scope).
    ///
    /// # Panics
    ///
    /// Unwinds with a [`BudgetExceeded`] payload when a configured
    /// [`SampleConfig::work_budget`] is exceeded.
    #[inline]
    pub fn retire(&mut self, n: u64) {
        self.tick();
        self.add_retired(n);
    }

    /// Records a conditional branch at static site `site`.
    ///
    /// Each branch also retires one micro-op, so purely branchy code still
    /// accrues attributed work.
    #[inline]
    pub fn branch(&mut self, site: u32, taken: bool) {
        self.tick();
        self.totals.branches += 1;
        self.totals.taken_branches += taken as u64;
        self.add_retired(1);
        self.branch_phase += 1;
        if self.branch_phase >= self.sampling.branch_interval {
            self.branch_phase = 0;
            let event = Event::Branch { site, taken };
            if self.trace_on {
                self.trace.push(&mut self.chunks, event);
            } else if self.trace_gated {
                self.trace
                    .push_diluted(&mut self.chunks, event, WARM_DILUTION);
            }
        }
    }

    /// Records a data load from `addr` (retires one micro-op).
    #[inline]
    pub fn load(&mut self, addr: u64) {
        self.tick();
        self.touch(addr);
        self.totals.loads += 1;
        self.add_retired(1);
        self.sample_mem(addr);
    }

    /// Records a data store to `addr` (retires one micro-op).
    #[inline]
    pub fn store(&mut self, addr: u64) {
        self.tick();
        self.touch(addr);
        self.totals.stores += 1;
        self.add_retired(1);
        self.sample_mem(addr);
    }

    /// Offers a load or store to the trace at the memory interval.
    /// Always inlined: it is the tail of the two memory hooks.
    #[inline(always)]
    fn sample_mem(&mut self, addr: u64) {
        self.mem_phase += 1;
        if self.mem_phase >= self.sampling.mem_interval {
            self.mem_phase = 0;
            let event = Event::Mem { addr };
            if self.trace_on {
                self.trace.push(&mut self.chunks, event);
            } else if self.trace_gated {
                self.trace
                    .push_diluted(&mut self.chunks, event, WARM_MEMORY_DILUTION);
            }
        }
    }

    /// Current function-stack depth (for tests and assertions).
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    /// Finalizes the run and returns the collected [`Profile`].
    ///
    /// # Panics
    ///
    /// Panics if any function scope is still open — an unbalanced
    /// enter/exit pair is an instrumentation bug in the benchmark.
    pub fn finish(mut self) -> Profile {
        assert!(
            self.stack.is_empty(),
            "profiler finished with {} open scopes",
            self.stack.len()
        );
        // Flush the trailing partial interval so every retired op belongs
        // to exactly one snapshot.
        if self.sampling.interval_work.is_some()
            && self.totals.retired_ops > self.interval_start.retired_ops
        {
            self.cut_interval();
        }
        // Close any window still open (or never reached) at end of run.
        let at = self.trace.len();
        for window in &mut self.windows[self.window_cursor..] {
            if !self.trace_on {
                window.trace_start = at;
            }
            window.trace_end = at;
            self.trace_on = false;
        }
        let footprint = self.current_footprint();
        let mut calltree = self.calltree;
        calltree.seal();
        Profile {
            functions: self.functions,
            fn_work: self.fn_work,
            fn_calls: self.fn_calls,
            totals: self.totals,
            trace: self.trace,
            chunks: self.chunks,
            sampling: self.sampling,
            calltree,
            intervals: self.intervals,
            windows: self.windows,
            footprint,
        }
    }
}

impl Default for Profiler {
    fn default() -> Self {
        Profiler::new(SampleConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_is_idempotent() {
        let mut p = Profiler::default();
        let a = p.register_function("alpha", 100);
        let b = p.register_function("beta", 200);
        let a2 = p.register_function("alpha", 999);
        assert_eq!(a, a2);
        assert_ne!(a, b);
        let profile = p.finish();
        assert_eq!(profile.functions[a.0 as usize].code_bytes, 100);
    }

    #[test]
    fn work_attributed_to_innermost_scope() {
        let mut p = Profiler::default();
        let outer = p.register_function("outer", 64);
        let inner = p.register_function("inner", 64);
        p.enter(outer);
        p.retire(10);
        p.enter(inner);
        p.retire(30);
        p.exit();
        p.retire(5);
        p.exit();
        let profile = p.finish();
        assert_eq!(profile.fn_work[outer.0 as usize], 15);
        assert_eq!(profile.fn_work[inner.0 as usize], 30);
        assert_eq!(profile.totals.retired_ops, 45);
        assert_eq!(profile.fn_calls[inner.0 as usize], 1);
    }

    #[test]
    fn coverage_percent_sums_to_hundred() {
        let mut p = Profiler::default();
        let a = p.register_function("a", 1);
        let b = p.register_function("b", 1);
        p.enter(a);
        p.retire(75);
        p.exit();
        p.enter(b);
        p.retire(25);
        p.exit();
        let cov = p.finish().coverage_percent();
        assert_eq!(cov["a"], 75.0);
        assert_eq!(cov["b"], 25.0);
        assert!((cov.values().sum::<f64>() - 100.0).abs() < 1e-12);
    }

    #[test]
    fn branch_and_memory_ops_retire_and_count() {
        let mut p = Profiler::default();
        let f = p.register_function("f", 1);
        p.enter(f);
        p.branch(1, true);
        p.branch(1, false);
        p.branch(2, true);
        p.load(0x10);
        p.store(0x20);
        p.exit();
        let profile = p.finish();
        assert_eq!(profile.totals.branches, 3);
        assert_eq!(profile.totals.taken_branches, 2);
        assert_eq!(profile.totals.loads, 1);
        assert_eq!(profile.totals.stores, 1);
        assert_eq!(profile.totals.retired_ops, 5);
        assert_eq!(profile.taken_branch_fraction(), Some(2.0 / 3.0));
    }

    #[test]
    fn sampling_reduces_trace_but_not_counters() {
        let mut dense = Profiler::new(SampleConfig::default());
        let mut sparse = Profiler::new(SampleConfig {
            branch_interval: 8,
            mem_interval: 8,
            call_interval: 8,
            trace_capacity: 1 << 16,
            ..SampleConfig::default()
        });
        for p in [&mut dense, &mut sparse] {
            let f = p.register_function("f", 1);
            p.enter(f);
            for i in 0..1000u64 {
                p.branch(0, i % 2 == 0);
                p.load(i * 64);
            }
            p.exit();
        }
        let d = dense.finish();
        let s = sparse.finish();
        assert_eq!(d.totals, s.totals);
        assert!(s.trace.len() * 4 < d.trace.len());
    }

    #[test]
    fn sparse_call_sampling_keeps_trace_nested() {
        // Under call_interval > 1 the old implementation paired each
        // sampled Call with the Return of whichever scope exited while
        // the phase happened to be zero, producing unbalanced traces.
        let mut p = Profiler::new(SampleConfig {
            call_interval: 3,
            ..SampleConfig::default()
        });
        let outer = p.register_function("outer", 8);
        let inner = p.register_function("inner", 8);
        for _ in 0..25 {
            p.enter(outer);
            p.enter(inner);
            p.exit();
            p.exit();
        }
        let profile = p.finish();
        let mut depth = 0i64;
        let mut calls = 0u64;
        let mut returns = 0u64;
        for event in profile.chunks.events() {
            match event {
                Event::Call { .. } => {
                    depth += 1;
                    calls += 1;
                }
                Event::Return => {
                    depth -= 1;
                    returns += 1;
                    assert!(depth >= 0, "Return without a sampled Call");
                }
                _ => {}
            }
        }
        assert_eq!(depth, 0, "sampled trace must close every Call");
        assert_eq!(calls, returns);
        assert!(calls > 0, "interval 3 over 50 enters samples some calls");
    }

    #[test]
    fn no_branches_means_no_fraction() {
        let p = Profiler::default();
        assert_eq!(p.finish().taken_branch_fraction(), None);
    }

    #[test]
    fn fn_id_lookup() {
        let mut p = Profiler::default();
        let a = p.register_function("alpha", 10);
        let profile = p.finish();
        assert_eq!(profile.fn_id("alpha"), Some(a));
        assert_eq!(profile.fn_id("missing"), None);
    }

    #[test]
    #[should_panic(expected = "open scopes")]
    fn unbalanced_enter_panics_on_finish() {
        let mut p = Profiler::default();
        let f = p.register_function("f", 1);
        p.enter(f);
        let _ = p.finish();
    }

    #[test]
    #[should_panic(expected = "exit without matching enter")]
    fn exit_without_enter_panics() {
        let mut p = Profiler::default();
        p.exit();
    }

    #[test]
    fn validate_accepts_real_profiles() {
        let mut p = Profiler::default();
        let f = p.register_function("f", 1);
        p.enter(f);
        for i in 0..100u64 {
            p.branch(0, i % 2 == 0);
            p.load(i);
            p.store(i);
            p.retire(3);
        }
        p.exit();
        assert_eq!(p.finish().validate(), Ok(()));
    }

    #[test]
    fn validate_catches_injected_corruption() {
        let run = |fault| {
            let mut p = Profiler::new(SampleConfig::default().with_fault(fault));
            let f = p.register_function("f", 1);
            p.enter(f);
            for i in 0..50u64 {
                p.branch(0, i % 2 == 0);
            }
            p.exit();
            p.finish()
        };
        let profile = run(ProfilerFault::CorruptEvents { at: 10 });
        assert!(matches!(
            profile.validate(),
            Err(InvariantViolation::TakenExceedsBranches { .. })
        ));
        // The same corruption is applied at the same event every time.
        let again = run(ProfilerFault::CorruptEvents { at: 10 });
        assert_eq!(profile.totals, again.totals);
    }

    #[test]
    fn budget_abort_is_deterministic() {
        let run = || {
            let mut p = Profiler::new(SampleConfig::default().with_work_budget(500));
            let f = p.register_function("f", 1);
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                p.enter(f);
                for i in 0..10_000u64 {
                    p.retire(7);
                    p.branch(0, i % 3 == 0);
                }
                p.exit();
            }))
            .expect_err("budget must trip");
            *caught
                .downcast_ref::<BudgetExceeded>()
                .expect("typed payload")
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
        assert_eq!(a.budget, 500);
        assert!(a.retired_ops > 500, "first prefix sum above the budget");
        assert!(a.retired_ops <= 500 + 7, "trips at the first overrun");
    }

    #[test]
    fn forced_panic_fires_at_exact_event() {
        let mut p =
            Profiler::new(SampleConfig::default().with_fault(ProfilerFault::PanicAtEvent(5)));
        let f = p.register_function("f", 1);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            p.enter(f); // event 1
            p.retire(1); // 2
            p.load(0); // 3
            p.store(0); // 4
            p.branch(0, true); // 5 → boom
            p.exit();
        }))
        .expect_err("fault must fire");
        let msg = err.downcast_ref::<String>().expect("string panic");
        assert!(msg.contains("forced panic at event 5"), "{msg}");
        assert_eq!(p.event_count(), 5);
    }

    #[test]
    fn no_budget_means_unbounded() {
        let mut p = Profiler::default();
        p.retire(u64::MAX / 2);
        assert_eq!(p.finish().totals.retired_ops, u64::MAX / 2);
    }

    #[test]
    #[should_panic(expected = "interval work must be positive")]
    fn zero_interval_work_panics() {
        let _ = Profiler::new(SampleConfig {
            interval_work: Some(0),
            ..SampleConfig::default()
        });
    }

    #[test]
    fn interval_snapshots_partition_the_run() {
        let mut p = Profiler::new(SampleConfig::default().with_interval_work(100));
        let f = p.register_function("f", 8);
        let g = p.register_function("g", 8);
        p.enter(f);
        for i in 0..120u64 {
            p.branch(0, i % 2 == 0);
            p.load(i * 8);
            p.retire(2);
        }
        p.enter(g);
        p.retire(55);
        p.exit();
        p.exit();
        let profile = p.finish();
        assert!(profile.intervals.len() >= 4, "{}", profile.intervals.len());
        // Interval deltas must partition the exact totals.
        let sum_retired: u64 = profile.intervals.iter().map(|s| s.totals.retired_ops).sum();
        let sum_branches: u64 = profile.intervals.iter().map(|s| s.totals.branches).sum();
        let sum_loads: u64 = profile.intervals.iter().map(|s| s.totals.loads).sum();
        assert_eq!(sum_retired, profile.totals.retired_ops);
        assert_eq!(sum_branches, profile.totals.branches);
        assert_eq!(sum_loads, profile.totals.loads);
        // Boundaries are contiguous, start at zero, end at the run total.
        assert_eq!(profile.intervals[0].start_ops, 0);
        for pair in profile.intervals.windows(2) {
            assert_eq!(pair[0].end_ops, pair[1].start_ops);
        }
        assert_eq!(
            profile.intervals.last().unwrap().end_ops,
            profile.totals.retired_ops
        );
        // Per-function work deltas partition the flat work vector.
        for (i, &total) in profile.fn_work.iter().enumerate() {
            let sliced: u64 = profile
                .intervals
                .iter()
                .map(|s| s.fn_work.get(i).copied().unwrap_or(0))
                .sum();
            assert_eq!(sliced, total, "function {i}");
        }
    }

    #[test]
    fn interval_snapshots_are_deterministic() {
        let run = || {
            let mut p = Profiler::new(SampleConfig::default().with_interval_work(64));
            let f = p.register_function("f", 8);
            p.enter(f);
            for i in 0..500u64 {
                p.branch((i % 5) as u32, i % 3 == 0);
                p.retire(1 + i % 4);
            }
            p.exit();
            p.finish()
        };
        assert_eq!(run().intervals, run().intervals);
    }

    #[test]
    fn detail_windows_gate_trace_capture() {
        let body = |p: &mut Profiler| {
            let f = p.register_function("f", 8);
            p.enter(f);
            for i in 0..300u64 {
                p.load(i * 8); // one retired op each → op counter == i + 1
            }
            p.exit();
        };
        let mut full = Profiler::default();
        body(&mut full);
        let full = full.finish();

        let mut gated =
            Profiler::with_detail_windows(SampleConfig::default(), &[(50, 100), (200, 250)], 1);
        body(&mut gated);
        let gated = gated.finish();

        // Counters stay exact; only the trace shrinks.
        assert_eq!(gated.totals, full.totals);
        assert!(gated.trace.len() < full.trace.len());
        assert_eq!(gated.windows.len(), 2);
        for w in &gated.windows {
            assert!(w.trace_end >= w.trace_start);
            let captured = w.trace_end - w.trace_start;
            // ~50 ops per window, one load per op, full sampling.
            assert!((45..=55).contains(&captured), "captured {captured}");
            for event in &gated.chunks.events()[w.trace_start..w.trace_end] {
                let Event::Mem { addr } = event else {
                    panic!("unexpected event {event:?}");
                };
                let op = addr / 8 + 1; // op counter after this load retires
                assert!(
                    op >= w.start_ops && op <= w.end_ops + 1,
                    "op {op} outside {w:?}"
                );
            }
        }
        // Windows never reached or jumped over end up empty, not bogus.
        let mut empty =
            Profiler::with_detail_windows(SampleConfig::default(), &[(10_000, 10_100)], 1);
        body(&mut empty);
        let empty = empty.finish();
        assert_eq!(empty.windows[0].trace_start, empty.windows[0].trace_end);
    }

    #[test]
    fn determinism_same_inputs_same_profile() {
        let run = || {
            let mut p = Profiler::new(SampleConfig::sparse());
            let f = p.register_function("f", 32);
            p.enter(f);
            for i in 0..500u64 {
                p.branch((i % 7) as u32, i % 3 == 0);
                p.load(i * 8 % 4096);
                p.retire(2);
            }
            p.exit();
            p.finish()
        };
        let a = run();
        let b = run();
        assert_eq!(a.totals, b.totals);
        assert_eq!(a.chunks, b.chunks);
        assert_eq!(a.fn_work, b.fn_work);
    }
}
