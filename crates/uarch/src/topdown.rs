//! The Top-Down slot-accounting model (Section V-B of the paper).
//!
//! Intel's Top-Down methodology classifies each pipeline *slot* (issue
//! width × cycles) as front-end bound, back-end bound, bad speculation, or
//! retiring. This module rebuilds that classification analytically from a
//! [`Profile`]:
//!
//! * the sampled branch stream is replayed through a [`BranchPredictor`]
//!   to estimate the misprediction rate → **bad speculation**;
//! * the sampled address stream is replayed through a [`MemoryHierarchy`]
//!   to estimate per-level miss rates → **back-end bound** stalls;
//! * the sampled call stream is replayed through an instruction cache over
//!   a synthetic code layout → **front-end bound** stalls;
//! * exact retired-op totals anchor the **retiring** component.
//!
//! Sampled rates are rescaled by the exact event totals, so sparser
//! sampling trades estimator variance for speed without biasing the
//! totals — the ablation benchmark `sampling` quantifies this.

use crate::cache::{
    Cache, CacheConfig, DramConfig, GeometryError, GeometryErrorKind, MemoryHierarchy,
    MemoryOutcome, Tlb,
};
use crate::predictor::{BranchPredictor, PredictorKind};
use alberta_profile::{Event, EventChunks, Footprint, Profile, Totals};
use alberta_stats::variation::TopDownRatios;

/// Latencies and widths of the modelled machine.
///
/// Defaults approximate the Intel Core i7-2600 the paper measured on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineConfig {
    /// Micro-ops issued per cycle.
    pub issue_width: f64,
    /// Cycles lost per branch misprediction.
    pub mispredict_penalty: f64,
    /// Load-to-use latency of an L2 hit, beyond the pipelined L1 latency.
    pub l2_latency: f64,
    /// Load-to-use latency of a shared-L3 hit, in cycles.
    pub l3_latency: f64,
    /// Latency of a DRAM access (L3 miss), in cycles.
    pub memory_latency: f64,
    /// Cycles lost per D-TLB miss (page-walk cost).
    pub tlb_penalty: f64,
    /// Cycles lost per instruction-cache miss.
    pub icache_penalty: f64,
    /// Memory-level parallelism: how many outstanding misses overlap.
    pub memory_parallelism: f64,
    /// Micro-ops per abstract retired work unit. Instrumented
    /// mini-benchmarks report coarse work units (one per semantic
    /// operation); real code retires several µops per such operation, and
    /// this factor restores that ratio so category shares land in
    /// realistic ranges.
    pub uops_per_unit: f64,
    /// Front-end fetch-bubble cycles per taken branch (a taken branch
    /// redirects fetch even when predicted correctly).
    pub taken_branch_bubble: f64,
    /// Steady-state front-end inefficiency as a fraction of base cycles
    /// (decode gaps, fetch alignment): keeps the category mean off the
    /// measurement floor like real PMU data.
    pub baseline_frontend: f64,
    /// Steady-state bad-speculation floor (flushes from memory-order or
    /// exception speculation, present even in branch-free code).
    pub baseline_badspec: f64,
    /// Steady-state back-end floor (execution-port contention).
    pub baseline_backend: f64,
    /// Instruction-cache geometry.
    pub icache: CacheConfig,
    /// L1D geometry.
    pub l1d: CacheConfig,
    /// L2 geometry.
    pub l2: CacheConfig,
    /// Shared-L3 geometry.
    pub l3: CacheConfig,
    /// D-TLB entries.
    pub dtlb_entries: u64,
    /// DRAM row-buffer geometry.
    pub dram: DramConfig,
    /// How many bytes of a callee's entry region a call fetches through
    /// the I-cache model.
    pub fetch_probe_bytes: u64,
}

impl MachineConfig {
    /// Checks every modelled structure's geometry and size (at most
    /// 2^20 entries each), reporting the first offender by name with its
    /// offending values — so a decoder can refuse a machine no model can
    /// build, or no host can hold, instead of failing mid-run. Builds
    /// nothing: any field values are safe to check.
    pub fn validate(&self) -> Result<(), GeometryError> {
        for (structure, config) in [
            ("I-cache", self.icache),
            ("L1D", self.l1d),
            ("L2", self.l2),
            ("L3", self.l3),
        ] {
            config.check().map_err(|problem| GeometryError {
                structure,
                kind: GeometryErrorKind::Cache { config, problem },
            })?;
        }
        Tlb::geometry(self.dtlb_entries)?;
        self.dram.check().map_err(|problem| GeometryError {
            structure: "DRAM",
            kind: GeometryErrorKind::Dram {
                config: self.dram,
                problem,
            },
        })?;
        Ok(())
    }
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            issue_width: 4.0,
            mispredict_penalty: 14.0,
            l2_latency: 10.0,
            l3_latency: 35.0,
            memory_latency: 180.0,
            tlb_penalty: 30.0,
            icache_penalty: 12.0,
            memory_parallelism: 4.0,
            uops_per_unit: 3.0,
            taken_branch_bubble: 0.35,
            baseline_frontend: 0.05,
            baseline_badspec: 0.012,
            baseline_backend: 0.06,
            icache: CacheConfig::l1i(),
            l1d: CacheConfig::l1d(),
            l2: CacheConfig::l2(),
            l3: CacheConfig::l3(),
            dtlb_entries: 64,
            dram: DramConfig::ddr3(),
            fetch_probe_bytes: 256,
        }
    }
}

/// Output of one Top-Down analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct TopDownReport {
    /// The four slot fractions (sums to 1).
    pub ratios: TopDownRatios,
    /// Modelled execution cycles.
    pub cycles: f64,
    /// Exact retired micro-ops from the profile.
    pub retired_ops: u64,
    /// Modelled instructions per cycle.
    pub ipc: f64,
    /// Estimated branch misprediction rate in `[0, 1]`.
    pub mispredict_rate: f64,
    /// Estimated mispredictions per kilo-op.
    pub mispredicts_per_kops: f64,
    /// Replayed L1D miss ratio.
    pub l1d_miss_ratio: f64,
    /// Replayed L2 miss ratio (of L2 accesses).
    pub l2_miss_ratio: f64,
    /// Replayed L3 miss ratio (of L3 accesses).
    pub l3_miss_ratio: f64,
    /// Replayed D-TLB miss ratio.
    pub dtlb_miss_ratio: f64,
    /// Replayed I-cache miss ratio (of fetch probes).
    pub icache_miss_ratio: f64,
    /// Name of the predictor used.
    pub predictor: &'static str,
    /// Memory-centric characterization of the run.
    pub memory: MemoryProfile,
}

/// Cache sizes swept for the per-workload MPKI-vs-size curve: 16 KiB to
/// 8 MiB doubling, each 8-way with 64-byte lines. The sweep caches ride
/// the same batched address columns one replay pass already walks, so
/// the curve costs one extra lookup loop per size — not N re-runs.
pub const MPKI_SWEEP_SIZES: [u64; 10] = [
    16 * 1024,
    32 * 1024,
    64 * 1024,
    128 * 1024,
    256 * 1024,
    512 * 1024,
    1024 * 1024,
    2 * 1024 * 1024,
    4 * 1024 * 1024,
    8 * 1024 * 1024,
];

/// The geometry of one MPKI-sweep point.
pub fn mpki_sweep_config(size_bytes: u64) -> CacheConfig {
    CacheConfig {
        size_bytes,
        line_bytes: 64,
        ways: 8,
    }
}

/// One point of the MPKI-vs-cache-size curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MpkiPoint {
    /// Swept cache capacity in bytes.
    pub size_bytes: u64,
    /// Misses per kilo retired µop at that capacity.
    pub mpki: f64,
}

/// Memory-centric characterization of one run: per-level MPKI, the
/// working-set footprint, DRAM row-buffer behaviour and read traffic,
/// and the MPKI-vs-cache-size curve. MPKI denominators are kilo retired
/// µops (`retired_ops × uops_per_unit / 1000`), matching the
/// memory-centric CPU2017 study this layer reproduces.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MemoryProfile {
    /// L1D misses per kilo µop.
    pub l1_mpki: f64,
    /// L2 misses per kilo µop.
    pub l2_mpki: f64,
    /// L3 misses per kilo µop.
    pub l3_mpki: f64,
    /// Fraction of DRAM fills that hit an open row, in `[0, 1]`.
    pub row_hit_rate: f64,
    /// Bytes read from DRAM (one line fill per L3 miss).
    pub dram_bytes: f64,
    /// Distinct cache lines the run touched (exact, from instrumentation).
    pub footprint_lines: u64,
    /// Distinct 4 KiB pages the run touched (exact, from instrumentation).
    pub footprint_pages: u64,
    /// Data MPKI at each swept cache size, ordered by capacity.
    pub mpki_curve: Vec<MpkiPoint>,
}

/// One representative execution window for phase-sampled estimation: a
/// cluster medoid's captured trace slice plus the exact counter deltas of
/// *every* interval the cluster contains.
///
/// The pilot pass measures exact per-interval counter deltas for the whole
/// run, so only the replay-derived rates (mispredictions, cache misses,
/// I-cache pressure) are extrapolated from the medoid to its cluster; all
/// event counts stay exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MedoidWindow {
    /// Summed exact counter deltas over all member intervals of the
    /// cluster this medoid represents.
    pub cluster_totals: Totals,
    /// Half-open trace-index range of the medoid's events in the detail
    /// run's (non-decimated) trace. Trace entries *between* consecutive
    /// windows' ranges are treated as a warming stream: replayed for
    /// state, never counted.
    pub trace_range: (usize, usize),
}

/// Sampled event counts from replaying one event slice.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayCounts {
    /// Branch events replayed.
    pub branches: u64,
    /// Branches the predictor got wrong.
    pub mispredicts: u64,
    /// Load/store events replayed.
    pub mem: u64,
    /// Data accesses that missed L1 and hit L2.
    pub l2_hits: u64,
    /// Data accesses that missed L1 and L2 and hit the shared L3.
    pub l3_hits: u64,
    /// Data accesses that missed every cache level and filled from DRAM.
    pub dram_accesses: u64,
    /// DRAM fills that hit the bank's open row (subset of
    /// `dram_accesses`).
    pub row_hits: u64,
    /// Data accesses whose translation missed the D-TLB.
    pub tlb_misses: u64,
    /// I-cache fetch probes issued by call events.
    pub fetch_probes: u64,
    /// Fetch probes that missed the I-cache.
    pub icache_misses: u64,
    /// Call events replayed.
    pub calls: u64,
}

/// Absolute (rescaled) event estimates feeding the cycle composition.
#[derive(Debug, Clone, Copy, Default)]
struct AbsoluteEstimates {
    mispredicts: f64,
    l2_hits: f64,
    l3_hits: f64,
    dram_accesses: f64,
    row_hits: f64,
    tlb_misses: f64,
    fetch_probes: f64,
    icache_misses: f64,
}

/// The microarchitectural structures a replay drives. One state is
/// shared across every window of an [`TopDownModel::estimate`] call so
/// later windows start warm, the way a full-trace replay would reach
/// them.
///
/// Two replay engines produce identical [`ReplayCounts`] and identical
/// state evolution:
///
/// * [`ReplayState::replay`] — the scalar reference engine, one
///   enum-dispatch per event. Kept as the shadow model the property
///   tests and the replay microbenchmark compare against.
/// * [`ReplayState::replay_batched`] — the production engine: per-kind
///   kernel loops over [`EventChunks`] arrays. Equivalence is exact, not
///   approximate, because the three state machines are disjoint — the
///   predictor sees only branches, the data hierarchy only loads/stores,
///   the I-cache only call fetch probes — so per-kind sub-streams in
///   trace order replay each machine through the very same transitions
///   the interleaved walk would.
pub struct ReplayState {
    predictor: Box<dyn BranchPredictor>,
    hierarchy: MemoryHierarchy,
    icache: Cache,
}

impl ReplayState {
    /// Fresh (cold) state for the given machine and predictor.
    pub fn new(cfg: &MachineConfig, predictor: PredictorKind) -> Self {
        ReplayState {
            predictor: predictor.build(),
            hierarchy: MemoryHierarchy::with_configs(
                cfg.l1d,
                cfg.l2,
                cfg.l3,
                cfg.dtlb_entries,
                cfg.dram,
            ),
            icache: Cache::new(cfg.icache),
        }
    }

    /// Replays one event slice through the scalar reference engine,
    /// mutating the shared state, and returns the slice's outcome
    /// counts. [`EventChunks::events`] rebuilds a profile's interleaved
    /// stream for it.
    pub fn replay(
        &mut self,
        cfg: &MachineConfig,
        profile: &Profile,
        events: &[Event],
        fn_base: &[u64],
    ) -> ReplayCounts {
        let line = cfg.icache.line_bytes;
        let mut counts = ReplayCounts::default();
        for event in events {
            match *event {
                Event::Branch { site, taken } => {
                    counts.branches += 1;
                    if !self.predictor.observe(site, taken) {
                        counts.mispredicts += 1;
                    }
                }
                Event::Mem { addr } => {
                    counts.mem += 1;
                    let (outcome, tlb_miss) = self.hierarchy.access(addr);
                    match outcome {
                        MemoryOutcome::L1 => {}
                        MemoryOutcome::L2 => counts.l2_hits += 1,
                        MemoryOutcome::L3 => counts.l3_hits += 1,
                        MemoryOutcome::Dram { row_hit } => {
                            counts.dram_accesses += 1;
                            counts.row_hits += u64::from(row_hit);
                        }
                    }
                    counts.tlb_misses += tlb_miss as u64;
                }
                Event::Call { callee } => {
                    counts.calls += 1;
                    let base = fn_base[callee.0 as usize];
                    let len = (profile.functions[callee.0 as usize].code_bytes as u64)
                        .min(cfg.fetch_probe_bytes)
                        .max(1);
                    let mut offset = 0;
                    while offset < len {
                        counts.fetch_probes += 1;
                        if !self.icache.access(base + offset) {
                            counts.icache_misses += 1;
                        }
                        offset += line;
                    }
                }
                Event::Return => {}
            }
        }
        counts
    }

    /// Replays the trace range `[start, end)` through the batched kernel
    /// engine: one predictor batch over the range's branch arrays, one
    /// hierarchy batch over its address array, and a probe-count table
    /// lookup plus tight line-stride loop per call. Outcome counts and
    /// post-replay state are identical to [`ReplayState::replay`] over
    /// the same range of the source event stream.
    ///
    /// `probe_counts` is the per-function fetch-probe table from
    /// [`TopDownModel::probe_table`]; `fn_base` the layout from
    /// [`TopDownModel::code_layout`].
    pub fn replay_batched(
        &mut self,
        chunks: &EventChunks,
        range: (usize, usize),
        probe_counts: &[u64],
        fn_base: &[u64],
    ) -> ReplayCounts {
        let slices = chunks.kind_ranges(range.0, range.1);
        let mut counts = ReplayCounts {
            branches: slices.branch_sites.len() as u64,
            mem: slices.mem_addrs.len() as u64,
            calls: slices.call_callees.len() as u64,
            ..ReplayCounts::default()
        };
        counts.mispredicts = self
            .predictor
            .observe_batch(slices.branch_sites, slices.branch_takens);
        let mem = self.hierarchy.access_many(slices.mem_addrs);
        counts.l2_hits = mem.l2_hits;
        counts.l3_hits = mem.l3_hits;
        counts.dram_accesses = mem.dram_accesses;
        counts.row_hits = mem.row_hits;
        counts.tlb_misses = mem.tlb_misses;
        // Same-callee memo: a call's probe span covers consecutive
        // lines, which land in distinct sets whenever the span is no
        // longer than the set count; a back-to-back repeat of the same
        // callee therefore probes lines that the previous call left
        // most-recent in their sets, and — since only this loop touches
        // the I-cache — every probe is a front-way hit that true LRU
        // leaves unmoved. Those calls are all-hit without any lookups,
        // bit-identical to the scalar walk.
        let icache_sets = self.icache.config().size_bytes
            / (self.icache.config().line_bytes * self.icache.config().ways);
        let mut last_callee = u32::MAX;
        let mut hit_probes = 0u64;
        for &callee in slices.call_callees {
            let idx = callee.0 as usize;
            let probes = probe_counts[idx];
            counts.fetch_probes += probes;
            if callee.0 == last_callee && probes <= icache_sets {
                hit_probes += probes;
                continue;
            }
            last_callee = callee.0;
            counts.icache_misses += self.icache.probe_span(fn_base[idx], probes);
        }
        self.icache.credit_hits(hit_probes);
        counts
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Analytical Top-Down analyzer; create once, reuse across runs.
#[derive(Debug, Clone)]
pub struct TopDownModel {
    config: MachineConfig,
    predictor: PredictorKind,
}

impl TopDownModel {
    /// Creates a model with the given machine and predictor.
    pub fn new(config: MachineConfig, predictor: PredictorKind) -> Self {
        TopDownModel { config, predictor }
    }

    /// The reference model used for the paper-reproduction experiments.
    pub fn reference() -> Self {
        TopDownModel::new(MachineConfig::default(), PredictorKind::reference())
    }

    /// The machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// The branch-predictor kind.
    pub fn predictor(&self) -> PredictorKind {
        self.predictor
    }

    /// Analyzes one profile into a Top-Down report.
    ///
    /// Equivalent to [`TopDownModel::estimate`] over a single window
    /// spanning the whole trace with the run's exact totals.
    pub fn analyze(&self, profile: &Profile) -> TopDownReport {
        let window = MedoidWindow {
            cluster_totals: profile.totals,
            trace_range: (0, profile.trace.len()),
        };
        self.estimate(profile, &[window])
    }

    /// Estimates a whole-run Top-Down report from representative windows.
    ///
    /// Each [`MedoidWindow`] pairs a captured trace slice (the medoid
    /// interval of one phase cluster) with the exact counter deltas summed
    /// over *all* intervals of that cluster. The slice is replayed through
    /// fresh predictor/cache state to obtain per-window event *rates*,
    /// which are rescaled by the cluster's exact counts — so the only
    /// estimated quantities are the microarchitectural rates; event totals
    /// stay exact when the windows' cluster totals partition the run.
    pub fn estimate(&self, profile: &Profile, windows: &[MedoidWindow]) -> TopDownReport {
        let fn_base = self.code_layout(profile);
        let probe_counts = self.probe_table(profile);
        // The profiler captured the trace straight into per-kind
        // columns; every window (and warming gap) replays as three
        // dispatch-free kernel loops over contiguous sub-ranges of them.
        let chunks = &profile.chunks;
        let trace_len = profile.trace.len();
        let mut abs = AbsoluteEstimates::default();
        let mut totals = Totals::default();
        // The MPKI-vs-size sweep caches ride the very address columns
        // the hierarchy replay walks — one pass over the recorded trace
        // yields the whole curve alongside the absolute estimates.
        let mut sweep: Vec<Cache> = MPKI_SWEEP_SIZES
            .iter()
            .map(|&size| Cache::new(mpki_sweep_config(size)))
            .collect();
        let mut sweep_raw = vec![0u64; sweep.len()];
        // One replay state shared across windows: the windows are
        // time-ordered slices of the same run, so carrying predictor and
        // cache contents forward approximates the warm state a full
        // replay would have — resetting per window would charge every
        // window a cold-start miss storm and bias the rates upward.
        let mut state = ReplayState::new(&self.config, self.predictor);
        // Memory-hierarchy outcomes are *counted*, never extrapolated:
        // the inter-window warming stream keeps loads/stores at the full
        // in-window stride (`WARM_MEMORY_DILUTION`), so gaps + windows +
        // tail together replay exactly the decimated memory stream a
        // full run's analyze would — and outcome counts over the whole
        // stream are the full replay's counts. Extrapolating them from
        // window rates instead reads cold (compulsory) DRAM fills as a
        // rate and multiplies them by the cluster weight, overestimating
        // bytes-from-DRAM severalfold on L3-resident working sets whose
        // DRAM traffic is almost entirely first-touch.
        let mut mem_counts = ReplayCounts::default();
        let count_memory = |c: &ReplayCounts, m: &mut ReplayCounts| {
            m.mem += c.mem;
            m.l2_hits += c.l2_hits;
            m.l3_hits += c.l3_hits;
            m.dram_accesses += c.dram_accesses;
            m.row_hits += c.row_hits;
            m.tlb_misses += c.tlb_misses;
        };
        let mut cursor = 0usize;
        for window in windows {
            let (start, end) = window.trace_range;
            let end = end.min(trace_len);
            let start = start.min(end);
            // The trace between windows holds the profiler's warming
            // stream. Feed it through the shared state — counting the
            // memory outcomes, discarding the diluted control ones: a
            // full replay reaching this window would have trained on
            // everything in the gap, and skipping the gap entirely
            // leaves predictor and caches stale enough to read
            // mispredict and miss rates high.
            let gap_addrs = chunks.kind_ranges(cursor.min(start), start).mem_addrs;
            for (raw, cache) in sweep_raw.iter_mut().zip(sweep.iter_mut()) {
                *raw += cache.access_many(gap_addrs);
            }
            let gap =
                state.replay_batched(chunks, (cursor.min(start), start), &probe_counts, &fn_base);
            count_memory(&gap, &mut mem_counts);
            let counts = state.replay_batched(chunks, (start, end), &probe_counts, &fn_base);
            count_memory(&counts, &mut mem_counts);
            cursor = end;
            let t = &window.cluster_totals;
            totals.retired_ops += t.retired_ops;
            totals.branches += t.branches;
            totals.taken_branches += t.taken_branches;
            totals.loads += t.loads;
            totals.stores += t.stores;
            totals.calls += t.calls;
            abs.mispredicts += ratio(counts.mispredicts, counts.branches) * t.branches as f64;
            let probes = ratio(counts.fetch_probes, counts.calls) * t.calls as f64;
            abs.fetch_probes += probes;
            abs.icache_misses += ratio(counts.icache_misses, counts.fetch_probes) * probes;
            let window_addrs = chunks.kind_ranges(start, end).mem_addrs;
            for (raw, cache) in sweep_raw.iter_mut().zip(sweep.iter_mut()) {
                *raw += cache.access_many(window_addrs);
            }
        }
        // The stream past the last window is part of the full replay
        // too; count its memory outcomes like any gap.
        let tail_addrs = chunks
            .kind_ranges(cursor.min(trace_len), trace_len)
            .mem_addrs;
        for (raw, cache) in sweep_raw.iter_mut().zip(sweep.iter_mut()) {
            *raw += cache.access_many(tail_addrs);
        }
        let tail = state.replay_batched(
            chunks,
            (cursor.min(trace_len), trace_len),
            &probe_counts,
            &fn_base,
        );
        count_memory(&tail, &mut mem_counts);
        // Rescale the exact decimated-stream counts to the run's exact
        // access totals — the same conversion analyze applies to a
        // whole-trace window.
        let mem_total = (totals.loads + totals.stores) as f64;
        abs.l2_hits = ratio(mem_counts.l2_hits, mem_counts.mem) * mem_total;
        abs.l3_hits = ratio(mem_counts.l3_hits, mem_counts.mem) * mem_total;
        abs.dram_accesses = ratio(mem_counts.dram_accesses, mem_counts.mem) * mem_total;
        abs.row_hits = ratio(mem_counts.row_hits, mem_counts.mem) * mem_total;
        abs.tlb_misses = ratio(mem_counts.tlb_misses, mem_counts.mem) * mem_total;
        let sweep_misses: Vec<f64> = sweep_raw
            .iter()
            .map(|&raw| ratio(raw, mem_counts.mem) * mem_total)
            .collect();
        self.compose(&abs, &totals, profile.footprint, &sweep_misses)
    }

    /// Cheap per-interval phase signature for clustering: approximate
    /// Top-Down category *pressures* derived from exact counter deltas
    /// alone — no trace replay — so the pilot pass can compute one per
    /// interval at negligible cost.
    ///
    /// Components are per-retired-op event rates scaled by the machine's
    /// penalty weights (mispredict penalty for the branch mix, fetch
    /// bubbles for taken branches, memory latency for the access mix,
    /// I-cache penalty for the call mix), normalized by the issue width so
    /// magnitudes are comparable across components. Intervals with similar
    /// signatures stress the machine similarly even before replay.
    pub fn phase_signature(&self, totals: &Totals) -> [f64; 4] {
        let cfg = &self.config;
        let ops = (totals.retired_ops.max(1)) as f64;
        let scale = cfg.issue_width.max(1.0);
        [
            totals.branches as f64 / ops * cfg.mispredict_penalty / scale,
            totals.taken_branches as f64 / ops * cfg.taken_branch_bubble,
            (totals.loads + totals.stores) as f64 / ops * cfg.memory_latency
                / (cfg.memory_parallelism * scale),
            totals.calls as f64 / ops * cfg.icache_penalty / scale,
        ]
    }

    /// Synthetic code layout: functions placed back to back, line-aligned,
    /// in registration order. Registration order is deterministic per
    /// benchmark, so layout is stable across workloads.
    pub fn code_layout(&self, profile: &Profile) -> Vec<u64> {
        let line = self.config.icache.line_bytes;
        let mut fn_base = Vec::with_capacity(profile.functions.len());
        let mut cursor = 0u64;
        for meta in &profile.functions {
            fn_base.push(cursor);
            let len = (meta.code_bytes as u64).max(1);
            cursor += len.div_ceil(line) * line;
        }
        fn_base
    }

    /// Per-function I-cache fetch-probe counts: how many line-strided
    /// probes one call into each function issues (the entry region up to
    /// [`MachineConfig::fetch_probe_bytes`], at least one line). The
    /// batched call kernel turns the scalar engine's per-call
    /// probe-length computation into a table lookup.
    pub fn probe_table(&self, profile: &Profile) -> Vec<u64> {
        let line = self.config.icache.line_bytes;
        profile
            .functions
            .iter()
            .map(|meta| {
                let len = (meta.code_bytes as u64)
                    .min(self.config.fetch_probe_bytes)
                    .max(1);
                len.div_ceil(line)
            })
            .collect()
    }

    /// Composes the cycle accounting from absolute event estimates,
    /// (exact or estimated) run totals, the exact instrumented
    /// footprint, and the swept MPKI-curve miss estimates.
    fn compose(
        &self,
        abs: &AbsoluteEstimates,
        totals: &Totals,
        footprint: Footprint,
        sweep_misses: &[f64],
    ) -> TopDownReport {
        let cfg = &self.config;
        let mem_total = (totals.loads + totals.stores) as f64;
        let fratio = |num: f64, den: f64| if den == 0.0 { 0.0 } else { num / den };

        let retired = totals.retired_ops as f64 * cfg.uops_per_unit;
        let base_cycles = retired / cfg.issue_width;
        let bad_spec_cycles =
            abs.mispredicts * cfg.mispredict_penalty + base_cycles * cfg.baseline_badspec;
        let front_end_cycles = abs.icache_misses * cfg.icache_penalty
            + totals.taken_branches as f64 * cfg.taken_branch_bubble
            + base_cycles * cfg.baseline_frontend;
        let back_end_cycles = (abs.l2_hits * cfg.l2_latency
            + abs.l3_hits * cfg.l3_latency
            + abs.dram_accesses * cfg.memory_latency
            + abs.tlb_misses * cfg.tlb_penalty)
            / cfg.memory_parallelism
            + base_cycles * cfg.baseline_backend;
        let cycles = (base_cycles + bad_spec_cycles + front_end_cycles + back_end_cycles).max(1.0);

        let retiring = base_cycles / cycles;
        let bad_speculation = bad_spec_cycles / cycles;
        let front_end = front_end_cycles / cycles;
        let back_end = back_end_cycles / cycles;
        // Renormalize against accumulated rounding before constructing the
        // validated ratio type.
        let sum = retiring + bad_speculation + front_end + back_end;
        let ratios = if sum <= 0.0 {
            TopDownRatios::new(0.0, 0.0, 0.0, 1.0).expect("degenerate run retires everything")
        } else {
            TopDownRatios::new(
                front_end / sum,
                back_end / sum,
                bad_speculation / sum,
                retiring / sum,
            )
            .expect("normalized components sum to one")
        };

        // MPKI denominators are kilo retired µops; a zero-work run
        // reports zero across the board.
        let kops = retired / 1000.0;
        let mpki = |misses: f64| fratio(misses, kops);
        let l1_misses = abs.l2_hits + abs.l3_hits + abs.dram_accesses;
        let l2_misses = abs.l3_hits + abs.dram_accesses;
        let memory = MemoryProfile {
            l1_mpki: mpki(l1_misses),
            l2_mpki: mpki(l2_misses),
            l3_mpki: mpki(abs.dram_accesses),
            row_hit_rate: fratio(abs.row_hits, abs.dram_accesses),
            dram_bytes: abs.dram_accesses * cfg.dram.line_bytes as f64,
            footprint_lines: footprint.lines,
            footprint_pages: footprint.pages,
            mpki_curve: MPKI_SWEEP_SIZES
                .iter()
                .zip(sweep_misses)
                .map(|(&size_bytes, &misses)| MpkiPoint {
                    size_bytes,
                    mpki: mpki(misses),
                })
                .collect(),
        };

        TopDownReport {
            ratios,
            cycles,
            retired_ops: totals.retired_ops,
            ipc: retired / cycles,
            mispredict_rate: fratio(abs.mispredicts, totals.branches as f64),
            mispredicts_per_kops: if retired == 0.0 {
                0.0
            } else {
                abs.mispredicts / retired * 1000.0
            },
            l1d_miss_ratio: fratio(l1_misses, mem_total),
            l2_miss_ratio: fratio(l2_misses, l1_misses),
            l3_miss_ratio: fratio(abs.dram_accesses, l2_misses),
            dtlb_miss_ratio: fratio(abs.tlb_misses, mem_total),
            icache_miss_ratio: fratio(abs.icache_misses, abs.fetch_probes),
            predictor: self.predictor.build().name(),
            memory,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alberta_profile::{Profiler, SampleConfig};

    fn model() -> TopDownModel {
        TopDownModel::reference()
    }

    /// A compute-only kernel: no branches, no memory, pure retired work.
    #[test]
    fn pure_compute_is_mostly_retiring() {
        let mut p = Profiler::default();
        let f = p.register_function("fma_kernel", 128);
        p.enter(f);
        p.retire(1_000_000);
        p.exit();
        let report = model().analyze(&p.finish());
        // Baseline stall fractions cap retiring just below 0.9 even for
        // pure compute — matching how real PMU data never shows 100%.
        assert!(report.ratios.retiring > 0.85, "{:?}", report.ratios);
        // IPC in µops: the 4-wide issue shaved by the baseline stalls
        // (4 / 1.122 ≈ 3.56).
        assert!(report.ipc > 3.0 && report.ipc < 4.0, "{}", report.ipc);
    }

    #[test]
    fn streaming_loads_are_backend_bound() {
        let mut p = Profiler::default();
        let f = p.register_function("stream", 128);
        p.enter(f);
        for i in 0..100_000u64 {
            p.load(i * 64);
            p.retire(2);
        }
        p.exit();
        let report = model().analyze(&p.finish());
        assert!(report.ratios.back_end > 0.6, "backend {:?}", report.ratios);
        assert!(report.l1d_miss_ratio > 0.9);
    }

    #[test]
    fn random_branches_are_bad_speculation_bound() {
        let mut p = Profiler::default();
        let f = p.register_function("branchy", 128);
        p.enter(f);
        let rand_bit = crate::predictor::tests::rand_bit;
        for i in 0..100_000u64 {
            p.branch(3, rand_bit(i));
            p.retire(2);
        }
        p.exit();
        let report = model().analyze(&p.finish());
        assert!(
            report.ratios.bad_speculation > 0.4,
            "badspec {:?}",
            report.ratios
        );
        assert!(report.mispredict_rate > 0.35);
    }

    #[test]
    fn call_churn_over_large_code_is_frontend_bound() {
        let mut p = Profiler::default();
        // 512 functions × 4 KiB of code ≫ 32 KiB L1I.
        let fns: Vec<_> = (0..512)
            .map(|i| p.register_function(&format!("f{i}"), 4096))
            .collect();
        for round in 0..20u64 {
            for (i, &f) in fns.iter().enumerate() {
                p.enter(f);
                p.retire(10 + (round + i as u64) % 3);
                p.exit();
            }
        }
        let report = model().analyze(&p.finish());
        assert!(
            report.ratios.front_end > 0.3,
            "frontend {:?}",
            report.ratios
        );
        assert!(report.icache_miss_ratio > 0.5);
    }

    #[test]
    fn hot_loop_in_one_small_function_has_warm_icache() {
        let mut p = Profiler::default();
        let f = p.register_function("hot", 256);
        for _ in 0..10_000 {
            p.enter(f);
            p.retire(20);
            p.exit();
        }
        let report = model().analyze(&p.finish());
        assert!(report.icache_miss_ratio < 0.01);
        assert!(report.ratios.front_end < 0.05);
    }

    #[test]
    fn ratios_always_sum_to_one() {
        let mut p = Profiler::default();
        let f = p.register_function("mixed", 1024);
        p.enter(f);
        for i in 0..50_000u64 {
            p.branch((i % 13) as u32, i % 3 != 0);
            p.load(i * 24 % (1 << 22));
            if i % 5 == 0 {
                p.store(i * 48 % (1 << 20));
            }
            p.retire(3);
        }
        p.exit();
        let report = model().analyze(&p.finish());
        let sum: f64 = report.ratios.as_array().iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
        assert!(report.cycles > 0.0);
        assert!(report.ipc > 0.0);
    }

    #[test]
    fn empty_profile_degenerates_to_retiring() {
        let p = Profiler::default();
        let report = model().analyze(&p.finish());
        assert_eq!(report.ratios.retiring, 1.0);
        assert_eq!(report.retired_ops, 0);
    }

    #[test]
    fn sparse_sampling_approximates_dense_ratios() {
        let run = |sampling: SampleConfig| {
            let mut p = Profiler::new(sampling);
            let f = p.register_function("mix", 512);
            p.enter(f);
            for i in 0..200_000u64 {
                p.branch((i % 31) as u32, (i / 7) % 4 != 0);
                p.load((i * 4064) % (1 << 24));
                p.retire(3);
            }
            p.exit();
            model().analyze(&p.finish())
        };
        let dense = run(SampleConfig::default());
        let sparse = run(SampleConfig::sparse());
        let d = dense.ratios.as_array();
        let s = sparse.ratios.as_array();
        // Cache miss rates are nonlinear in stream density, so dilution
        // shifts the L3-vs-DRAM split of a memory-bound stream; 0.15
        // bounds that distortion where a flat post-L2 latency used to
        // stay under 0.1.
        for (a, b) in d.iter().zip(s.iter()) {
            assert!((a - b).abs() < 0.15, "dense {d:?} sparse {s:?}");
        }
    }

    #[test]
    fn estimate_over_full_window_matches_analyze() {
        let mut p = Profiler::default();
        let f = p.register_function("mix", 512);
        p.enter(f);
        for i in 0..50_000u64 {
            p.branch((i % 17) as u32, (i / 5) % 3 != 0);
            p.load((i * 712) % (1 << 22));
            p.retire(3);
        }
        p.exit();
        let profile = p.finish();
        let m = model();
        let full = m.analyze(&profile);
        let windowed = m.estimate(
            &profile,
            &[MedoidWindow {
                cluster_totals: profile.totals,
                trace_range: (0, profile.trace.len()),
            }],
        );
        assert_eq!(full, windowed);
    }

    #[test]
    fn estimate_from_representative_windows_approximates_full_run() {
        // A homogeneous run: any contiguous slice is representative, so
        // replaying one quarter of the trace with the whole run's exact
        // totals should land near the full analysis.
        let mut p = Profiler::default();
        let f = p.register_function("steady", 512);
        p.enter(f);
        for i in 0..80_000u64 {
            p.branch((i % 7) as u32, i % 3 == 0);
            p.load((i * 328) % (1 << 20));
            p.retire(2);
        }
        p.exit();
        let profile = p.finish();
        let m = model();
        let full = m.analyze(&profile);
        let quarter = profile.trace.len() / 4;
        let est = m.estimate(
            &profile,
            &[MedoidWindow {
                cluster_totals: profile.totals,
                trace_range: (quarter, 2 * quarter),
            }],
        );
        assert_eq!(est.retired_ops, full.retired_ops, "counts stay exact");
        for (a, b) in full
            .ratios
            .as_array()
            .iter()
            .zip(est.ratios.as_array().iter())
        {
            assert!((a - b).abs() < 0.05, "full {full:?} est {est:?}");
        }
    }

    #[test]
    fn estimate_with_no_windows_degenerates() {
        let mut p = Profiler::default();
        let f = p.register_function("f", 64);
        p.enter(f);
        p.retire(100);
        p.exit();
        let profile = p.finish();
        let est = model().estimate(&profile, &[]);
        assert_eq!(est.retired_ops, 0);
        assert_eq!(est.ratios.retiring, 1.0);
    }

    #[test]
    fn phase_signature_separates_different_mixes() {
        let m = model();
        let compute = Totals {
            retired_ops: 1000,
            ..Totals::default()
        };
        let memory = Totals {
            retired_ops: 1000,
            loads: 400,
            stores: 100,
            ..Totals::default()
        };
        let branchy = Totals {
            retired_ops: 1000,
            branches: 500,
            taken_branches: 250,
            ..Totals::default()
        };
        let sig = |t: &Totals| m.phase_signature(t);
        let dist =
            |a: [f64; 4], b: [f64; 4]| -> f64 { a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum() };
        assert!(dist(sig(&compute), sig(&memory)) > 0.1);
        assert!(dist(sig(&compute), sig(&branchy)) > 0.1);
        assert!(dist(sig(&memory), sig(&branchy)) > 0.1);
        // Signatures are pure functions of the deltas.
        assert_eq!(sig(&memory), sig(&memory));
    }

    #[test]
    fn predictor_choice_changes_bad_speculation() {
        let profile = {
            let mut p = Profiler::default();
            let f = p.register_function("alt", 128);
            p.enter(f);
            for i in 0..50_000u64 {
                p.branch(9, i % 2 == 0); // alternating: gshare-friendly
                p.retire(2);
            }
            p.exit();
            p.finish()
        };
        let weak = TopDownModel::new(
            MachineConfig::default(),
            PredictorKind::Bimodal { bits: 12 },
        )
        .analyze(&profile);
        let strong =
            TopDownModel::new(MachineConfig::default(), PredictorKind::Gshare { bits: 12 })
                .analyze(&profile);
        assert!(weak.ratios.bad_speculation > strong.ratios.bad_speculation * 2.0);
    }

    #[test]
    fn locality_difference_shows_in_backend_share() {
        let run = |stride: u64, region: u64| {
            let mut p = Profiler::default();
            let f = p.register_function("walk", 128);
            p.enter(f);
            for i in 0..100_000u64 {
                p.load((i * stride) % region);
                p.retire(4);
            }
            p.exit();
            model().analyze(&p.finish())
        };
        let friendly = run(8, 1 << 17); // L2-resident sequential walk
        let hostile = run(4096 + 64, 1 << 26); // page-hostile stride
        assert!(hostile.ratios.back_end > friendly.ratios.back_end + 0.2);
        assert!(hostile.dtlb_miss_ratio > friendly.dtlb_miss_ratio);
    }
}
