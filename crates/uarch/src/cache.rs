//! Set-associative caches, a D-TLB, a shared L3, a DRAM row-buffer
//! model, and the data-side hierarchy that ties them together.
//!
//! Data-side locality drives the *back-end bound* Top-Down category; the
//! instruction cache (fed with function-entry addresses by the Top-Down
//! model) drives *front-end bound*. The DRAM layer adds the memory-centric
//! dimension: open-page row-buffer hits/misses per bank and the bytes a
//! run pulled from memory.

use std::fmt;

/// The most entries one modelled structure may allocate: tag slots
/// (sets × ways) for a cache or the D-TLB, open rows (one per bank) for
/// DRAM. The 8 MiB L3 and the top of the MPKI ladder hold 2^17 tags
/// each, so 2^20 leaves 8× headroom while a geometry decoded from
/// outside the program can ask for a few MiB of model state at most.
pub(crate) const MAX_STRUCTURE_ENTRIES: u64 = 1 << 20;

/// Geometry of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Line size in bytes (power of two).
    pub line_bytes: u64,
    /// Associativity (ways per set).
    pub ways: u64,
}

impl CacheConfig {
    /// 32 KiB, 64-byte lines, 8-way: an L1 in the i7-2600 the paper used.
    pub fn l1d() -> Self {
        CacheConfig {
            size_bytes: 32 * 1024,
            line_bytes: 64,
            ways: 8,
        }
    }

    /// 32 KiB, 64-byte lines, 8-way instruction cache.
    pub(crate) fn l1i() -> Self {
        Self::l1d()
    }

    /// 256 KiB, 64-byte lines, 8-way: the i7-2600's per-core L2.
    pub fn l2() -> Self {
        CacheConfig {
            size_bytes: 256 * 1024,
            line_bytes: 64,
            ways: 8,
        }
    }

    /// 8 MiB, 64-byte lines, 16-way: the i7-2600's shared L3.
    pub fn l3() -> Self {
        CacheConfig {
            size_bytes: 8 * 1024 * 1024,
            line_bytes: 64,
            ways: 16,
        }
    }

    fn sets(&self) -> u64 {
        self.size_bytes / (self.line_bytes * self.ways)
    }

    /// Checks the geometry for internal consistency and for a size the
    /// model can hold ([`MAX_STRUCTURE_ENTRIES`] tag slots), reporting
    /// the offending values on failure.
    pub(crate) fn check(&self) -> Result<(), CacheProblem> {
        if !self.line_bytes.is_power_of_two() {
            return Err(CacheProblem::LineNotPowerOfTwo {
                line_bytes: self.line_bytes,
            });
        }
        if self.ways == 0 {
            return Err(CacheProblem::ZeroWays);
        }
        // A set span past u64 cannot divide any capacity.
        let span = self.line_bytes.checked_mul(self.ways);
        if !span.is_some_and(|span| self.size_bytes.is_multiple_of(span)) {
            return Err(CacheProblem::RaggedCapacity {
                size_bytes: self.size_bytes,
                line_bytes: self.line_bytes,
                ways: self.ways,
            });
        }
        let sets = self.sets();
        if !sets.is_power_of_two() {
            return Err(CacheProblem::SetCountNotPowerOfTwo { sets });
        }
        // Cannot overflow: the slots times the line size is the capacity.
        let slots = sets * self.ways;
        if slots > MAX_STRUCTURE_ENTRIES {
            return Err(CacheProblem::TooManySlots { slots });
        }
        Ok(())
    }
}

/// What is wrong with a rejected [`CacheConfig`], carrying the values
/// that make the geometry inconsistent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheProblem {
    /// The line size is not a power of two.
    LineNotPowerOfTwo {
        /// The rejected line size.
        line_bytes: u64,
    },
    /// Zero ways per set.
    ZeroWays,
    /// The capacity is not a whole number of sets.
    RaggedCapacity {
        /// The rejected capacity.
        size_bytes: u64,
        /// The line size it was divided by.
        line_bytes: u64,
        /// The associativity it was divided by.
        ways: u64,
    },
    /// The derived set count is not a power of two (zero counts).
    SetCountNotPowerOfTwo {
        /// The derived set count.
        sets: u64,
    },
    /// More tag slots than `MAX_STRUCTURE_ENTRIES`.
    TooManySlots {
        /// The derived slot count (sets × ways).
        slots: u64,
    },
}

impl fmt::Display for CacheProblem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            CacheProblem::LineNotPowerOfTwo { line_bytes } => {
                write!(f, "line size {line_bytes} is not a power of two")
            }
            CacheProblem::ZeroWays => write!(f, "associativity must be positive (ways=0)"),
            CacheProblem::RaggedCapacity {
                size_bytes,
                line_bytes,
                ways,
            } => write!(
                f,
                "capacity {size_bytes} is not a whole number of sets \
                 ({line_bytes}-byte lines x {ways} ways)"
            ),
            CacheProblem::SetCountNotPowerOfTwo { sets } => {
                write!(f, "set count {sets} is not a power of two")
            }
            CacheProblem::TooManySlots { slots } => write!(
                f,
                "{slots} tag slots exceed the model's limit of {MAX_STRUCTURE_ENTRIES}"
            ),
        }
    }
}

/// What is wrong with a rejected [`DramConfig`], carrying the values
/// that make the geometry inconsistent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DramProblem {
    /// The bank count is not a power of two (zero counts).
    BanksNotPowerOfTwo {
        /// The rejected bank count.
        banks: u64,
    },
    /// More banks than `MAX_STRUCTURE_ENTRIES`.
    TooManyBanks {
        /// The rejected bank count.
        banks: u64,
    },
    /// The row size is not a power of two.
    RowNotPowerOfTwo {
        /// The rejected row size.
        row_bytes: u64,
    },
    /// The transfer size is not a power of two.
    LineNotPowerOfTwo {
        /// The rejected transfer size.
        line_bytes: u64,
    },
    /// A row holds less than one transfer.
    RowSmallerThanLine {
        /// The rejected row size.
        row_bytes: u64,
        /// The transfer size it must hold.
        line_bytes: u64,
    },
}

impl fmt::Display for DramProblem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            DramProblem::BanksNotPowerOfTwo { banks } => {
                write!(f, "bank count {banks} is not a power of two")
            }
            DramProblem::TooManyBanks { banks } => write!(
                f,
                "bank count {banks} exceeds the model's limit of {MAX_STRUCTURE_ENTRIES}"
            ),
            DramProblem::RowNotPowerOfTwo { row_bytes } => {
                write!(f, "row size {row_bytes} is not a power of two")
            }
            DramProblem::LineNotPowerOfTwo { line_bytes } => {
                write!(f, "transfer size {line_bytes} is not a power of two")
            }
            DramProblem::RowSmallerThanLine {
                row_bytes,
                line_bytes,
            } => write!(
                f,
                "row size {row_bytes} is smaller than the {line_bytes}-byte transfer"
            ),
        }
    }
}

/// A rejected geometry: which structure it was meant for, the offending
/// configuration, and what is inconsistent about it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GeometryError {
    /// The structure the geometry was meant for ("L1D", "L2", "L3",
    /// "I-cache", "D-TLB", "DRAM", or "cache" for a bare [`Cache`]).
    pub structure: &'static str,
    /// The rejected geometry and its inconsistency.
    pub kind: GeometryErrorKind,
}

/// The offending geometry inside a [`GeometryError`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GeometryErrorKind {
    /// A cache geometry was rejected.
    Cache {
        /// The rejected configuration.
        config: CacheConfig,
        /// Its inconsistency.
        problem: CacheProblem,
    },
    /// A TLB entry count was rejected.
    Tlb {
        /// The rejected entry count.
        entries: u64,
        /// The inconsistency of the page cache it derives.
        problem: CacheProblem,
    },
    /// A DRAM geometry was rejected.
    Dram {
        /// The rejected configuration.
        config: DramConfig,
        /// Its inconsistency.
        problem: DramProblem,
    },
}

impl GeometryError {
    fn cache(structure: &'static str, config: CacheConfig, problem: CacheProblem) -> Self {
        GeometryError {
            structure,
            kind: GeometryErrorKind::Cache { config, problem },
        }
    }
}

impl fmt::Display for GeometryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            GeometryErrorKind::Cache { config, problem } => write!(
                f,
                "{} geometry invalid: {problem} (size_bytes={}, line_bytes={}, ways={})",
                self.structure, config.size_bytes, config.line_bytes, config.ways
            ),
            GeometryErrorKind::Tlb { entries, problem } => write!(
                f,
                "{} geometry invalid: {problem} (entries={entries}, 4-way over {}-byte pages)",
                self.structure,
                Tlb::PAGE_BYTES
            ),
            GeometryErrorKind::Dram { config, problem } => write!(
                f,
                "{} geometry invalid: {problem} (banks={}, row_bytes={}, line_bytes={})",
                self.structure, config.banks, config.row_bytes, config.line_bytes
            ),
        }
    }
}

impl std::error::Error for GeometryError {}

/// Hit/miss counters for one cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
}

impl CacheStats {
    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Miss ratio in `[0, 1]`; 0 when no accesses occurred.
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses() == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses() as f64
        }
    }
}

/// A set-associative cache with true-LRU replacement.
///
/// LRU is *order-encoded*: each set's ways are kept most-recent-first in
/// `tags`, so a hit on the front way — the overwhelmingly common case in
/// workloads with locality — is a single compare with no state movement,
/// and eviction is always the last way. This is exactly true LRU (the
/// recency order is maintained explicitly rather than via timestamps),
/// so hit/miss decisions and evictions are identical to a stamp-based
/// implementation; it just avoids a parallel stamp array, a global
/// clock, and the oldest-way scan on every access.
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    /// Per-way tags, `u64::MAX` = invalid. Row-major `sets × ways`,
    /// each set ordered most-recently-used first.
    tags: Vec<u64>,
    set_mask: u64,
    line_shift: u32,
    stats: CacheStats,
}

impl Cache {
    /// Creates an empty cache, rejecting inconsistent geometry with the
    /// offending values.
    pub(crate) fn try_new(config: CacheConfig) -> Result<Self, GeometryError> {
        Self::try_new_labeled("cache", config)
    }

    /// [`Cache::try_new`] with an explicit structure label for the error.
    pub(crate) fn try_new_labeled(
        structure: &'static str,
        config: CacheConfig,
    ) -> Result<Self, GeometryError> {
        config
            .check()
            .map_err(|problem| GeometryError::cache(structure, config, problem))?;
        let sets = config.sets();
        Ok(Cache {
            tags: vec![
                u64::MAX;
                usize::try_from(sets * config.ways).expect("cache way count fits usize")
            ],
            set_mask: sets - 1,
            line_shift: config.line_bytes.trailing_zeros(),
            config,
            stats: CacheStats::default(),
        })
    }

    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is not internally consistent (line size
    /// or set count not a power of two, zero ways, ragged capacity) — the
    /// message carries the offending geometry. A machine built from
    /// untrusted input is checked first with
    /// [`MachineConfig::validate`](crate::MachineConfig::validate).
    pub fn new(config: CacheConfig) -> Self {
        Self::try_new(config).unwrap_or_else(|e| panic!("{e}"))
    }

    /// The tag/LRU state transition of one access, without the stats
    /// update: returns `true` on hit. Batch kernels accumulate hit/miss
    /// counts in locals and fold them into [`CacheStats`] once per batch;
    /// [`Cache::access`] folds per call. Either way the state evolution
    /// and final stats are identical.
    // Lossless narrowings: the set index is masked to the validated set
    // count and `ways` is bounded by the capacity check in `check`.
    #[allow(clippy::cast_possible_truncation)]
    #[inline]
    fn lookup(&mut self, addr: u64) -> bool {
        let line = addr >> self.line_shift;
        let set = (line & self.set_mask) as usize;
        let ways = self.config.ways as usize;
        let base = set * ways;
        let set_tags = &mut self.tags[base..base + ways];
        // MRU-first order makes the front way the hot path: a hit there
        // is one compare, no movement.
        if set_tags[0] == line {
            return true;
        }
        // Deeper hit or miss: rotate `line` to the front. The shift is
        // a manual register-width loop — `copy_within` lowers to an
        // out-of-line memmove call, which dominates the lookup for the
        // handful of words moved here. (A branch-free fixed-trip-count
        // scan-and-select variant measured slower: shallow hits dominate
        // real traces, and the unconditional full-width shift costs more
        // than the early exit's occasional mispredict.)
        let mut displaced = set_tags[0];
        for way in 1..ways {
            std::mem::swap(&mut set_tags[way], &mut displaced);
            if displaced == line {
                set_tags[0] = line;
                return true;
            }
        }
        // Miss: the rotation above shifted every way down one, dropping
        // the least-recent tag; insert the new line in front.
        set_tags[0] = line;
        false
    }

    /// Accesses `addr`; returns `true` on hit. Allocates on miss.
    #[inline]
    pub fn access(&mut self, addr: u64) -> bool {
        let hit = self.lookup(addr);
        self.stats.hits += u64::from(hit);
        self.stats.misses += u64::from(!hit);
        hit
    }

    /// Accesses every address in order; returns the miss count.
    ///
    /// Exactly equivalent to calling [`Cache::access`] per element —
    /// same state evolution, same statistics — but the hit/miss
    /// counters accumulate in locals across the batch.
    pub fn access_many(&mut self, addrs: &[u64]) -> u64 {
        let mut misses = 0u64;
        for &addr in addrs {
            misses += u64::from(!self.lookup(addr));
        }
        self.stats.hits += addrs.len() as u64 - misses;
        self.stats.misses += misses;
        misses
    }

    /// Accesses `probes` line-strided addresses starting at `base` (the
    /// fetch footprint of one call into a function's entry region);
    /// returns the miss count. Equivalent to `probes` individual
    /// [`Cache::access`] calls at `base`, `base + line`, `base + 2·line`,
    /// ….
    pub(crate) fn probe_span(&mut self, base: u64, probes: u64) -> u64 {
        let line = self.config.line_bytes;
        let mut misses = 0u64;
        let mut addr = base;
        for _ in 0..probes {
            misses += u64::from(!self.lookup(addr));
            addr += line;
        }
        self.stats.hits += probes - misses;
        self.stats.misses += misses;
        misses
    }

    /// Folds `n` known-hit accesses into the statistics without walking
    /// any set — for batch kernels whose memo fast paths prove the
    /// skipped accesses are front-way (MRU) hits, which true LRU leaves
    /// unmoved.
    pub(crate) fn credit_hits(&mut self, n: u64) {
        self.stats.hits += n;
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// The geometry this cache was built with.
    pub(crate) fn config(&self) -> CacheConfig {
        self.config
    }
}

/// A fully-associative-by-set TLB over 4 KiB pages, modelled as a cache of
/// page numbers.
#[derive(Debug, Clone)]
pub(crate) struct Tlb {
    inner: Cache,
}

impl Tlb {
    /// Page size assumed by the TLB model.
    pub(crate) const PAGE_BYTES: u64 = 4096;

    /// The page-cache geometry of a TLB with `entries` page slots, 4-way,
    /// checked without building it.
    ///
    /// # Errors
    ///
    /// A D-TLB [`GeometryError`] when `entries` does not form a positive
    /// power-of-two set count.
    pub(crate) fn geometry(entries: u64) -> Result<CacheConfig, GeometryError> {
        let config = CacheConfig {
            // Saturating: u64::MAX is never a whole number of sets.
            size_bytes: entries.saturating_mul(Self::PAGE_BYTES),
            line_bytes: Self::PAGE_BYTES,
            ways: 4,
        };
        config.check().map_err(|problem| GeometryError {
            structure: "D-TLB",
            kind: GeometryErrorKind::Tlb { entries, problem },
        })?;
        Ok(config)
    }

    /// Creates a TLB with `entries` page slots, 4-way, rejecting entry
    /// counts that do not form a positive power-of-two set count.
    pub(crate) fn try_new(entries: u64) -> Result<Self, GeometryError> {
        Ok(Tlb {
            inner: Cache::new(Self::geometry(entries)?),
        })
    }

    /// Creates a TLB with `entries` page slots (power of two), 4-way.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a positive multiple of 4 with a
    /// power-of-two set count — the message carries the offending entry
    /// count. Sweeps should use [`Tlb::try_new`] instead.
    pub(crate) fn new(entries: u64) -> Self {
        Self::try_new(entries).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Translates `addr`; returns `true` on TLB hit.
    pub(crate) fn access(&mut self, addr: u64) -> bool {
        self.inner.access(addr)
    }

    /// Accumulated statistics.
    pub(crate) fn stats(&self) -> CacheStats {
        self.inner.stats()
    }
}

/// Geometry of the DRAM row-buffer model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramConfig {
    /// Independent banks, each with one open row (power of two).
    pub banks: u64,
    /// Row (DRAM page) size in bytes (power of two).
    pub row_bytes: u64,
    /// Bytes transferred per access — the cache-line fill size.
    pub line_bytes: u64,
}

impl DramConfig {
    /// 8 banks × 8 KiB rows, 64-byte transfers: a DDR3 channel like the
    /// i7-2600's.
    pub(crate) fn ddr3() -> Self {
        DramConfig {
            banks: 8,
            row_bytes: 8192,
            line_bytes: 64,
        }
    }

    /// Checks the geometry for internal consistency and for a size the
    /// model can hold ([`MAX_STRUCTURE_ENTRIES`] banks), reporting the
    /// offending values on failure.
    pub(crate) fn check(&self) -> Result<(), DramProblem> {
        if !self.banks.is_power_of_two() {
            return Err(DramProblem::BanksNotPowerOfTwo { banks: self.banks });
        }
        if self.banks > MAX_STRUCTURE_ENTRIES {
            return Err(DramProblem::TooManyBanks { banks: self.banks });
        }
        if !self.row_bytes.is_power_of_two() {
            return Err(DramProblem::RowNotPowerOfTwo {
                row_bytes: self.row_bytes,
            });
        }
        if !self.line_bytes.is_power_of_two() {
            return Err(DramProblem::LineNotPowerOfTwo {
                line_bytes: self.line_bytes,
            });
        }
        if self.row_bytes < self.line_bytes {
            return Err(DramProblem::RowSmallerThanLine {
                row_bytes: self.row_bytes,
                line_bytes: self.line_bytes,
            });
        }
        Ok(())
    }
}

/// Row-buffer counters for the DRAM model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DramStats {
    /// Accesses that hit the bank's open row.
    pub row_hits: u64,
    /// Accesses that had to open a new row (including cold banks).
    pub row_misses: u64,
}

impl DramStats {
    /// Total DRAM accesses (cache-line fills from memory).
    pub(crate) fn accesses(&self) -> u64 {
        self.row_hits + self.row_misses
    }
}

/// An open-page DRAM model: each bank keeps its last-activated row open,
/// an access to the open row is a row-buffer hit, anything else closes
/// the row and opens the new one (a row miss). Banks are interleaved by
/// row number, so consecutive rows land on different banks.
#[derive(Debug, Clone)]
pub(crate) struct Dram {
    config: DramConfig,
    /// Open row per bank, `u64::MAX` = closed (no row activated yet).
    open_rows: Vec<u64>,
    row_shift: u32,
    bank_mask: u64,
    stats: DramStats,
}

impl Dram {
    /// Creates a DRAM model with every bank closed, rejecting
    /// inconsistent geometry with the offending values.
    pub(crate) fn try_new(config: DramConfig) -> Result<Self, GeometryError> {
        config.check().map_err(|problem| GeometryError {
            structure: "DRAM",
            kind: GeometryErrorKind::Dram { config, problem },
        })?;
        Ok(Dram {
            open_rows: vec![
                u64::MAX;
                usize::try_from(config.banks).expect("bank count fits usize")
            ],
            row_shift: config.row_bytes.trailing_zeros(),
            bank_mask: config.banks - 1,
            config,
            stats: DramStats::default(),
        })
    }

    /// Creates a DRAM model with every bank closed.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is not internally consistent — the
    /// message carries the offending geometry. Sweeps should use
    /// [`Dram::try_new`] instead.
    pub(crate) fn new(config: DramConfig) -> Self {
        Self::try_new(config).unwrap_or_else(|e| panic!("{e}"))
    }

    /// The row-buffer state transition of one access, without the stats
    /// update: returns `true` on a row-buffer hit. Batch kernels fold
    /// counts once per batch; [`Dram::access`] folds per call.
    // Lossless narrowing: the bank index is masked to the validated
    // power-of-two bank count.
    #[allow(clippy::cast_possible_truncation)]
    #[inline]
    fn lookup(&mut self, addr: u64) -> bool {
        let row = addr >> self.row_shift;
        let bank = (row & self.bank_mask) as usize;
        // A row number never reaches `u64::MAX >> row_shift < u64::MAX`
        // (row_bytes ≥ line_bytes ≥ 1 and row_bytes is ≥ 2 in any real
        // geometry), but even the degenerate 1-byte-row case is safe: a
        // genuine open row equal to the closed sentinel only turns the
        // first access to it into a spurious hit if the sentinel were
        // reachable, and `row_bytes ≥ line_bytes ≥ 1` with `banks ≥ 1`
        // keeps the comparison exact — the open-row slot is only ever
        // compared against real rows after being written by one.
        if self.open_rows[bank] == row {
            return true;
        }
        self.open_rows[bank] = row;
        false
    }

    /// Performs one line fill; returns `true` on a row-buffer hit.
    #[inline]
    pub(crate) fn access(&mut self, addr: u64) -> bool {
        let hit = self.lookup(addr);
        self.stats.row_hits += u64::from(hit);
        self.stats.row_misses += u64::from(!hit);
        hit
    }

    /// Accumulated row-buffer statistics.
    pub(crate) fn stats(&self) -> DramStats {
        self.stats
    }

    /// Bytes read from memory so far (one line per access).
    pub(crate) fn bytes_read(&self) -> u64 {
        self.stats.accesses() * self.config.line_bytes
    }
}

/// Where a data access was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemoryOutcome {
    /// Hit in L1D.
    L1,
    /// Missed L1, hit L2.
    L2,
    /// Missed L1 and L2, hit the shared L3.
    L3,
    /// Missed every cache level; filled from DRAM.
    Dram {
        /// Whether the fill hit the bank's open row.
        row_hit: bool,
    },
}

/// Outcome counts of one batched pass through a [`MemoryHierarchy`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoryBatch {
    /// Accesses performed (the batch length).
    pub accesses: u64,
    /// Accesses that missed L1 and hit L2.
    pub l2_hits: u64,
    /// Accesses that missed L1 and L2 and hit L3.
    pub l3_hits: u64,
    /// Accesses that missed every cache level and filled from DRAM.
    pub dram_accesses: u64,
    /// DRAM fills that hit the bank's open row (subset of
    /// `dram_accesses`).
    pub row_hits: u64,
    /// Accesses whose translation missed the D-TLB.
    pub tlb_misses: u64,
}

/// L1D + L2 + shared L3 + D-TLB + DRAM data-side hierarchy.
#[derive(Debug, Clone)]
pub struct MemoryHierarchy {
    l1d: Cache,
    l2: Cache,
    l3: Cache,
    dtlb: Tlb,
    dram: Dram,
}

impl MemoryHierarchy {
    /// Builds the reference hierarchy (i7-2600-like geometry).
    pub fn new() -> Self {
        MemoryHierarchy {
            l1d: Cache::new(CacheConfig::l1d()),
            l2: Cache::new(CacheConfig::l2()),
            l3: Cache::new(CacheConfig::l3()),
            dtlb: Tlb::new(64),
            dram: Dram::new(DramConfig::ddr3()),
        }
    }

    /// Builds a hierarchy with explicit geometries, rejecting the first
    /// invalid level with an error naming it and carrying the offending
    /// values — so geometry sweeps can report bad points instead of
    /// aborting.
    pub(crate) fn try_with_configs(
        l1d: CacheConfig,
        l2: CacheConfig,
        l3: CacheConfig,
        tlb_entries: u64,
        dram: DramConfig,
    ) -> Result<Self, GeometryError> {
        Ok(MemoryHierarchy {
            l1d: Cache::try_new_labeled("L1D", l1d)?,
            l2: Cache::try_new_labeled("L2", l2)?,
            l3: Cache::try_new_labeled("L3", l3)?,
            dtlb: Tlb::try_new(tlb_entries)?,
            dram: Dram::try_new(dram)?,
        })
    }

    /// Builds a hierarchy with explicit geometries.
    ///
    /// # Panics
    ///
    /// Panics if any level's configuration is invalid — the message
    /// names the level and carries the offending geometry. A machine
    /// built from untrusted input is checked first with
    /// [`MachineConfig::validate`](crate::MachineConfig::validate).
    pub fn with_configs(
        l1d: CacheConfig,
        l2: CacheConfig,
        l3: CacheConfig,
        tlb_entries: u64,
        dram: DramConfig,
    ) -> Self {
        Self::try_with_configs(l1d, l2, l3, tlb_entries, dram).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Performs one data access; returns where it was satisfied and
    /// whether the TLB missed.
    pub fn access(&mut self, addr: u64) -> (MemoryOutcome, bool) {
        let tlb_hit = self.dtlb.access(addr);
        let outcome = if self.l1d.access(addr) {
            MemoryOutcome::L1
        } else if self.l2.access(addr) {
            MemoryOutcome::L2
        } else if self.l3.access(addr) {
            MemoryOutcome::L3
        } else {
            MemoryOutcome::Dram {
                row_hit: self.dram.access(addr),
            }
        };
        (outcome, !tlb_hit)
    }

    /// Performs every access in order and returns the accumulated
    /// outcome counts. Exactly equivalent to calling
    /// [`MemoryHierarchy::access`] per element — the TLB, L1, L2, L3,
    /// and DRAM see the same address stream in the same order, and
    /// per-level statistics fold in once per batch instead of once per
    /// access.
    ///
    /// Two batch-only fast paths exploit run locality without touching
    /// any cache state, which is valid precisely because the skipped
    /// lookups are guaranteed front-way (MRU) hits that true LRU leaves
    /// unmoved:
    ///
    /// * an access to the *same L1 line* as its predecessor is an L1
    ///   hit and a TLB hit (same line ⇒ same page), with both entries
    ///   already most-recent;
    /// * an access to the *same page* as its predecessor is a TLB hit
    ///   with the page entry already most-recent, even when the line
    ///   differs.
    ///
    /// Only this batch touches the TLB and L1 between the two accesses,
    /// so the guarantee cannot be invalidated mid-run; outcome counts
    /// and final state are bit-identical to the scalar walk.
    ///
    /// The memos compare against a `u64::MAX` "no previous" sentinel,
    /// which is sound only while no real line/page number can equal it.
    /// Pages always satisfy that (the page shift is 12), but with
    /// 1-byte lines (`line_shift == 0`) the address `u64::MAX` *is* its
    /// own line number and would alias the sentinel — so the line memo
    /// is disabled for that degenerate geometry and every access takes
    /// the full-lookup path, which is the equivalence the memo shortcuts.
    pub fn access_many(&mut self, addrs: &[u64]) -> MemoryBatch {
        let mut batch = MemoryBatch {
            accesses: addrs.len() as u64,
            ..MemoryBatch::default()
        };
        let mut tlb_hits = 0u64;
        let mut l1_hits = 0u64;
        let mut l2_tries = 0u64;
        let mut l3_tries = 0u64;
        let line_shift = self.l1d.line_shift;
        let page_shift = self.dtlb.inner.line_shift;
        debug_assert!(page_shift > 0, "pages are at least two bytes");
        // The sentinel is only unreachable when the shift strips at
        // least one bit; see the method docs.
        let line_memo = line_shift > 0;
        let mut last_line = u64::MAX;
        let mut last_page = u64::MAX;
        for &addr in addrs {
            let line = addr >> line_shift;
            if line_memo && line == last_line {
                tlb_hits += 1;
                l1_hits += 1;
                continue;
            }
            last_line = line;
            let page = addr >> page_shift;
            if page == last_page {
                tlb_hits += 1;
            } else {
                last_page = page;
                tlb_hits += u64::from(self.dtlb.inner.lookup(addr));
            }
            if self.l1d.lookup(addr) {
                l1_hits += 1;
            } else {
                l2_tries += 1;
                if self.l2.lookup(addr) {
                    batch.l2_hits += 1;
                } else {
                    l3_tries += 1;
                    if self.l3.lookup(addr) {
                        batch.l3_hits += 1;
                    } else {
                        batch.dram_accesses += 1;
                        batch.row_hits += u64::from(self.dram.lookup(addr));
                    }
                }
            }
        }
        batch.tlb_misses = batch.accesses - tlb_hits;
        self.dtlb.inner.stats.hits += tlb_hits;
        self.dtlb.inner.stats.misses += batch.tlb_misses;
        self.l1d.stats.hits += l1_hits;
        self.l1d.stats.misses += l2_tries;
        self.l2.stats.hits += batch.l2_hits;
        self.l2.stats.misses += l3_tries;
        self.l3.stats.hits += batch.l3_hits;
        self.l3.stats.misses += batch.dram_accesses;
        self.dram.stats.row_hits += batch.row_hits;
        self.dram.stats.row_misses += batch.dram_accesses - batch.row_hits;
        batch
    }

    /// L1D statistics.
    pub fn l1d_stats(&self) -> CacheStats {
        self.l1d.stats()
    }

    /// L2 statistics.
    pub fn l2_stats(&self) -> CacheStats {
        self.l2.stats()
    }

    /// L3 statistics.
    pub fn l3_stats(&self) -> CacheStats {
        self.l3.stats()
    }

    /// D-TLB statistics.
    pub fn dtlb_stats(&self) -> CacheStats {
        self.dtlb.stats()
    }

    /// DRAM row-buffer statistics.
    pub fn dram_stats(&self) -> DramStats {
        self.dram.stats()
    }

    /// Bytes read from DRAM so far (one line fill per L3 miss).
    pub fn dram_bytes_read(&self) -> u64 {
        self.dram.bytes_read()
    }
}

impl Default for MemoryHierarchy {
    fn default() -> Self {
        MemoryHierarchy::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 4 sets × 2 ways × 64-byte lines = 512 bytes.
        Cache::new(CacheConfig {
            size_bytes: 512,
            line_bytes: 64,
            ways: 2,
        })
    }

    #[test]
    fn first_access_misses_second_hits() {
        let mut c = tiny();
        assert!(!c.access(0x1000));
        assert!(c.access(0x1000));
        assert!(c.access(0x1030), "same 64-byte line");
        assert_eq!(c.stats().hits, 2);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = tiny();
        // Three lines mapping to set 0 (line numbers ≡ 0 mod 4).
        let a = 0u64;
        let b = 4 * 64;
        let d = 8 * 64;
        c.access(a); // miss
        c.access(b); // miss, set full
        c.access(a); // hit, refreshes a
        c.access(d); // miss, evicts b (LRU)
        assert!(c.access(a), "a must survive");
        assert!(!c.access(b), "b was evicted");
    }

    #[test]
    fn working_set_within_capacity_has_no_steady_state_misses() {
        let mut c = Cache::new(CacheConfig::l1d());
        let lines = CacheConfig::l1d().size_bytes / 64;
        for round in 0..4 {
            for i in 0..lines / 2 {
                let hit = c.access(i * 64);
                if round > 0 {
                    assert!(hit, "line {i} should be resident in round {round}");
                }
            }
        }
    }

    #[test]
    fn streaming_misses_every_line() {
        let mut c = Cache::new(CacheConfig::l1d());
        for i in 0..100_000u64 {
            c.access(i * 64);
        }
        assert_eq!(c.stats().hits, 0);
        assert_eq!(c.stats().misses, 100_000);
        assert!((c.stats().miss_ratio() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn miss_ratio_of_idle_cache_is_zero() {
        assert_eq!(tiny().stats().miss_ratio(), 0.0);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_line_size_panics() {
        let _ = Cache::new(CacheConfig {
            size_bytes: 512,
            line_bytes: 48,
            ways: 2,
        });
    }

    #[test]
    fn try_new_reports_offending_geometry() {
        let config = CacheConfig {
            size_bytes: 512,
            line_bytes: 48,
            ways: 2,
        };
        let err = Cache::try_new(config).unwrap_err();
        assert_eq!(
            err.kind,
            GeometryErrorKind::Cache {
                config,
                problem: CacheProblem::LineNotPowerOfTwo { line_bytes: 48 },
            }
        );
        let msg = err.to_string();
        assert!(msg.contains("48"), "message carries the value: {msg}");
        assert!(msg.contains("size_bytes=512"), "full geometry: {msg}");
    }

    #[test]
    fn try_new_reports_bad_set_count() {
        // 3 sets: divisible capacity but not a power-of-two set count.
        let err = Cache::try_new(CacheConfig {
            size_bytes: 3 * 2 * 64,
            line_bytes: 64,
            ways: 2,
        })
        .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("set count 3"), "carries the count: {msg}");
    }

    #[test]
    fn hierarchy_rejection_names_the_level() {
        let bad = CacheConfig {
            size_bytes: 100,
            line_bytes: 64,
            ways: 2,
        };
        let err = MemoryHierarchy::try_with_configs(
            CacheConfig::l1d(),
            bad,
            CacheConfig::l3(),
            64,
            DramConfig::ddr3(),
        )
        .unwrap_err();
        assert_eq!(err.structure, "L2");
        assert!(err.to_string().starts_with("L2 "), "{err}");
    }

    #[test]
    fn tlb_rejection_carries_entry_count() {
        let err = Tlb::try_new(3).unwrap_err();
        assert_eq!(err.structure, "D-TLB");
        assert!(err.to_string().contains("entries=3"), "{err}");
        assert!(Tlb::try_new(0).is_err());
        assert!(Tlb::try_new(64).is_ok());
        assert!(Tlb::try_new(MAX_STRUCTURE_ENTRIES).is_ok());
        let err = Tlb::try_new(2 * MAX_STRUCTURE_ENTRIES).unwrap_err();
        assert!(err.to_string().contains("tag slots exceed"), "{err}");
    }

    /// Geometry checks see decoded, untrusted values: products past
    /// `u64` are a rejection, not an overflow panic.
    #[test]
    fn geometry_checks_reject_overflowing_values() {
        let huge = CacheConfig {
            size_bytes: 0,
            line_bytes: 1 << 32,
            ways: 1 << 32,
        };
        assert!(matches!(
            huge.check(),
            Err(CacheProblem::RaggedCapacity { .. })
        ));
        let err = Tlb::geometry(u64::MAX).unwrap_err();
        assert!(
            err.to_string().contains("entries=18446744073709551615"),
            "{err}"
        );
        assert_eq!(Tlb::geometry(64).unwrap().size_bytes, 64 * Tlb::PAGE_BYTES);
    }

    #[test]
    fn dram_rejection_carries_geometry() {
        let err = Dram::try_new(DramConfig {
            banks: 6,
            row_bytes: 8192,
            line_bytes: 64,
        })
        .unwrap_err();
        assert_eq!(err.structure, "DRAM");
        assert!(err.to_string().contains("bank count 6"), "{err}");
        let err = Dram::try_new(DramConfig {
            banks: 8,
            row_bytes: 32,
            line_bytes: 64,
        })
        .unwrap_err();
        assert!(err.to_string().contains("smaller"), "{err}");
        let err = Dram::try_new(DramConfig {
            banks: 2 * MAX_STRUCTURE_ENTRIES,
            ..DramConfig::ddr3()
        })
        .unwrap_err();
        assert!(
            err.to_string().contains("exceeds the model's limit"),
            "{err}"
        );
    }

    #[test]
    fn tlb_covers_pages_not_lines() {
        let mut t = Tlb::new(16);
        assert!(!t.access(0));
        assert!(t.access(4000), "same 4 KiB page");
        assert!(!t.access(4096), "next page");
    }

    #[test]
    fn dram_row_buffer_hits_within_row_misses_across() {
        let mut d = Dram::new(DramConfig::ddr3());
        assert!(!d.access(0), "cold bank");
        assert!(d.access(64), "same 8 KiB row");
        assert!(d.access(8191), "still the same row");
        // 8 banks × 8 KiB rows: row 8 maps back to bank 0 and closes
        // row 0 there.
        assert!(!d.access(8 * 8192), "conflicting row on bank 0");
        assert!(!d.access(0), "row 0 was closed");
        assert_eq!(d.stats().row_hits, 2);
        assert_eq!(d.stats().row_misses, 3);
        assert_eq!(d.bytes_read(), 5 * 64);
    }

    #[test]
    fn dram_streams_hit_open_rows() {
        // A sequential stream of line fills stays within each row for
        // row_bytes / line_bytes fills: 127 hits per 128-fill row.
        let mut d = Dram::new(DramConfig::ddr3());
        for i in 0..1024u64 {
            d.access(i * 64);
        }
        let stats = d.stats();
        assert_eq!(stats.row_misses, 1024 / 128);
        let row_hit_rate = stats.row_hits as f64 / stats.accesses() as f64;
        assert!((row_hit_rate - 127.0 / 128.0).abs() < 1e-12);
    }

    #[test]
    fn hierarchy_l2_catches_l1_victims() {
        let mut h = MemoryHierarchy::new();
        // Touch a working set larger than L1 (32 KiB) but well within L2
        // (256 KiB): second pass should be mostly L2 hits, not deeper.
        let lines = 2 * 32 * 1024 / 64;
        for i in 0..lines {
            h.access(i * 64);
        }
        let mut l2_hits = 0;
        let mut deeper = 0;
        for i in 0..lines {
            match h.access(i * 64).0 {
                MemoryOutcome::L2 => l2_hits += 1,
                MemoryOutcome::L3 | MemoryOutcome::Dram { .. } => deeper += 1,
                MemoryOutcome::L1 => {}
            }
        }
        assert!(l2_hits > lines / 2, "l2_hits={l2_hits}");
        assert_eq!(deeper, 0, "the set fits in L2");
    }

    #[test]
    fn hierarchy_l3_catches_l2_victims() {
        let mut h = MemoryHierarchy::new();
        // Touch a working set larger than L2 (256 KiB) but well within
        // L3 (8 MiB): the second pass must never reach DRAM.
        let lines = 2 * 256 * 1024 / 64;
        for i in 0..lines {
            h.access(i * 64);
        }
        let mut l3_hits = 0;
        let mut dram = 0;
        for i in 0..lines {
            match h.access(i * 64).0 {
                MemoryOutcome::L3 => l3_hits += 1,
                MemoryOutcome::Dram { .. } => dram += 1,
                MemoryOutcome::L1 | MemoryOutcome::L2 => {}
            }
        }
        assert!(l3_hits > lines / 2, "l3_hits={l3_hits}");
        assert_eq!(dram, 0, "the set fits in L3");
        assert_eq!(h.dram_stats().accesses(), lines, "only the cold pass");
    }

    #[test]
    fn hierarchy_reports_tlb_misses_for_scattered_pages() {
        let mut h = MemoryHierarchy::new();
        let mut tlb_misses = 0;
        for i in 0..1000u64 {
            // One access per page over far more pages than TLB entries.
            let (_, tlb_miss) = h.access(i * 4096 * 3);
            tlb_misses += tlb_miss as u64;
        }
        assert!(tlb_misses > 900, "tlb_misses={tlb_misses}");
    }

    /// Deterministic splitmix-style address generator for batch tests.
    fn scatter(i: u64) -> u64 {
        let mut z = i.wrapping_add(0x9E3779B97F4A7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z ^ (z >> 27)
    }

    #[test]
    fn access_many_matches_scalar_loop() {
        let addrs: Vec<u64> = (0..5000u64).map(|i| scatter(i) % (1 << 22)).collect();
        let mut scalar = Cache::new(CacheConfig::l1d());
        let scalar_misses: u64 = addrs.iter().map(|&a| u64::from(!scalar.access(a))).sum();
        let mut batched = Cache::new(CacheConfig::l1d());
        let mut batch_misses = batched.access_many(&addrs[..1234]);
        batch_misses += batched.access_many(&addrs[1234..]);
        assert_eq!(scalar_misses, batch_misses);
        assert_eq!(scalar.stats(), batched.stats());
        // Post-batch state agrees too.
        for i in 0..500u64 {
            let a = scatter(i + 9999) % (1 << 22);
            assert_eq!(scalar.access(a), batched.access(a), "addr {a}");
        }
    }

    #[test]
    fn probe_span_matches_strided_accesses() {
        let mut scalar = Cache::new(CacheConfig::l1i());
        let mut batched = Cache::new(CacheConfig::l1i());
        for call in 0..2000u64 {
            let base = (scatter(call) % 64) * 4096;
            let probes = 1 + scatter(call * 7) % 4;
            let mut scalar_misses = 0u64;
            for k in 0..probes {
                scalar_misses += u64::from(!scalar.access(base + k * 64));
            }
            assert_eq!(scalar_misses, batched.probe_span(base, probes), "{call}");
        }
        assert_eq!(scalar.stats(), batched.stats());
    }

    /// Scalar reference for hierarchy batch tests: per-element
    /// [`MemoryHierarchy::access`] accumulated into a [`MemoryBatch`].
    fn scalar_batch(h: &mut MemoryHierarchy, addrs: &[u64]) -> MemoryBatch {
        let mut expect = MemoryBatch {
            accesses: addrs.len() as u64,
            ..MemoryBatch::default()
        };
        for &a in addrs {
            let (outcome, tlb_miss) = h.access(a);
            match outcome {
                MemoryOutcome::L1 => {}
                MemoryOutcome::L2 => expect.l2_hits += 1,
                MemoryOutcome::L3 => expect.l3_hits += 1,
                MemoryOutcome::Dram { row_hit } => {
                    expect.dram_accesses += 1;
                    expect.row_hits += u64::from(row_hit);
                }
            }
            expect.tlb_misses += u64::from(tlb_miss);
        }
        expect
    }

    #[test]
    fn hierarchy_access_many_matches_scalar_loop() {
        // Wide enough (2^26) to spill past L3 and exercise DRAM.
        let addrs: Vec<u64> = (0..8000u64).map(|i| scatter(i) % (1 << 26)).collect();
        let mut scalar = MemoryHierarchy::new();
        let expect = scalar_batch(&mut scalar, &addrs);
        assert!(expect.dram_accesses > 0, "stream must reach DRAM");
        let mut batched = MemoryHierarchy::new();
        let got = batched.access_many(&addrs);
        assert_eq!(got, expect);
        assert_eq!(scalar.l1d_stats(), batched.l1d_stats());
        assert_eq!(scalar.l2_stats(), batched.l2_stats());
        assert_eq!(scalar.l3_stats(), batched.l3_stats());
        assert_eq!(scalar.dtlb_stats(), batched.dtlb_stats());
        assert_eq!(scalar.dram_stats(), batched.dram_stats());
    }

    #[test]
    fn access_many_handles_addresses_at_the_top_of_the_space() {
        // Addresses within one line/page of u64::MAX exercise the memo
        // sentinels; batch and scalar must still agree exactly.
        let mut addrs = vec![u64::MAX, u64::MAX - 1, u64::MAX - 64, u64::MAX];
        addrs.extend((0..2000u64).map(|i| match scatter(i) % 3 {
            0 => u64::MAX - (scatter(i * 3) % 8192),
            1 => scatter(i * 5) % (1 << 26),
            _ => u64::MAX,
        }));
        let mut scalar = MemoryHierarchy::new();
        let expect = scalar_batch(&mut scalar, &addrs);
        let mut batched = MemoryHierarchy::new();
        assert_eq!(batched.access_many(&addrs), expect);
        assert_eq!(scalar.l1d_stats(), batched.l1d_stats());
        assert_eq!(scalar.dtlb_stats(), batched.dtlb_stats());
    }

    #[test]
    fn access_many_with_one_byte_lines_refuses_the_sentinel_alias() {
        // Degenerate geometry: 1-byte lines make line == addr, so the
        // very first access to u64::MAX would alias the "no previous
        // line" sentinel if the memo were left on. The first access
        // must be a miss, exactly as the scalar walk says.
        let one_byte = CacheConfig {
            size_bytes: 64,
            line_bytes: 1,
            ways: 2,
        };
        let build = || {
            MemoryHierarchy::with_configs(
                one_byte,
                CacheConfig::l2(),
                CacheConfig::l3(),
                64,
                DramConfig::ddr3(),
            )
        };
        let addrs = [u64::MAX, u64::MAX, u64::MAX - 1, 7, u64::MAX];
        let mut scalar = build();
        let expect = scalar_batch(&mut scalar, &addrs);
        let mut batched = build();
        assert_eq!(batched.access_many(&addrs), expect);
        assert_eq!(scalar.l1d_stats(), batched.l1d_stats());
        // The first u64::MAX access is a genuine cold miss.
        assert!(expect.l2_hits + expect.l3_hits + expect.dram_accesses > 0);
    }

    #[test]
    fn stats_accessors_consistent() {
        let mut h = MemoryHierarchy::default();
        for i in 0..100u64 {
            h.access(i * 8);
        }
        assert_eq!(h.l1d_stats().accesses(), 100);
        assert_eq!(h.l2_stats().accesses(), h.l1d_stats().misses);
        assert_eq!(h.l3_stats().accesses(), h.l2_stats().misses);
        assert_eq!(h.dram_stats().accesses(), h.l3_stats().misses);
        assert_eq!(h.dtlb_stats().accesses(), 100);
    }
}
