//! Property-based tests for the microarchitecture substrates.

use alberta_profile::{Profiler, SampleConfig};
use alberta_uarch::{
    mpki_sweep_config, Cache, CacheConfig, DramConfig, MachineConfig, MemoryBatch, MemoryHierarchy,
    MemoryOutcome, PredictorKind, TopDownModel, MPKI_SWEEP_SIZES,
};
use proptest::prelude::*;

/// An independent LRU oracle for [`Cache`]: each way carries the clock
/// value of its last use, and a miss evicts the way with the oldest
/// stamp. `Cache` instead keeps every set in most-recently-used-first
/// order; the two must agree on every hit and miss.
struct StampCache {
    tags: Vec<u64>,
    stamps: Vec<u64>,
    clock: u64,
    set_mask: u64,
    line_shift: u32,
    ways: usize,
}

impl StampCache {
    fn new(config: CacheConfig) -> Self {
        let sets = config.size_bytes / (config.line_bytes * config.ways);
        StampCache {
            tags: vec![u64::MAX; (sets * config.ways) as usize],
            stamps: vec![0; (sets * config.ways) as usize],
            clock: 0,
            set_mask: sets - 1,
            line_shift: config.line_bytes.trailing_zeros(),
            ways: config.ways as usize,
        }
    }

    fn access(&mut self, addr: u64) -> bool {
        self.clock += 1;
        let line = addr >> self.line_shift;
        let base = (line & self.set_mask) as usize * self.ways;
        let mut victim = base;
        let mut oldest = u64::MAX;
        for i in base..base + self.ways {
            if self.tags[i] == line {
                self.stamps[i] = self.clock;
                return true;
            }
            if self.stamps[i] < oldest {
                oldest = self.stamps[i];
                victim = i;
            }
        }
        self.tags[victim] = line;
        self.stamps[victim] = self.clock;
        false
    }
}

/// An independent open-page DRAM oracle: one open row per bank.
struct StampDram {
    open_rows: Vec<u64>,
    row_shift: u32,
    bank_mask: u64,
}

impl StampDram {
    fn new(config: DramConfig) -> Self {
        StampDram {
            open_rows: vec![u64::MAX; config.banks as usize],
            row_shift: config.row_bytes.trailing_zeros(),
            bank_mask: config.banks - 1,
        }
    }

    fn access(&mut self, addr: u64) -> bool {
        let row = addr >> self.row_shift;
        let bank = (row & self.bank_mask) as usize;
        let hit = self.open_rows[bank] == row;
        self.open_rows[bank] = row;
        hit
    }
}

/// The data-side hierarchy rebuilt from the oracles: L1D, L2 and L3
/// stamp caches over DRAM, beside a 4-way stamp-cache D-TLB of 4 KiB
/// pages.
struct StampHierarchy {
    dtlb: StampCache,
    l1d: StampCache,
    l2: StampCache,
    l3: StampCache,
    dram: StampDram,
}

impl StampHierarchy {
    fn new(cfg: &MachineConfig) -> Self {
        StampHierarchy {
            dtlb: StampCache::new(CacheConfig {
                size_bytes: cfg.dtlb_entries * 4096,
                line_bytes: 4096,
                ways: 4,
            }),
            l1d: StampCache::new(cfg.l1d),
            l2: StampCache::new(cfg.l2),
            l3: StampCache::new(cfg.l3),
            dram: StampDram::new(cfg.dram),
        }
    }

    fn access(&mut self, addr: u64) -> (MemoryOutcome, bool) {
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
}

/// Scalar reference walk for the batched-kernel boundary property.
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

/// Degenerate L1 geometries the batched fast paths must survive: a
/// single fully-associative set, a direct-mapped array, a single
/// one-way set, and sub-line-of-64 lines (where the line memo's
/// `u64::MAX` sentinel is closest to a real line number).
const BOUNDARY_GEOMETRIES: [CacheConfig; 4] = [
    // One set, 16 ways: every address collides, LRU order is all there is.
    CacheConfig {
        size_bytes: 1024,
        line_bytes: 64,
        ways: 16,
    },
    // Direct-mapped: the MRU front-way shortcut degenerates to a plain tag probe.
    CacheConfig {
        size_bytes: 1024,
        line_bytes: 64,
        ways: 1,
    },
    // One set, one way: the smallest legal cache.
    CacheConfig {
        size_bytes: 64,
        line_bytes: 64,
        ways: 1,
    },
    // Two-byte lines: line numbers reach within one bit of the sentinel.
    CacheConfig {
        size_bytes: 256,
        line_bytes: 2,
        ways: 2,
    },
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Accounting identity: hits + misses equals accesses, and the number
    /// of misses is at least the number of distinct lines touched when
    /// they all map to a working set larger than the cache, and at least
    /// the distinct line count's information-theoretic floor otherwise.
    #[test]
    fn cache_accounting_identity(addrs in prop::collection::vec(0u64..(1 << 20), 1..2000)) {
        let mut cache = Cache::new(CacheConfig::l1d());
        for &a in &addrs {
            cache.access(a);
        }
        let stats = cache.stats();
        prop_assert_eq!(stats.accesses(), addrs.len() as u64);
        let mut lines: Vec<u64> = addrs.iter().map(|a| a >> 6).collect();
        lines.sort_unstable();
        lines.dedup();
        // Cold misses: every distinct line misses at least once.
        prop_assert!(stats.misses >= lines.len() as u64);
        prop_assert!(stats.miss_ratio() <= 1.0);
    }

    /// A working set that fits in one way-set's worth of cache never
    /// misses after the cold pass, regardless of access order.
    #[test]
    fn resident_working_set_has_only_cold_misses(
        perm in prop::collection::vec(0u64..64, 64..512),
    ) {
        let mut cache = Cache::new(CacheConfig::l1d());
        // 64 lines × 64 B = 4 KiB ≪ 32 KiB: always resident.
        for &i in &perm {
            cache.access(i * 64);
        }
        let mut distinct: Vec<u64> = perm.clone();
        distinct.sort_unstable();
        distinct.dedup();
        prop_assert_eq!(cache.stats().misses, distinct.len() as u64);
    }

    /// Every predictor gets a perfectly biased branch almost always right
    /// and never reports more mispredictions than observations.
    #[test]
    fn predictors_learn_constant_bias(taken in any::<bool>(), n in 64u64..512) {
        for kind in [
            PredictorKind::Bimodal { bits: 10 },
            PredictorKind::Gshare { bits: 10 },
            PredictorKind::Tournament { bits: 10 },
        ] {
            let mut p = kind.build();
            let wrong = (0..n).filter(|_| !p.observe(7, taken)).count() as u64;
            prop_assert!(wrong <= 4, "{}: {wrong} wrong of {n}", p.name());
        }
    }

    /// The batched walk equals the scalar walk on every degenerate
    /// geometry the fast-path sentinels could trip over — single-set,
    /// direct-mapped, one-entry, and tiny-line caches — on address
    /// streams that hug both ends of the address space, including the
    /// lines adjacent to the `u64::MAX` memo sentinel. Outcome counts
    /// and every per-level statistic must be bit-identical.
    #[test]
    fn access_many_matches_scalar_on_boundary_geometries(
        geometry in 0usize..4,
        raw in prop::collection::vec(any::<u64>(), 1..400),
    ) {
        // Fold each draw into one of three regions: the bottom of the
        // address space, the top (where line numbers sit next to the
        // `u64::MAX` sentinel — including `u64::MAX` itself), or anywhere.
        let addrs: Vec<u64> = raw
            .iter()
            .map(|&r| match r % 3 {
                0 => r % 8192,
                1 => u64::MAX - (r % 8192),
                _ => r,
            })
            .collect();
        let l1 = BOUNDARY_GEOMETRIES[geometry];
        // Small deeper levels and a tiny TLB so the stream reaches every
        // layer: L2, L3, DRAM row buffers, and TLB evictions all churn.
        let l2 = CacheConfig { size_bytes: 2048, line_bytes: 64, ways: 4 };
        let l3 = CacheConfig { size_bytes: 4096, line_bytes: 64, ways: 8 };
        let dram = DramConfig { banks: 4, row_bytes: 1024, line_bytes: 64 };
        let mut batched = MemoryHierarchy::with_configs(l1, l2, l3, 4, dram);
        let mut scalar = batched.clone();
        let want = scalar_batch(&mut scalar, &addrs);
        let got = batched.access_many(&addrs);
        prop_assert_eq!(got, want, "geometry {:?} diverged", l1);
        prop_assert_eq!(batched.l1d_stats(), scalar.l1d_stats());
        prop_assert_eq!(batched.l2_stats(), scalar.l2_stats());
        prop_assert_eq!(batched.l3_stats(), scalar.l3_stats());
        prop_assert_eq!(batched.dtlb_stats(), scalar.dtlb_stats());
        prop_assert_eq!(batched.dram_stats(), scalar.dram_stats());
        prop_assert_eq!(batched.dram_bytes_read(), scalar.dram_bytes_read());
    }

    /// The move-to-front LRU makes the same hit/miss decision as the
    /// stamp oracle on every access, over power-of-two geometries from
    /// direct-mapped to 16-way, and its statistics count them.
    /// (Addresses stay below 2^48, clear of the invalid-tag sentinel.)
    #[test]
    fn cache_lru_matches_the_stamp_oracle(
        ways_log in 0u32..5,
        sets_log in 0u32..7,
        line_log in 0u32..8,
        raw in prop::collection::vec(any::<u64>(), 1..2000),
    ) {
        let line_bytes = 1u64 << line_log;
        let ways = 1u64 << ways_log;
        let config = CacheConfig { size_bytes: (line_bytes * ways) << sets_log, line_bytes, ways };
        let mut cache = Cache::new(config);
        let mut oracle = StampCache::new(config);
        let mut hits = 0u64;
        for (i, &r) in raw.iter().enumerate() {
            // Four times the capacity: hits, conflict and capacity
            // misses all occur.
            let addr = (r >> 16) % (4 * config.size_bytes);
            let hit = cache.access(addr);
            prop_assert_eq!(hit, oracle.access(addr), "access {} to {:#x} in {:?}", i, addr, config);
            hits += u64::from(hit);
        }
        prop_assert_eq!(cache.stats().hits, hits);
        prop_assert_eq!(cache.stats().accesses(), raw.len() as u64);
    }

    /// The reference hierarchy agrees with one rebuilt from the oracles
    /// on every access: the level that served it, the DRAM row-buffer
    /// outcome and the TLB miss. The stream mixes an L1-sized hot set,
    /// an L2-sized region, lines that conflict in L1 and L2, an
    /// L3-sized region, scattered far lines and a sequential scan, so
    /// every level, row hits and row misses all occur.
    #[test]
    fn hierarchy_matches_the_stamp_oracle(
        raw in prop::collection::vec(any::<u64>(), 200..3000),
    ) {
        let cfg = MachineConfig::default();
        let mut hierarchy =
            MemoryHierarchy::with_configs(cfg.l1d, cfg.l2, cfg.l3, cfg.dtlb_entries, cfg.dram);
        let mut oracle = StampHierarchy::new(&cfg);
        let mut dram = 0u64;
        for (i, &r) in raw.iter().enumerate() {
            let x = r >> 8;
            let addr = match r % 6 {
                0 => x % (16 << 10),
                1 => x % (512 << 10),
                // Twelve lines 32 KiB apart share one L1 set and one L2
                // set: they thrash both and fit the L3.
                2 => (x % 12) * (32 << 10),
                3 => x % (16 << 20),
                4 => x % (1 << 40),
                _ => (1 << 41) + 64 * i as u64,
            };
            let got = hierarchy.access(addr);
            prop_assert_eq!(got, oracle.access(addr), "access {} to {:#x}", i, addr);
            dram += u64::from(matches!(got.0, MemoryOutcome::Dram { .. }));
        }
        prop_assert!(dram > 0, "the stream must reach DRAM");
    }

    /// MPKI-ladder inclusion: the ladder's caches share line size and
    /// associativity and differ only in set count, so under LRU with
    /// bit-selection indexing each larger cache's sets refine the
    /// smaller one's and its contents are a superset (Hill & Smith,
    /// IEEE TC 1989). A hit at one ladder size is therefore a hit at
    /// every larger size, access by access — which is why every MPKI
    /// curve is non-increasing.
    #[test]
    fn mpki_ladder_hits_are_inclusive(
        region_log in 14u32..34,
        pool in prop::collection::vec(any::<u64>(), 1..1200),
        picks in prop::collection::vec(any::<u16>(), 1..3000),
    ) {
        let mut ladder: Vec<Cache> = MPKI_SWEEP_SIZES
            .iter()
            .map(|&size| Cache::new(mpki_sweep_config(size)))
            .collect();
        for (i, &pick) in picks.iter().enumerate() {
            let addr = pool[pick as usize % pool.len()] % (1 << region_log);
            let hits: Vec<bool> = ladder.iter_mut().map(|c| c.access(addr)).collect();
            if let Some(first) = hits.iter().position(|&hit| hit) {
                prop_assert!(
                    hits[first..].iter().all(|&hit| hit),
                    "access {} to {:#x}: hits by size {:?}", i, addr, hits
                );
            }
        }
    }

    /// The Top-Down ratios always form a distribution, whatever event mix
    /// the profile contains.
    #[test]
    fn topdown_ratios_always_normalize(
        ops in 0u64..100_000,
        branches in 0u64..5_000,
        loads in 0u64..5_000,
        stride in 1u64..10_000,
    ) {
        let mut profiler = Profiler::new(SampleConfig::default());
        let f = profiler.register_function("kernel", 777);
        profiler.enter(f);
        profiler.retire(ops);
        for i in 0..branches {
            profiler.branch((i % 13) as u32, i % 3 == 0);
        }
        for i in 0..loads {
            profiler.load(i * stride);
        }
        profiler.exit();
        let report = TopDownModel::reference().analyze(&profiler.finish());
        let sum: f64 = report.ratios.as_array().iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-9);
        prop_assert!(report.cycles >= 0.9);
        for r in report.ratios.as_array() {
            prop_assert!((0.0..=1.0).contains(&r));
        }
    }
}
