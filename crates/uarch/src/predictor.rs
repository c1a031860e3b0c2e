//! Branch predictors.
//!
//! Conditional-branch behaviour is the main driver of the *bad speculation*
//! Top-Down category. Three classic predictors are provided so the harness
//! can run the paper's characterization under different front ends (an
//! ablation the paper's "different compilers" appendix gestures at):
//!
//! * [`Bimodal`] — per-site 2-bit saturating counters;
//! * [`Gshare`] — global-history XOR indexing into 2-bit counters;
//! * [`Tournament`] — a chooser table arbitrating between the two;
//! * [`StaticTaken`] — the degenerate baseline.

/// A branch predictor that observes one resolved branch at a time.
///
/// Implementations are deterministic. The single method both predicts and
/// trains, returning whether the prediction was correct, which is all the
/// Top-Down model needs.
pub trait BranchPredictor {
    /// Predicts the branch at static `site`, trains on the actual `taken`
    /// outcome, and reports whether the prediction was correct.
    fn observe(&mut self, site: u32, taken: bool) -> bool;

    /// Observes a batch of resolved branches and returns the
    /// misprediction count. Exactly equivalent to calling
    /// [`observe`](BranchPredictor::observe) once per element in order —
    /// table predictors override this with a single tight loop over
    /// their flat counter tables so the per-branch virtual dispatch and
    /// table-pointer reloads are paid once per batch instead of once per
    /// branch.
    ///
    /// # Panics
    ///
    /// Panics if `sites` and `takens` differ in length.
    fn observe_batch(&mut self, sites: &[u32], takens: &[bool]) -> u64 {
        assert_eq!(sites.len(), takens.len(), "parallel batch arrays");
        let mut mispredicts = 0u64;
        for (&site, &taken) in sites.iter().zip(takens) {
            mispredicts += u64::from(!self.observe(site, taken));
        }
        mispredicts
    }

    /// Human-readable predictor name for reports.
    fn name(&self) -> &'static str;
}

/// Always predicts taken.
#[derive(Debug, Clone, Default)]
pub(crate) struct StaticTaken;

impl BranchPredictor for StaticTaken {
    fn observe(&mut self, _site: u32, taken: bool) -> bool {
        taken
    }

    fn observe_batch(&mut self, sites: &[u32], takens: &[bool]) -> u64 {
        assert_eq!(sites.len(), takens.len(), "parallel batch arrays");
        takens.iter().map(|&taken| u64::from(!taken)).sum()
    }

    fn name(&self) -> &'static str {
        "static-taken"
    }
}

/// Two-bit saturating counter, the building block of all table predictors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Counter2(u8);

impl Counter2 {
    const WEAK_TAKEN: Counter2 = Counter2(2);

    fn predict(self) -> bool {
        self.0 >= 2
    }

    fn train(&mut self, taken: bool) {
        if taken {
            self.0 = (self.0 + 1).min(3);
        } else {
            self.0 = self.0.saturating_sub(1);
        }
    }
}

/// Per-site 2-bit saturating-counter predictor.
#[derive(Debug, Clone)]
pub(crate) struct Bimodal {
    table: Vec<Counter2>,
    mask: u32,
}

impl Bimodal {
    /// Creates a bimodal predictor with `2^bits` counters.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0 or greater than 24.
    pub(crate) fn new(bits: u32) -> Self {
        assert!(
            PredictorKind::TABLE_BITS.contains(&bits),
            "bimodal bits must be in 1..=24"
        );
        Bimodal {
            table: vec![Counter2::WEAK_TAKEN; 1 << bits],
            mask: (1 << bits) - 1,
        }
    }
}

impl BranchPredictor for Bimodal {
    #[inline]
    fn observe(&mut self, site: u32, taken: bool) -> bool {
        let idx = (site & self.mask) as usize;
        let predicted = self.table[idx].predict();
        self.table[idx].train(taken);
        predicted == taken
    }

    fn observe_batch(&mut self, sites: &[u32], takens: &[bool]) -> u64 {
        assert_eq!(sites.len(), takens.len(), "parallel batch arrays");
        let table = self.table.as_mut_slice();
        // Deriving the mask from the slice length (a power of two) lets
        // the compiler prove the index in range and drop the bounds check.
        let mask = u32::try_from(table.len() - 1).expect("tables hold at most 2^24 counters");
        let mut mispredicts = 0u64;
        for (&site, &taken) in sites.iter().zip(takens) {
            let counter = &mut table[(site & mask) as usize];
            let predicted = counter.predict();
            counter.train(taken);
            mispredicts += u64::from(predicted != taken);
        }
        mispredicts
    }

    fn name(&self) -> &'static str {
        "bimodal"
    }
}

/// Gshare: global branch history XORed with the site selects the counter.
#[derive(Debug, Clone)]
pub(crate) struct Gshare {
    table: Vec<Counter2>,
    mask: u32,
    history: u32,
}

impl Gshare {
    /// Creates a gshare predictor with `2^bits` counters and a matching
    /// history length.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0 or greater than 24.
    pub(crate) fn new(bits: u32) -> Self {
        assert!(
            PredictorKind::TABLE_BITS.contains(&bits),
            "gshare bits must be in 1..=24"
        );
        Gshare {
            table: vec![Counter2::WEAK_TAKEN; 1 << bits],
            mask: (1 << bits) - 1,
            history: 0,
        }
    }

    fn index(&self, site: u32) -> usize {
        ((site ^ self.history) & self.mask) as usize
    }
}

impl BranchPredictor for Gshare {
    #[inline]
    fn observe(&mut self, site: u32, taken: bool) -> bool {
        let idx = self.index(site);
        let predicted = self.table[idx].predict();
        self.table[idx].train(taken);
        self.history = ((self.history << 1) | taken as u32) & self.mask;
        predicted == taken
    }

    fn observe_batch(&mut self, sites: &[u32], takens: &[bool]) -> u64 {
        assert_eq!(sites.len(), takens.len(), "parallel batch arrays");
        let table = self.table.as_mut_slice();
        // Length-derived mask proves the index in range (no bounds check);
        // identical to `self.mask` since the table is `1 << bits` long.
        let mask = u32::try_from(table.len() - 1).expect("tables hold at most 2^24 counters");
        // The history register lives in a local for the whole batch; one
        // store writes it back.
        let mut history = self.history;
        let mut mispredicts = 0u64;
        for (&site, &taken) in sites.iter().zip(takens) {
            let counter = &mut table[((site ^ history) & mask) as usize];
            let predicted = counter.predict();
            counter.train(taken);
            history = ((history << 1) | taken as u32) & mask;
            mispredicts += u64::from(predicted != taken);
        }
        self.history = history;
        mispredicts
    }

    fn name(&self) -> &'static str {
        "gshare"
    }
}

/// Tournament predictor: a per-site chooser arbitrates between a bimodal
/// and a gshare component.
#[derive(Debug, Clone)]
pub(crate) struct Tournament {
    bimodal: Bimodal,
    gshare: Gshare,
    chooser: Vec<Counter2>,
    mask: u32,
}

impl Tournament {
    /// Creates a tournament predictor whose components each use `2^bits`
    /// counters.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0 or greater than 24.
    pub(crate) fn new(bits: u32) -> Self {
        assert!(
            PredictorKind::TABLE_BITS.contains(&bits),
            "tournament bits must be in 1..=24"
        );
        Tournament {
            bimodal: Bimodal::new(bits),
            gshare: Gshare::new(bits),
            chooser: vec![Counter2::WEAK_TAKEN; 1 << bits],
            mask: (1 << bits) - 1,
        }
    }
}

impl BranchPredictor for Tournament {
    fn observe_batch(&mut self, sites: &[u32], takens: &[bool]) -> u64 {
        assert_eq!(sites.len(), takens.len(), "parallel batch arrays");
        // The component observes below are direct (non-virtual) calls and
        // inline; batching here removes only the outer dyn dispatch,
        // which is the per-branch cost that remains.
        let mut mispredicts = 0u64;
        for (&site, &taken) in sites.iter().zip(takens) {
            mispredicts += u64::from(!self.observe(site, taken));
        }
        mispredicts
    }

    #[inline]
    fn observe(&mut self, site: u32, taken: bool) -> bool {
        let idx = (site & self.mask) as usize;
        // Peek both components' predictions before training them.
        let b_idx = (site & self.bimodal.mask) as usize;
        let g_idx = self.gshare.index(site);
        let b_pred = self.bimodal.table[b_idx].predict();
        let g_pred = self.gshare.table[g_idx].predict();
        let use_gshare = self.chooser[idx].predict();
        let predicted = if use_gshare { g_pred } else { b_pred };
        // Train components (this also advances gshare history).
        self.bimodal.observe(site, taken);
        self.gshare.observe(site, taken);
        // Train the chooser toward whichever component was right.
        match (b_pred == taken, g_pred == taken) {
            (true, false) => self.chooser[idx].train(false),
            (false, true) => self.chooser[idx].train(true),
            _ => {}
        }
        predicted == taken
    }

    fn name(&self) -> &'static str {
        "tournament"
    }
}

/// Selects and sizes a branch predictor; the configuration-level handle
/// used by `TopDownModel` and the experiment harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredictorKind {
    /// Always-taken baseline.
    StaticTaken,
    /// Bimodal with `2^bits` counters.
    Bimodal {
        /// log2 of the table size.
        bits: u32,
    },
    /// Gshare with `2^bits` counters.
    Gshare {
        /// log2 of the table size.
        bits: u32,
    },
    /// Tournament with `2^bits`-entry components.
    Tournament {
        /// log2 of the table size.
        bits: u32,
    },
}

impl PredictorKind {
    /// The table sizes a predictor can be built with, as `log2` of the
    /// counter count.
    pub const TABLE_BITS: std::ops::RangeInclusive<u32> = 1..=24;

    /// Instantiates the predictor.
    pub fn build(self) -> Box<dyn BranchPredictor> {
        match self {
            PredictorKind::StaticTaken => Box::new(StaticTaken),
            PredictorKind::Bimodal { bits } => Box::new(Bimodal::new(bits)),
            PredictorKind::Gshare { bits } => Box::new(Gshare::new(bits)),
            PredictorKind::Tournament { bits } => Box::new(Tournament::new(bits)),
        }
    }

    /// The kind used throughout the paper-reproduction experiments.
    pub fn reference() -> Self {
        PredictorKind::Gshare { bits: 14 }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Runs `n` observations of a pattern function, returns mispredict count.
    fn mispredicts(
        p: &mut dyn BranchPredictor,
        n: u64,
        pattern: impl Fn(u64) -> (u32, bool),
    ) -> u64 {
        let mut wrong = 0;
        for i in 0..n {
            let (site, taken) = pattern(i);
            if !p.observe(site, taken) {
                wrong += 1;
            }
        }
        wrong
    }

    #[test]
    fn static_taken_is_right_exactly_when_taken() {
        let mut p = StaticTaken;
        assert!(p.observe(0, true));
        assert!(!p.observe(0, false));
        assert_eq!(p.name(), "static-taken");
    }

    #[test]
    fn bimodal_learns_biased_branch() {
        let mut p = Bimodal::new(10);
        let wrong = mispredicts(&mut p, 1000, |_| (42, true));
        assert!(wrong <= 1, "one cold miss at most, got {wrong}");
    }

    #[test]
    fn bimodal_struggles_with_alternating_branch() {
        let mut p = Bimodal::new(10);
        let wrong = mispredicts(&mut p, 1000, |i| (42, i % 2 == 0));
        assert!(
            wrong >= 400,
            "2-bit counters cannot track TNTN, got {wrong}"
        );
    }

    #[test]
    fn gshare_learns_alternating_branch_via_history() {
        let mut p = Gshare::new(12);
        let wrong = mispredicts(&mut p, 2000, |i| (42, i % 2 == 0));
        assert!(
            wrong < 100,
            "history should capture the TNTN pattern, got {wrong}"
        );
    }

    #[test]
    fn gshare_learns_short_periodic_pattern() {
        let mut p = Gshare::new(12);
        // Period-5 pattern: TTTNN repeated — loop-exit style.
        let wrong = mispredicts(&mut p, 5000, |i| (7, i % 5 < 3));
        assert!(wrong < 400, "got {wrong}");
    }

    #[test]
    fn tournament_tracks_best_component() {
        // Mixed workload: site A strongly biased (bimodal-friendly),
        // site B alternating (gshare-friendly).
        let mut t = Tournament::new(12);
        let wrong_t = mispredicts(&mut t, 4000, |i| {
            if i % 2 == 0 {
                (100, true)
            } else {
                (200, (i / 2) % 2 == 0)
            }
        });
        let mut b = Bimodal::new(12);
        let wrong_b = mispredicts(&mut b, 4000, |i| {
            if i % 2 == 0 {
                (100, true)
            } else {
                (200, (i / 2) % 2 == 0)
            }
        });
        assert!(
            wrong_t < wrong_b,
            "tournament {wrong_t} should beat bimodal {wrong_b}"
        );
    }

    /// Deterministic pseudo-random bit via the splitmix64 finalizer; unlike
    /// a bare multiplicative hash of sequential indices, this has no
    /// periodic structure a history predictor could learn.
    pub(crate) fn rand_bit(i: u64) -> bool {
        let mut z = i.wrapping_add(0x9E3779B97F4A7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        (z ^ (z >> 31)) & 1 == 1
    }

    #[test]
    fn random_branches_defeat_everyone() {
        let rand_bit = |i: u64| rand_bit(i);
        for kind in [
            PredictorKind::Bimodal { bits: 12 },
            PredictorKind::Gshare { bits: 12 },
            PredictorKind::Tournament { bits: 12 },
        ] {
            let mut p = kind.build();
            let wrong = mispredicts(p.as_mut(), 10_000, |i| (3, rand_bit(i)));
            let rate = wrong as f64 / 10_000.0;
            assert!(
                rate > 0.35 && rate < 0.65,
                "{}: random stream must hover near 50%, got {rate}",
                p.name()
            );
        }
    }

    #[test]
    fn aliasing_hurts_small_tables() {
        // Two sites with opposite biases that collide in a 1-bit table.
        let mut tiny = Bimodal::new(1);
        let wrong_tiny = mispredicts(&mut tiny, 2000, |i| {
            if i % 2 == 0 {
                (0, true)
            } else {
                (2, false) // 2 & 1 == 0: collides with site 0
            }
        });
        let mut big = Bimodal::new(8);
        let wrong_big = mispredicts(&mut big, 2000, |i| {
            if i % 2 == 0 {
                (0, true)
            } else {
                (2, false)
            }
        });
        assert!(wrong_tiny > wrong_big * 4, "{wrong_tiny} vs {wrong_big}");
    }

    #[test]
    #[should_panic(expected = "bits must be in 1..=24")]
    fn zero_bits_panics() {
        let _ = Bimodal::new(0);
    }

    /// The batch kernels must be *exactly* the scalar loop: same
    /// misprediction count and same post-batch state (checked by
    /// continuing scalar after a batch prefix).
    #[test]
    fn observe_batch_matches_scalar_loop() {
        let pattern =
            |i: u64| -> (u32, bool) { ((i % 37) as u32 * 3, rand_bit(i) || i.is_multiple_of(5)) };
        let n = 4096usize;
        let sites: Vec<u32> = (0..n as u64).map(|i| pattern(i).0).collect();
        let takens: Vec<bool> = (0..n as u64).map(|i| pattern(i).1).collect();
        for kind in [
            PredictorKind::StaticTaken,
            PredictorKind::Bimodal { bits: 10 },
            PredictorKind::Gshare { bits: 10 },
            PredictorKind::Tournament { bits: 10 },
        ] {
            let mut scalar = kind.build();
            let scalar_miss: u64 = (0..n)
                .map(|i| u64::from(!scalar.observe(sites[i], takens[i])))
                .sum();
            let mut batched = kind.build();
            let half = n / 2;
            let mut batch_miss = batched.observe_batch(&sites[..half], &takens[..half]);
            batch_miss += batched.observe_batch(&sites[half..], &takens[half..]);
            assert_eq!(scalar_miss, batch_miss, "{}", batched.name());
            // Post-batch state agrees: the next 100 scalar observations
            // resolve identically on both predictors.
            for i in 0..100u64 {
                let (site, taken) = pattern(i * 13 + 7);
                assert_eq!(
                    scalar.observe(site, taken),
                    batched.observe(site, taken),
                    "{} diverged after batch",
                    scalar.name()
                );
            }
        }
    }

    #[test]
    fn kind_builds_matching_names() {
        assert_eq!(PredictorKind::StaticTaken.build().name(), "static-taken");
        assert_eq!(PredictorKind::Bimodal { bits: 4 }.build().name(), "bimodal");
        assert_eq!(PredictorKind::Gshare { bits: 4 }.build().name(), "gshare");
        assert_eq!(
            PredictorKind::Tournament { bits: 4 }.build().name(),
            "tournament"
        );
    }
}
