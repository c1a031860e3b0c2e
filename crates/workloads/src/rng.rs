//! Seeded random-number helper shared by every generator.
//!
//! Implemented from scratch (xoshiro256++ seeded through SplitMix64) so
//! the workspace has no external dependencies: workload bytes must be
//! reproducible from a `u64` seed on any machine, including offline
//! build environments where crates.io is unreachable.

/// A deterministic RNG wrapper with the handful of draw shapes the
/// generators need. All Alberta generators derive their entire output from
/// one `u64` seed through this type, which is what makes workload
/// generation reproducible across machines.
#[derive(Debug, Clone)]
pub struct SeededRng {
    state: [u64; 4],
}

/// SplitMix64 step, used to expand the seed into the xoshiro state.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SeededRng {
    /// Creates an RNG from a seed.
    pub fn new(seed: u64) -> Self {
        let mut s = seed;
        SeededRng {
            state: [
                splitmix64(&mut s),
                splitmix64(&mut s),
                splitmix64(&mut s),
                splitmix64(&mut s),
            ],
        }
    }

    /// Uniform integer in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // Lemire's widening-multiply method with rejection: unbiased and
        // branch-cheap for the small bounds the generators use.
        let threshold = bound.wrapping_neg() % bound;
        loop {
            let wide = (self.next_u64() as u128) * (bound as u128);
            if (wide as u64) >= threshold {
                return (wide >> 64) as u64;
            }
        }
    }

    /// Uniform integer in `[lo, hi]` inclusive.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub(crate) fn range(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo <= hi, "empty range");
        let span = (hi as i128 - lo as i128 + 1) as u128;
        if span > u64::MAX as u128 {
            // Only reachable for the full i64 domain; a raw draw is uniform.
            return self.next_u64() as i64;
        }
        lo.wrapping_add(self.below(span as u64) as i64)
    }

    /// Uniform float in `[0, 1)`.
    pub(crate) fn unit(&mut self) -> f64 {
        // 53 high bits → the standard [0, 1) dyadic grid.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform float in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub(crate) fn float(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo < hi, "empty float range");
        lo + self.unit() * (hi - lo)
    }

    /// Bernoulli draw.
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p.clamp(0.0, 1.0)
    }

    /// Picks a uniformly random element of a non-empty slice.
    ///
    /// # Panics
    ///
    /// Panics if the slice is empty.
    pub(crate) fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "cannot pick from an empty slice");
        let i = self.below(items.len() as u64) as usize;
        &items[i]
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }

    /// Raw u64 draw (xoshiro256++ step).
    pub fn next_u64(&mut self) -> u64 {
        let [s0, s1, s2, s3] = self.state;
        let result = s0.wrapping_add(s3).rotate_left(23).wrapping_add(s0);
        let t = s1 << 17;
        let mut s = [s0, s1, s2, s3];
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        self.state = s;
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SeededRng::new(7);
        let mut b = SeededRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SeededRng::new(1);
        let mut b = SeededRng::new(2);
        let same = (0..100).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 3);
    }

    #[test]
    fn below_respects_bound() {
        let mut r = SeededRng::new(3);
        for _ in 0..1000 {
            assert!(r.below(17) < 17);
        }
    }

    #[test]
    fn unit_is_in_half_open_interval() {
        let mut r = SeededRng::new(9);
        for _ in 0..1000 {
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn range_inclusive() {
        let mut r = SeededRng::new(4);
        let mut seen_lo = false;
        let mut seen_hi = false;
        for _ in 0..2000 {
            let v = r.range(-2, 2);
            assert!((-2..=2).contains(&v));
            seen_lo |= v == -2;
            seen_hi |= v == 2;
        }
        assert!(seen_lo && seen_hi);
    }

    #[test]
    fn range_covers_extreme_domains() {
        let mut r = SeededRng::new(12);
        for _ in 0..100 {
            let _ = r.range(i64::MIN, i64::MAX);
            assert_eq!(r.range(5, 5), 5);
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = SeededRng::new(5);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<u32>>());
        assert_ne!(v, sorted, "astronomically unlikely to be identity");
    }

    #[test]
    fn pick_covers_all_elements_eventually() {
        let mut r = SeededRng::new(6);
        let items = [1, 2, 3];
        let mut seen = [false; 3];
        for _ in 0..100 {
            seen[*r.pick(&items) as usize - 1] = true;
        }
        assert_eq!(seen, [true; 3]);
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn below_zero_bound_panics() {
        SeededRng::new(0).below(0);
    }
}
