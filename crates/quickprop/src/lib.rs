//! A minimal, deterministic property-testing harness.
//!
//! The workspace builds in fully offline environments, so it cannot pull
//! `proptest` from crates.io. This crate implements the small slice of the
//! proptest surface the repository's tests use — [`Strategy`], [`any`],
//! `prop::collection::vec`, the [`proptest!`] macro, and the
//! `prop_assert*` macros — on top of a seeded xoshiro generator. The
//! workspace renames it to `proptest` in `[workspace.dependencies]`, so
//! test files keep the upstream idiom and can migrate back to the real
//! crate without edits.
//!
//! Differences from proptest, by design:
//!
//! * **No shrinking.** A failing case reports the seed-derived case index;
//!   reruns are deterministic, so the failure reproduces as-is.
//! * **Deterministic case streams.** Each test's RNG is seeded from the
//!   test's name (plus an optional `QUICKPROP_SEED` environment override),
//!   so runs are bit-reproducible across machines.
//! * **Strategies are samplers.** A [`Strategy`] is just "draw a value
//!   from a distribution"; there is no value tree.

use std::marker::PhantomData;
use std::ops::Range;

/// Deterministic generator driving every property test (xoshiro256++
/// seeded through SplitMix64, same construction as
/// `alberta_workloads::SeededRng`, duplicated to keep this crate
/// dependency-free).
#[derive(Debug, Clone)]
pub struct TestRng {
    state: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl TestRng {
    /// Creates a generator from a raw seed.
    pub fn new(seed: u64) -> Self {
        let mut s = seed;
        TestRng {
            state: [
                splitmix64(&mut s),
                splitmix64(&mut s),
                splitmix64(&mut s),
                splitmix64(&mut s),
            ],
        }
    }

    /// Creates the generator for a named test: FNV-1a of the test name,
    /// XORed with `QUICKPROP_SEED` when that environment variable is set
    /// (letting CI sweep different case streams without code changes).
    pub fn for_test(name: &str) -> Self {
        let mut h = 0xCBF2_9CE4_8422_2325u64;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01B3);
        }
        if let Ok(v) = std::env::var("QUICKPROP_SEED") {
            if let Ok(extra) = v.parse::<u64>() {
                h ^= extra;
            }
        }
        TestRng::new(h)
    }

    /// Raw u64 draw.
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

    /// Uniform integer in `[0, bound)`; `bound` must be positive.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        let threshold = bound.wrapping_neg() % bound;
        loop {
            let wide = (self.next_u64() as u128) * (bound as u128);
            if (wide as u64) >= threshold {
                return (wide >> 64) as u64;
            }
        }
    }

    /// Uniform float in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Per-test configuration. Mirrors `proptest::test_runner::ProptestConfig`
/// in name and in the one field these tests set.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of cases each property runs.
    pub cases: u32,
}

impl ProptestConfig {
    /// Config running `cases` cases per property.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

/// A sampler of values: the unit the [`proptest!`] macro draws arguments
/// from.
pub trait Strategy {
    /// The type of the sampled value.
    type Value;

    /// Draws one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;

    fn sample(&self, rng: &mut TestRng) -> Self::Value {
        (**self).sample(rng)
    }
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u128;
                let off = if span > u64::MAX as u128 {
                    rng.next_u64() as u128
                } else {
                    rng.below(span as u64) as u128
                };
                (self.start as i128 + off as i128) as $t
            }
        }
    )*};
}

int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for Range<f64> {
    type Value = f64;

    fn sample(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty range strategy");
        self.start + rng.unit() * (self.end - self.start)
    }
}

impl Strategy for Range<f32> {
    type Value = f32;

    fn sample(&self, rng: &mut TestRng) -> f32 {
        assert!(self.start < self.end, "empty range strategy");
        self.start + rng.unit() as f32 * (self.end - self.start)
    }
}

macro_rules! tuple_strategy {
    ($(($($name:ident),+))*) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);

            #[allow(non_snake_case)]
            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.sample(rng),)+)
            }
        }
    )*};
}

tuple_strategy! {
    (A, B)
    (A, B, C)
    (A, B, C, D)
    (A, B, C, D, E)
    (A, B, C, D, E, F)
}

/// Types with a whole-domain default strategy, à la `proptest::arbitrary`.
pub trait Arbitrary: Sized {
    /// Draws a value from the type's full domain.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! int_arbitrary {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}

int_arbitrary!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut TestRng) -> f64 {
        // Finite values only: a sign-symmetric exponential spread, which is
        // what the numeric properties here actually want to sweep.
        let mag = (rng.unit() * 64.0).exp2() - 1.0;
        if rng.next_u64() & 1 == 1 {
            -mag
        } else {
            mag
        }
    }
}

impl Arbitrary for char {
    fn arbitrary(rng: &mut TestRng) -> char {
        // ASCII printable: the only char domain the tests exercise.
        (0x20 + rng.below(0x5f) as u8) as char
    }
}

/// The strategy returned by [`any`].
#[derive(Debug, Clone, Copy)]
pub struct Any<T>(PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;

    fn sample(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// Whole-domain strategy for `T`, mirroring `proptest::prelude::any`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(PhantomData)
}

/// The `prop::` namespace mirrored from proptest.
pub mod prop {
    /// Collection strategies.
    pub mod collection {
        use crate::{Strategy, TestRng};
        use std::ops::Range;

        /// Strategy producing `Vec`s with lengths drawn from a range.
        #[derive(Debug, Clone)]
        pub struct VecStrategy<S> {
            elem: S,
            size: Range<usize>,
        }

        impl<S: Strategy> Strategy for VecStrategy<S> {
            type Value = Vec<S::Value>;

            fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
                let len = Strategy::sample(&self.size, rng);
                (0..len).map(|_| self.elem.sample(rng)).collect()
            }
        }

        /// A vector of `size.start..size.end` elements drawn from `elem`.
        pub fn vec<S: Strategy>(elem: S, size: impl Into<SizeBound>) -> VecStrategy<S> {
            VecStrategy {
                elem,
                size: size.into().0,
            }
        }

        /// Length specification for [`vec()`]: a range or an exact size.
        #[derive(Debug, Clone)]
        pub struct SizeBound(pub(crate) Range<usize>);

        impl From<Range<usize>> for SizeBound {
            fn from(r: Range<usize>) -> Self {
                SizeBound(r)
            }
        }

        impl From<usize> for SizeBound {
            fn from(n: usize) -> Self {
                SizeBound(n..n + 1)
            }
        }
    }
}

/// Everything a property-test file needs, mirroring
/// `proptest::prelude::*`.
pub mod prelude {
    pub use crate::prop;
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, proptest, Arbitrary, ProptestConfig,
        Strategy, TestRng,
    };
}

/// Asserts a condition inside a property (plain `assert!` here: there is
/// no shrinking machinery to hand the failure to).
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Asserts equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Asserts inequality inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

/// Declares property tests: each `fn name(arg in strategy, …) { … }`
/// becomes a `#[test]` running the body over a deterministic case stream.
///
/// Supports the `#![proptest_config(…)]` inner attribute and per-test
/// outer attributes (`#[test]`, doc comments) exactly where proptest
/// expects them.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__quickprop_tests! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__quickprop_tests! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __quickprop_tests {
    ( ($cfg:expr)
      $(
        $(#[$meta:meta])*
        fn $name:ident ( $($arg:ident in $strat:expr),+ $(,)? ) $body:block
      )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __config: $crate::ProptestConfig = $cfg;
                let mut __rng = $crate::TestRng::for_test(stringify!($name));
                for __case in 0..__config.cases {
                    $( let $arg = $crate::Strategy::sample(&($strat), &mut __rng); )+
                    let __run = || -> () { $body };
                    if let Err(panic) = ::std::panic::catch_unwind(::std::panic::AssertUnwindSafe(__run)) {
                        eprintln!(
                            "quickprop: property {} failed at case {} of {} (deterministic; rerun reproduces it)",
                            stringify!($name), __case, __config.cases,
                        );
                        ::std::panic::resume_unwind(panic);
                    }
                }
            }
        )*
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn named_rng_is_deterministic() {
        let mut a = TestRng::for_test("alpha");
        let mut b = TestRng::for_test("alpha");
        let mut c = TestRng::for_test("beta");
        assert_eq!(a.next_u64(), b.next_u64());
        let distinct = (0..32).filter(|_| a.next_u64() != c.next_u64()).count();
        assert!(distinct > 28);
    }

    #[test]
    fn range_strategies_respect_bounds() {
        let mut rng = TestRng::new(1);
        for _ in 0..500 {
            let u = Strategy::sample(&(3u64..17), &mut rng);
            assert!((3..17).contains(&u));
            let f = Strategy::sample(&(0.5f64..2.0), &mut rng);
            assert!((0.5..2.0).contains(&f));
            let i = Strategy::sample(&(-5i32..6), &mut rng);
            assert!((-5..6).contains(&i));
        }
    }

    #[test]
    fn vec_strategy_respects_size_range() {
        let mut rng = TestRng::new(2);
        for _ in 0..200 {
            let v = Strategy::sample(&prop::collection::vec(0u8..255, 2..9), &mut rng);
            assert!((2..9).contains(&v.len()));
        }
    }

    #[test]
    fn tuple_strategy_samples_componentwise() {
        let mut rng = TestRng::new(3);
        let (a, b, c) = Strategy::sample(&(0u32..4, 10i64..20, 0.0f64..1.0), &mut rng);
        assert!(a < 4);
        assert!((10..20).contains(&b));
        assert!((0.0..1.0).contains(&c));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// The macro itself: arguments bind, bodies run, asserts fire.
        #[test]
        fn macro_binds_arguments(x in 1u64..100, ys in prop::collection::vec(0.0f64..1.0, 1..8)) {
            prop_assert!((1..100).contains(&x));
            prop_assert!(!ys.is_empty());
            prop_assert_eq!(ys.len(), ys.len());
            prop_assert_ne!(x, 0);
        }

        #[test]
        fn macro_supports_any(b in any::<bool>(), byte in any::<u8>()) {
            let _ = (b, byte);
        }
    }
}
