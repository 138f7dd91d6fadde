//! Offline subset of `proptest`.
//!
//! Provides the combinators and macros this workspace's property tests use
//! — `proptest!`, `prop_assert!`/`prop_assert_eq!`, `prop_assume!`,
//! `Strategy` with `prop_map`/`prop_flat_map`, range and tuple strategies,
//! and `Just` — implemented as plain random sampling.
//!
//! Differences from the real crate, accepted for an offline build:
//!
//! * **No shrinking.** A failing case panics through the standard
//!   assertion machinery and is not minimized; re-run under a debugger or
//!   add context to the assertion message to inspect inputs.
//! * **Deterministic seeding.** Each test derives its RNG seed from the
//!   test's name, so failures reproduce exactly across runs; there is no
//!   failure-persistence file.

use rand::rngs::StdRng;
use rand::SeedableRng;

/// Strategy trait and combinators.
pub mod strategy {
    use super::test_runner::TestRng;

    /// A source of random values of one type.
    ///
    /// The shim's strategies are direct samplers: `sample` draws one value.
    pub trait Strategy {
        /// The type of value this strategy produces.
        type Value;

        /// Draws one value.
        fn sample(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps sampled values through `f`.
        fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { inner: self, f }
        }

        /// Builds a dependent strategy from each sampled value.
        fn prop_flat_map<S: Strategy, F: Fn(Self::Value) -> S>(self, f: F) -> FlatMap<Self, F>
        where
            Self: Sized,
        {
            FlatMap { inner: self, f }
        }
    }

    /// Strategy that always yields a clone of one value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn sample(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// See [`Strategy::prop_map`].
    #[derive(Debug, Clone)]
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;
        fn sample(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.sample(rng))
        }
    }

    /// See [`Strategy::prop_flat_map`].
    #[derive(Debug, Clone)]
    pub struct FlatMap<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, S2: Strategy, F: Fn(S::Value) -> S2> Strategy for FlatMap<S, F> {
        type Value = S2::Value;
        fn sample(&self, rng: &mut TestRng) -> S2::Value {
            (self.f)(self.inner.sample(rng)).sample(rng)
        }
    }

    macro_rules! impl_range_strategy {
        ($($t:ty),+ $(,)?) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    use rand::Rng;
                    rng.gen_range(self.clone())
                }
            }
            impl Strategy for std::ops::RangeInclusive<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    use rand::Rng;
                    rng.gen_range(self.clone())
                }
            }
        )+};
    }

    impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

    macro_rules! impl_tuple_strategy {
        ($($name:ident),+) => {
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                #[allow(non_snake_case)]
                fn sample(&self, rng: &mut TestRng) -> Self::Value {
                    let ($($name,)+) = self;
                    ($($name.sample(rng),)+)
                }
            }
        };
    }

    impl_tuple_strategy!(A);
    impl_tuple_strategy!(A, B);
    impl_tuple_strategy!(A, B, C);
    impl_tuple_strategy!(A, B, C, D);
    impl_tuple_strategy!(A, B, C, D, E);
    impl_tuple_strategy!(A, B, C, D, E, F);

    /// Strategy for a `Vec` with length drawn from `len` and elements from
    /// `element` (mirrors `prop::collection::vec`).
    pub fn vec<S: Strategy>(element: S, len: std::ops::Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, len }
    }

    /// See [`vec()`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        len: std::ops::Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.len.clone().sample(rng);
            (0..n).map(|_| self.element.sample(rng)).collect()
        }
    }
}

/// Configuration and RNG plumbing.
pub mod test_runner {
    /// The RNG handed to strategies.
    pub type TestRng = rand::rngs::StdRng;

    /// Subset of proptest's run configuration.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of random cases to run per test.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// A configuration running `cases` cases.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            // Real proptest defaults to 256; the shim keeps that.
            ProptestConfig { cases: 256 }
        }
    }
}

/// Derives a deterministic per-test RNG from the test's name.
pub fn new_test_rng(test_name: &str) -> StdRng {
    // FNV-1a over the name: stable across runs and platforms.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in test_name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    StdRng::seed_from_u64(h)
}

/// `prop::` namespace mirroring the real crate's layout.
pub mod prop {
    /// Collection strategies.
    pub mod collection {
        pub use crate::strategy::vec;
    }
}

/// Everything a property-test file needs.
pub mod prelude {
    pub use crate::prop;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest};
}

/// Defines property tests. See the crate docs for shim semantics
/// (sampling without shrinking).
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_tests!{ @cfg ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_tests!{
            @cfg ($crate::test_runner::ProptestConfig::default()) $($rest)*
        }
    };
}

/// Implementation detail of [`proptest!`].
#[macro_export]
macro_rules! __proptest_tests {
    (@cfg ($cfg:expr)) => {};
    (@cfg ($cfg:expr)
     $(#[$meta:meta])*
     fn $name:ident( $($pat:pat in $strat:expr),+ $(,)? ) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __cfg = $cfg;
            let mut __rng = $crate::new_test_rng(concat!(module_path!(), "::", stringify!($name)));
            for __case in 0..__cfg.cases {
                $(let $pat = $crate::strategy::Strategy::sample(&($strat), &mut __rng);)+
                // The closure makes `return` (from prop_assume!) skip just
                // this case.
                let mut __body = || $body;
                __body();
            }
        }
        $crate::__proptest_tests!{ @cfg ($cfg) $($rest)* }
    };
}

/// Asserts a condition inside a property test.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        assert!($cond)
    };
    ($cond:expr, $($fmt:tt)+) => {
        assert!($cond, $($fmt)+)
    };
}

/// Asserts equality inside a property test.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {
        assert_eq!($a, $b)
    };
    ($a:expr, $b:expr, $($fmt:tt)+) => {
        assert_eq!($a, $b, $($fmt)+)
    };
}

/// Asserts inequality inside a property test.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => {
        assert_ne!($a, $b)
    };
    ($a:expr, $b:expr, $($fmt:tt)+) => {
        assert_ne!($a, $b, $($fmt)+)
    };
}

/// Skips the current case when its sampled inputs are uninteresting.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return;
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    fn pair() -> impl Strategy<Value = (u64, u64)> {
        (1u64..100).prop_flat_map(|hi| (Just(hi), 0..hi))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Range strategies respect their bounds.
        #[test]
        fn ranges_in_bounds(x in 3u32..17, y in 0usize..=4) {
            prop_assert!((3..17).contains(&x));
            prop_assert!(y <= 4);
        }

        /// flat_map-dependent sampling sees the outer value.
        #[test]
        fn flat_map_dependency((hi, lo) in pair()) {
            prop_assert!(lo < hi);
        }

        /// prop_assume skips cases without failing.
        #[test]
        fn assume_skips(x in 0u32..10) {
            prop_assume!(x % 2 == 0);
            prop_assert_eq!(x % 2, 0);
            prop_assert_ne!(x % 2, 1);
        }

        /// Vec strategies produce lengths in range.
        #[test]
        fn vec_lengths(v in prop::collection::vec(0u8..255, 2..6)) {
            prop_assert!((2..6).contains(&v.len()));
        }
    }
}
