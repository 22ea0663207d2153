//! Offline stand-in for `proptest`.
//!
//! Implements the subset of proptest this workspace uses: the `proptest!`
//! macro, `prop_assert!`/`prop_assert_eq!`, `Strategy` with `prop_map`,
//! integer/float range strategies, `any::<T>()`, `Just`, `prop_oneof!`,
//! tuple strategies, and `prop::collection::vec`.
//!
//! Differences from real proptest, by design:
//! - **No shrinking.** A failing case reports its case index and message.
//! - **Deterministic seeding.** The RNG is seeded from the test's module
//!   path and name, so every run explores the same inputs — failures are
//!   always reproducible, which suits a determinism-sensitive simulator.

pub mod test_runner {
    /// Mirrors `proptest::test_runner::Config` (exposed in the prelude as
    /// `ProptestConfig`). Only `cases` is honoured.
    #[derive(Clone, Debug)]
    pub struct Config {
        pub cases: u32,
    }

    impl Config {
        pub fn with_cases(cases: u32) -> Self {
            Self { cases }
        }
    }

    impl Default for Config {
        fn default() -> Self {
            Self { cases: 32 }
        }
    }

    /// Deterministic xoshiro256** generator seeded from a test name.
    #[derive(Clone, Debug)]
    pub struct TestRng {
        s: [u64; 4],
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    impl TestRng {
        /// Seed from a stable FNV-1a hash of the test name (std's default
        /// hasher is randomized per-process and must not be used here).
        pub fn from_name(name: &str) -> Self {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in name.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x100_0000_01b3);
            }
            let mut sm = h;
            Self {
                s: [
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                ],
            }
        }

        pub fn next_u64(&mut self) -> u64 {
            let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }

        /// Uniform in `[0, n)`.
        pub fn below(&mut self, n: u64) -> u64 {
            assert!(n > 0);
            self.next_u64() % n
        }

        /// Uniform in `[0, 1)`.
        pub fn unit_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }
    }
}

pub mod strategy {
    use crate::test_runner::TestRng;
    use std::ops::{Range, RangeInclusive};

    /// Reduced `Strategy`: produce one value per case. Object-safe so
    /// `prop_oneof!` can erase alternative types behind `Box<dyn Strategy>`.
    pub trait Strategy {
        type Value;

        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { source: self, f }
        }
    }

    pub struct Map<S, F> {
        source: S,
        f: F,
    }

    impl<S, O, F> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> O,
    {
        type Value = O;
        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.source.generate(rng))
        }
    }

    /// Always yields a clone of the wrapped value.
    #[derive(Clone, Debug)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// Uniform choice between boxed alternatives; built by `prop_oneof!`.
    pub struct Union<T> {
        options: Vec<Box<dyn Strategy<Value = T>>>,
    }

    impl<T> Union<T> {
        #[allow(clippy::new_without_default)]
        pub fn new() -> Self {
            Self {
                options: Vec::new(),
            }
        }

        pub fn or<S>(mut self, s: S) -> Self
        where
            S: Strategy<Value = T> + 'static,
        {
            self.options.push(Box::new(s));
            self
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            assert!(
                !self.options.is_empty(),
                "prop_oneof! needs at least one option"
            );
            let idx = rng.below(self.options.len() as u64) as usize;
            self.options[idx].generate(rng)
        }
    }

    macro_rules! impl_int_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as i128 - self.start as i128) as u128;
                    let v = ((rng.next_u64() as u128) % span) as i128 + self.start as i128;
                    v as $t
                }
            }
            impl Strategy for RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty range strategy");
                    let span = (hi as i128 - lo as i128) as u128 + 1;
                    let v = ((rng.next_u64() as u128) % span) as i128 + lo as i128;
                    v as $t
                }
            }
        )*};
    }

    impl_int_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Strategy for Range<f64> {
        type Value = f64;
        fn generate(&self, rng: &mut TestRng) -> f64 {
            assert!(self.start < self.end, "empty range strategy");
            self.start + rng.unit_f64() * (self.end - self.start)
        }
    }

    macro_rules! impl_tuple_strategy {
        ($($name:ident : $idx:tt),+) => {
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.generate(rng),)+)
                }
            }
        };
    }
    impl_tuple_strategy!(A: 0);
    impl_tuple_strategy!(A: 0, B: 1);
    impl_tuple_strategy!(A: 0, B: 1, C: 2);
    impl_tuple_strategy!(A: 0, B: 1, C: 2, D: 3);
    impl_tuple_strategy!(A: 0, B: 1, C: 2, D: 3, E: 4);
    impl_tuple_strategy!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5);
}

pub mod arbitrary {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::marker::PhantomData;

    pub trait Arbitrary: Sized {
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    pub struct Any<T>(PhantomData<T>);

    /// `any::<T>()` — uniform over the whole domain of `T`.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    macro_rules! impl_arb_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }
    impl_arb_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }
}

pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::ops::{Range, RangeInclusive};

    /// Length bounds for [`vec()`], inclusive on both ends.
    pub trait IntoSizeRange {
        fn bounds(self) -> (usize, usize);
    }

    impl IntoSizeRange for usize {
        fn bounds(self) -> (usize, usize) {
            (self, self)
        }
    }
    impl IntoSizeRange for Range<usize> {
        fn bounds(self) -> (usize, usize) {
            assert!(self.start < self.end, "empty vec size range");
            (self.start, self.end - 1)
        }
    }
    impl IntoSizeRange for RangeInclusive<usize> {
        fn bounds(self) -> (usize, usize) {
            (*self.start(), *self.end())
        }
    }

    pub struct VecStrategy<S> {
        elem: S,
        min: usize,
        max: usize,
    }

    pub fn vec<S: Strategy>(elem: S, size: impl IntoSizeRange) -> VecStrategy<S> {
        let (min, max) = size.bounds();
        VecStrategy { elem, min, max }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = self.min + rng.below((self.max - self.min + 1) as u64) as usize;
            (0..len).map(|_| self.elem.generate(rng)).collect()
        }
    }
}

pub mod prelude {
    pub use crate as prop;
    pub use crate::arbitrary::any;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::Config as ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !($cond) {
            return ::std::result::Result::Err(::std::format!(
                "assertion failed: {}", ::std::stringify!($cond)
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err(::std::format!($($fmt)+));
        }
    };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (__l, __r) = (&$left, &$right);
        if !(*__l == *__r) {
            return ::std::result::Result::Err(::std::format!(
                "assertion failed: `{:?} == {:?}`", __l, __r
            ));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (__l, __r) = (&$left, &$right);
        if !(*__l == *__r) {
            return ::std::result::Result::Err(::std::format!(
                "assertion failed: `{:?} == {:?}`: {}", __l, __r, ::std::format!($($fmt)+)
            ));
        }
    }};
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (__l, __r) = (&$left, &$right);
        if *__l == *__r {
            return ::std::result::Result::Err(::std::format!(
                "assertion failed: `{:?} != {:?}`",
                __l,
                __r
            ));
        }
    }};
}

#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {
        $crate::strategy::Union::new()$(.or($strategy))+
    };
}

#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!(@cfg ($cfg) $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!(@cfg ($crate::test_runner::Config::default()) $($rest)*);
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (@cfg ($cfg:expr)) => {};
    (@cfg ($cfg:expr)
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strategy:expr),* $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __cfg: $crate::test_runner::Config = $cfg;
            let mut __rng = $crate::test_runner::TestRng::from_name(
                ::std::concat!(::std::module_path!(), "::", ::std::stringify!($name)),
            );
            for __case in 0..__cfg.cases {
                $(let $arg = $crate::strategy::Strategy::generate(&($strategy), &mut __rng);)*
                let __outcome: ::std::result::Result<(), ::std::string::String> = (|| {
                    $body
                    ::std::result::Result::Ok(())
                })();
                if let ::std::result::Result::Err(__msg) = __outcome {
                    ::std::panic!(
                        "proptest '{}' case {}/{} failed: {}",
                        ::std::stringify!($name), __case + 1, __cfg.cases, __msg
                    );
                }
            }
        }
        $crate::__proptest_impl!(@cfg ($cfg) $($rest)*);
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_stay_in_bounds(x in 10u32..20, y in -5i64..=5, f in -0.5f64..0.5) {
            prop_assert!((10..20).contains(&x));
            prop_assert!((-5..=5).contains(&y));
            prop_assert!((-0.5..0.5).contains(&f));
        }

        #[test]
        fn vec_and_map_compose(v in prop::collection::vec((0u8..4, any::<bool>()), 1..10)) {
            prop_assert!(!v.is_empty() && v.len() < 10);
            prop_assert!(v.iter().all(|&(k, _)| k < 4));
        }

        #[test]
        fn oneof_picks_only_listed(v in prop_oneof![Just(1u8), Just(3u8), Just(5u8)]) {
            prop_assert!(v == 1 || v == 3 || v == 5);
        }
    }

    #[test]
    fn deterministic_across_runs() {
        use crate::strategy::Strategy;
        let gen_once = || {
            let mut rng = crate::test_runner::TestRng::from_name("seed-test");
            (0u64..1_000_000).generate(&mut rng)
        };
        assert_eq!(gen_once(), gen_once());
    }
}
