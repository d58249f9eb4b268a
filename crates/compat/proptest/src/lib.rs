//! Offline stand-in for the `proptest` crate.
//!
//! Implements the subset of proptest this workspace's property tests
//! use: [`strategy::Strategy`] with `prop_map` / `prop_flat_map` /
//! `prop_filter`, [`arbitrary::any`], [`collection::vec`], the
//! [`proptest!`], [`prop_oneof!`], [`prop_assert!`],
//! [`prop_assert_eq!`] and [`prop_assume!`] macros, and
//! [`test_runner::Config`].
//!
//! Differences from upstream: cases are generated from a deterministic
//! per-test seed, and failing cases are **not shrunk** — the failing
//! values are printed as-is. That keeps the implementation small while
//! preserving the tests' semantics (random exploration + assertion).

#![forbid(unsafe_code)]

pub mod test_runner {
    //! Test-runner configuration.

    /// Configuration for a `proptest!` block.
    #[derive(Clone, Debug)]
    pub struct Config {
        /// Number of random cases to run per test.
        pub cases: u32,
    }

    impl Config {
        /// A config running `cases` cases.
        pub fn with_cases(cases: u32) -> Self {
            Config { cases }
        }
    }

    impl Default for Config {
        fn default() -> Self {
            Config { cases: 128 }
        }
    }
}

/// Why a single generated case did not complete normally.
#[derive(Clone, Debug)]
pub enum TestCaseError {
    /// `prop_assume!` rejected the inputs; the case is skipped.
    Reject,
    /// An assertion failed.
    Fail(String),
}

/// Result type the generated test bodies return.
pub type TestCaseResult = Result<(), TestCaseError>;

pub mod strategy {
    //! Value-generation strategies.

    use rand::rngs::StdRng;

    /// A recipe for generating random values of one type.
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Draws one value.
        fn sample(&self, rng: &mut StdRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<U, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> U,
        {
            Map { inner: self, f }
        }

        /// Builds a second-stage strategy from each generated value.
        fn prop_flat_map<S2, F>(self, f: F) -> FlatMap<Self, F>
        where
            Self: Sized,
            S2: Strategy,
            F: Fn(Self::Value) -> S2,
        {
            FlatMap { inner: self, f }
        }

        /// Rejects values failing `pred` (resamples, bounded retries).
        fn prop_filter<F>(self, reason: &'static str, pred: F) -> Filter<Self, F>
        where
            Self: Sized,
            F: Fn(&Self::Value) -> bool,
        {
            Filter { inner: self, reason, pred }
        }

        /// Type-erases the strategy (used by `prop_oneof!`).
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            BoxedStrategy(Box::new(self))
        }
    }

    /// Object-safe sampling, for boxed strategies.
    trait DynStrategy {
        type Value;
        fn sample_dyn(&self, rng: &mut StdRng) -> Self::Value;
    }

    impl<S: Strategy> DynStrategy for S {
        type Value = S::Value;
        fn sample_dyn(&self, rng: &mut StdRng) -> S::Value {
            self.sample(rng)
        }
    }

    /// A type-erased strategy.
    pub struct BoxedStrategy<V>(Box<dyn DynStrategy<Value = V>>);

    impl<V> Strategy for BoxedStrategy<V> {
        type Value = V;
        fn sample(&self, rng: &mut StdRng) -> V {
            self.0.sample_dyn(rng)
        }
    }

    /// See [`Strategy::prop_map`].
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
        type Value = U;
        fn sample(&self, rng: &mut StdRng) -> U {
            (self.f)(self.inner.sample(rng))
        }
    }

    /// See [`Strategy::prop_flat_map`].
    pub struct FlatMap<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, S2: Strategy, F: Fn(S::Value) -> S2> Strategy for FlatMap<S, F> {
        type Value = S2::Value;
        fn sample(&self, rng: &mut StdRng) -> S2::Value {
            (self.f)(self.inner.sample(rng)).sample(rng)
        }
    }

    /// See [`Strategy::prop_filter`].
    pub struct Filter<S, F> {
        inner: S,
        reason: &'static str,
        pred: F,
    }

    impl<S: Strategy, F: Fn(&S::Value) -> bool> Strategy for Filter<S, F> {
        type Value = S::Value;
        fn sample(&self, rng: &mut StdRng) -> S::Value {
            for _ in 0..1_000 {
                let v = self.inner.sample(rng);
                if (self.pred)(&v) {
                    return v;
                }
            }
            panic!("prop_filter rejected 1000 straight samples: {}", self.reason);
        }
    }

    /// A strategy that always yields a clone of one value.
    #[derive(Clone, Debug)]
    pub struct Just<V: Clone>(pub V);

    impl<V: Clone> Strategy for Just<V> {
        type Value = V;
        fn sample(&self, _rng: &mut StdRng) -> V {
            self.0.clone()
        }
    }

    /// Uniform choice among boxed strategies (built by `prop_oneof!`).
    pub struct Union<V> {
        options: Vec<BoxedStrategy<V>>,
    }

    impl<V> Union<V> {
        /// Builds a union; panics when `options` is empty.
        pub fn new(options: Vec<BoxedStrategy<V>>) -> Self {
            assert!(!options.is_empty(), "prop_oneof! needs at least one option");
            Union { options }
        }
    }

    impl<V> Strategy for Union<V> {
        type Value = V;
        fn sample(&self, rng: &mut StdRng) -> V {
            use rand::Rng;
            let i = rng.gen_range(0..self.options.len());
            self.options[i].sample(rng)
        }
    }

    // Ranges are strategies.
    macro_rules! impl_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut StdRng) -> $t {
                    use rand::Rng;
                    rng.gen_range(self.clone())
                }
            }
            impl Strategy for std::ops::RangeInclusive<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut StdRng) -> $t {
                    use rand::Rng;
                    rng.gen_range(self.clone())
                }
            }
        )*};
    }
    impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f64);

    // Tuples of strategies are strategies over tuples of values.
    macro_rules! impl_tuple_strategy {
        ($($s:ident . $idx:tt),+) => {
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn sample(&self, rng: &mut StdRng) -> Self::Value {
                    ($(self.$idx.sample(rng),)+)
                }
            }
        };
    }
    impl_tuple_strategy!(A.0);
    impl_tuple_strategy!(A.0, B.1);
    impl_tuple_strategy!(A.0, B.1, C.2);
    impl_tuple_strategy!(A.0, B.1, C.2, D.3);
    impl_tuple_strategy!(A.0, B.1, C.2, D.3, E.4);
    impl_tuple_strategy!(A.0, B.1, C.2, D.3, E.4, F.5);
}

pub mod arbitrary {
    //! `any::<T>()` support.

    use crate::strategy::Strategy;
    use rand::rngs::StdRng;
    use rand::Rng;

    /// Types with a canonical full-range strategy.
    pub trait Arbitrary: Sized {
        /// Draws one arbitrary value.
        fn arbitrary(rng: &mut StdRng) -> Self;
    }

    macro_rules! impl_arbitrary_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut StdRng) -> Self {
                    rng.gen()
                }
            }
        )*};
    }
    impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, bool);

    impl Arbitrary for f64 {
        fn arbitrary(rng: &mut StdRng) -> Self {
            // Finite floats over a wide range (upstream proptest also
            // avoids NaN/inf by default).
            let mantissa: f64 = rng.gen();
            let exp: i32 = rng.gen_range(-64..64);
            (mantissa - 0.5) * (2.0f64).powi(exp)
        }
    }

    /// The strategy returned by [`any`].
    pub struct AnyStrategy<T>(std::marker::PhantomData<T>);

    impl<T: Arbitrary> Strategy for AnyStrategy<T> {
        type Value = T;
        fn sample(&self, rng: &mut StdRng) -> T {
            T::arbitrary(rng)
        }
    }

    /// The canonical strategy for `T`.
    pub fn any<T: Arbitrary>() -> AnyStrategy<T> {
        AnyStrategy(std::marker::PhantomData)
    }
}

pub mod collection {
    //! Collection strategies.

    use crate::strategy::Strategy;
    use rand::rngs::StdRng;
    use rand::Rng;

    /// Acceptable size arguments for [`vec()`].
    #[derive(Clone, Debug)]
    pub struct SizeRange {
        lo: usize,
        hi: usize, // inclusive
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n }
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange { lo: r.start, hi: r.end - 1 }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> Self {
            SizeRange { lo: *r.start(), hi: *r.end() }
        }
    }

    /// The strategy returned by [`vec()`].
    pub struct VecStrategy<S> {
        elem: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut StdRng) -> Vec<S::Value> {
            let n = rng.gen_range(self.size.lo..=self.size.hi);
            (0..n).map(|_| self.elem.sample(rng)).collect()
        }
    }

    /// A strategy for vectors whose elements come from `elem` and whose
    /// length falls in `size`.
    pub fn vec<S: Strategy>(elem: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { elem, size: size.into() }
    }
}

pub mod prelude {
    //! One-stop imports, mirroring `proptest::prelude`.

    pub use crate::arbitrary::any;
    pub use crate::collection;
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::Config as ProptestConfig;
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };
}

#[doc(hidden)]
pub use rand as __rand;

/// FNV-1a over the test name: a stable per-test seed.
#[doc(hidden)]
pub fn seed_for(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Defines property tests. See the crate docs for supported syntax.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { cfg = $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { cfg = $crate::test_runner::Config::default(); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (cfg = $cfg:expr; $(
        $(#[$meta:meta])*
        fn $name:ident ( $( $arg:pat in $strat:expr ),+ $(,)? ) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            use $crate::strategy::Strategy as _;
            let __cfg: $crate::test_runner::Config = $cfg;
            let __strats = ( $( $strat, )+ );
            let mut __rng = <$crate::__rand::rngs::StdRng as $crate::__rand::SeedableRng>::seed_from_u64(
                $crate::seed_for(concat!(module_path!(), "::", stringify!($name))),
            );
            for __case in 0..__cfg.cases {
                let __vals = __strats.sample(&mut __rng);
                let __dbg = format!("{:?}", __vals);
                #[allow(irrefutable_let_patterns)]
                let ( $( $arg, )+ ) = __vals;
                let __run = move || -> $crate::TestCaseResult {
                    $body
                    #[allow(unreachable_code)]
                    Ok(())
                };
                match __run() {
                    Ok(()) => {}
                    Err($crate::TestCaseError::Reject) => {}
                    Err($crate::TestCaseError::Fail(__msg)) => {
                        panic!(
                            "proptest case {}/{} failed: {}\n  inputs: {}",
                            __case + 1,
                            __cfg.cases,
                            __msg,
                            __dbg
                        );
                    }
                }
            }
        }
    )*};
}

/// `assert!` that reports the generated inputs instead of panicking
/// directly.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !($cond) {
            return Err($crate::TestCaseError::Fail(format!($($fmt)*)));
        }
    };
}

/// `assert_eq!` for property tests.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(
            *a == *b,
            "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
            stringify!($a),
            stringify!($b),
            a,
            b
        );
    }};
    ($a:expr, $b:expr, $($fmt:tt)*) => {{
        let (a, b) = (&$a, &$b);
        if !(*a == *b) {
            return Err($crate::TestCaseError::Fail(format!($($fmt)*)));
        }
    }};
}

/// `assert_ne!` for property tests.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(
            *a != *b,
            "assertion failed: `{} != {}`\n  both: {:?}",
            stringify!($a),
            stringify!($b),
            a
        );
    }};
}

/// Skips the current case when the assumption does not hold.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return Err($crate::TestCaseError::Reject);
        }
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !($cond) {
            return Err($crate::TestCaseError::Reject);
        }
    };
}

/// Uniform choice among strategies yielding the same type.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($strat)),+
        ])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($strat)),+
        ])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #[test]
        fn addition_commutes(a in any::<u16>(), b in any::<u16>()) {
            prop_assert_eq!(a as u32 + b as u32, b as u32 + a as u32);
        }

        #[test]
        fn vec_lengths_in_range(v in collection::vec(any::<u8>(), 3..7)) {
            prop_assert!(v.len() >= 3 && v.len() < 7);
        }

        #[test]
        fn oneof_and_map(x in prop_oneof![
            (0u32..10).prop_map(|v| v * 2),
            (100u32..110).prop_map(|v| v),
        ]) {
            prop_assert!(x < 20 || (100..110).contains(&x));
        }

        #[test]
        fn flat_map_dependent(pair in (1usize..5).prop_flat_map(|n| {
            collection::vec(any::<u8>(), n).prop_map(move |v| (n, v))
        })) {
            prop_assert_eq!(pair.0, pair.1.len());
        }

        #[test]
        fn assume_skips(n in 0u32..10) {
            prop_assume!(n != 3);
            prop_assert_ne!(n, 3);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(7))]

        #[test]
        fn config_is_respected(_x in any::<u8>()) {
            // Just exercises the config path.
        }
    }
}
