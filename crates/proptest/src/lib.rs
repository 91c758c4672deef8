//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no access to crates.io, so this workspace ships
//! a small, dependency-free implementation of the subset of the proptest API
//! its test suites use: composable random-value [`Strategy`]s (`prop_map`,
//! `prop_recursive`, `prop_oneof!`, tuples, ranges, `collection::vec`), the
//! [`proptest!`] test macro with `#![proptest_config(...)]`, and the
//! `prop_assert*` macros. Test cases are generated from a deterministic
//! per-test seed, so failures are reproducible; there is **no shrinking** —
//! a failing case is reported with its case number as-is.

#![forbid(unsafe_code)]

use std::fmt;
use std::ops::Range;
use std::rc::Rc;

/// Deterministic split-mix-64 random number generator used for test-case
/// generation.
#[derive(Debug, Clone)]
pub struct TestRng(u64);

impl TestRng {
    /// RNG seeded for case `case` of the test named `name` (deterministic
    /// across runs and platforms).
    pub fn for_case(name: &str, case: u32) -> TestRng {
        let mut seed = 0xcbf29ce484222325u64; // FNV offset basis
        for b in name.bytes() {
            seed ^= b as u64;
            seed = seed.wrapping_mul(0x100000001b3);
        }
        // The case number is XORed in on its own: OR-ed into the constant
        // it would vanish wherever the constant has a bit set, and most
        // cases would share a seed.
        TestRng(seed ^ ((case as u64) << 32) ^ 0x9e3779b97f4a7c15)
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)`; `bound` must be non-zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }

    /// Uniform `f64` in `[0, 1)`.
    fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Error carried by a failing property (`prop_assert!` and friends).
#[derive(Debug, Clone)]
pub struct TestCaseError(String);

impl TestCaseError {
    /// Construct a failure with the given message.
    pub fn fail(message: impl Into<String>) -> TestCaseError {
        TestCaseError(message.into())
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// Per-test configuration, settable with `#![proptest_config(...)]`.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases to run per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// Configuration running `cases` random cases.
    pub fn with_cases(cases: u32) -> ProptestConfig {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

/// A generator of random values of type `Self::Value`.
pub trait Strategy {
    /// The type of value this strategy produces.
    type Value;

    /// Generate one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Transform generated values with `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }

    /// Build a recursive strategy: `recurse` wraps the strategy for depth
    /// `d` into the strategy for depth `d + 1`; generation picks a random
    /// depth up to `depth`. (`desired_size` and `expected_branch_size` are
    /// accepted for API compatibility and ignored.)
    fn prop_recursive<S, F>(
        self,
        depth: u32,
        _desired_size: u32,
        _expected_branch_size: u32,
        recurse: F,
    ) -> Recursive<Self::Value>
    where
        Self: Sized + 'static,
        S: Strategy<Value = Self::Value> + 'static,
        F: Fn(BoxedStrategy<Self::Value>) -> S + 'static,
    {
        Recursive {
            base: self.boxed(),
            depth,
            recurse: Rc::new(move |inner| recurse(inner).boxed()),
        }
    }

    /// Type-erase the strategy.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(Rc::new(self))
    }
}

/// A type-erased, cheaply clonable strategy.
pub struct BoxedStrategy<T>(Rc<dyn Strategy<Value = T>>);

impl<T> Clone for BoxedStrategy<T> {
    fn clone(&self) -> Self {
        BoxedStrategy(Rc::clone(&self.0))
    }
}

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        self.0.generate(rng)
    }
}

/// Strategy produced by [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, F, O> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> O,
{
    type Value = O;
    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// Strategy produced by [`Strategy::prop_recursive`].
pub struct Recursive<T> {
    base: BoxedStrategy<T>,
    depth: u32,
    // The nested boxed-closure type is inherent to a self-applying
    // strategy transformer; an alias would only move the nesting.
    #[allow(clippy::type_complexity)]
    recurse: Rc<dyn Fn(BoxedStrategy<T>) -> BoxedStrategy<T>>,
}

impl<T: 'static> Strategy for Recursive<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        let levels = rng.below(self.depth as u64 + 1) as u32;
        let mut strategy = self.base.clone();
        for _ in 0..levels {
            strategy = (self.recurse)(strategy);
        }
        strategy.generate(rng)
    }
}

/// Uniform choice between same-valued strategies (the `prop_oneof!` macro).
pub struct Union<T> {
    arms: Vec<BoxedStrategy<T>>,
}

impl<T> Union<T> {
    /// A union over the given arms; panics if `arms` is empty.
    pub fn new(arms: Vec<BoxedStrategy<T>>) -> Union<T> {
        assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
        Union { arms }
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        let arm = rng.below(self.arms.len() as u64) as usize;
        self.arms[arm].generate(rng)
    }
}

/// Types with a canonical "any value" strategy (`any::<T>()`).
pub trait Arbitrary: Sized {
    /// Generate an arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

macro_rules! arbitrary_ints {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}
arbitrary_ints!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Strategy returned by [`any`].
pub struct AnyStrategy<T>(std::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for AnyStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// The canonical strategy for `T`.
pub fn any<T: Arbitrary>() -> AnyStrategy<T> {
    AnyStrategy(std::marker::PhantomData)
}

macro_rules! range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + rng.below(span) as i128) as $t
            }
        }
    )*};
}
range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        self.start + rng.unit_f64() * (self.end - self.start)
    }
}

macro_rules! tuple_strategy {
    ($(($($name:ident),+);)*) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                // The macro reuses its type parameters (`A`, `B`, ...) as
                // binding names, which is the standard tuple-impl idiom.
                #[allow(non_snake_case)]
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    )*};
}
tuple_strategy! {
    (A, B);
    (A, B, C);
    (A, B, C, D);
    (A, B, C, D, E);
    (A, B, C, D, E, F);
}

/// Collection strategies (`proptest::collection`).
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// Strategy for vectors with random length in `len` and elements drawn
    /// from `element`.
    pub struct VecStrategy<S> {
        element: S,
        len: Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = Strategy::generate(&self.len, rng);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// A vector strategy: length uniform in `len`, elements from `element`.
    pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, len }
    }
}

/// The proptest prelude: everything the test files need.
pub mod prelude {
    pub use crate::collection;
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_oneof, proptest, BoxedStrategy, ProptestConfig,
        Strategy, TestCaseError, TestRng,
    };
}

/// Choose uniformly between several strategies producing the same type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::Union::new(vec![$($crate::Strategy::boxed($arm)),+])
    };
}

/// Assert a condition inside a property, failing the case (not panicking
/// directly) when false.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return Err($crate::TestCaseError::fail(format!(
                "assertion failed: {}",
                stringify!($cond)
            )));
        }
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return Err($crate::TestCaseError::fail(format!($($fmt)*)));
        }
    };
}

/// Assert equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let left = $left;
        let right = $right;
        if left != right {
            return Err($crate::TestCaseError::fail(format!(
                "assertion failed: `{:?}` != `{:?}`",
                left, right
            )));
        }
    }};
}

/// Define property tests: each `#[test] fn name(binding in strategy, ...)`
/// runs the body for a number of deterministically generated inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { $config; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { $crate::ProptestConfig::default(); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ($config:expr; $( $(#[$meta:meta])* fn $name:ident ( $($arg:ident in $strategy:expr),+ $(,)? ) $body:block )*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $config;
                for case in 0..config.cases {
                    let mut rng = $crate::TestRng::for_case(stringify!($name), case);
                    $(let $arg = $crate::Strategy::generate(&($strategy), &mut rng);)+
                    let outcome: ::std::result::Result<(), $crate::TestCaseError> =
                        (|| -> ::std::result::Result<(), $crate::TestCaseError> {
                            $body
                            Ok(())
                        })();
                    if let Err(error) = outcome {
                        panic!(
                            "property `{}` failed on case {}/{}: {}",
                            stringify!($name),
                            case,
                            config.cases,
                            error
                        );
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
    fn rng_is_deterministic_per_name_and_case() {
        let a: Vec<u64> = {
            let mut rng = TestRng::for_case("t", 1);
            (0..4).map(|_| rng.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut rng = TestRng::for_case("t", 1);
            (0..4).map(|_| rng.next_u64()).collect()
        };
        assert_eq!(a, b);
        let mut rng = TestRng::for_case("t", 2);
        assert_ne!(a[0], rng.next_u64());
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = TestRng::for_case("ranges", 0);
        for _ in 0..1000 {
            let v = Strategy::generate(&(-3i64..7), &mut rng);
            assert!((-3..7).contains(&v));
            let u = Strategy::generate(&(2usize..5), &mut rng);
            assert!((2..5).contains(&u));
        }
    }

    #[test]
    fn maps_unions_and_vecs_compose() {
        let strategy = prop_oneof![
            (0i64..10).prop_map(|v| v * 2),
            (0i64..10).prop_map(|v| v * 2 + 1),
        ];
        let mut rng = TestRng::for_case("compose", 0);
        let values = collection::vec(strategy, 5..6).generate(&mut rng);
        assert_eq!(values.len(), 5);
        for v in values {
            assert!((0..20).contains(&v));
        }
    }

    #[test]
    fn recursion_terminates() {
        #[derive(Debug)]
        enum Tree {
            Leaf(i64),
            Node(Vec<Tree>),
        }
        fn count(t: &Tree) -> usize {
            match t {
                Tree::Leaf(v) => usize::from(*v >= 0),
                Tree::Node(children) => 1 + children.iter().map(count).sum::<usize>(),
            }
        }
        let strategy = (0i64..5)
            .prop_map(Tree::Leaf)
            .prop_recursive(4, 16, 2, |inner| {
                collection::vec(inner, 0..3).prop_map(Tree::Node)
            });
        let mut rng = TestRng::for_case("recursion", 0);
        for _ in 0..100 {
            assert!(count(&strategy.generate(&mut rng)) < 10_000);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn proptest_macro_runs_cases(v in 0i64..100) {
            prop_assert!(v >= 0);
            prop_assert!((0..100).contains(&v), "out of range: {v}");
            prop_assert_eq!(v, v);
        }
    }

    #[test]
    #[should_panic(expected = "property `always_fails` failed")]
    fn failing_property_panics_with_case_info() {
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(1))]
            fn always_fails(v in 0i64..10) {
                prop_assert!(v > 100);
            }
        }
        always_fails();
    }
}
