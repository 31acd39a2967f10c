//! Offline drop-in subset of the `proptest` 1.x API.
//!
//! Implements the slice of proptest this workspace uses: the [`proptest!`]
//! macro over `arg in strategy` parameters, range strategies for integers
//! and floats, tuple strategies, [`collection::vec`], [`sample::select`],
//! [`any`], `prop_assert!`/`prop_assert_eq!`/`prop_assume!`, and
//! [`ProptestConfig::with_cases`]. Differences from upstream: cases are
//! generated from a deterministic per-test seed (derived from the test's
//! module path and name) rather than OS entropy, there is no shrinking —
//! the failing inputs are printed verbatim — and `proptest-regressions`
//! files are ignored.

use std::fmt::Debug;
use std::ops::{Range, RangeInclusive};

pub mod prelude {
    //! Glob-import surface, mirroring `proptest::prelude::*`.
    pub use crate as prop;
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest, Arbitrary,
        ProptestConfig, Strategy, TestCaseError,
    };
}

/// Runner configuration.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of accepted (non-rejected) cases to run per test.
    pub cases: u32,
    /// Upper bound on total sampling attempts, as a multiple of `cases`.
    pub max_global_rejects: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        // Upstream defaults to 256; 64 keeps the offline suite fast while
        // remaining far above the sample count any assertion here needs.
        ProptestConfig {
            cases: 64,
            max_global_rejects: 20,
        }
    }
}

impl ProptestConfig {
    /// Config running `cases` accepted cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig {
            cases,
            ..Default::default()
        }
    }
}

/// Why a single case did not pass.
#[derive(Debug, Clone)]
pub enum TestCaseError {
    /// Assertion failure — the whole test fails.
    Fail(String),
    /// `prop_assume!` rejection — the case is skipped.
    Reject(String),
}

impl TestCaseError {
    /// An assertion failure.
    pub fn fail(msg: impl Into<String>) -> Self {
        TestCaseError::Fail(msg.into())
    }

    /// A rejected (skipped) case.
    pub fn reject(msg: impl Into<String>) -> Self {
        TestCaseError::Reject(msg.into())
    }
}

/// Deterministic per-test generator (xoshiro256++ seeded from the test
/// name via FNV-1a + SplitMix64).
#[derive(Debug, Clone)]
pub struct TestRng {
    s: [u64; 4],
}

impl TestRng {
    /// Seeds from an arbitrary name; equal names give equal streams.
    pub fn deterministic(name: &str) -> Self {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        let mut s = [0u64; 4];
        for word in &mut s {
            h = h.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = h;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            *word = z ^ (z >> 31);
        }
        TestRng { s }
    }

    /// Next 64 random bits (xoshiro256++).
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform f64 in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform usize in `[0, bound)`.
    pub fn below(&mut self, bound: usize) -> usize {
        assert!(bound > 0, "empty sampling domain");
        (self.next_u64() % bound as u64) as usize
    }
}

/// A value generator (no shrinking in this stub).
pub trait Strategy {
    /// Generated value type.
    type Value: Debug;

    /// Draws one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;
}

macro_rules! int_strategy {
    ($($t:ty),+) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u128;
                let offset = (rng.next_u64() as u128) % span;
                (self.start as i128 + offset as i128) as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                let offset = (rng.next_u64() as u128) % span;
                (lo as i128 + offset as i128) as $t
            }
        }
    )+};
}

int_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! float_strategy {
    ($($t:ty),+) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let v = self.start + (self.end - self.start) * rng.unit_f64() as $t;
                if v >= self.end { self.start } else { v }
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                lo + (hi - lo) * rng.unit_f64() as $t
            }
        }
    )+};
}

float_strategy!(f32, f64);

macro_rules! tuple_strategy {
    ($($name:ident . $idx:tt),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.sample(rng),)+)
            }
        }
    };
}

tuple_strategy!(A.0);
tuple_strategy!(A.0, B.1);
tuple_strategy!(A.0, B.1, C.2);
tuple_strategy!(A.0, B.1, C.2, D.3);
tuple_strategy!(A.0, B.1, C.2, D.3, E.4);
tuple_strategy!(A.0, B.1, C.2, D.3, E.4, F.5);

/// Types with a canonical strategy, for [`any`].
pub trait Arbitrary: Sized + Debug {
    /// Draws one arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for u64 {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64()
    }
}

impl Arbitrary for u32 {
    fn arbitrary(rng: &mut TestRng) -> Self {
        (rng.next_u64() >> 32) as u32
    }
}

impl Arbitrary for usize {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64() as usize
    }
}

/// Strategy produced by [`any`].
#[derive(Debug, Clone, Copy)]
pub struct AnyStrategy<T> {
    _marker: std::marker::PhantomData<T>,
}

impl<T: Arbitrary> Strategy for AnyStrategy<T> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// The canonical strategy for `T` (mirrors `proptest::prelude::any`).
pub fn any<T: Arbitrary>() -> AnyStrategy<T> {
    AnyStrategy {
        _marker: std::marker::PhantomData,
    }
}

pub mod collection {
    //! Collection strategies (mirrors `proptest::collection`).

    use super::*;

    /// Length specification for [`vec()`].
    #[derive(Debug, Clone)]
    pub struct SizeRange {
        min: usize,
        max_exclusive: usize,
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                min: r.start,
                max_exclusive: r.end,
            }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            SizeRange {
                min: *r.start(),
                max_exclusive: r.end() + 1,
            }
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange {
                min: n,
                max_exclusive: n + 1,
            }
        }
    }

    /// Strategy for `Vec<T>` with element strategy `S`.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Self::Value {
            let span = self.size.max_exclusive - self.size.min;
            let len = self.size.min + if span > 0 { rng.below(span.max(1)) } else { 0 };
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }

    /// `Vec` strategy of `size`-many elements drawn from `element`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }
}

pub mod sample {
    //! Sampling strategies (mirrors `proptest::sample`).

    use super::*;

    /// Strategy choosing uniformly from a fixed set.
    #[derive(Debug, Clone)]
    pub struct Select<T> {
        options: Vec<T>,
    }

    impl<T: Clone + Debug> Strategy for Select<T> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            self.options[rng.below(self.options.len())].clone()
        }
    }

    /// Uniform choice among `options` (must be non-empty).
    pub fn select<T: Clone + Debug>(options: Vec<T>) -> Select<T> {
        assert!(!options.is_empty(), "select requires at least one option");
        Select { options }
    }
}

/// Asserts a condition inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

/// Asserts equality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            l == r,
            "assertion failed: `{:?}` == `{:?}` ({} == {})",
            l, r, stringify!($left), stringify!($right)
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l == r, $($fmt)+);
    }};
}

/// Asserts inequality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            l != r,
            "assertion failed: `{:?}` != `{:?}` ({} != {})",
            l,
            r,
            stringify!($left),
            stringify!($right)
        );
    }};
}

/// Skips the current case unless the precondition holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::reject(stringify!($cond)));
        }
    };
}

/// Defines property tests. Each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]`-annotated function (the `#[test]` attribute is
/// written at the call site, as with upstream proptest) running
/// `config.cases` sampled cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { @cfg ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { @cfg ($crate::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (@cfg ($cfg:expr)) => {};
    (@cfg ($cfg:expr)
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strategy:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __config: $crate::ProptestConfig = $cfg;
            let mut __rng = $crate::TestRng::deterministic(
                concat!(module_path!(), "::", stringify!($name)),
            );
            let __max_attempts =
                __config.cases.saturating_mul(__config.max_global_rejects).max(1000);
            let mut __accepted: u32 = 0;
            let mut __attempts: u32 = 0;
            while __accepted < __config.cases {
                __attempts += 1;
                if __attempts > __max_attempts {
                    panic!(
                        "proptest: too many rejected cases ({} accepted of {} wanted)",
                        __accepted, __config.cases
                    );
                }
                $(let $arg = $crate::Strategy::sample(&($strategy), &mut __rng);)+
                let __inputs = {
                    let mut __s = ::std::string::String::new();
                    $(
                        __s.push_str(concat!(stringify!($arg), " = "));
                        __s.push_str(&format!("{:?}, ", $arg));
                    )+
                    __s
                };
                let __outcome: ::std::result::Result<(), $crate::TestCaseError> =
                    (|| { $body ::std::result::Result::Ok(()) })();
                match __outcome {
                    ::std::result::Result::Ok(()) => __accepted += 1,
                    ::std::result::Result::Err($crate::TestCaseError::Reject(_)) => {}
                    ::std::result::Result::Err($crate::TestCaseError::Fail(__msg)) => {
                        panic!(
                            "proptest case failed: {}\n  inputs: {}",
                            __msg, __inputs
                        );
                    }
                }
            }
        }
        $crate::__proptest_impl! { @cfg ($cfg) $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    proptest! {
        #[test]
        fn ranges_stay_in_bounds(
            a in 3usize..10,
            b in -5i64..=5,
            f in 0.5f64..2.0,
            flag in any::<bool>(),
            xs in prop::collection::vec(0u32..100, 1..8),
            pick in prop::sample::select(vec![10usize, 20, 30]),
        ) {
            prop_assert!((3..10).contains(&a));
            prop_assert!((-5..=5).contains(&b));
            prop_assert!((0.5..2.0).contains(&f));
            let _: bool = flag;
            prop_assert!(!xs.is_empty() && xs.len() < 8);
            prop_assert!(xs.iter().all(|&x| x < 100));
            prop_assert!([10usize, 20, 30].contains(&pick));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn assume_rejects_without_failing(n in 0u64..100) {
            prop_assume!(n % 2 == 0);
            prop_assert_eq!(n % 2, 0);
        }
    }

    #[test]
    fn failing_property_panics_with_inputs() {
        let result = std::panic::catch_unwind(|| {
            proptest! {
                fn always_fails(n in 0u64..10) {
                    prop_assert!(n > 100, "n was {}", n);
                }
            }
            always_fails();
        });
        let msg = *result.unwrap_err().downcast::<String>().unwrap();
        assert!(msg.contains("inputs"), "{msg}");
    }
}
