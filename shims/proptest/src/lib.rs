//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no network access, so the workspace vendors
//! the API subset its property tests use: [`strategy::Strategy`] with
//! `prop_map` / `prop_recursive` / `boxed`, range / tuple / [`Just`] /
//! string-regex strategies, [`collection::vec`], `prop_oneof!`,
//! `proptest!`, `prop_assert!`, and `prop_assert_eq!`.
//!
//! Differences from upstream, by design:
//!
//! * **no shrinking** — a failing case panics with the generated inputs'
//!   case number; re-running is deterministic, so the case reproduces;
//! * **deterministic seeding** — every test function starts from a fixed
//!   seed (override with `PROPTEST_SEED=<u64>`), so CI runs are stable;
//! * string strategies support exactly the `[class]{m,n}` regex shape
//!   (concatenations of character classes and literals).
//!
//! [`Just`]: strategy::Just

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod rng {
    //! Deterministic SplitMix64 generator behind every strategy.

    /// Test-case RNG (SplitMix64).
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// A generator with the given seed.
        pub fn new(seed: u64) -> TestRng {
            TestRng {
                state: seed ^ 0x9E37_79B9_7F4A_7C15,
            }
        }

        /// Next raw 64-bit value.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform draw from `[0, bound)`; `bound` must be non-zero.
        pub fn below(&mut self, bound: u64) -> u64 {
            debug_assert!(bound > 0);
            self.next_u64() % bound
        }
    }
}

pub mod strategy {
    //! The strategy combinators.

    use crate::rng::TestRng;
    use std::sync::Arc;

    /// A recipe for generating values of one type.
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Draws one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Applies `f` to every generated value.
        fn prop_map<T, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> T,
        {
            Map { source: self, f }
        }

        /// Type-erases the strategy behind an `Arc`.
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            BoxedStrategy(Arc::new(self))
        }

        /// Builds a recursive strategy: `self` is the leaf case, `branch`
        /// wraps an inner strategy into the recursive cases. `depth`
        /// bounds the recursion; the size-tuning parameters of upstream
        /// proptest are accepted and ignored.
        fn prop_recursive<S, F>(
            self,
            depth: u32,
            _desired_size: u32,
            _expected_branch_size: u32,
            branch: F,
        ) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
            Self::Value: 'static,
            S: Strategy<Value = Self::Value> + 'static,
            F: Fn(BoxedStrategy<Self::Value>) -> S,
        {
            let leaf = self.boxed();
            let mut strat = leaf.clone();
            for _ in 0..depth {
                // Each level flips between bottoming out and recursing, so
                // expected sizes stay small while full depth stays reachable.
                strat = Union::new(vec![leaf.clone(), branch(strat).boxed()]).boxed();
            }
            strat
        }
    }

    /// `prop_map` adapter.
    #[derive(Debug, Clone)]
    pub struct Map<S, F> {
        source: S,
        f: F,
    }

    impl<S, T, F> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> T,
    {
        type Value = T;

        fn generate(&self, rng: &mut TestRng) -> T {
            (self.f)(self.source.generate(rng))
        }
    }

    /// Type-erased, cheaply clonable strategy.
    pub struct BoxedStrategy<T>(Arc<dyn Strategy<Value = T>>);

    impl<T> Clone for BoxedStrategy<T> {
        fn clone(&self) -> Self {
            BoxedStrategy(Arc::clone(&self.0))
        }
    }

    impl<T> Strategy for BoxedStrategy<T> {
        type Value = T;

        fn generate(&self, rng: &mut TestRng) -> T {
            self.0.generate(rng)
        }
    }

    /// Uniform choice between strategies (the engine behind `prop_oneof!`).
    pub struct Union<T> {
        options: Vec<BoxedStrategy<T>>,
    }

    impl<T> Union<T> {
        /// A union of the given alternatives (non-empty).
        pub fn new(options: Vec<BoxedStrategy<T>>) -> Union<T> {
            assert!(!options.is_empty(), "prop_oneof! needs at least one arm");
            Union { options }
        }
    }

    impl<T> Clone for Union<T> {
        fn clone(&self) -> Self {
            Union {
                options: self.options.clone(),
            }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;

        fn generate(&self, rng: &mut TestRng) -> T {
            let i = rng.below(self.options.len() as u64) as usize;
            self.options[i].generate(rng)
        }
    }

    /// Always generates a clone of the given value.
    #[derive(Debug, Clone)]
    pub struct Just<T>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;

        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    macro_rules! impl_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;

                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.end > self.start, "empty range strategy");
                    let span = (self.end as u64).wrapping_sub(self.start as u64);
                    self.start.wrapping_add(rng.below(span) as $t)
                }
            }

            impl Strategy for std::ops::RangeInclusive<$t> {
                type Value = $t;

                fn generate(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(hi >= lo, "empty range strategy");
                    let span = (hi as u64).wrapping_sub(lo as u64).wrapping_add(1);
                    if span == 0 {
                        // Full-width range: any value works.
                        return rng.next_u64() as $t;
                    }
                    lo.wrapping_add(rng.below(span) as $t)
                }
            }
        )*};
    }

    impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    macro_rules! impl_tuple_strategy {
        ($($name:ident),+) => {
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);

                #[expect(non_snake_case, reason = "the tuple components are bound to the uppercase type-parameter names")]
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    let ($($name,)+) = self;
                    ($($name.generate(rng),)+)
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

    /// String strategies from `&'static str` regex patterns: a
    /// concatenation of `[class]{m,n}` units, classes holding literal
    /// chars, `a-z` ranges, and `\n`/`\t`/`\\`/`\]`/`\-` escapes.
    impl Strategy for &'static str {
        type Value = String;

        #[expect(
            clippy::panic,
            reason = "an unsupported pattern is a bug in the calling test, reported as that test's failure"
        )]
        fn generate(&self, rng: &mut TestRng) -> String {
            let units = parse_pattern(self)
                .unwrap_or_else(|e| panic!("unsupported regex strategy {self:?}: {e}"));
            let mut out = String::new();
            for unit in &units {
                let n = unit.min + rng.below((unit.max - unit.min + 1) as u64) as usize;
                for _ in 0..n {
                    let i = rng.below(unit.chars.len() as u64) as usize;
                    out.push(unit.chars[i]);
                }
            }
            out
        }
    }

    struct PatternUnit {
        chars: Vec<char>,
        min: usize,
        max: usize,
    }

    fn parse_pattern(pattern: &str) -> Result<Vec<PatternUnit>, String> {
        let mut units = Vec::new();
        let mut it = pattern.chars().peekable();
        while let Some(c) = it.next() {
            let chars = match c {
                '[' => {
                    let mut class = Vec::new();
                    loop {
                        let c = it.next().ok_or("unterminated character class")?;
                        match c {
                            ']' => break,
                            '\\' => class.push(unescape(it.next().ok_or("dangling escape")?)?),
                            _ => {
                                if it.peek() == Some(&'-') {
                                    it.next();
                                    let hi = it.next().ok_or("unterminated char range")?;
                                    let hi = if hi == '\\' {
                                        unescape(it.next().ok_or("dangling escape")?)?
                                    } else {
                                        hi
                                    };
                                    if hi == ']' {
                                        // Trailing `-` is a literal.
                                        class.push(c);
                                        class.push('-');
                                        break;
                                    }
                                    class.extend((c..=hi).collect::<Vec<char>>());
                                } else {
                                    class.push(c);
                                }
                            }
                        }
                    }
                    if class.is_empty() {
                        return Err("empty character class".to_owned());
                    }
                    class
                }
                '\\' => vec![unescape(it.next().ok_or("dangling escape")?)?],
                '{' | '}' | '*' | '+' | '?' | '(' | ')' | '|' => {
                    return Err(format!("unsupported regex construct {c:?}"))
                }
                _ => vec![c],
            };
            let (min, max) = if it.peek() == Some(&'{') {
                it.next();
                let mut spec = String::new();
                for c in it.by_ref() {
                    if c == '}' {
                        break;
                    }
                    spec.push(c);
                }
                let parts: Vec<&str> = spec.split(',').collect();
                let parse = |s: &str| s.trim().parse::<usize>().map_err(|e| e.to_string());
                match parts.as_slice() {
                    [exact] => {
                        let n = parse(exact)?;
                        (n, n)
                    }
                    [lo, hi] => (parse(lo)?, parse(hi)?),
                    _ => return Err(format!("bad repetition spec {{{spec}}}")),
                }
            } else {
                (1, 1)
            };
            if max < min {
                return Err(format!("repetition bounds inverted: {min}..{max}"));
            }
            units.push(PatternUnit { chars, min, max });
        }
        Ok(units)
    }

    fn unescape(c: char) -> Result<char, String> {
        Ok(match c {
            'n' => '\n',
            't' => '\t',
            'r' => '\r',
            '\\' | ']' | '[' | '-' | '{' | '}' | '(' | ')' | '*' | '+' | '?' | '|' | '.' | '"' => c,
            _ => return Err(format!("unsupported escape \\{c}")),
        })
    }
}

pub mod arbitrary {
    //! `any::<T>()` support for the types the workspace draws.

    use crate::rng::TestRng;
    use crate::strategy::Strategy;

    /// Types with a canonical strategy.
    pub trait Arbitrary: Sized {
        /// The canonical strategy type.
        type Strategy: Strategy<Value = Self>;

        /// The canonical strategy.
        fn arbitrary() -> Self::Strategy;
    }

    /// The canonical strategy for `T`.
    pub fn any<A: Arbitrary>() -> A::Strategy {
        A::arbitrary()
    }

    /// Uniform `bool` strategy.
    #[derive(Debug, Clone, Copy)]
    pub struct AnyBool;

    impl Strategy for AnyBool {
        type Value = bool;

        fn generate(&self, rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 0
        }
    }

    impl Arbitrary for bool {
        type Strategy = AnyBool;

        fn arbitrary() -> AnyBool {
            AnyBool
        }
    }

    macro_rules! impl_arbitrary_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                type Strategy = std::ops::RangeInclusive<$t>;

                fn arbitrary() -> Self::Strategy {
                    <$t>::MIN..=<$t>::MAX
                }
            }
        )*};
    }

    impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);
}

pub mod collection {
    //! `Vec` strategies.

    use crate::rng::TestRng;
    use crate::strategy::Strategy;

    /// Inclusive element-count bounds for collection strategies.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        min: usize,
        max: usize,
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> SizeRange {
            assert!(r.end > r.start, "empty collection size range");
            SizeRange {
                min: r.start,
                max: r.end - 1,
            }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> SizeRange {
            SizeRange {
                min: *r.start(),
                max: *r.end(),
            }
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> SizeRange {
            SizeRange { min: n, max: n }
        }
    }

    /// Generates `Vec`s of `element` with a length drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    /// Strategy produced by [`vec()`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.max - self.size.min + 1) as u64;
            let n = self.size.min + rng.below(span) as usize;
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod test_runner {
    //! The case loop.

    use crate::rng::TestRng;
    use crate::strategy::Strategy;

    /// Runner configuration.
    #[derive(Debug, Clone)]
    pub struct Config {
        /// Number of cases per property.
        pub cases: u32,
    }

    impl Config {
        /// A config running `cases` cases.
        pub fn with_cases(cases: u32) -> Config {
            Config { cases }
        }
    }

    impl Default for Config {
        fn default() -> Config {
            Config { cases: 64 }
        }
    }

    /// A failed property case.
    #[derive(Debug)]
    pub struct TestCaseError(String);

    impl TestCaseError {
        /// Builds a failure with the given message.
        pub fn fail(msg: impl Into<String>) -> TestCaseError {
            TestCaseError(msg.into())
        }
    }

    impl std::fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str(&self.0)
        }
    }

    /// Generates and checks cases; panics on the first failure (there is
    /// no shrinking — generation is deterministic, so the case number
    /// reproduces the input).
    pub struct TestRunner {
        config: Config,
        rng: TestRng,
    }

    impl TestRunner {
        /// A runner seeded deterministically (override via
        /// `PROPTEST_SEED=<u64>`).
        pub fn new(config: Config) -> TestRunner {
            let seed = std::env::var("PROPTEST_SEED")
                .ok()
                .and_then(|s| s.parse().ok())
                .unwrap_or(0x0C0F_FEE0_0BAD_F00D);
            TestRunner {
                config,
                rng: TestRng::new(seed),
            }
        }

        /// Runs the property over `config.cases` generated values.
        #[expect(
            clippy::panic,
            reason = "a failing case fails the calling test, as upstream proptest does"
        )]
        pub fn run<S, F>(&mut self, strategy: S, mut test: F)
        where
            S: Strategy,
            F: FnMut(S::Value) -> Result<(), TestCaseError>,
        {
            for case in 0..self.config.cases {
                let value = strategy.generate(&mut self.rng);
                if let Err(e) = test(value) {
                    panic!("proptest: case {case}/{} failed: {e}", self.config.cases);
                }
            }
        }
    }
}

pub mod prelude {
    //! The glob-import surface, mirroring `proptest::prelude`.

    pub use crate::arbitrary::{any, Arbitrary};
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::{Config as ProptestConfig, TestCaseError};
    pub use crate::{prop_assert, prop_assert_eq, prop_oneof, proptest};
}

/// Declares property tests: an optional
/// `#![proptest_config(ProptestConfig::with_cases(n))]` header, then
/// `#[test] fn name(pat in strategy, ...) { body }` items.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! {
            ($crate::test_runner::Config::default()) $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (($cfg:expr) $($(#[$meta:meta])* fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::test_runner::Config = $cfg;
                let mut runner = $crate::test_runner::TestRunner::new(config);
                let strategy = ($($strat,)+);
                runner.run(strategy, |($($pat,)+)| {
                    $body
                    ::core::result::Result::Ok(())
                });
            }
        )*
    };
}

/// One-strategy choice: `prop_oneof![s1, s2, ...]` picks an arm uniformly.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($strat)),+
        ])
    };
}

/// Fails the current case unless the condition holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::core::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(format!($($fmt)*)),
            );
        }
    };
}

/// Fails the current case unless both sides are equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
            stringify!($left), stringify!($right), l, r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: {} == {} ({})\n  left: {:?}\n right: {:?}",
            stringify!($left), stringify!($right), format!($($fmt)*), l, r
        );
    }};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_and_vecs_generate_in_bounds() {
        let mut rng = crate::rng::TestRng::new(1);
        let s = crate::collection::vec((0u32..5, 0u8..2), 0..10);
        for _ in 0..200 {
            let v = s.generate(&mut rng);
            assert!(v.len() < 10);
            for (a, b) in v {
                assert!(a < 5 && b < 2);
            }
        }
    }

    #[test]
    fn string_regex_subset() {
        let mut rng = crate::rng::TestRng::new(2);
        for _ in 0..100 {
            let s = "[a-c]{1,4}".generate(&mut rng);
            assert!((1..=4).contains(&s.len()));
            assert!(s.chars().all(|c| ('a'..='c').contains(&c)));
            let t = "[ -~\n]{0,60}".generate(&mut rng);
            assert!(t.len() <= 60);
            assert!(t.chars().all(|c| c == '\n' || (' '..='~').contains(&c)));
        }
    }

    #[test]
    fn recursive_strategies_terminate() {
        #[derive(Debug, Clone, PartialEq)]
        enum Tree {
            Leaf,
            Node(Box<Tree>, Box<Tree>),
        }
        fn depth(t: &Tree) -> u32 {
            match t {
                Tree::Leaf => 0,
                Tree::Node(a, b) => 1 + depth(a).max(depth(b)),
            }
        }
        let strat = Just(Tree::Leaf).prop_recursive(3, 8, 2, |inner| {
            (inner.clone(), inner).prop_map(|(a, b)| Tree::Node(Box::new(a), Box::new(b)))
        });
        let mut rng = crate::rng::TestRng::new(3);
        for _ in 0..200 {
            assert!(depth(&strat.generate(&mut rng)) <= 3);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn the_macro_itself_works(x in 0u32..10, b in any::<bool>()) {
            prop_assert!(x < 10);
            if b {
                return Ok(());
            }
            prop_assert_eq!(x, x, "reflexivity with {}", b);
        }
    }
}
