//! Offline stand-in for `proptest`.
//!
//! Implements the subset of proptest's API that the filterwatch test
//! suite uses: the [`Strategy`](strategy::Strategy) trait with
//! `prop_map`/`boxed`, ranges, tuples, [`Just`](strategy::Just),
//! `any::<T>()`, collection/option/char strategies, a regex-subset
//! string strategy (`"[a-z]{1,8}"` and friends), the [`proptest!`]
//! macro and the `prop_assert*` macros.
//!
//! Differences from upstream, by design:
//!
//! * **no shrinking** — a failing case panics with the assertion message
//!   directly (values are regenerated deterministically, so a failure
//!   reproduces on rerun);
//! * **deterministic seeding** — cases derive from a hash of the test's
//!   module path and name plus the case index, so runs are stable across
//!   invocations and machines;
//! * the string-strategy regex dialect covers literals, escapes, `\PC`,
//!   character classes (including `&&[^…]` intersections), groups and
//!   `{m,n}`/`*`/`+`/`?` repetition — the forms the suite actually uses.

pub mod arbitrary;
pub mod char;
pub mod collection;
pub mod option;
pub mod strategy;
pub mod string;
pub mod test_runner;

pub use arbitrary::any;

/// Everything a test module typically imports.
pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::strategy::{BoxedStrategy, Just, Strategy, Union};
    pub use crate::test_runner::Config as ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// Assert a condition inside a property; accepts `assert!`-style
/// optional format messages.
#[macro_export]
macro_rules! prop_assert {
    ($($t:tt)*) => { assert!($($t)*) };
}

/// Assert equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($t:tt)*) => { assert_eq!($($t)*) };
}

/// Assert inequality inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($t:tt)*) => { assert_ne!($($t)*) };
}

/// Choose uniformly among several strategies with the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($s:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![$($crate::strategy::Strategy::boxed($s)),+])
    };
}

/// Define property tests: each `fn name(arg in strategy, ..) { body }`
/// item becomes a `#[test]` running `config.cases` generated cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!{ ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!{ ($crate::test_runner::Config::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (($cfg:expr)) => {};
    (($cfg:expr)
     $(#[$meta:meta])*
     fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
     $($rest:tt)*) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::test_runner::Config = $cfg;
            for case in 0..config.cases {
                let mut __rng = $crate::test_runner::TestRng::for_case(
                    concat!(module_path!(), "::", stringify!($name)),
                    case,
                );
                $(let $arg = $crate::strategy::Strategy::generate(&($strat), &mut __rng);)+
                let __run = move || $body;
                __run();
            }
        }
        $crate::__proptest_impl!{ ($cfg) $($rest)* }
    };
}
