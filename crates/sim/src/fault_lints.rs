//! Deliberate violations of the workspace lint contracts: one per
//! configured lint, and one call per `disallowed-methods` path in
//! `clippy.toml`. Compiled only under the `fault-lints` feature, which
//! makes `cargo clippy -p gdx-sim` fail; CI asserts from clippy's JSON
//! output that every configured lint and every disallowed path fires.
//! Clippy warns about a std path it cannot resolve but silently skips a
//! workspace-crate path it cannot resolve, so without this module a
//! misspelled or unreachable entry would go unnoticed.

use gdx_obs::MonotonicClock;
use std::collections::{HashMap, HashSet};
use std::sync::{Mutex, PoisonError};
use std::thread::{Builder, JoinHandle};
use std::time::{Instant, SystemTime};

/// `HashMap::iter` (disallowed method).
pub fn hash_map_iter(m: &HashMap<u32, u32>) -> usize {
    m.iter().count()
}

/// `HashMap::keys` (disallowed method).
pub fn hash_map_keys(m: &HashMap<u32, u32>) -> usize {
    m.keys().count()
}

/// `HashMap::values` (disallowed method).
pub fn hash_map_values(m: &HashMap<u32, u32>) -> usize {
    m.values().count()
}

/// `HashMap::drain` (disallowed method).
pub fn hash_map_drain(m: &mut HashMap<u32, u32>) -> usize {
    m.drain().count()
}

/// `HashSet::iter` (disallowed method).
pub fn hash_set_iter(s: &HashSet<u32>) -> usize {
    s.iter().count()
}

/// `HashSet::drain` (disallowed method).
pub fn hash_set_drain(s: &mut HashSet<u32>) -> usize {
    s.drain().count()
}

/// A `for` loop over a hash set (`clippy::iter_over_hash_type`).
pub fn for_over_hash_set(s: &HashSet<u32>) -> u32 {
    let mut sum = 0;
    for x in s {
        sum += x;
    }
    sum
}

/// `Instant::now` (disallowed method).
pub fn instant_now() -> Instant {
    Instant::now()
}

/// `SystemTime::now` (disallowed method).
pub fn system_time_now() -> SystemTime {
    SystemTime::now()
}

/// `MonotonicClock::new` (disallowed method, a workspace-crate path).
pub fn monotonic_clock() -> MonotonicClock {
    MonotonicClock::new()
}

/// `std::thread::spawn` (disallowed method).
pub fn thread_spawn() -> JoinHandle<()> {
    std::thread::spawn(|| ())
}

/// `std::thread::scope` (disallowed method).
pub fn thread_scope() {
    std::thread::scope(|_| ());
}

/// `std::thread::Builder::spawn` (disallowed method).
pub fn thread_builder_spawn() -> std::io::Result<JoinHandle<()>> {
    Builder::new().spawn(|| ())
}

/// `.lock().unwrap()` (`clippy::unwrap_used`).
pub fn lock_unwrap(m: &Mutex<u32>) -> u32 {
    *m.lock().unwrap()
}

/// `clippy::expect_used`.
pub fn expect_some(x: Option<u32>) -> u32 {
    x.expect("fault")
}

/// `clippy::panic`.
pub fn panics() {
    panic!("fault")
}

/// `clippy::todo`.
pub fn todo_body() {
    todo!()
}

/// `clippy::unimplemented`.
pub fn unimplemented_body() {
    unimplemented!()
}

/// `clippy::dbg_macro`.
pub fn dbg_value(x: u32) -> u32 {
    dbg!(x)
}

/// A guard living through a whole `match`
/// (`clippy::significant_drop_in_scrutinee`).
pub fn guard_in_scrutinee(m: &Mutex<Vec<u32>>) -> u32 {
    match m.lock().unwrap_or_else(PoisonError::into_inner).pop() {
        Some(x) => x + m.lock().unwrap_or_else(PoisonError::into_inner).len() as u32,
        None => 0,
    }
}

/// A guard held past its last use
/// (`clippy::significant_drop_tightening`).
pub fn guard_held_too_long(m: &Mutex<u32>) -> u32 {
    let guard = m.lock().unwrap_or_else(PoisonError::into_inner);
    let v = *guard;
    std::hint::black_box(v) + 1
}

/// A reasonless `#[allow]` (`clippy::allow_attributes` and
/// `clippy::allow_attributes_without_reason`).
#[allow(clippy::needless_return)]
pub fn reasonless_allow() -> u32 {
    return 1;
}

/// An expectation no lint fulfils (`unfulfilled_lint_expectations`).
#[expect(clippy::todo, reason = "nothing here calls todo!")]
pub fn unfulfilled_expect() {}

/// An `unsafe` block without a `SAFETY:` comment (`unsafe_code` and
/// `clippy::undocumented_unsafe_blocks`).
pub fn undocumented_unsafe(x: &u32) -> u32 {
    unsafe { std::ptr::read(x) }
}
