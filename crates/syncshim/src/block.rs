//! Blocking calls, checked. A serving loop holds a [`non_blocking`] scope so
//! it never parks with work queued behind it: there a debug build panics at
//! [`sleep`], [`wait`], [`wait_timeout`] and [`assert_may_block`], unless an
//! [`exempt`] scope names the stall. Release builds compile scopes to nothing.
#![allow(clippy::disallowed_methods)] // the checked wrappers of the banned calls
use std::{sync::Condvar, sync::LockResult, sync::MutexGuard, time::Duration};

#[cfg(debug_assertions)]
thread_local!(static NON_BLOCKING: std::cell::Cell<bool> = const { std::cell::Cell::new(false) });

/// A [`non_blocking`] scope, or an [`exempt`]ion from one, until dropped.
#[must_use = "the scope ends when this guard drops"]
pub struct Scope(#[cfg(debug_assertions)] bool);

fn mark(_on: bool) -> Scope {
    Scope(
        #[cfg(debug_assertions)]
        NON_BLOCKING.with(|m| m.replace(_on)),
    )
}

/// Forbid blocking on this thread until the guard drops.
pub fn non_blocking() -> Scope {
    mark(true)
}

/// Allow blocking again, inside a non-blocking scope, until the guard drops.
pub fn exempt() -> Scope {
    mark(false)
}

impl Drop for Scope {
    fn drop(&mut self) {
        #[cfg(debug_assertions)]
        NON_BLOCKING.with(|m| m.set(self.0));
    }
}

/// Panic (debug builds only) if this thread is in a non-blocking scope.
pub fn assert_may_block(_what: &str) {
    #[cfg(debug_assertions)]
    if NON_BLOCKING.with(|m| m.get()) {
        panic!("{_what} blocks inside a non-blocking scope");
    }
}

/// `std::thread::sleep`, checked.
pub fn sleep(d: Duration) {
    assert_may_block("sleep");
    std::thread::sleep(d);
}

/// `Condvar::wait`, checked.
pub fn wait<'a, T>(cv: &Condvar, g: MutexGuard<'a, T>) -> LockResult<MutexGuard<'a, T>> {
    assert_may_block("Condvar::wait");
    cv.wait(g)
}

/// `Condvar::wait_timeout`, checked; a poisoned lock is returned as is.
pub fn wait_timeout<'a, T>(cv: &Condvar, g: MutexGuard<'a, T>, d: Duration) -> MutexGuard<'a, T> {
    assert_may_block("Condvar::wait_timeout");
    cv.wait_timeout(g, d).unwrap_or_else(|e| e.into_inner()).0
}

#[cfg(all(test, debug_assertions))]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "Condvar::wait_timeout blocks inside a non-blocking scope")]
    fn a_scope_forbids_blocking_except_under_an_exemption() {
        let m = std::sync::Mutex::new(());
        let _nb = non_blocking();
        let ex = exempt();
        sleep(Duration::ZERO);
        drop(ex);
        let g = m.lock().unwrap();
        drop(wait_timeout(&Condvar::new(), g, Duration::ZERO));
    }
}
