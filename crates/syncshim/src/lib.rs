//! The workspace's **shared** synchronization facade.
//!
//! Several crates (`dcs-llama`, `dcs-lsm`, `dcs-server`, `dcs-flashsim`)
//! route their interleaving-sensitive primitives through a `sync` module so
//! the deterministic checker (`dcs-check`) can replace them under a `check`
//! feature. Those facades used to be copy-pasted per crate, which let
//! instrumentation drift: a primitive added to one shim but not another
//! silently escaped the scheduler. This crate is the single source of truth
//! for those four crates: their `sync.rs` modules are thin re-exports of it.
//! The lock-free crates (`dcs-bwtree`, `dcs-ebr`, `dcs-masstree`) do not use
//! it; their `sync.rs` modules pick between `std` and `dcs_check::sync`
//! directly.
//!
//! Two lock dialects are exported because the workspace uses both:
//!
//! * [`pl`] — `parking_lot`-shaped (`lock()` returns the guard directly,
//!   never poisons). Used by the storage layers.
//! * [`stdlike`] — `std::sync`-shaped (`lock() -> LockResult<..>`). Used by
//!   the serving layer's mailbox.
//!
//! Atomics come from [`atomic`]; deliberately *monotonic-counter* atomics
//! (stats) should stay on plain `std::sync::atomic` in the owning crate —
//! instrumenting them only inflates the schedule space.
//!
//! Blocking differs across builds: the check build must never park the only
//! runnable OS thread, so wait loops spin cooperatively through
//! [`yield_thread`], each iteration a schedule point.
//!
//! [`block`] holds the workspace's only `sleep` and condvar waits, checked
//! against the thread's non-blocking scope in debug builds.

pub mod block;

/// `parking_lot`-shaped locks: `lock()`/`read()`/`write()` return guards
/// directly and never poison.
pub mod pl {
    #[cfg(feature = "check")]
    pub use dcs_check::sync::pl::{Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

    #[cfg(not(feature = "check"))]
    pub use parking_lot::{Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};
}

/// `std::sync`-shaped mutex: `lock() -> LockResult<..>`. The check flavour
/// never actually poisons, so `.unwrap()` call sites behave identically.
pub mod stdlike {
    #[cfg(feature = "check")]
    pub use dcs_check::sync::{Mutex, MutexGuard};

    #[cfg(not(feature = "check"))]
    pub use std::sync::{Mutex, MutexGuard};
}

/// Atomics with the `std::sync::atomic` API (`Ordering` is always the real
/// `std` enum; the check build upgrades every access to `SeqCst` and
/// inserts a schedule point).
pub mod atomic {
    #[cfg(feature = "check")]
    pub use dcs_check::sync::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};

    #[cfg(not(feature = "check"))]
    pub use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
}

/// Cooperative yield for wait loops.
///
/// In the check build this is a schedule point (the scheduler may run any
/// other virtual thread); in the normal build it is a plain OS yield. Wait
/// loops that would park on a condvar in production code use this so the
/// same source compiles under the single-OS-thread scheduler.
pub fn yield_thread() {
    #[cfg(feature = "check")]
    dcs_check::thread::yield_now();
    #[cfg(not(feature = "check"))]
    std::thread::yield_now();
}

#[cfg(test)]
mod tests {
    use super::atomic::{AtomicU64, Ordering};

    #[test]
    fn facade_exports_are_usable() {
        let m = super::pl::Mutex::new(1u32);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);

        let rw = super::pl::RwLock::new(5u32);
        assert_eq!(*rw.read(), 5);
        *rw.write() = 6;
        assert_eq!(*rw.read(), 6);

        let s = super::stdlike::Mutex::new(7u32);
        *s.lock().unwrap() += 1;
        assert_eq!(*s.lock().unwrap(), 8);

        let a = AtomicU64::new(0);
        a.fetch_add(3, Ordering::SeqCst);
        assert_eq!(a.load(Ordering::SeqCst), 3);

        super::yield_thread();
    }
}
