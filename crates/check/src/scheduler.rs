//! The deterministic virtual-thread scheduler.
//!
//! # Model
//!
//! A *scenario* is a closure that spawns threads through
//! [`crate::thread::spawn`] and synchronizes through the instrumented shims
//! in [`crate::sync`]. While a scenario runs inside an `Execution`, every
//! shim operation is a *schedule point*: the executing thread stops, the
//! scheduler picks which thread runs next (seeded PRNG or PCT priorities),
//! and exactly one thread proceeds. Threads are real OS threads, but at most
//! one is ever runnable at a time — concurrency is *simulated*, which makes
//! every run with the same seed byte-for-byte identical and hence
//! replayable.
//!
//! Outside an execution (e.g. when the `check` feature is enabled by cargo's
//! feature unification but a plain unit test is running) every shim degrades
//! to the underlying `std` primitive with zero scheduling: `schedule_point`
//! is a cheap thread-local check.
//!
//! # Why OS threads and a condvar, not coroutines
//!
//! Scenario code is ordinary Rust calling into `dcs-ebr` / `dcs-bwtree`;
//! we cannot suspend it mid-stack without either green-thread machinery or
//! per-crate async rewrites. Parking all-but-one real thread on a condvar
//! gives the same serialized semantics with no changes to the code under
//! test beyond the `sync` facade swap.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};

use crate::shadow::ShadowHeap;

/// Scheduling policy for one execution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Policy {
    /// Uniform random choice among runnable threads at every schedule point.
    Random,
    /// Probabilistic concurrency testing (Burckhardt et al., ASPLOS'10):
    /// threads get random priorities; the highest-priority runnable thread
    /// always runs, and at `depth - 1` pre-chosen schedule points the running
    /// thread's priority is dropped below everyone else's. Finds bugs that
    /// need few (d) ordered preemptions with provable probability.
    Pct {
        /// Bug depth budget: number of priority-change points plus one.
        depth: u32,
    },
}

/// Knobs for [`explore_with`].
#[derive(Clone, Debug)]
pub struct Config {
    /// Seeds to run: `0..n` runs `n` independent deterministic schedules.
    pub seeds: std::ops::Range<u64>,
    /// Scheduling policy.
    pub policy: Policy,
    /// Abort a run (as a failure) after this many schedule points — a
    /// livelock backstop. Generous by default.
    pub max_steps: u64,
    /// When true, after each seed the shadow heap must be empty (everything
    /// retired was physically freed). Enable only for scenarios that tear
    /// down their own `Collector`; the process-global collector legitimately
    /// keeps garbage across executions.
    pub leak_check: bool,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            seeds: 0..200,
            policy: Policy::Random,
            max_steps: 3_000_000,
            leak_check: false,
        }
    }
}

/// Outcome of a failed seed, carried in the panic message of `explore`.
#[derive(Debug)]
pub struct Failure {
    /// Seed whose schedule triggered the failure.
    pub seed: u64,
    /// Policy active for that seed.
    pub policy: Policy,
    /// Schedule points executed before the failure.
    pub step: u64,
    /// Human-readable description (panic payload or invariant report).
    pub message: String,
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "seed {} ({:?}, step {}): {}",
            self.seed, self.policy, self.step, self.message
        )
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Status {
    /// Eligible to be scheduled.
    Runnable,
    /// Waiting for another virtual thread to finish (`JoinHandle::join`).
    BlockedOnJoin(usize),
    /// Returned or unwound; never scheduled again.
    Finished,
}

struct ThreadInfo {
    status: Status,
    /// PCT priority; higher runs first. Unused under `Policy::Random`.
    priority: u64,
}

struct ExecState {
    threads: Vec<ThreadInfo>,
    /// Index of the one thread allowed to run.
    current: usize,
    rng: SmallRng,
    policy: Policy,
    steps: u64,
    max_steps: u64,
    /// Pre-drawn PCT priority-change points (step numbers).
    change_points: Vec<u64>,
    /// First failure wins; all other threads unwind when they see it.
    failure: Option<String>,
    /// OS handles of spawned (non-root) virtual threads, joined at run end.
    os_handles: Vec<std::thread::JoinHandle<()>>,
}

impl ExecState {
    fn runnable(&self) -> Vec<usize> {
        self.threads
            .iter()
            .enumerate()
            .filter(|(_, t)| t.status == Status::Runnable)
            .map(|(i, _)| i)
            .collect()
    }

    /// Picks the next thread to run; `None` means nothing is runnable.
    fn pick_next(&mut self) -> Option<usize> {
        let runnable = self.runnable();
        if runnable.is_empty() {
            return None;
        }
        match self.policy {
            Policy::Random => Some(runnable[self.rng.gen_range(0..runnable.len())]),
            Policy::Pct { .. } => {
                if self.change_points.contains(&self.steps) {
                    // Demote the running thread below every other priority.
                    let min = self.threads.iter().map(|t| t.priority).min().unwrap_or(1);
                    self.threads[self.current].priority = min.saturating_sub(1);
                }
                runnable
                    .into_iter()
                    .max_by_key(|&i| self.threads[i].priority)
            }
        }
    }
}

/// One deterministic run of a scenario. Shared by all its virtual threads.
pub(crate) struct Execution {
    state: Mutex<ExecState>,
    cv: Condvar,
    seed: u64,
    pub(crate) shadow: ShadowHeap,
}

/// Message used when a thread unwinds because a *different* thread failed.
/// Recognized (and swallowed) by the spawn wrapper and the root driver.
const ABORT_MSG: &str = "dcs-check: execution aborted";

thread_local! {
    /// Set while the current OS thread is a virtual thread of an execution.
    static CONTEXT: RefCell<Option<(Arc<Execution>, usize)>> = const { RefCell::new(None) };

    /// Sticky: set the first time this OS thread becomes a virtual thread,
    /// never cleared. A managed thread clears `CONTEXT` before it exits, but
    /// its remaining thread-local destructors (e.g. the EBR local handle)
    /// still run instrumented operations; those must keep degrading to raw
    /// std behavior, not trip [`assert_not_foreign`].
    static WAS_MANAGED: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

fn current_ctx() -> Option<(Arc<Execution>, usize)> {
    CONTEXT.with(|c| c.borrow().clone())
}

/// True when the calling OS thread is a managed virtual thread.
pub fn in_execution() -> bool {
    CONTEXT.with(|c| c.borrow().is_some())
}

/// Count of executions currently running in this process. Used by
/// [`assert_not_foreign`] to detect instrumented operations escaping the
/// virtual scheduler. (The exploration lock serializes executions, so this
/// is effectively 0 or 1; a counter keeps the accounting honest anyway.)
static ACTIVE_EXECUTIONS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);

/// Decrements [`ACTIVE_EXECUTIONS`] on drop, so a panicking `run_one` can
/// never leave the counter stuck high.
struct ActiveGuard;

impl ActiveGuard {
    fn enter() -> Self {
        ACTIVE_EXECUTIONS.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        ActiveGuard
    }
}

impl Drop for ActiveGuard {
    fn drop(&mut self) {
        ACTIVE_EXECUTIONS.fetch_sub(1, std::sync::atomic::Ordering::SeqCst);
    }
}

/// Debug-build trap for the silent-degrade footgun: an instrumented shim
/// operation running on an OS thread the scheduler does not manage *while an
/// execution is active*. That thread was almost certainly spawned with
/// `std::thread::spawn` from inside a scenario — its operations run with
/// real, unexplored concurrency and the schedule silently loses coverage
/// (and determinism, since the foreign thread races the virtual ones).
///
/// Panicking the foreign thread surfaces the bug at the first escaped
/// operation instead. Release builds skip the check: the counter read would
/// tax every uninstrumented-path shim call in benchmarks.
#[inline]
pub(crate) fn assert_not_foreign() {
    #[cfg(debug_assertions)]
    if ACTIVE_EXECUTIONS.load(std::sync::atomic::Ordering::SeqCst) > 0
        // `try_with`: this can run from thread-local destructors after the
        // flag itself was dropped; be permissive then (a managed thread in
        // teardown), never abort inside TLS destruction.
        && !WAS_MANAGED.try_with(|f| f.get()).unwrap_or(true)
    {
        panic!(
            "dcs-check: instrumented operation on a thread outside the virtual scheduler \
             while an execution is active. Scenario code must spawn threads with \
             `dcs_check::thread::spawn`, not `std::thread::spawn` — a std thread runs \
             unscheduled and silently degrades the exploration. (Unit tests that use \
             instrumented types outside `explore` are fine; they only trip this if they \
             run concurrently with an execution in the same process.)"
        );
    }
}

/// The scheduling hook every instrumented shim operation calls.
///
/// Outside an execution this is a thread-local read and nothing more —
/// except in debug builds, where a concurrent active execution means this
/// thread escaped the scheduler; see `assert_not_foreign`.
#[inline]
pub fn schedule_point() {
    if let Some((exec, me)) = current_ctx() {
        exec.yield_at(me);
    } else {
        assert_not_foreign();
    }
}

/// Executes `f` with the shadow heap of the active execution, if any.
pub(crate) fn with_shadow<R>(f: impl FnOnce(&ShadowHeap, u64) -> R) -> Option<R> {
    current_ctx().map(|(exec, _)| f(&exec.shadow, exec.seed))
}

/// Reports an invariant violation detected by a checker (shadow heap,
/// auditor) from inside a virtual thread. Unwinds the calling thread.
pub(crate) fn fail_current(message: String) -> ! {
    if let Some((exec, _)) = current_ctx() {
        exec.record_failure(&message);
    }
    panic!("{message}");
}

// The scheduler hands the one runnable turn between real OS threads by
// parking them on `cv`; it sits beneath `dcs-syncshim` (which depends on
// this crate), so it cannot use the checked waits there.
#[allow(clippy::disallowed_methods)]
impl Execution {
    fn new(seed: u64, policy: Policy, max_steps: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        let change_points = match policy {
            Policy::Random => Vec::new(),
            Policy::Pct { depth } => {
                // Draw d-1 change points over a horizon of the first 10k
                // steps; runs shorter than the horizon simply see fewer
                // preemptions, which PCT tolerates.
                (1..depth).map(|_| rng.gen_range(0..10_000u64)).collect()
            }
        };
        Execution {
            state: Mutex::new(ExecState {
                threads: Vec::new(),
                current: 0,
                rng,
                policy,
                steps: 0,
                max_steps,
                change_points,
                failure: None,
                os_handles: Vec::new(),
            }),
            cv: Condvar::new(),
            seed,
            shadow: ShadowHeap::new(),
        }
    }

    fn register_thread(&self) -> usize {
        let mut st = self.state.lock().unwrap();
        let priority = st.rng.gen_range(2..u64::MAX);
        st.threads.push(ThreadInfo {
            status: Status::Runnable,
            priority,
        });
        st.threads.len() - 1
    }

    /// Propagate an execution failure out of the current thread.
    ///
    /// Must never panic while the thread is already unwinding (destructors
    /// run schedule points; a second panic would abort the process), so in
    /// that case it silently returns: once `failure` is set, every park
    /// condition lets threads drain, and determinism no longer matters.
    fn abort_current() {
        if !std::thread::panicking() {
            panic!("{ABORT_MSG}");
        }
    }

    /// Core handoff: advance the schedule one step and wait until chosen.
    fn yield_at(self: &Arc<Self>, me: usize) {
        let mut st = self.state.lock().unwrap();
        if st.failure.is_some() {
            drop(st);
            Self::abort_current();
            return;
        }
        st.steps += 1;
        if st.steps > st.max_steps {
            let msg = format!(
                "exceeded max_steps ({}) — livelock or unbounded retry loop",
                st.max_steps
            );
            st.failure = Some(msg);
            self.cv.notify_all();
            drop(st);
            Self::abort_current();
            return;
        }
        match st.pick_next() {
            Some(next) => st.current = next,
            None => unreachable!("yield_at caller is runnable"),
        }
        self.cv.notify_all();
        while st.current != me && st.failure.is_none() {
            st = self.cv.wait(st).unwrap();
        }
        if st.failure.is_some() {
            drop(st);
            Self::abort_current();
        }
    }

    /// Parks a freshly spawned virtual thread until the scheduler elects it.
    fn wait_until_elected(&self, me: usize) {
        let mut st = self.state.lock().unwrap();
        while st.current != me && st.failure.is_none() {
            st = self.cv.wait(st).unwrap();
        }
    }

    /// Marks `me` finished and hands control to the next runnable thread.
    fn finish_thread(&self, me: usize) {
        let mut st = self.state.lock().unwrap();
        st.threads[me].status = Status::Finished;
        // Wake joiners.
        for t in st.threads.iter_mut() {
            if t.status == Status::BlockedOnJoin(me) {
                t.status = Status::Runnable;
            }
        }
        if st.current == me {
            match st.pick_next() {
                Some(next) => st.current = next,
                None => {
                    // Nothing runnable. Either everyone is finished (normal
                    // teardown) or the rest are blocked on joins: deadlock.
                    if st.threads.iter().any(|t| t.status != Status::Finished)
                        && st.failure.is_none()
                    {
                        st.failure =
                            Some("deadlock: all remaining threads blocked on join".to_string());
                    }
                }
            }
        }
        self.cv.notify_all();
    }

    /// Blocks `me` until `target` finishes, scheduling others meanwhile.
    fn join_thread(self: &Arc<Self>, me: usize, target: usize) {
        let mut st = self.state.lock().unwrap();
        if st.threads[target].status != Status::Finished {
            st.threads[me].status = Status::BlockedOnJoin(target);
            match st.pick_next() {
                Some(next) => st.current = next,
                None => {
                    let msg =
                        format!("deadlock: thread {me} joins {target} but no thread is runnable");
                    st.failure = Some(msg);
                    self.cv.notify_all();
                    drop(st);
                    Self::abort_current();
                    return;
                }
            }
            self.cv.notify_all();
            while st.current != me && st.failure.is_none() {
                st = self.cv.wait(st).unwrap();
            }
        }
        if st.failure.is_some() {
            drop(st);
            Self::abort_current();
        }
    }

    fn record_failure(&self, message: &str) {
        let mut st = self.state.lock().unwrap();
        if st.failure.is_none() {
            st.failure = Some(message.to_string());
        }
        self.cv.notify_all();
    }

    fn panic_payload_to_string(payload: &(dyn std::any::Any + Send)) -> String {
        if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "panic with non-string payload".to_string()
        }
    }
}

/// Join handle for a scheduler-managed virtual thread; created by
/// [`crate::thread::spawn`] when inside an execution.
pub struct ManagedHandle<T> {
    exec: Arc<Execution>,
    id: usize,
    result: Arc<Mutex<Option<T>>>,
}

impl<T> ManagedHandle<T> {
    pub(crate) fn join(self) -> std::thread::Result<T> {
        let (_, me) = current_ctx().expect("join of managed thread outside execution");
        self.exec.join_thread(me, self.id);
        match self.result.lock().unwrap().take() {
            Some(v) => Ok(v),
            // The target panicked; surface a boxed message like std does.
            None => {
                Err(Box::new("managed thread panicked".to_string())
                    as Box<dyn std::any::Any + Send>)
            }
        }
    }
}

pub(crate) fn spawn_managed<T, F>(f: F) -> Option<ManagedHandle<T>>
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    let (exec, _me) = current_ctx()?;
    let id = exec.register_thread();
    let result = Arc::new(Mutex::new(None));
    let slot = result.clone();
    let exec2 = exec.clone();
    let os = std::thread::Builder::new()
        .name(format!("dcs-check-vt{id}"))
        .spawn(move || {
            CONTEXT.with(|c| *c.borrow_mut() = Some((exec2.clone(), id)));
            WAS_MANAGED.with(|f| f.set(true));
            exec2.wait_until_elected(id);
            let outcome = catch_unwind(AssertUnwindSafe(f));
            match outcome {
                Ok(v) => *slot.lock().unwrap() = Some(v),
                Err(p) => {
                    let msg = Execution::panic_payload_to_string(&*p);
                    if msg != ABORT_MSG {
                        exec2.record_failure(&format!("thread {id} panicked: {msg}"));
                    }
                }
            }
            exec2.finish_thread(id);
            CONTEXT.with(|c| *c.borrow_mut() = None);
        })
        .expect("spawn virtual thread");
    exec.state.lock().unwrap().os_handles.push(os);
    Some(ManagedHandle { exec, id, result })
}

/// Serializes executions process-wide. Scenarios routinely share process
/// globals (the default EBR collector); two concurrent executions would
/// perturb each other's schedules and break determinism.
///
/// `pub(crate)` so unit tests that exercise shims *outside* an execution can
/// hold it too — otherwise a concurrently running execution in the same test
/// process would (correctly) trip [`assert_not_foreign`] on them.
pub(crate) fn exploration_lock() -> &'static Mutex<()> {
    static LOCK: std::sync::OnceLock<Mutex<()>> = std::sync::OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
}

/// Runs `scenario` once under the given seed; `Err` carries the failure.
fn run_one<F>(seed: u64, config: &Config, scenario: &F) -> Result<u64, Failure>
where
    F: Fn() + Sync,
{
    let _active = ActiveGuard::enter();
    let exec = Arc::new(Execution::new(seed, config.policy, config.max_steps));
    let root = exec.register_thread();
    debug_assert_eq!(root, 0);
    // The root virtual thread must be a fresh OS thread so its CONTEXT
    // thread-local does not linger on the caller.
    std::thread::scope(|s| {
        s.spawn(|| {
            CONTEXT.with(|c| *c.borrow_mut() = Some((exec.clone(), root)));
            WAS_MANAGED.with(|f| f.set(true));
            let outcome = catch_unwind(AssertUnwindSafe(scenario));
            if let Err(p) = outcome {
                let msg = Execution::panic_payload_to_string(&*p);
                if msg != ABORT_MSG {
                    exec.record_failure(&format!("root thread panicked: {msg}"));
                }
            }
            exec.finish_thread(root);
            CONTEXT.with(|c| *c.borrow_mut() = None);
        });
    });
    // The root has finished, but spawned virtual threads may still be
    // running (scenario did not join them). Let them drain, then reap the
    // OS handles — children can spawn grandchildren, so loop.
    loop {
        let handles = std::mem::take(&mut exec.state.lock().unwrap().os_handles);
        if handles.is_empty() {
            break;
        }
        for h in handles {
            let _ = h.join();
        }
    }
    let st = exec.state.lock().unwrap();
    let steps = st.steps;
    if let Some(msg) = &st.failure {
        return Err(Failure {
            seed,
            policy: config.policy,
            step: steps,
            message: msg.clone(),
        });
    }
    drop(st);
    if config.leak_check {
        if let Err(msg) = exec.shadow.leak_check() {
            return Err(Failure {
                seed,
                policy: config.policy,
                step: steps,
                message: msg,
            });
        }
    }
    Ok(steps)
}

/// Explores `scenario` under every seed in `config.seeds`, panicking with a
/// replayable [`Failure`] description on the first failing seed.
pub fn explore_with<F>(name: &str, config: Config, scenario: F)
where
    F: Fn() + Sync,
{
    let _serial = exploration_lock()
        .lock()
        .unwrap_or_else(|poison| poison.into_inner());
    let mut total_steps = 0u64;
    let seeds = config.seeds.clone();
    let count = seeds.end.saturating_sub(seeds.start);
    for seed in seeds {
        match run_one(seed, &config, &scenario) {
            Ok(steps) => total_steps += steps,
            Err(failure) => {
                panic!(
                    "dcs-check scenario '{name}' failed: {failure}\n\
                     replay with: dcs_check::replay({seed}, {:?}, ..)",
                    config.policy
                );
            }
        }
    }
    // Vacuous passes must be loud: an empty seed range is a mis-computed
    // range at the call site, and runs that never hit a schedule point mean
    // the scenario is not exercising the instrumented shims — almost
    // certainly a mis-wired feature flag.
    assert!(
        count > 0,
        "dcs-check scenario '{name}' explored an empty seed range"
    );
    assert!(
        total_steps > 0,
        "dcs-check scenario '{name}' hit zero schedule points across {count} seeds; \
         are the `check` features enabled for the crates under test?"
    );
}

/// Explores `scenario` under seeds `0..seeds` with the default policy.
pub fn explore<F>(name: &str, seeds: u64, scenario: F)
where
    F: Fn() + Sync,
{
    explore_with(
        name,
        Config {
            seeds: 0..seeds,
            ..Config::default()
        },
        scenario,
    );
}

/// Re-runs a single seed, for deterministic replay of a reported failure.
pub fn replay<F>(seed: u64, policy: Policy, scenario: F)
where
    F: Fn() + Sync,
{
    explore_with(
        "replay",
        Config {
            seeds: seed..seed + 1,
            policy,
            ..Config::default()
        },
        scenario,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::AtomicU64;
    use std::sync::atomic::Ordering;

    #[test]
    fn schedule_point_outside_execution_is_noop() {
        // Hold the exploration lock: sibling tests in this binary run
        // executions concurrently, and an outside-execution shim call while
        // one is active is exactly what assert_not_foreign rejects.
        let _serial = exploration_lock()
            .lock()
            .unwrap_or_else(|poison| poison.into_inner());
        assert!(!in_execution());
        schedule_point();
    }

    #[test]
    fn counter_increments_complete() {
        explore("counter", 50, || {
            let c = Arc::new(AtomicU64::new(0));
            let mut handles = Vec::new();
            for _ in 0..3 {
                let c = c.clone();
                handles.push(crate::thread::spawn(move || {
                    for _ in 0..5 {
                        c.fetch_add(1, Ordering::SeqCst);
                    }
                }));
            }
            for h in handles {
                h.join().unwrap();
            }
            assert_eq!(c.load(Ordering::SeqCst), 15);
        });
    }

    #[test]
    fn lost_update_found_quickly() {
        // Classic racy read-modify-write: load, then store. Some schedule
        // must interleave the two threads between load and store.
        let found = std::panic::catch_unwind(|| {
            explore("lost-update", 100, || {
                let c = Arc::new(AtomicU64::new(0));
                let mut handles = Vec::new();
                for _ in 0..2 {
                    let c = c.clone();
                    handles.push(crate::thread::spawn(move || {
                        let v = c.load(Ordering::SeqCst);
                        c.store(v + 1, Ordering::SeqCst);
                    }));
                }
                for h in handles {
                    h.join().unwrap();
                }
                assert_eq!(c.load(Ordering::SeqCst), 2, "lost update");
            });
        });
        assert!(found.is_err(), "random scheduler should expose the race");
    }

    #[test]
    fn same_seed_same_schedule() {
        // Record the observable interleaving as a sequence of values and
        // check two runs of one seed agree, while some other seed differs.
        fn trace_for(seed: u64) -> Vec<u64> {
            let trace = Arc::new(Mutex::new(Vec::new()));
            let t2 = trace.clone();
            explore_with(
                "trace",
                Config {
                    seeds: seed..seed + 1,
                    ..Config::default()
                },
                move || {
                    let c = Arc::new(AtomicU64::new(0));
                    let mut handles = Vec::new();
                    for tid in 0..3u64 {
                        let c = c.clone();
                        let t = t2.clone();
                        handles.push(crate::thread::spawn(move || {
                            for _ in 0..4 {
                                let v = c.fetch_add(1, Ordering::SeqCst);
                                t.lock().unwrap().push(tid * 1000 + v);
                            }
                        }));
                    }
                    for h in handles {
                        h.join().unwrap();
                    }
                },
            );
            let v = trace.lock().unwrap().clone();
            v
        }
        let a1 = trace_for(7);
        let a2 = trace_for(7);
        assert_eq!(a1, a2, "same seed must replay identically");
        let b = trace_for(8);
        // Not guaranteed different in principle, but with 12 interleaved
        // increments the chance of collision is negligible; treat equality
        // as a scheduler bug.
        assert_ne!(a1, b, "different seeds should explore different orders");
    }

    #[test]
    fn pct_policy_runs() {
        explore_with(
            "pct",
            Config {
                seeds: 0..50,
                policy: Policy::Pct { depth: 3 },
                ..Config::default()
            },
            || {
                let c = Arc::new(AtomicU64::new(0));
                let h = {
                    let c = c.clone();
                    crate::thread::spawn(move || {
                        c.fetch_add(1, Ordering::SeqCst);
                    })
                };
                c.fetch_add(1, Ordering::SeqCst);
                h.join().unwrap();
                assert_eq!(c.load(Ordering::SeqCst), 2);
            },
        );
    }

    #[test]
    fn livelock_is_reported() {
        let r = std::panic::catch_unwind(|| {
            explore_with(
                "spin",
                Config {
                    seeds: 0..1,
                    max_steps: 10_000,
                    ..Config::default()
                },
                || {
                    let c = AtomicU64::new(0);
                    // Never satisfied: nothing ever stores 1.
                    while c.load(Ordering::SeqCst) != 1 {}
                },
            );
        });
        let msg = format!("{:?}", r.unwrap_err().downcast_ref::<String>());
        assert!(msg.contains("max_steps"), "got: {msg}");
    }
}
