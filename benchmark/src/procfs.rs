//! What the kernel says about this process: per-thread scheduler
//! accounting, peak resident memory, host steal — all read from outside the
//! program under test — and the one thing the benchmark asks of the kernel:
//! to keep the whole process on one CPU.

use std::collections::BTreeMap;
use std::fs;

/// Scheduler accounting of one thread or of a group of threads.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedTimes {
    /// Nanoseconds on a CPU.
    pub run_ns: u64,
    /// Nanoseconds runnable but waiting for a CPU.
    pub wait_ns: u64,
    /// Times the scheduler put it on a CPU — one per wake-up or preemption.
    pub slices: u64,
    /// Threads summed into this entry.
    pub threads: u64,
}

impl SchedTimes {
    fn add(&mut self, o: &SchedTimes) {
        self.run_ns += o.run_ns;
        self.wait_ns += o.wait_ns;
        self.slices += o.slices;
        self.threads += o.threads;
    }

    /// `self − earlier`, saturating (a thread that exited in between simply
    /// stops contributing).
    pub fn since(&self, earlier: &SchedTimes) -> SchedTimes {
        SchedTimes {
            run_ns: self.run_ns.saturating_sub(earlier.run_ns),
            wait_ns: self.wait_ns.saturating_sub(earlier.wait_ns),
            slices: self.slices.saturating_sub(earlier.slices),
            threads: self.threads,
        }
    }
}

/// Parse one `/proc/<pid>/task/<tid>/schedstat` line:
/// `run_ns runqueue_wait_ns timeslices`.
pub fn parse_schedstat(line: &str) -> Option<SchedTimes> {
    let mut it = line.split_ascii_whitespace().map(str::parse::<u64>);
    let t = SchedTimes {
        run_ns: it.next()?.ok()?,
        wait_ns: it.next()?.ok()?,
        slices: it.next()?.ok()?,
        threads: 1,
    };
    Some(t)
}

/// The role a thread plays, from the name the program (or the benchmark's
/// driver) gave it. The kernel truncates names to 15 bytes.
pub fn role_of(comm: &str) -> &'static str {
    const ROLES: [(&str, &str); 6] = [
        ("bench-drv", "driver"),
        ("dcs-client-rd", "client"),
        ("dcs-conn-rd", "conn_rd"),
        ("dcs-conn-wr", "conn_wr"),
        ("dcs-shard", "shard"),
        ("dcs-accept", "accept"),
    ];
    ROLES
        .iter()
        .find(|(prefix, _)| comm.starts_with(prefix))
        .map_or("other", |(_, role)| role)
}

/// Scheduler accounting of every live thread of this process, summed per
/// role.
pub fn thread_budget() -> BTreeMap<&'static str, SchedTimes> {
    let mut by_role: BTreeMap<&'static str, SchedTimes> = BTreeMap::new();
    let Ok(dir) = fs::read_dir("/proc/self/task") else {
        return by_role;
    };
    for entry in dir.flatten() {
        let path = entry.path();
        // A thread can exit between the listing and the reads; skip it.
        let (Ok(comm), Ok(stat)) = (
            fs::read_to_string(path.join("comm")),
            fs::read_to_string(path.join("schedstat")),
        ) else {
            continue;
        };
        if let Some(t) = parse_schedstat(&stat) {
            by_role.entry(role_of(comm.trim_end())).or_default().add(&t);
        }
    }
    by_role
}

/// Sum over all roles.
pub fn total(budget: &BTreeMap<&'static str, SchedTimes>) -> SchedTimes {
    let mut sum = SchedTimes::default();
    for t in budget.values() {
        sum.add(t);
    }
    sum
}

/// Per-role difference of two [`thread_budget`] readings.
pub fn budget_since(
    now: &BTreeMap<&'static str, SchedTimes>,
    earlier: &BTreeMap<&'static str, SchedTimes>,
) -> BTreeMap<&'static str, SchedTimes> {
    now.iter()
        .map(|(role, t)| {
            let before = earlier.get(role).copied().unwrap_or_default();
            (*role, t.since(&before))
        })
        .collect()
}

/// Peak resident set (`VmHWM`) in MiB.
pub fn vm_hwm_mib() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    parse_status_kb(&status, "VmHWM:").map_or(0.0, |kb| kb as f64 / 1024.0)
}

fn parse_status_kb(status: &str, field: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| rest.split_ascii_whitespace().next())
        .and_then(|kb| kb.parse().ok())
}

/// `(steal, total)` jiffies of the whole machine from `/proc/stat`.
pub fn cpu_jiffies() -> (u64, u64) {
    let stat = fs::read_to_string("/proc/stat").unwrap_or_default();
    parse_cpu_line(stat.lines().next().unwrap_or_default()).unwrap_or((0, 0))
}

fn parse_cpu_line(line: &str) -> Option<(u64, u64)> {
    let fields: Vec<u64> = line
        .strip_prefix("cpu ")?
        .split_ascii_whitespace()
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already inside user, so the total stops at steal.
    let steal = *fields.get(7)?;
    Some((steal, fields.iter().take(8).sum()))
}

/// Share of machine CPU time the hypervisor took between two readings.
pub fn steal_frac(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.1.saturating_sub(before.1);
    if total == 0 {
        0.0
    } else {
        after.0.saturating_sub(before.0) as f64 / total as f64
    }
}

/// The first CPU of a `Cpus_allowed_list` value such as `0-1` or `2,4-7`.
fn first_cpu(list: &str) -> Option<usize> {
    let first = list.trim().split(',').next()?;
    first.split('-').next()?.parse().ok()
}

/// Confine the calling thread, and every thread spawned from it afterwards,
/// to the first CPU it is allowed on. Returns that CPU.
///
/// On this hypervisor a wake-up that crosses vCPUs costs ~20 µs and how
/// many of a request's five wake-ups cross depends on where the scheduler
/// happened to put the threads: a served round trip took 60–150 µs and did
/// not repeat. On one CPU it takes 21 µs, ±3 %. One CPU is also the paper's
/// unit — it prices an operation by the CPU one core spends on it — so the
/// benchmark measures the program's path, not the sandbox's interconnect.
pub fn pin_to_first_cpu() -> Result<usize, String> {
    let status = fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let cpu = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .and_then(first_cpu)
        .ok_or("no Cpus_allowed_list in /proc/self/status")?;
    let mut mask = [0u64; 16];
    *mask
        .get_mut(cpu / 64)
        .ok_or_else(|| format!("CPU {cpu} is beyond the affinity mask"))? |= 1 << (cpu % 64);
    // SAFETY: sched_setaffinity(2) only reads `size_of_val(&mask)` bytes
    // from the pointer, which is a live array of exactly that size; pid 0
    // names the calling thread.
    let ret = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if ret == 0 {
        Ok(cpu)
    } else {
        Err(format!("sched_setaffinity failed with {ret}"))
    }
}

/// The raw system call (the workspace has no `libc`).
///
/// # Safety
/// `mask` must point to `len` readable bytes.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
unsafe fn sched_setaffinity(pid: usize, len: usize, mask: *const u64) -> isize {
    let ret: isize;
    // SAFETY: the x86-64 Linux syscall convention — number in rax,
    // arguments in rdi/rsi/rdx, rcx and r11 clobbered; the caller vouches
    // for `mask`.
    unsafe {
        std::arch::asm!(
            "syscall",
            inlateout("rax") 203isize => ret,
            in("rdi") pid,
            in("rsi") len,
            in("rdx") mask,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack)
        );
    }
    ret
}

/// # Safety
/// Always safe: the call is not wired up for this target, and the caller is
/// told so.
#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
unsafe fn sched_setaffinity(_pid: usize, _len: usize, _mask: *const u64) -> isize {
    -38 // ENOSYS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinning_leaves_one_allowed_cpu() {
        assert_eq!(first_cpu(" 0-1\n"), Some(0));
        assert_eq!(first_cpu("2,4-7"), Some(2));
        assert_eq!(first_cpu("x"), None);
        // On a thread of its own: affinity is per thread, and the other
        // tests of this binary keep theirs.
        std::thread::spawn(|| {
            let cpu = pin_to_first_cpu().unwrap();
            let status = fs::read_to_string("/proc/thread-self/status").unwrap();
            let allowed = status
                .lines()
                .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
                .unwrap();
            assert_eq!(allowed.trim(), cpu.to_string());
        })
        .join()
        .unwrap();
    }

    #[test]
    fn schedstat_fixture() {
        assert_eq!(
            parse_schedstat("363012019 6582929 305\n"),
            Some(SchedTimes {
                run_ns: 363_012_019,
                wait_ns: 6_582_929,
                slices: 305,
                threads: 1
            })
        );
        assert_eq!(parse_schedstat("12 x 3"), None);
        assert_eq!(parse_schedstat("12 13"), None);
        assert_eq!(parse_schedstat(""), None);
    }

    #[test]
    fn roles_follow_thread_names() {
        assert_eq!(role_of("dcs-shard-1"), "shard");
        assert_eq!(role_of("dcs-client-rd-0"), "client");
        assert_eq!(role_of("dcs-conn-rd"), "conn_rd");
        assert_eq!(role_of("dcs-conn-wr"), "conn_wr");
        assert_eq!(role_of("bench-drv"), "driver");
        assert_eq!(role_of("dcs-benchmark"), "other");
    }

    #[test]
    fn status_and_stat_fixtures() {
        let status = "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t    1848 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_status_kb(status, "VmHWM:"), Some(1848));
        assert_eq!(parse_status_kb(status, "VmSwap:"), None);
        let cpu = "cpu  126358 0 37337 392594 2095 0 9616 827 0 0";
        assert_eq!(parse_cpu_line(cpu), Some((827, 568_827)));
        assert_eq!(parse_cpu_line("cpu0 1 2 3"), None);
        assert_eq!(steal_frac((827, 568_827), (927, 569_827)), 0.1);
        assert_eq!(steal_frac((1, 5), (1, 5)), 0.0);
    }

    #[test]
    fn live_budget_sees_this_thread() {
        let b = thread_budget();
        assert!(total(&b).threads >= 1);
        assert!(vm_hwm_mib() > 0.0);
    }
}
