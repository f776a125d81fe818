//! One run of one workload: set up (several times, for a steady `setup_s`),
//! warm up, the timed window with counter and scheduler readings around it,
//! then the teardown that makes the outputs checkable — final checkpoint,
//! crash, recovery, and a re-read of every key.

use crate::harness::{
    load_store, store_builder, value_ok, Budget, DriverOut, Kind, OpStream, Path, Slice,
    WorkloadDef, KINDS, RECORDS, RECORD_BYTES, SLICE_NS, WARMUP_FRAC,
};
use crate::procfs::{self, SchedTimes};
use crate::spec::Better;
use crate::stats::percentile_sorted;
use crate::trace::{now_ns, Tracer};
use crate::{inproc, wire};
use dcs_core::CachingStore;
use dcs_server::Server;
use dcs_telemetry::HistogramSnapshot;
use dcs_workload::keys;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

/// Metric values by contract name.
pub type Metrics = BTreeMap<&'static str, f64>;

/// Times the set-up is repeated when `setup_s` is reported (its median is).
pub const SETUP_REPS: usize = 3;

/// Monotone counters of every layer, read from public `*Stats` structs.
/// Window metrics are differences of two of these.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    pub n: BTreeMap<&'static str, u64>,
    pub mailbox_depth: HistogramSnapshot,
    pub shard_read_ns: HistogramSnapshot,
    pub shard_write_ns: HistogramSnapshot,
    pub shard_ops: Vec<u64>,
    /// Gauges, meaningful in the later reading only.
    pub footprint_bytes: u64,
    pub live_bytes: u64,
}

impl Counters {
    pub fn read(stores: &[Arc<CachingStore>], server: Option<&Server>) -> Counters {
        let mut c = Counters::default();
        let mut add = |k: &'static str, v: u64| *c.n.entry(k).or_default() += v;
        for s in stores {
            let st = s.stats();
            add("tree.gets", st.tree.gets);
            add("tree.mm_ops", st.tree.mm_ops);
            add("tree.ss_ops", st.tree.ss_ops);
            add("tree.record_cache_hits", st.tree.record_cache_hits);
            add("tree.consolidations", st.tree.consolidations);
            add("tree.splits", st.tree.leaf_splits + st.tree.inner_splits);
            add("tree.fetches", st.tree.fetches);
            add("cache.sweeps", st.cache.sweeps);
            add("cache.pages_evicted", st.cache.pages_evicted);
            add("cache.bytes_released", st.cache.bytes_released);
            add("lss.buffer_hits", st.lss.buffer_hits);
            add("lss.flash_reads", st.lss.flash_reads);
            add("lss.payload_bytes", st.lss.payload_bytes);
            add("lss.stored_bytes", st.lss.stored_bytes);
            add("lss.segments_collected", st.lss.segments_collected);
            add("lss.parts_relocated", st.lss.parts_relocated);
            add("dev.reads", st.device.reads);
            add("dev.writes", st.device.writes);
            add("dev.bytes_written", st.device.bytes_written);
            add("dev.syncs", st.device.syncs);
            add("dev.depth_sum", st.device.io_depth.sum);
            add("dev.depth_count", st.device.io_depth.count);
            c.footprint_bytes += st.footprint_bytes as u64;
            c.live_bytes += s.lss().live_bytes() as u64;
        }
        let ledger = dcs_telemetry::ledger().totals();
        add("ledger.mm_ops", ledger.mm_ops);
        add("ledger.ss_ops", ledger.ss_ops());
        add("ledger.wal_barriers", ledger.wal_barriers);
        for shard in server.map_or(&[][..], Server::shards) {
            let m = shard.metrics().snapshot(0);
            add("shard.batches", m.batches);
            add("shard.batched_ops", m.batched_ops);
            add("shard.group_commits", m.group_commits);
            add("shard.group_committed_records", m.group_committed_records);
            add("wal.bytes", shard.wal().approx_bytes() as u64);
            let mb = shard.mailbox().stats();
            add("mailbox.accepted", mb.accepted);
            add("mailbox.rejected_busy", mb.rejected_busy);
            c.mailbox_depth.merge(&mb.depth);
            c.shard_read_ns
                .merge(&shard.metrics().read_latency.snapshot());
            c.shard_write_ns
                .merge(&shard.metrics().write_latency.snapshot());
            c.shard_ops.push(m.total_ops());
        }
        c
    }

    pub fn get(&self, key: &str) -> u64 {
        self.n.get(key).copied().unwrap_or(0)
    }
}

/// `later − earlier` of two cumulative histograms.
pub fn hist_since(later: &HistogramSnapshot, earlier: &HistogramSnapshot) -> HistogramSnapshot {
    let mut d = *later;
    for (a, b) in d.counts.iter_mut().zip(earlier.counts.iter()) {
        *a -= b;
    }
    d.count -= earlier.count;
    d.sum -= earlier.sum;
    d
}

/// Everything measured around one timed window.
#[derive(Debug, Default)]
pub struct Window {
    /// Totals over the drivers, with their latencies pooled (and sorted
    /// once the run is over).
    pub out: DriverOut,
    /// What each slice of the window achieved, process-wide.
    pub slices: Vec<Slice>,
    /// Median latency of each op kind within each slice of each driver, µs.
    pub slice_p50_us: [Vec<f64>; 4],
    /// Nanoseconds on the clock.
    pub wall_ns: u64,
    /// Scheduler accounting over the same time, per thread role.
    pub cpu: BTreeMap<&'static str, SchedTimes>,
    pub steal_frac: f64,
    pub before: Counters,
    pub after: Counters,
    pub tracers: Vec<Tracer>,
}

/// Fewest samples of a kind a slice needs for its median to be used.
const SLICE_MIN_SAMPLES: usize = 20;

impl Window {
    /// Take in what one driver measured.
    fn absorb(&mut self, mut out: DriverOut) {
        for (kind, lat) in out.lat.iter().enumerate() {
            let mut from = 0;
            for cut in &out.cuts {
                let mut slice = lat[from..cut[kind]].to_vec();
                from = cut[kind];
                if slice.len() >= SLICE_MIN_SAMPLES {
                    slice.sort_unstable();
                    self.slice_p50_us[kind].push(percentile_sorted(&slice, 0.5) / 1e3);
                }
            }
        }
        self.slices.append(&mut out.slices);
        for (mine, theirs) in self.out.lat.iter_mut().zip(out.lat) {
            mine.extend(theirs);
        }
        self.out.attempted += out.attempted;
        self.out.failed += out.failed;
        self.out.user_bytes_written += out.user_bytes_written;
        self.out.failure_notes.extend(out.failure_notes);
        self.out.failure_notes.truncate(5);
    }

    pub fn correct_ops(&self) -> u64 {
        self.out.attempted - self.out.failed
    }

    pub fn delta(&self, key: &str) -> u64 {
        self.after.get(key) - self.before.get(key)
    }
}

/// What the end of a run found.
#[derive(Debug, Default)]
pub struct Teardown {
    pub checkpoint_ms: f64,
    pub recover_ms: f64,
    pub gc_ms: f64,
    pub gc_segments: u64,
    pub gc_parts: u64,
    /// Σ device bytes written, read right after the final checkpoint.
    pub dev_bytes_written: u64,
    /// Σ live log bytes, read right after the final checkpoint.
    pub live_bytes: u64,
    /// Keys re-read after recovery, and how many did not hold their last
    /// acknowledged write.
    pub checked: u64,
    pub lost: u64,
    pub notes: Vec<String>,
}

/// Final checkpoint, (traced) log GC, crash, recovery, and the re-read of
/// every key from the recovered store that `owner_of` says holds it.
fn teardown(
    def: &WorkloadDef,
    stores: Vec<Arc<CachingStore>>,
    owner_of: &dyn Fn(&[u8]) -> usize,
    expected: &[u32],
    mut tracer: Option<&mut Tracer>,
) -> Result<Teardown, String> {
    let mut td = Teardown::default();
    let appended = matches!(def.path, Path::Wire { .. });
    let traced = tracer.is_some();
    let mut timed = |name: &'static str, f: &mut dyn FnMut() -> Result<(), String>| {
        let t0 = now_ns();
        f()?;
        let t1 = now_ns();
        if let Some(tr) = tracer.as_deref_mut() {
            let s = tr.open_at(name, 0, None, t0);
            tr.close_at(s, t1);
        }
        Ok::<f64, String>((t1 - t0) as f64 / 1e6)
    };
    let mut recovered = Vec::with_capacity(stores.len());
    for store in stores {
        td.checkpoint_ms += timed("core.checkpoint", &mut || {
            store.checkpoint().map_err(|e| format!("checkpoint: {e}"))
        })?;
        td.dev_bytes_written += store.device().stats().bytes_written;
        td.live_bytes += store.lss().live_bytes() as u64;
        if traced {
            let before = store.lss().stats();
            td.gc_ms += timed("llama.lss.gc", &mut || {
                store.gc().map(|_| ()).map_err(|e| format!("gc: {e}"))
            })?;
            let after = store.lss().stats();
            td.gc_segments += after.segments_collected - before.segments_collected;
            td.gc_parts += after.parts_relocated - before.parts_relocated;
        }
        let device = store.device().clone();
        drop(store);
        let mut fresh = None;
        td.recover_ms += timed("core.recover", &mut || {
            // Power cut: whatever the checkpoint's barrier did not cover is
            // gone; the recovered store sees only the device.
            device.crash();
            let builder = store_builder(def.memory_budget, true);
            fresh = Some(
                CachingStore::recover(device.clone(), builder)
                    .map_err(|e| format!("recover: {e}"))?,
            );
            Ok(())
        })?;
        recovered.push(fresh.expect("recover returned a store"));
    }
    for id in 0..RECORDS {
        let key = keys::encode(id);
        let want = expected[id as usize];
        td.checked += 1;
        let got = recovered[owner_of(&key)].try_get(&key);
        if !matches!(&got, Ok(Some(v)) if value_ok(v, id, want, appended)) {
            td.lost += 1;
            if td.notes.len() < 5 {
                let found = got.map(|v| v.as_deref().and_then(keys::parse_value));
                td.notes.push(format!(
                    "after recovery id {id}: want version {want}, found {found:?}"
                ));
            }
        }
    }
    Ok(td)
}

/// A finished run of one workload.
#[derive(Debug)]
pub struct RunResult {
    pub setup_s: f64,
    pub window: Window,
    /// Counters once the untimed top-up has brought the run to its fixed op
    /// count (the window's own `after` when there was no top-up).
    pub settled: Counters,
    /// User bytes written from window start to the end of the top-up.
    pub settled_user_bytes: u64,
    /// `VmHWM` at that point: one set-up, the warm-up, the window and the
    /// top-up — before the teardown builds recovered stores.
    pub rss_mb: f64,
    pub teardown: Teardown,
    /// Failures of the untimed warm-up and top-up (they count against
    /// correctness like any other).
    pub untimed_failed: u64,
}

impl RunResult {
    pub fn attempted(&self) -> u64 {
        self.window.out.attempted + self.teardown.checked
    }

    pub fn failed(&self) -> u64 {
        self.window.out.failed + self.untimed_failed + self.teardown.lost
    }

    /// Whole-window throughput: correct ops ÷ seconds on the clock.
    pub fn mean_throughput(&self) -> f64 {
        self.window.correct_ops() as f64 / (self.window.wall_ns as f64 / 1e9)
    }

    /// Whole-window process CPU per correct op, µs.
    pub fn mean_cpu_us_per_op(&self) -> f64 {
        procfs::total(&self.window.cpu).run_ns as f64
            / 1e3
            / self.window.correct_ops().max(1) as f64
    }

    /// Throughput of the window's fast slices (see [`fast`]).
    pub fn throughput(&self) -> f64 {
        let per_slice = self.window.slices.iter().filter(|s| s.ops > 0 && s.ns > 0);
        fast(
            per_slice
                .map(|s| s.ops as f64 / (s.ns as f64 / 1e9))
                .collect(),
            Better::Higher,
        )
    }

    pub fn notes(&self) -> impl Iterator<Item = &String> {
        self.window
            .out
            .failure_notes
            .iter()
            .chain(&self.teardown.notes)
    }

    /// The end-to-end metrics, by contract name.
    pub fn end_to_end(&self) -> Metrics {
        let w = &self.window;
        let per_slice = w.slices.iter().filter(|s| s.ops > 0);
        let cpu = per_slice
            .map(|s| s.cpu_ns as f64 / 1e3 / s.ops as f64)
            .collect();
        let p50 = |kind: Kind| fast(w.slice_p50_us[kind as usize].clone(), Better::Lower);
        let wal = self.settled.get("wal.bytes") - w.before.get("wal.bytes");
        let dev = self.teardown.dev_bytes_written - w.before.get("dev.bytes_written");
        let mut m = Metrics::new();
        m.insert("setup_s", self.setup_s);
        m.insert("throughput_ops_s", self.throughput());
        m.insert("cpu_us_per_op", fast(cpu, Better::Lower));
        m.insert("get_p50_us", p50(Kind::Get));
        m.insert("put_p50_us", p50(Kind::Put));
        m.insert("rss_mb", self.rss_mb);
        m.insert(
            "write_amp",
            (dev + wal) as f64 / self.settled_user_bytes.max(1) as f64,
        );
        m.insert(
            "space_amp",
            (self.teardown.live_bytes + self.settled.get("wal.bytes")) as f64
                / (RECORDS * RECORD_BYTES) as f64,
        );
        m
    }
}

/// Where among a window's slices a time metric is read.
const FAST_FRAC: f64 = 0.25;

/// The value at the fast quartile of per-slice values: the 25th percentile
/// of a lower-is-better metric, the 75th of a higher-is-better one.
///
/// The sandbox shares its memory system with neighbours that slow a run by
/// anything up to 2× for seconds to minutes at a time, and never speed it
/// up. The slices it left alone say what the program costs; the mean over
/// the window says mostly how busy the neighbours were. Whole-window values
/// are still reported, as `bench.mean_*` per-layer metrics.
pub fn fast(mut per_slice: Vec<f64>, better: Better) -> f64 {
    per_slice.sort_by(f64::total_cmp);
    let q = match better {
        Better::Lower => FAST_FRAC,
        Better::Higher => 1.0 - FAST_FRAC,
    };
    percentile_sorted(&per_slice, q)
}

/// How a run is executed.
#[derive(Debug, Clone, Copy)]
pub struct RunOpts {
    pub seed: u64,
    pub budget: Budget,
    /// Record bench-side spans (and, in-process, sweep from the driver).
    pub traced: bool,
    /// Times the set-up is timed; `setup_s` is the median.
    pub setup_reps: usize,
}

impl RunOpts {
    /// Ops still to run, untimed, after a window of `done` ops. A window
    /// measured in seconds does as many ops as the machine managed, and the
    /// amplification and memory metrics depend on how many that was — so
    /// the run is topped up to the op count a generous rate would have
    /// reached, which makes those metrics a property of the code and the
    /// seed, not of the machine's mood. A window measured in ops needs none.
    fn top_up(&self, def: &WorkloadDef, done: u64) -> u64 {
        match self.budget {
            Budget::Ops(_) => 0,
            Budget::Seconds(s) => ((def.top_up_rate * s) as u64).saturating_sub(done),
        }
    }
}

pub fn execute(def: &WorkloadDef, opts: RunOpts) -> Result<RunResult, String> {
    let mut r = match def.path {
        Path::InProcess => execute_inproc(def, opts),
        Path::Wire { window, drivers } => execute_wire(def, window, drivers, opts),
    }?;
    // Percentiles are read off sorted lists from here on.
    for l in r.window.out.lat.iter_mut() {
        l.sort_unstable();
    }
    Ok(r)
}

/// Run `f` on a thread named `bench-drv`, the role the scheduler budget
/// books driver time under.
fn on_driver_thread<'scope, 'env, T: Send + 'scope>(
    scope: &'scope std::thread::Scope<'scope, 'env>,
    f: impl FnOnce() -> T + Send + 'scope,
) -> std::thread::ScopedJoinHandle<'scope, T> {
    std::thread::Builder::new()
        .name("bench-drv".to_string())
        .spawn_scoped(scope, f)
        .expect("spawn driver thread")
}

fn timed_s<T>(f: impl FnOnce() -> Result<T, String>) -> Result<(f64, T), String> {
    let t0 = now_ns();
    let v = f()?;
    Ok(((now_ns() - t0) as f64 / 1e9, v))
}

/// `setup_s`: the set-up the run used, and `reps − 1` more that are timed
/// and discarded. They come after the run so that the memory high-water
/// mark the run reports is that of one set-up, not of three.
fn median_setup_s<T>(
    first_s: f64,
    reps: usize,
    build: impl Fn() -> Result<T, String>,
    discard: impl Fn(T),
) -> Result<f64, String> {
    let mut times = vec![first_s];
    for _ in 1..reps {
        let (s, built) = timed_s(&build)?;
        times.push(s);
        discard(built);
    }
    Ok(crate::stats::median(&times))
}

fn execute_inproc(def: &WorkloadDef, opts: RunOpts) -> Result<RunResult, String> {
    let build = || {
        let store = Arc::new(store_builder(def.memory_budget, !opts.traced).build());
        load_store(&store, 0..RECORDS);
        Ok(store)
    };
    let (first_setup_s, store) = timed_s(build)?;
    let mut driver = inproc::Driver::new(OpStream::new(def, opts.seed, 0, 1), opts.traced);
    let mut tracer = opts.traced.then(|| Tracer::new("bench-drv"));
    let stores = vec![store.clone()];
    let (window, top_up, untimed_failed) = std::thread::scope(|s| {
        on_driver_thread(s, || {
            let warm = driver.drive(&store, opts.budget.scaled(WARMUP_FRAC), None);
            let before = Counters::read(&stores, None);
            let jiffies = procfs::cpu_jiffies();
            let out = driver.drive(&store, opts.budget, tracer.as_mut());
            let mut window = Window {
                steal_frac: procfs::steal_frac(jiffies, procfs::cpu_jiffies()),
                wall_ns: out.timed_ns,
                cpu: out.cpu.clone(),
                before,
                after: Counters::read(&stores, None),
                ..Window::default()
            };
            window.absorb(out);
            let extra = opts.top_up(def, window.out.attempted);
            let top_up = driver.drive(&store, Budget::Ops(extra), None);
            let untimed_failed = warm.failed + top_up.failed;
            (window, top_up, untimed_failed)
        })
        .join()
        .expect("driver thread panicked")
    });
    let settled = Counters::read(&stores, None);
    let rss_mb = procfs::vm_hwm_mib();
    drop(store);
    let teardown = teardown(def, stores, &|_| 0, &driver.last, tracer.as_mut())?;
    let mut window = window;
    window.tracers.extend(tracer);
    Ok(RunResult {
        setup_s: median_setup_s(first_setup_s, opts.setup_reps, build, drop)?,
        settled,
        settled_user_bytes: window.out.user_bytes_written + top_up.user_bytes_written,
        rss_mb,
        window,
        teardown,
        untimed_failed,
    })
}

fn execute_wire(
    def: &WorkloadDef,
    depth: usize,
    n_drivers: usize,
    opts: RunOpts,
) -> Result<RunResult, String> {
    let build = || {
        let rig = wire::Rig::start(def, n_drivers)?;
        rig.load()?;
        Ok(rig)
    };
    let (first_setup_s, rig) = timed_s(build)?;
    let mut drivers: Vec<wire::Driver> = (0..n_drivers as u64)
        .map(|lane| wire::Driver::new(OpStream::new(def, opts.seed, lane, n_drivers as u64)))
        .collect();
    let mut tracers: Vec<Option<Tracer>> = (0..n_drivers)
        .map(|i| opts.traced.then(|| Tracer::new(&format!("bench-drv-{i}"))))
        .collect();

    // The drivers meet the main thread at a barrier three times: to start
    // together, when both have finished, and once the main thread has read
    // the scheduler accounting (a thread that has exited is no longer in
    // `/proc/self/task`).
    let mut run_window = |budget: Budget, traced: bool| -> Window {
        let gate = Barrier::new(n_drivers + 1);
        let (progress, finished) = (AtomicU64::new(0), AtomicU64::new(0));
        let before = Counters::read(&rig.stores, Some(&rig.server));
        std::thread::scope(|s| {
            let handles: Vec<_> = drivers
                .iter_mut()
                .zip(&rig.clients)
                .zip(tracers.iter_mut())
                .map(|((driver, client), tracer)| {
                    let (gate, progress, finished) = (&gate, &progress, &finished);
                    on_driver_thread(s, move || {
                        gate.wait();
                        let tracer = if traced { tracer.as_mut() } else { None };
                        let budget = budget.split(n_drivers as u64);
                        let out = driver.drive(client, depth, budget, progress, tracer);
                        finished.fetch_add(1, Ordering::SeqCst);
                        gate.wait();
                        gate.wait();
                        out
                    })
                })
                .collect();
            let jiffies = procfs::cpu_jiffies();
            let cpu_before = procfs::thread_budget();
            let t0 = now_ns();
            gate.wait();
            // While the drivers run, the main thread cuts the window into
            // slices: ops answered and process CPU per SLICE_NS.
            let mut slices = Vec::new();
            let mut last = (t0, 0u64, procfs::total(&cpu_before).run_ns);
            while finished.load(Ordering::SeqCst) < n_drivers as u64 {
                std::thread::sleep(std::time::Duration::from_nanos(SLICE_NS));
                let now = (
                    now_ns(),
                    progress.load(Ordering::Relaxed),
                    procfs::total(&procfs::thread_budget()).run_ns,
                );
                slices.push(Slice {
                    ns: now.0 - last.0,
                    ops: now.1 - last.1,
                    cpu_ns: now.2.saturating_sub(last.2),
                });
                last = now;
            }
            gate.wait();
            let mut window = Window {
                wall_ns: now_ns() - t0,
                cpu: procfs::budget_since(&procfs::thread_budget(), &cpu_before),
                steal_frac: procfs::steal_frac(jiffies, procfs::cpu_jiffies()),
                before,
                ..Window::default()
            };
            gate.wait();
            window.slices = slices;
            for h in handles {
                window.absorb(h.join().expect("driver thread panicked"));
            }
            window.after = Counters::read(&rig.stores, Some(&rig.server));
            window
        })
    };
    let warm = run_window(opts.budget.scaled(WARMUP_FRAC), false);
    let mut window = run_window(opts.budget, opts.traced);
    let mut settled = window.after.clone();
    let mut settled_user_bytes = window.out.user_bytes_written;
    let mut untimed_failed = warm.out.failed;
    let extra = opts.top_up(def, window.out.attempted);
    if extra > 0 {
        let top_up = run_window(Budget::Ops(extra), false);
        settled_user_bytes += top_up.out.user_bytes_written;
        untimed_failed += top_up.out.failed;
        settled = top_up.after;
    }
    let rss_mb = procfs::vm_hwm_mib();

    let discard = |rig: wire::Rig| {
        drop(rig.clients);
        rig.server.shutdown();
    };
    let wire::Rig {
        server,
        stores,
        clients,
    } = rig;
    // Every acknowledged write is re-read through the final partition map,
    // from stores recovered after the server has drained and stopped.
    let map = server.router().map().load();
    drop(clients);
    server.shutdown();
    let mut expected = vec![0u32; RECORDS as usize];
    for (lane, d) in drivers.iter().enumerate() {
        for id in (lane..RECORDS as usize).step_by(n_drivers) {
            expected[id] = d.acked[id];
        }
    }
    let mut main_tracer = opts.traced.then(|| Tracer::new("main"));
    let teardown = teardown(
        def,
        stores,
        &|key| map.shard_of(key),
        &expected,
        main_tracer.as_mut(),
    )?;
    window.tracers = tracers.into_iter().flatten().chain(main_tracer).collect();
    Ok(RunResult {
        setup_s: median_setup_s(first_setup_s, opts.setup_reps, build, discard)?,
        window,
        settled,
        settled_user_bytes,
        rss_mb,
        teardown,
        untimed_failed,
    })
}

/// Latency percentile of one op kind over a finished (sorted) window, µs.
pub fn latency_us(w: &Window, kind: Kind, q: f64) -> f64 {
    percentile_sorted(&w.out.lat[kind as usize], q) / 1e3
}

/// All kinds pooled, sorted.
pub fn pooled_latencies(w: &Window) -> Vec<u32> {
    let mut all: Vec<u32> = KINDS
        .iter()
        .flat_map(|k| w.out.lat[*k as usize].iter().copied())
        .collect();
    all.sort_unstable();
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::workloads;

    fn tiny(name: &str, seed: u64, ops: u64) -> RunResult {
        let def = workloads().into_iter().find(|w| w.name == name).unwrap();
        execute(
            &def,
            RunOpts {
                seed,
                budget: Budget::Ops(ops),
                traced: false,
                setup_reps: 1,
            },
        )
        .unwrap()
    }

    /// The store's own counters (the cost ledger is process-wide, and other
    /// tests of this binary run beside this one).
    fn store_counters(r: &RunResult) -> Vec<(&'static str, u64)> {
        r.window
            .after
            .n
            .iter()
            .filter(|(k, _)| !k.starts_with("ledger."))
            .map(|(k, v)| (*k, v - r.window.before.get(k)))
            .collect()
    }

    #[test]
    fn same_seed_repeats_every_counter_in_process() {
        // 1 % of the nominal op counts.
        for (name, ops) in [("store_hot", 40_000), ("store_cold", 20_000)] {
            let (a, b, c) = (tiny(name, 5, ops), tiny(name, 5, ops), tiny(name, 6, ops));
            assert_eq!((a.failed(), b.failed(), c.failed()), (0, 0, 0), "{name}");
            assert_eq!(a.window.out.attempted, ops);
            assert_eq!(a.teardown.checked, RECORDS);
            assert_eq!(store_counters(&a), store_counters(&b), "{name}");
            assert_ne!(
                store_counters(&a),
                store_counters(&c),
                "{name}: another seed"
            );
            let (ma, mb) = (a.end_to_end(), b.end_to_end());
            for m in ["write_amp", "space_amp"] {
                assert_eq!(ma[m], mb[m], "{name} {m}");
                assert!(ma[m] > 0.0, "{name} {m}");
            }
        }
        let cold = tiny("store_cold", 5, 20_000);
        assert!(
            cold.window.delta("tree.fetches") > 0,
            "the cold store must miss"
        );
        assert!(cold.window.delta("dev.reads") > 0);
    }

    #[test]
    fn served_workloads_lose_nothing_and_report_every_metric() {
        for name in ["wire_rtt", "wire_pipelined"] {
            let r = tiny(name, 9, 12_000);
            assert_eq!(r.failed(), 0, "{name}: {:?}", r.notes().collect::<Vec<_>>());
            assert_eq!(r.teardown.checked, RECORDS);
            assert!(r.window.delta("wal.bytes") > 0);
            let shard = r.window.cpu.get("shard").copied().unwrap_or_default();
            assert_eq!(shard.threads, wire::SHARDS as u64);
            assert!(shard.run_ns > 0);
            let m = r.end_to_end();
            for spec in crate::spec::END_TO_END {
                assert!(
                    m[spec.name] > 0.0,
                    "{name} {} is {}",
                    spec.name,
                    m[spec.name]
                );
            }
        }
    }

    #[test]
    fn a_lost_write_is_counted_not_hidden() {
        let def = workloads().into_iter().next().unwrap();
        let store = Arc::new(store_builder(def.memory_budget, true).build());
        load_store(&store, 0..RECORDS);
        // Key 7 was "acknowledged" at version 3, but the store never saw it.
        let mut expected = vec![0u32; RECORDS as usize];
        expected[7] = 3;
        let td = teardown(&def, vec![store], &|_| 0, &expected, None).unwrap();
        assert_eq!((td.checked, td.lost), (RECORDS, 1));
        assert!(td.notes[0].contains("id 7"), "{:?}", td.notes);
    }

    #[test]
    fn histogram_difference() {
        let h = dcs_telemetry::Histogram::new();
        h.record(3);
        let before = h.snapshot();
        h.record(100);
        h.record(120);
        let d = hist_since(&h.snapshot(), &before);
        assert_eq!((d.count, d.sum), (2, 220));
        assert!(d.quantile(0.5) >= 64.0);
    }
}
