//! The per-layer metrics of a traced run, from three sources that are all
//! outside the program: counter differences around the window, the
//! scheduler's per-thread accounting grouped by thread role, and the
//! bench-side spans. The probes' numbers are merged in, and the wire
//! workloads get a stage table that says where a round trip goes.

use crate::harness::{Kind, Path, WorkloadDef};
use crate::procfs::{self, SchedTimes};
use crate::run::{hist_since, latency_us, pooled_latencies, Metrics, RunResult};
use crate::stats::percentile_sorted;
use crate::trace;

const MIB: f64 = (1u64 << 20) as f64;

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// One row of the stage table: a thread role's CPU and run-queue wait per
/// op, in microseconds.
#[derive(Debug, Clone, PartialEq)]
pub struct Stage {
    pub name: &'static str,
    pub cpu_us: f64,
    pub wait_us: f64,
    pub wakeups: f64,
}

/// The thread roles a served op passes through, in path order.
const STAGE_ROLES: [(&str, &str); 5] = [
    ("driver", "driver (bench)"),
    ("client", "client reader"),
    ("conn_rd", "server conn-rd"),
    ("shard", "server shard"),
    ("conn_wr", "server conn-wr"),
];

pub fn stages(r: &RunResult) -> Vec<Stage> {
    let ops = r.window.correct_ops().max(1) as f64;
    STAGE_ROLES
        .iter()
        .map(|(role, name)| {
            let t = r.window.cpu.get(role).copied().unwrap_or_default();
            Stage {
                name,
                cpu_us: t.run_ns as f64 / 1e3 / ops,
                wait_us: t.wait_ns as f64 / 1e3 / ops,
                wakeups: t.slices as f64 / ops,
            }
        })
        .collect()
}

/// Every per-layer metric of the contract. `traced` is the traced run,
/// `reference_tput` the untraced throughput of the same budget, `probes`
/// what [`crate::probes::run_all`] returned.
pub fn metrics(
    def: &WorkloadDef,
    traced: &RunResult,
    reference_tput: f64,
    probes: &Metrics,
) -> Metrics {
    let w = &traced.window;
    let ops = w.correct_ops().max(1);
    let kop = ops as f64 / 1e3;
    let per_kop = |key: &str| w.delta(key) as f64 / kop;
    let role = |name: &str| -> SchedTimes { w.cpu.get(name).copied().unwrap_or_default() };
    let us_per_op = |ns: u64| ns as f64 / 1e3 / ops as f64;
    let mut m = probes.clone();

    // bench: quality flags of the run itself.
    m.insert(
        "bench.failed_frac",
        ratio(traced.failed(), traced.attempted()),
    );
    m.insert("bench.mean_throughput_ops_s", traced.mean_throughput());
    m.insert("bench.mean_cpu_us_per_op", traced.mean_cpu_us_per_op());
    m.insert("bench.get_p99_us", latency_us(w, Kind::Get, 0.99));
    m.insert("bench.put_p99_us", latency_us(w, Kind::Put, 0.99));
    m.insert(
        "bench.op_p9999_us",
        percentile_sorted(&pooled_latencies(w), 0.9999) / 1e3,
    );
    m.insert("bench.scan_p50_us", latency_us(w, Kind::Scan, 0.5));
    m.insert("bench.rmw_p50_us", latency_us(w, Kind::Rmw, 0.5));
    m.insert(
        "bench.window_spread",
        crate::harness::window_spread(&w.slices),
    );
    m.insert("bench.cpu_steal_frac", w.steal_frac);
    m.insert(
        "bench.ctx_switches_per_op",
        ratio(procfs::total(&w.cpu).slices, ops),
    );
    m.insert("bench.drv_cpu_us_per_op", us_per_op(role("driver").run_ns));
    m.insert(
        "bench.trace_overhead_frac",
        1.0 - traced.throughput() / reference_tput,
    );
    // What the stages do not account for: on the wire, a GET's median
    // against the sum of every role's CPU per op (on the one CPU the
    // process runs on the roles take turns, and a role's run-queue wait is
    // another role's CPU); in-process, against the store call measured
    // alone.
    let get_p50 = latency_us(w, Kind::Get, 0.5);
    let explained = match def.path {
        Path::Wire { .. } => stages(traced).iter().map(|s| s.cpu_us).sum(),
        Path::InProcess => probes.get("core.get_ns").copied().unwrap_or(0.0) / 1e3,
    };
    m.insert(
        "bench.unexplained_frac",
        if get_p50 > 0.0 {
            (get_p50 - explained) / get_p50
        } else {
            0.0
        },
    );

    // core
    m.insert("core.footprint_mb", w.after.footprint_bytes as f64 / MIB);
    m.insert("core.checkpoint_ms", traced.teardown.checkpoint_ms);
    m.insert("core.recover_ms", traced.teardown.recover_ms);

    // bwtree
    m.insert(
        "bwtree.ss_fraction",
        ratio(
            w.delta("tree.ss_ops"),
            w.delta("tree.ss_ops") + w.delta("tree.mm_ops"),
        ),
    );
    m.insert(
        "bwtree.record_cache_hit_frac",
        ratio(w.delta("tree.record_cache_hits"), w.delta("tree.gets")),
    );
    m.insert(
        "bwtree.consolidations_per_kop",
        per_kop("tree.consolidations"),
    );
    m.insert("bwtree.splits_per_kop", per_kop("tree.splits"));
    m.insert("bwtree.fetches_per_kop", per_kop("tree.fetches"));

    // llama.cache: the sweep is its own span only where the driver calls it
    // (in-process traced runs); a server sweeps inside its shard threads.
    let spans = trace::aggregate(&w.tracers);
    let sweep = spans.get("llama.cache.sweep").copied().unwrap_or_default();
    m.insert(
        "llama.cache.sweep_ms",
        ratio(sweep.total_ns, sweep.count) / 1e6,
    );
    m.insert("llama.cache.sweep_share", ratio(sweep.total_ns, w.wall_ns));
    m.insert("llama.cache.sweeps_per_kop", per_kop("cache.sweeps"));
    m.insert(
        "llama.cache.evictions_per_kop",
        per_kop("cache.pages_evicted"),
    );
    m.insert(
        "llama.cache.bytes_released_per_evict",
        ratio(
            w.delta("cache.bytes_released"),
            w.delta("cache.pages_evicted"),
        ),
    );

    // llama.lss
    m.insert("llama.lss.gc_ms", traced.teardown.gc_ms);
    m.insert(
        "llama.lss.reads_per_fetch",
        ratio(w.delta("lss.flash_reads"), w.delta("tree.fetches")),
    );
    m.insert(
        "llama.lss.buffer_hit_frac",
        ratio(
            w.delta("lss.buffer_hits"),
            w.delta("lss.buffer_hits") + w.delta("lss.flash_reads"),
        ),
    );
    m.insert(
        "llama.lss.stored_per_payload",
        ratio(w.delta("lss.stored_bytes"), w.delta("lss.payload_bytes")),
    );
    m.insert(
        "llama.lss.segments_collected",
        (w.delta("lss.segments_collected") + traced.teardown.gc_segments) as f64,
    );
    m.insert(
        "llama.lss.parts_relocated_per_kop",
        (w.delta("lss.parts_relocated") + traced.teardown.gc_parts) as f64 / kop,
    );
    m.insert("llama.lss.live_mb", traced.teardown.live_bytes as f64 / MIB);

    // flashsim: the store devices (a WAL's device is not reachable from
    // outside; its traffic shows as tc.log.* and in write_amp).
    m.insert("flashsim.reads_per_kop", per_kop("dev.reads"));
    m.insert("flashsim.writes_per_kop", per_kop("dev.writes"));
    m.insert(
        "flashsim.written_mb",
        w.delta("dev.bytes_written") as f64 / MIB,
    );
    m.insert("flashsim.syncs_per_kop", per_kop("dev.syncs"));
    m.insert(
        "flashsim.io_depth_mean",
        ratio(w.delta("dev.depth_sum"), w.delta("dev.depth_count")),
    );

    // tc.log
    m.insert(
        "tc.log.records_per_commit",
        ratio(
            w.delta("shard.group_committed_records"),
            w.delta("shard.group_commits"),
        ),
    );
    m.insert("tc.log.barriers_per_kop", per_kop("ledger.wal_barriers"));
    m.insert("tc.log.resident_mb", w.after.get("wal.bytes") as f64 / MIB);

    // server.mailbox
    let depth = hist_since(&w.after.mailbox_depth, &w.before.mailbox_depth);
    m.insert("server.mailbox.depth_p50", depth.quantile(0.5));
    m.insert("server.mailbox.depth_max", depth.quantile(1.0));
    m.insert(
        "server.mailbox.busy_frac",
        ratio(
            w.delta("mailbox.rejected_busy"),
            w.delta("mailbox.rejected_busy") + w.delta("mailbox.accepted"),
        ),
    );

    // server.shard
    let shard = role("shard");
    m.insert("server.shard.cpu_us_per_op", us_per_op(shard.run_ns));
    m.insert("server.shard.runq_wait_us_per_op", us_per_op(shard.wait_ns));
    m.insert("server.shard.wakeups_per_op", ratio(shard.slices, ops));
    m.insert(
        "server.shard.mean_batch",
        ratio(w.delta("shard.batched_ops"), w.delta("shard.batches")),
    );
    let shard_p50_us = |later, earlier| hist_since(later, earlier).quantile(0.5) / 1e3;
    m.insert(
        "server.shard.read_p50_us",
        shard_p50_us(&w.after.shard_read_ns, &w.before.shard_read_ns),
    );
    m.insert(
        "server.shard.write_p50_us",
        shard_p50_us(&w.after.shard_write_ns, &w.before.shard_write_ns),
    );
    let per_shard: Vec<f64> = w
        .after
        .shard_ops
        .iter()
        .zip(&w.before.shard_ops)
        .map(|(a, b)| (a - b) as f64)
        .collect();
    m.insert(
        "server.shard.op_spread",
        crate::stats::range_spread(&per_shard).unwrap_or(0.0),
    );

    // server.server
    let (rd, wr) = (role("conn_rd"), role("conn_wr"));
    m.insert("server.server.rd_cpu_us_per_op", us_per_op(rd.run_ns));
    m.insert("server.server.wr_cpu_us_per_op", us_per_op(wr.run_ns));
    m.insert(
        "server.server.rd_runq_wait_us_per_op",
        us_per_op(rd.wait_ns),
    );
    m.insert(
        "server.server.wr_runq_wait_us_per_op",
        us_per_op(wr.wait_ns),
    );
    m.insert("server.server.rd_wakeups_per_op", ratio(rd.slices, ops));
    m.insert("server.server.wr_wakeups_per_op", ratio(wr.slices, ops));
    m.insert(
        "server.server.threads",
        (rd.threads + wr.threads + shard.threads + role("accept").threads) as f64,
    );

    // server.client
    let client = role("client");
    m.insert("server.client.cpu_us_per_op", us_per_op(client.run_ns));
    m.insert(
        "server.client.runq_wait_us_per_op",
        us_per_op(client.wait_ns),
    );
    m.insert("server.client.wakeups_per_op", ratio(client.slices, ops));

    // telemetry
    m.insert(
        "telemetry.mm_ops_per_op",
        ratio(w.delta("ledger.mm_ops"), ops),
    );
    m.insert(
        "telemetry.ss_ops_per_op",
        ratio(w.delta("ledger.ss_ops"), ops),
    );
    m
}

/// The stage table of a wire workload, ready to print: each thread role's
/// CPU and run-queue wait per op, what of a GET's median their CPU leaves
/// unexplained, and the probes that say what that CPU is spent on.
pub fn stage_table(traced: &RunResult, layer: &Metrics) -> String {
    let get = |k: &str| layer.get(k).copied().unwrap_or(0.0);
    let mut s = String::new();
    s.push_str("  stage                 cpu us/op  runq-wait us/op  wake-ups/op\n");
    let mut sum = 0.0;
    for st in stages(traced) {
        sum += st.cpu_us;
        s.push_str(&format!(
            "  {:<21} {:>9.2}  {:>15.2}  {:>11.2}\n",
            st.name, st.cpu_us, st.wait_us, st.wakeups
        ));
    }
    let get_p50 = latency_us(&traced.window, Kind::Get, 0.5);
    s.push_str(&format!(
        "  sum of cpu {sum:.2} us/op; end-to-end get p50 {get_p50:.2} us; unexplained {:.1} %\n",
        get("bench.unexplained_frac") * 100.0
    ));
    s.push_str("  inside those stages (probes, us per call):\n");
    let protocol_us = (get("server.protocol.req_encode_ns")
        + get("server.protocol.req_decode_ns")
        + get("server.protocol.resp_encode_ns")
        + get("server.protocol.resp_decode_ns"))
        / 1e3;
    for (name, us) in [
        ("protocol (4 codec calls)", protocol_us),
        ("client submit", get("server.client.submit_ns") / 1e3),
        ("route", get("rebalance.route_ns") / 1e3),
        ("mailbox hop", get("server.mailbox.hop_us")),
        ("shard get, no socket", get("server.shard.get_us")),
        ("store get", get("core.get_ns") / 1e3),
        ("WAL barrier (1 record)", get("tc.log.commit_us.b1")),
        ("null round trip", get("server.client.null_rtt_us")),
    ] {
        s.push_str(&format!("    {name:<26} {us:>9.2}\n"));
    }
    s
}
