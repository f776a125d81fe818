//! The benchmark's contract: workloads, metric names, units, directions and
//! bounds. `BENCHMARK.json` at the repo root is generated from these tables
//! (`dcs-benchmark emit-spec`) and a self-test keeps the two identical.

/// Which way a metric gets better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric of the contract. `bound` is the share of the baseline median
/// by which an end-to-end metric may worsen; per-layer metrics have none.
#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

/// One fixed workload.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

/// Seconds one driver run measures (`BENCHMARK.json` `run_seconds`).
pub const RUN_SECONDS: u64 = 10;

pub const WORKLOADS: [WorkloadSpec; 4] = [
    WorkloadSpec {
        name: "store_hot",
        why: "in-process, data fits memory: core, bwtree, ebr and the periodic llama.cache sweep do all the work; lss, flashsim, tc and server do none",
    },
    WorkloadSpec {
        name: "store_cold",
        why: "in-process, memory an eighth of the data: llama.cache eviction, llama.lss flush/fetch and flashsim I/O-path CPU dominate; ends with checkpoint, crash and recovery",
    },
    WorkloadSpec {
        name: "wire_rtt",
        why: "served over TCP, 1 closed-loop client at depth 1: client, protocol, server threads, mailbox and shard are the round trip; the store is ~3 us of it, so store changes should not move it",
    },
    WorkloadSpec {
        name: "wire_pipelined",
        why: "served over TCP, 2 clients each keeping 16 requests in flight, write-heavy: mailboxes hold depth, shards batch, tc.log group commit amortises barriers",
    },
];

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a user of the store sees. Every workload reports all of them.
pub const END_TO_END: &[MetricSpec] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("throughput_ops_s", "ops/s", Higher, 0.25),
    e2e("cpu_us_per_op", "us", Lower, 0.25),
    e2e("get_p50_us", "us", Lower, 0.25),
    e2e("put_p50_us", "us", Lower, 0.25),
    e2e("rss_mb", "MiB", Lower, 0.05),
    e2e("write_amp", "ratio", Lower, 0.05),
    e2e("space_amp", "ratio", Lower, 0.05),
];

/// Single-layer metrics, grouped by the crate (or module) they describe.
pub const PER_LAYER: &[MetricSpec] = &[
    // Quality flags of the run itself.
    layer("bench.failed_frac", "ratio", Lower),
    layer("bench.mean_throughput_ops_s", "ops/s", Higher),
    layer("bench.mean_cpu_us_per_op", "us", Lower),
    layer("bench.get_p99_us", "us", Lower),
    layer("bench.put_p99_us", "us", Lower),
    layer("bench.op_p9999_us", "us", Lower),
    layer("bench.scan_p50_us", "us", Lower),
    layer("bench.rmw_p50_us", "us", Lower),
    layer("bench.window_spread", "ratio", Lower),
    layer("bench.cpu_steal_frac", "ratio", Lower),
    layer("bench.ctx_switches_per_op", "count", Lower),
    layer("bench.drv_cpu_us_per_op", "us", Lower),
    layer("bench.trace_overhead_frac", "ratio", Lower),
    layer("bench.unexplained_frac", "ratio", Lower),
    layer("workload.next_op_ns", "ns", Lower),
    layer("core.get_ns", "ns", Lower),
    layer("core.put_ns", "ns", Lower),
    layer("core.scan10_ns", "ns", Lower),
    layer("core.get_miss_us", "us", Lower),
    layer("core.footprint_mb", "MiB", Lower),
    layer("core.checkpoint_ms", "ms", Lower),
    layer("core.recover_ms", "ms", Lower),
    layer("bwtree.get_ns", "ns", Lower),
    layer("bwtree.put_ns", "ns", Lower),
    layer("bwtree.scan10_ns", "ns", Lower),
    layer("bwtree.ss_fraction", "ratio", Lower),
    layer("bwtree.record_cache_hit_frac", "ratio", Higher),
    layer("bwtree.consolidations_per_kop", "1/kop", Lower),
    layer("bwtree.splits_per_kop", "1/kop", Lower),
    layer("bwtree.fetches_per_kop", "1/kop", Lower),
    layer("ebr.pin_ns", "ns", Lower),
    layer("llama.cache.sweep_ms", "ms", Lower),
    layer("llama.cache.sweep_share", "ratio", Lower),
    layer("llama.cache.sweeps_per_kop", "1/kop", Lower),
    layer("llama.cache.evictions_per_kop", "1/kop", Lower),
    layer("llama.cache.bytes_released_per_evict", "B", Higher),
    layer("llama.lss.fetch_us", "us", Lower),
    layer("llama.lss.flush_us", "us", Lower),
    layer("llama.lss.gc_ms", "ms", Lower),
    layer("llama.lss.reads_per_fetch", "ratio", Lower),
    layer("llama.lss.buffer_hit_frac", "ratio", Higher),
    layer("llama.lss.stored_per_payload", "ratio", Lower),
    layer("llama.lss.segments_collected", "count", Higher),
    layer("llama.lss.parts_relocated_per_kop", "1/kop", Lower),
    layer("llama.lss.live_mb", "MiB", Lower),
    layer("flashsim.read_us", "us", Lower),
    layer("flashsim.append_us", "us", Lower),
    layer("flashsim.qp_submit_ns", "ns", Lower),
    layer("flashsim.qp_poll_ns", "ns", Lower),
    layer("flashsim.reads_per_kop", "1/kop", Lower),
    layer("flashsim.writes_per_kop", "1/kop", Lower),
    layer("flashsim.written_mb", "MiB", Lower),
    layer("flashsim.syncs_per_kop", "1/kop", Lower),
    layer("flashsim.io_depth_mean", "count", Higher),
    layer("tc.log.commit_us.b1", "us", Lower),
    layer("tc.log.commit_us.b16", "us", Lower),
    layer("tc.log.commit_us.b64", "us", Lower),
    layer("tc.log.records_per_commit", "count", Higher),
    layer("tc.log.barriers_per_kop", "1/kop", Lower),
    layer("tc.log.resident_mb", "MiB", Lower),
    layer("server.protocol.req_encode_ns", "ns", Lower),
    layer("server.protocol.req_decode_ns", "ns", Lower),
    layer("server.protocol.resp_encode_ns", "ns", Lower),
    layer("server.protocol.resp_decode_ns", "ns", Lower),
    layer("server.mailbox.send_ns", "ns", Lower),
    layer("server.mailbox.hop_us", "us", Lower),
    layer("server.mailbox.depth_p50", "count", Lower),
    layer("server.mailbox.depth_max", "count", Lower),
    layer("server.mailbox.busy_frac", "ratio", Lower),
    layer("server.shard.get_us", "us", Lower),
    layer("server.shard.put_us", "us", Lower),
    layer("server.shard.cpu_us_per_op", "us", Lower),
    layer("server.shard.runq_wait_us_per_op", "us", Lower),
    layer("server.shard.wakeups_per_op", "count", Lower),
    layer("server.shard.mean_batch", "count", Higher),
    layer("server.shard.read_p50_us", "us", Lower),
    layer("server.shard.write_p50_us", "us", Lower),
    layer("server.shard.op_spread", "ratio", Lower),
    layer("server.server.rd_cpu_us_per_op", "us", Lower),
    layer("server.server.wr_cpu_us_per_op", "us", Lower),
    layer("server.server.rd_runq_wait_us_per_op", "us", Lower),
    layer("server.server.wr_runq_wait_us_per_op", "us", Lower),
    layer("server.server.rd_wakeups_per_op", "count", Lower),
    layer("server.server.wr_wakeups_per_op", "count", Lower),
    layer("server.server.threads", "count", Lower),
    layer("server.client.cpu_us_per_op", "us", Lower),
    layer("server.client.runq_wait_us_per_op", "us", Lower),
    layer("server.client.wakeups_per_op", "count", Lower),
    layer("server.client.submit_ns", "ns", Lower),
    layer("server.client.null_rtt_us", "us", Lower),
    layer("rebalance.route_ns", "ns", Lower),
    layer("telemetry.span_off_ns", "ns", Lower),
    layer("telemetry.span_on_ns", "ns", Lower),
    layer("telemetry.ledger_op_ns", "ns", Lower),
    layer("telemetry.mm_ops_per_op", "count", Lower),
    layer("telemetry.ss_ops_per_op", "count", Lower),
    layer("masstree.get_ns", "ns", Lower),
    layer("masstree.put_ns", "ns", Lower),
    layer("lsm.get_us", "us", Lower),
    layer("lsm.put_us", "us", Lower),
    layer("costmodel.r_measured", "ratio", Lower),
    layer("costmodel.px_measured", "ratio", Lower),
    layer("costmodel.ti_measured_s", "s", Lower),
];

pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[cfg(test)]
pub fn end_to_end(name: &str) -> Option<&'static MetricSpec> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    s.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    s.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let sep = if i + 1 < WORKLOADS.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{sep}\n",
            w.name, w.why
        ));
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 < END_TO_END.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{sep}\n",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound.expect("end-to-end metrics carry a bound")
        ));
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 < PER_LAYER.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{sep}\n",
            m.name,
            m.unit,
            m.better.as_str()
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn charset_ok(s: &str, extra: &str, max: usize) -> bool {
        !s.is_empty()
            && s.len() <= max
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut seen = BTreeSet::new();
        for w in &WORKLOADS {
            assert!(charset_ok(w.name, "_.-", 64), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(seen.insert(w.name), "duplicate {}", w.name);
        }
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(charset_ok(m.name, "_.-", 64), "{}", m.name);
            assert!(m.name.as_bytes()[0].is_ascii_alphanumeric(), "{}", m.name);
            assert!(
                charset_ok(m.unit, "_/%.-", 16),
                "{} unit {}",
                m.name,
                m.unit
            );
            assert!(seen.insert(m.name), "duplicate {}", m.name);
        }
        assert!(END_TO_END
            .iter()
            .all(|m| matches!(m.bound, Some(b) if b > 0.0 && b <= 0.25)));
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let setup = end_to_end("setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
    }

    #[test]
    fn committed_benchmark_json_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "run `dcs-benchmark emit-spec > BENCHMARK.json`"
        );
        assert!(on_disk.len() <= 64 << 10);
    }
}
