//! `BENCH_server.json`: the load generator's machine-readable report.
//!
//! Built as a [`Json`] value; the key names and nesting below are what
//! CI's Python gates read and what `EXPERIMENTS.md` cites for the
//! wire-level vs. in-process comparison.

use crate::metrics::{LatencySummary, ShardSnapshot};
use dcs_telemetry::{obj, Json};

/// Achieved-io-depth histogram aggregated across the shards' devices.
///
/// Serving one miss at a time pins this at depth 1; the shards' parked
/// misses and speculative batch reads push it higher — this is the
/// report's direct evidence of device-level concurrency.
#[derive(Debug, Clone, Default)]
pub struct IoDepthReport {
    /// I/Os sampled across all shard devices.
    pub samples: u64,
    /// Mean achieved depth.
    pub mean: f64,
    /// Deepest concurrency observed on any shard device.
    pub max: u64,
    /// `(depth, count)` pairs for the non-empty buckets.
    pub buckets: Vec<(u64, u64)>,
}

/// Aggregated miss-service accounting across shards.
#[derive(Debug, Clone, Default)]
pub struct MissServiceReport {
    /// GETs that needed a device fetch.
    pub misses: u64,
    /// Most misses parked concurrently on any one shard.
    pub parked_peak: usize,
    /// Miss-service latency. Counts and means are exact sums/weighted
    /// means over the shards; the percentiles are the worst shard's
    /// (a conservative upper bound — power-of-two histograms cannot be
    /// merged after summarization).
    pub latency: LatencySummary,
}

impl MissServiceReport {
    /// Aggregate the per-shard snapshots' miss accounting.
    pub fn from_snapshots(shards: &[ShardSnapshot]) -> Self {
        let mut out = MissServiceReport::default();
        let mut weighted_mean = 0.0;
        for s in shards {
            out.misses += s.misses;
            out.parked_peak = out.parked_peak.max(s.parked_peak);
            let l = &s.miss_latency;
            out.latency.count += l.count;
            weighted_mean += l.mean_nanos * l.count as f64;
            out.latency.p50_nanos = out.latency.p50_nanos.max(l.p50_nanos);
            out.latency.p95_nanos = out.latency.p95_nanos.max(l.p95_nanos);
            out.latency.p99_nanos = out.latency.p99_nanos.max(l.p99_nanos);
            out.latency.max_nanos = out.latency.max_nanos.max(l.max_nanos);
        }
        if out.latency.count > 0 {
            out.latency.mean_nanos = weighted_mean / out.latency.count as f64;
        }
        out
    }
}

/// Dynamic-placement accounting: the final partition map's shape, what
/// the rebalancer did during the run, and how evenly the shards ended up
/// sharing the executed operations — the report's direct evidence for
/// (or against) the hot-shard kill.
#[derive(Debug, Clone, Default)]
pub struct PlacementReport {
    /// Whether the background rebalancer ran.
    pub rebalance_enabled: bool,
    /// Final partition-map epoch (0 = never changed).
    pub map_epoch: u64,
    /// Ranges in the final map.
    pub map_ranges: usize,
    /// Range migrations executed.
    pub moves: u64,
    /// Range splits executed.
    pub splits: u64,
    /// Range merges executed.
    pub merges: u64,
    /// Records copied/replayed by migrations.
    pub migrated_records: u64,
    /// Requests answered `MOVED` across all shards.
    pub moved_redirects: u64,
    /// Executed ops per shard (server-side counters).
    pub shard_ops: Vec<u64>,
    /// Hottest/coldest shard op ratio (coldest clamped to 1 op). 1.0 is
    /// a perfect spread; a Zipfian skew without rebalancing runs ~10x.
    pub shard_op_spread: f64,
}

impl PlacementReport {
    /// The hottest/coldest ratio of `ops` (coldest clamped to 1).
    pub fn spread_of(ops: &[u64]) -> f64 {
        let max = ops.iter().max().copied().unwrap_or(0);
        let min = ops.iter().min().copied().unwrap_or(0);
        max as f64 / min.max(1) as f64
    }
}

/// One per-term cost breakdown in the paper's algebra (rent + execution),
/// in catalog dollars with the lifetime factor dropped as everywhere else.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CostTerms {
    /// DRAM rent over the run.
    pub dram_rent: f64,
    /// Flash rent over the run.
    pub flash_rent: f64,
    /// Processor cost of the MM operations.
    pub mm_exec: f64,
    /// Processor + I/O-capability cost of the SS operations.
    pub ss_exec: f64,
}

impl CostTerms {
    /// Sum of the four terms.
    pub fn total(&self) -> f64 {
        self.dram_rent + self.flash_rent + self.mm_exec + self.ss_exec
    }

    /// True when every term of `self` and `other` agrees within `tol`
    /// relative (with a small absolute floor so two near-zero terms —
    /// e.g. flash rent on an in-memory backend — always reconcile).
    pub fn reconciles_with(&self, other: &CostTerms, tol: f64) -> bool {
        let close = |a: f64, b: f64| {
            let scale = a.abs().max(b.abs());
            (a - b).abs() <= tol * scale + 1e-15
        };
        close(self.dram_rent, other.dram_rent)
            && close(self.flash_rent, other.flash_rent)
            && close(self.mm_exec, other.mm_exec)
            && close(self.ss_exec, other.ss_exec)
    }
}

/// The unified telemetry block: exact cost-attribution counts from the
/// process-wide ledger, the per-term costs they price out to, and the
/// cost model's own `price_run` over the same profile. `reconciled`
/// asserts the two derivations agree per-term within 10% — the attribution
/// funnel feeding `dcs_costmodel::accounting` is wired, not drifting.
#[derive(Debug, Clone, Default)]
pub struct TelemetryReport {
    /// Root-span sampling rate during the run (permille).
    pub sampling_permille: u32,
    /// Root spans seen / actually traced / events dropped to ring bounds.
    pub roots_seen: u64,
    /// Root spans that recorded events.
    pub roots_sampled: u64,
    /// Span events dropped to per-thread ring bounds.
    pub events_dropped: u64,
    /// Where the Chrome/Perfetto trace was written ("" = not requested).
    pub trace_out: String,
    /// Measured MM operations (ledger delta over the run).
    pub mm_ops: u64,
    /// Measured SS reads.
    pub ss_reads: u64,
    /// Measured SS writes.
    pub ss_writes: u64,
    /// Measured WAL durability barriers.
    pub wal_barriers: u64,
    /// Measured background maintenance actions.
    pub maintenance_ops: u64,
    /// DRAM occupancy fed to the rent terms (bytes).
    pub avg_dram_bytes: f64,
    /// Flash occupancy fed to the rent terms (bytes).
    pub avg_flash_bytes: f64,
    /// Per-term costs priced directly from the ledger counts.
    pub measured: CostTerms,
    /// Per-term costs from `dcs_costmodel::accounting::price_run`.
    pub modeled: CostTerms,
    /// Every term of `measured` within 10% of `modeled`.
    pub reconciled: bool,
    /// `trace.dropped_spans` registry counter at the end of the run:
    /// span events lost to per-thread ring bounds. CI asserts 0 for the
    /// sampled telemetry run.
    pub trace_dropped_spans: u64,
}

/// One consumer's measured miss-ratio curve and its marginal pricing.
#[derive(Debug, Clone, Default)]
pub struct MrcConsumerReport {
    /// Profiler name (`mrc.record_cache`, `mrc.page_cache`, `mrc.lsm`).
    pub consumer: String,
    /// Accesses observed (before sampling).
    pub accesses: u64,
    /// Accesses past the SHARDS hash threshold.
    pub sampled: u64,
    /// Configured spatial sampling rate.
    pub sample_rate: f64,
    /// Mean entity size over the sampled accesses.
    pub mean_entity_bytes: f64,
    /// `(cache_bytes, miss_ratio)` points, bytes ascending.
    pub points: Vec<(f64, f64)>,
    /// Execution rent saved per extra byte at the current budget.
    pub marginal_value_per_byte: f64,
    /// DRAM price per byte from the catalog.
    pub dram_price_per_byte: f64,
    /// `marginal_value_per_byte - dram_price_per_byte`.
    pub net_per_byte: f64,
    /// Largest curve budget whose marginal byte still pays for itself.
    pub recommended_bytes: f64,
}

/// The `mrc` report block: per-consumer miss-ratio curves fused with the
/// cost catalog (`--mrc`).
#[derive(Debug, Clone, Default)]
pub struct MrcReport {
    /// Whether `--mrc` was requested.
    pub enabled: bool,
    /// Memory budget the marginal pricing was evaluated at (bytes).
    pub budget_bytes: f64,
    /// Where the flight-recorder dump was written ("" = none).
    pub flight_out: String,
    /// Anomaly triggers the flight recorder fired during the run.
    pub triggers: Vec<String>,
    /// Per-consumer curves.
    pub consumers: Vec<MrcConsumerReport>,
}

/// Per-operation-kind latency/throughput line.
#[derive(Debug, Clone)]
pub struct OpReport {
    /// Operation kind name (`get`, `put`, `rmw`, `scan`, ...).
    pub kind: String,
    /// Completed operations of this kind.
    pub count: u64,
    /// BUSY rejections observed for this kind.
    pub busy: u64,
    /// Errors observed for this kind.
    pub errors: u64,
    /// End-to-end latency summary (client-side; open loop measures from
    /// the scheduled arrival, so coordinated omission is included).
    pub latency: LatencySummary,
}

/// The full report written to `BENCH_server.json`.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// Backend name (`caching`, `bwtree`, `masstree`, `lsm`).
    pub backend: String,
    /// `open` or `closed`.
    pub mode: String,
    /// Injected wall-clock device read latency (nanoseconds; 0 = none).
    pub device_latency_nanos: u64,
    /// Shards serving.
    pub shards: usize,
    /// Client connections.
    pub connections: usize,
    /// Records loaded before the measured run.
    pub records: u64,
    /// Value payload bytes.
    pub value_len: usize,
    /// Open-loop target rate (ops/s; 0 for closed loop).
    pub target_rate: f64,
    /// Operations issued during the measured run.
    pub ops_issued: u64,
    /// Operations answered (any response, including BUSY/error).
    pub ops_completed: u64,
    /// Wall-clock seconds of the measured run.
    pub duration_secs: f64,
    /// Completed (non-BUSY, non-error) ops per second.
    pub throughput_ops_per_sec: f64,
    /// Per-kind breakdown.
    pub ops: Vec<OpReport>,
    /// Per-shard server-side counters at shutdown.
    pub shard_snapshots: Vec<ShardSnapshot>,
    /// Achieved-io-depth histogram across shard devices.
    pub io_depth: IoDepthReport,
    /// Aggregated miss-service accounting.
    pub miss_service: MissServiceReport,
    /// Unified telemetry: span tracing stats plus measured-vs-modeled
    /// cost attribution in the paper's terms.
    pub telemetry: TelemetryReport,
    /// Miss-ratio curves + marginal cost-per-byte per memory consumer.
    pub mrc: MrcReport,
    /// Dynamic placement: final map shape, rebalancer actions, per-shard
    /// op spread.
    pub placement: PlacementReport,
    /// Writes acknowledged by the server during the run.
    pub acked_writes: u64,
    /// Distinct acked keys re-read from the backends after drain shutdown.
    pub verified_keys: u64,
    /// Acked keys missing after shutdown — must be zero.
    pub missing_keys: u64,
}

fn cost_terms_json(t: &CostTerms) -> Json {
    obj! {
        "dram_rent": t.dram_rent,
        "flash_rent": t.flash_rent,
        "mm_exec": t.mm_exec,
        "ss_exec": t.ss_exec,
        "total": t.total(),
    }
}

fn latency_json(l: &LatencySummary) -> Json {
    obj! {
        "count": l.count,
        "mean_us": l.mean_nanos / 1000.0,
        "p50_us": l.p50_nanos / 1000.0,
        "p95_us": l.p95_nanos / 1000.0,
        "p99_us": l.p99_nanos / 1000.0,
        "max_us": l.max_nanos as f64 / 1000.0,
    }
}

/// `[[a, b], ...]`: how the report encodes curve points and histogram
/// buckets.
fn pairs<T: Copy + Into<Json>>(items: &[(T, T)]) -> Json {
    Json::arr(items.iter().map(|&(a, b)| Json::arr([a, b])))
}

impl BenchReport {
    /// Serialize to a JSON document (newline-terminated).
    pub fn to_json(&self) -> String {
        let ops = self.ops.iter().map(|o| {
            obj! {
                "kind": o.kind.as_str(),
                "count": o.count,
                "busy": o.busy,
                "errors": o.errors,
                "latency": latency_json(&o.latency),
            }
        });
        let shards = self.shard_snapshots.iter().enumerate().map(|(i, s)| {
            let mean_batch = s.batched_ops as f64 / s.batches.max(1) as f64;
            obj! {
                "shard": i,
                "ops": s.total_ops(),
                "busy_rejections": s.busy_rejections,
                "batches": s.batches,
                "mean_batch": mean_batch,
                "max_batch": s.max_batch,
                "queue_depth_high_water": s.depth_high_water,
                "group_commits": s.group_commits,
                "group_committed_records": s.group_committed_records,
                "misses": s.misses,
                "parked_peak": s.parked_peak,
                "read_latency": latency_json(&s.read_latency),
                "write_latency": latency_json(&s.write_latency),
                "miss_service": latency_json(&s.miss_latency),
            }
        });
        let p = &self.placement;
        let t = &self.telemetry;
        let mrc_consumers = self.mrc.consumers.iter().map(|c| {
            obj! {
                "consumer": c.consumer.as_str(),
                "accesses": c.accesses,
                "sampled": c.sampled,
                "sample_rate": c.sample_rate,
                "mean_entity_bytes": c.mean_entity_bytes,
                "points": pairs(&c.points),
                "marginal": obj! {
                    "value_per_byte": c.marginal_value_per_byte,
                    "dram_price_per_byte": c.dram_price_per_byte,
                    "net_per_byte": c.net_per_byte,
                },
                "recommended_bytes": c.recommended_bytes,
            }
        });
        let doc = obj! {
            "bench": "server",
            "backend": self.backend.as_str(),
            "mode": self.mode.as_str(),
            "device_latency_nanos": self.device_latency_nanos,
            "shards": self.shards,
            "connections": self.connections,
            "records": self.records,
            "value_len": self.value_len,
            "target_rate": self.target_rate,
            "ops_issued": self.ops_issued,
            "ops_completed": self.ops_completed,
            "duration_secs": self.duration_secs,
            "throughput_ops_per_sec": self.throughput_ops_per_sec,
            "io_depth": obj! {
                "samples": self.io_depth.samples,
                "mean": self.io_depth.mean,
                "max": self.io_depth.max,
                "buckets": pairs(&self.io_depth.buckets),
            },
            "miss_service": obj! {
                "misses": self.miss_service.misses,
                "parked_peak": self.miss_service.parked_peak,
                "latency": latency_json(&self.miss_service.latency),
            },
            "placement": obj! {
                "rebalance_enabled": p.rebalance_enabled,
                "map_epoch": p.map_epoch,
                "map_ranges": p.map_ranges,
                "moves": p.moves,
                "splits": p.splits,
                "merges": p.merges,
                "migrated_records": p.migrated_records,
                "moved_redirects": p.moved_redirects,
                "shard_ops": Json::arr(p.shard_ops.iter().copied()),
                "shard_op_spread": p.shard_op_spread,
            },
            "telemetry": obj! {
                "sampling_permille": t.sampling_permille,
                "spans": obj! {
                    "roots_seen": t.roots_seen,
                    "roots_sampled": t.roots_sampled,
                    "events_dropped": t.events_dropped,
                },
                "trace_dropped_spans": t.trace_dropped_spans,
                "trace_out": t.trace_out.as_str(),
                "cost_counts": obj! {
                    "mm_ops": t.mm_ops,
                    "ss_reads": t.ss_reads,
                    "ss_writes": t.ss_writes,
                    "wal_barriers": t.wal_barriers,
                    "maintenance_ops": t.maintenance_ops,
                },
                "avg_dram_bytes": t.avg_dram_bytes,
                "avg_flash_bytes": t.avg_flash_bytes,
                "cost_attribution": obj! {
                    "measured": cost_terms_json(&t.measured),
                    "modeled": cost_terms_json(&t.modeled),
                    "reconciled_within_10pct": t.reconciled,
                },
            },
            "mrc": obj! {
                "enabled": self.mrc.enabled,
                "budget_bytes": self.mrc.budget_bytes,
                "flight_out": self.mrc.flight_out.as_str(),
                "triggers": Json::arr(self.mrc.triggers.iter().map(String::as_str)),
                "consumers": Json::arr(mrc_consumers),
            },
            "ops": Json::arr(ops),
            "shards_detail": Json::arr(shards),
            "verification": obj! {
                "acked_writes": self.acked_writes,
                "verified_keys": self.verified_keys,
                "missing_keys": self.missing_keys,
            },
        };
        format!("{doc}\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_carries_every_key_path_ci_reads() {
        let report = BenchReport {
            backend: "caching".into(),
            mode: "open".into(),
            device_latency_nanos: 200_000,
            shards: 4,
            connections: 2,
            records: 1000,
            value_len: 100,
            target_rate: f64::NAN,
            ops_issued: 10,
            ops_completed: 10,
            duration_secs: 1.5,
            throughput_ops_per_sec: 6.667,
            ops: vec![OpReport {
                kind: "get".into(),
                count: 10,
                busy: 1,
                errors: 0,
                latency: LatencySummary::default(),
            }],
            shard_snapshots: vec![ShardSnapshot::default()],
            io_depth: IoDepthReport {
                samples: 100,
                mean: 2.5,
                max: 8,
                buckets: vec![(1, 60), (4, 40)],
            },
            miss_service: MissServiceReport {
                misses: 7,
                parked_peak: 3,
                latency: LatencySummary::default(),
            },
            telemetry: TelemetryReport {
                sampling_permille: 10,
                roots_seen: 1000,
                roots_sampled: 10,
                events_dropped: 0,
                trace_out: "trace.json".into(),
                mm_ops: 900,
                ss_reads: 80,
                ss_writes: 20,
                wal_barriers: 5,
                maintenance_ops: 3,
                avg_dram_bytes: 1.0e6,
                avg_flash_bytes: 2.0e6,
                measured: CostTerms {
                    dram_rent: 1.0e-9,
                    flash_rent: 2.0e-10,
                    mm_exec: 3.0e-8,
                    ss_exec: 4.0e-7,
                },
                modeled: CostTerms {
                    dram_rent: 1.0e-9,
                    flash_rent: 2.0e-10,
                    mm_exec: 3.0e-8,
                    ss_exec: 4.0e-7,
                },
                reconciled: true,
                trace_dropped_spans: 0,
            },
            mrc: MrcReport {
                enabled: true,
                budget_bytes: 4.0e6,
                flight_out: "out\\flight \"1\".json".into(),
                triggers: vec!["p95 regression\n\u{1}".into()],
                consumers: vec![MrcConsumerReport {
                    consumer: "mrc.record_cache".into(),
                    accesses: 10_000,
                    sampled: 100,
                    sample_rate: 0.01,
                    mean_entity_bytes: 108.0,
                    points: vec![(1.0e6, 0.42), (2.0e6, 0.1234)],
                    marginal_value_per_byte: 2.0e-8,
                    dram_price_per_byte: 5.0e-9,
                    net_per_byte: 1.5e-8,
                    recommended_bytes: 2.0e6,
                }],
            },
            placement: PlacementReport {
                rebalance_enabled: true,
                map_epoch: 3,
                map_ranges: 6,
                moves: 2,
                splits: 1,
                merges: 0,
                migrated_records: 1234,
                moved_redirects: 17,
                shard_ops: vec![100, 80, 90, 95],
                shard_op_spread: 1.25,
            },
            acked_writes: 5,
            verified_keys: 5,
            missing_keys: 0,
        };
        let doc = Json::parse(&report.to_json()).expect("report is valid JSON");
        let is = |path: &[&str], want: Json| assert_eq!(doc.at(path), Some(&want), "{path:?}");
        let first = |key: &str| doc.get(key).and_then(|v| v.items().first());
        // The key paths `.github/workflows/ci.yml` reads, by job.
        is(&["throughput_ops_per_sec"], 6.667.into());
        is(&["ops_completed"], 10u64.into());
        is(&["verification", "missing_keys"], 0u64.into());
        is(&["device_latency_nanos"], 200_000u64.into());
        is(&["io_depth", "samples"], 100u64.into());
        is(&["io_depth", "max"], 8u64.into());
        let buckets = Json::arr([Json::arr([1u64, 60]), Json::arr([4u64, 40])]);
        is(&["io_depth", "buckets"], buckets);
        is(&["miss_service", "misses"], 7u64.into());
        is(&["miss_service", "parked_peak"], 3u64.into());
        is(&["miss_service", "latency", "count"], 0u64.into());
        is(&["miss_service", "latency", "p95_us"], 0.0.into());
        let shard = first("shards_detail").expect("one shard");
        assert_eq!(shard.at(&["read_latency", "p95_us"]), Some(&Json::Num(0.0)));
        let get = first("ops").expect("one op kind");
        assert_eq!(get.get("kind"), Some(&Json::from("get")));
        assert_eq!(get.get("count"), Some(&Json::UInt(10)));
        assert_eq!(get.get("busy"), Some(&Json::UInt(1)));
        assert_eq!(get.at(&["latency", "p95_us"]), Some(&Json::Num(0.0)));
        is(&["placement", "rebalance_enabled"], true.into());
        is(&["placement", "map_epoch"], 3u64.into());
        is(&["placement", "moves"], 2u64.into());
        is(&["placement", "migrated_records"], 1234u64.into());
        is(&["placement", "shard_op_spread"], 1.25.into());
        is(&["placement", "shard_ops"], Json::arr([100u64, 80, 90, 95]));
        is(&["telemetry", "sampling_permille"], 10u64.into());
        is(&["telemetry", "trace_dropped_spans"], 0u64.into());
        is(&["telemetry", "spans", "roots_sampled"], 10u64.into());
        is(&["telemetry", "cost_counts", "mm_ops"], 900u64.into());
        is(&["telemetry", "cost_counts", "wal_barriers"], 5u64.into());
        let attribution = doc.at(&["telemetry", "cost_attribution"]).expect("block");
        assert_eq!(
            attribution.get("reconciled_within_10pct"),
            Some(&true.into())
        );
        // Cost terms keep full precision: catalog dollars are ~1e-8.
        assert_eq!(
            attribution.at(&["measured", "mm_exec"]),
            Some(&3.0e-8.into())
        );
        is(&["mrc", "enabled"], true.into());
        let consumer = doc
            .at(&["mrc", "consumers"])
            .and_then(|c| c.items().first());
        let consumer = consumer.expect("one consumer");
        assert_eq!(consumer.get("consumer"), Some(&"mrc.record_cache".into()));
        let points = Json::arr([Json::arr([1.0e6, 0.42]), Json::arr([2.0e6, 0.1234])]);
        assert_eq!(consumer.get("points"), Some(&points));
        assert_eq!(
            consumer.at(&["marginal", "net_per_byte"]),
            Some(&1.5e-8.into())
        );
        assert_eq!(consumer.get("recommended_bytes"), Some(&2.0e6.into()));
        // Hostile strings survive the one escape routine; a non-finite
        // number is `null`, never a bare NaN.
        is(&["mrc", "flight_out"], "out\\flight \"1\".json".into());
        is(&["mrc", "triggers"], Json::arr(["p95 regression\n\u{1}"]));
        is(&["target_rate"], Json::Null);
    }

    #[test]
    fn spread_handles_degenerate_shard_counts() {
        assert_eq!(PlacementReport::spread_of(&[]), 0.0);
        assert_eq!(PlacementReport::spread_of(&[10, 10]), 1.0);
        assert_eq!(PlacementReport::spread_of(&[100, 10]), 10.0);
        // A completely idle shard clamps to 1 op instead of dividing by 0.
        assert_eq!(PlacementReport::spread_of(&[50, 0]), 50.0);
    }

    #[test]
    fn cost_terms_reconcile_within_tolerance() {
        let a = CostTerms {
            dram_rent: 1.0,
            flash_rent: 0.0,
            mm_exec: 10.0,
            ss_exec: 100.0,
        };
        // 5% off on every nonzero term: reconciles at 10%, not at 1%.
        let b = CostTerms {
            dram_rent: 1.05,
            flash_rent: 0.0,
            mm_exec: 10.5,
            ss_exec: 105.0,
        };
        assert!(a.reconciles_with(&b, 0.10));
        assert!(!a.reconciles_with(&b, 0.01));
        // Two zero terms always reconcile (absolute floor).
        let z = CostTerms::default();
        assert!(z.reconciles_with(&CostTerms::default(), 0.10));
        assert!((a.total() - 111.0).abs() < 1e-12);
    }

    #[test]
    fn miss_service_aggregates_conservatively() {
        let a = ShardSnapshot {
            misses: 10,
            parked_peak: 2,
            miss_latency: LatencySummary {
                count: 10,
                mean_nanos: 100.0,
                p50_nanos: 90.0,
                p95_nanos: 150.0,
                p99_nanos: 180.0,
                max_nanos: 200,
            },
            ..ShardSnapshot::default()
        };
        let b = ShardSnapshot {
            misses: 30,
            parked_peak: 5,
            miss_latency: LatencySummary {
                count: 30,
                mean_nanos: 300.0,
                p50_nanos: 280.0,
                p95_nanos: 350.0,
                p99_nanos: 390.0,
                max_nanos: 400,
            },
            ..ShardSnapshot::default()
        };
        let agg = MissServiceReport::from_snapshots(&[a, b]);
        assert_eq!(agg.misses, 40);
        assert_eq!(agg.parked_peak, 5);
        assert_eq!(agg.latency.count, 40);
        // Weighted mean: (10*100 + 30*300) / 40 = 250.
        assert!((agg.latency.mean_nanos - 250.0).abs() < 1e-9);
        // Percentiles: the worst shard's.
        assert_eq!(agg.latency.p95_nanos, 350.0);
        assert_eq!(agg.latency.max_nanos, 400);
    }
}
