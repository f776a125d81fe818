//! Wire-level load generator for `dcs-server`.
//!
//! Starts a sharded server over a chosen backend, drives it through the
//! pipelined TCP client in **closed-loop** (N threads, one request each in
//! flight) or **open-loop** mode (requests issued on an arrival schedule
//! from `dcs_workload::Arrivals`, latency measured from the *scheduled*
//! arrival so coordinated omission is not hidden), then performs a
//! drain-and-flush shutdown and verifies that every acknowledged write is
//! still readable from the backends. Writes one JSON report (`--out`),
//! built where its numbers are measured; CI's gates and the figure bins
//! read it by key path.
//!
//! ```text
//! cargo run --release -p dcs-server --bin loadgen -- \
//!     --backend caching --mode open --rate 50000
//! ```

// The load generator measures wall-clock latency by definition.
#![allow(clippy::disallowed_types)]

use dcs_core::{BackendKind, BackendOpts};
use dcs_costmodel::accounting::{price_run, RunCost, RunProfile};
use dcs_costmodel::mrc_cost::{marginal_at, recommended_bytes, MrcCurvePoint};
use dcs_costmodel::HardwareCatalog;
use dcs_rebalance::PolicyConfig;
use dcs_server::mailbox::Mailbox;
use dcs_server::metrics::LatencyHistogram;
use dcs_server::protocol::{Request, Response};
use dcs_server::{
    Client, ClientConfig, Partitioner, RebalanceConfig, Server, ServerConfig, ShardBackend, Ticket,
};
use dcs_telemetry::{obj, HistogramSnapshot, Json};
use dcs_workload::{keys, Arrivals, KeyDist, OpKind, OpMix, WorkloadSpec};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
struct Args {
    backend: BackendKind,
    mode: String,
    rate: f64,
    ops: u64,
    records: u64,
    shards: usize,
    conns: usize,
    threads: usize,
    value_len: usize,
    workload: String,
    key_dist: String,
    theta: f64,
    rebalance: bool,
    rebalance_tick_ms: u64,
    seed: u64,
    out: String,
    device_latency: u64,
    memory_budget: Option<usize>,
    trace_out: Option<String>,
    trace_sample: u32,
    mrc: bool,
    flight_out: String,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            backend: BackendKind::Caching,
            mode: "closed".into(),
            rate: 50_000.0,
            ops: 100_000,
            records: 20_000,
            shards: 4,
            conns: 4,
            threads: 4,
            value_len: 100,
            workload: "mixed".into(),
            key_dist: "default".into(),
            theta: 0.99,
            rebalance: false,
            rebalance_tick_ms: 20,
            seed: 42,
            out: "BENCH_server.json".into(),
            device_latency: 0,
            memory_budget: None,
            trace_out: None,
            trace_sample: 10,
            mrc: false,
            flight_out: "FLIGHT_server.json".into(),
        }
    }
}

fn parse_args() -> Args {
    let mut args = Args::default();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        if flag == "--help" || flag == "-h" {
            eprintln!(
                "loadgen: wire-level load generator for dcs-server\n\
                 --backend caching|masstree|lsm   (default caching)\n\
                 --mode closed|open                      (default closed)\n\
                 --rate OPS_PER_SEC                      (open loop; default 50000)\n\
                 --ops N                                 (default 100000)\n\
                 --records N                             (default 20000)\n\
                 --shards N                              (default 4)\n\
                 --conns N                               (default 4)\n\
                 --threads N                             (closed loop; default 4)\n\
                 --value-len BYTES                       (default 100)\n\
                 --workload mixed|a|b|c|d|e|f            (default mixed)\n\
                 --key-dist default|uniform|zipfian      (default default: keep\n\
                    the workload's own distribution; otherwise override it)\n\
                 --theta T                               (default 0.99; Zipfian\n\
                    skew for --key-dist zipfian)\n\
                 --rebalance on|off                      (default off; run the\n\
                    background range rebalancer against shard heat)\n\
                 --rebalance-tick-ms MS                  (default 20)\n\
                 --seed N                                (default 42)\n\
                 --out PATH                              (default BENCH_server.json)\n\
                 --device-latency NANOS                  (default 0; injected\n\
                    wall-clock latency per device read)\n\
                 --memory-budget BYTES                   (caching backend only;\n\
                    shrink to force a cold cache and real misses)\n\
                 --trace-out PATH                        (write a Chrome/Perfetto\n\
                    trace of the sampled spans after the run)\n\
                 --trace-sample PERMILLE                 (default 10; root-span\n\
                    sampling rate, 0..=1000. 1000 traces every request)\n\
                 --mrc on|off                            (default off; report\n\
                    per-consumer miss-ratio curves fused with the cost\n\
                    catalog, and write a flight-recorder dump)\n\
                 --flight-out PATH                       (default\n\
                    FLIGHT_server.json; where --mrc writes the dump)"
            );
            std::process::exit(0);
        }
        let value = argv.get(i + 1).unwrap_or_else(|| {
            eprintln!("missing value for {flag}");
            std::process::exit(2);
        });
        match flag {
            "--backend" => {
                args.backend = BackendKind::parse(value).unwrap_or_else(|| {
                    eprintln!("unknown backend '{value}'");
                    std::process::exit(2);
                })
            }
            "--mode" => args.mode = value.clone(),
            "--rate" => args.rate = value.parse().expect("--rate"),
            "--ops" => args.ops = value.parse().expect("--ops"),
            "--records" => args.records = value.parse().expect("--records"),
            "--shards" => args.shards = value.parse().expect("--shards"),
            "--conns" => args.conns = value.parse().expect("--conns"),
            "--threads" => args.threads = value.parse().expect("--threads"),
            "--value-len" => args.value_len = value.parse().expect("--value-len"),
            "--workload" => args.workload = value.clone(),
            "--key-dist" => args.key_dist = value.clone(),
            "--theta" => args.theta = value.parse().expect("--theta"),
            "--rebalance" => {
                args.rebalance = match value.as_str() {
                    "on" => true,
                    "off" => false,
                    other => {
                        eprintln!("--rebalance must be on or off, got '{other}'");
                        std::process::exit(2);
                    }
                }
            }
            "--rebalance-tick-ms" => {
                args.rebalance_tick_ms = value.parse().expect("--rebalance-tick-ms")
            }
            "--seed" => args.seed = value.parse().expect("--seed"),
            "--out" => args.out = value.clone(),
            "--device-latency" => args.device_latency = value.parse().expect("--device-latency"),
            "--memory-budget" => args.memory_budget = Some(value.parse().expect("--memory-budget")),
            "--trace-out" => args.trace_out = Some(value.clone()),
            "--trace-sample" => args.trace_sample = value.parse().expect("--trace-sample"),
            "--mrc" => {
                args.mrc = match value.as_str() {
                    "on" => true,
                    "off" => false,
                    other => {
                        eprintln!("--mrc must be on or off, got '{other}'");
                        std::process::exit(2);
                    }
                }
            }
            "--flight-out" => args.flight_out = value.clone(),
            other => {
                eprintln!("unknown flag '{other}' (try --help)");
                std::process::exit(2);
            }
        }
        i += 2;
    }
    assert!(args.shards > 0 && args.conns > 0 && args.threads > 0);
    assert!(
        args.mode == "open" || args.mode == "closed",
        "--mode must be open or closed"
    );
    assert!(
        matches!(args.key_dist.as_str(), "default" | "uniform" | "zipfian"),
        "--key-dist must be default, uniform, or zipfian"
    );
    args
}

const KINDS: [&str; 4] = ["get", "put", "rmw", "scan"];
const K_GET: usize = 0;
const K_PUT: usize = 1;
const K_RMW: usize = 2;
const K_SCAN: usize = 3;

/// Client-side per-kind accounting.
#[derive(Default)]
struct KindStats {
    count: AtomicU64,
    busy: AtomicU64,
    errors: AtomicU64,
    hist: LatencyHistogram,
}

struct Harness {
    stats: [KindStats; 4],
    /// Key ids whose writes the server acknowledged (ack ⇒ durable).
    acked: Mutex<HashSet<u64>>,
}

impl Harness {
    fn new() -> Self {
        Harness {
            stats: Default::default(),
            acked: Mutex::new(HashSet::new()),
        }
    }

    /// Account one finished request. Only the answer kind the op expects
    /// counts as done; any other (`MOVED` included: the request was not
    /// executed) is an error, records no latency and acks nothing.
    fn settle(
        &self,
        kind: usize,
        key_id: u64,
        outcome: &Result<Response, dcs_server::ClientError>,
        latency: Duration,
    ) {
        let s = &self.stats[kind];
        let executed = match outcome {
            Ok(Response::Busy) => {
                s.busy.fetch_add(1, Ordering::Relaxed);
                return;
            }
            Ok(Response::Value(_)) => kind == K_GET,
            Ok(Response::Ok) => kind == K_PUT || kind == K_RMW,
            Ok(Response::Count(_)) => kind == K_SCAN,
            _ => false,
        };
        if !executed {
            s.errors.fetch_add(1, Ordering::Relaxed);
            return;
        }
        s.count.fetch_add(1, Ordering::Relaxed);
        s.hist.record(latency.as_nanos() as u64);
        if kind == K_PUT || kind == K_RMW {
            self.acked.lock().unwrap().insert(key_id);
        }
    }
}

fn spec_for(args: &Args) -> WorkloadSpec {
    let mut spec = if args.workload == "mixed" {
        // A serving-flavored blend exercising every opcode: reads dominate,
        // writes ride the group-commit path, RMWs stress shard atomicity,
        // short scans cross shard boundaries.
        WorkloadSpec {
            record_count: args.records,
            key_dist: KeyDist::zipfian(0.99),
            mix: OpMix::new(vec![
                (OpKind::Read, 0.50),
                (OpKind::Update, 0.25),
                (OpKind::ReadModifyWrite, 0.15),
                (OpKind::Scan { limit: 10 }, 0.10),
            ]),
            value_len: args.value_len,
            seed: args.seed,
        }
    } else {
        let c = args.workload.chars().next().unwrap_or('b');
        WorkloadSpec::ycsb(c, args.records, args.value_len, args.seed)
    };
    // --key-dist overrides whatever the workload preset picked, so the
    // same op mix can be replayed with and without skew (the rebalancing
    // A/B in CI drives a Zipfian hot shard this way).
    match args.key_dist.as_str() {
        "uniform" => spec.key_dist = KeyDist::Uniform,
        "zipfian" => spec.key_dist = KeyDist::zipfian(args.theta),
        _ => {}
    }
    spec
}

fn request_for(op: &dcs_workload::Operation) -> (usize, Request) {
    let key = keys::encode(op.key_id).to_vec();
    match op.kind {
        OpKind::Read => (K_GET, Request::Get { key }),
        OpKind::Update | OpKind::Insert | OpKind::BlindUpdate => (
            K_PUT,
            Request::Put {
                key,
                value: op.value.clone(),
            },
        ),
        OpKind::ReadModifyWrite => (
            K_RMW,
            Request::Rmw {
                key,
                value: op.value.clone(),
            },
        ),
        OpKind::Scan { limit } => (
            K_SCAN,
            Request::Scan {
                start: key,
                limit: u32::from(limit),
            },
        ),
    }
}

/// Pipelined bulk load; every load put must be acknowledged.
fn load_phase(client: &Client, spec: &WorkloadSpec, harness: &Harness) {
    let window = 512;
    let mut inflight: std::collections::VecDeque<(u64, Ticket)> = Default::default();
    let drain = |q: &mut std::collections::VecDeque<(u64, Ticket)>, to: usize| {
        while q.len() > to {
            let (id, ticket) = q.pop_front().unwrap();
            match ticket.wait() {
                Ok(Response::Ok) => {
                    harness.acked.lock().unwrap().insert(id);
                }
                Ok(Response::Busy) => {
                    // Overloaded during load: fall back to the synchronous
                    // retrying path so the load set stays complete.
                    let key = keys::encode(id);
                    client
                        .put(&key, &keys::value_for(id, 0, spec.value_len))
                        .expect("load put");
                    harness.acked.lock().unwrap().insert(id);
                }
                other => panic!("load put failed: {other:?}"),
            }
        }
    };
    for (key, value) in spec.load_set() {
        let id = keys::decode(&key).expect("load key");
        let ticket = client
            .submit(Request::Put { key, value })
            .expect("load submit");
        inflight.push_back((id, ticket));
        drain(&mut inflight, window);
    }
    drain(&mut inflight, 0);
}

fn run_closed(
    args: &Args,
    client: &Arc<Client>,
    spec: &WorkloadSpec,
    harness: &Arc<Harness>,
) -> u64 {
    let per_thread = args.ops / args.threads as u64;
    let mut handles = Vec::new();
    for t in 0..args.threads {
        let client = client.clone();
        let harness = harness.clone();
        let mut spec = spec.clone();
        spec.seed = spec.seed.wrapping_add(t as u64).wrapping_mul(0x9E37_79B9);
        handles.push(std::thread::spawn(move || {
            let mut gen = spec.generator();
            for _ in 0..per_thread {
                let op = gen.next_op();
                let (kind, req) = request_for(&op);
                let start = Instant::now();
                let outcome = client.submit(req).map(|t| t.wait()).and_then(|r| r);
                harness.settle(kind, op.key_id, &outcome, start.elapsed());
            }
        }));
    }
    for h in handles {
        h.join().expect("closed-loop worker");
    }
    per_thread * args.threads as u64
}

struct OpenJob {
    scheduled: Instant,
    kind: usize,
    key_id: u64,
    ticket: Result<Ticket, dcs_server::ClientError>,
}

fn run_open(args: &Args, client: &Arc<Client>, spec: &WorkloadSpec, harness: &Arc<Harness>) -> u64 {
    let completions: Arc<Mailbox<OpenJob>> = Arc::new(Mailbox::new(usize::MAX >> 1));
    let mut reapers = Vec::new();
    for _ in 0..2 {
        let completions = completions.clone();
        let harness = harness.clone();
        reapers.push(std::thread::spawn(move || {
            let mut batch = Vec::new();
            while completions.recv_batch(256, &mut batch) {
                for job in batch.drain(..) {
                    let outcome = job.ticket.and_then(|t| t.wait());
                    // Open loop: latency runs from the *scheduled* arrival,
                    // so queueing delay from a saturated server is charged
                    // to the operation (no coordinated omission).
                    let latency = job.scheduled.elapsed();
                    harness.settle(job.kind, job.key_id, &outcome, latency);
                }
            }
        }));
    }
    let mut arrivals = Arrivals::poisson(args.rate, args.seed ^ 0xA11);
    let mut gen = spec.generator();
    let t0 = Instant::now();
    let mut offset = Duration::ZERO;
    for _ in 0..args.ops {
        offset += Duration::from_nanos(arrivals.next_gap());
        loop {
            let elapsed = t0.elapsed();
            if elapsed >= offset {
                break;
            }
            let remain = offset - elapsed;
            if remain > Duration::from_millis(2) {
                dcs_syncshim::block::sleep(remain - Duration::from_millis(1));
            } else {
                std::hint::spin_loop();
            }
        }
        let op = gen.next_op();
        let (kind, req) = request_for(&op);
        let job = OpenJob {
            scheduled: t0 + offset,
            kind,
            key_id: op.key_id,
            ticket: client.submit(req),
        };
        if completions.send(job).is_err() {
            panic!("completion queue refused a job");
        }
    }
    completions.close();
    for r in reapers {
        r.join().expect("reaper");
    }
    args.ops
}

/// A latency histogram as the report's `{count, mean_us, p50_us, ...}`.
fn latency_json(h: &HistogramSnapshot) -> Json {
    let l = h.summary();
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

/// One per-term cost breakdown in the paper's algebra (rent + execution).
fn cost_terms_json(t: &RunCost) -> Json {
    obj! {
        "dram_rent": t.dram_rent,
        "flash_rent": t.flash_rent,
        "mm_exec": t.mm_exec,
        "ss_exec": t.ss_exec,
        "total": t.total(),
    }
}

/// True when every term of `a` and `b` agrees within `tol` relative, with
/// a small absolute floor so two near-zero terms (e.g. flash rent on an
/// in-memory backend) always reconcile.
fn reconciles(a: &RunCost, b: &RunCost, tol: f64) -> bool {
    let close = |x: f64, y: f64| (x - y).abs() <= tol * x.abs().max(y.abs()) + 1e-15;
    close(a.dram_rent, b.dram_rent)
        && close(a.flash_rent, b.flash_rent)
        && close(a.mm_exec, b.mm_exec)
        && close(a.ss_exec, b.ss_exec)
}

/// Hottest/coldest shard op ratio (coldest clamped to 1 op). 1.0 is a
/// perfect spread; a Zipfian skew without rebalancing runs ~10x.
fn spread_of(ops: &[u64]) -> f64 {
    let max = ops.iter().max().copied().unwrap_or(0);
    let min = ops.iter().min().copied().unwrap_or(0);
    max as f64 / min.max(1) as f64
}

/// The `mrc` block: fire the flight recorder on post-run anomalies, write
/// its dump, and fuse each consumer's measured miss-ratio curve with the
/// cost catalog.
fn mrc_json(
    args: &Args,
    hw: &HardwareCatalog,
    harness: &Harness,
    issued: u64,
    reconciled: bool,
    elapsed_secs: f64,
) -> Json {
    // The dump's final frame lands at the moment of detection; the ring
    // is written unconditionally (CI ships it as an artifact whether or
    // not anything tripped).
    let flight = dcs_telemetry::flight();
    let total_busy: u64 = harness
        .stats
        .iter()
        .map(|s| s.busy.load(Ordering::Relaxed))
        .sum();
    if total_busy.saturating_mul(100) > issued.max(1) {
        flight.trigger("busy spike");
    }
    let get = harness.stats[K_GET].hist.summary();
    if get.count > 0 && get.p95_nanos > 10.0 * get.p50_nanos.max(1.0) {
        flight.trigger("p95 regression");
    }
    if !reconciled {
        flight.trigger("cost reconciliation failure");
    }
    std::fs::write(&args.flight_out, flight.dump_json()).expect("write flight dump");
    eprintln!("loadgen: wrote flight-recorder dump -> {}", args.flight_out);

    // The access rate spans the whole process (load + run): the profilers
    // count from process start, so dividing by the run window alone would
    // overstate the rent the cache saves.
    let budget = args.memory_budget.map_or(0.0, |b| b as f64);
    let consumers = dcs_telemetry::mrc().snapshots();
    let consumers = consumers.iter().map(|s| {
        let curve: Vec<MrcCurvePoint> = s
            .points
            .iter()
            .map(|p| MrcCurvePoint {
                bytes: p.bytes,
                miss_ratio: p.miss_ratio,
            })
            .collect();
        let access_rate = s.accesses as f64 / elapsed_secs.max(1e-9);
        // Price the marginal byte at the configured budget, or at the
        // full measured working set when none was given.
        let eval_budget = if budget > 0.0 {
            budget
        } else {
            curve.last().map_or(0.0, |p| p.bytes)
        };
        let at = marginal_at(hw, access_rate, &curve, eval_budget);
        let points: Vec<(f64, f64)> = s.points.iter().map(|p| (p.bytes, p.miss_ratio)).collect();
        obj! {
            "consumer": s.consumer.as_str(),
            "accesses": s.accesses,
            "sampled": s.sampled,
            "sample_rate": s.sample_rate,
            "mean_entity_bytes": s.mean_entity_bytes,
            "points": pairs(&points),
            "marginal": obj! {
                "value_per_byte": at.map_or(0.0, |p| p.marginal_value_per_byte),
                "dram_price_per_byte": hw.dram_per_byte,
                "net_per_byte": at.map_or(0.0, |p| p.net_per_byte()),
            },
            "recommended_bytes": recommended_bytes(hw, access_rate, &curve),
        }
    });
    obj! {
        "enabled": true,
        "budget_bytes": budget,
        "flight_out": args.flight_out.as_str(),
        "triggers": Json::arr(flight.triggers().iter().map(String::as_str)),
        "consumers": Json::arr(consumers),
    }
}

fn main() {
    let args = parse_args();
    let t_main = Instant::now();
    dcs_telemetry::set_sampling_permille(args.trace_sample);
    let spec = spec_for(&args);
    eprintln!(
        "loadgen: backend={} mode={} shards={} conns={} records={} ops={}",
        args.backend.name(),
        args.mode,
        args.shards,
        args.conns,
        args.records,
        args.ops
    );

    let built = args.backend.build_shards_with(
        args.shards,
        BackendOpts {
            memory_budget: args.memory_budget,
            wall_read_latency: args.device_latency,
        },
    );
    let backends: Vec<Arc<dyn dcs_workload::KvStore + Send + Sync>> =
        built.iter().map(|b| b.kv.clone()).collect();
    let devices: Vec<_> = built.iter().filter_map(|b| b.device.clone()).collect();
    let partitioner = if args.shards == 1 {
        Partitioner::single()
    } else {
        Partitioner::from_splits(keys::range_splits(args.records, args.shards))
    };
    let harness = Arc::new(Harness::new());

    // Flight-recorder pacing: the recorder is passive, so a side thread
    // ticks the global ring every 25ms while the run is in flight
    // (every_n = 10 ⇒ a frame roughly every 250ms, ring bounded at 32).
    // The serving path never touches it.
    let flight_stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let flight_ticker = args.mrc.then(|| {
        dcs_telemetry::flight().configure(dcs_telemetry::FlightConfig::default());
        let stop = flight_stop.clone();
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                dcs_telemetry::flight().tick();
                dcs_syncshim::block::sleep(Duration::from_millis(25));
            }
        })
    });

    let config = ServerConfig {
        rebalance: RebalanceConfig {
            enabled: args.rebalance,
            tick_ms: args.rebalance_tick_ms,
            policy: PolicyConfig {
                est_records: args.records,
                ..PolicyConfig::default()
            },
            ..RebalanceConfig::default()
        },
        ..ServerConfig::default()
    };
    let server = Server::start_with(
        built.into_iter().map(ShardBackend::from).collect(),
        partitioner,
        config,
    )
    .expect("start server");
    let client = Arc::new(
        Client::connect(
            server.addr(),
            ClientConfig {
                connections: args.conns,
                ..ClientConfig::default()
            },
        )
        .expect("connect"),
    );

    load_phase(&client, &spec, &harness);
    eprintln!("loadgen: loaded {} records", args.records);

    let cost_before = dcs_telemetry::ledger().totals();
    let run_start = Instant::now();
    let issued = match args.mode.as_str() {
        "open" => run_open(&args, &client, &spec, &harness),
        _ => run_closed(&args, &client, &spec, &harness),
    };
    let duration = run_start.elapsed();

    client.close();
    // Snapshot placement before teardown: post-run verification must look
    // up each key through the *final* map, since the rebalancer may have
    // migrated ranges off their seed shard mid-run.
    let final_map = server.router().map().load();
    let shards = server.shutdown().shards;
    flight_stop.store(true, Ordering::Relaxed);
    if let Some(h) = flight_ticker {
        h.join().expect("flight ticker");
    }
    // Ledger delta over the measured run (shutdown flush included: the
    // drain is work the run caused). Gauges are the post-run occupancy.
    let cost = dcs_telemetry::ledger().totals().delta(&cost_before);

    // Verification: after the drain-and-flush shutdown, every write the
    // server acknowledged must still be readable from the backends.
    let acked = harness.acked.lock().unwrap();
    let missing = acked
        .iter()
        .filter(|&&id| {
            let key = keys::encode(id);
            !matches!(backends[final_map.shard_of(&key)].kv_get(&key), Ok(Some(_)))
        })
        .count() as u64;

    let completed: u64 = harness
        .stats
        .iter()
        .map(|s| s.count.load(Ordering::Relaxed))
        .sum();
    let throughput = completed as f64 / duration.as_secs_f64().max(1e-9);
    // Achieved io depth across shard devices (the in-memory comparators
    // have no device and report zeros), and miss service across shards:
    // both merged bucket-wise, then summarized once.
    let mut depth = HistogramSnapshot::default();
    for device in &devices {
        depth.merge(&device.stats().io_depth);
    }
    let mut miss = HistogramSnapshot::default();
    for s in &shards {
        miss.merge(&s.miss_latency);
    }

    // Export the sampled-span timeline before summarizing it, so the
    // trace stats in the report describe what the file contains.
    if let Some(path) = &args.trace_out {
        std::fs::write(path, dcs_telemetry::export_chrome_json()).expect("write trace");
        eprintln!("loadgen: wrote span trace -> {path}");
    }
    let tstats = dcs_telemetry::trace_stats();

    // Price the measured run twice: per-term directly from the ledger
    // counts, and through the cost model's own `price_run` over the same
    // profile. Agreement (10% per-term) certifies the attribution funnel
    // feeds `dcs_costmodel::accounting` without drift — every bump site
    // accounted once, none double-counted.
    let hw = HardwareCatalog::paper();
    let secs = duration.as_secs_f64();
    let measured = RunCost {
        dram_rent: cost.dram_bytes as f64 * hw.dram_per_byte * secs,
        flash_rent: cost.flash_bytes as f64 * hw.flash_per_byte * secs,
        mm_exec: cost.mm_ops as f64 * hw.mm_exec_cost(),
        ss_exec: cost.ss_ops() as f64 * hw.ss_exec_cost(),
    };
    let modeled = price_run(
        &hw,
        &RunProfile {
            duration_secs: secs,
            avg_dram_bytes: cost.dram_bytes as f64,
            avg_flash_bytes: cost.flash_bytes as f64,
            mm_ops: cost.mm_ops,
            ss_ops: cost.ss_ops(),
        },
    );
    let reconciled = reconciles(&measured, &modeled, 0.10);
    let mrc = if args.mrc {
        let elapsed = t_main.elapsed().as_secs_f64();
        mrc_json(&args, &hw, &harness, issued, reconciled, elapsed)
    } else {
        obj! {
            "enabled": false,
            "budget_bytes": 0.0,
            "flight_out": "",
            "triggers": Json::Arr(Vec::new()),
            "consumers": Json::Arr(Vec::new()),
        }
    };

    let registry = dcs_telemetry::global();
    let shard_ops: Vec<u64> = shards.iter().map(|s| s.total_ops()).collect();
    let ops = KINDS.iter().zip(&harness.stats).map(|(&kind, s)| {
        obj! {
            "kind": kind,
            "count": s.count.load(Ordering::Relaxed),
            "busy": s.busy.load(Ordering::Relaxed),
            "errors": s.errors.load(Ordering::Relaxed),
            "latency": latency_json(&s.hist.snapshot()),
        }
    });
    let shards_detail = shards.iter().enumerate().map(|(i, s)| {
        obj! {
            "shard": i,
            "ops": s.total_ops(),
            "busy_rejections": s.busy_rejections,
            "batches": s.batches,
            "mean_batch": s.batched_ops as f64 / s.batches.max(1) as f64,
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
    let report = obj! {
        "bench": "server",
        "backend": args.backend.name(),
        "mode": args.mode.as_str(),
        "device_latency_nanos": args.device_latency,
        "shards": args.shards,
        "connections": args.conns,
        "records": args.records,
        "value_len": args.value_len,
        "target_rate": if args.mode == "open" { args.rate } else { 0.0 },
        "ops_issued": issued,
        "ops_completed": completed,
        "duration_secs": secs,
        "throughput_ops_per_sec": throughput,
        "io_depth": obj! {
            "samples": depth.count,
            "mean": depth.mean(),
            "max": depth.max,
            "buckets": pairs(&depth.nonzero_buckets()),
        },
        "miss_service": obj! {
            "misses": shards.iter().map(|s| s.misses).sum::<u64>(),
            "parked_peak": shards.iter().map(|s| s.parked_peak).max().unwrap_or(0),
            "latency": latency_json(&miss),
        },
        "placement": obj! {
            "rebalance_enabled": args.rebalance,
            "map_epoch": final_map.epoch(),
            "map_ranges": final_map.ranges(),
            "moves": registry.counter("rebalance.moves").value(),
            "splits": registry.counter("rebalance.splits").value(),
            "merges": registry.counter("rebalance.merges").value(),
            "migrated_records": registry.counter("rebalance.migrated_records").value(),
            "moved_redirects": shards.iter().map(|s| s.moved_redirects).sum::<u64>(),
            "shard_ops": Json::arr(shard_ops.iter().copied()),
            "shard_op_spread": spread_of(&shard_ops),
        },
        "telemetry": obj! {
            "sampling_permille": dcs_telemetry::sampling_permille(),
            "spans": obj! {
                "roots_seen": tstats.roots_seen,
                "roots_sampled": tstats.roots_sampled,
                "events_dropped": tstats.dropped,
            },
            "trace_dropped_spans": registry.counter("trace.dropped_spans").value(),
            "trace_out": args.trace_out.as_deref().unwrap_or(""),
            "cost_counts": obj! {
                "mm_ops": cost.mm_ops,
                "ss_reads": cost.ss_reads,
                "ss_writes": cost.ss_writes,
                "wal_barriers": cost.wal_barriers,
                "maintenance_ops": cost.maintenance_ops,
            },
            "avg_dram_bytes": cost.dram_bytes as f64,
            "avg_flash_bytes": cost.flash_bytes as f64,
            "cost_attribution": obj! {
                "measured": cost_terms_json(&measured),
                "modeled": cost_terms_json(&modeled),
                "reconciled_within_10pct": reconciled,
            },
        },
        "mrc": mrc,
        "ops": Json::arr(ops),
        "shards_detail": Json::arr(shards_detail),
        "verification": obj! {
            "acked_writes": acked.len(),
            "verified_keys": acked.len() as u64 - missing,
            "missing_keys": missing,
        },
    };
    std::fs::write(&args.out, format!("{report}\n")).expect("write report");

    let p99_us = |kind: usize| harness.stats[kind].hist.quantile(0.99) / 1000.0;
    eprintln!(
        "loadgen: {completed}/{issued} ops in {secs:.2}s = {throughput:.0} ops/s \
         (get p99 {:.0}us, put p99 {:.0}us); \
         acked {} verified {} missing {missing} -> {}",
        p99_us(K_GET),
        p99_us(K_PUT),
        acked.len(),
        acked.len() as u64 - missing,
        args.out
    );

    if missing > 0 {
        eprintln!("loadgen: FAIL — {missing} acknowledged writes lost");
        std::process::exit(1);
    }
    if completed == 0 || throughput <= 0.0 {
        eprintln!("loadgen: FAIL — no completed operations");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn settle_counts_only_the_expected_answer() {
        let h = Harness::new();
        let moved = Ok(Response::Moved { epoch: 2, shard: 1 });
        h.settle(K_PUT, 7, &moved, Duration::from_micros(5));
        let put = &h.stats[K_PUT];
        assert_eq!(put.count.load(Ordering::Relaxed), 0);
        assert_eq!(put.errors.load(Ordering::Relaxed), 1);
        assert_eq!(put.hist.count(), 0);
        assert!(h.acked.lock().unwrap().is_empty());
        // A well-formed answer of the wrong kind is an error too.
        h.settle(K_GET, 8, &Ok(Response::Ok), Duration::from_micros(5));
        assert_eq!(h.stats[K_GET].errors.load(Ordering::Relaxed), 1);
        h.settle(K_PUT, 7, &Ok(Response::Ok), Duration::from_micros(5));
        assert_eq!(put.count.load(Ordering::Relaxed), 1);
        assert!(h.acked.lock().unwrap().contains(&7));
    }

    #[test]
    fn spread_handles_degenerate_shard_counts() {
        assert_eq!(spread_of(&[]), 0.0);
        assert_eq!(spread_of(&[10, 10]), 1.0);
        assert_eq!(spread_of(&[100, 10]), 10.0);
        // A completely idle shard clamps to 1 op instead of dividing by 0.
        assert_eq!(spread_of(&[50, 0]), 50.0);
    }

    #[test]
    fn cost_terms_reconcile_within_tolerance() {
        let a = RunCost {
            dram_rent: 1.0,
            flash_rent: 0.0,
            mm_exec: 10.0,
            ss_exec: 100.0,
        };
        // 5% off on every nonzero term: reconciles at 10%, not at 1%.
        let b = RunCost {
            dram_rent: 1.05,
            flash_rent: 0.0,
            mm_exec: 10.5,
            ss_exec: 105.0,
        };
        assert!(reconciles(&a, &b, 0.10));
        assert!(!reconciles(&a, &b, 0.01));
        // Two zero terms always reconcile (absolute floor).
        let z = RunCost {
            dram_rent: 0.0,
            flash_rent: 0.0,
            mm_exec: 0.0,
            ss_exec: 0.0,
        };
        assert!(reconciles(&z, &z, 0.10));
        assert!((a.total() - 111.0).abs() < 1e-12);
    }
}
