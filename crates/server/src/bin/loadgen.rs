//! Wire-level load generator for `dcs-server`.
//!
//! Starts a sharded server over a chosen backend, drives it through the
//! pipelined TCP client in **closed-loop** (N threads, one request each in
//! flight) or **open-loop** mode (requests issued on an arrival schedule
//! from `dcs_workload::Arrivals`, latency measured from the *scheduled*
//! arrival so coordinated omission is not hidden), then performs a
//! drain-and-flush shutdown and verifies that every acknowledged write is
//! still readable from the backends. Emits `BENCH_server.json`.
//!
//! ```text
//! cargo run --release -p dcs-server --bin loadgen -- \
//!     --backend caching --mode open --rate 50000
//! ```

use dcs_core::{BackendKind, BackendOpts};
use dcs_costmodel::accounting::{price_run, RunProfile};
use dcs_costmodel::mrc_cost::{marginal_at, recommended_bytes, MrcCurvePoint};
use dcs_costmodel::HardwareCatalog;
use dcs_rebalance::{PartitionMap, PolicyConfig};
use dcs_server::mailbox::Mailbox;
use dcs_server::metrics::LatencyHistogram;
use dcs_server::protocol::{Request, Response};
use dcs_server::report::{
    BenchReport, CostTerms, IoDepthReport, MissServiceReport, MrcConsumerReport, MrcReport,
    OpReport, PlacementReport, TelemetryReport,
};
use dcs_server::{
    Client, ClientConfig, Partitioner, RebalanceConfig, Server, ServerConfig, ShardBackend, Ticket,
};
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
                 --backend caching|bwtree|masstree|lsm   (default caching)\n\
                 --mode closed|open|inproc               (default closed;\n\
                    inproc skips the wire and drives the backends directly\n\
                    for the wire-overhead comparison)\n\
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
        args.mode == "open" || args.mode == "closed" || args.mode == "inproc",
        "--mode must be open, closed, or inproc"
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

    /// Account one finished request.
    fn settle(
        &self,
        kind: usize,
        key_id: u64,
        outcome: &Result<Response, dcs_server::ClientError>,
        latency: Duration,
    ) {
        let s = &self.stats[kind];
        match outcome {
            Ok(Response::Busy) => {
                s.busy.fetch_add(1, Ordering::Relaxed);
            }
            Ok(Response::Err(_)) | Err(_) => {
                s.errors.fetch_add(1, Ordering::Relaxed);
            }
            Ok(_) => {
                s.count.fetch_add(1, Ordering::Relaxed);
                s.hist.record(latency.as_nanos() as u64);
                if kind == K_PUT || kind == K_RMW {
                    self.acked.lock().unwrap().insert(key_id);
                }
            }
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
                std::thread::sleep(remain - Duration::from_millis(1));
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

/// The in-process baseline for the wire-overhead comparison: the same
/// generator and closed-loop thread structure, but operations call the
/// shard-routed backends directly — no protocol, sockets, mailboxes, or
/// group commit.
fn run_inproc(
    args: &Args,
    backends: &[Arc<dyn dcs_workload::KvStore + Send + Sync>],
    partitioner: &Partitioner,
    spec: &WorkloadSpec,
    harness: &Arc<Harness>,
) -> u64 {
    let per_thread = args.ops / args.threads as u64;
    std::thread::scope(|scope| {
        for t in 0..args.threads {
            let harness = harness.clone();
            let mut spec = spec.clone();
            spec.seed = spec.seed.wrapping_add(t as u64).wrapping_mul(0x9E37_79B9);
            scope.spawn(move || {
                let mut gen = spec.generator();
                for _ in 0..per_thread {
                    let op = gen.next_op();
                    let key = keys::encode(op.key_id).to_vec();
                    let store = &backends[partitioner.shard_of(&key)];
                    let start = Instant::now();
                    let (kind, outcome) = match op.kind {
                        OpKind::Read => (K_GET, store.kv_get(&key).map(Response::Value)),
                        OpKind::Update | OpKind::Insert | OpKind::BlindUpdate => {
                            (K_PUT, store.kv_put(key, op.value).map(|()| Response::Ok))
                        }
                        OpKind::ReadModifyWrite => (
                            K_RMW,
                            store.kv_get(&key).and_then(|cur| {
                                let mut v = cur.unwrap_or_default();
                                v.extend_from_slice(&op.value);
                                store.kv_put(key, v).map(|()| Response::Ok)
                            }),
                        ),
                        OpKind::Scan { limit } => (
                            K_SCAN,
                            store
                                .kv_scan(&key, limit as usize)
                                .map(|n| Response::Count(n as u64)),
                        ),
                    };
                    let outcome =
                        outcome.map_err(|e| dcs_server::ClientError::Server(e.to_string()));
                    harness.settle(kind, op.key_id, &outcome, start.elapsed());
                }
            });
        }
    });
    per_thread * args.threads as u64
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
                std::thread::sleep(Duration::from_millis(25));
            }
        })
    });

    let (issued, duration, shard_snapshots, cost_before, final_map) = if args.mode == "inproc" {
        // In-process baseline: same workload, no wire. Load directly.
        for (key, value) in spec.load_set() {
            let id = keys::decode(&key).expect("load key");
            backends[partitioner.shard_of(&key)]
                .kv_put(key, value)
                .expect("load put");
            harness.acked.lock().unwrap().insert(id);
        }
        eprintln!("loadgen: loaded {} records (in-process)", args.records);
        let cost_before = dcs_telemetry::ledger().totals();
        let run_start = Instant::now();
        let issued = run_inproc(&args, &backends, &partitioner, &spec, &harness);
        let map: Option<Arc<PartitionMap>> = None;
        (issued, run_start.elapsed(), Vec::new(), cost_before, map)
    } else {
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
            partitioner.clone(),
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
        // Snapshot placement before teardown: post-run verification must
        // look up each key through the *final* map, since the rebalancer
        // may have migrated ranges off their seed shard mid-run.
        let final_map = server.router().map().load();
        let report = server.shutdown();
        (
            issued,
            duration,
            report.shards,
            cost_before,
            Some(final_map),
        )
    };
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
    let mut missing = 0u64;
    for &id in acked.iter() {
        let key = keys::encode(id);
        let shard = match &final_map {
            Some(map) => map.shard_of(&key),
            None => partitioner.shard_of(&key),
        };
        match backends[shard].kv_get(&key) {
            Ok(Some(_)) => {}
            _ => missing += 1,
        }
    }

    let completed: u64 = harness
        .stats
        .iter()
        .map(|s| s.count.load(Ordering::Relaxed))
        .sum();
    let throughput = completed as f64 / duration.as_secs_f64().max(1e-9);
    // Aggregate the achieved-io-depth histograms across shard devices
    // (the in-memory comparators have no device and report zeros).
    let mut depth = dcs_telemetry::HistogramSnapshot::default();
    for device in &devices {
        depth.merge(&device.stats().io_depth);
    }
    let io_depth = IoDepthReport {
        samples: depth.count,
        mean: depth.mean(),
        max: depth.max,
        buckets: depth.nonzero_buckets(),
    };
    let miss_service = MissServiceReport::from_snapshots(&shard_snapshots);

    // Export the sampled-span timeline before summarizing it, so the
    // trace stats in the report describe what the file contains.
    if let Some(path) = &args.trace_out {
        std::fs::write(path, dcs_telemetry::export_chrome_json()).expect("write trace");
        eprintln!("loadgen: wrote span trace -> {path}");
    }
    let tstats = dcs_telemetry::trace_stats();

    // Price the measured run twice: per-term directly from the ledger
    // counts, and through the cost model's own `price_run` over the same
    // profile. Agreement (the `reconciled` flag, 10% per-term) certifies
    // the attribution funnel feeds `dcs_costmodel::accounting` without
    // drift — every bump site accounted once, none double-counted.
    let hw = HardwareCatalog::paper();
    let secs = duration.as_secs_f64();
    let measured = CostTerms {
        dram_rent: cost.dram_bytes as f64 * hw.dram_per_byte * secs,
        flash_rent: cost.flash_bytes as f64 * hw.flash_per_byte * secs,
        mm_exec: cost.mm_ops as f64 * hw.mm_exec_cost(),
        ss_exec: cost.ss_ops() as f64 * hw.ss_exec_cost(),
    };
    let profile = RunProfile {
        duration_secs: secs,
        avg_dram_bytes: cost.dram_bytes as f64,
        avg_flash_bytes: cost.flash_bytes as f64,
        mm_ops: cost.mm_ops,
        ss_ops: cost.ss_ops(),
    };
    let priced = price_run(&hw, &profile);
    let modeled = CostTerms {
        dram_rent: priced.dram_rent,
        flash_rent: priced.flash_rent,
        mm_exec: priced.mm_exec,
        ss_exec: priced.ss_exec,
    };
    let telemetry = TelemetryReport {
        sampling_permille: dcs_telemetry::sampling_permille(),
        roots_seen: tstats.roots_seen,
        roots_sampled: tstats.roots_sampled,
        events_dropped: tstats.dropped,
        trace_out: args.trace_out.clone().unwrap_or_default(),
        mm_ops: cost.mm_ops,
        ss_reads: cost.ss_reads,
        ss_writes: cost.ss_writes,
        wal_barriers: cost.wal_barriers,
        maintenance_ops: cost.maintenance_ops,
        avg_dram_bytes: cost.dram_bytes as f64,
        avg_flash_bytes: cost.flash_bytes as f64,
        measured,
        modeled,
        reconciled: measured.reconciles_with(&modeled, 0.10),
        trace_dropped_spans: dcs_telemetry::global()
            .counter("trace.dropped_spans")
            .value(),
    };
    let registry = dcs_telemetry::global();
    let shard_ops: Vec<u64> = shard_snapshots.iter().map(|s| s.total_ops()).collect();
    let placement = PlacementReport {
        rebalance_enabled: args.rebalance,
        map_epoch: final_map.as_ref().map_or(0, |m| m.epoch()),
        map_ranges: final_map.as_ref().map_or(0, |m| m.ranges()),
        moves: registry.counter("rebalance.moves").value(),
        splits: registry.counter("rebalance.splits").value(),
        merges: registry.counter("rebalance.merges").value(),
        migrated_records: registry.counter("rebalance.migrated_records").value(),
        moved_redirects: shard_snapshots.iter().map(|s| s.moved_redirects).sum(),
        shard_op_spread: PlacementReport::spread_of(&shard_ops),
        shard_ops,
    };
    let mrc_report = if args.mrc {
        // Post-run anomaly detection: fire the flight recorder so the
        // dump's final frame lands at the moment of detection, then
        // write the ring unconditionally (CI ships it as an artifact
        // whether or not anything tripped).
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
        if !telemetry.reconciled {
            flight.trigger("cost reconciliation failure");
        }
        std::fs::write(&args.flight_out, flight.dump_json()).expect("write flight dump");
        eprintln!("loadgen: wrote flight-recorder dump -> {}", args.flight_out);

        // Fuse each consumer's measured curve with the cost catalog.
        // The access rate spans the whole process (load + run): the
        // profilers count from process start, so dividing by the run
        // window alone would overstate the rent the cache saves.
        let elapsed = t_main.elapsed().as_secs_f64().max(1e-9);
        let budget = args.memory_budget.map_or(0.0, |b| b as f64);
        let consumers = dcs_telemetry::mrc()
            .snapshots()
            .iter()
            .map(|s| {
                let curve: Vec<MrcCurvePoint> = s
                    .points
                    .iter()
                    .map(|p| MrcCurvePoint {
                        bytes: p.bytes,
                        miss_ratio: p.miss_ratio,
                    })
                    .collect();
                let access_rate = s.accesses as f64 / elapsed;
                // Price the marginal byte at the configured budget, or at
                // the full measured working set when none was given.
                let eval_budget = if budget > 0.0 {
                    budget
                } else {
                    curve.last().map_or(0.0, |p| p.bytes)
                };
                let at = marginal_at(&hw, access_rate, &curve, eval_budget);
                MrcConsumerReport {
                    consumer: s.consumer.clone(),
                    accesses: s.accesses,
                    sampled: s.sampled,
                    sample_rate: s.sample_rate,
                    mean_entity_bytes: s.mean_entity_bytes,
                    points: s.points.iter().map(|p| (p.bytes, p.miss_ratio)).collect(),
                    marginal_value_per_byte: at.map_or(0.0, |p| p.marginal_value_per_byte),
                    dram_price_per_byte: hw.dram_per_byte,
                    net_per_byte: at.map_or(0.0, |p| p.net_per_byte()),
                    recommended_bytes: recommended_bytes(&hw, access_rate, &curve),
                }
            })
            .collect();
        MrcReport {
            enabled: true,
            budget_bytes: budget,
            flight_out: args.flight_out.clone(),
            triggers: flight.triggers(),
            consumers,
        }
    } else {
        MrcReport::default()
    };
    let bench = BenchReport {
        backend: args.backend.name().into(),
        mode: args.mode.clone(),
        device_latency_nanos: args.device_latency,
        shards: args.shards,
        connections: args.conns,
        records: args.records,
        value_len: args.value_len,
        target_rate: if args.mode == "open" { args.rate } else { 0.0 },
        ops_issued: issued,
        ops_completed: completed,
        duration_secs: duration.as_secs_f64(),
        throughput_ops_per_sec: throughput,
        ops: KINDS
            .iter()
            .zip(harness.stats.iter())
            .map(|(name, s)| OpReport {
                kind: (*name).into(),
                count: s.count.load(Ordering::Relaxed),
                busy: s.busy.load(Ordering::Relaxed),
                errors: s.errors.load(Ordering::Relaxed),
                latency: s.hist.summary(),
            })
            .collect(),
        shard_snapshots,
        io_depth,
        miss_service,
        placement,
        telemetry,
        mrc: mrc_report,
        acked_writes: acked.len() as u64,
        verified_keys: acked.len() as u64 - missing,
        missing_keys: missing,
    };
    std::fs::write(&args.out, bench.to_json()).expect("write report");

    let p99_get = bench.ops[K_GET].latency.p99_nanos / 1000.0;
    let p99_put = bench.ops[K_PUT].latency.p99_nanos / 1000.0;
    eprintln!(
        "loadgen: {completed}/{issued} ops in {:.2}s = {throughput:.0} ops/s \
         (get p99 {p99_get:.0}us, put p99 {p99_put:.0}us); \
         acked {} verified {} missing {missing} -> {}",
        duration.as_secs_f64(),
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
