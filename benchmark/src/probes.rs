//! Layer probes: the workload's own op stream replayed against one layer's
//! public functions, median time per call. They run after a traced window,
//! on structures of their own, so they cannot disturb what was measured.

use crate::harness::{
    device_config, load_store, store_builder, Kind, Op, OpStream, WorkloadDef, COLD_BUDGET,
    HOT_BUDGET, RECORDS, SCAN_LIMIT, SWEEP_EVERY, VALUE_LEN,
};
use crate::run::Metrics;
use crate::stats::{median, percentile_sorted};
use crate::trace::now_ns;
use bytes::Bytes;
use dcs_bwtree::{BwTree, BwTreeConfig, FlushKind};
use dcs_core::flashsim::{DeviceConfig, FlashDevice, IoQueuePair, IoRequest};
use dcs_core::CachingStore;
use dcs_costmodel::{breakeven, mixed, HardwareCatalog};
use dcs_lsm::{LsmConfig, LsmTree};
use dcs_masstree::MassTree;
use dcs_rebalance::PartitionMap;
use dcs_server::protocol::{decode_frame, encode_to_vec};
use dcs_server::{
    Client, ClientConfig, Frame, Mail, Mailbox, Partitioner, ReplySink, Request, Response, Server,
    ServerConfig, Shard, ShardBackend, ShardConfig,
};
use dcs_tc::{LogRecord, RecoveryLog};
use dcs_telemetry::CostClass;
use dcs_workload::{keys, KvStore};
use std::hint::black_box;
use std::sync::mpsc;
use std::sync::{Arc, Mutex};

/// Median over `samples` of the mean time of `inner` back-to-back calls,
/// in nanoseconds per call. Batching keeps the clock reads out of calls
/// that are themselves only nanoseconds long.
fn per_call_ns(samples: usize, inner: usize, mut f: impl FnMut(usize)) -> f64 {
    let per_sample: Vec<f64> = (0..samples)
        .map(|s| {
            let t0 = now_ns();
            for i in 0..inner {
                f(s * inner + i);
            }
            (now_ns() - t0) as f64 / inner as f64
        })
        .collect();
    median(&per_sample)
}

fn p50(ns: &mut [u32]) -> f64 {
    ns.sort_unstable();
    percentile_sorted(ns, 0.5)
}

/// The per-shard WAL device `Server::start_with` builds.
fn wal_device() -> Arc<FlashDevice> {
    Arc::new(FlashDevice::new(DeviceConfig {
        segment_count: 4096,
        ..DeviceConfig::small_test()
    }))
}

fn ops_of(def: &WorkloadDef, seed: u64, n: usize) -> Vec<Op> {
    let mut stream = OpStream::new(def, seed, 0, 1);
    (0..n).map(|_| stream.next_op()).collect()
}

/// Every probe, by metric name.
pub fn run_all(def: &WorkloadDef, seed: u64) -> Result<Metrics, String> {
    let mut m = Metrics::new();
    workload(def, seed, &mut m);
    let store = Arc::new(store_builder(def.memory_budget, false).build());
    load_store(&store, 0..RECORDS);
    store.sweep().map_err(|e| format!("probe sweep: {e}"))?;
    core(def, seed, &store, &mut m);
    lss(def, seed, &store, &mut m)?;
    shard(def, seed, store, &mut m);
    let bw_get = bwtree(def, seed, &mut m);
    let mt_get = comparators(def, seed, &mut m)?;
    m.insert(
        "ebr.pin_ns",
        per_call_ns(200, 1000, |_| drop(dcs_ebr::pin())),
    );
    flashsim(&mut m)?;
    tc_log(&mut m)?;
    protocol(def, seed, &mut m);
    mailbox(&mut m);
    null_server(&mut m)?;
    route(&mut m);
    telemetry(&mut m);
    costmodel(seed, bw_get / mt_get.max(1.0), &mut m)?;
    Ok(m)
}

fn workload(def: &WorkloadDef, seed: u64, m: &mut Metrics) {
    let mut stream = OpStream::new(def, seed, 0, 1);
    m.insert(
        "workload.next_op_ns",
        per_call_ns(50, 1000, |_| {
            black_box(stream.next_op());
        }),
    );
}

/// The store's own calls, one at a time, on a store with the workload's
/// memory budget. The automatic sweep is off; the probe sweeps (untimed)
/// at the store's cadence so that a small budget keeps evicting.
fn core(def: &WorkloadDef, seed: u64, store: &CachingStore, m: &mut Metrics) {
    const WARM: usize = 10_000;
    let mut lat: [Vec<u32>; 4] = Default::default();
    let mut miss = Vec::new();
    let mut ticks = 0u64;
    for (i, op) in ops_of(def, seed, WARM + 50_000).into_iter().enumerate() {
        let key = keys::encode(op.id);
        let fetches = store.tree().stats().fetches;
        let t0 = now_ns();
        match op.kind {
            Kind::Get => {
                black_box(store.try_get(&key).ok());
            }
            Kind::Put => store.put(key.to_vec(), op.value),
            Kind::Rmw => {
                black_box(store.try_get(&key).ok());
                store.put(key.to_vec(), op.value);
            }
            Kind::Scan => {
                black_box(store.kv_range(&key, None, SCAN_LIMIT, &mut |_, _| {}).ok());
            }
        }
        let ns = (now_ns() - t0) as u32;
        if i >= WARM {
            if op.kind == Kind::Get && store.tree().stats().fetches != fetches {
                miss.push(ns);
            } else {
                lat[op.kind as usize].push(ns);
            }
        }
        ticks += if op.kind == Kind::Rmw { 2 } else { 1 };
        if ticks >= SWEEP_EVERY {
            ticks = 0;
            let _ = store.sweep();
        }
    }
    m.insert("core.get_ns", p50(&mut lat[Kind::Get as usize]));
    m.insert("core.put_ns", p50(&mut lat[Kind::Put as usize]));
    m.insert("core.scan10_ns", p50(&mut lat[Kind::Scan as usize]));
    m.insert("core.get_miss_us", p50(&mut miss) / 1e3);
}

/// One page fetch (evict the leaf, then read a key on it) and one page
/// flush (dirty the leaf, then flush it), through the tree's public
/// cache-management surface.
fn lss(def: &WorkloadDef, seed: u64, store: &CachingStore, m: &mut Metrics) -> Result<(), String> {
    let tree = store.tree();
    let (mut fetch, mut flush) = (Vec::new(), Vec::new());
    for op in ops_of(def, seed ^ 0x155, 300) {
        let key = keys::encode(op.id);
        let pid = tree.locate_leaf(&key);
        tree.evict_page(pid)
            .map_err(|e| format!("probe evict: {e}"))?;
        let t0 = now_ns();
        black_box(
            store
                .try_get(&key)
                .map_err(|e| format!("probe fetch: {e}"))?,
        );
        fetch.push((now_ns() - t0) as u32);

        store.put(key.to_vec(), keys::value_for(op.id, 0, VALUE_LEN));
        let pid = tree.locate_leaf(&key);
        let t0 = now_ns();
        tree.flush_page(pid, FlushKind::FlushOnly)
            .map_err(|e| format!("probe flush: {e}"))?;
        flush.push((now_ns() - t0) as u32);
    }
    m.insert("llama.lss.fetch_us", p50(&mut fetch) / 1e3);
    m.insert("llama.lss.flush_us", p50(&mut flush) / 1e3);
    Ok(())
}

/// Hands a shard's replies back to the probing thread.
struct ChannelSink(Mutex<mpsc::Sender<Response>>);

impl ReplySink for ChannelSink {
    fn deliver(&self, _id: u64, resp: Response) {
        if let Ok(tx) = self.0.lock() {
            let _ = tx.send(resp);
        }
    }
}

/// One request at a time through `Shard::offer` and back through a
/// `ReplySink`: mailbox, shard loop, store call and (for a put) the WAL
/// barrier, with no socket and no codec.
fn shard(def: &WorkloadDef, seed: u64, store: Arc<CachingStore>, m: &mut Metrics) {
    let backends: Arc<Vec<Arc<dyn KvStore + Send + Sync>>> = Arc::new(vec![store]);
    let shard = Arc::new(Shard::new(
        0,
        &ShardConfig::default(),
        backends,
        Arc::new(Partitioner::single()),
        Arc::new(RecoveryLog::on_device(wal_device())),
    ));
    let (tx, rx) = mpsc::channel();
    let sink: Arc<dyn ReplySink> = Arc::new(ChannelSink(Mutex::new(tx)));
    let (mut get, mut put) = (Vec::new(), Vec::new());
    std::thread::scope(|s| {
        let worker = shard.clone();
        std::thread::Builder::new()
            .name("dcs-shard-probe".to_string())
            .spawn_scoped(s, move || worker.run())
            .expect("spawn shard probe");
        for (i, op) in ops_of(def, seed ^ 0x5a, 4_000).into_iter().enumerate() {
            let key = keys::encode(op.id).to_vec();
            // Alternate so both kinds get samples whatever the mix is.
            let (req, into) = if i % 2 == 0 {
                (Request::Get { key }, &mut get)
            } else {
                let value = keys::value_for(op.id, 0, VALUE_LEN);
                (Request::Put { key, value }, &mut put)
            };
            let t0 = now_ns();
            shard.offer(Mail {
                id: i as u64,
                req,
                reply: sink.clone(),
                enqueued: dcs_telemetry::now_nanos(),
            });
            let _ = rx.recv();
            into.push((now_ns() - t0) as u32);
        }
        shard.mailbox().close();
    });
    m.insert("server.shard.get_us", p50(&mut get) / 1e3);
    m.insert("server.shard.put_us", p50(&mut put) / 1e3);
}

/// A bare in-memory Bw-tree under the same stream. Returns the get time.
fn bwtree(def: &WorkloadDef, seed: u64, m: &mut Metrics) -> f64 {
    let tree = BwTree::in_memory(BwTreeConfig::default());
    for id in 0..RECORDS {
        tree.put(keys::encode(id).to_vec(), keys::value_for(id, 0, VALUE_LEN));
    }
    let mut lat: [Vec<u32>; 4] = Default::default();
    for op in ops_of(def, seed, 40_000) {
        let key = keys::encode(op.id);
        let t0 = now_ns();
        match op.kind {
            Kind::Get | Kind::Rmw => {
                black_box(tree.get(&key));
            }
            Kind::Put => tree.put(key.to_vec(), op.value),
            Kind::Scan => {
                black_box(tree.range(&key, None).take(SCAN_LIMIT).count());
            }
        }
        let slot = if op.kind == Kind::Rmw {
            Kind::Get
        } else {
            op.kind
        };
        lat[slot as usize].push((now_ns() - t0) as u32);
    }
    let get = p50(&mut lat[Kind::Get as usize]);
    m.insert("bwtree.get_ns", get);
    m.insert("bwtree.put_ns", p50(&mut lat[Kind::Put as usize]));
    m.insert("bwtree.scan10_ns", p50(&mut lat[Kind::Scan as usize]));
    get
}

/// The comparator stores under the same stream (reference points for the
/// paper's Px, not layers of the served path). Returns MassTree's get time.
fn comparators(def: &WorkloadDef, seed: u64, m: &mut Metrics) -> Result<f64, String> {
    let ops = ops_of(def, seed, 20_000);
    let mt = MassTree::new();
    for id in 0..RECORDS {
        mt.insert(
            Bytes::from(keys::encode(id).to_vec()),
            Bytes::from(keys::value_for(id, 0, VALUE_LEN)),
        );
    }
    let (mut get, mut put) = (Vec::new(), Vec::new());
    for op in &ops {
        let key = keys::encode(op.id);
        let t0 = now_ns();
        if op.value.is_empty() {
            black_box(mt.get(&key));
            get.push((now_ns() - t0) as u32);
        } else {
            mt.insert(Bytes::from(key.to_vec()), Bytes::from(op.value.clone()));
            put.push((now_ns() - t0) as u32);
        }
    }
    let mt_get = p50(&mut get);
    m.insert("masstree.get_ns", mt_get);
    m.insert("masstree.put_ns", p50(&mut put));

    // The LSM compacts as it loads; a tenth of the records keeps the probe
    // short, with ids folded onto them.
    const LSM_RECORDS: u64 = RECORDS / 10;
    let lsm = LsmTree::new(
        Arc::new(FlashDevice::new(DeviceConfig {
            segment_bytes: 64 << 10,
            ..device_config()
        })),
        LsmConfig::default(),
    );
    for id in 0..LSM_RECORDS {
        lsm.put(keys::encode(id).to_vec(), keys::value_for(id, 0, VALUE_LEN))
            .map_err(|e| format!("lsm load: {e}"))?;
    }
    let (mut get, mut put) = (Vec::new(), Vec::new());
    for op in ops.iter().take(6_000) {
        let key = keys::encode(op.id % LSM_RECORDS);
        let t0 = now_ns();
        if op.value.is_empty() {
            black_box(lsm.get(&key).map_err(|e| format!("lsm get: {e}"))?);
            get.push((now_ns() - t0) as u32);
        } else {
            lsm.put(key.to_vec(), op.value.clone())
                .map_err(|e| format!("lsm put: {e}"))?;
            put.push((now_ns() - t0) as u32);
        }
    }
    m.insert("lsm.get_us", p50(&mut get) / 1e3);
    m.insert("lsm.put_us", p50(&mut put) / 1e3);
    Ok(mt_get)
}

/// 4 KB I/Os on a bare device with the user-level path: blocking append
/// and read, and the two halves of an asynchronous read.
fn flashsim(m: &mut Metrics) -> Result<(), String> {
    let device = Arc::new(FlashDevice::new(device_config()));
    let page = vec![0xA5u8; 4096];
    let (mut append, mut read, mut submit, mut poll) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let qp = IoQueuePair::new(device.clone());
    let mut done = Vec::new();
    for _ in 0..500 {
        let t0 = now_ns();
        let addr = device
            .append(&page)
            .map_err(|e| format!("probe append: {e}"))?;
        let t1 = now_ns();
        black_box(
            device
                .read(addr, page.len())
                .map_err(|e| format!("probe read: {e}"))?,
        );
        let t2 = now_ns();
        qp.submit(IoRequest {
            addr,
            len: page.len(),
            tag: 0,
        })
        .map_err(|e| format!("probe submit: {e:?}"))?;
        let t3 = now_ns();
        done.clear();
        qp.poll_completions(&mut done);
        let t4 = now_ns();
        append.push((t1 - t0) as u32);
        read.push((t2 - t1) as u32);
        submit.push((t3 - t2) as u32);
        poll.push((t4 - t3) as u32);
    }
    m.insert("flashsim.append_us", p50(&mut append) / 1e3);
    m.insert("flashsim.read_us", p50(&mut read) / 1e3);
    m.insert("flashsim.qp_submit_ns", p50(&mut submit));
    m.insert("flashsim.qp_poll_ns", p50(&mut poll));
    Ok(())
}

/// `commit_batch` — append plus one barrier — at three batch sizes, on a
/// WAL device like the server's.
fn tc_log(m: &mut Metrics) -> Result<(), String> {
    let log = RecoveryLog::on_device(wal_device());
    let mut ts = 0u64;
    for (name, batch) in [
        ("tc.log.commit_us.b1", 1usize),
        ("tc.log.commit_us.b16", 16),
        ("tc.log.commit_us.b64", 64),
    ] {
        let mut lat = Vec::new();
        for _ in 0..200 {
            let records: Vec<LogRecord> = (0..batch)
                .map(|_| {
                    ts += 1;
                    LogRecord {
                        ts,
                        key: Bytes::from(keys::encode(ts % RECORDS).to_vec()),
                        value: Some(Bytes::from(keys::value_for(ts, 0, VALUE_LEN))),
                    }
                })
                .collect();
            let t0 = now_ns();
            log.commit_batch(&records)
                .map_err(|e| format!("probe commit: {e}"))?;
            lat.push((now_ns() - t0) as u32);
        }
        m.insert(name, p50(&mut lat) / 1e3);
    }
    Ok(())
}

/// The wire codec on the workload's own requests and their answers.
fn protocol(def: &WorkloadDef, seed: u64, m: &mut Metrics) {
    let frames: Vec<(Frame, Frame)> = ops_of(def, seed, 256)
        .into_iter()
        .enumerate()
        .map(|(i, op)| {
            let key = keys::encode(op.id).to_vec();
            let id = i as u64 + 1;
            let (req, resp) = match op.kind {
                Kind::Get => (
                    Request::Get { key },
                    Response::Value(Some(keys::value_for(op.id, 0, VALUE_LEN))),
                ),
                Kind::Put => (
                    Request::Put {
                        key,
                        value: op.value,
                    },
                    Response::Ok,
                ),
                Kind::Rmw => (
                    Request::Rmw {
                        key,
                        value: op.value,
                    },
                    Response::Ok,
                ),
                Kind::Scan => (
                    Request::Scan {
                        start: key,
                        limit: SCAN_LIMIT as u32,
                    },
                    Response::Count(SCAN_LIMIT as u64),
                ),
            };
            (Frame::Request { id, req }, Frame::Response { id, resp })
        })
        .collect();
    let encoded: Vec<(Vec<u8>, Vec<u8>)> = frames
        .iter()
        .map(|(q, r)| (encode_to_vec(q), encode_to_vec(r)))
        .collect();
    let n = frames.len();
    m.insert(
        "server.protocol.req_encode_ns",
        per_call_ns(100, n, |i| {
            black_box(encode_to_vec(&frames[i % n].0));
        }),
    );
    m.insert(
        "server.protocol.resp_encode_ns",
        per_call_ns(100, n, |i| {
            black_box(encode_to_vec(&frames[i % n].1));
        }),
    );
    m.insert(
        "server.protocol.req_decode_ns",
        per_call_ns(100, n, |i| {
            black_box(decode_frame(&encoded[i % n].0).ok());
        }),
    );
    m.insert(
        "server.protocol.resp_decode_ns",
        per_call_ns(100, n, |i| {
            black_box(decode_frame(&encoded[i % n].1).ok());
        }),
    );
}

/// An uncontended `send`, and a cross-thread hop: `send` on one thread to
/// `recv_batch` returning on another (half a ping-pong).
fn mailbox(m: &mut Metrics) {
    let mb: Mailbox<u64> = Mailbox::new(1 << 20);
    let mut sink = Vec::new();
    let send = per_call_ns(100, 1000, |i| {
        let _ = mb.send(i as u64);
        if i % 1000 == 999 {
            sink.clear();
            mb.try_recv_batch(usize::MAX >> 1, &mut sink);
        }
    });
    m.insert("server.mailbox.send_ns", send);

    let (ping, pong): (Mailbox<u64>, Mailbox<u64>) = (Mailbox::new(16), Mailbox::new(16));
    let mut rtt = Vec::new();
    std::thread::scope(|s| {
        s.spawn(|| {
            let mut got = Vec::new();
            while ping.recv_batch(16, &mut got) {
                for v in got.drain(..) {
                    let _ = pong.send(v);
                }
            }
        });
        let mut got = Vec::new();
        for i in 0..3_000u64 {
            let t0 = now_ns();
            let _ = ping.send(i);
            pong.recv_batch(16, &mut got);
            rtt.push((now_ns() - t0) as u32);
            got.clear();
        }
        ping.close();
    });
    m.insert("server.mailbox.hop_us", p50(&mut rtt) / 2.0 / 1e3);
}

/// The cost of the serving path with nothing behind it: a GET of an absent
/// key on an empty one-shard server.
fn null_server(m: &mut Metrics) -> Result<(), String> {
    let store = Arc::new(store_builder(HOT_BUDGET, true).build());
    let server = Server::start_with(
        vec![ShardBackend {
            kv: store.clone(),
            async_kv: Some(store),
        }],
        Partitioner::single(),
        ServerConfig::default(),
    )
    .map_err(|e| format!("null server: {e}"))?;
    let client = Client::connect(
        server.addr(),
        ClientConfig {
            connections: 1,
            ..ClientConfig::default()
        },
    )
    .map_err(|e| format!("null client: {e}"))?;
    let (mut submit, mut rtt) = (Vec::new(), Vec::new());
    for i in 0..3_000u64 {
        let key = keys::encode(i).to_vec();
        let t0 = now_ns();
        let ticket = client
            .submit(Request::Get { key })
            .map_err(|e| format!("null submit: {e}"))?;
        let t1 = now_ns();
        let answer = ticket.wait();
        let t2 = now_ns();
        if !matches!(answer, Ok(Response::Value(None))) {
            return Err(format!("null server answered {answer:?}"));
        }
        submit.push((t1 - t0) as u32);
        rtt.push((t2 - t0) as u32);
    }
    drop(client);
    server.shutdown();
    m.insert("server.client.submit_ns", p50(&mut submit));
    m.insert("server.client.null_rtt_us", p50(&mut rtt) / 1e3);
    Ok(())
}

fn route(m: &mut Metrics) {
    let map = PartitionMap::contiguous(keys::range_splits(RECORDS, 2));
    let probe_keys: Vec<[u8; keys::KEY_LEN]> = (0..256)
        .map(|i| keys::encode(i * (RECORDS / 256)))
        .collect();
    m.insert(
        "rebalance.route_ns",
        per_call_ns(200, 1024, |i| {
            black_box(map.shard_of(&probe_keys[i % probe_keys.len()]));
        }),
    );
}

/// What one span and one ledger entry cost the program, with sampling off
/// (the state every window runs in) and fully on.
fn telemetry(m: &mut Metrics) {
    let span = |_| drop(black_box(dcs_telemetry::span("bench.probe", CostClass::Mm)));
    dcs_telemetry::set_sampling_permille(0);
    m.insert("telemetry.span_off_ns", per_call_ns(100, 1000, span));
    dcs_telemetry::set_sampling_permille(1000);
    m.insert("telemetry.span_on_ns", per_call_ns(100, 500, span));
    dcs_telemetry::set_sampling_permille(0);
    // Empty the rings the sampled spans filled.
    drop(dcs_telemetry::export_chrome_json());
    m.insert(
        "telemetry.ledger_op_ns",
        per_call_ns(100, 1000, |_| dcs_telemetry::ledger().mm_op()),
    );
}

/// The paper's quantities from our own numbers: R by Equation 3 from the
/// same 80/20 mix run on a store that fits memory (P0) and on one an
/// eighth its size (PF, F); Px as Bw-tree over MassTree get time; Ti by
/// Equation 6 with the measured ROPS and R in the paper's price catalog.
fn costmodel(seed: u64, px: f64, m: &mut Metrics) -> Result<(), String> {
    const OPS: usize = 60_000;
    let cold_def = crate::harness::workloads()
        .into_iter()
        .find(|w| w.name == "store_cold")
        .expect("store_cold is a workload");
    let run = |budget: usize| -> (f64, f64, f64) {
        let store = store_builder(budget, true).build();
        load_store(&store, 0..RECORDS);
        let ops = ops_of(&cold_def, seed, OPS + OPS / 4);
        let mut gets = Vec::new();
        let (mut t_start, mut before) = (0, store.tree().stats());
        for (i, op) in ops.into_iter().enumerate() {
            if i == OPS / 4 {
                before = store.tree().stats();
                t_start = now_ns();
            }
            let key = keys::encode(op.id);
            if op.value.is_empty() {
                let t0 = now_ns();
                black_box(store.try_get(&key).ok());
                gets.push((now_ns() - t0) as u32);
            } else {
                store.put(key.to_vec(), op.value);
            }
        }
        let secs = (now_ns() - t_start) as f64 / 1e9;
        let f = store.tree().stats().delta(&before).ss_fraction();
        (OPS as f64 / secs, f, p50(&mut gets))
    };
    let (p0, _, hot_get_ns) = run(HOT_BUDGET);
    let (pf, f, _) = run(COLD_BUDGET);
    let r = mixed::derive_r(p0, pf, f).unwrap_or(0.0);
    let hw = HardwareCatalog {
        rops: 1e9 / hot_get_ns.max(1.0),
        r: r.max(1.0),
        ..HardwareCatalog::paper()
    };
    m.insert("costmodel.r_measured", r);
    m.insert("costmodel.px_measured", px);
    m.insert("costmodel.ti_measured_s", breakeven::ti_seconds(&hw));
    Ok(())
}
