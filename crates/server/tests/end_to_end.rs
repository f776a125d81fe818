//! Wire-level end-to-end tests: multi-shard serving, pipelining across
//! connections, BUSY backpressure under flood, drain-and-flush shutdown
//! with zero dropped acknowledged writes, and the existing workload
//! `Runner` driving a server over TCP through the client's `KvStore` impl.

// Tests bound their waits with wall-clock deadlines.
#![allow(clippy::disallowed_types)]

use dcs_core::{BackendKind, BackendOpts};
use dcs_server::protocol::{Request, Response};
use dcs_server::{
    Client, ClientConfig, Partitioner, Server, ServerConfig, ShardBackend, ShardConfig,
};
use dcs_workload::{
    keys, AsyncGet, AsyncKvStore, CompletedGet, KvStore, Runner, StoreFailure, WorkloadSpec,
};
use std::collections::HashSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn start_caching(shards: usize, records: u64) -> (Server, Partitioner) {
    let partitioner = if shards == 1 {
        Partitioner::single()
    } else {
        Partitioner::from_splits(keys::range_splits(records, shards))
    };
    let server = Server::start_with(
        BackendKind::Caching
            .build_shards_with(shards, BackendOpts::default())
            .into_iter()
            .map(ShardBackend::from)
            .collect(),
        partitioner.clone(),
        ServerConfig::default(),
    )
    .expect("start server");
    (server, partitioner)
}

/// The acceptance scenario: ≥4 shards, multiple pipelined connections,
/// drain shutdown, then every acknowledged write re-read from the
/// backends.
#[test]
fn four_shards_pipelined_no_acked_write_lost() {
    const RECORDS: u64 = 2_000;
    let (server, partitioner) = start_caching(4, RECORDS);
    let backends = server.backends();
    let client = Client::connect(
        server.addr(),
        ClientConfig {
            connections: 3,
            ..ClientConfig::default()
        },
    )
    .unwrap();

    // Pipeline a burst of writes and reads across the whole key space so
    // every shard sees traffic, without waiting between submissions.
    let mut write_tickets = Vec::new();
    for id in 0..RECORDS {
        let key = keys::encode(id).to_vec();
        let value = keys::value_for(id, 1, 64);
        write_tickets.push((id, client.submit(Request::Put { key, value }).unwrap()));
    }
    let mut acked: HashSet<u64> = HashSet::new();
    for (id, t) in write_tickets {
        match t.wait().unwrap() {
            Response::Ok => {
                acked.insert(id);
            }
            Response::Busy => {} // rejected, not acked: allowed to be absent
            other => panic!("write {id}: {other:?}"),
        }
    }

    // An ack means applied: reads pipelined after the acks must see every
    // acknowledged write, from any connection in the pool.
    let mut read_tickets = Vec::new();
    for id in (0..RECORDS).step_by(7) {
        let key = keys::encode(id).to_vec();
        read_tickets.push((id, client.submit(Request::Get { key }).unwrap()));
    }
    for (id, t) in read_tickets {
        match t.wait().unwrap() {
            Response::Value(v) => {
                if acked.contains(&id) {
                    let v = v.unwrap_or_else(|| panic!("read {id}: acked write not visible"));
                    assert_eq!(keys::parse_value(&v), Some((id, 1)));
                }
            }
            Response::Busy => {}
            other => panic!("read {id}: {other:?}"),
        }
    }

    // Cross-shard scan over the wire: counts records across split keys.
    let scanned = client.scan(&keys::encode(0), RECORDS as u32).unwrap();
    assert_eq!(scanned as u64, acked.len() as u64);

    client.close();
    let report = server.shutdown();

    // All four shards actually served traffic...
    assert_eq!(report.shards.len(), 4);
    for (i, s) in report.shards.iter().enumerate() {
        assert!(s.total_ops() > 0, "shard {i} idle");
        assert!(s.group_commits > 0, "shard {i} never group-committed");
    }
    // ...group commit actually batched (fewer commits than records)...
    let commits: u64 = report.shards.iter().map(|s| s.group_commits).sum();
    let committed: u64 = report
        .shards
        .iter()
        .map(|s| s.group_committed_records)
        .sum();
    assert_eq!(committed, acked.len() as u64, "every acked write logged");
    assert!(commits < committed, "group commit should batch writes");
    // ...and zero acknowledged writes were dropped by the drain shutdown.
    for &id in &acked {
        let key = keys::encode(id);
        let got = backends[partitioner.shard_of(&key)]
            .kv_get(&key)
            .unwrap()
            .unwrap_or_else(|| panic!("acked write {id} lost after shutdown"));
        assert_eq!(keys::parse_value(&got), Some((id, 1)));
    }
}

/// A deliberately slow store: every op takes ~1ms, so a flood through a
/// tiny mailbox must hit the BUSY path.
struct SlowStore(std::sync::Mutex<std::collections::BTreeMap<Vec<u8>, Vec<u8>>>);

impl KvStore for SlowStore {
    fn kv_get(&self, key: &[u8]) -> Result<Option<Vec<u8>>, StoreFailure> {
        std::thread::sleep(std::time::Duration::from_millis(1));
        Ok(self.0.lock().unwrap().get(key).cloned())
    }
    fn kv_put(&self, key: Vec<u8>, value: Vec<u8>) -> Result<(), StoreFailure> {
        std::thread::sleep(std::time::Duration::from_millis(1));
        self.0.lock().unwrap().insert(key, value);
        Ok(())
    }
    fn kv_delete(&self, key: Vec<u8>) -> Result<(), StoreFailure> {
        self.0.lock().unwrap().remove(&key);
        Ok(())
    }
    fn kv_scan(&self, start: &[u8], limit: usize) -> Result<usize, StoreFailure> {
        Ok(self
            .0
            .lock()
            .unwrap()
            .range(start.to_vec()..)
            .take(limit)
            .count())
    }
}

#[test]
fn flood_gets_busy_not_hangs_and_accepted_ops_all_answered() {
    let server = Server::start_with(
        vec![ShardBackend {
            kv: Arc::new(SlowStore(Default::default())),
            async_kv: None,
        }],
        Partitioner::single(),
        ServerConfig {
            shard: ShardConfig {
                mailbox_capacity: 4,
                batch_max: 2,
            },
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let client = Client::connect(
        server.addr(),
        ClientConfig {
            connections: 1,
            ..ClientConfig::default()
        },
    )
    .unwrap();

    const FLOOD: usize = 200;
    let mut tickets = Vec::new();
    for i in 0..FLOOD {
        tickets.push(
            client
                .submit(Request::Put {
                    key: format!("k{i:04}").into_bytes(),
                    value: vec![7; 16],
                })
                .unwrap(),
        );
    }
    let mut ok = 0usize;
    let mut busy = 0usize;
    for t in tickets {
        match t.wait().unwrap() {
            Response::Ok => ok += 1,
            Response::Busy => busy += 1,
            other => panic!("{other:?}"),
        }
    }
    assert_eq!(ok + busy, FLOOD, "every request answered");
    assert!(
        busy > 0,
        "a 1ms/op store behind a 4-deep mailbox must shed load"
    );
    assert!(ok > 0, "some requests must get through");

    client.close();
    let report = server.shutdown();
    assert_eq!(report.shards[0].busy_rejections, busy as u64);
    let mb = &report.mailboxes[0];
    assert_eq!(mb.accepted, mb.drained, "no accepted request dropped");
    assert!(mb.depth_high_water() <= 4);
}

/// Async test double with a deterministic miss set: keys starting with
/// `cold` take a wall-clock device delay; everything else is served from
/// memory. Lets the wire-level tests control exactly which GETs miss.
struct ColdKeyStore {
    map: std::sync::Mutex<std::collections::BTreeMap<Vec<u8>, Vec<u8>>>,
    delay: Duration,
    next_token: std::sync::atomic::AtomicU64,
    pending: std::sync::Mutex<Vec<(u64, Vec<u8>, Instant)>>,
}

impl ColdKeyStore {
    fn new(delay: Duration) -> Self {
        ColdKeyStore {
            map: Default::default(),
            delay,
            next_token: std::sync::atomic::AtomicU64::new(1),
            pending: Default::default(),
        }
    }
}

impl KvStore for ColdKeyStore {
    fn kv_get(&self, key: &[u8]) -> Result<Option<Vec<u8>>, StoreFailure> {
        if key.starts_with(b"cold") {
            std::thread::sleep(self.delay);
        }
        Ok(self.map.lock().unwrap().get(key).cloned())
    }
    fn kv_put(&self, key: Vec<u8>, value: Vec<u8>) -> Result<(), StoreFailure> {
        self.map.lock().unwrap().insert(key, value);
        Ok(())
    }
    fn kv_delete(&self, key: Vec<u8>) -> Result<(), StoreFailure> {
        self.map.lock().unwrap().remove(&key);
        Ok(())
    }
    fn kv_scan(&self, start: &[u8], limit: usize) -> Result<usize, StoreFailure> {
        Ok(self
            .map
            .lock()
            .unwrap()
            .range(start.to_vec()..)
            .take(limit)
            .count())
    }
}

impl AsyncKvStore for ColdKeyStore {
    fn kv_get_submit(&self, key: &[u8]) -> Result<AsyncGet, StoreFailure> {
        if key.starts_with(b"cold") {
            let token = self
                .next_token
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            self.pending
                .lock()
                .unwrap()
                .push((token, key.to_vec(), Instant::now() + self.delay));
            Ok(AsyncGet::Pending(token))
        } else {
            Ok(AsyncGet::Ready(self.map.lock().unwrap().get(key).cloned()))
        }
    }
    fn kv_poll(&self, out: &mut Vec<CompletedGet>) -> usize {
        let mut pending = self.pending.lock().unwrap();
        let now = Instant::now();
        let mut reaped = 0;
        pending.retain(|(token, key, ready)| {
            if *ready <= now {
                out.push(CompletedGet {
                    token: *token,
                    result: Ok(self.map.lock().unwrap().get(key).cloned()),
                });
                reaped += 1;
                false
            } else {
                true
            }
        });
        reaped
    }
    fn kv_inflight(&self) -> usize {
        self.pending.lock().unwrap().len()
    }
}

fn start_cold_key_server(delay: Duration) -> (Server, Arc<ColdKeyStore>) {
    let store = Arc::new(ColdKeyStore::new(delay));
    store.kv_put(b"coldA".to_vec(), b"polar".to_vec()).unwrap();
    store.kv_put(b"hot".to_vec(), b"lava".to_vec()).unwrap();
    let server = Server::start_with(
        vec![ShardBackend {
            kv: store.clone(),
            async_kv: Some(store.clone()),
        }],
        Partitioner::single(),
        ServerConfig::default(),
    )
    .unwrap();
    (server, store)
}

/// The acceptance scenario for the async miss path, over the wire: a GET
/// that misses to a slow device must not delay pipelined GETs that hit,
/// on the *same shard and connection*, and the miss itself is still
/// answered correctly (out of order, by request id).
#[test]
fn slow_miss_does_not_block_hits_over_the_wire() {
    const DELAY: Duration = Duration::from_millis(300);
    let (server, store) = start_cold_key_server(DELAY);
    let client = Client::connect(
        server.addr(),
        ClientConfig {
            connections: 1,
            ..ClientConfig::default()
        },
    )
    .unwrap();

    let t0 = Instant::now();
    let cold = client
        .submit(Request::Get {
            key: b"coldA".to_vec(),
        })
        .unwrap();
    let hits: Vec<_> = (0..8)
        .map(|_| {
            client
                .submit(Request::Get {
                    key: b"hot".to_vec(),
                })
                .unwrap()
        })
        .collect();
    for t in hits {
        assert_eq!(t.wait().unwrap(), Response::Value(Some(b"lava".to_vec())));
    }
    let hits_done = t0.elapsed();
    assert!(
        hits_done < DELAY,
        "hits pipelined behind a {DELAY:?} miss took {hits_done:?} — the miss blocked the shard"
    );
    assert_eq!(
        cold.wait().unwrap(),
        Response::Value(Some(b"polar".to_vec()))
    );
    assert!(t0.elapsed() >= DELAY, "miss answered before its fetch");

    client.close();
    let report = server.shutdown();
    assert_eq!(report.shards[0].misses, 1);
    assert_eq!(report.shards[0].miss_latency.count, 1);
    assert_eq!(store.kv_inflight(), 0);
}

/// The flash-backed stores served the way the benchmark's wire workloads
/// and CI's loadgen runs serve them: `build_shards_with` hands
/// `Server::start_with` the submit/poll handle, so a GET that needs the
/// device parks instead of blocking the shard. The caching store misses
/// past its 64 KiB budget; the LSM's 32 KiB memtable sends most of the
/// keys to SSTables, whose reads park the same way.
#[test]
fn caching_store_serves_parked_misses_through_its_async_handle() {
    for kind in [BackendKind::Caching, BackendKind::Lsm] {
        serves_parked_misses(kind);
    }
}

fn serves_parked_misses(kind: BackendKind) {
    const RECORDS: u64 = 6_000;
    const WINDOW: usize = 128;
    let opts = BackendOpts {
        memory_budget: Some(64 << 10),
        ..BackendOpts::default()
    };
    let server = Server::start_with(
        kind.build_shards_with(2, opts)
            .into_iter()
            .map(ShardBackend::from)
            .collect(),
        Partitioner::from_splits(keys::range_splits(RECORDS, 2)),
        ServerConfig::default(),
    )
    .unwrap();
    let client = Client::connect(server.addr(), ClientConfig::default()).unwrap();

    // Pipelined, a window at a time so no mailbox overflows into BUSY.
    let ids: Vec<u64> = (0..RECORDS).collect();
    for window in ids.chunks(WINDOW) {
        let tickets: Vec<_> = window
            .iter()
            .map(|&id| {
                let (key, value) = (keys::encode(id).to_vec(), keys::value_for(id, 1, 100));
                client.submit(Request::Put { key, value }).unwrap()
            })
            .collect();
        for t in tickets {
            assert!(matches!(t.wait().unwrap(), Response::Ok));
        }
    }
    for window in ids.chunks(WINDOW) {
        let tickets: Vec<_> = window
            .iter()
            .map(|&id| {
                let key = keys::encode(id).to_vec();
                client.submit(Request::Get { key }).unwrap()
            })
            .collect();
        for (&id, t) in window.iter().zip(tickets) {
            match t.wait().unwrap() {
                Response::Value(Some(v)) => assert_eq!(keys::parse_value(&v), Some((id, 1))),
                other => panic!("{}: read {id}: {other:?}", kind.name()),
            }
        }
    }

    client.close();
    let report = server.shutdown();
    let parked: Vec<_> = report
        .shards
        .iter()
        .map(|s| (s.misses, s.parked_peak))
        .collect();
    assert!(
        parked.iter().any(|&(misses, peak)| misses > 0 && peak > 0),
        "{}: no GET parked on the device: {parked:?}",
        kind.name()
    );
}

/// The pooled client is a `KvStore`, so the stock workload runner can
/// drive a live server over TCP with no special casing.
#[test]
fn workload_runner_drives_server_over_the_wire() {
    const RECORDS: u64 = 400;
    let (server, _partitioner) = start_caching(2, RECORDS);
    let client = Client::connect(
        server.addr(),
        ClientConfig {
            connections: 2,
            ..ClientConfig::default()
        },
    )
    .unwrap();

    let spec = WorkloadSpec::ycsb('f', RECORDS, 48, 11);
    let runner = Runner::new(spec);
    assert_eq!(runner.load(&client).unwrap(), RECORDS);
    let counts = runner.run(&client, 2_000).unwrap();
    assert_eq!(counts.total(), 2_000);
    assert!(counts.read_hits as f64 / counts.reads as f64 > 0.95);

    client.close();
    let report = server.shutdown();
    let served: u64 = report.shards.iter().map(|s| s.total_ops()).sum();
    assert!(served >= 2_000 + RECORDS);
}
