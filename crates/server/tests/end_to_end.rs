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
    keys, AsyncGet, CompletedGet, KvStore, MemStore, Runner, StoreFailure, WorkloadSpec,
};
use std::collections::HashSet;
use std::sync::atomic::Ordering;
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
struct SlowStore(MemStore);

// The 1 ms stands for store work on the shard thread, so it sleeps around
// the shard's blocking check rather than through it.
#[allow(clippy::disallowed_methods)]
impl KvStore for SlowStore {
    fn kv_get(&self, key: &[u8]) -> Result<Option<Vec<u8>>, StoreFailure> {
        std::thread::sleep(std::time::Duration::from_millis(1));
        self.0.kv_get(key)
    }
    fn kv_put(&self, key: Vec<u8>, value: Vec<u8>) -> Result<(), StoreFailure> {
        std::thread::sleep(std::time::Duration::from_millis(1));
        self.0.kv_put(key, value)
    }
    fn kv_delete(&self, key: Vec<u8>) -> Result<(), StoreFailure> {
        self.0.kv_delete(key)
    }
}

#[test]
fn flood_gets_busy_not_hangs_and_accepted_ops_all_answered() {
    let server = Server::start_with(
        vec![ShardBackend {
            kv: Arc::new(SlowStore(MemStore::default())),
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
    map: MemStore,
    delay: Duration,
    next_token: std::sync::atomic::AtomicU64,
    pending: std::sync::Mutex<Vec<(u64, Vec<u8>, Instant)>>,
}

impl KvStore for ColdKeyStore {
    fn kv_get(&self, key: &[u8]) -> Result<Option<Vec<u8>>, StoreFailure> {
        if key.starts_with(b"cold") {
            dcs_syncshim::block::sleep(self.delay);
        }
        self.map.kv_get(key)
    }
    fn kv_put(&self, key: Vec<u8>, value: Vec<u8>) -> Result<(), StoreFailure> {
        self.map.kv_put(key, value)
    }
    fn kv_delete(&self, key: Vec<u8>) -> Result<(), StoreFailure> {
        self.map.kv_delete(key)
    }
    fn kv_get_submit(&self, key: &[u8]) -> Result<AsyncGet, StoreFailure> {
        if !key.starts_with(b"cold") {
            return self.map.kv_get(key).map(AsyncGet::Ready);
        }
        let token = self.next_token.fetch_add(1, Ordering::Relaxed);
        let ready = Instant::now() + self.delay;
        self.pending
            .lock()
            .unwrap()
            .push((token, key.to_vec(), ready));
        Ok(AsyncGet::Pending(token))
    }
    fn kv_poll(&self, out: &mut Vec<CompletedGet>) -> usize {
        let now = Instant::now();
        let before = out.len();
        self.pending.lock().unwrap().retain(|(token, key, ready)| {
            let done = *ready <= now;
            if done {
                let result = self.map.kv_get(key);
                out.push(CompletedGet {
                    token: *token,
                    result,
                });
            }
            !done
        });
        out.len() - before
    }
}

fn start_cold_key_server(delay: Duration) -> (Server, Arc<ColdKeyStore>) {
    let store = Arc::new(ColdKeyStore {
        map: MemStore::default(),
        delay,
        next_token: Default::default(),
        pending: Default::default(),
    });
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
    assert!(store.pending.lock().unwrap().is_empty());
}

/// The flash-backed stores served the way the benchmark's wire workloads
/// and CI's loadgen runs serve them: a GET that needs the device parks
/// instead of blocking the shard. The caching store misses
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

/// GETs the connection readers answered themselves, and requests the
/// shard mailboxes accepted, summed over the shards.
fn inline_and_mailed(server: &Server) -> (u64, u64) {
    server.shards().iter().fold((0, 0), |(inline, mailed), s| {
        (
            inline + s.metrics().inline_gets.load(Ordering::Relaxed),
            mailed + s.mailbox().stats().accepted,
        )
    })
}

/// A GET hit on a connection with nothing else outstanding is answered
/// by the connection reader: it never enters a shard mailbox, and STATS
/// counts it under `server.inline_gets`.
#[test]
fn idle_connection_get_hits_skip_the_mailbox() {
    const RECORDS: u64 = 500;
    let (server, _partitioner) = start_caching(2, RECORDS);
    let client = Client::connect(
        server.addr(),
        ClientConfig {
            connections: 1,
            ..ClientConfig::default()
        },
    )
    .unwrap();
    for id in 0..RECORDS {
        client
            .put(&keys::encode(id), &keys::value_for(id, 1, 64))
            .unwrap();
    }
    let (inline0, mailed0) = inline_and_mailed(&server);
    for id in 0..RECORDS {
        let v = client.get(&keys::encode(id)).unwrap().expect("hit");
        assert_eq!(keys::parse_value(&v), Some((id, 1)));
    }
    let (inline1, mailed1) = inline_and_mailed(&server);
    assert_eq!(
        inline1 - inline0,
        RECORDS,
        "every idle-connection hit inline"
    );
    assert_eq!(mailed1, mailed0, "an inline GET entered a shard mailbox");
    let doc = dcs_telemetry::Json::parse(&client.stats().unwrap()).unwrap();
    assert_eq!(
        doc.at(&["registry", "counters", "server.inline_gets"]),
        Some(&dcs_telemetry::Json::UInt(inline1))
    );
    client.close();
    server.shutdown();
}

/// A GET pipelined behind an unanswered PUT on one connection reads that
/// PUT, whichever path serves it.
#[test]
fn pipelined_put_then_get_reads_the_put() {
    let (server, _partitioner) = start_caching(2, 1_000);
    let client = Client::connect(
        server.addr(),
        ClientConfig {
            connections: 1,
            ..ClientConfig::default()
        },
    )
    .unwrap();
    let key = keys::encode(7).to_vec();
    for i in 0..1_000u32 {
        let value = keys::value_for(7, i, 32);
        let put = client
            .submit(Request::Put {
                key: key.clone(),
                value: value.clone(),
            })
            .unwrap();
        let get = client.submit(Request::Get { key: key.clone() }).unwrap();
        assert_eq!(put.wait().unwrap(), Response::Ok);
        assert_eq!(
            get.wait().unwrap(),
            Response::Value(Some(value)),
            "round {i}"
        );
    }
    client.close();
    server.shutdown();
}

/// A GET whose leaf was evicted to flash is declined by the connection
/// reader's memory-only probe and answered through the shard's
/// parked-miss path; the store counts every GET once on either path.
#[test]
fn evicted_get_is_served_by_the_shard_and_counted_once() {
    const RECORDS: u64 = 2_000;
    let store = Arc::new(
        dcs_core::StoreBuilder::small_test()
            .memory_budget(64 << 10)
            .build(),
    );
    let server = Server::start_with(
        vec![ShardBackend {
            kv: store.clone(),
            async_kv: Some(store.clone()),
        }],
        Partitioner::single(),
        ServerConfig::default(),
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
    for id in 0..RECORDS {
        client
            .put(&keys::encode(id), &keys::value_for(id, 1, 100))
            .unwrap();
    }
    store.sweep().unwrap();
    // A declined probe counts nothing, so it can pick the evicted key.
    let cold = (0..RECORDS)
        .find(|&id| store.get_resident(&keys::encode(id)).is_none())
        .expect("sweep evicted no leaf");
    let shard = &server.shards()[0];
    let get = |id: u64| {
        let (gets, inline, misses) = (
            store.stats().tree.gets,
            shard.metrics().inline_gets.load(Ordering::Relaxed),
            shard.metrics().misses_submitted.load(Ordering::Relaxed),
        );
        let v = client.get(&keys::encode(id)).unwrap().expect("present");
        assert_eq!(keys::parse_value(&v), Some((id, 1)));
        assert_eq!(
            store.stats().tree.gets,
            gets + 1,
            "GET {id} not counted once"
        );
        (
            shard.metrics().inline_gets.load(Ordering::Relaxed) - inline,
            shard.metrics().misses_submitted.load(Ordering::Relaxed) - misses,
        )
    };
    assert_eq!(get(cold), (0, 1), "evicted GET: parked miss at the shard");
    assert_eq!(get(cold), (1, 0), "re-read of the fetched leaf: inline");
    client.close();
    server.shutdown();
}
