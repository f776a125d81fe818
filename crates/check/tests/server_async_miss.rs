//! Deterministic interleaving scenario for the shard's async miss path:
//! a producer races the shard worker (and a mailbox close) while GETs
//! miss to a fake device and get *parked* in the shard's pending-miss
//! table. Under every interleaving, shutdown must answer every accepted
//! request — including the parked ones — exactly once. A parked miss
//! silently dropped at close is exactly the bug the planted-doorbell demo
//! in `io_engine.rs` shows the checker catching one layer down.

use dcs_check::explore_with;
use dcs_server::protocol::{Request, Response};
use dcs_server::shard::{Mail, Partitioner, ReplySink, Shard, ShardConfig};
use dcs_tc::RecoveryLog;
use dcs_workload::{AsyncGet, CompletedGet, KvStore, MemStore, StoreFailure};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Deterministic async store: `cold*` keys always miss; a miss's
/// completion is reapable at the very next poll (no wall-clock delay, so
/// the scheduler fully controls the interesting orderings — which all
/// live in the instrumented mailbox and the shard's park/drain loop).
#[derive(Default)]
struct ColdStore {
    map: MemStore,
    next_token: AtomicU64,
    pending: Mutex<Vec<(u64, Vec<u8>)>>,
}

impl KvStore for ColdStore {
    fn kv_get(&self, key: &[u8]) -> Result<Option<Vec<u8>>, StoreFailure> {
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
        let token = self.next_token.fetch_add(1, Ordering::Relaxed) + 1;
        self.pending.lock().unwrap().push((token, key.to_vec()));
        Ok(AsyncGet::Pending(token))
    }
    fn kv_poll(&self, out: &mut Vec<CompletedGet>) -> usize {
        let mut pending = self.pending.lock().unwrap();
        let n = pending.len();
        for (token, key) in pending.drain(..) {
            let result = self.map.kv_get(&key);
            out.push(CompletedGet { token, result });
        }
        n
    }
}

/// Reply sink shared by the scenario: counts every answer by request id.
#[derive(Default)]
struct Ledger(Mutex<BTreeMap<u64, Response>>);

impl ReplySink for Ledger {
    fn deliver(&self, id: u64, resp: Response) {
        let prev = self.0.lock().unwrap().insert(id, resp);
        assert!(prev.is_none(), "request {id} answered twice");
    }
}

/// A producer offers a mix of missing and hitting GETs and then closes
/// the mailbox while the worker is mid-drain. Every request
/// must resolve exactly once: served with the right value, or refused
/// with a shutdown error at the mailbox — never parked-and-forgotten.
#[test]
fn shutdown_answers_every_parked_miss() {
    explore_with(
        "server-async-miss-shutdown",
        dcs_check::Config {
            seeds: 0..60,
            ..dcs_check::Config::default()
        },
        || {
            let store = Arc::new(ColdStore::default());
            store.kv_put(b"cold0".to_vec(), b"c0".to_vec()).unwrap();
            store.kv_put(b"cold1".to_vec(), b"c1".to_vec()).unwrap();
            store.kv_put(b"cold2".to_vec(), b"c2".to_vec()).unwrap();
            store.kv_put(b"hot".to_vec(), b"h".to_vec()).unwrap();
            let backends: Arc<Vec<Arc<dyn KvStore + Send + Sync>>> = Arc::new(vec![store.clone()]);
            let cfg = ShardConfig {
                batch_max: 2,
                ..ShardConfig::default()
            };
            let shard = Arc::new(Shard::new(
                0,
                &cfg,
                backends,
                Arc::new(Partitioner::single()),
                Arc::new(RecoveryLog::in_memory()),
            ));
            let ledger = Arc::new(Ledger::default());

            let worker = {
                let shard = shard.clone();
                dcs_check::thread::spawn(move || shard.run())
            };
            let producer = {
                let shard = shard.clone();
                let ledger = ledger.clone();
                dcs_check::thread::spawn(move || {
                    let reqs: [(u64, &[u8]); 5] = [
                        (1, b"cold0"),
                        (2, b"hot"),
                        (3, b"cold1"),
                        (4, b"hot"),
                        (5, b"cold2"),
                    ];
                    for (id, key) in reqs {
                        shard.offer(Mail {
                            id,
                            req: Request::Get { key: key.to_vec() },
                            reply: ledger.clone() as Arc<dyn ReplySink>,
                            enqueued: dcs_telemetry::now_nanos(),
                        });
                    }
                    shard.mailbox().close();
                })
            };

            producer.join().unwrap();
            worker.join().unwrap();

            let answers = ledger.0.lock().unwrap();
            assert_eq!(answers.len(), 5, "a request was never answered");
            let expected: [(u64, Option<&[u8]>); 5] = [
                (1, Some(b"c0")),
                (2, Some(b"h")),
                (3, Some(b"c1")),
                (4, Some(b"h")),
                (5, Some(b"c2")),
            ];
            for (id, want) in expected {
                match &answers[&id] {
                    Response::Value(got) => {
                        assert_eq!(got.as_deref(), want, "request {id} answered wrongly")
                    }
                    other => panic!("request {id}: unexpected {other:?}"),
                }
            }
            assert!(
                store.pending.lock().unwrap().is_empty(),
                "fetches left dangling"
            );
            assert_eq!(
                shard.metrics().misses_submitted.load(Ordering::Relaxed),
                3,
                "every cold GET must take the miss path"
            );
        },
    );
}
