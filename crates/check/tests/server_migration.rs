//! Deterministic interleaving scenarios for online range migration
//! (`dcs-server`'s rebalance engine over `dcs-rebalance`'s write gate).
//!
//! A migration is copy → freeze → replay → install: writes admitted
//! during the copy window apply at the source *and* mirror into the
//! gate's tail; writes arriving after the freeze bounce with `MOVED`.
//! These seeds race client writers against the migrator under every
//! interleaving and check the handoff contract:
//!
//! * every offered request is answered exactly once — `Ok`, `MOVED`,
//!   `BUSY`, or a shutdown error; nothing is parked and forgotten
//!   mid-handoff;
//! * every *acknowledged* write is readable at the shard the final map
//!   names for its key — the copy/tail handoff loses nothing, whether
//!   the write landed before the copy, raced it, or chased the install;
//! * no write is acknowledged twice or applied to a shard that the
//!   final map says does not own it.

use dcs_check::{explore_with, Config};
use dcs_server::protocol::{Request, Response};
use dcs_server::rebalance::migrate_range;
use dcs_server::shard::{Mail, Partitioner, ReplySink, Shard, ShardConfig};
use dcs_tc::RecoveryLog;
use dcs_workload::{KvStore, MemStore};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Answer book shared by the scenario: one response per request id,
/// asserted at delivery so a double-answer fails on the exact seed.
#[derive(Default)]
struct Ledger(Mutex<BTreeMap<u64, Response>>);

impl ReplySink for Ledger {
    fn deliver(&self, id: u64, resp: Response) {
        let prev = self.0.lock().unwrap().insert(id, resp);
        assert!(prev.is_none(), "request {id} answered twice");
    }
}

/// Two shards over a `["", "m")` / `["m", ..)` split, sharing one
/// router. Shard 1 is built with shard 0's router so both see the same
/// live map and gates, exactly as `Server::start_with` wires them.
fn two_shard_fixture() -> (Vec<Arc<Shard>>, Arc<dcs_rebalance::Router>) {
    let backends: Arc<Vec<Arc<dyn KvStore + Send + Sync>>> = Arc::new(vec![
        Arc::new(MemStore::default()),
        Arc::new(MemStore::default()),
    ]);
    let part = Arc::new(Partitioner::from_splits(vec![b"m".to_vec()]));
    let cfg = ShardConfig::default();
    let s0 = Arc::new(Shard::new(
        0,
        &cfg,
        backends.clone(),
        part.clone(),
        Arc::new(RecoveryLog::in_memory()),
    ));
    let router = s0.router().clone();
    let s1 = Arc::new(
        Shard::new(1, &cfg, backends, part, Arc::new(RecoveryLog::in_memory()))
            .with_router(router.clone()),
    );
    (vec![s0, s1], router)
}

fn mail(id: u64, req: Request, sink: &Arc<Ledger>) -> Mail {
    Mail {
        id,
        req,
        reply: sink.clone() as Arc<dyn ReplySink>,
        enqueued: dcs_telemetry::now_nanos(),
    }
}

/// Writers race a full range migration. Distinct keys per request keep
/// the oracle simple: an `Ok` to request `i` means key `k_i = v_i` must
/// be readable at whatever shard the *final* map routes `k_i` to.
#[test]
fn migration_hands_off_every_acked_write() {
    explore_with(
        "server-migration-handoff",
        Config {
            seeds: 0..60,
            ..Config::default()
        },
        || {
            let (shards, router) = two_shard_fixture();
            // Pre-migration resident data the bulk copy must carry over.
            for i in 0..4u32 {
                shards[0]
                    .kv_backend()
                    .kv_put(format!("a{i}").into_bytes(), b"seed".to_vec())
                    .unwrap();
            }
            let ledger = Arc::new(Ledger::default());

            let worker = {
                let shard = shards[0].clone();
                dcs_check::thread::spawn(move || shard.run())
            };
            let writer = {
                let shard = shards[0].clone();
                let ledger = ledger.clone();
                dcs_check::thread::spawn(move || {
                    for i in 0..5u64 {
                        shard.offer(mail(
                            i,
                            Request::Put {
                                key: format!("b{i}").into_bytes(),
                                value: format!("v{i}").into_bytes(),
                            },
                            &ledger,
                        ));
                    }
                    // A read racing the handoff must also resolve.
                    shard.offer(mail(
                        100,
                        Request::Get {
                            key: b"a0".to_vec(),
                        },
                        &ledger,
                    ));
                    shard.mailbox().close();
                })
            };
            let migrator = {
                let shards = shards.clone();
                let router = router.clone();
                dcs_check::thread::spawn(move || migrate_range(&router, &shards, 0, 1))
            };

            writer.join().unwrap();
            worker.join().unwrap();
            let moved = migrator.join().unwrap();

            // The migration itself cannot fail in this scenario: the
            // gate is uncontended and both backends are infallible.
            let stats = moved.expect("migration aborted");
            let map = router.map().load();
            assert_eq!(map.epoch(), stats.epoch, "installed map not live");
            assert_eq!(map.shard_of(b"a0"), 1, "range 0 still on the source");
            // Bulk copy carried at least the 4 resident records; tail
            // replay accounts for writes that raced the copy window.
            assert!(stats.copied >= 4, "bulk copy missed resident records");

            let answers = ledger.0.lock().unwrap();
            assert_eq!(answers.len(), 6, "a request was never answered");
            for i in 0..5u64 {
                let key = format!("b{i}").into_bytes();
                let want = format!("v{i}").into_bytes();
                let owner = map.shard_of(&key);
                let at_owner = shards[owner].kv_backend().kv_get(&key).unwrap();
                match &answers[&i] {
                    // Acked ⇒ durable at the shard the final map names.
                    Response::Ok => {
                        assert_eq!(
                            at_owner.as_ref(),
                            Some(&want),
                            "acked write {i} lost in handoff"
                        );
                    }
                    // Bounced ⇒ the redirect names the real new owner,
                    // and the write must NOT have been applied there.
                    Response::Moved { shard, .. } => {
                        assert_eq!(*shard as usize, owner, "redirect to a non-owner");
                        assert!(at_owner.is_none(), "bounced write {i} applied anyway");
                    }
                    other => panic!("request {i}: unexpected {other:?}"),
                }
            }
            match &answers[&100] {
                Response::Value(v) => assert_eq!(v.as_deref(), Some(b"seed".as_slice())),
                Response::Moved { shard, .. } => assert_eq!(*shard, 1),
                other => panic!("read: unexpected {other:?}"),
            }
        },
    );
}

/// The migration aimed the other way: the writer's keys live in the
/// range that is *not* moving, so every write must be acknowledged and
/// stay on shard 0 regardless of interleaving — the gate must not
/// bounce or mirror traffic outside its lease.
#[test]
fn unrelated_range_is_untouched_by_migration() {
    explore_with(
        "server-migration-bystander",
        Config {
            seeds: 0..40,
            ..Config::default()
        },
        || {
            let (shards, router) = two_shard_fixture();
            shards[1]
                .kv_backend()
                .kv_put(b"z0".to_vec(), b"seed".to_vec())
                .unwrap();
            let ledger = Arc::new(Ledger::default());

            let worker = {
                let shard = shards[0].clone();
                dcs_check::thread::spawn(move || shard.run())
            };
            let writer = {
                let shard = shards[0].clone();
                let ledger = ledger.clone();
                dcs_check::thread::spawn(move || {
                    for i in 0..4u64 {
                        shard.offer(mail(
                            i,
                            Request::Put {
                                key: format!("a{i}").into_bytes(),
                                value: format!("v{i}").into_bytes(),
                            },
                            &ledger,
                        ));
                    }
                    shard.mailbox().close();
                })
            };
            // Range 1 (["m", ..), on shard 1) moves to shard 0 while
            // shard 0's worker serves range-0 writes.
            let migrator = {
                let shards = shards.clone();
                let router = router.clone();
                dcs_check::thread::spawn(move || migrate_range(&router, &shards, 1, 0))
            };

            writer.join().unwrap();
            worker.join().unwrap();
            migrator.join().unwrap().expect("migration aborted");

            let map = router.map().load();
            assert_eq!(map.shard_of(b"z0"), 0, "range 1 did not arrive");
            assert_eq!(
                shards[0].kv_backend().kv_get(b"z0").unwrap(),
                Some(b"seed".to_vec()),
                "moved range lost its record"
            );
            let answers = ledger.0.lock().unwrap();
            assert_eq!(answers.len(), 4, "a request was never answered");
            for i in 0..4u64 {
                assert_eq!(answers[&i], Response::Ok, "bystander write {i} not acked");
                let key = format!("a{i}").into_bytes();
                assert_eq!(
                    shards[0].kv_backend().kv_get(&key).unwrap(),
                    Some(format!("v{i}").into_bytes()),
                    "bystander write {i} lost"
                );
            }
        },
    );
}
