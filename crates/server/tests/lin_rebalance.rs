//! Linearizability of wire-level reads and writes racing online range
//! migrations.
//!
//! Client threads hammer a small key pool through the pipelined TCP
//! client while the main thread migrates the range holding that pool
//! between shards — there and back — mid-window. Every window's history
//! is then checked with `dcs-lin`'s WGL checker under the per-key
//! register model: whatever the interleaving of copy, tail replay,
//! freeze bounces (`MOVED` retried inside the client), and map installs,
//! each operation must still take effect atomically somewhere between
//! its invocation and its response. A write acked at the source but lost
//! in the handoff, or a stale read served from the old owner after the
//! install, shows up as a non-linearizable history here.

use dcs_core::{BackendKind, BackendOpts};
use dcs_lin::{ConcurrentMap, Recorded, ScanSemantics};
use dcs_server::{Client, ClientConfig, Partitioner, Server, ServerConfig, ShardBackend};
use rand::{rngs::SmallRng, Rng, SeedableRng};
use std::sync::Arc;

/// The server seen through its own client: the unit under test is the
/// whole serving stack (protocol, mailboxes, shard workers, write gate,
/// map routing), not a single in-process structure.
struct WireMap(Arc<Client>);

impl ConcurrentMap for WireMap {
    fn put(&self, key: &[u8], value: &[u8]) {
        self.0.put(key, value).expect("wire put");
    }

    fn get(&self, key: &[u8]) -> Option<bytes::Bytes> {
        self.0.get(key).expect("wire get").map(bytes::Bytes::from)
    }

    fn delete(&self, key: &[u8]) {
        self.0.delete(key).expect("wire delete");
    }

    fn scan(&self, _start: &[u8], _end: Option<&[u8]>) -> Vec<(bytes::Bytes, bytes::Bytes)> {
        // The wire protocol's scan returns a count, not entries; these
        // windows only record point ops, so this is never exercised.
        Vec::new()
    }

    fn scan_semantics(&self) -> ScanSemantics {
        ScanSemantics::PerKey
    }

    fn name(&self) -> &'static str {
        "dcs-server-wire"
    }
}

const THREADS: usize = 3;
const OPS_PER_THREAD: usize = 12;
const ROUNDS: usize = 8;

/// One window: client threads do random gets/puts/deletes over a 4-key
/// pool private to this round while the main thread moves the pool's
/// range to the other shard and back. History checked per window.
#[test]
fn wire_ops_racing_range_moves_are_linearizable() {
    let backends = BackendKind::Caching
        .build_shards_with(2, BackendOpts::default())
        .into_iter()
        .map(ShardBackend::from)
        .collect();
    // All window keys ("w…") sort above "m": they start on shard 1 and
    // ping-pong between the shards as the test migrates their range.
    let server = Server::start_with(
        backends,
        Partitioner::from_splits(vec![b"m".to_vec()]),
        ServerConfig::default(),
    )
    .expect("start server");
    let client = Arc::new(
        Client::connect(
            server.addr(),
            ClientConfig {
                connections: 2,
                ..ClientConfig::default()
            },
        )
        .expect("connect"),
    );
    let rec = Arc::new(Recorded::new(WireMap(client.clone())));

    for round in 0..ROUNDS {
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let rec = Arc::clone(&rec);
                s.spawn(move || {
                    let mut rng = SmallRng::seed_from_u64((round * 131 + t) as u64);
                    for i in 0..OPS_PER_THREAD {
                        let key = format!("w{round}-k{}", rng.gen_range(0..4u32));
                        match rng.gen_range(0..10u32) {
                            0..=4 => {
                                let _ = rec.get(t, key.as_bytes());
                            }
                            5..=8 => {
                                let value = format!("r{round}t{t}i{i}");
                                rec.put(t, key.as_bytes(), value.as_bytes());
                            }
                            _ => rec.delete(t, key.as_bytes()),
                        }
                    }
                });
            }
            // Mid-window, move the range owning the "w…" pool to the
            // other shard, then move it back: two full copy/freeze/
            // replay/install handoffs race the client threads above.
            let there = {
                let map = server.router().map().load();
                let range = map.range_of(b"w");
                let owner = map.owner_of_range(range).expect("owned range");
                server
                    .migrate_range(range, 1 - owner)
                    .expect("migrate there");
                1 - owner
            };
            let map = server.router().map().load();
            let range = map.range_of(b"w");
            assert_eq!(map.owner_of_range(range), Some(there));
            server
                .migrate_range(range, 1 - there)
                .expect("migrate back");
        });
        rec.check(&format!("rebalance round {round}"));
    }

    // The moves really happened online: each round installs two epochs.
    assert!(
        server.router().map().load().epoch() >= (ROUNDS as u64) * 2,
        "migrations did not install new map epochs"
    );
    client.close();
    server.shutdown();
}
