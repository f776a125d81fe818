//! Well-formed but hostile requests through a live server, on every
//! backend: empty keys, `u16::MAX`-byte keys, SCAN limits 0 and
//! `u32::MAX`, RMW and DELETE on absent keys. Every request must get the
//! answer a model predicts, and the shards must go on serving.
//!
//! The cold-path test sends the same operations to keys a caching shard
//! with a 64 KiB budget has evicted. A debug build panics at any blocking
//! call a shard makes outside a named exemption (`dcs_syncshim::block`),
//! and a shard that panics stops answering, so these tests fail then too.

use dcs_core::{BackendKind, BackendOpts};
use dcs_server::protocol::{Request, Response};
use dcs_server::{Client, ClientConfig, Partitioner, Server, ServerConfig, ShardBackend};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// The longest key the wire carries. Its redo record cannot fit one frame
/// of a shard's WAL, so every write of it is refused with `ERR`.
const HUGE: usize = u16::MAX as usize;

type Model = BTreeMap<Vec<u8>, Vec<u8>>;

/// Send `req`, wait for its answer and check it against `model`, which it
/// then updates.
fn check(client: &Client, model: &mut Model, req: Request) {
    let what = format!("{req:?}").chars().take(80).collect::<String>();
    let refused = |key: &[u8]| key.len() == HUGE;
    let expect = match &req {
        Request::Get { key } => Response::Value(model.get(key).cloned()),
        Request::Put { key, value } if !refused(key) => {
            model.insert(key.clone(), value.clone());
            Response::Ok
        }
        Request::Delete { key } if !refused(key) => {
            model.remove(key);
            Response::Ok
        }
        Request::Rmw { key, value } if !refused(key) => {
            model.entry(key.clone()).or_default().extend(value);
            Response::Ok
        }
        Request::Scan { start, limit } => {
            Response::Count(model.range(start.clone()..).take(*limit as usize).count() as u64)
        }
        _ => Response::Err(String::new()),
    };
    let got = client.submit(req).unwrap().wait();
    match (got, expect) {
        (Ok(Response::Err(_)), Response::Err(_)) => {}
        (got, expect) => assert_eq!(got, Ok(expect), "{what}"),
    }
}

/// A seeded mix of hostile requests over a few ordinary keys.
fn hostile(rng: &mut SmallRng) -> Request {
    let key = match rng.gen_range(0..6) {
        0 => Vec::new(),
        1 => vec![b'a'; HUGE],
        2 => vec![0xFF; HUGE],
        3 => format!("absent{}", rng.gen::<u32>()).into_bytes(),
        _ => vec![if rng.gen() { b'a' } else { b'z' }; rng.gen_range(1..4)],
    };
    let value = (0..rng.gen_range(0..32)).map(|_| rng.gen()).collect();
    match rng.gen_range(0..5) {
        0 => Request::Get { key },
        1 => Request::Put { key, value },
        2 => Request::Delete { key },
        3 => Request::Rmw { key, value },
        _ => Request::Scan {
            start: key,
            limit: [0, 1, 3, u32::MAX][rng.gen_range(0..4usize)],
        },
    }
}

fn start(kind: BackendKind, opts: BackendOpts, splits: Vec<Vec<u8>>) -> Server {
    let backends = kind.build_shards_with(splits.len() + 1, opts);
    Server::start_with(
        backends.into_iter().map(ShardBackend::from).collect(),
        Partitioner::from_splits(splits),
        ServerConfig::default(),
    )
    .unwrap()
}

fn connect(server: &Server) -> Client {
    let config = ClientConfig {
        connections: 1,
        ..ClientConfig::default()
    };
    Client::connect(server.addr(), config).unwrap()
}

#[test]
fn hostile_requests_are_answered_on_every_backend() {
    within_60s("a shard stopped answering hostile requests", || {
        for kind in BackendKind::ALL {
            let server = start(kind, BackendOpts::default(), vec![b"m".to_vec()]);
            let client = connect(&server);
            let (mut model, mut rng) = (Model::new(), SmallRng::seed_from_u64(0x0405_711E));
            for _ in 0..300 {
                check(&client, &mut model, hostile(&mut rng));
            }
            // Both shards still serve ordinary traffic.
            for key in [&b"b"[..], b"y"] {
                check(
                    &client,
                    &mut model,
                    Request::Put {
                        key: key.to_vec(),
                        value: b"v".to_vec(),
                    },
                );
                check(&client, &mut model, Request::Get { key: key.to_vec() });
            }
            client.close();
            server.shutdown();
        }
    });
}

/// GET, PUT, DELETE, RMW and SCAN at keys a 64 KiB caching shard has
/// evicted. The RMW reads and SCANs page in from the device on the shard
/// thread, under `Shard::stall`; everything else must not block.
#[test]
fn cold_paths_through_a_caching_shard_match_a_model() {
    within_60s("a caching shard stopped answering on a cold path", || {
        let opts = BackendOpts {
            memory_budget: Some(64 << 10),
            wall_read_latency: 100_000,
        };
        let built = BackendKind::Caching.build_with(opts);
        let device = built.device.clone().unwrap();
        let server = Server::start_with(
            vec![ShardBackend::from(built)],
            Partitioner::single(),
            ServerConfig::default(),
        )
        .unwrap();
        let client = connect(&server);
        let key = |i: u32| format!("cold{i:05}").into_bytes();
        let mut model = Model::new();
        for window in (0..2_000u32).collect::<Vec<_>>().chunks(64) {
            let tickets: Vec<_> = window
                .iter()
                .map(|&i| {
                    let value = vec![i as u8; 100];
                    model.insert(key(i), value.clone());
                    client.submit(Request::Put { key: key(i), value }).unwrap()
                })
                .collect();
            for t in tickets {
                assert_eq!(t.wait(), Ok(Response::Ok));
            }
        }
        let reads = device.stats().reads;
        let mut rng = SmallRng::seed_from_u64(0xC01D);
        for _ in 0..300 {
            let k = key(rng.gen_range(0..2_000));
            let value = vec![rng.gen(); rng.gen_range(1..16)];
            let req = match rng.gen_range(0..5) {
                0 => Request::Get { key: k },
                1 => Request::Put { key: k, value },
                2 => Request::Delete { key: k },
                3 => Request::Rmw { key: k, value },
                _ => Request::Scan {
                    start: k,
                    limit: rng.gen_range(1..40),
                },
            };
            check(&client, &mut model, req);
        }
        assert!(
            device.stats().reads > reads,
            "no operation reached the device: the keys were not cold"
        );
        client.close();
        let report = server.shutdown();
        assert!(report.shards.iter().map(|s| s.misses).sum::<u64>() > 0);
    });
}

/// Run `f` on a thread of its own; fail with `what` unless it returns
/// within 60 s.
fn within_60s(what: &str, f: impl FnOnce() + Send + 'static) {
    let t = std::thread::spawn(f);
    for _ in 0..6_000 {
        if t.is_finished() {
            return t.join().unwrap();
        }
        dcs_syncshim::block::sleep(std::time::Duration::from_millis(10));
    }
    panic!("{what}");
}
