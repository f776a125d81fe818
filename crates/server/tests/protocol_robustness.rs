//! Adversarial-input robustness for the wire protocol and the client.
//!
//! The decoder must never panic or over-allocate on hostile bytes —
//! truncations, bit flips, oversized length fields, garbage — and a client
//! whose server dies mid-pipeline must surface errors for every unanswered
//! in-flight request instead of hanging.

use dcs_server::protocol::{
    decode_frame, encode_to_vec, Frame, ProtoError, Request, Response, HEADER_LEN, MAX_PAYLOAD,
};
use dcs_server::{Client, ClientConfig, ClientError};
use dcs_telemetry::Json;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::io::{Read, Write};
use std::net::TcpListener;

fn sample_frames(rng: &mut SmallRng) -> Vec<Frame> {
    let key = |rng: &mut SmallRng| {
        let len = rng.gen_range(0..64);
        (0..len).map(|_| rng.gen::<u8>()).collect::<Vec<u8>>()
    };
    vec![
        Frame::Request {
            id: rng.gen(),
            req: Request::Get { key: key(rng) },
        },
        Frame::Request {
            id: rng.gen(),
            req: Request::Put {
                key: key(rng),
                value: (0..rng.gen_range(0..512))
                    .map(|_| rng.gen::<u8>())
                    .collect(),
            },
        },
        Frame::Request {
            id: rng.gen(),
            req: Request::Delete { key: key(rng) },
        },
        Frame::Request {
            id: rng.gen(),
            req: Request::Scan {
                start: key(rng),
                limit: rng.gen(),
            },
        },
        Frame::Request {
            id: rng.gen(),
            req: Request::Rmw {
                key: key(rng),
                value: key(rng),
            },
        },
        Frame::Response {
            id: rng.gen(),
            resp: Response::Value(Some(key(rng))),
        },
        Frame::Response {
            id: rng.gen(),
            resp: Response::Err("oh no".into()),
        },
        Frame::Response {
            id: rng.gen(),
            resp: Response::Moved {
                epoch: rng.gen(),
                shard: rng.gen(),
            },
        },
        Frame::Request {
            id: rng.gen(),
            req: Request::Stats,
        },
        Frame::Response {
            id: rng.gen(),
            // A STATS body is arbitrary UTF-8 to the wire layer; include
            // escapes and length variety.
            resp: Response::Stats(format!(
                "{{\"stats_epoch\":{},\"registry\":{{\"counters\":{{}}}},\"x\":\"\\\"\\n\"}}",
                rng.gen::<u64>()
            )),
        },
    ]
}

/// Whatever bytes arrive, `decode_frame` returns a verdict — it must not
/// panic, loop, or allocate beyond `MAX_PAYLOAD`.
fn assert_decode_total(buf: &[u8]) {
    let mut consumed = 0usize;
    for _ in 0..buf.len() + 1 {
        match decode_frame(&buf[consumed..]) {
            Ok(Some((_, used))) => {
                assert!(used > 0, "progress must be made");
                consumed += used;
            }
            Ok(None) | Err(_) => return,
        }
    }
}

#[test]
fn truncated_frames_never_panic() {
    let mut rng = SmallRng::seed_from_u64(0xDEC0DE);
    for frame in sample_frames(&mut rng) {
        let bytes = encode_to_vec(&frame);
        for cut in 0..bytes.len() {
            match decode_frame(&bytes[..cut]) {
                Ok(None) => {}
                Ok(Some(_)) => panic!("decoded a complete frame from a truncation"),
                // A cut can land inside the checksum-covered payload already
                // delivered? No: a prefix is always "incomplete", never an
                // error, so partial reads keep the connection alive.
                Err(e) => panic!("truncation to {cut} bytes errored: {e:?}"),
            }
        }
        assert!(matches!(decode_frame(&bytes), Ok(Some(_))));
    }
}

#[test]
fn corrupted_frames_error_or_stall_but_never_panic() {
    let mut rng = SmallRng::seed_from_u64(0xBADB17);
    for frame in sample_frames(&mut rng) {
        let clean = encode_to_vec(&frame);
        for _ in 0..200 {
            let mut bytes = clean.clone();
            let flips = rng.gen_range(1..4);
            for _ in 0..flips {
                let i = rng.gen_range(0..bytes.len());
                bytes[i] ^= 1u8 << rng.gen_range(0..8);
            }
            assert_decode_total(&bytes);
        }
    }
}

#[test]
fn random_garbage_never_panics() {
    let mut rng = SmallRng::seed_from_u64(0x6A4BA6E);
    for _ in 0..500 {
        let len = rng.gen_range(0..256);
        let buf: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
        assert_decode_total(&buf);
    }
}

#[test]
fn oversized_length_rejected_before_allocation() {
    // A header advertising a huge payload must be refused from the header
    // alone — the decoder cannot wait for (or allocate) gigabytes.
    let frame = encode_to_vec(&Frame::Request {
        id: 7,
        req: Request::Get { key: b"k".to_vec() },
    });
    let mut bytes = frame[..HEADER_LEN].to_vec();
    let huge = (MAX_PAYLOAD as u32 + 1).to_le_bytes();
    bytes[13..17].copy_from_slice(&huge);
    assert!(matches!(
        decode_frame(&bytes),
        Err(ProtoError::Oversized { .. })
    ));
}

#[test]
fn stats_frames_survive_bit_flips_and_oversize() {
    let mut rng = SmallRng::seed_from_u64(0x57A75);
    let frames = [
        Frame::Request {
            id: 1,
            req: Request::Stats,
        },
        Frame::Response {
            id: 1,
            resp: Response::Stats(
                "{\"stats_epoch\":5,\"registry\":{\"counters\":{\"cost.ss_reads\":3}},\"mrc\":{\"consumers\":[]}}".into(),
            ),
        },
    ];
    for frame in &frames {
        let clean = encode_to_vec(frame);
        for _ in 0..300 {
            let mut bytes = clean.clone();
            let flips = rng.gen_range(1..4);
            for _ in 0..flips {
                let i = rng.gen_range(0..bytes.len());
                bytes[i] ^= 1u8 << rng.gen_range(0..8);
            }
            assert_decode_total(&bytes);
        }
        // A STATS header advertising a multi-gigabyte snapshot is refused
        // from the header alone.
        let mut bytes = clean[..HEADER_LEN].to_vec();
        bytes[13..17].copy_from_slice(&(MAX_PAYLOAD as u32 + 1).to_le_bytes());
        assert!(matches!(
            decode_frame(&bytes),
            Err(ProtoError::Oversized { .. })
        ));
    }
}

/// End-to-end STATS scrape against a real server: the reply is one JSON
/// document, served at the connection level, and it reflects the traffic
/// that preceded it.
#[test]
fn stats_scrape_round_trips_through_a_live_server() {
    let backends = dcs_core::BackendKind::Caching
        .build_shards_with(1, dcs_core::BackendOpts::default())
        .into_iter()
        .map(dcs_server::ShardBackend::from)
        .collect();
    let server = dcs_server::Server::start_with(
        backends,
        dcs_server::Partitioner::single(),
        dcs_server::ServerConfig::default(),
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
    client.put(b"k", b"v").unwrap();
    assert_eq!(client.get(b"k").unwrap().as_deref(), Some(&b"v"[..]));
    let doc = Json::parse(&client.stats().unwrap()).expect("STATS is valid JSON");
    assert!(doc.get("stats_epoch").and_then(Json::as_u64).is_some());
    assert_eq!(
        doc.at(&["registry", "counters", "server.puts"]),
        Some(&Json::UInt(1))
    );
    for hist in ["server.read_latency_nanos", "server.mailbox_depth"] {
        let h = doc.at(&["registry", "histograms", hist]);
        assert!(
            h.and_then(|h| h.get("count")).is_some(),
            "missing {hist} in {doc}"
        );
    }
    assert!(matches!(doc.at(&["mrc", "consumers"]), Some(Json::Arr(_))));
    client.close();
    server.shutdown();
}

/// A hostile server that answers *every* request with `MOVED` at an
/// absurd epoch: the client must chase the redirect a bounded number of
/// times, record the highest epoch it was told about, and then surface a
/// typed error — never spin forever or panic on an epoch from the
/// future.
#[test]
fn endless_moved_redirects_error_out_bounded() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        let mut buf = Vec::new();
        let mut tmp = [0u8; 4096];
        let mut consumed = 0usize;
        loop {
            let n = match stream.read(&mut tmp) {
                Ok(0) | Err(_) => return,
                Ok(n) => n,
            };
            buf.extend_from_slice(&tmp[..n]);
            while let Ok(Some((Frame::Request { id, .. }, used))) = decode_frame(&buf[consumed..]) {
                consumed += used;
                let reply = encode_to_vec(&Frame::Response {
                    id,
                    resp: Response::Moved {
                        epoch: u64::MAX,
                        shard: 9_999,
                    },
                });
                if stream.write_all(&reply).is_err() {
                    return;
                }
            }
        }
    });

    let client = Client::connect(
        addr,
        ClientConfig {
            connections: 1,
            moved_retries: 4,
            backoff_base_micros: 1,
            backoff_cap_micros: 10,
            ..ClientConfig::default()
        },
    )
    .unwrap();
    match client.put(b"k", b"v") {
        Err(ClientError::Moved { epoch, shard }) => {
            assert_eq!(epoch, u64::MAX);
            assert_eq!(shard, 9_999);
        }
        other => panic!("expected a bounded MOVED failure, got {other:?}"),
    }
    // The client remembered the newest epoch it was redirected toward.
    assert_eq!(client.known_map_epoch(), u64::MAX);
    client.close();
    drop(server);
}

/// A hand-rolled server that waits for the whole pipeline to arrive,
/// answers exactly one request, and drops the connection — leaving the
/// other fifteen in flight.
#[test]
fn kill_mid_pipeline_fails_all_unanswered_requests() {
    const PIPELINE: usize = 16;
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        let mut buf = Vec::new();
        let mut tmp = [0u8; 4096];
        let mut ids = Vec::new();
        let mut consumed = 0usize;
        // Collect all sixteen requests first, so the client can't observe
        // the connection dying while it is still submitting.
        while ids.len() < PIPELINE {
            let n = stream.read(&mut tmp).unwrap();
            assert!(n > 0, "client should still be writing");
            buf.extend_from_slice(&tmp[..n]);
            while let Ok(Some((Frame::Request { id, .. }, used))) = decode_frame(&buf[consumed..]) {
                ids.push(id);
                consumed += used;
            }
        }
        let reply = encode_to_vec(&Frame::Response {
            id: ids[0],
            resp: Response::Ok,
        });
        stream.write_all(&reply).unwrap();
        // Drop the socket with the rest of the pipeline in flight.
    });

    let client = Client::connect(
        addr,
        ClientConfig {
            connections: 1,
            ..ClientConfig::default()
        },
    )
    .unwrap();
    let mut tickets = Vec::new();
    for i in 0..PIPELINE {
        tickets.push(
            client
                .submit(Request::Put {
                    key: format!("k{i}").into_bytes(),
                    value: vec![0; 8],
                })
                .unwrap(),
        );
    }
    server.join().unwrap();

    let mut answered = 0;
    let mut failed = 0;
    for ticket in tickets {
        match ticket.wait() {
            Ok(Response::Ok) => answered += 1,
            Err(ClientError::ConnectionClosed) => failed += 1,
            other => panic!("unexpected outcome: {other:?}"),
        }
    }
    assert_eq!(answered, 1, "the fake server answered exactly one request");
    assert_eq!(failed, 15, "every unanswered in-flight request must error");

    // The pool is dead; new submissions fail fast instead of hanging.
    assert!(matches!(
        client.submit(Request::Get { key: b"x".to_vec() }),
        Err(ClientError::ConnectionClosed) | Err(ClientError::Io(_))
    ));
}

/// Same contract against the real server's unclean `abort`: whatever was
/// in flight resolves (answer or error) — nothing hangs.
#[test]
fn abort_resolves_every_inflight_ticket() {
    let backends = dcs_core::BackendKind::Caching
        .build_shards_with(1, dcs_core::BackendOpts::default())
        .into_iter()
        .map(dcs_server::ShardBackend::from)
        .collect();
    let server = dcs_server::Server::start_with(
        backends,
        dcs_server::Partitioner::single(),
        dcs_server::ServerConfig::default(),
    )
    .unwrap();
    let client = Client::connect(
        server.addr(),
        ClientConfig {
            connections: 2,
            ..ClientConfig::default()
        },
    )
    .unwrap();
    let mut tickets = Vec::new();
    for i in 0..256u64 {
        tickets.push(
            client
                .submit(Request::Put {
                    key: i.to_be_bytes().to_vec(),
                    value: vec![1; 32],
                })
                .unwrap(),
        );
    }
    server.abort();
    let (done, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let mut outcomes = (0, 0);
        for t in tickets {
            match t.wait() {
                Ok(_) => outcomes.0 += 1,
                Err(_) => outcomes.1 += 1,
            }
        }
        // One message to a waiting test thread: no serving path here.
        #[allow(clippy::disallowed_methods)]
        done.send(outcomes).unwrap();
    });
    let (answered, failed) = rx
        .recv_timeout(std::time::Duration::from_secs(10))
        .expect("tickets must resolve, not hang");
    assert_eq!(answered + failed, 256);
}
