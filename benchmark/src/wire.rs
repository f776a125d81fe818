//! The served path: a 2-shard `dcs-server` on loopback and two driver
//! threads, each with its own one-connection `Client`. One connection per
//! driver keeps a key's requests in FIFO order from socket to shard, so the
//! last write a driver saw acknowledged is the value the key must hold.

use crate::harness::{
    scan_expect, store_builder, Budget, DriverOut, Kind, Op, OpStream, WorkloadDef, RECORDS,
    RECORD_BYTES, SCAN_LIMIT, SLICE_NS, VALUE_LEN,
};
use crate::trace::{now_ns, Tracer};
use dcs_core::CachingStore;
use dcs_server::{
    Client, ClientConfig, ClientError, Partitioner, Request, Response, Server, ServerConfig,
    ShardBackend, Ticket,
};
use dcs_workload::keys;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

pub const SHARDS: usize = 2;
/// Requests the loader keeps in flight.
const LOAD_WINDOW: usize = 256;

/// A running server with its stores and the drivers' clients.
pub struct Rig {
    pub server: Server,
    pub stores: Vec<Arc<CachingStore>>,
    pub clients: Vec<Client>,
}

impl Rig {
    /// Build the shard stores, start the server, connect the clients.
    pub fn start(def: &WorkloadDef, drivers: usize) -> Result<Rig, String> {
        let stores: Vec<Arc<CachingStore>> = (0..SHARDS)
            .map(|_| Arc::new(store_builder(def.memory_budget, true).build()))
            .collect();
        let backends = stores
            .iter()
            .map(|s| ShardBackend {
                kv: s.clone(),
                async_kv: Some(s.clone()),
            })
            .collect();
        let server = Server::start_with(
            backends,
            Partitioner::from_splits(keys::range_splits(RECORDS, SHARDS)),
            ServerConfig::default(),
        )
        .map_err(|e| format!("server start: {e}"))?;
        let clients = (0..drivers)
            .map(|_| {
                Client::connect(
                    server.addr(),
                    ClientConfig {
                        connections: 1,
                        ..ClientConfig::default()
                    },
                )
                .map_err(|e| format!("client connect: {e}"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Rig {
            server,
            stores,
            clients,
        })
    }

    /// Put every record at version 0 through the wire, pipelined.
    pub fn load(&self) -> Result<(), String> {
        let client = &self.clients[0];
        let mut inflight: VecDeque<Ticket> = VecDeque::with_capacity(LOAD_WINDOW);
        let settle = |t: Ticket| match t.wait() {
            Ok(Response::Ok) => Ok(()),
            other => Err(format!("load put answered {other:?}")),
        };
        for id in 0..RECORDS {
            if inflight.len() == LOAD_WINDOW {
                settle(inflight.pop_front().expect("window is full"))?;
            }
            let req = Request::Put {
                key: keys::encode(id).to_vec(),
                value: keys::value_for(id, 0, VALUE_LEN),
            };
            inflight.push_back(
                client
                    .submit(req)
                    .map_err(|e| format!("load submit: {e}"))?,
            );
        }
        inflight.into_iter().try_for_each(settle)
    }
}

struct Inflight {
    ticket: Ticket,
    kind: Kind,
    id: u64,
    version: u32,
    seq: u64,
    t0: u64,
    /// Root span of the request, in a traced run.
    root: Option<u32>,
}

/// One driver thread's state across the windows of a run.
pub struct Driver {
    stream: OpStream,
    /// Version of the last acknowledged write per id (this driver's lane
    /// only; 0 after the load).
    pub acked: Vec<u32>,
    seq: u64,
}

impl Driver {
    pub fn new(stream: OpStream) -> Self {
        Driver {
            stream,
            acked: vec![0; RECORDS as usize],
            seq: 0,
        }
    }

    /// Keep `window` requests in flight until the budget is spent, then
    /// drain. Latency runs from just before `submit` to the return of
    /// `wait`; tickets are waited for in submission order. `progress`
    /// counts answered requests for whoever samples the window from outside.
    pub fn drive(
        &mut self,
        client: &Client,
        window: usize,
        budget: Budget,
        progress: &AtomicU64,
        mut tracer: Option<&mut Tracer>,
    ) -> DriverOut {
        let mut out = DriverOut::default();
        let mut inflight: VecDeque<Inflight> = VecDeque::with_capacity(window);
        let start = now_ns();
        loop {
            let spent = budget.done(out.attempted, now_ns() - start);
            if !spent && inflight.len() < window {
                let op = self.stream.next_op();
                if let Some(f) = self.submit(client, op, &mut out, tracer.as_deref_mut()) {
                    inflight.push_back(f);
                }
                continue;
            }
            let Some(f) = inflight.pop_front() else {
                break;
            };
            let done_at = self.settle(f, &mut out, tracer.as_deref_mut()) - start;
            // The answer belongs to the time slice it arrived in.
            while (out.cuts.len() as u64) < done_at / SLICE_NS {
                out.cut();
            }
            progress.fetch_add(1, Ordering::Relaxed);
        }
        out.cut();
        out.timed_ns = now_ns() - start;
        out
    }

    fn submit(
        &mut self,
        client: &Client,
        op: Op,
        out: &mut DriverOut,
        tracer: Option<&mut Tracer>,
    ) -> Option<Inflight> {
        let Op {
            kind,
            id,
            version,
            value,
        } = op;
        let key = keys::encode(id).to_vec();
        let req = match kind {
            Kind::Get => Request::Get { key },
            Kind::Put => Request::Put { key, value },
            Kind::Rmw => Request::Rmw { key, value },
            Kind::Scan => Request::Scan {
                start: key,
                limit: SCAN_LIMIT as u32,
            },
        };
        let seq = self.seq;
        self.seq += 1;
        out.attempted += 1;
        let t0 = now_ns();
        let submitted = client.submit(req);
        let root = tracer.map(|tr| {
            let root = tr.open_at("bench.op", seq, None, t0);
            let s = tr.open_at("server.client.submit", seq, Some(root), t0);
            tr.close(s);
            root
        });
        match submitted {
            Ok(ticket) => Some(Inflight {
                ticket,
                kind,
                id,
                version,
                seq,
                t0,
                root,
            }),
            Err(e) => {
                out.fail(|| format!("submit {kind:?} id {id}: {e}"));
                None
            }
        }
    }

    /// Wait for one answer and check it. Returns when it arrived.
    fn settle(&mut self, f: Inflight, out: &mut DriverOut, tracer: Option<&mut Tracer>) -> u64 {
        let Inflight {
            ticket,
            kind,
            id,
            version,
            seq,
            t0,
            root,
        } = f;
        let wait_start = if root.is_some() { now_ns() } else { 0 };
        let answer = ticket.wait();
        let t1 = now_ns();
        if let (Some(tr), Some(root)) = (tracer, root) {
            let s = tr.open_at("server.client.wait", seq, Some(root), wait_start);
            tr.close_at(s, t1);
            tr.close_at(root, t1);
        }
        if answer_ok(kind, id, &answer) {
            out.lat[kind as usize].push((t1 - t0).min(u32::MAX as u64) as u32);
            if matches!(kind, Kind::Put | Kind::Rmw) {
                self.acked[id as usize] = version;
                out.user_bytes_written += RECORD_BYTES;
            }
        } else {
            out.fail(|| format!("{kind:?} id {id} answered {}", brief(&answer)));
        }
        t1
    }
}

/// Whether the server's answer is the right one for the request. A GET must
/// return the key's own record (a served RMW appends, so only the first
/// payload's header is looked at here; versions are checked by the re-read
/// after shutdown). BUSY, MOVED and ERR are failures.
fn answer_ok(kind: Kind, id: u64, answer: &Result<Response, ClientError>) -> bool {
    match (kind, answer) {
        (Kind::Get, Ok(Response::Value(Some(v)))) => {
            keys::parse_value(v).is_some_and(|(got, _)| got == id)
        }
        (Kind::Put | Kind::Rmw, Ok(Response::Ok)) => true,
        (Kind::Scan, Ok(Response::Count(n))) => *n == scan_expect(id),
        _ => false,
    }
}

fn brief(answer: &Result<Response, ClientError>) -> String {
    match answer {
        Ok(Response::Value(v)) => format!("a value of {:?} bytes", v.as_ref().map(Vec::len)),
        Ok(other) => format!("{other:?}").chars().take(80).collect(),
        Err(e) => e.to_string(),
    }
}
