//! `dcs-client`: pooled, pipelined connections to a `dcs-server`.
//!
//! Each connection has a mutex-guarded write half (senders interleave whole
//! frames) and a reader thread that matches response frames to waiting
//! callers by request id — so any number of requests can be in flight per
//! connection and responses may return out of order. [`Client::submit`]
//! returns a [`Ticket`] immediately; [`Ticket::wait`] blocks for that one
//! response. If a connection dies (EOF, I/O error, undecodable frame),
//! every in-flight ticket on it fails with [`ClientError::ConnectionClosed`]
//! rather than hanging — the kill-mid-pipeline contract.

use crate::protocol::{decode_frame, encode_to_vec, Frame, Request, Response};
use dcs_syncshim::block;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// Client-side failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientError {
    /// Socket-level failure (connect/write).
    Io(String),
    /// The connection closed with this request still unanswered.
    ConnectionClosed,
    /// The server answered, but with a frame that makes no sense for the
    /// request (e.g. a COUNT for a GET).
    UnexpectedResponse,
    /// The server rejected the request with BUSY (shard mailbox full).
    Busy,
    /// The key's range moved (or is moving) to another shard; the request
    /// was not executed. Resubmitting routes it by the server's live map.
    Moved {
        /// Map epoch the redirect is valid for.
        epoch: u64,
        /// Shard owning (or receiving) the key.
        shard: u32,
    },
    /// The server reported an execution error.
    Server(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(m) => write!(f, "io error: {m}"),
            ClientError::ConnectionClosed => write!(f, "connection closed with request in flight"),
            ClientError::UnexpectedResponse => write!(f, "response kind does not match request"),
            ClientError::Busy => write!(f, "server busy"),
            ClientError::Moved { epoch, shard } => {
                write!(f, "moved to shard {shard} (map epoch {epoch})")
            }
            ClientError::Server(m) => write!(f, "server error: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

/// One-shot response slot a ticket waits on.
struct Slot {
    state: Mutex<Option<Result<Response, ClientError>>>,
    ready: Condvar,
}

impl Slot {
    fn new() -> Self {
        Slot {
            state: Mutex::new(None),
            ready: Condvar::new(),
        }
    }

    fn fill(&self, result: Result<Response, ClientError>) {
        let mut state = self.state.lock().unwrap();
        if state.is_none() {
            *state = Some(result);
            self.ready.notify_all();
        }
    }

    fn wait(&self) -> Result<Response, ClientError> {
        let mut state = self.state.lock().unwrap();
        loop {
            if let Some(result) = state.take() {
                return result;
            }
            state = block::wait(&self.ready, state).unwrap();
        }
    }
}

struct Conn {
    writer: Mutex<TcpStream>,
    pending: Mutex<HashMap<u64, Arc<Slot>>>,
    next_id: AtomicU64,
    dead: AtomicBool,
}

impl Conn {
    /// Fail every in-flight request; called when the read side dies.
    fn poison(&self) {
        self.dead.store(true, Ordering::SeqCst);
        let drained: Vec<Arc<Slot>> = self
            .pending
            .lock()
            .unwrap()
            .drain()
            .map(|(_, s)| s)
            .collect();
        for slot in drained {
            slot.fill(Err(ClientError::ConnectionClosed));
        }
    }
}

/// A pending response. `wait` consumes the ticket and blocks until the
/// response (or the connection's demise) arrives.
pub struct Ticket {
    slot: Arc<Slot>,
    /// The request id carried on the wire.
    pub id: u64,
}

impl Ticket {
    /// Block for the response.
    pub fn wait(self) -> Result<Response, ClientError> {
        self.slot.wait()
    }
}

/// Client tunables.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Connections in the pool (requests round-robin across them).
    pub connections: usize,
    /// Synchronous convenience ops retry BUSY this many times before
    /// surfacing [`ClientError::Busy`]. Each retry backs off
    /// exponentially with jitter (see [`ClientConfig::backoff_base_micros`]).
    pub busy_retries: usize,
    /// Synchronous convenience ops resubmit after `MOVED` this many
    /// times before surfacing [`ClientError::Moved`]. Redirect chases are
    /// bounded so a flapping map cannot trap a caller forever.
    pub moved_retries: usize,
    /// First backoff delay in microseconds; doubles per consecutive
    /// rejection up to [`ClientConfig::backoff_cap_micros`], with equal
    /// jitter (uniform in `[delay/2, delay]`) so synchronized retriers
    /// don't re-stampede the same shard in lockstep.
    pub backoff_base_micros: u64,
    /// Backoff ceiling in microseconds.
    pub backoff_cap_micros: u64,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            connections: 2,
            busy_retries: 1000,
            moved_retries: 64,
            backoff_base_micros: 20,
            backoff_cap_micros: 2_000,
        }
    }
}

/// A pool of pipelined connections to one server.
pub struct Client {
    conns: Vec<Arc<Conn>>,
    readers: Mutex<Vec<JoinHandle<()>>>,
    rr: AtomicUsize,
    busy_retries: usize,
    moved_retries: usize,
    backoff_base_micros: u64,
    backoff_cap_micros: u64,
    /// Highest map epoch seen in a `MOVED` reply — the client's cached
    /// view of placement progress. Routing itself stays server-side (the
    /// connection reader routes by the live map), so the epoch is what a
    /// remote client can usefully cache: it distinguishes progress
    /// (higher epoch, keep chasing) from churn.
    known_epoch: AtomicU64,
}

impl Client {
    /// Connect `config.connections` sockets to `addr`.
    pub fn connect(addr: SocketAddr, config: ClientConfig) -> Result<Client, ClientError> {
        assert!(config.connections > 0, "need at least one connection");
        let mut conns = Vec::with_capacity(config.connections);
        let mut readers = Vec::with_capacity(config.connections);
        for i in 0..config.connections {
            let stream = TcpStream::connect(addr).map_err(|e| ClientError::Io(e.to_string()))?;
            stream.set_nodelay(true).ok();
            let read_half = stream
                .try_clone()
                .map_err(|e| ClientError::Io(e.to_string()))?;
            let conn = Arc::new(Conn {
                writer: Mutex::new(stream),
                pending: Mutex::new(HashMap::new()),
                next_id: AtomicU64::new(1),
                dead: AtomicBool::new(false),
            });
            let rc = conn.clone();
            readers.push(
                std::thread::Builder::new()
                    .name(format!("dcs-client-rd-{i}"))
                    .spawn(move || client_read_loop(read_half, &rc))
                    .map_err(|e| ClientError::Io(e.to_string()))?,
            );
            conns.push(conn);
        }
        Ok(Client {
            conns,
            readers: Mutex::new(readers),
            rr: AtomicUsize::new(0),
            busy_retries: config.busy_retries,
            moved_retries: config.moved_retries,
            backoff_base_micros: config.backoff_base_micros.max(1),
            backoff_cap_micros: config.backoff_cap_micros.max(1),
            known_epoch: AtomicU64::new(0),
        })
    }

    /// Pipeline a request on the next live connection; returns immediately.
    pub fn submit(&self, req: Request) -> Result<Ticket, ClientError> {
        let start = self.rr.fetch_add(1, Ordering::Relaxed);
        for i in 0..self.conns.len() {
            let conn = &self.conns[(start + i) % self.conns.len()];
            if conn.dead.load(Ordering::SeqCst) {
                continue;
            }
            return self.submit_on(conn, req);
        }
        Err(ClientError::ConnectionClosed)
    }

    fn submit_on(&self, conn: &Arc<Conn>, req: Request) -> Result<Ticket, ClientError> {
        let id = conn.next_id.fetch_add(1, Ordering::Relaxed);
        let slot = Arc::new(Slot::new());
        // Register before writing: the response can race the write return.
        conn.pending.lock().unwrap().insert(id, slot.clone());
        let bytes = encode_to_vec(&Frame::Request { id, req });
        let write = {
            let mut w = conn.writer.lock().unwrap();
            w.write_all(&bytes)
        };
        if let Err(e) = write {
            conn.pending.lock().unwrap().remove(&id);
            conn.poison();
            return Err(ClientError::Io(e.to_string()));
        }
        Ok(Ticket { slot, id })
    }

    /// Point read.
    pub fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>, ClientError> {
        self.retry_busy(
            || match self.submit(Request::Get { key: key.to_vec() })?.wait()? {
                Response::Value(v) => Ok(v),
                other => Self::unexpected(other),
            },
        )
    }

    /// Durable upsert (acked only after the server's group commit).
    pub fn put(&self, key: &[u8], value: &[u8]) -> Result<(), ClientError> {
        self.retry_busy(|| {
            match self
                .submit(Request::Put {
                    key: key.to_vec(),
                    value: value.to_vec(),
                })?
                .wait()?
            {
                Response::Ok => Ok(()),
                other => Self::unexpected(other),
            }
        })
    }

    /// Durable delete.
    pub fn delete(&self, key: &[u8]) -> Result<(), ClientError> {
        self.retry_busy(
            || match self.submit(Request::Delete { key: key.to_vec() })?.wait()? {
                Response::Ok => Ok(()),
                other => Self::unexpected(other),
            },
        )
    }

    /// Range scan: count of records in `[start, ..)` up to `limit`.
    pub fn scan(&self, start: &[u8], limit: u32) -> Result<u64, ClientError> {
        self.retry_busy(|| {
            match self
                .submit(Request::Scan {
                    start: start.to_vec(),
                    limit,
                })?
                .wait()?
            {
                Response::Count(n) => Ok(n),
                other => Self::unexpected(other),
            }
        })
    }

    /// Scrape the server's telemetry snapshot: one JSON document,
    /// `{"stats_epoch": N, "registry": {...}, "mrc": {...}}`. Answered on
    /// the connection itself, so it works even when every shard is BUSY.
    pub fn stats(&self) -> Result<String, ClientError> {
        match self.submit(Request::Stats)?.wait()? {
            Response::Stats(doc) => Ok(doc),
            other => Self::unexpected(other),
        }
    }

    /// Read-modify-write: atomically append `value` to the stored value.
    pub fn rmw(&self, key: &[u8], value: &[u8]) -> Result<(), ClientError> {
        self.retry_busy(|| {
            match self
                .submit(Request::Rmw {
                    key: key.to_vec(),
                    value: value.to_vec(),
                })?
                .wait()?
            {
                Response::Ok => Ok(()),
                other => Self::unexpected(other),
            }
        })
    }

    fn unexpected<T>(resp: Response) -> Result<T, ClientError> {
        match resp {
            Response::Busy => Err(ClientError::Busy),
            Response::Moved { epoch, shard } => Err(ClientError::Moved { epoch, shard }),
            Response::Err(m) => Err(ClientError::Server(m)),
            _ => Err(ClientError::UnexpectedResponse),
        }
    }

    /// Highest map epoch this client has seen in a `MOVED` reply (0 if
    /// it has never been redirected).
    pub fn known_map_epoch(&self) -> u64 {
        self.known_epoch.load(Ordering::Relaxed)
    }

    /// Exponential backoff with equal jitter: `base * 2^(attempt-1)`
    /// capped, then uniform in `[delay/2, delay]`. Jitter comes from a
    /// per-call xorshift seeded off the telemetry clock, so retriers that
    /// were rejected together spread out instead of re-colliding.
    fn backoff(&self, attempt: usize, rng: &mut u64) -> std::time::Duration {
        let shift = attempt.saturating_sub(1).min(16) as u32;
        let delay = self
            .backoff_base_micros
            .saturating_mul(1u64 << shift)
            .min(self.backoff_cap_micros)
            .max(1);
        *rng ^= *rng << 13;
        *rng ^= *rng >> 7;
        *rng ^= *rng << 17;
        std::time::Duration::from_micros(delay / 2 + *rng % (delay / 2 + 1))
    }

    fn retry_busy<T>(
        &self,
        mut op: impl FnMut() -> Result<T, ClientError>,
    ) -> Result<T, ClientError> {
        let mut busy_tries = 0;
        let mut moved_tries = 0;
        let mut rng = dcs_telemetry::now_nanos() | 1;
        loop {
            match op() {
                Err(ClientError::Busy) if busy_tries < self.busy_retries => {
                    busy_tries += 1;
                    // The shard is saturated; back off (exponentially,
                    // jittered) instead of hammering the mailbox.
                    block::sleep(self.backoff(busy_tries, &mut rng));
                }
                Err(ClientError::Moved { epoch, .. }) if moved_tries < self.moved_retries => {
                    moved_tries += 1;
                    self.known_epoch.fetch_max(epoch, Ordering::Relaxed);
                    // Resubmitting routes by the server's live map; a
                    // short jittered pause lets an in-flight epoch
                    // install land instead of bouncing off the freeze
                    // window again.
                    block::sleep(self.backoff(moved_tries, &mut rng));
                }
                other => return other,
            }
        }
    }

    /// Close every connection and join the reader threads. In-flight
    /// tickets fail with [`ClientError::ConnectionClosed`].
    pub fn close(&self) {
        for conn in &self.conns {
            if let Ok(w) = conn.writer.lock() {
                let _ = w.shutdown(Shutdown::Both);
            }
        }
        let handles: Vec<_> = self.readers.lock().unwrap().drain(..).collect();
        for t in handles {
            let _ = t.join();
        }
    }
}

impl Drop for Client {
    fn drop(&mut self) {
        self.close();
    }
}

/// The wire client is itself a [`dcs_workload::KvStore`], so `Runner` and
/// every in-process harness can drive a server over TCP unchanged.
impl dcs_workload::KvStore for Client {
    fn kv_get(&self, key: &[u8]) -> Result<Option<Vec<u8>>, dcs_workload::StoreFailure> {
        self.get(key)
            .map_err(|e| dcs_workload::StoreFailure(e.to_string()))
    }
    fn kv_put(&self, key: Vec<u8>, value: Vec<u8>) -> Result<(), dcs_workload::StoreFailure> {
        self.put(&key, &value)
            .map_err(|e| dcs_workload::StoreFailure(e.to_string()))
    }
    fn kv_delete(&self, key: Vec<u8>) -> Result<(), dcs_workload::StoreFailure> {
        self.delete(&key)
            .map_err(|e| dcs_workload::StoreFailure(e.to_string()))
    }
    fn kv_scan(&self, start: &[u8], limit: usize) -> Result<usize, dcs_workload::StoreFailure> {
        self.scan(start, limit.min(u32::MAX as usize) as u32)
            .map(|n| n as usize)
            .map_err(|e| dcs_workload::StoreFailure(e.to_string()))
    }
}

fn client_read_loop(mut stream: TcpStream, conn: &Arc<Conn>) {
    let mut buf: Vec<u8> = Vec::with_capacity(64 * 1024);
    let mut tmp = [0u8; 64 * 1024];
    let mut consumed = 0usize;
    'io: loop {
        match stream.read(&mut tmp) {
            Ok(0) | Err(_) => break 'io,
            Ok(n) => buf.extend_from_slice(&tmp[..n]),
        }
        loop {
            match decode_frame(&buf[consumed..]) {
                Ok(Some((Frame::Response { id, resp }, used))) => {
                    consumed += used;
                    let slot = conn.pending.lock().unwrap().remove(&id);
                    if let Some(slot) = slot {
                        slot.fill(Ok(resp));
                    }
                    // id 0 is the server's "framing broken" notice — no
                    // ticket carries it; the connection is about to close
                    // and poison() will fail the rest.
                }
                Ok(Some((Frame::Request { .. }, _))) | Err(_) => break 'io,
                Ok(None) => break,
            }
        }
        if consumed > 0 {
            buf.drain(..consumed);
            consumed = 0;
        }
    }
    conn.poison();
}
