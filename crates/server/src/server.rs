//! The TCP front-end: accept loop, per-connection reader/writer threads,
//! request routing into shard mailboxes, and drain-and-flush shutdown.
//!
//! Thread model per connection: a **reader** thread decodes frames off the
//! socket and routes each request to the owning shard's mailbox (answering
//! BUSY itself when the mailbox is full), and a **writer** thread drains an
//! outbox of encoded response frames onto the socket. Responses carry the
//! client's request id, so they may be delivered out of order relative to
//! other requests — that is what makes pipelining useful.
//!
//! Shutdown ([`Server::shutdown`]) is a drain: stop accepting, half-close
//! the read side of every connection (so no new requests arrive but
//! responses still flow), close the shard mailboxes, and join the shard
//! workers — which drain every accepted request and issue a final WAL
//! barrier. Every acknowledged write is durable and every accepted request
//! answered before `shutdown` returns. [`Server::abort`] is the unclean
//! variant (sockets dropped, no drain) used to test client-side failure
//! handling.

use crate::mailbox::{Mailbox, MailboxStats};
use crate::metrics::ShardSnapshot;
use crate::protocol::{decode_frame, encode_to_vec, Frame, ProtoError, Request, Response};
use crate::rebalance::{MigrationStats, RebalanceConfig, Rebalancer};
use crate::shard::{Mail, Partitioner, ReplySink, Shard, ShardConfig};
use dcs_rebalance::{PartitionMap, Router};
use dcs_tc::RecoveryLog;
use dcs_telemetry::{obj, Json};
use dcs_workload::{AsyncKvStore, KvStore};
use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// Server-wide configuration.
#[derive(Debug, Clone, Default)]
pub struct ServerConfig {
    /// Per-shard tunables (mailbox capacity, batch size).
    pub shard: ShardConfig,
    /// Background rebalancer (disabled by default: static placement is
    /// the baseline the on/off CI comparison measures against).
    pub rebalance: RebalanceConfig,
}

/// One shard's store handles: the blocking [`KvStore`] plus, when the
/// store supports submit/poll reads, the [`AsyncKvStore`] over the same
/// instance (two fields because the traits are still two — ROADMAP item
/// 4 — and `benchmark/` constructs this struct by field).
pub struct ShardBackend {
    /// Blocking operations (always required).
    pub kv: Arc<dyn KvStore + Send + Sync>,
    /// Non-blocking point reads. Required by any store whose reads can
    /// wait on a device: the shard parks such a GET instead of stalling.
    /// `None` only for stores that answer every read from memory.
    pub async_kv: Option<Arc<dyn AsyncKvStore + Send + Sync>>,
}

impl From<dcs_core::BuiltBackend> for ShardBackend {
    fn from(b: dcs_core::BuiltBackend) -> Self {
        ShardBackend {
            kv: b.kv,
            async_kv: b.async_kv,
        }
    }
}

/// Final accounting returned by [`Server::shutdown`].
#[derive(Debug, Clone)]
pub struct ServerReport {
    /// Per-shard execution counters and latency summaries.
    pub shards: Vec<ShardSnapshot>,
    /// Per-shard mailbox counters.
    pub mailboxes: Vec<MailboxStats>,
}

/// Per-connection shared state; the shard side sees it as a [`ReplySink`].
struct ConnState {
    /// Encoded response frames awaiting the writer thread. Unbounded in
    /// practice (capacity `usize::MAX >> 1`), and nothing else bounds it:
    /// shards drain their mailboxes whatever the writer does, and
    /// `Shard::offer` writes `BUSY` straight in here. A client that sends
    /// but never reads grows this queue without limit.
    outbox: Mailbox<Vec<u8>>,
    /// Requests routed but not yet answered.
    inflight: AtomicU64,
    /// Reader saw EOF (or shutdown half-closed the read side).
    eof: AtomicBool,
    /// Writer hit a socket error; further replies are dropped.
    dead: AtomicBool,
}

impl ConnState {
    fn new() -> Self {
        ConnState {
            outbox: Mailbox::new(usize::MAX >> 1),
            inflight: AtomicU64::new(0),
            eof: AtomicBool::new(false),
            dead: AtomicBool::new(false),
        }
    }

    /// One routed request finished; close the outbox once the reader is
    /// gone and nothing is in flight (lets the writer flush and exit).
    fn finish_one(&self) {
        let was = self.inflight.fetch_sub(1, Ordering::SeqCst);
        if was == 1 && self.eof.load(Ordering::SeqCst) {
            self.outbox.close();
        }
    }

    fn reader_done(&self) {
        self.eof.store(true, Ordering::SeqCst);
        if self.inflight.load(Ordering::SeqCst) == 0 {
            self.outbox.close();
        }
    }
}

impl ReplySink for ConnState {
    fn deliver(&self, id: u64, resp: Response) {
        if !self.dead.load(Ordering::Relaxed) {
            let bytes = encode_to_vec(&Frame::Response { id, resp });
            // Closed/full outbox means the connection is going away; the
            // client observes that as a connection error instead.
            let _ = self.outbox.send(bytes);
        }
        self.finish_one();
    }
}

/// Live connections registered by the accept loop, so `shutdown`/`abort`
/// can reach every socket.
type ConnRegistry = Arc<Mutex<Vec<(TcpStream, Arc<ConnState>)>>>;

/// A running sharded server bound to a local TCP port.
pub struct Server {
    listener_addr: std::net::SocketAddr,
    shards: Vec<Arc<Shard>>,
    backends: Arc<Vec<Arc<dyn KvStore + Send + Sync>>>,
    /// The shared placement surface: versioned partition map, per-shard
    /// write gates, per-range heat. All shards and the connection
    /// readers route through it.
    router: Arc<Router>,
    rebalancer: Option<Rebalancer>,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    shard_threads: Vec<JoinHandle<()>>,
    conns: ConnRegistry,
    conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl Server {
    /// Bind to `127.0.0.1:0` and start serving `backends`, one per shard
    /// of `partitioner`. A store that supplies an async handle gets
    /// submit/poll GETs whose misses park (see [`Shard::run`]).
    pub fn start_with(
        backends: Vec<ShardBackend>,
        partitioner: Partitioner,
        config: ServerConfig,
    ) -> std::io::Result<Server> {
        assert_eq!(
            backends.len(),
            partitioner.shards(),
            "one backend per shard"
        );
        let mut async_handles = Vec::with_capacity(backends.len());
        let mut kv_backends = Vec::with_capacity(backends.len());
        for b in backends {
            kv_backends.push(b.kv);
            async_handles.push(b.async_kv);
        }
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let listener_addr = listener.local_addr()?;
        let backends = Arc::new(kv_backends);
        let partitioner = Arc::new(partitioner);
        // One router for the whole server: its epoch-0 map mirrors the
        // static partitioner; migrations install successors.
        let router = Arc::new(Router::new(
            PartitionMap::contiguous(partitioner.splits().to_vec()),
            backends.len(),
        ));
        let mut shards = Vec::with_capacity(backends.len());
        let mut shard_threads = Vec::with_capacity(backends.len());
        for (i, async_kv) in async_handles.into_iter().enumerate() {
            let device = dcs_flashsim::FlashDevice::new(dcs_flashsim::DeviceConfig {
                segment_count: 4096,
                ..dcs_flashsim::DeviceConfig::small_test()
            });
            let wal = Arc::new(RecoveryLog::on_device(Arc::new(device)));
            let shard = Arc::new(
                Shard::new(i, &config.shard, backends.clone(), partitioner.clone(), wal)
                    .with_async_backend(async_kv)
                    .with_router(router.clone()),
            );
            let worker = shard.clone();
            shard_threads.push(
                std::thread::Builder::new()
                    .name(format!("dcs-shard-{i}"))
                    .spawn(move || worker.run())?,
            );
            shards.push(shard);
        }
        let stop = Arc::new(AtomicBool::new(false));
        let conns: ConnRegistry = Arc::new(Mutex::new(Vec::new()));
        let conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));

        let accept_thread = {
            let stop = stop.clone();
            let conns = conns.clone();
            let conn_threads = conn_threads.clone();
            let shards = shards.clone();
            let router = router.clone();
            std::thread::Builder::new()
                .name("dcs-accept".into())
                .spawn(move || {
                    for stream in listener.incoming() {
                        if stop.load(Ordering::SeqCst) {
                            break;
                        }
                        let Ok(stream) = stream else { break };
                        stream.set_nodelay(true).ok();
                        let state = Arc::new(ConnState::new());
                        conns
                            .lock()
                            .unwrap()
                            .push((stream.try_clone().expect("clone stream"), state.clone()));
                        let mut handles = Vec::with_capacity(2);
                        // Reader: decode + route.
                        {
                            let stream = stream.try_clone().expect("clone stream");
                            let state = state.clone();
                            let shards = shards.clone();
                            let router = router.clone();
                            handles.push(
                                std::thread::Builder::new()
                                    .name("dcs-conn-rd".into())
                                    .spawn(move || read_loop(stream, &state, &shards, &router))
                                    .expect("spawn reader"),
                            );
                        }
                        // Writer: drain outbox onto the socket.
                        {
                            let state = state.clone();
                            handles.push(
                                std::thread::Builder::new()
                                    .name("dcs-conn-wr".into())
                                    .spawn(move || write_loop(stream, &state))
                                    .expect("spawn writer"),
                            );
                        }
                        conn_threads.lock().unwrap().extend(handles);
                    }
                })?
        };

        let rebalancer = if config.rebalance.enabled {
            Some(Rebalancer::spawn(
                config.rebalance.clone(),
                router.clone(),
                shards.clone(),
            )?)
        } else {
            None
        };

        Ok(Server {
            listener_addr,
            shards,
            backends,
            router,
            rebalancer,
            stop,
            accept_thread: Some(accept_thread),
            shard_threads,
            conns,
            conn_threads,
        })
    }

    /// The address clients connect to.
    pub fn addr(&self) -> std::net::SocketAddr {
        self.listener_addr
    }

    /// The per-shard backend stores (e.g. for post-shutdown verification).
    pub fn backends(&self) -> Arc<Vec<Arc<dyn KvStore + Send + Sync>>> {
        self.backends.clone()
    }

    /// The live placement surface: versioned map, write gates, heat.
    pub fn router(&self) -> Arc<Router> {
        self.router.clone()
    }

    /// Move `range` of the current map to shard `target`, online, while
    /// the server keeps serving. Test and operator hook; the background
    /// rebalancer calls the same engine.
    pub fn migrate_range(&self, range: usize, target: usize) -> Result<MigrationStats, String> {
        crate::rebalance::migrate_range(&self.router, &self.shards, range, target)
    }

    /// The live shards (metrics access while serving).
    pub fn shards(&self) -> &[Arc<Shard>] {
        &self.shards
    }

    fn stop_accepting(&mut self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // Nudge the blocking accept() so the thread observes the flag.
        let _ = TcpStream::connect(self.listener_addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }

    fn report(&self) -> ServerReport {
        ServerReport {
            shards: self
                .shards
                .iter()
                .map(|s| s.metrics().snapshot(s.mailbox().stats().depth_high_water()))
                .collect(),
            mailboxes: self.shards.iter().map(|s| s.mailbox().stats()).collect(),
        }
    }

    /// Graceful drain: every accepted request is answered, every
    /// acknowledged write durable, before this returns.
    pub fn shutdown(mut self) -> ServerReport {
        // Stop the rebalancer first: no new migrations may start while
        // the shard workers drain toward their final WAL barrier.
        if let Some(mut r) = self.rebalancer.take() {
            r.stop();
        }
        self.stop_accepting();
        // Half-close read sides: readers see EOF, no new requests arrive,
        // but in-flight responses still reach the client.
        for (stream, _) in self.conns.lock().unwrap().iter() {
            let _ = stream.shutdown(Shutdown::Read);
        }
        // Close mailboxes; workers drain what was accepted, group-commit,
        // and exit through the final WAL barrier.
        for shard in &self.shards {
            shard.mailbox().close();
        }
        for t in self.shard_threads.drain(..) {
            let _ = t.join();
        }
        // Readers exit on EOF, writers once each outbox closes after the
        // last in-flight reply.
        let handles: Vec<_> = self.conn_threads.lock().unwrap().drain(..).collect();
        for t in handles {
            let _ = t.join();
        }
        let report = self.report();
        self.conns.lock().unwrap().clear();
        report
    }

    /// Unclean stop: sockets are torn down immediately and unanswered
    /// requests are simply never answered. For testing client failure
    /// paths.
    pub fn abort(mut self) -> ServerReport {
        if let Some(mut r) = self.rebalancer.take() {
            r.stop();
        }
        self.stop_accepting();
        for (stream, state) in self.conns.lock().unwrap().iter() {
            state.dead.store(true, Ordering::SeqCst);
            state.outbox.close();
            let _ = stream.shutdown(Shutdown::Both);
        }
        for shard in &self.shards {
            shard.mailbox().close();
        }
        for t in self.shard_threads.drain(..) {
            let _ = t.join();
        }
        let handles: Vec<_> = self.conn_threads.lock().unwrap().drain(..).collect();
        for t in handles {
            let _ = t.join();
        }
        let report = self.report();
        self.conns.lock().unwrap().clear();
        report
    }
}

fn read_loop(
    mut stream: TcpStream,
    state: &Arc<ConnState>,
    shards: &[Arc<Shard>],
    router: &Router,
) {
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
                Ok(Some((frame, used))) => {
                    consumed += used;
                    match frame {
                        Frame::Request { id, req } => {
                            state.inflight.fetch_add(1, Ordering::SeqCst);
                            // STATS is answered here on the connection: a
                            // scrape must work even when every shard
                            // mailbox is refusing with BUSY.
                            if req == Request::Stats {
                                state.deliver(id, Response::Stats(stats_doc(shards, router)));
                                continue;
                            }
                            // Route by the live map (not the static
                            // partitioner) and feed the per-range heat
                            // counters the rebalancer's policy reads.
                            let map = router.map().load();
                            let range = map.range_of(req.routing_key());
                            router.heat().record(&map, range);
                            let idx = map.owner_of_range(range).unwrap_or(0);
                            let Some(shard) = shards.get(idx) else {
                                state.deliver(
                                    id,
                                    Response::Err(format!("no shard {idx} for range {range}")),
                                );
                                continue;
                            };
                            shard.offer(Mail {
                                id,
                                req,
                                reply: state.clone() as Arc<dyn ReplySink>,
                                enqueued: dcs_telemetry::now_nanos(),
                            });
                        }
                        // A client has no business sending response frames;
                        // treat it like any other framing corruption.
                        Frame::Response { .. } => break 'io,
                    }
                }
                Ok(None) => break,
                Err(e) => {
                    // Framing is unrecoverable: we cannot trust any later
                    // byte boundary. Tell the client (best effort, id 0)
                    // and close.
                    report_proto_error(state, &e);
                    break 'io;
                }
            }
        }
        if consumed > 0 {
            buf.drain(..consumed);
            consumed = 0;
        }
    }
    let _ = stream.shutdown(Shutdown::Read);
    state.reader_done();
}

/// The STATS response: `{"stats_epoch", "registry", "mrc"}`. The map
/// epoch is read before and after the capture; if a rebalance committed
/// in between, the pieces may disagree, so the capture is taken once
/// more under the newer epoch.
fn stats_doc(shards: &[Arc<Shard>], router: &Router) -> String {
    let capture = || {
        let epoch = router.map().load().epoch();
        let doc = obj! {
            "stats_epoch": epoch,
            "registry": registry_json(shards, router),
            "mrc": dcs_telemetry::mrc().json(),
        };
        (epoch, doc)
    };
    let (epoch, mut doc) = capture();
    if router.map().load().epoch() != epoch {
        doc = capture().1;
    }
    doc.to_string()
}

/// The registry body: the process-global telemetry registry plus the
/// serving layer's own metrics, folded in under `server.*` names so one
/// scrape shows the whole stack (storage counters arrive via the global
/// registry's `cost.*` terms and crate counters).
fn registry_json(shards: &[Arc<Shard>], router: &Router) -> Json {
    let mut snap = dcs_telemetry::global().snapshot();
    let mut read = dcs_telemetry::HistogramSnapshot::default();
    let mut write = dcs_telemetry::HistogramSnapshot::default();
    let mut miss = dcs_telemetry::HistogramSnapshot::default();
    let mut depth = dcs_telemetry::HistogramSnapshot::default();
    let (mut gets, mut puts, mut misses, mut busy, mut moved) = (0u64, 0u64, 0u64, 0u64, 0u64);
    for s in shards {
        let m = s.metrics();
        read.merge(&m.read_latency.snapshot());
        write.merge(&m.write_latency.snapshot());
        miss.merge(&m.miss_latency.snapshot());
        depth.merge(&s.mailbox().stats().depth);
        gets += m.gets.load(Ordering::Relaxed);
        puts += m.puts.load(Ordering::Relaxed);
        misses += m.misses_submitted.load(Ordering::Relaxed);
        busy += m.busy_rejections.load(Ordering::Relaxed);
        moved += m.moved_redirects.load(Ordering::Relaxed);
    }
    // Placement visibility: map version + shape on every scrape. The
    // per-range heat counters (`rebalance.range_heat.*`) arrive through
    // the global registry snapshot above.
    let map = router.map().load();
    snap.counters.insert("server.map_epoch".into(), map.epoch());
    snap.counters
        .insert("server.map_ranges".into(), map.ranges() as u64);
    snap.counters.insert("server.moved_redirects".into(), moved);
    snap.histograms
        .insert("server.read_latency_nanos".into(), read);
    snap.histograms
        .insert("server.write_latency_nanos".into(), write);
    snap.histograms
        .insert("server.miss_latency_nanos".into(), miss);
    snap.histograms.insert("server.mailbox_depth".into(), depth);
    snap.counters.insert("server.gets".into(), gets);
    snap.counters.insert("server.puts".into(), puts);
    snap.counters
        .insert("server.misses_submitted".into(), misses);
    snap.counters.insert("server.busy_rejections".into(), busy);
    snap.json()
}

fn report_proto_error(state: &ConnState, e: &ProtoError) {
    if !state.dead.load(Ordering::Relaxed) {
        let bytes = encode_to_vec(&Frame::Response {
            id: 0,
            resp: Response::Err(format!("protocol error: {e}")),
        });
        let _ = state.outbox.send(bytes);
    }
}

fn write_loop(stream: TcpStream, state: &Arc<ConnState>) {
    let mut stream = stream;
    let mut batch: Vec<Vec<u8>> = Vec::new();
    let mut wire: Vec<u8> = Vec::with_capacity(64 * 1024);
    while state.outbox.recv_batch(256, &mut batch) {
        wire.clear();
        for frame in batch.drain(..) {
            wire.extend_from_slice(&frame);
        }
        if stream.write_all(&wire).is_err() {
            state.dead.store(true, Ordering::SeqCst);
            break;
        }
    }
    // Either the outbox closed (drain complete) or the socket died; stop
    // accepting replies and let the peer see EOF.
    state.dead.store(true, Ordering::SeqCst);
    let _ = stream.shutdown(Shutdown::Write);
}
