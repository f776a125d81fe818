//! The TCP front-end: accept loop, per-connection reader/writer threads,
//! request routing into shard mailboxes, and drain-and-flush shutdown.
//!
//! Thread model per connection: a **reader** thread decodes frames off the
//! socket and routes each request by the live map. It answers STATS, and a
//! GET whose owning store holds it in memory while nothing else on the
//! connection is unanswered, itself: the replies of one read burst are
//! written under the socket lock before the next `read`, so a depth-1 GET
//! hit never leaves the reader. Everything else goes to the owning shard's
//! mailbox (BUSY when full), and a **writer** thread drains the outbox of
//! shard replies onto the socket — a shard never blocks on a socket.
//! Responses carry the client's request id, so they may be delivered out
//! of order relative to other requests — that is what makes pipelining
//! useful.
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
use crate::protocol::{decode_frame, encode_frame, encode_to_vec, Frame, Request, Response};
use crate::rebalance::{MigrationStats, RebalanceConfig, Rebalancer};
use crate::shard::{Mail, Partitioner, ReplySink, Shard, ShardConfig};
use dcs_rebalance::{PartitionMap, Router};
use dcs_tc::RecoveryLog;
use dcs_telemetry::{obj, Json};
use dcs_workload::KvStore;
use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
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

/// One shard's store.
pub struct ShardBackend {
    /// The store the shard serves; its GETs are submitted, so a miss that
    /// waits on a device parks instead of stalling the shard.
    pub kv: Arc<dyn KvStore + Send + Sync>,
    /// The same store again, or `None`. Unused: it remains because
    /// `benchmark/` builds this struct by field (ROADMAP item 4).
    pub async_kv: Option<Arc<dyn KvStore + Send + Sync>>,
}

impl From<dcs_core::BuiltBackend> for ShardBackend {
    fn from(b: dcs_core::BuiltBackend) -> Self {
        ShardBackend {
            kv: b.kv,
            async_kv: None,
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
    /// Encoded shard response frames awaiting the writer thread. Unbounded
    /// in practice (capacity `usize::MAX >> 1`): shards drain their
    /// mailboxes whatever the writer does, and `Shard::offer` writes
    /// `BUSY` straight in here. A client that sends but never reads grows
    /// it with every request that reaches a shard; replies the reader
    /// makes itself block the reader instead.
    outbox: Mailbox<Vec<u8>>,
    /// The socket's write half, shared by the writer thread (one lock per
    /// drained batch) and the reader (one lock per read burst).
    socket: Mutex<TcpStream>,
    /// Requests routed but not yet answered, dropped only after the reply
    /// is queued: the outbox closes when this reaches 0 after EOF.
    inflight: AtomicU64,
    /// The same count, dropped *before* the reply is queued: 0 means the
    /// client cannot be waiting on any shard, so the reader may answer a
    /// GET itself without overtaking an earlier request.
    unanswered: AtomicU64,
    /// Reader saw EOF (or shutdown half-closed the read side).
    eof: AtomicBool,
    /// A socket write failed; further replies are dropped.
    dead: AtomicBool,
}

impl ConnState {
    fn new(socket: TcpStream) -> Self {
        ConnState {
            outbox: Mailbox::new(usize::MAX >> 1),
            socket: Mutex::new(socket),
            inflight: AtomicU64::new(0),
            unanswered: AtomicU64::new(0),
            eof: AtomicBool::new(false),
            dead: AtomicBool::new(false),
        }
    }

    fn socket(&self) -> MutexGuard<'_, TcpStream> {
        self.socket
            .lock()
            .expect("socket lock poisoned by a panicked connection thread")
    }

    /// Write `frames` under the socket lock unless the connection is
    /// dead, then clear them. Returns whether the connection is alive.
    fn write(&self, frames: &mut Vec<u8>) -> bool {
        if !frames.is_empty()
            && !self.dead.load(Ordering::SeqCst)
            && self.socket().write_all(frames).is_err()
        {
            self.dead.store(true, Ordering::SeqCst);
        }
        frames.clear();
        !self.dead.load(Ordering::SeqCst)
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
        self.unanswered.fetch_sub(1, Ordering::SeqCst);
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
    /// of `partitioner`. A GET that misses to a store's device parks (see
    /// [`Shard::run`]).
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
        for b in &backends {
            debug_assert!(
                b.async_kv
                    .iter()
                    .all(|a| Arc::as_ptr(a).cast::<()>() == Arc::as_ptr(&b.kv).cast::<()>()),
                "a shard's async_kv must be its kv"
            );
        }
        let kv_backends: Vec<_> = backends.into_iter().map(|b| b.kv).collect();
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
        for i in 0..backends.len() {
            let device = dcs_flashsim::FlashDevice::new(dcs_flashsim::DeviceConfig {
                segment_count: 4096,
                ..dcs_flashsim::DeviceConfig::small_test()
            });
            let wal = Arc::new(RecoveryLog::on_device(Arc::new(device)));
            let shard = Arc::new(
                Shard::new(i, &config.shard, backends.clone(), partitioner.clone(), wal)
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
                        let state =
                            Arc::new(ConnState::new(stream.try_clone().expect("clone stream")));
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
                        // Writer: drain shard replies onto the socket.
                        handles.push(
                            std::thread::Builder::new()
                                .name("dcs-conn-wr".into())
                                .spawn(move || write_loop(&state))
                                .expect("spawn writer"),
                        );
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

/// Reply bytes a connection reader holds before writing them mid-burst.
const BURST_FLUSH: usize = 64 * 1024;

fn read_loop(
    mut stream: TcpStream,
    state: &Arc<ConnState>,
    shards: &[Arc<Shard>],
    router: &Router,
) {
    let mut buf: Vec<u8> = Vec::with_capacity(64 * 1024);
    let mut tmp = [0u8; 64 * 1024];
    let mut consumed = 0usize;
    // Replies this thread makes itself, written before its next read.
    let mut burst: Vec<u8> = Vec::new();
    'io: loop {
        match stream.read(&mut tmp) {
            Ok(0) | Err(_) => break 'io,
            Ok(n) => buf.extend_from_slice(&tmp[..n]),
        }
        loop {
            match decode_frame(&buf[consumed..]) {
                Ok(Some((frame, used))) => {
                    consumed += used;
                    // A client has no business sending response frames;
                    // treat it like any other framing corruption.
                    let Frame::Request { id, req } = frame else {
                        break 'io;
                    };
                    if let Some(resp) = serve(id, req, state, shards, router) {
                        encode_frame(&Frame::Response { id, resp }, &mut burst);
                        // Bound the burst: one read of GETs for big values
                        // must not become one big buffer.
                        if burst.len() >= BURST_FLUSH && !state.write(&mut burst) {
                            break 'io;
                        }
                    }
                }
                Ok(None) => break,
                Err(e) => {
                    // Framing is unrecoverable: we cannot trust any later
                    // byte boundary. Tell the client (best effort, id 0)
                    // and close.
                    let resp = Response::Err(format!("protocol error: {e}"));
                    encode_frame(&Frame::Response { id: 0, resp }, &mut burst);
                    break 'io;
                }
            }
        }
        if consumed > 0 {
            buf.drain(..consumed);
            consumed = 0;
        }
        if !state.write(&mut burst) {
            break;
        }
    }
    state.write(&mut burst);
    let _ = stream.shutdown(Shutdown::Read);
    state.reader_done();
}

/// Route one request by the live map (feeding the per-range heat the
/// rebalancer reads) and answer it here when no shard needs to see it:
/// STATS (a scrape must work even when every mailbox refuses with BUSY),
/// and a GET its owner's store holds in memory while nothing else on this
/// connection is unanswered. Everything else goes to the owning shard's
/// mailbox and returns `None`.
fn serve(
    id: u64,
    req: Request,
    state: &Arc<ConnState>,
    shards: &[Arc<Shard>],
    router: &Router,
) -> Option<Response> {
    if req == Request::Stats {
        return Some(Response::Stats(stats_doc(shards, router)));
    }
    let decoded = dcs_telemetry::now_nanos();
    let map = router.map().load();
    let range = map.range_of(req.routing_key());
    router.heat().record(&map, range);
    let idx = map.owner_of_range(range).unwrap_or(0);
    let Some(shard) = shards.get(idx) else {
        return Some(Response::Err(format!("no shard {idx} for range {range}")));
    };
    if let Request::Get { key } = &req {
        if state.unanswered.load(Ordering::SeqCst) == 0 {
            if let Some(resp) = shard.get_resident(key, decoded) {
                return Some(resp);
            }
        }
    }
    state.inflight.fetch_add(1, Ordering::SeqCst);
    state.unanswered.fetch_add(1, Ordering::SeqCst);
    shard.offer(Mail {
        id,
        req,
        reply: state.clone() as Arc<dyn ReplySink>,
        enqueued: decoded,
    });
    None
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
    let (mut gets, mut inline, mut puts, mut misses, mut busy, mut moved) = (0, 0, 0, 0, 0, 0);
    for s in shards {
        let m = s.metrics();
        read.merge(&m.read_latency.snapshot());
        write.merge(&m.write_latency.snapshot());
        miss.merge(&m.miss_latency.snapshot());
        depth.merge(&s.mailbox().stats().depth);
        gets += m.gets.load(Ordering::Relaxed);
        inline += m.inline_gets.load(Ordering::Relaxed);
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
    snap.counters.insert("server.inline_gets".into(), inline);
    snap.counters.insert("server.puts".into(), puts);
    snap.counters
        .insert("server.misses_submitted".into(), misses);
    snap.counters.insert("server.busy_rejections".into(), busy);
    snap.json()
}

fn write_loop(state: &ConnState) {
    let mut batch: Vec<Vec<u8>> = Vec::new();
    let mut wire: Vec<u8> = Vec::with_capacity(64 * 1024);
    while state.outbox.recv_batch(256, &mut batch) {
        for frame in batch.drain(..) {
            wire.extend_from_slice(&frame);
        }
        if !state.write(&mut wire) {
            break;
        }
    }
    // Either the outbox closed (drain complete) or the socket died; stop
    // accepting replies and let the peer see EOF.
    state.dead.store(true, Ordering::SeqCst);
    let _ = state.socket().shutdown(Shutdown::Write);
}
