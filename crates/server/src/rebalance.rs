//! The server's side of online rebalancing: the migration engine that
//! moves one range between live shards, and the background policy thread
//! that decides when to split, merge, and move.
//!
//! The mechanism (versioned map, write gates, tail mirroring) lives in
//! `dcs-rebalance`; this module owns the choreography against real
//! shards. [`migrate_range`] is the copy → freeze → replay → install
//! sequence from the `dcs_rebalance::migrate` module docs, executed with
//! [`Shard::kv_backend`] as the copy source and [`Shard::import`] as the
//! target apply (backend + WAL in one group commit). The rebalancer
//! thread ticks on a condvar timeout, turns the monotone per-range heat
//! counters into per-tick EWMA rates, and executes at most one
//! [`Action`] per tick so every map transition stays small and
//! observable.

use crate::shard::Shard;
use dcs_rebalance::{plan, Action, PolicyConfig, RangeLease, Router, TailEntry};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Background rebalancer tunables.
#[derive(Debug, Clone)]
pub struct RebalanceConfig {
    /// Run the background rebalancer thread at all. Off by default:
    /// static placement remains the baseline the paper's cost ledger is
    /// calibrated against, and the CI gate compares on vs. off.
    pub enabled: bool,
    /// Policy tick interval in milliseconds (wall clock: the rebalancer
    /// paces real migrations, not simulated ones).
    pub tick_ms: u64,
    /// Smoothing factor for the per-range heat EWMA (0 < alpha <= 1;
    /// higher = reacts faster, flaps easier).
    pub ewma_alpha: f64,
    /// The cost-model policy knobs (priced from the paper's hardware
    /// catalog by default).
    pub policy: PolicyConfig,
}

impl Default for RebalanceConfig {
    fn default() -> Self {
        RebalanceConfig {
            enabled: false,
            tick_ms: 20,
            ewma_alpha: 0.5,
            policy: PolicyConfig::default(),
        }
    }
}

/// What one completed migration did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrationStats {
    /// Records copied in the bulk phase.
    pub copied: u64,
    /// Tail writes replayed from the freeze window.
    pub replayed: u64,
    /// Epoch of the map installed at the end.
    pub epoch: u64,
}

/// Move `range` of the current map to shard `target`, online.
///
/// Copy → freeze → replay → install → finish, per the protocol in
/// `dcs_rebalance::migrate`. Writes racing the copy are mirrored into
/// the source gate's tail and replayed last-writer-wins; writes arriving
/// after the freeze bounce with `MOVED(next_epoch, target)`. On any
/// error before the install the gate is disarmed and the map left
/// untouched — the source still owns the range and has every
/// acknowledged write, so aborting is always safe.
pub fn migrate_range(
    router: &Router,
    shards: &[Arc<Shard>],
    range: usize,
    target: usize,
) -> Result<MigrationStats, String> {
    // One span per migration: the copy, replay, and install all bill to
    // it, so a trace shows handoffs as single background Mm intervals.
    let _span = dcs_telemetry::span("rebalance.migrate", dcs_telemetry::CostClass::Mm);
    let map = router.map().load();
    let source = map
        .owner_of_range(range)
        .ok_or_else(|| format!("no range {range} in epoch {}", map.epoch()))?;
    if source == target {
        return Err(format!("range {range} already on shard {target}"));
    }
    let (lo, hi) = map
        .bounds(range)
        .ok_or_else(|| format!("no bounds for range {range}"))?;
    let next = map
        .reassign(range, target)
        .ok_or_else(|| format!("cannot reassign range {range} to shard {target}"))?;
    let src = shards
        .get(source)
        .ok_or_else(|| format!("no source shard {source}"))?;
    let dst = shards
        .get(target)
        .ok_or_else(|| format!("no target shard {target}"))?;
    let gate = router
        .gate(source)
        .ok_or_else(|| format!("no gate for shard {source}"))?
        .clone();
    let lease = RangeLease {
        lo: lo.to_vec(),
        hi: hi.map(<[u8]>::to_vec),
        source,
        target,
        next_epoch: next.epoch(),
    };
    if !gate.begin(lease) {
        return Err(format!("shard {source} already has a migration in flight"));
    }
    // Bulk copy. Started strictly after `begin`, so every write it can
    // miss is in the tail.
    let mut copied: Vec<TailEntry> = Vec::new();
    let copy = src.kv_backend().kv_range(lo, hi, usize::MAX, &mut |k, v| {
        copied.push((k.to_vec(), Some(v.to_vec())));
    });
    if let Err(e) = copy {
        gate.finish();
        return Err(format!("copy failed: {e}"));
    }
    if let Err(e) = dst.import(&copied) {
        gate.finish();
        return Err(format!("bulk import failed: {e}"));
    }
    // Freeze the range and replay the mirrored tail (admission order =
    // source apply order, so last-writer-wins replay converges on the
    // source's final state).
    let Some(tail) = gate.freeze() else {
        gate.finish();
        return Err("gate lost its lease mid-migration".to_string());
    };
    if let Err(e) = dst.import(&tail) {
        gate.finish();
        return Err(format!("tail replay failed: {e}"));
    }
    // Install before finish: a worker that finds the gate empty must be
    // looking at the new map (order argument in dcs-rebalance::migrate).
    let epoch = next.epoch();
    let installed = router.map().install(Arc::new(next));
    gate.finish();
    if !installed {
        return Err("a newer map was installed mid-migration".to_string());
    }
    let moved = (copied.len() + tail.len()) as u64;
    let t = dcs_telemetry::global();
    t.counter("rebalance.moves").incr();
    t.counter("rebalance.migrated_records").add(moved);
    // Paper-cost attribution: each migrated record is one memory-to-
    // memory maintenance transfer; the action itself is one background
    // maintenance op.
    dcs_telemetry::ledger().mm_ops(moved);
    dcs_telemetry::ledger().maintenance_op();
    Ok(MigrationStats {
        copied: copied.len() as u64,
        replayed: tail.len() as u64,
        epoch,
    })
}

/// Pick a data-informed split point for `range`: the median *existing*
/// key in the owner's backend, like a B-tree node split. The policy's
/// byte-midpoint fallback bisects raw keyspace, and for sparse
/// encodings (a 4-byte prefix plus a mostly-zero big-endian id) that
/// spends dozens of epochs carving empty halves before any split
/// actually separates two live keys; the median key halves the real
/// population in one epoch. `None` when the range holds fewer than two
/// keys (nothing to separate).
fn median_split_key(router: &Router, shards: &[Arc<Shard>], range: usize) -> Option<Vec<u8>> {
    let map = router.map().load();
    let (lo, hi) = map.bounds(range)?;
    let owner = map.owner_of_range(range)?;
    let backend = shards.get(owner)?.kv_backend();
    let mut keys: Vec<Vec<u8>> = Vec::new();
    backend
        .kv_range(lo, hi, usize::MAX, &mut |k, _| keys.push(k.to_vec()))
        .ok()?;
    if keys.len() < 2 {
        return None;
    }
    let mid = keys.get(keys.len() / 2)?.clone();
    // keys are sorted and distinct, so keys[>=1] is strictly above lo;
    // double-check both bounds anyway before handing it to the map.
    (mid.as_slice() > lo && hi.is_none_or(|h| mid.as_slice() < h)).then_some(mid)
}

/// Split `range` of the current map at `at` (both halves keep the
/// owner). Purely a map transition — no data moves.
pub fn split_range(router: &Router, range: usize, at: Vec<u8>) -> Result<u64, String> {
    let map = router.map().load();
    let next = map
        .split(range, at)
        .ok_or_else(|| format!("cannot split range {range}"))?;
    let epoch = next.epoch();
    if !router.map().install(Arc::new(next)) {
        return Err("a newer map was installed mid-split".to_string());
    }
    dcs_telemetry::global().counter("rebalance.splits").incr();
    Ok(epoch)
}

/// Merge `range` with its right neighbor (same owner required).
pub fn merge_range(router: &Router, range: usize) -> Result<u64, String> {
    let map = router.map().load();
    let next = map
        .merge(range)
        .ok_or_else(|| format!("cannot merge range {range}"))?;
    let epoch = next.epoch();
    if !router.map().install(Arc::new(next)) {
        return Err("a newer map was installed mid-merge".to_string());
    }
    dcs_telemetry::global().counter("rebalance.merges").incr();
    Ok(epoch)
}

/// Handle to the running rebalancer thread.
pub(crate) struct Rebalancer {
    stop: Arc<(Mutex<bool>, Condvar)>,
    thread: Option<JoinHandle<()>>,
}

impl Rebalancer {
    /// Spawn the policy loop over `router` and `shards`.
    pub(crate) fn spawn(
        cfg: RebalanceConfig,
        router: Arc<Router>,
        shards: Vec<Arc<Shard>>,
    ) -> std::io::Result<Rebalancer> {
        let stop = Arc::new((Mutex::new(false), Condvar::new()));
        let stop2 = stop.clone();
        let thread = std::thread::Builder::new()
            .name("dcs-rebalance".into())
            .spawn(move || run_loop(&cfg, &router, &shards, &stop2))?;
        Ok(Rebalancer {
            stop,
            thread: Some(thread),
        })
    }

    /// Signal the loop and join it. Idempotent.
    pub(crate) fn stop(&mut self) {
        {
            let (lock, cv) = &*self.stop;
            let mut stopped = lock.lock().unwrap_or_else(|e| e.into_inner());
            *stopped = true;
            cv.notify_all();
        }
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// One policy iteration per tick: read the monotone heat counters, turn
/// them into per-tick deltas, smooth with an EWMA, ask the policy for at
/// most one action, execute it. A map-epoch change resets the baseline
/// (the counter vector is re-registered per epoch).
fn run_loop(
    cfg: &RebalanceConfig,
    router: &Router,
    shards: &[Arc<Shard>],
    stop: &(Mutex<bool>, Condvar),
) {
    let alpha = cfg.ewma_alpha.clamp(0.01, 1.0);
    let mut prev: Vec<u64> = Vec::new();
    let mut ewma: Vec<f64> = Vec::new();
    let mut prev_epoch = u64::MAX;
    loop {
        {
            let (lock, cv) = stop;
            let mut stopped = lock.lock().unwrap_or_else(|e| e.into_inner());
            if !*stopped {
                let tick = Duration::from_millis(cfg.tick_ms.max(1));
                stopped = dcs_syncshim::block::wait_timeout(cv, stopped, tick);
            }
            if *stopped {
                return;
            }
        }
        let map = router.map().load();
        let totals = router.heat().totals(&map);
        if map.epoch() != prev_epoch || prev.len() != totals.len() {
            // New epoch: the range set changed; start a fresh baseline
            // rather than comparing counters across different ranges.
            prev = totals;
            prev_epoch = map.epoch();
            ewma = vec![0.0; prev.len()];
            continue;
        }
        ewma.resize(totals.len(), 0.0);
        for (e, (t, p)) in ewma.iter_mut().zip(totals.iter().zip(prev.iter())) {
            *e = (1.0 - alpha) * *e + alpha * t.saturating_sub(*p) as f64;
        }
        prev = totals;
        let heat: Vec<u64> = ewma.iter().map(|e| *e as u64).collect();
        match plan(&map, &heat, shards.len(), &cfg.policy) {
            Some(Action::Move { range, to }) => {
                if let Err(e) = migrate_range(router, shards, range, to) {
                    dcs_telemetry::global()
                        .counter("rebalance.failed_actions")
                        .incr();
                    let _ = e;
                }
            }
            Some(Action::Split { range, at }) => {
                // Prefer the median live key over the policy's byte
                // midpoint; skip entirely when the range has nothing to
                // separate (splitting off empty halves burns map slots).
                match median_split_key(router, shards, range) {
                    Some(at) => {
                        let _ = split_range(router, range, at);
                    }
                    None => {
                        let _ = at;
                        dcs_telemetry::global()
                            .counter("rebalance.failed_actions")
                            .incr();
                    }
                }
            }
            Some(Action::Merge { range }) => {
                let _ = merge_range(router, range);
            }
            None => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{Request, Response};
    use crate::shard::{Mail, Partitioner, ReplySink, Shard, ShardConfig};
    use dcs_tc::RecoveryLog;
    use dcs_workload::{KvStore, MemStore};
    use std::sync::atomic::Ordering;

    #[derive(Default)]
    struct CollectSink(Mutex<Vec<(u64, Response)>>);

    impl ReplySink for CollectSink {
        fn deliver(&self, id: u64, resp: Response) {
            self.0.lock().unwrap().push((id, resp));
        }
    }

    fn two_shard_fixture() -> (Vec<Arc<Shard>>, Arc<Router>) {
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

    fn mail(id: u64, req: Request, sink: &Arc<CollectSink>) -> Mail {
        Mail {
            id,
            req,
            reply: sink.clone() as Arc<dyn ReplySink>,
            enqueued: dcs_telemetry::now_nanos(),
        }
    }

    #[test]
    fn migrate_moves_every_record_and_installs_epoch() {
        let (shards, router) = two_shard_fixture();
        for i in 0..20u32 {
            let k = format!("a{i:03}").into_bytes();
            shards[0]
                .kv_backend()
                .kv_put(k, format!("v{i}").into_bytes())
                .unwrap();
        }
        // Range 0 = [.., "m") on shard 0; move it to shard 1.
        let stats = migrate_range(&router, &shards, 0, 1).unwrap();
        assert_eq!(stats.copied, 20);
        assert_eq!(stats.replayed, 0);
        let map = router.map().load();
        assert_eq!(map.epoch(), stats.epoch);
        assert_eq!(map.shard_of(b"a000"), 1);
        // The target holds every record (and its WAL does too).
        for i in 0..20u32 {
            let k = format!("a{i:03}").into_bytes();
            assert_eq!(
                shards[1].kv_backend().kv_get(&k).unwrap(),
                Some(format!("v{i}").into_bytes())
            );
        }
        assert_eq!(shards[1].wal().len(), 20);
        // A second identical move refuses: shard 1 already owns it.
        assert!(migrate_range(&router, &shards, 0, 1).is_err());
    }

    #[test]
    fn writes_racing_the_copy_land_on_the_target() {
        let (shards, router) = two_shard_fixture();
        shards[0]
            .kv_backend()
            .kv_put(b"a1".to_vec(), b"old".to_vec())
            .unwrap();
        // Arm the gate by hand to hold the copying window open, write
        // through the shard's admission path, then run the real
        // migration steps against the already-armed gate.
        let gate = router.gate(0).unwrap().clone();
        let map = router.map().load();
        let next = map.reassign(0, 1).unwrap();
        assert!(gate.begin(RangeLease {
            lo: b"".to_vec(),
            hi: Some(b"m".to_vec()),
            source: 0,
            target: 1,
            next_epoch: next.epoch(),
        }));
        // A write admitted during the copy window: applied at the source
        // AND mirrored into the tail.
        let sink = Arc::new(CollectSink::default());
        shards[0].offer(mail(
            1,
            Request::Put {
                key: b"a1".to_vec(),
                value: b"new".to_vec(),
            },
            &sink,
        ));
        shards[0].mailbox().close();
        shards[0].run();
        assert_eq!(sink.0.lock().unwrap()[0], (1, Response::Ok));
        // Copy (sees "new" or not — either way the tail has it).
        let mut copied: Vec<TailEntry> = Vec::new();
        shards[0]
            .kv_backend()
            .kv_range(b"", Some(b"m"), usize::MAX, &mut |k, v| {
                copied.push((k.to_vec(), Some(v.to_vec())));
            })
            .unwrap();
        shards[1].import(&copied).unwrap();
        let tail = gate.freeze().unwrap();
        assert_eq!(tail.len(), 1, "racing write must be mirrored");
        shards[1].import(&tail).unwrap();
        assert!(router.map().install(Arc::new(next)));
        gate.finish();
        assert_eq!(
            shards[1].kv_backend().kv_get(b"a1").unwrap(),
            Some(b"new".to_vec())
        );
    }

    #[test]
    fn frozen_window_bounces_writes_toward_target() {
        let (shards, router) = two_shard_fixture();
        let gate = router.gate(0).unwrap().clone();
        assert!(gate.begin(RangeLease {
            lo: b"".to_vec(),
            hi: Some(b"m".to_vec()),
            source: 0,
            target: 1,
            next_epoch: 7,
        }));
        let _ = gate.freeze().unwrap();
        let sink = Arc::new(CollectSink::default());
        shards[0].offer(mail(
            1,
            Request::Put {
                key: b"a1".to_vec(),
                value: b"v".to_vec(),
            },
            &sink,
        ));
        shards[0].mailbox().close();
        shards[0].run();
        assert_eq!(
            sink.0.lock().unwrap()[0],
            (1, Response::Moved { epoch: 7, shard: 1 })
        );
        assert_eq!(
            shards[0].metrics().moved_redirects.load(Ordering::Relaxed),
            1
        );
        gate.finish();
    }

    #[test]
    fn split_then_merge_round_trips_the_map() {
        let (_shards, router) = two_shard_fixture();
        let e1 = split_range(&router, 0, b"g".to_vec()).unwrap();
        let map = router.map().load();
        assert_eq!(map.epoch(), e1);
        assert_eq!(map.ranges(), 3);
        let e2 = merge_range(&router, 0).unwrap();
        assert_eq!(e2, e1 + 1);
        assert_eq!(router.map().load().ranges(), 2);
    }
}
