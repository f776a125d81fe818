//! The in-process driver: one thread calling `CachingStore` directly.
//! Ops are generated in untimed chunks; only the calls into the store (and
//! the checks of what they return) are on the clock.

use crate::harness::{
    scan_expect, Budget, DriverOut, Kind, Op, OpStream, Slice, RECORDS, RECORD_BYTES, SWEEP_EVERY,
    VALUE_LEN,
};
use crate::procfs;
use crate::trace::{now_ns, Tracer};
use dcs_core::CachingStore;
use dcs_workload::{keys, KvStore};

/// Ops generated per untimed chunk.
const CHUNK: usize = 16_384;
/// Under a seconds budget the deadline is looked at this often.
const DEADLINE_EVERY: usize = 256;

/// One record a scan returned: the id its key decodes to and the
/// (id, version) its value carries.
type Scanned = (Option<u64>, Option<(u64, u32)>);

/// What survives from one window to the next on the same store.
pub struct Driver {
    stream: OpStream,
    /// Version each key was last written with (0 after the load).
    pub last: Vec<u32>,
    /// Ops counted the way the store's own sweep trigger counts them.
    ticks: u64,
    /// Request number of the next op.
    seq: u64,
    /// Call `CachingStore::sweep` every [`SWEEP_EVERY`] ticks, for stores
    /// built with the automatic sweep off (traced runs).
    pub manual_sweep: bool,
}

impl Driver {
    pub fn new(stream: OpStream, manual_sweep: bool) -> Self {
        Driver {
            stream,
            last: vec![0; RECORDS as usize],
            ticks: 0,
            seq: 0,
            manual_sweep,
        }
    }

    /// Run one window.
    pub fn drive(
        &mut self,
        store: &CachingStore,
        budget: Budget,
        mut tracer: Option<&mut Tracer>,
    ) -> DriverOut {
        let mut out = DriverOut::default();
        let mut chunk: Vec<Op> = Vec::with_capacity(CHUNK);
        let mut scanned: Vec<Scanned> = Vec::with_capacity(16);
        while !budget.done(out.attempted, out.timed_ns) {
            let n = match budget {
                Budget::Ops(total) => CHUNK.min((total - out.attempted) as usize),
                Budget::Seconds(_) => CHUNK,
            };
            chunk.clear();
            chunk.extend((0..n).map(|_| self.stream.next_op()));

            let ops_before = out.attempted;
            let cpu_before = procfs::thread_budget();
            let chunk_start = now_ns();
            for (i, op) in chunk.drain(..).enumerate() {
                if i % DEADLINE_EVERY == 0
                    && budget.done(out.attempted, out.timed_ns + (now_ns() - chunk_start))
                {
                    break;
                }
                self.execute(store, op, &mut out, &mut scanned, tracer.as_deref_mut());
            }
            let chunk_ns = now_ns() - chunk_start;
            out.timed_ns += chunk_ns;
            let cpu = procfs::budget_since(&procfs::thread_budget(), &cpu_before);
            out.slices.push(Slice {
                ns: chunk_ns,
                ops: out.attempted - ops_before,
                cpu_ns: procfs::total(&cpu).run_ns,
            });
            out.cut();
            for (role, t) in cpu {
                let e = out.cpu.entry(role).or_default();
                e.run_ns += t.run_ns;
                e.wait_ns += t.wait_ns;
                e.slices += t.slices;
                e.threads = t.threads;
            }
        }
        out
    }

    fn execute(
        &mut self,
        store: &CachingStore,
        op: Op,
        out: &mut DriverOut,
        scanned: &mut Vec<Scanned>,
        tracer: Option<&mut Tracer>,
    ) {
        let Op {
            kind,
            id,
            version,
            value,
        } = op;
        let key = keys::encode(id);
        let seq = self.seq;
        self.seq += 1;
        out.attempted += 1;
        let t0 = now_ns();
        // (mid, end): `mid` splits an RMW into its get and its put.
        let (mid, t1);
        match kind {
            Kind::Get => {
                let got = store.try_get(&key);
                t1 = now_ns();
                mid = t1;
                self.check_get(got, id, out);
                self.ticks += 1;
            }
            Kind::Put => {
                store.put(key.to_vec(), value);
                t1 = now_ns();
                mid = t1;
                self.last[id as usize] = version;
                out.user_bytes_written += RECORD_BYTES;
                self.ticks += 1;
            }
            Kind::Rmw => {
                let got = store.try_get(&key);
                mid = now_ns();
                store.put(key.to_vec(), value);
                t1 = now_ns();
                self.check_get(got, id, out);
                self.last[id as usize] = version;
                out.user_bytes_written += RECORD_BYTES;
                self.ticks += 2;
            }
            Kind::Scan => {
                scanned.clear();
                let n = store.kv_range(&key, None, crate::harness::SCAN_LIMIT, &mut |k, v| {
                    scanned.push((keys::decode(k), keys::parse_value(v)));
                });
                t1 = now_ns();
                mid = t1;
                let ok = n == Ok(scan_expect(id) as usize)
                    && scanned.iter().enumerate().all(|(i, (k, v))| {
                        let want = id + i as u64;
                        *k == Some(want) && *v == Some((want, self.last[want as usize]))
                    });
                if !ok {
                    out.fail(|| format!("scan from id {id}: {n:?}, {scanned:?}"));
                }
            }
        }
        out.lat[kind as usize].push((t1 - t0).min(u32::MAX as u64) as u32);

        let sweep_due = self.manual_sweep && self.ticks >= SWEEP_EVERY;
        if sweep_due {
            self.ticks -= SWEEP_EVERY;
        }
        let Some(tr) = tracer else {
            if sweep_due {
                let _ = store.sweep();
            }
            return;
        };
        let root = tr.open_at("bench.op", seq, None, t0);
        let child = |tr: &mut Tracer, name, from, to| {
            let s = tr.open_at(name, seq, Some(root), from);
            tr.close_at(s, to);
        };
        match kind {
            Kind::Get => child(tr, "core.get", t0, t1),
            Kind::Put => child(tr, "core.put", t0, t1),
            Kind::Scan => child(tr, "core.scan", t0, t1),
            Kind::Rmw => {
                child(tr, "core.get", t0, mid);
                child(tr, "core.put", mid, t1);
            }
        }
        tr.close_at(root, t1);
        if sweep_due {
            let s = tr.open("llama.cache.sweep", seq, None);
            let _ = store.sweep();
            tr.close(s);
        }
    }

    fn check_get(
        &self,
        got: Result<Option<bytes::Bytes>, dcs_bwtree::TreeError>,
        id: u64,
        out: &mut DriverOut,
    ) {
        // On the clock, so only the header is compared; the re-read after
        // the window compares every byte.
        let want = self.last[id as usize];
        match got {
            Ok(Some(v)) if v.len() == VALUE_LEN && keys::parse_value(&v) == Some((id, want)) => {}
            Ok(v) => out.fail(|| {
                let found = v.as_deref().and_then(keys::parse_value);
                format!("get id {id}: want version {want}, found {found:?}")
            }),
            Err(e) => out.fail(|| format!("get id {id}: {e}")),
        }
    }
}
