//! What every workload shares: the fixed set-up, the op stream, the run
//! budget, and the record of one timed window.

use crate::procfs::SchedTimes;
use dcs_core::flashsim::{DeviceConfig, IoPathKind};
use dcs_core::{CachingStore, StoreBuilder};
use dcs_workload::{keys, KeyDist, OpKind, OpMix, Operation};
use std::collections::BTreeMap;

/// Records loaded before every workload.
pub const RECORDS: u64 = 200_000;
/// Value payload; a key is [`keys::KEY_LEN`] bytes.
pub const VALUE_LEN: usize = 100;
/// User bytes of one record.
pub const RECORD_BYTES: u64 = (keys::KEY_LEN + VALUE_LEN) as u64;
/// Scans return this many records.
pub const SCAN_LIMIT: usize = 10;
/// The store's own sweep cadence (`StoreBuilder::paper`), repeated by the
/// driver when a traced run turns the automatic sweep off.
pub const SWEEP_EVERY: u64 = 4096;
/// Share of the budget run before the clock starts.
pub const WARMUP_FRAC: f64 = 0.10;

/// The device under every store (and under the device probes): the paper's
/// SSD cut down to 4 GiB of lazily allocated 1 MiB segments, the user-level
/// I/O path burning real CPU, no clock advance on I/O.
pub fn device_config() -> DeviceConfig {
    DeviceConfig {
        segment_bytes: 1 << 20,
        segment_count: 4096,
        advance_clock_on_io: false,
        io_path: IoPathKind::UserLevel.model(),
        ..DeviceConfig::paper_ssd()
    }
}

/// The store every workload runs on: the paper's configuration over
/// [`device_config`]. Only the memory budget varies.
pub fn store_builder(memory_budget: usize, auto_sweep: bool) -> StoreBuilder {
    let mut b = StoreBuilder::paper();
    b.device = device_config();
    b.memory_budget = memory_budget;
    b.sweep_every_ops = if auto_sweep { SWEEP_EVERY } else { 0 };
    b
}

/// How the ops reach the store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Path {
    /// One driver thread calling the store directly.
    InProcess,
    /// `drivers` threads, each with its own one-connection client, each
    /// keeping `window` requests in flight against a 2-shard server.
    Wire { window: usize, drivers: usize },
}

/// One fixed workload.
#[derive(Debug, Clone)]
pub struct WorkloadDef {
    pub name: &'static str,
    pub path: Path,
    pub memory_budget: usize,
    /// get, put, rmw, scan weights.
    pub mix: [f64; 4],
    /// Ops of a full-length `run` (about 25 s on the 2-vCPU container the
    /// benchmark was sized on).
    pub nominal_ops: u64,
    /// Ops per second of window a seconds-budget run is topped up to,
    /// untimed, before its counters are read: about 1.25 × the fastest
    /// window seen when the benchmark was sized. Re-base it when a change
    /// makes a workload that much faster.
    pub top_up_rate: f64,
}

pub const HOT_BUDGET: usize = 256 << 20;
pub const COLD_BUDGET: usize = 4 << 20;

pub fn workloads() -> [WorkloadDef; 4] {
    [
        WorkloadDef {
            name: "store_hot",
            path: Path::InProcess,
            memory_budget: HOT_BUDGET,
            mix: [0.50, 0.40, 0.05, 0.05],
            nominal_ops: 4_000_000,
            top_up_rate: 185_000.0,
        },
        WorkloadDef {
            name: "store_cold",
            path: Path::InProcess,
            memory_budget: COLD_BUDGET,
            mix: [0.80, 0.20, 0.0, 0.0],
            nominal_ops: 2_000_000,
            top_up_rate: 90_000.0,
        },
        WorkloadDef {
            name: "wire_rtt",
            path: Path::Wire {
                window: 1,
                drivers: 1,
            },
            memory_budget: HOT_BUDGET,
            mix: [0.95, 0.05, 0.0, 0.0],
            nominal_ops: 1_000_000,
            top_up_rate: 54_000.0,
        },
        WorkloadDef {
            name: "wire_pipelined",
            path: Path::Wire {
                window: 16,
                drivers: 2,
            },
            memory_budget: HOT_BUDGET,
            mix: [0.30, 0.50, 0.15, 0.05],
            nominal_ops: 1_500_000,
            top_up_rate: 76_000.0,
        },
    ]
}

/// How long a window runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Budget {
    /// A fixed number of ops, so that counters repeat exactly.
    Ops(u64),
    /// Wall-clock seconds on the clock (the driver's `--seconds`).
    Seconds(f64),
}

impl Budget {
    pub fn scaled(self, f: f64) -> Budget {
        match self {
            Budget::Ops(n) => Budget::Ops(((n as f64 * f) as u64).max(1)),
            Budget::Seconds(s) => Budget::Seconds(s * f),
        }
    }

    /// The share of this budget one of `n` driver threads takes.
    pub fn split(self, n: u64) -> Budget {
        match self {
            Budget::Ops(ops) => Budget::Ops((ops / n).max(1)),
            s => s,
        }
    }

    pub fn done(self, ops: u64, elapsed_ns: u64) -> bool {
        match self {
            Budget::Ops(n) => ops >= n,
            Budget::Seconds(s) => elapsed_ns as f64 >= s * 1e9,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Get = 0,
    Put = 1,
    Rmw = 2,
    Scan = 3,
}

pub const KINDS: [Kind; 4] = [Kind::Get, Kind::Put, Kind::Rmw, Kind::Scan];

/// One generated op. `value` is `keys::value_for(id, version, VALUE_LEN)`
/// for writes and empty for reads.
#[derive(Debug, Clone, PartialEq)]
pub struct Op {
    pub kind: Kind,
    pub id: u64,
    pub version: u32,
    pub value: Vec<u8>,
}

/// The op stream of one driver. Driver `lane` of `lanes` only ever touches
/// ids congruent to `lane`, so each key has one writer and "the last
/// version written" is well defined without cross-thread ordering.
#[derive(Debug, Clone)]
pub struct OpStream {
    gen: dcs_workload::OpGenerator,
    lane: u64,
    lanes: u64,
}

impl OpStream {
    pub fn new(def: &WorkloadDef, seed: u64, lane: u64, lanes: u64) -> Self {
        assert!(lane < lanes && RECORDS.is_multiple_of(lanes));
        let [get, put, rmw, scan] = def.mix;
        let spec = dcs_workload::WorkloadSpec {
            record_count: RECORDS,
            key_dist: KeyDist::scrambled_zipfian(0.99),
            mix: OpMix::new(vec![
                (OpKind::Read, get),
                (OpKind::Update, put),
                (OpKind::ReadModifyWrite, rmw),
                (
                    OpKind::Scan {
                        limit: SCAN_LIMIT as u16,
                    },
                    scan,
                ),
            ]),
            value_len: VALUE_LEN,
            seed: seed.wrapping_mul(lanes).wrapping_add(lane),
        };
        OpStream {
            gen: spec.generator(),
            lane,
            lanes,
        }
    }

    pub fn next_op(&mut self) -> Op {
        let Operation {
            kind,
            key_id,
            value,
        } = self.gen.next_op();
        let kind = match kind {
            OpKind::Read => Kind::Get,
            OpKind::Update | OpKind::BlindUpdate | OpKind::Insert => Kind::Put,
            OpKind::ReadModifyWrite => Kind::Rmw,
            OpKind::Scan { .. } => Kind::Scan,
        };
        let version = keys::parse_value(&value).map_or(0, |(_, v)| v);
        if self.lanes == 1 {
            return Op {
                kind,
                id: key_id,
                version,
                value,
            };
        }
        // Move the id onto this driver's lane (RECORDS is a multiple of the
        // lane count, so it stays in range); the payload names its key, so
        // it is rebuilt for the moved id.
        let id = key_id - key_id % self.lanes + self.lane;
        let value = if value.is_empty() {
            value
        } else {
            keys::value_for(id, version, VALUE_LEN)
        };
        Op {
            kind,
            id,
            version,
            value,
        }
    }
}

/// Records a scan from `id` must return.
pub fn scan_expect(id: u64) -> u64 {
    (RECORDS - id).min(SCAN_LIMIT as u64)
}

/// Whether `value` is what key `id` must hold after its writer last wrote
/// `version`. In-process a record is exactly one payload; a served RMW
/// appends its payload to what is stored, so there the newest payload is
/// the trailing one.
pub fn value_ok(value: &[u8], id: u64, version: u32, appended: bool) -> bool {
    let n = value.len();
    n >= VALUE_LEN
        && n.is_multiple_of(VALUE_LEN)
        && (appended || n == VALUE_LEN)
        && value[n - VALUE_LEN..] == keys::value_for(id, version, VALUE_LEN)[..]
}

/// Latencies in nanoseconds, one list per op kind.
pub type Latencies = [Vec<u32>; 4];

/// Length of a time slice on the wire (in-process a slice is one chunk of
/// ops, about as long).
pub const SLICE_NS: u64 = 200_000_000;

/// One slice of a window: how long it took, how many ops completed in it,
/// and the CPU the whole process used meanwhile.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Slice {
    pub ns: u64,
    pub ops: u64,
    pub cpu_ns: u64,
}

/// What one driver thread brings back from a window.
#[derive(Debug, Default)]
pub struct DriverOut {
    /// In completion order until the run sorts them.
    pub lat: Latencies,
    /// Lengths of the four latency lists at the end of each slice.
    pub cuts: Vec<[usize; 4]>,
    /// The slices themselves, where the driver is the one that measures
    /// them (in-process; on the wire the main thread samples the process).
    pub slices: Vec<Slice>,
    pub attempted: u64,
    pub failed: u64,
    /// User key+value bytes of the writes that succeeded.
    pub user_bytes_written: u64,
    /// Nanoseconds this driver spent on the clock.
    pub timed_ns: u64,
    /// Scheduler accounting while this driver was on the clock (in-process
    /// only; see `slices`).
    pub cpu: BTreeMap<&'static str, SchedTimes>,
    /// First failures, for the report.
    pub failure_notes: Vec<String>,
}

impl DriverOut {
    pub fn fail(&mut self, note: impl FnOnce() -> String) {
        self.failed += 1;
        if self.failure_notes.len() < 5 {
            self.failure_notes.push(note());
        }
    }

    /// Close a slice: remember where the latency lists stand.
    pub fn cut(&mut self) {
        self.cuts.push(std::array::from_fn(|k| self.lat[k].len()));
    }
}

/// Throughput of each fifth of the window's slices: (max − min) ÷ median.
/// Says whether the window was steady.
pub fn window_spread(slices: &[Slice]) -> f64 {
    const PARTS: usize = 5;
    let per_part: Vec<f64> = (0..PARTS)
        .map(|i| &slices[slices.len() * i / PARTS..slices.len() * (i + 1) / PARTS])
        .filter(|part| !part.is_empty())
        .map(|part| {
            let (ops, ns) = part.iter().fold((0, 0), |(o, n), s| (o + s.ops, n + s.ns));
            ops as f64 / ns.max(1) as f64
        })
        .collect();
    crate::stats::range_spread(&per_part).unwrap_or(0.0)
}

/// Load every record at version 0, straight into a store.
pub fn load_store(store: &CachingStore, ids: impl Iterator<Item = u64>) {
    for id in ids {
        store.put(keys::encode(id).to_vec(), keys::value_for(id, 0, VALUE_LEN));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_lanes_are_disjoint() {
        let defs = workloads();
        let mut a = OpStream::new(&defs[0], 42, 0, 1);
        let mut b = OpStream::new(&defs[0], 42, 0, 1);
        let mut c = OpStream::new(&defs[0], 43, 0, 1);
        let (mut same, mut kinds) = (0, [0u32; 4]);
        for _ in 0..20_000 {
            let op = a.next_op();
            assert_eq!(op, b.next_op());
            same += u32::from(op == c.next_op());
            kinds[op.kind as usize] += 1;
            assert!(op.id < RECORDS);
            if matches!(op.kind, Kind::Put | Kind::Rmw) {
                assert_eq!(op.value, keys::value_for(op.id, op.version, VALUE_LEN));
            } else {
                assert!(op.value.is_empty());
            }
        }
        assert!(same < 2_000, "another seed gives another stream");
        // 50/40/5/5 within a point or so.
        assert!((9_500..10_500).contains(&kinds[0]), "{kinds:?}");
        assert!((7_600..8_400).contains(&kinds[1]), "{kinds:?}");
        assert!(kinds[2] > 700 && kinds[3] > 700, "{kinds:?}");

        for lane in 0..2 {
            let mut s = OpStream::new(&defs[3], 7, lane, 2);
            for _ in 0..5_000 {
                let op = s.next_op();
                assert_eq!(op.id % 2, lane);
                assert!(op.id < RECORDS);
                if !op.value.is_empty() {
                    assert_eq!(keys::parse_value(&op.value), Some((op.id, op.version)));
                }
            }
        }
    }

    #[test]
    fn value_check_accepts_only_the_newest_payload() {
        let v3 = keys::value_for(9, 3, VALUE_LEN);
        let v4 = keys::value_for(9, 4, VALUE_LEN);
        assert!(value_ok(&v3, 9, 3, false));
        assert!(!value_ok(&v3, 9, 4, false));
        assert!(!value_ok(&v3, 8, 3, false));
        let appended = [v3.clone(), v4].concat();
        assert!(value_ok(&appended, 9, 4, true));
        assert!(!value_ok(&appended, 9, 3, true));
        assert!(!value_ok(&appended, 9, 4, false));
        assert!(!value_ok(&appended[..150], 9, 4, true));
        assert!(!value_ok(&[], 9, 0, true));
    }

    #[test]
    fn window_spread_of_a_steady_and_a_stalled_run() {
        let slice = |ops| Slice {
            ns: 100,
            ops,
            cpu_ns: 0,
        };
        assert!(window_spread(&[slice(1000); 10]) < 1e-9);
        // Nothing completes in the last fifth.
        let mut stalled = vec![slice(1000); 8];
        stalled.extend([slice(0); 2]);
        assert!(window_spread(&stalled) > 0.9);
        assert_eq!(window_spread(&[]), 0.0);
    }

    #[test]
    fn budgets() {
        assert!(Budget::Ops(10).done(10, 0));
        assert!(!Budget::Ops(10).done(9, u64::MAX));
        assert!(Budget::Seconds(1.0).done(0, 1_000_000_000));
        assert_eq!(Budget::Ops(100).scaled(0.25), Budget::Ops(25));
        assert_eq!(Budget::Ops(100).split(2), Budget::Ops(50));
        assert_eq!(Budget::Seconds(2.0).split(2), Budget::Seconds(2.0));
    }
}
