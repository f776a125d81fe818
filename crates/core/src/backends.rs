//! [`dcs_workload::KvStore`] adapters for every store in the workspace, so
//! one workload driver can exercise them all. The comparator stores are
//! wrapped in newtypes (`KvStore` and the stores live in different
//! crates).

use crate::store::{CachingStore, StoreBuilder, SubmittedGet};
use bytes::Bytes;
use dcs_bwtree::BwTree;
use dcs_lsm::{LsmConfig, LsmGet, LsmTree};
use dcs_masstree::MassTree;
use dcs_workload::{AsyncGet, AsyncKvStore, CompletedGet, KvStore, StoreFailure};
use std::sync::Arc;

/// The serveable store families, by name. This is the single place that
/// knows how to construct a workload-ready instance of each store, so the
/// serving layer, benches, and tests all build backends the same way.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// The paper's cost-governed caching store (`dcs-core`).
    Caching,
    /// The Masstree comparator.
    MassTree,
    /// The LSM comparator over the flash simulator.
    Lsm,
}

impl BackendKind {
    /// All kinds, for enumeration in benches and CI matrices.
    pub const ALL: [BackendKind; 3] = [
        BackendKind::Caching,
        BackendKind::MassTree,
        BackendKind::Lsm,
    ];

    /// Parse a CLI name (`caching`, `masstree`, `lsm`).
    pub fn parse(name: &str) -> Option<BackendKind> {
        match name.to_ascii_lowercase().as_str() {
            "caching" => Some(BackendKind::Caching),
            "masstree" => Some(BackendKind::MassTree),
            "lsm" => Some(BackendKind::Lsm),
            _ => None,
        }
    }

    /// The canonical CLI name.
    pub fn name(&self) -> &'static str {
        match self {
            BackendKind::Caching => "caching",
            BackendKind::MassTree => "masstree",
            BackendKind::Lsm => "lsm",
        }
    }

    /// Build one instance (test-scale configuration), returning both the
    /// blocking handle and (for the flash-backed stores) the asynchronous
    /// submit/poll handle.
    pub fn build_with(&self, opts: BackendOpts) -> BuiltBackend {
        let device_config = |mut c: dcs_flashsim::DeviceConfig| {
            c.segment_count = 1024;
            c.wall_read_latency = opts.wall_read_latency;
            c
        };
        match self {
            BackendKind::Caching => {
                let mut b = StoreBuilder::small_test();
                b.device = device_config(b.device);
                if let Some(budget) = opts.memory_budget {
                    b.memory_budget = budget;
                }
                let store = Arc::new(b.build());
                BuiltBackend {
                    kv: store.clone(),
                    device: Some(store.device().clone()),
                    async_kv: Some(store),
                }
            }
            BackendKind::MassTree => {
                let t = Arc::new(MassTreeBackend(MassTree::new()));
                BuiltBackend {
                    kv: t,
                    async_kv: None,
                    device: None,
                }
            }
            BackendKind::Lsm => {
                let t = Arc::new(LsmBackend(LsmTree::new(
                    Arc::new(dcs_flashsim::FlashDevice::new(device_config(
                        dcs_flashsim::DeviceConfig::small_test(),
                    ))),
                    LsmConfig::default(),
                )));
                BuiltBackend {
                    kv: t.clone(),
                    device: Some(t.0.device().clone()),
                    async_kv: Some(t),
                }
            }
        }
    }

    /// Build `n` independent instances — one per shard of a shared-nothing
    /// serving layer (each owns a disjoint key range, so they never share
    /// state).
    pub fn build_shards_with(&self, n: usize, opts: BackendOpts) -> Vec<BuiltBackend> {
        (0..n).map(|_| self.build_with(opts)).collect()
    }
}

/// Construction options for [`BackendKind::build_with`].
#[derive(Debug, Clone, Copy, Default)]
pub struct BackendOpts {
    /// Override the caching store's in-memory budget (bytes). `None` keeps
    /// the test-scale default.
    pub memory_budget: Option<usize>,
    /// Wall-clock nanoseconds each device read takes to become visible
    /// (injected device latency; virtual-clock accounting is unchanged).
    pub wall_read_latency: u64,
}

/// A constructed backend: the blocking [`KvStore`] handle plus, where the
/// store supports it, the non-blocking [`AsyncKvStore`] handle over the
/// same instance. Two fields because the traits are still two
/// (ROADMAP item 4) and `benchmark/` names both fields.
pub struct BuiltBackend {
    /// Blocking operations (always available).
    pub kv: Arc<dyn KvStore + Send + Sync>,
    /// Submit/poll point reads, when the backend implements them.
    pub async_kv: Option<Arc<dyn AsyncKvStore + Send + Sync>>,
    /// The simulated flash device under the store, when there is one —
    /// lets harnesses read [`dcs_flashsim::DeviceStats`] (achieved I/O
    /// depth, submit charges) without knowing the concrete store type.
    pub device: Option<Arc<dcs_flashsim::FlashDevice>>,
}

/// Workload adapter for a [`BwTree`].
pub struct BwTreeBackend(pub BwTree);

/// Workload adapter for a [`MassTree`].
pub struct MassTreeBackend(pub MassTree);

/// Workload adapter for an [`LsmTree`].
pub struct LsmBackend(pub LsmTree);

impl KvStore for CachingStore {
    fn kv_get(&self, key: &[u8]) -> Result<Option<Vec<u8>>, StoreFailure> {
        self.try_get(key)
            .map(|v| v.map(|b| b.to_vec()))
            .map_err(|e| StoreFailure(e.to_string()))
    }

    fn kv_put(&self, key: Vec<u8>, value: Vec<u8>) -> Result<(), StoreFailure> {
        self.put(key, value);
        Ok(())
    }

    fn kv_delete(&self, key: Vec<u8>) -> Result<(), StoreFailure> {
        self.delete(key);
        Ok(())
    }

    fn kv_scan(&self, start: &[u8], limit: usize) -> Result<usize, StoreFailure> {
        // Count without materializing: scans only report how many records
        // they produced, so collecting the key/value pairs first was pure
        // allocation overhead.
        self.tree()
            .range(start, None)
            .take(limit)
            .try_fold(0, |n, r| {
                r.map(|_| n + 1).map_err(|e| StoreFailure(e.to_string()))
            })
    }

    fn kv_blind_update(&self, key: Vec<u8>, value: Vec<u8>) -> Result<(), StoreFailure> {
        self.blind_update(key, value);
        Ok(())
    }

    fn kv_range(
        &self,
        start: &[u8],
        end: Option<&[u8]>,
        limit: usize,
        visit: &mut dyn FnMut(&[u8], &[u8]),
    ) -> Result<usize, StoreFailure> {
        self.tree()
            .range(start, end)
            .take(limit)
            .try_fold(0, |n, r| match r {
                Ok((k, v)) => {
                    visit(&k, &v);
                    Ok(n + 1)
                }
                Err(e) => Err(StoreFailure(e.to_string())),
            })
    }
}

impl KvStore for BwTreeBackend {
    fn kv_get(&self, key: &[u8]) -> Result<Option<Vec<u8>>, StoreFailure> {
        self.0
            .try_get(key)
            .map(|v| v.map(|b| b.to_vec()))
            .map_err(|e| StoreFailure(e.to_string()))
    }

    fn kv_put(&self, key: Vec<u8>, value: Vec<u8>) -> Result<(), StoreFailure> {
        self.0.put(key, value);
        Ok(())
    }

    fn kv_delete(&self, key: Vec<u8>) -> Result<(), StoreFailure> {
        self.0.delete(key);
        Ok(())
    }

    fn kv_scan(&self, start: &[u8], limit: usize) -> Result<usize, StoreFailure> {
        self.0.range(start, None).take(limit).try_fold(0, |n, r| {
            r.map(|_| n + 1).map_err(|e| StoreFailure(e.to_string()))
        })
    }

    fn kv_blind_update(&self, key: Vec<u8>, value: Vec<u8>) -> Result<(), StoreFailure> {
        self.0.blind_update(key, value);
        Ok(())
    }

    fn kv_range(
        &self,
        start: &[u8],
        end: Option<&[u8]>,
        limit: usize,
        visit: &mut dyn FnMut(&[u8], &[u8]),
    ) -> Result<usize, StoreFailure> {
        self.0
            .range(start, end)
            .take(limit)
            .try_fold(0, |n, r| match r {
                Ok((k, v)) => {
                    visit(&k, &v);
                    Ok(n + 1)
                }
                Err(e) => Err(StoreFailure(e.to_string())),
            })
    }
}

impl KvStore for MassTreeBackend {
    fn kv_get(&self, key: &[u8]) -> Result<Option<Vec<u8>>, StoreFailure> {
        Ok(self.0.get(key).map(|b| b.to_vec()))
    }

    fn kv_put(&self, key: Vec<u8>, value: Vec<u8>) -> Result<(), StoreFailure> {
        self.0.insert(Bytes::from(key), Bytes::from(value));
        Ok(())
    }

    fn kv_delete(&self, key: Vec<u8>) -> Result<(), StoreFailure> {
        self.0.remove(&key);
        Ok(())
    }

    fn kv_scan(&self, start: &[u8], limit: usize) -> Result<usize, StoreFailure> {
        Ok(self.0.scan_limited(start, None, limit).len())
    }

    fn kv_range(
        &self,
        start: &[u8],
        end: Option<&[u8]>,
        limit: usize,
        visit: &mut dyn FnMut(&[u8], &[u8]),
    ) -> Result<usize, StoreFailure> {
        let pairs = self.0.scan_limited(start, end, limit);
        for (k, v) in &pairs {
            visit(k, v);
        }
        Ok(pairs.len())
    }
}

impl KvStore for LsmBackend {
    fn kv_get(&self, key: &[u8]) -> Result<Option<Vec<u8>>, StoreFailure> {
        self.0
            .get(key)
            .map(|v| v.map(|b| b.to_vec()))
            .map_err(|e| StoreFailure(e.to_string()))
    }

    fn kv_put(&self, key: Vec<u8>, value: Vec<u8>) -> Result<(), StoreFailure> {
        self.0
            .put(key, value)
            .map_err(|e| StoreFailure(e.to_string()))
    }

    fn kv_delete(&self, key: Vec<u8>) -> Result<(), StoreFailure> {
        self.0.delete(key).map_err(|e| StoreFailure(e.to_string()))
    }

    fn kv_scan(&self, start: &[u8], limit: usize) -> Result<usize, StoreFailure> {
        Ok(self
            .0
            .scan_limited(start, limit)
            .map_err(|e| StoreFailure(e.to_string()))?
            .len())
    }

    fn kv_range(
        &self,
        start: &[u8],
        end: Option<&[u8]>,
        limit: usize,
        visit: &mut dyn FnMut(&[u8], &[u8]),
    ) -> Result<usize, StoreFailure> {
        // The LSM scan has no end bound; entries are sorted, so cutting at
        // `end` after the fact yields the same set.
        let pairs = self
            .0
            .scan_limited(start, limit)
            .map_err(|e| StoreFailure(e.to_string()))?;
        let mut n = 0;
        for (k, v) in &pairs {
            if end.is_some_and(|e| k.as_ref() >= e) {
                break;
            }
            visit(k, v);
            n += 1;
        }
        Ok(n)
    }
}

fn vecify(
    v: Result<Option<Bytes>, impl std::fmt::Display>,
) -> Result<Option<Vec<u8>>, StoreFailure> {
    v.map(|o| o.map(|b| b.to_vec()))
        .map_err(|e| StoreFailure(e.to_string()))
}

impl AsyncKvStore for CachingStore {
    fn kv_get_submit(&self, key: &[u8]) -> Result<AsyncGet, StoreFailure> {
        match self
            .get_submit(key)
            .map_err(|e| StoreFailure(e.to_string()))?
        {
            SubmittedGet::Ready(v) => Ok(AsyncGet::Ready(v.map(|b| b.to_vec()))),
            SubmittedGet::Pending(token) => Ok(AsyncGet::Pending(token)),
        }
    }

    fn kv_poll(&self, out: &mut Vec<CompletedGet>) -> usize {
        let mut finished = Vec::new();
        let n = self.poll_gets(&mut finished);
        out.extend(finished.into_iter().map(|g| CompletedGet {
            token: g.token,
            result: vecify(g.result),
        }));
        n
    }

    fn kv_inflight(&self) -> usize {
        self.gets_inflight()
    }
}

impl AsyncKvStore for LsmBackend {
    fn kv_get_submit(&self, key: &[u8]) -> Result<AsyncGet, StoreFailure> {
        match self
            .0
            .get_submit(key)
            .map_err(|e| StoreFailure(e.to_string()))?
        {
            LsmGet::Ready(v) => Ok(AsyncGet::Ready(v.map(|b| b.to_vec()))),
            LsmGet::Pending(token) => Ok(AsyncGet::Pending(token)),
        }
    }

    fn kv_poll(&self, out: &mut Vec<CompletedGet>) -> usize {
        let mut finished = Vec::new();
        let n = self.0.poll_gets(&mut finished);
        out.extend(finished.into_iter().map(|g| CompletedGet {
            token: g.token,
            result: vecify(g.result),
        }));
        n
    }

    fn kv_inflight(&self) -> usize {
        self.0.gets_inflight()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StoreBuilder;
    use dcs_bwtree::BwTreeConfig;
    use dcs_flashsim::{DeviceConfig, FlashDevice};
    use dcs_lsm::LsmConfig;
    use dcs_workload::{Runner, WorkloadSpec};
    use std::sync::Arc;

    fn assert_runs<S: KvStore>(store: &S, workload: char) {
        let spec = WorkloadSpec::ycsb(workload, 300, 32, 7);
        let runner = Runner::new(spec);
        runner.load(store).unwrap();
        let counts = runner.run(store, 1_500).unwrap();
        assert_eq!(counts.total(), 1_500, "workload {workload}");
        // Zipfian reads over loaded keys should overwhelmingly hit.
        if counts.reads > 0 {
            assert!(
                counts.read_hits as f64 / counts.reads as f64 > 0.95,
                "workload {workload}: {} hits of {}",
                counts.read_hits,
                counts.reads
            );
        }
    }

    #[test]
    fn async_handles_agree_with_blocking_path() {
        for kind in BackendKind::ALL {
            let built = kind.build_with(BackendOpts::default());
            // The in-memory tree never touches a device on a read and has
            // no submit/poll handle: the shard serves it blocking.
            let Some(a) = built.async_kv.as_ref() else {
                assert!(built.device.is_none(), "{}", kind.name());
                continue;
            };
            for i in 0..500u32 {
                built
                    .kv
                    .kv_put(
                        format!("k{i:05}").into_bytes(),
                        format!("v{i}").into_bytes(),
                    )
                    .unwrap();
            }
            let mut out = Vec::new();
            for i in (0..600u32).step_by(7) {
                let key = format!("k{i:05}").into_bytes();
                let expected = built.kv.kv_get(&key).unwrap();
                match a.kv_get_submit(&key).unwrap() {
                    dcs_workload::AsyncGet::Ready(v) => {
                        assert_eq!(v, expected, "{}: key {i}", kind.name())
                    }
                    dcs_workload::AsyncGet::Pending(token) => {
                        out.clear();
                        while a.kv_inflight() > 0 {
                            a.kv_poll(&mut out);
                        }
                        let f = out.iter().find(|f| f.token == token).expect("completed");
                        assert_eq!(
                            f.result.clone().unwrap(),
                            expected,
                            "{}: key {i}",
                            kind.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn kv_range_enumerates_bounded_ascending_on_every_backend() {
        for kind in BackendKind::ALL {
            let built = kind.build_with(BackendOpts::default());
            for i in 0..50u32 {
                built
                    .kv
                    .kv_put(
                        format!("k{i:03}").into_bytes(),
                        format!("v{i}").into_bytes(),
                    )
                    .unwrap();
            }
            let mut got = Vec::new();
            let n = built
                .kv
                .kv_range(b"k010", Some(b"k020"), usize::MAX, &mut |k, v| {
                    got.push((k.to_vec(), v.to_vec()))
                })
                .unwrap();
            assert_eq!(n, 10, "{}", kind.name());
            assert_eq!(got.first().unwrap().0, b"k010".to_vec(), "{}", kind.name());
            assert_eq!(got.last().unwrap().0, b"k019".to_vec(), "{}", kind.name());
            assert_eq!(got.first().unwrap().1, b"v10".to_vec(), "{}", kind.name());
            assert!(
                got.windows(2).all(|w| w[0].0 < w[1].0),
                "{}: ascending, no duplicates",
                kind.name()
            );
            let m = built.kv.kv_range(b"", None, 7, &mut |_, _| {}).unwrap();
            assert_eq!(m, 7, "{}: limit respected", kind.name());
        }
    }

    #[test]
    fn all_backends_run_all_ycsb_workloads() {
        for w in ['a', 'b', 'c', 'd', 'e', 'f'] {
            let caching = StoreBuilder::small_test().build();
            assert_runs(&caching, w);

            let bw = BwTreeBackend(BwTree::in_memory(BwTreeConfig::small_pages()));
            assert_runs(&bw, w);

            let mt = MassTreeBackend(MassTree::new());
            assert_runs(&mt, w);

            let lsm = LsmBackend(LsmTree::new(
                Arc::new(FlashDevice::new(DeviceConfig {
                    segment_count: 1024,
                    ..DeviceConfig::small_test()
                })),
                LsmConfig::default(),
            ));
            assert_runs(&lsm, w);
        }
    }
}
