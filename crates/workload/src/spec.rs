//! Workload specifications and the operation generator.

use crate::dist::{KeyDist, KeySampler};
use crate::keys;
use crate::mix::{OpKind, OpMix, Operation};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A complete, declarative description of a workload.
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    /// Number of records loaded before the run.
    pub record_count: u64,
    /// Key-access distribution.
    pub key_dist: KeyDist,
    /// Operation mix.
    pub mix: OpMix,
    /// Value payload size in bytes.
    pub value_len: usize,
    /// Seed for all randomness in the run.
    pub seed: u64,
}

impl WorkloadSpec {
    /// A read-only uniform spec, the baseline configuration of the paper's
    /// ROPS measurement.
    pub fn read_only_uniform(record_count: u64, value_len: usize, seed: u64) -> Self {
        WorkloadSpec {
            record_count,
            key_dist: KeyDist::Uniform,
            mix: OpMix::read_only(),
            value_len,
            seed,
        }
    }

    /// The YCSB core workloads over a zipfian(0.99) key distribution.
    ///
    /// A: 50/50 read/update · B: 95/5 read/update · C: read-only ·
    /// D: 95/5 read/insert over the *latest* distribution ·
    /// E: 95/5 scan(100)/insert · F: 50/50 read/read-modify-write.
    pub fn ycsb(workload: char, record_count: u64, value_len: usize, seed: u64) -> Self {
        use crate::mix::OpKind;
        let (key_dist, mix) = match workload.to_ascii_lowercase() {
            'a' => (KeyDist::zipfian(0.99), OpMix::ycsb_a()),
            'b' => (KeyDist::zipfian(0.99), OpMix::ycsb_b()),
            'c' => (KeyDist::zipfian(0.99), OpMix::read_only()),
            'd' => (
                KeyDist::Latest { theta: 0.99 },
                OpMix::new(vec![(OpKind::Read, 0.95), (OpKind::Insert, 0.05)]),
            ),
            'e' => (
                KeyDist::zipfian(0.99),
                OpMix::new(vec![
                    (OpKind::Scan { limit: 100 }, 0.95),
                    (OpKind::Insert, 0.05),
                ]),
            ),
            'f' => (
                KeyDist::zipfian(0.99),
                OpMix::new(vec![(OpKind::Read, 0.5), (OpKind::ReadModifyWrite, 0.5)]),
            ),
            other => panic!("unknown YCSB workload '{other}' (a-f)"),
        };
        WorkloadSpec {
            record_count,
            key_dist,
            mix,
            value_len,
            seed,
        }
    }

    /// Create the stateful generator.
    pub fn generator(&self) -> OpGenerator {
        OpGenerator {
            sampler: self.key_dist.sampler(self.record_count, self.seed),
            mix: self.mix.clone(),
            value_len: self.value_len,
            rng: SmallRng::seed_from_u64(self.seed ^ 0x5DEE_CE66),
            next_insert_id: self.record_count,
            versions_issued: 0,
        }
    }

    /// Iterate over the initial load set: `(key, value)` pairs for ids
    /// `0..record_count` at version 0.
    pub fn load_set(&self) -> impl Iterator<Item = (Vec<u8>, Vec<u8>)> + '_ {
        let len = self.value_len;
        (0..self.record_count)
            .map(move |id| (keys::encode(id).to_vec(), keys::value_for(id, 0, len)))
    }
}

/// Stateful operation stream for a [`WorkloadSpec`].
#[derive(Debug, Clone)]
pub struct OpGenerator {
    sampler: KeySampler,
    mix: OpMix,
    value_len: usize,
    rng: SmallRng,
    next_insert_id: u64,
    versions_issued: u32,
}

impl OpGenerator {
    /// Produce the next operation.
    pub fn next_op(&mut self) -> Operation {
        let kind = self.mix.pick(self.rng.gen());
        match kind {
            OpKind::Insert => {
                let id = self.next_insert_id;
                self.next_insert_id += 1;
                self.sampler.grow(self.next_insert_id);
                self.versions_issued += 1;
                Operation {
                    kind,
                    key_id: id,
                    value: keys::value_for(id, 0, self.value_len),
                }
            }
            OpKind::Update | OpKind::BlindUpdate | OpKind::ReadModifyWrite => {
                let id = self.sampler.next_key();
                self.versions_issued += 1;
                Operation {
                    kind,
                    key_id: id,
                    value: keys::value_for(id, self.versions_issued, self.value_len),
                }
            }
            OpKind::Read | OpKind::Scan { .. } => Operation {
                kind,
                key_id: self.sampler.next_key(),
                value: Vec::new(),
            },
        }
    }

    /// The current key-space size (grows with inserts).
    pub fn key_space(&self) -> u64 {
        self.sampler.key_space()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_set_is_complete_and_versioned() {
        let spec = WorkloadSpec::read_only_uniform(100, 64, 1);
        let pairs: Vec<_> = spec.load_set().collect();
        assert_eq!(pairs.len(), 100);
        for (i, (k, v)) in pairs.iter().enumerate() {
            assert_eq!(keys::decode(k), Some(i as u64));
            assert_eq!(keys::parse_value(v), Some((i as u64, 0)));
        }
    }

    #[test]
    fn generator_is_deterministic() {
        let spec = WorkloadSpec {
            record_count: 1000,
            key_dist: KeyDist::zipfian(0.9),
            mix: OpMix::ycsb_a(),
            value_len: 32,
            seed: 77,
        };
        let mut a = spec.generator();
        let mut b = spec.generator();
        for _ in 0..500 {
            assert_eq!(a.next_op(), b.next_op());
        }
    }

    #[test]
    fn inserts_extend_key_space() {
        let spec = WorkloadSpec {
            record_count: 10,
            key_dist: KeyDist::Uniform,
            mix: OpMix::new(vec![(OpKind::Insert, 1.0)]),
            value_len: 16,
            seed: 3,
        };
        let mut g = spec.generator();
        for expect in 10..20 {
            let op = g.next_op();
            assert_eq!(op.key_id, expect);
        }
        assert_eq!(g.key_space(), 20);
    }

    #[test]
    fn reads_have_empty_values() {
        let spec = WorkloadSpec::read_only_uniform(10, 64, 1);
        let mut g = spec.generator();
        for _ in 0..100 {
            let op = g.next_op();
            assert_eq!(op.kind, OpKind::Read);
            assert!(op.value.is_empty());
        }
    }

    #[test]
    fn updates_carry_fresh_versions() {
        let spec = WorkloadSpec {
            record_count: 5,
            key_dist: KeyDist::Uniform,
            mix: OpMix::new(vec![(OpKind::Update, 1.0)]),
            value_len: 20,
            seed: 8,
        };
        let mut g = spec.generator();
        let mut versions = std::collections::HashSet::new();
        for _ in 0..50 {
            let op = g.next_op();
            let (_, ver) = keys::parse_value(&op.value).unwrap();
            assert!(versions.insert(ver), "version {ver} reused");
        }
    }
}
