//! Operation mixes.

/// The kinds of operation a workload can issue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Point read of an existing key.
    Read,
    /// Full-record overwrite of an existing key (read-free at the store if
    /// the store supports blind updates).
    Update,
    /// Insert of a new key at the top of the id space.
    Insert,
    /// An explicitly blind update: the caller asserts it does not depend on
    /// the prior record state (§6.2 of the paper).
    BlindUpdate,
    /// Read, modify, write back.
    ReadModifyWrite,
    /// Short range scan starting at the key.
    Scan {
        /// Maximum records returned.
        limit: u16,
    },
}

/// A weighted blend of operation kinds.
///
/// Weights are relative; they need not sum to 1.
#[derive(Debug, Clone, PartialEq)]
pub struct OpMix {
    weights: Vec<(OpKind, f64)>,
}

impl OpMix {
    /// Build from `(kind, weight)` pairs.
    ///
    /// # Panics
    /// Panics if all weights are zero/negative or the list is empty.
    pub fn new(weights: Vec<(OpKind, f64)>) -> Self {
        let total: f64 = weights.iter().map(|(_, w)| w.max(0.0)).sum();
        assert!(total > 0.0, "op mix needs positive total weight");
        OpMix { weights }
    }

    /// 100 % reads (YCSB C).
    pub fn read_only() -> Self {
        OpMix::new(vec![(OpKind::Read, 1.0)])
    }

    /// 50 % reads / 50 % updates (YCSB A).
    pub fn ycsb_a() -> Self {
        OpMix::new(vec![(OpKind::Read, 0.5), (OpKind::Update, 0.5)])
    }

    /// 95 % reads / 5 % updates (YCSB B).
    pub fn ycsb_b() -> Self {
        OpMix::new(vec![(OpKind::Read, 0.95), (OpKind::Update, 0.05)])
    }

    /// 100 % updates — the blind-update stress of §6.2.
    pub fn blind_update_only() -> Self {
        OpMix::new(vec![(OpKind::BlindUpdate, 1.0)])
    }

    /// Pick a kind given a uniform sample in [0,1).
    pub fn pick(&self, u: f64) -> OpKind {
        let total: f64 = self.weights.iter().map(|(_, w)| w.max(0.0)).sum();
        let mut target = u.clamp(0.0, 1.0) * total;
        for &(kind, w) in &self.weights {
            let w = w.max(0.0);
            if target < w {
                return kind;
            }
            target -= w;
        }
        self.weights.last().expect("non-empty").0
    }

    /// The fraction of operations that are updates of any flavour.
    pub fn update_fraction(&self) -> f64 {
        let total: f64 = self.weights.iter().map(|(_, w)| w.max(0.0)).sum();
        let upd: f64 = self
            .weights
            .iter()
            .filter(|(k, _)| {
                matches!(
                    k,
                    OpKind::Update | OpKind::Insert | OpKind::BlindUpdate | OpKind::ReadModifyWrite
                )
            })
            .map(|(_, w)| w.max(0.0))
            .sum();
        upd / total
    }
}

/// One generated operation.
#[derive(Debug, Clone, PartialEq)]
pub struct Operation {
    /// What to do.
    pub kind: OpKind,
    /// Target key id (for `Insert`, the id of the new record).
    pub key_id: u64,
    /// Value payload for writes (empty for reads/scans).
    pub value: Vec<u8>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pick_is_proportional() {
        let mix = OpMix::ycsb_b();
        let mut reads = 0;
        let n = 100_000;
        for i in 0..n {
            if mix.pick(i as f64 / n as f64) == OpKind::Read {
                reads += 1;
            }
        }
        let frac = reads as f64 / n as f64;
        assert!((frac - 0.95).abs() < 0.01, "read fraction {frac}");
    }

    #[test]
    fn pick_edges() {
        let mix = OpMix::ycsb_a();
        assert_eq!(mix.pick(0.0), OpKind::Read);
        assert_eq!(mix.pick(0.999_999), OpKind::Update);
        // Out-of-range inputs are clamped, not panicking.
        let _ = mix.pick(-1.0);
        let _ = mix.pick(2.0);
    }

    #[test]
    fn update_fraction_counts_all_writes() {
        let mix = OpMix::new(vec![
            (OpKind::Read, 0.4),
            (OpKind::Update, 0.2),
            (OpKind::BlindUpdate, 0.2),
            (OpKind::Insert, 0.2),
        ]);
        assert!((mix.update_fraction() - 0.6).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive total weight")]
    fn zero_weights_panic() {
        let _ = OpMix::new(vec![(OpKind::Read, 0.0)]);
    }

    #[test]
    fn unnormalized_weights_ok() {
        let mix = OpMix::new(vec![(OpKind::Read, 3.0), (OpKind::Update, 1.0)]);
        let reads = (0..1000)
            .filter(|i| mix.pick(*i as f64 / 1000.0) == OpKind::Read)
            .count();
        assert!((reads as f64 / 1000.0 - 0.75).abs() < 0.01);
    }
}
