//! Marginal cost-per-byte from a measured miss-ratio curve.
//!
//! The paper's breakeven rule (Equation 6) prices one *page* by its
//! individual access interval. A miss-ratio curve prices the *next byte
//! of budget* for a whole consumer: if growing a cache from `b` to `b'`
//! bytes drops the miss ratio from `m` to `m'`, the saved execution rent
//! is `A · (m − m') · ($SS − $MM)` for access rate `A` — every converted
//! miss stops paying the SS execution premium — and the added storage
//! rent is `(b' − b) · $M`. The cache should grow while the former
//! exceeds the latter; dividing both by `Δbytes` gives a *marginal value
//! per byte* directly comparable to the DRAM price per byte, which is
//! how "Breaking Down Memory Walls" (PAPERS.md) arbitrates memory
//! between consumers.
//!
//! All quantities stay in the paper's §3 algebra: dollars of
//! infrastructure with the common lifetime factor `1/L` dropped, so
//! `access_rate` must be in the same sustained ops/s the execution
//! rents (`$P/ROPS`-style) are quoted against. Only relative prices
//! matter, exactly as in the rest of the crate.

use crate::catalog::HardwareCatalog;

/// One input point of a measured miss-ratio curve: at a cache budget of
/// `bytes`, the consumer misses `miss_ratio` of its accesses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MrcCurvePoint {
    /// Cache budget in bytes.
    pub bytes: f64,
    /// Miss ratio in `[0, 1]` at that budget.
    pub miss_ratio: f64,
}

/// The priced interval between two adjacent curve points.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MarginalPoint {
    /// Budget at the *upper* end of the interval.
    pub bytes: f64,
    /// Miss ratio at the upper end of the interval.
    pub miss_ratio: f64,
    /// Execution rent saved per extra byte across this interval:
    /// `A · Δmiss · ($SS − $MM) / Δbytes`.
    pub marginal_value_per_byte: f64,
    /// What the extra byte costs: the DRAM price `$M`.
    pub dram_price_per_byte: f64,
}

impl MarginalPoint {
    /// Net benefit per byte: positive means the next byte of DRAM pays
    /// for itself.
    pub fn net_per_byte(&self) -> f64 {
        self.marginal_value_per_byte - self.dram_price_per_byte
    }
}

/// Price every interval of a miss-ratio curve.
///
/// `curve` must be sorted by `bytes` ascending (as MRC snapshots are);
/// zero-width intervals are skipped. Returns one [`MarginalPoint`] per
/// interval, labelled with the interval's upper budget.
pub fn marginal_curve(
    hw: &HardwareCatalog,
    access_rate: f64,
    curve: &[MrcCurvePoint],
) -> Vec<MarginalPoint> {
    let premium = hw.ss_exec_cost() - hw.mm_exec_cost();
    let mut out = Vec::new();
    for pair in curve.windows(2) {
        let (lo, hi) = (pair[0], pair[1]);
        let dbytes = hi.bytes - lo.bytes;
        if dbytes <= 0.0 {
            continue;
        }
        // Monotone non-increasing curves make this non-negative; a noisy
        // estimate can locally invert, which prices as zero value rather
        // than negative (shrinking the cache is priced by the *other*
        // side of the interval).
        let dmiss = (lo.miss_ratio - hi.miss_ratio).max(0.0);
        out.push(MarginalPoint {
            bytes: hi.bytes,
            miss_ratio: hi.miss_ratio,
            marginal_value_per_byte: access_rate * dmiss * premium / dbytes,
            dram_price_per_byte: hw.dram_per_byte,
        });
    }
    out
}

/// Price the marginal byte *at* a given budget: the curve interval
/// containing `budget_bytes` (the first interval whose upper end reaches
/// it, or the last interval when the budget lies past the curve).
/// Returns `None` for curves with fewer than two distinct points.
pub fn marginal_at(
    hw: &HardwareCatalog,
    access_rate: f64,
    curve: &[MrcCurvePoint],
    budget_bytes: f64,
) -> Option<MarginalPoint> {
    let priced = marginal_curve(hw, access_rate, curve);
    priced
        .iter()
        .find(|p| p.bytes >= budget_bytes)
        .or(priced.last())
        .copied()
}

/// The largest curve budget whose marginal byte still pays for itself —
/// where the measured curve says this consumer's cache should stop
/// growing. Returns the curve's smallest budget when no interval breaks
/// even.
pub fn recommended_bytes(hw: &HardwareCatalog, access_rate: f64, curve: &[MrcCurvePoint]) -> f64 {
    let floor = curve.first().map_or(0.0, |p| p.bytes);
    marginal_curve(hw, access_rate, curve)
        .iter()
        .filter(|p| p.net_per_byte() >= 0.0)
        .map(|p| p.bytes)
        .fold(floor, f64::max)
}

/// Analytic miss ratio for a Zipf(θ) popularity law when the `cached`
/// hottest of `records` equally-sized items are resident: the tail mass
/// `1 − Σ_{i≤c} i^{−θ} / Σ_{i≤K} i^{−θ}`, with the partial sums taken in
/// closed form (`(x^{1−θ} − 1)/(1 − θ)`, or `ln x` at θ = 1). This is
/// the frequency-optimal placement the paper's record-cache argument
/// assumes, so it lower-bounds what an LRU-ish cache can measure; the
/// gap between this prediction and the live SHARDS curve is the figure.
pub fn zipf_miss_ratio(theta: f64, records: f64, cached: f64) -> f64 {
    if records < 1.0 {
        return 0.0;
    }
    let cached = cached.clamp(1.0, records);
    let mass = |x: f64| {
        if (theta - 1.0).abs() < 1e-9 {
            x.ln() + 1.0
        } else {
            (x.powf(1.0 - theta) - 1.0) / (1.0 - theta) + 1.0
        }
    };
    (1.0 - mass(cached) / mass(records)).clamp(0.0, 1.0)
}

/// One consumer's measured curve as read back out of the `mrc` block of
/// a `BENCH_server.json` document.
#[derive(Debug, Clone, PartialEq)]
pub struct MrcMeasured {
    /// Profiler name (`mrc.record_cache`, ...).
    pub consumer: String,
    /// Accesses observed by the profiler.
    pub accesses: u64,
    /// Configured spatial sampling rate.
    pub sample_rate: f64,
    /// Mean entity size over sampled accesses, bytes.
    pub mean_entity_bytes: f64,
    /// The measured curve, bytes ascending.
    pub points: Vec<MrcCurvePoint>,
    /// The loadgen's own break-even budget for this consumer.
    pub recommended_bytes: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_model_endpoints_and_skew() {
        // Full residency misses nothing; a single resident record
        // misses everything but the head's mass.
        assert!(zipf_miss_ratio(0.99, 10_000.0, 10_000.0) < 1e-9);
        assert!(zipf_miss_ratio(0.99, 10_000.0, 1.0) > 0.85);
        // More skew concentrates mass: at the same 1% residency a
        // hotter law misses less.
        let flat = zipf_miss_ratio(0.5, 10_000.0, 100.0);
        let hot = zipf_miss_ratio(1.2, 10_000.0, 100.0);
        assert!(hot < flat, "hot {hot} vs flat {flat}");
        // θ = 1 takes the logarithmic branch without blowing up.
        let unit = zipf_miss_ratio(1.0, 10_000.0, 100.0);
        assert!(unit > 0.0 && unit < 1.0);
    }

    fn steep_then_flat() -> Vec<MrcCurvePoint> {
        vec![
            MrcCurvePoint {
                bytes: 1e6,
                miss_ratio: 0.9,
            },
            MrcCurvePoint {
                bytes: 2e6,
                miss_ratio: 0.2,
            },
            // Essentially flat: 1e-4 of misses over 2 MB. At the paper's
            // prices DRAM is so cheap per byte that even mildly sloped
            // tails pay for themselves; only a truly flat tail does not.
            MrcCurvePoint {
                bytes: 4e6,
                miss_ratio: 0.1999,
            },
        ]
    }

    #[test]
    fn marginal_value_matches_hand_calculation() {
        let hw = HardwareCatalog::paper();
        let priced = marginal_curve(&hw, 1e4, &steep_then_flat());
        assert_eq!(priced.len(), 2);
        // First interval: 1e4 ops/s * 0.7 dmiss * premium / 1e6 bytes.
        let premium = hw.ss_exec_cost() - hw.mm_exec_cost();
        let want = 1e4 * 0.7 * premium / 1e6;
        assert!((priced[0].marginal_value_per_byte - want).abs() < 1e-15);
        assert_eq!(priced[0].dram_price_per_byte, hw.dram_per_byte);
    }

    #[test]
    fn steep_interval_beats_dram_flat_interval_does_not() {
        let hw = HardwareCatalog::paper();
        let priced = marginal_curve(&hw, 1e4, &steep_then_flat());
        assert!(
            priced[0].net_per_byte() > 0.0,
            "steep miss cliff must justify DRAM: {priced:?}"
        );
        assert!(
            priced[1].net_per_byte() < 0.0,
            "flat tail must not justify DRAM: {priced:?}"
        );
    }

    #[test]
    fn recommended_budget_stops_at_the_cliff() {
        let hw = HardwareCatalog::paper();
        let rec = recommended_bytes(&hw, 1e4, &steep_then_flat());
        assert_eq!(rec, 2e6);
        // A consumer with negligible traffic should not grow at all.
        let idle = recommended_bytes(&hw, 1e-3, &steep_then_flat());
        assert_eq!(idle, 1e6);
    }

    #[test]
    fn marginal_at_picks_the_containing_interval() {
        let hw = HardwareCatalog::paper();
        let curve = steep_then_flat();
        let at = marginal_at(&hw, 1e4, &curve, 1.5e6).unwrap();
        assert_eq!(at.bytes, 2e6);
        // Past the curve end: priced by the last interval.
        let past = marginal_at(&hw, 1e4, &curve, 1e9).unwrap();
        assert_eq!(past.bytes, 4e6);
        assert!(marginal_at(&hw, 1e4, &curve[..1], 1e6).is_none());
    }

    #[test]
    fn noisy_inversion_prices_as_zero_not_negative() {
        let hw = HardwareCatalog::paper();
        let noisy = vec![
            MrcCurvePoint {
                bytes: 1e6,
                miss_ratio: 0.5,
            },
            MrcCurvePoint {
                bytes: 2e6,
                miss_ratio: 0.51,
            },
        ];
        let priced = marginal_curve(&hw, 1e4, &noisy);
        assert_eq!(priced[0].marginal_value_per_byte, 0.0);
    }

    #[test]
    fn zero_width_intervals_are_skipped() {
        let hw = HardwareCatalog::paper();
        let dup = vec![
            MrcCurvePoint {
                bytes: 1e6,
                miss_ratio: 0.5,
            },
            MrcCurvePoint {
                bytes: 1e6,
                miss_ratio: 0.4,
            },
            MrcCurvePoint {
                bytes: 2e6,
                miss_ratio: 0.3,
            },
        ];
        assert_eq!(marginal_curve(&hw, 1e4, &dup).len(), 1);
    }
}
