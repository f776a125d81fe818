//! Figure 1 + §2.2: relative performance of a mixed MM/SS workload, and
//! the derivation of R (Equation 3) from measured throughputs.
//!
//! Method: load a Bw-tree over LLAMA on the simulated SSD (user-level I/O
//! path). Measure `P0` with every page resident. For each target fraction
//! `F`, run a mixed read workload where an SS operation is forced by
//! (untimed) evicting the target key's leaf just before the (timed) read —
//! the timed work is exactly the paper's SS operation: issue the read I/O,
//! execute the I/O path, install and search the page. Derive R per point
//! via Equation 3 and compare the measured relative performance against
//! the model band R = R̂ ± 30 %.
//!
//! Run with: `cargo run --release -p dcs-bench --bin fig1_mixed_perf`

// A figure binary times real hardware on purpose.
#![allow(clippy::disallowed_types)]

use dcs_bench::{load_tree, OpTimer};
use dcs_costmodel::{mixed, render};
use dcs_flashsim::IoPathKind;
use dcs_workload::keys;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

const RECORDS: u64 = 100_000;
const VALUE_LEN: usize = 100;
const OPS_PER_POINT: u64 = 20_000;
const WARMUP: u64 = 2_000;

struct PointResult {
    f_target: f64,
    f_observed: f64,
    ops_per_sec: f64,
}

fn run_point(t: &dcs_bench::TreeUnderTest, f: f64, seed: u64) -> PointResult {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut timer = OpTimer::new();
    // Warm up the I/O path (the paper notes R is unstable when cold).
    for _ in 0..WARMUP {
        let key = keys::encode(rng.gen_range(0..t.records));
        if f > 0.0 {
            let pid = t.tree.locate_leaf(&key);
            let _ = t.tree.evict_page(pid);
        }
        let _ = t.tree.get(&key);
    }
    let warm_stats = t.tree.stats();
    for _ in 0..OPS_PER_POINT {
        let key = keys::encode(rng.gen_range(0..t.records));
        if rng.gen::<f64>() < f {
            // Untimed: push the page out so the next read is an SS op.
            let pid = t.tree.locate_leaf(&key);
            let _ = t.tree.evict_page(pid);
        }
        timer.time(|| {
            std::hint::black_box(t.tree.get(&key));
        });
    }
    let stats_after = t.tree.stats().delta(&warm_stats);
    PointResult {
        f_target: f,
        f_observed: stats_after.ss_fraction(),
        ops_per_sec: timer.ops_per_sec(),
    }
}

fn four_core_point(t: &dcs_bench::TreeUnderTest, f: f64) -> PointResult {
    let stats_before = t.tree.stats();
    let start = std::time::Instant::now();
    std::thread::scope(|scope| {
        for tid in 0..4u64 {
            let tree = Arc::clone(&t.tree);
            let records = t.records;
            scope.spawn(move || {
                let mut rng = SmallRng::seed_from_u64(1000 + tid);
                for _ in 0..OPS_PER_POINT / 4 {
                    let key = keys::encode(rng.gen_range(0..records));
                    if rng.gen::<f64>() < f {
                        let pid = tree.locate_leaf(&key);
                        let _ = tree.evict_page(pid);
                    }
                    std::hint::black_box(tree.get(&key));
                }
            });
        }
    });
    let wall = start.elapsed().as_secs_f64();
    let stats_after = t.tree.stats().delta(&stats_before);
    PointResult {
        f_target: f,
        f_observed: stats_after.ss_fraction(),
        // Per-core rate, as in the paper's definition of performance.
        ops_per_sec: OPS_PER_POINT as f64 / wall / 4.0,
    }
}

fn main() {
    println!("loading {RECORDS} records (user-level I/O path) ...");
    let t = load_tree(RECORDS, VALUE_LEN, IoPathKind::UserLevel);

    // P0: every page resident.
    let p0_point = run_point(&t, 0.0, 7);
    let p0 = p0_point.ops_per_sec;
    println!("P0 (all-MM, 1 core) = {:.0} ops/sec\n", p0);

    let fractions = [0.01, 0.02, 0.05, 0.1, 0.2, 0.4, 0.7, 1.0];
    let mut rows = Vec::new();
    let mut rs = Vec::new();
    let mut one_core_points = Vec::new();
    for (i, &f) in fractions.iter().enumerate() {
        let pt = run_point(&t, f, 100 + i as u64);
        let rel = pt.ops_per_sec / p0;
        let r = mixed::derive_r(p0, pt.ops_per_sec, pt.f_observed);
        let (lo, mid, hi) = mixed::band(pt.f_observed, 5.8, 0.3);
        rows.push(vec![
            format!("{:.2}", pt.f_target),
            format!("{:.4}", pt.f_observed),
            format!("{:.0}", pt.ops_per_sec),
            format!("{rel:.4}"),
            format!("{lo:.4}"),
            format!("{mid:.4}"),
            format!("{hi:.4}"),
            r.map(|r| format!("{r:.2}")).unwrap_or_default(),
        ]);
        // The paper: "R was outside of this range when the I/O path was
        // very cold" — at F ≤ 0.02 an R estimate rests on a handful of SS
        // operations, so (like the paper) we derive R̂ from the warm points.
        if let Some(r) = r {
            if f >= 0.05 {
                rs.push(r);
            }
        }
        one_core_points.push((pt.f_observed, rel));
    }
    println!("== Figure 1 (1 core): measured vs model band ==");
    print!(
        "{}",
        render::table(
            &[
                "F target",
                "F observed",
                "ops/sec",
                "PF/P0 meas",
                "model R+30%",
                "model R=5.8",
                "model R-30%",
                "R (Eq.3)"
            ],
            &rows
        )
    );

    let r_mean = rs.iter().sum::<f64>() / rs.len() as f64;
    let r_min = rs.iter().cloned().fold(f64::INFINITY, f64::min);
    let r_max = rs.iter().cloned().fold(0.0f64, f64::max);
    println!(
        "\nderived R over the warm points (F ≥ 0.05): mean {:.2}, range [{:.2}, {:.2}]",
        r_mean, r_min, r_max
    );
    println!("(paper: R = 5.8 ± 30 % over most of the range; unstable when the I/O path is cold)");
    let within = rs
        .iter()
        .filter(|&&r| (r - r_mean).abs() / r_mean <= 0.30)
        .count();
    println!(
        "points within ±30 % of R̂: {within}/{} — {}",
        rs.len(),
        if within == rs.len() {
            "✓ shape holds"
        } else {
            "partial"
        }
    );

    println!("\n== Figure 1 (4 cores): measured points ==");
    // Under concurrency the SS path is a little more expensive (shared
    // device queue, eviction/fetch races), so the 4-core points have their
    // own R — the paper likewise plots 1-core and 4-core results as
    // separate point sets inside the band.
    let mut rows4 = Vec::new();
    let mut rs4 = Vec::new();
    let p0_4 = four_core_point(&t, 0.0).ops_per_sec;
    for &f in &[0.05, 0.2, 0.7] {
        let pt = four_core_point(&t, f);
        let rel = pt.ops_per_sec / p0_4;
        let r = mixed::derive_r(p0_4, pt.ops_per_sec, pt.f_observed);
        if let Some(r) = r {
            rs4.push(r);
        }
        rows4.push(vec![
            format!("{:.2}", pt.f_target),
            format!("{:.4}", pt.f_observed),
            format!("{:.0}", pt.ops_per_sec),
            format!("{rel:.4}"),
            r.map(|r| format!("{r:.2}")).unwrap_or_default(),
        ]);
    }
    print!(
        "{}",
        render::table(
            &[
                "F target",
                "F observed",
                "ops/sec/core",
                "PF/P0",
                "R (Eq.3)"
            ],
            &rows4
        )
    );
    let r4_mean = rs4.iter().sum::<f64>() / rs4.len() as f64;
    let within4 = rs4
        .iter()
        .filter(|&&r| (r - r4_mean).abs() / r4_mean <= 0.30)
        .count();
    println!(
        "\n4-core R̂ = {r4_mean:.2}; points within ±30 %: {within4}/{} — {}",
        rs4.len(),
        if within4 == rs4.len() {
            "✓ constant-R shape holds"
        } else {
            "partial"
        }
    );

    println!("\n== model curve at measured R̂ = {r_mean:.2} ==");
    let xs: Vec<f64> = (0..=10).map(|i| i as f64 / 10.0).collect();
    let series =
        dcs_costmodel::figures::Series::sample(format!("PF/P0 at R={r_mean:.2}"), &xs, |f| {
            mixed::relative_performance(f, r_mean.max(1.0))
        });
    print!("{}", render::series_table("F", &[series]));
}
