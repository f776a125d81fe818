//! Pricing real runs: apply the paper's cost algebra to *measured*
//! operation counts and storage occupancy, so whole executions — not just
//! single operations — can be compared in dollars.
//!
//! This is what a cache-management policy is ultimately judged by in the
//! paper: total rent (DRAM + flash over the run's duration) plus total
//! execution cost (processor per op, I/O capability per SS op). The
//! lifetime factor is dropped as everywhere else, so values are
//! comparable *between runs*, not absolute prices.

use crate::catalog::HardwareCatalog;

/// Measured facts about one run.
#[derive(Debug, Clone, Copy)]
pub struct RunProfile {
    /// Virtual duration of the run in seconds.
    pub duration_secs: f64,
    /// Time-averaged DRAM occupancy in bytes.
    pub avg_dram_bytes: f64,
    /// Time-averaged flash occupancy in bytes (durable copies).
    pub avg_flash_bytes: f64,
    /// Operations served from memory.
    pub mm_ops: u64,
    /// Operations that performed secondary-storage I/O.
    pub ss_ops: u64,
}

/// Cost breakdown of a run (same implicit `1/L` as the rest of the model).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunCost {
    /// DRAM rent over the duration.
    pub dram_rent: f64,
    /// Flash rent over the duration.
    pub flash_rent: f64,
    /// Processor cost of the MM operations.
    pub mm_exec: f64,
    /// Processor + I/O-capability cost of the SS operations.
    pub ss_exec: f64,
}

impl RunCost {
    /// Total run cost.
    pub fn total(&self) -> f64 {
        self.dram_rent + self.flash_rent + self.mm_exec + self.ss_exec
    }

    /// Cost per operation.
    pub fn per_op(&self, profile: &RunProfile) -> f64 {
        let ops = profile.mm_ops + profile.ss_ops;
        if ops == 0 {
            0.0
        } else {
            self.total() / ops as f64
        }
    }
}

/// Price a run under a catalog.
pub fn price_run(hw: &HardwareCatalog, p: &RunProfile) -> RunCost {
    RunCost {
        dram_rent: p.avg_dram_bytes * hw.dram_per_byte * p.duration_secs,
        flash_rent: p.avg_flash_bytes * hw.flash_per_byte * p.duration_secs,
        mm_exec: p.mm_ops as f64 * hw.mm_exec_cost(),
        ss_exec: p.ss_ops as f64 * hw.ss_exec_cost(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hw() -> HardwareCatalog {
        HardwareCatalog::paper()
    }

    fn profile(dram: f64, mm: u64, ss: u64) -> RunProfile {
        RunProfile {
            duration_secs: 1000.0,
            avg_dram_bytes: dram,
            avg_flash_bytes: 1e9,
            mm_ops: mm,
            ss_ops: ss,
        }
    }

    #[test]
    fn components_sum() {
        let c = price_run(&hw(), &profile(1e9, 500, 500));
        assert!((c.total() - (c.dram_rent + c.flash_rent + c.mm_exec + c.ss_exec)).abs() < 1e-15);
    }

    #[test]
    fn cold_run_cheaper_on_flash() {
        // Few ops: the all-DRAM run pays rent for nothing.
        let in_dram = price_run(&hw(), &profile(1e9, 100, 0));
        let on_flash = price_run(&hw(), &profile(0.0, 0, 100));
        assert!(on_flash.total() < in_dram.total());
    }

    #[test]
    fn hot_run_cheaper_in_dram() {
        let in_dram = price_run(&hw(), &profile(1e9, 100_000_000, 0));
        let on_flash = price_run(&hw(), &profile(0.0, 0, 100_000_000));
        assert!(in_dram.total() < on_flash.total());
    }

    #[test]
    fn agrees_with_equations_4_and_5_per_page() {
        // A run of one page at N ops/sec for one second = Eq. 4 / Eq. 5.
        let h = hw();
        let n = 0.5;
        let mm_run = price_run(
            &h,
            &RunProfile {
                duration_secs: 1.0,
                avg_dram_bytes: h.page_bytes,
                avg_flash_bytes: h.page_bytes,
                mm_ops: 0,
                ss_ops: 0,
            },
        );
        // Storage part matches Eq. 4's storage term; execution added per op.
        let eq4_storage = h.mm_storage_cost();
        assert!((mm_run.total() - eq4_storage).abs() < 1e-18);
        let full = crate::curves::mm_cost(&h, n);
        let run = mm_run.total() + n * h.mm_exec_cost();
        assert!((full - run).abs() < 1e-18);
    }

    #[test]
    fn per_op_handles_empty_runs() {
        let p = profile(0.0, 0, 0);
        assert_eq!(price_run(&hw(), &p).per_op(&p), 0.0);
    }
}
