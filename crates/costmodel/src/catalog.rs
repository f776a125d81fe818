//! Hardware cost catalog (§4.1).

/// Infrastructure prices and measured performance quantities.
///
/// Defaults ([`HardwareCatalog::paper`]) are the paper's §4.1 estimates
/// (2018 server prices "gleaned from the web"); every quantity can be
/// overridden to re-run the analysis for different hardware — the paper's
/// point is that only *relative* prices matter and those drift slowly.
#[derive(Debug, Clone, PartialEq)]
pub struct HardwareCatalog {
    /// `$M`: DRAM cost per byte.
    pub dram_per_byte: f64,
    /// `$Fl`: flash cost per byte.
    pub flash_per_byte: f64,
    /// `$P`: processor (core) cost.
    pub processor: f64,
    /// `$I`: cost of the SSD's I/O capability (drive price minus its
    /// flash-storage value).
    pub iops_capability: f64,
    /// `ROPS`: measured MM read operations per second per core.
    pub rops: f64,
    /// `IOPS`: measured maximum device I/O operations per second.
    pub iops: f64,
    /// `Ps`: average page size in bytes (the paper's 2.7 KB: 4 KB maximum
    /// pages at just under 70 % B-tree utilization).
    pub page_bytes: f64,
    /// `R`: CPU-cost ratio of an SS operation to an MM operation.
    pub r: f64,
}

impl HardwareCatalog {
    /// The paper's §4.1 numbers.
    pub fn paper() -> Self {
        HardwareCatalog {
            dram_per_byte: 5e-9,
            flash_per_byte: 0.5e-9,
            processor: 300.0,
            iops_capability: 50.0,
            rops: 4e6,
            iops: 2e5,
            page_bytes: 2.7e3,
            r: 5.8,
        }
    }

    /// MM-operation execution cost (processor rent per op): `$P / ROPS`.
    pub fn mm_exec_cost(&self) -> f64 {
        self.processor / self.rops
    }

    /// SS-operation execution cost: the I/O (`$I / IOPS`) plus `R` times
    /// the MM processor cost (§3.2).
    pub fn ss_exec_cost(&self) -> f64 {
        self.iops_capability / self.iops + self.r * self.mm_exec_cost()
    }

    /// MM storage rent for one page: DRAM plus the durable flash copy.
    pub fn mm_storage_cost(&self) -> f64 {
        self.page_bytes * (self.dram_per_byte + self.flash_per_byte)
    }

    /// SS storage rent for one page: flash only.
    pub fn ss_storage_cost(&self) -> f64 {
        self.page_bytes * self.flash_per_byte
    }

    /// A catalog with the page size replaced (e.g. record-level analysis,
    /// §6.3).
    pub fn with_page_bytes(&self, page_bytes: f64) -> Self {
        HardwareCatalog {
            page_bytes,
            ..self.clone()
        }
    }

    /// A catalog with a different `R` (e.g. the OS-path R ≈ 9, §7.1.1).
    pub fn with_r(&self, r: f64) -> Self {
        HardwareCatalog { r, ..self.clone() }
    }
}

impl Default for HardwareCatalog {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_values() {
        let hw = HardwareCatalog::paper();
        assert_eq!(hw.dram_per_byte, 5e-9);
        assert_eq!(hw.iops_capability, 50.0);
        assert_eq!(hw.r, 5.8);
    }

    #[test]
    fn storage_ratio_is_about_11x() {
        // §4.2: "SS (flash) storage cost is cheaper than MM (DRAM + flash)
        // storage cost by a factor of about 11X".
        let hw = HardwareCatalog::paper();
        let ratio = hw.mm_storage_cost() / hw.ss_storage_cost();
        assert!((ratio - 11.0).abs() < 0.1, "ratio {ratio}");
    }

    #[test]
    fn exec_costs_match_hand_calculation() {
        let hw = HardwareCatalog::paper();
        assert!((hw.mm_exec_cost() - 7.5e-5).abs() < 1e-12);
        // $I/IOPS = 50/2e5 = 2.5e-4; R*$P/ROPS = 5.8*7.5e-5 = 4.35e-4.
        assert!((hw.ss_exec_cost() - 6.85e-4).abs() < 1e-9);
    }

    #[test]
    fn with_overrides() {
        let hw = HardwareCatalog::paper();
        assert_eq!(hw.with_page_bytes(270.0).page_bytes, 270.0);
        assert_eq!(hw.with_r(9.0).r, 9.0);
    }
}
