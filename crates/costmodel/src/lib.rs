//! The cost/performance model of Lomet, *Cost/Performance in Modern Data
//! Stores: How Data Caching Systems Succeed* (DaMoN'18).
//!
//! This crate is the paper's primary contribution in executable form. It
//! captures:
//!
//! * **The two operation forms** (§2.1): main-memory (MM) operations on
//!   cached data, and secondary-storage (SS) operations that must perform a
//!   read I/O, costing `R` times the CPU of an MM operation.
//! * **Mixed-workload performance** (§2.2, Equations 1–3 / Figure 1):
//!   throughput of a workload with SS-fraction `F`, and the inversion that
//!   derives `R` from measured throughputs.
//! * **Operation costs** (§3, Equations 4–5 / Figure 2): storage rent plus
//!   execution rent for MM and SS operations, given a hardware catalog.
//! * **The updated five-minute rule** (§4.2, Equation 6): the breakeven
//!   access interval `Ti` (≈45 s on the paper's 2018 hardware) beyond which
//!   a page is cheaper on flash.
//! * **Main-memory vs caching stores** (§5, Equations 7–8 / Figure 3):
//!   breakeven between the Bw-tree and MassTree given measured performance
//!   gain `Px` and memory expansion `Mx`.
//! * **I/O-path and compression what-ifs** (§7, Figures 7–8): how shrinking
//!   the I/O execution path or adding a compressed-storage tier moves the
//!   cost curves.
//! * **Technology what-ifs** (§8.2–8.3, [`technology`]): NVRAM as an
//!   intermediate tier and the HDD arithmetic behind "disk is tape".
//!
//! All monetary quantities are in dollars; the common lifetime factor `1/L`
//! is dropped throughout (§3.2) because only relative costs matter.
//!
//! ```
//! use dcs_costmodel::{HardwareCatalog, breakeven};
//!
//! let hw = HardwareCatalog::paper();
//! let ti = breakeven::ti_seconds(&hw);
//! assert!((40.0..50.0).contains(&ti), "the paper derives Ti ≈ 45 s");
//! ```

pub mod accounting;
pub mod breakeven;
pub mod catalog;
pub mod curves;
pub mod figures;
pub mod miss_service;
pub mod mixed;
pub mod mm_vs_caching;
pub mod mrc_cost;
pub mod render;
pub mod technology;

pub use catalog::HardwareCatalog;
pub use figures::{Point, Series};
