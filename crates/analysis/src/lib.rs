//! The analysis pipeline: regenerates every table and figure of the paper
//! from simulated measurements.
//!
//! Each `figN` module computes the same quantity the paper plots, from the
//! same kind of raw data (DNS resolutions, NetFlow records, SNMP counters),
//! and returns a [`Table`] whose rows are the figure's series. The `repro`
//! binary prints them all; `EXPERIMENTS.md` records paper-vs-measured.
//!
//! | Module | Paper artifact |
//! |---|---|
//! | [`fig1`] | Figure 1 — measurement timeline |
//! | [`fig2`] | Figure 2 — request-mapping DNS graph with TTLs |
//! | [`fig3`] | Figure 3 — Apple delivery-site locations |
//! | [`table1`] | Table 1 — server naming scheme |
//! | [`fig4`] | Figure 4 — unique cache IPs per continent |
//! | [`fig5`] | Figure 5 — unique cache IPs inside the Eyeball ISP |
//! | [`fig6`] | Figure 6 — offload/overflow taxonomy (worked example) |
//! | [`fig7`] | Figure 7 — update traffic ratio by source AS |
//! | [`fig8`] | Figure 8 — overflow share by handover AS |
//! | [`coverage`] | Data-completeness annotations for fault-injected runs |
//! | [`chaos`] | Chaos-sweep availability/offload deltas (beyond the paper) |
//! | [`poisoning`] | Poisoning-sweep mis-mapping deltas, enforcement on vs off (beyond the paper) |

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod cache_location;
pub mod chaos;
pub mod coverage;
pub mod fig1;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod poisoning;
mod sums;
pub mod table;
pub mod via_inference;
pub mod table1;

pub use table::Table;
