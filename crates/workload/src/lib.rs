//! The iOS update workload: device population, manifest polling, and the
//! flash-crowd download demand.
//!
//! Section 3.1 of the paper reverse-engineers the device side: every iOS
//! device fetches two manifest files from `mesu.apple.com` once per hour
//! (one with ~1800 device/version entries, one six-entry last-resort file),
//! and the actual ~2–3 GB update image is downloaded from
//! `appldnld.apple.com` when the *user* initiates the update. The rollout
//! therefore produces a classic flash crowd: a sharp surge at release
//! modulated by local time of day, decaying over the following days.
//!
//! * [`population`] — device counts per continent (the paper cites up to
//!   1 billion candidate devices).
//! * [`manifest`] — the `mesu` manifest and UpdateBrain files with realistic
//!   entry counts, plus the hourly polling load they generate.
//! * [`adoption`] — the download-initiation rate over time: exponential
//!   surge at release × diurnal modulation × continent population.
//! * [`demand`] — conversion of initiation rates into offered bits per
//!   second (by Little's law the offered load of a download process with
//!   start rate `r` and object size `S` is `r · S` bits/s).

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod adoption;
pub mod demand;
pub mod manifest;
pub mod population;

pub use adoption::{diurnal, AdoptionModel, UpdateEvent};
pub use demand::demand_bps;
pub use manifest::{Manifest, ManifestEntry};
pub use population::Population;
