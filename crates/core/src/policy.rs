//! Commercial CDN-selection weights and their time schedule.
//!
//! The paper concludes the mapping design's "primary goal is to ensure
//! Apple's bargaining power with its CDN suppliers": the distribution shares
//! of third-party CDNs are directly controlled by Apple and were observed to
//! change on a daily basis during the event (§5.3). A [`Schedule`] encodes
//! those exogenous decisions as piecewise-constant [`CdnShare`] weights per
//! region; everything *caused* by the weights (traffic, unique IPs,
//! overflow) is computed by the simulation.

use crate::kinds::CdnKind;
use mcdn_geo::{Region, SimTime};

/// Relative selection weights for one region at one time. Weights need not
/// sum to one; selection normalizes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CdnShare {
    /// Weight of Apple's own CDN.
    pub apple: f64,
    /// Weight of Akamai.
    pub akamai: f64,
    /// Weight of Limelight.
    pub limelight: f64,
    /// Weight of Level3 (0 after its June 2017 removal).
    pub level3: f64,
}

impl CdnShare {
    /// A share with only Apple serving.
    pub fn apple_only() -> CdnShare {
        CdnShare { apple: 1.0, akamai: 0.0, limelight: 0.0, level3: 0.0 }
    }

    /// The weight of one CDN.
    pub fn weight(&self, kind: CdnKind) -> f64 {
        match kind {
            CdnKind::Apple => self.apple,
            CdnKind::Akamai => self.akamai,
            CdnKind::Limelight => self.limelight,
            CdnKind::Level3 => self.level3,
        }
    }

    /// Sum of all weights.
    pub fn total(&self) -> f64 {
        self.apple + self.akamai + self.limelight + self.level3
    }

    /// Normalized weights over the CDNs available in `region`, as
    /// `(kind, probability)` pairs in [`CdnKind::ALL`] order. Returns an
    /// empty share if no available CDN has positive weight.
    pub fn normalized_in(&self, region: Region) -> SelectionShare {
        let mut share: SelectionShare = CdnKind::ALL
            .into_iter()
            .filter(|k| k.available_in(region))
            .map(|k| (k, self.weight(k)))
            .filter(|(_, w)| *w > 0.0)
            .collect();
        let total: f64 = share.iter().map(|(_, w)| w).sum();
        if total <= 0.0 {
            return SelectionShare::new();
        }
        for (_, w) in share.iter_mut() {
            *w /= total;
        }
        share
    }
}

/// Selection probabilities, at most one entry per [`CdnKind`], held in an
/// inline array: computing, degrading or filtering a share never touches
/// the heap. Dereferences to the `(kind, probability)` slice, in insertion
/// order.
#[derive(Clone, Copy)]
pub struct SelectionShare {
    len: usize,
    entries: [(CdnKind, f64); CdnKind::ALL.len()],
}

impl SelectionShare {
    /// An empty share.
    pub const fn new() -> SelectionShare {
        SelectionShare { len: 0, entries: [(CdnKind::Apple, 0.0); CdnKind::ALL.len()] }
    }

    /// Sets `kind`'s probability, appending the kind if it is absent. A
    /// share never holds a kind twice, so it never outgrows its array.
    pub fn set(&mut self, kind: CdnKind, p: f64) {
        match self.iter().position(|(k, _)| *k == kind) {
            Some(i) => self.entries[i].1 = p,
            None => {
                self.entries[self.len] = (kind, p);
                self.len += 1;
            }
        }
    }

    /// Keeps only the entries `keep` accepts, preserving their order.
    pub fn retain(&mut self, mut keep: impl FnMut(&(CdnKind, f64)) -> bool) {
        let mut kept = 0;
        for i in 0..self.len {
            if keep(&self.entries[i]) {
                self.entries[kept] = self.entries[i];
                kept += 1;
            }
        }
        self.len = kept;
    }
}

impl Default for SelectionShare {
    fn default() -> SelectionShare {
        SelectionShare::new()
    }
}

impl core::ops::Deref for SelectionShare {
    type Target = [(CdnKind, f64)];

    fn deref(&self) -> &[(CdnKind, f64)] {
        &self.entries[..self.len]
    }
}

impl core::ops::DerefMut for SelectionShare {
    fn deref_mut(&mut self) -> &mut [(CdnKind, f64)] {
        &mut self.entries[..self.len]
    }
}

impl PartialEq for SelectionShare {
    fn eq(&self, other: &SelectionShare) -> bool {
        **self == **other
    }
}

impl core::fmt::Debug for SelectionShare {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl FromIterator<(CdnKind, f64)> for SelectionShare {
    /// Collects with [`SelectionShare::set`] semantics: a repeated kind
    /// keeps its first position and its last probability.
    fn from_iter<I: IntoIterator<Item = (CdnKind, f64)>>(iter: I) -> SelectionShare {
        let mut share = SelectionShare::new();
        for (kind, p) in iter {
            share.set(kind, p);
        }
        share
    }
}

impl<'a> IntoIterator for &'a SelectionShare {
    type Item = &'a (CdnKind, f64);
    type IntoIter = core::slice::Iter<'a, (CdnKind, f64)>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Piecewise-constant weight schedule per region.
///
/// Breakpoints apply from their instant onward; queries before the first
/// breakpoint get the region's default share.
#[derive(Debug, Clone)]
pub struct Schedule {
    default: CdnShare,
    /// Time-sorted breakpoints, one list per region (`Region as usize`).
    breakpoints: [Vec<(SimTime, CdnShare)>; Region::ALL.len()],
}

impl Schedule {
    /// A schedule returning `default` everywhere until breakpoints are set.
    pub fn constant(default: CdnShare) -> Schedule {
        Schedule { default, breakpoints: Default::default() }
    }

    /// Adds a breakpoint: from `at` onward, `region` uses `share`.
    /// Breakpoints may be added in any order.
    pub fn set_from(&mut self, region: Region, at: SimTime, share: CdnShare) {
        let v = &mut self.breakpoints[region as usize];
        v.push((at, share));
        v.sort_by_key(|(t, _)| *t);
    }

    /// Builder form of [`Schedule::set_from`].
    pub fn with(mut self, region: Region, at: SimTime, share: CdnShare) -> Schedule {
        self.set_from(region, at, share);
        self
    }

    /// Whether `kind` can ever receive positive selection weight in
    /// `region` — in the default share or any of the region's breakpoints,
    /// and only if the CDN operates there at all. The world builder uses
    /// this to reject configurations that schedule a CDN with no sites.
    pub fn ever_uses_in(&self, region: Region, kind: CdnKind) -> bool {
        if !kind.available_in(region) {
            return false;
        }
        self.default.weight(kind) > 0.0
            || self.breakpoints[region as usize].iter().any(|(_, s)| s.weight(kind) > 0.0)
    }

    /// The share in force for `region` at `now`.
    pub fn share_at(&self, region: Region, now: SimTime) -> CdnShare {
        let mut current = self.default;
        for (at, share) in &self.breakpoints[region as usize] {
            if *at <= now {
                current = *share;
            } else {
                break;
            }
        }
        current
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(day: u32, hour: u32) -> SimTime {
        SimTime::from_ymd_hms(2017, 9, day, hour, 0, 0)
    }

    #[test]
    fn normalization_excludes_unavailable_and_zero() {
        let share = CdnShare { apple: 2.0, akamai: 1.0, limelight: 1.0, level3: 1.0 };
        let eu = share.normalized_in(Region::Eu);
        assert_eq!(eu.len(), 4);
        assert!((eu.iter().map(|(_, p)| p).sum::<f64>() - 1.0).abs() < 1e-12);
        // APAC has no Level3 — its weight is excluded and re-normalized.
        let apac = share.normalized_in(Region::Apac);
        assert_eq!(apac.len(), 3);
        assert!((apac.iter().map(|(_, p)| p).sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(apac.iter().all(|(k, _)| *k != CdnKind::Level3));
    }

    #[test]
    fn all_zero_yields_empty() {
        let share = CdnShare { apple: 0.0, akamai: 0.0, limelight: 0.0, level3: 0.0 };
        assert!(share.normalized_in(Region::Eu).is_empty());
    }

    #[test]
    fn schedule_breakpoints_apply_in_order() {
        let day0 = CdnShare { apple: 0.5, akamai: 0.25, limelight: 0.25, level3: 0.0 };
        let event = CdnShare { apple: 0.33, akamai: 0.23, limelight: 0.44, level3: 0.0 };
        let after = CdnShare { apple: 0.6, akamai: 0.0, limelight: 0.4, level3: 0.0 };
        let mut s = Schedule::constant(day0);
        // Insert out of order on purpose.
        s.set_from(Region::Eu, t(20, 0), after);
        s.set_from(Region::Eu, t(19, 17), event);
        assert_eq!(s.share_at(Region::Eu, t(15, 0)), day0);
        assert_eq!(s.share_at(Region::Eu, t(19, 17)), event);
        assert_eq!(s.share_at(Region::Eu, t(19, 23)), event);
        assert_eq!(s.share_at(Region::Eu, t(21, 5)), after);
        // Other regions keep the default.
        assert_eq!(s.share_at(Region::Us, t(19, 18)), day0);
    }

    #[test]
    fn ever_uses_in_sees_default_and_breakpoints() {
        let quiet = CdnShare { apple: 1.0, akamai: 0.0, limelight: 0.0, level3: 0.0 };
        let event = CdnShare { limelight: 0.4, ..quiet };
        let s = Schedule::constant(quiet).with(Region::Eu, t(19, 17), event);
        assert!(s.ever_uses_in(Region::Eu, CdnKind::Apple));
        assert!(s.ever_uses_in(Region::Eu, CdnKind::Limelight), "breakpoint weight counts");
        assert!(!s.ever_uses_in(Region::Us, CdnKind::Limelight), "other regions unaffected");
        assert!(!s.ever_uses_in(Region::Eu, CdnKind::Akamai));
        // A scheduled-but-unavailable CDN is never used.
        let l3 = Schedule::constant(CdnShare { level3: 0.2, ..quiet });
        assert!(l3.ever_uses_in(Region::Eu, CdnKind::Level3));
        assert!(!l3.ever_uses_in(Region::Apac, CdnKind::Level3), "no Level3 in APAC");
    }

    #[test]
    fn weight_and_total_read_every_cdn() {
        let s = CdnShare { limelight: 0.5, ..CdnShare::apple_only() };
        assert_eq!(s.weight(CdnKind::Limelight), 0.5);
        assert_eq!(s.total(), 1.5);
    }
}
