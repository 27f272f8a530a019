//! Probe availability: RIPE Atlas probes churn.
//!
//! Real probes disconnect — power cuts, moved hardware, flaky uplinks. A
//! campaign description like the paper's "more than 800 probes" reflects a
//! fleet whose online subset fluctuates. This model gives each probe a
//! deterministic on/off duty cycle: outages of a few hours, scattered so the
//! fleet-wide availability matches a target rate. Robustness tests use it
//! to confirm the figures survive realistic churn.

use mcdn_geo::SimTime;

/// Length of one availability epoch (probes fail/recover on this grain).
const EPOCH_SECS: u64 = 4 * 3600;

fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Deterministic churn model targeting a fleet-wide availability rate.
#[derive(Debug, Clone, Copy)]
pub struct Availability {
    /// Probability a probe is online in any given epoch, in `[0, 1]`.
    pub rate: f64,
    /// Model seed (vary to get independent outage patterns).
    pub seed: u64,
}

impl Availability {
    /// A fleet online `rate` of the time.
    pub fn with_rate(rate: f64, seed: u64) -> Availability {
        assert!((0.0..=1.0).contains(&rate), "rate must be a probability");
        Availability { rate, seed }
    }

    /// Whether probe `probe_id` is online at `t`.
    pub fn is_online(&self, probe_id: u32, t: SimTime) -> bool {
        if self.rate >= 1.0 {
            return true;
        }
        if self.rate <= 0.0 {
            return false;
        }
        let epoch = t.as_secs() / EPOCH_SECS;
        let mut key = [0u8; 20];
        key[..4].copy_from_slice(&probe_id.to_be_bytes());
        key[4..12].copy_from_slice(&epoch.to_be_bytes());
        key[12..20].copy_from_slice(&self.seed.to_be_bytes());
        (fnv64(&key) % 1_000_000) as f64 / 1_000_000.0 < self.rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcdn_geo::Duration;

    #[test]
    fn rate_is_met_in_aggregate() {
        let a = Availability::with_rate(0.9, 42);
        let t = SimTime::from_ymd(2017, 9, 19);
        let frac = (0..2000u32).filter(|id| a.is_online(*id, t)).count() as f64 / 2000.0;
        assert!((frac - 0.9).abs() < 0.03, "got {frac}");
    }

    #[test]
    fn outages_last_whole_epochs_and_end() {
        let a = Availability::with_rate(0.8, 7);
        let t0 = SimTime::from_ymd(2017, 9, 12);
        // Find a probe that is offline at t0…
        let down = (0..500u32).find(|id| !a.is_online(*id, t0)).expect("someone is down");
        // …it stays down within the epoch…
        assert!(!a.is_online(down, t0 + Duration::hours(1)));
        // …and recovers eventually.
        let recovers = (1..100u64).any(|k| a.is_online(down, t0 + Duration::hours(4 * k)));
        assert!(recovers, "outages must not be permanent");
    }

    #[test]
    fn deterministic_across_calls() {
        let a = Availability::with_rate(0.5, 9);
        let t = SimTime(1_000_000);
        for id in 0..50 {
            assert_eq!(a.is_online(id, t), a.is_online(id, t));
        }
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn rejects_bad_rate() {
        let _ = Availability::with_rate(1.5, 0);
    }

    #[test]
    fn rate_zero_means_never_online() {
        let a = Availability::with_rate(0.0, 3);
        for id in 0..200u32 {
            for h in 0..48u64 {
                assert!(!a.is_online(id, SimTime::from_ymd(2017, 9, 12) + Duration::hours(h)));
            }
        }
    }

    #[test]
    fn rate_one_means_always_online() {
        let a = Availability::with_rate(1.0, 99);
        for id in 0..200u32 {
            for h in 0..48u64 {
                assert!(a.is_online(id, SimTime::from_ymd(2017, 9, 12) + Duration::hours(h)));
            }
        }
    }

    #[test]
    fn seeds_give_independent_outage_patterns() {
        let a = Availability::with_rate(0.5, 1);
        let b = Availability::with_rate(0.5, 2);
        let t = SimTime::from_ymd(2017, 9, 19);
        let differs = (0..500u32).filter(|&id| a.is_online(id, t) != b.is_online(id, t)).count();
        // Independent 50 % coins disagree about half the time.
        assert!((150..350).contains(&differs), "only {differs}/500 differ");
    }
}
