//! Download-initiation dynamics: flash crowd plus diurnal modulation.
//!
//! The observable the ISP figures are built from is *offered download
//! traffic over time*. Its generator here has three factors:
//!
//! * a baseline of always-present update downloads (older versions, lagging
//!   devices),
//! * an exponential flash-crowd surge starting at the release instant
//!   (users hitting "install" when notified), decaying over ~a day, with a
//!   smaller secondary bump each following day (people updating the next
//!   evening — visible as the multi-day elevation in Figure 7),
//! * a diurnal factor peaking in the local evening, driven by each
//!   continent's central longitude.

use crate::population::Population;
use mcdn_geo::{Continent, Duration, SimTime};

/// A software release event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UpdateEvent {
    /// Release instant (iOS 11.0: Sep 19 2017 17:00 UTC).
    pub release: SimTime,
    /// Update image size in bytes (~2.8 GB for a major release).
    pub image_bytes: u64,
    /// Fraction of the fleet that updates within the first week.
    pub week_one_adoption: f64,
    /// Time constant of the initial surge.
    pub surge_tau: Duration,
}

impl UpdateEvent {
    /// The iOS 11.0 release as measured by the paper.
    pub fn ios_11() -> UpdateEvent {
        UpdateEvent {
            release: SimTime::from_ymd_hms(2017, 9, 19, 17, 0, 0),
            image_bytes: 2_800_000_000,
            week_one_adoption: 0.25,
            surge_tau: Duration::hours(10),
        }
    }

    /// iOS 11.0.1 (Sep 26): a bug-fix release with a smaller, slower wave.
    pub fn ios_11_0_1() -> UpdateEvent {
        UpdateEvent {
            release: SimTime::from_ymd_hms(2017, 9, 26, 17, 0, 0),
            image_bytes: 300_000_000,
            week_one_adoption: 0.10,
            surge_tau: Duration::hours(16),
        }
    }

    /// iOS 11.0.2 (Oct 3).
    pub fn ios_11_0_2() -> UpdateEvent {
        UpdateEvent {
            release: SimTime::from_ymd_hms(2017, 10, 3, 17, 0, 0),
            image_bytes: 280_000_000,
            week_one_adoption: 0.08,
            surge_tau: Duration::hours(16),
        }
    }

    /// iOS 11.1 (Oct 31): the next feature release, marked in Figure 5.
    pub fn ios_11_1() -> UpdateEvent {
        UpdateEvent {
            release: SimTime::from_ymd_hms(2017, 10, 31, 17, 0, 0),
            image_bytes: 1_500_000_000,
            week_one_adoption: 0.15,
            surge_tau: Duration::hours(12),
        }
    }
}

/// Central longitude used for local-time conversion per continent.
fn central_longitude(c: Continent) -> f64 {
    match c {
        Continent::Africa => 20.0,
        Continent::Asia => 100.0,
        Continent::Europe => 10.0,
        Continent::NorthAmerica => -95.0,
        Continent::Oceania => 145.0,
        Continent::SouthAmerica => -60.0,
    }
}

/// Diurnal factor in `[1-amp, 1+amp]`, peaking at 20:00 local time.
///
/// Public because the scenario uses the same curve to shape the CDNs'
/// baseline (non-update) traffic, which the paper's Figure 7 shows to be
/// strongly diurnal.
pub fn diurnal(continent: Continent, t: SimTime, amplitude: f64) -> f64 {
    let local_hour =
        (t.as_secs() as f64 / 3600.0 + central_longitude(continent) / 15.0).rem_euclid(24.0);
    1.0 + amplitude * ((local_hour - 20.0) / 24.0 * core::f64::consts::TAU).cos()
}

/// The adoption model: converts an event and a population into
/// download-initiation rates.
#[derive(Debug, Clone)]
pub struct AdoptionModel {
    /// The release being rolled out.
    pub event: UpdateEvent,
    /// Subsequent smaller releases inside the measurement window (the
    /// 11.0.1 / 11.0.2 / 11.1 markers of Figures 1 and 5).
    pub followups: Vec<UpdateEvent>,
    /// The candidate fleet.
    pub population: Population,
    /// Diurnal amplitude (0..1).
    pub diurnal_amplitude: f64,
    /// Pre-release background downloads as a fraction of the surge peak.
    pub background_level: f64,
}

impl AdoptionModel {
    /// A model with the amplitudes used throughout the reproduction.
    pub fn new(event: UpdateEvent, population: Population) -> AdoptionModel {
        AdoptionModel {
            event,
            followups: Vec::new(),
            population,
            diurnal_amplitude: 0.45,
            background_level: 0.04,
        }
    }

    /// Adds follow-up releases.
    pub fn with_followups(mut self, followups: Vec<UpdateEvent>) -> AdoptionModel {
        self.followups = followups;
        self
    }

    /// The event-driven surge rate of one release at `t` (no background, no
    /// diurnal factor): initial exponential plus decaying evening echoes.
    fn surge_rate(&self, event: &UpdateEvent, continent: Continent, t: SimTime) -> f64 {
        if t < event.release {
            return 0.0;
        }
        let pop = self.population.on(continent) as f64;
        let tau = event.surge_tau.as_secs() as f64;
        let adopters = pop * event.week_one_adoption;
        let peak = adopters / (tau * 2.1);
        let dt = t.since(event.release).as_secs() as f64;
        let mut rate = peak * (-dt / tau).exp();
        for day in 1..=6u32 {
            let centre = day as f64 * 86_400.0;
            let sigma = 6.0 * 3600.0;
            let echo = 0.35 * 0.55_f64.powi(day as i32 - 1);
            rate += peak * echo * (-((dt - centre) / sigma).powi(2) / 2.0).exp();
        }
        rate
    }

    /// Downloads initiated per second on `continent` at `t`.
    ///
    /// Shape: `background + surge·exp(-(t-T)/τ)·daily_echo`, all times the
    /// diurnal factor. The surge integral over the first week equals
    /// `week_one_adoption × population`.
    pub fn start_rate(&self, continent: Continent, t: SimTime) -> f64 {
        let pop = self.population.on(continent) as f64;
        let tau = self.event.surge_tau.as_secs() as f64;
        // Peak surge rate such that ∫ surge ≈ adopters (exp integral = τ,
        // day echoes roughly double it, hence the 2.1 divisor).
        let peak = pop * self.event.week_one_adoption / (tau * 2.1);
        let mut rate = peak * self.background_level;
        let primary = self.event; // UpdateEvent is Copy
        rate += self.surge_rate(&primary, continent, t);
        for i in 0..self.followups.len() {
            let f = self.followups[i];
            rate += self.surge_rate(&f, continent, t);
        }
        rate * diurnal(continent, t, self.diurnal_amplitude)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> AdoptionModel {
        AdoptionModel::new(UpdateEvent::ios_11(), Population::world_2017())
    }

    #[test]
    fn surge_starts_at_release() {
        let m = model();
        let before = m.start_rate(Continent::Europe, m.event.release - Duration::hours(1));
        let after = m.start_rate(Continent::Europe, m.event.release + Duration::mins(30));
        assert!(after > before * 5.0, "release must cause a sharp surge: {before} → {after}");
    }

    #[test]
    fn surge_decays_over_days() {
        let m = model();
        let t1 = m.event.release + Duration::hours(2);
        let t2 = m.event.release + Duration::days(5);
        assert!(m.start_rate(Continent::Europe, t1) > 3.0 * m.start_rate(Continent::Europe, t2));
    }

    #[test]
    fn day_after_echo_exceeds_late_week() {
        let m = model();
        // Evening of Sep 20 vs evening of Sep 25.
        let echo = m.start_rate(Continent::Europe, SimTime::from_ymd_hms(2017, 9, 20, 18, 0, 0));
        let late = m.start_rate(Continent::Europe, SimTime::from_ymd_hms(2017, 9, 25, 18, 0, 0));
        assert!(echo > late);
    }

    #[test]
    fn diurnal_peaks_in_local_evening() {
        let m = model();
        let t_noon_utc = SimTime::from_ymd_hms(2017, 9, 15, 12, 0, 0);
        let t_evening_utc = SimTime::from_ymd_hms(2017, 9, 15, 19, 0, 0);
        // For Europe (UTC+~0.7h) 19:00 UTC is close to 20:00 local.
        assert!(
            m.start_rate(Continent::Europe, t_evening_utc)
                > m.start_rate(Continent::Europe, t_noon_utc)
        );
    }

    #[test]
    fn rates_scale_with_population() {
        let m = model();
        let t = m.event.release + Duration::hours(1);
        let eu = m.start_rate(Continent::Europe, t);
        let oc = m.start_rate(Continent::Oceania, t);
        assert!(eu > oc * 3.0, "Europe has ~10x Oceania's devices");
    }

    #[test]
    fn week_one_integral_matches_adoption_roughly() {
        // No background, so only event-driven starts are counted.
        let m = AdoptionModel { background_level: 0.0, ..model() };
        let mut total = 0.0;
        let step = Duration::mins(30);
        let mut t = m.event.release;
        let end = m.event.release + Duration::days(7);
        while t < end {
            total += m.start_rate(Continent::Europe, t) * step.as_secs() as f64;
            t += step;
        }
        let expected = m.population.on(Continent::Europe) as f64 * m.event.week_one_adoption;
        let ratio = total / expected;
        assert!((0.6..=1.4).contains(&ratio), "integral off: ratio {ratio}");
    }

    #[test]
    fn background_is_positive_and_small() {
        let m = model();
        // Before the release the start rate is the background alone.
        let t = SimTime::from_ymd(2017, 9, 10);
        let bg = m.start_rate(Continent::Europe, t);
        assert!(bg > 0.0);
        let peak = m.start_rate(Continent::Europe, m.event.release + Duration::mins(10));
        assert!(bg < peak / 10.0);
    }
}

#[cfg(test)]
mod followup_tests {
    use super::*;

    #[test]
    fn followups_add_their_own_waves() {
        let base = AdoptionModel::new(UpdateEvent::ios_11(), Population::world_2017());
        let with = base.clone().with_followups(vec![
            UpdateEvent::ios_11_0_1(),
            UpdateEvent::ios_11_0_2(),
            UpdateEvent::ios_11_1(),
        ]);
        // At the 11.1 release evening, the follow-up model is far above the
        // tail of the 11.0-only model.
        let t = UpdateEvent::ios_11_1().release + Duration::hours(2);
        assert!(
            with.start_rate(Continent::Europe, t)
                > 3.0 * base.start_rate(Continent::Europe, t),
            "11.1 wave must appear"
        );
        // Before any follow-up, the two models agree exactly.
        let quiet = SimTime::from_ymd(2017, 9, 24);
        assert_eq!(
            with.start_rate(Continent::Europe, quiet),
            base.start_rate(Continent::Europe, quiet)
        );
    }

    #[test]
    fn minor_releases_are_smaller_than_major() {
        let m = AdoptionModel::new(UpdateEvent::ios_11(), Population::world_2017())
            .with_followups(vec![UpdateEvent::ios_11_0_1()]);
        let major = m.start_rate(Continent::Europe, UpdateEvent::ios_11().release + Duration::hours(1));
        let minor =
            m.start_rate(Continent::Europe, UpdateEvent::ios_11_0_1().release + Duration::hours(1));
        assert!(major > 1.5 * minor, "11.0 ≫ 11.0.1: {major} vs {minor}");
    }
}
