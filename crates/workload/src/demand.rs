//! Converting initiation rates into offered network load.

use crate::adoption::AdoptionModel;
use mcdn_geo::{Continent, SimTime};

/// Offered download load on `continent` at `t`, in bits per second.
///
/// By Little's law, a download process with start rate `r` (downloads/s)
/// each transferring `S` bits offers a steady load of `r · S` bits/s,
/// independent of individual download durations.
pub fn demand_bps(model: &AdoptionModel, continent: Continent, t: SimTime) -> f64 {
    model.start_rate(continent, t) * model.event.image_bytes as f64 * 8.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adoption::UpdateEvent;
    use crate::population::Population;
    use mcdn_geo::Duration;

    #[test]
    fn demand_is_rate_times_size() {
        let m = AdoptionModel::new(UpdateEvent::ios_11(), Population::world_2017());
        let t = m.event.release + Duration::hours(1);
        let r = m.start_rate(Continent::Europe, t);
        assert_eq!(demand_bps(&m, Continent::Europe, t), r * 2_800_000_000.0 * 8.0);
    }

    #[test]
    fn europe_peak_demand_is_terabit_scale() {
        // Sanity: 240 M devices, 25% adopting over a week, 2.8 GB image —
        // the release-hour peak must be on the order of terabits/s, which is
        // why no single CDN could absorb it.
        let m = AdoptionModel::new(UpdateEvent::ios_11(), Population::world_2017());
        let peak = demand_bps(&m, Continent::Europe, m.event.release + Duration::mins(10));
        assert!(peak > 5e12, "got {peak:.3e}");
        assert!(peak < 5e14, "got {peak:.3e}");
    }

    #[test]
    fn background_much_smaller_than_event_peak() {
        let m = AdoptionModel::new(UpdateEvent::ios_11(), Population::world_2017());
        // Two days before the release the demand is the background alone.
        let t0 = m.event.release - Duration::days(2);
        let bg = demand_bps(&m, Continent::Europe, t0);
        let peak = demand_bps(&m, Continent::Europe, m.event.release + Duration::mins(10));
        assert!(bg * 10.0 < peak);
    }
}
