//! 95/5 percentile billing.
//!
//! Transit is commonly billed on the 95th percentile of 5-minute traffic
//! samples over a month: the top 5% of samples are free, the 95th-percentile
//! sample sets the bill. The paper notes (§5.4) that Limelight's three-day
//! overflow spike through "AS D" can raise that AS's monthly bill multifold
//! — three days is ~4.3% of a month, *just* under the free 5%, so even a
//! slightly longer spike lands squarely on the billed percentile.

/// The 95th-percentile sample of 5-minute byte counts, in bits per second.
///
/// Uses the conventional "discard the top 5% of samples, bill the maximum
/// of the rest" method. Returns 0 for an empty series.
pub fn percentile_95_5(samples_bytes_per_5min: &[u64]) -> f64 {
    if samples_bytes_per_5min.is_empty() {
        return 0.0;
    }
    let mut sorted = samples_bytes_per_5min.to_vec();
    sorted.sort_unstable();
    // Index of the 95th percentile (floor convention).
    let idx = ((sorted.len() as f64) * 0.95).ceil() as usize - 1;
    let idx = idx.min(sorted.len() - 1);
    sorted[idx] as f64 * 8.0 / 300.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_series_bills_zero() {
        assert_eq!(percentile_95_5(&[]), 0.0);
    }

    #[test]
    fn constant_series_bills_the_constant() {
        let samples = vec![300_000u64; 100]; // 300 kB / 5 min = 8 kbps
        assert!((percentile_95_5(&samples) - 8000.0).abs() < 1e-9);
    }

    #[test]
    fn top_five_percent_is_free() {
        // 96 low samples, 4 huge ones (4% of 100): the spike is free.
        let mut samples = vec![300_000u64; 96];
        samples.extend([u64::MAX / 16; 4]);
        assert!((percentile_95_5(&samples) - 8000.0).abs() < 1e-9);
    }

    #[test]
    fn spike_longer_than_five_percent_is_billed() {
        // 94 low samples + 6 huge ones (6%): the spike sets the bill.
        let mut samples = vec![300_000u64; 94];
        samples.extend([3_000_000u64; 6]);
        let billed = percentile_95_5(&samples);
        assert!((billed - 80_000.0).abs() < 1e-9, "got {billed}");
    }

    #[test]
    fn three_day_spike_in_a_month_raises_the_bill() {
        // The paper's AS-D case: a month of quiet traffic with a 3-day
        // overflow spike. 3 days of 30 = 10% of samples — well beyond the
        // free 5%, so the bill jumps to the spike level.
        // 5-minute samples: 288 a day.
        let month = 30 * 288;
        let spike = 3 * 288;
        let mut samples = vec![1_000_000u64; month - spike];
        samples.extend(vec![50_000_000u64; spike]);
        let billed = percentile_95_5(&samples);
        let quiet_bill = percentile_95_5(&vec![1_000_000u64; month]);
        assert!(billed > quiet_bill * 10.0, "spike must dominate: {billed} vs {quiet_bill}");
    }

    #[test]
    fn single_sample() {
        assert!((percentile_95_5(&[300_000]) - 8000.0).abs() < 1e-9);
    }
}
