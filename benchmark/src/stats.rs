//! Order statistics and the regression rule.

/// Nearest-rank index of the `pct` percentile in a sorted sample of `len`
/// values: the smallest index whose rank covers `pct` percent of the
/// sample, `ceil(len * pct / 100) - 1`.
pub fn nearest_rank(len: usize, pct: usize) -> usize {
    assert!(
        len > 0 && (1..=100).contains(&pct),
        "percentile of an empty sample"
    );
    (len * pct).div_ceil(100) - 1
}

/// Median, first and third quartile of a sample, by nearest rank.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Summary {
    /// Summarizes `values`; `None` for an empty sample.
    pub fn of(values: &[f64]) -> Option<Summary> {
        if values.is_empty() {
            return None;
        }
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let at = |pct| v[nearest_rank(v.len(), pct)];
        Some(Summary {
            q1: at(25),
            median: at(50),
            q3: at(75),
        })
    }
}

/// The `pct` percentile of `values` by nearest rank (0 for no values).
pub fn percentile(values: &[f64], pct: usize) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[nearest_rank(v.len(), pct)]
}

/// The `pct` percentile of a log₂-bucketed histogram, reported as the
/// upper edge of the bucket holding that rank (bucket `b > 0` holds
/// `2^(b-1) ..= 2^b - 1`). 0 for an empty histogram.
pub fn hist_percentile(h: &mcdn_obs::Hist, pct: usize) -> f64 {
    let count = h.count();
    if count == 0 {
        return 0.0;
    }
    let rank = nearest_rank(count as usize, pct) as u64 + 1;
    let mut seen = 0u64;
    for (b, &n) in h.buckets().iter().enumerate() {
        seen += n;
        if seen >= rank {
            return if b == 0 {
                0.0
            } else {
                ((1u128 << b) - 1) as f64
            };
        }
    }
    unreachable!("bucket counts sum to the histogram count")
}

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    #[cfg(test)]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// The best of `values` in the direction `better` (NaN for no values).
pub fn best(better: Better, values: &[f64]) -> f64 {
    let pick = match better {
        Better::Lower => f64::min,
        Better::Higher => f64::max,
    };
    values.iter().copied().reduce(pick).unwrap_or(f64::NAN)
}

/// Whether `change` is worse than `parent` by more than the allowed
/// slack: `bound` as a share of the parent, or the absolute `floor` in
/// the metric's own unit, whichever is larger.
pub fn regressed(better: Better, bound: f64, floor: f64, parent: f64, change: f64) -> bool {
    let slack = (bound * parent.abs()).max(floor);
    match better {
        Better::Lower => change > parent + slack,
        Better::Higher => change < parent - slack,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_is_ceiling_based() {
        assert_eq!(nearest_rank(1, 50), 0);
        assert_eq!(nearest_rank(2, 50), 0);
        assert_eq!(nearest_rank(2, 75), 1);
        assert_eq!(nearest_rank(4, 25), 0);
        assert_eq!(nearest_rank(4, 75), 2);
        assert_eq!(nearest_rank(5, 50), 2);
        assert_eq!(nearest_rank(10, 99), 9);
    }

    #[test]
    fn summary_sorts_then_ranks() {
        let s = Summary::of(&[5.0, 1.0, 4.0, 2.0, 3.0]).expect("non-empty");
        assert_eq!(
            s,
            Summary {
                q1: 2.0,
                median: 3.0,
                q3: 4.0
            }
        );
        let one = Summary::of(&[7.0]).expect("non-empty");
        assert_eq!(
            one,
            Summary {
                q1: 7.0,
                median: 7.0,
                q3: 7.0
            }
        );
        assert!(Summary::of(&[]).is_none());
        // An even count takes the lower middle, never an interpolation.
        assert_eq!(
            Summary::of(&[1.0, 2.0, 3.0, 4.0]).map(|s| s.median),
            Some(2.0)
        );
    }

    #[test]
    fn hist_percentile_reports_bucket_upper_edges() {
        let mut h = mcdn_obs::Hist::new();
        for v in [1, 2, 3, 100, 100, 100, 100, 100, 5000, 0] {
            h.observe(v);
        }
        // Sorted buckets: 0 | 1 | 2,3 | 100 ×5 (bucket 7: 64..=127) | 5000.
        assert_eq!(hist_percentile(&h, 50), 127.0);
        assert_eq!(hist_percentile(&h, 10), 0.0);
        assert_eq!(hist_percentile(&h, 99), 8191.0);
        assert_eq!(hist_percentile(&mcdn_obs::Hist::new(), 50), 0.0);
    }

    #[test]
    fn best_follows_the_direction() {
        let v = [1.3, 1.1, 2.0];
        assert_eq!(best(Better::Lower, &v), 1.1);
        assert_eq!(best(Better::Higher, &v), 2.0);
        assert!(best(Better::Lower, &[]).is_nan());
    }

    #[test]
    fn bound_check_uses_share_or_floor() {
        // 10% bound on a lower-is-better time.
        assert!(!regressed(Better::Lower, 0.10, 0.0, 2.0, 2.19));
        assert!(regressed(Better::Lower, 0.10, 0.0, 2.0, 2.21));
        assert!(!regressed(Better::Lower, 0.10, 0.0, 2.0, 1.0));
        // Higher is better: a drop beyond the bound regresses.
        assert!(!regressed(Better::Higher, 0.10, 0.0, 100.0, 91.0));
        assert!(regressed(Better::Higher, 0.10, 0.0, 100.0, 89.0));
        // setup_s: 25% or 5 ms, whichever is larger. On a 10 ms setup the
        // floor dominates (slack 5 ms, not 2.5 ms) ...
        assert!(!regressed(Better::Lower, 0.25, 0.005, 0.010, 0.0149));
        assert!(regressed(Better::Lower, 0.25, 0.005, 0.010, 0.0151));
        // ... and on a 1 s setup the share does (slack 250 ms).
        assert!(!regressed(Better::Lower, 0.25, 0.005, 1.0, 1.24));
        assert!(regressed(Better::Lower, 0.25, 0.005, 1.0, 1.26));
    }
}
