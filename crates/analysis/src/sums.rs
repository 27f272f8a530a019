//! Per-key totals of a volume stream, added in stream order.

use std::collections::BTreeMap;

/// Per-key `f64` totals that add each key's values in the order they
/// arrive, so every total is bit-identical to
/// `*map.entry(key).or_insert(0.0) += value` over the same stream. A run
/// of values under one key costs no map lookup; the scaled NetFlow stream
/// is tick-major, so its (hour, CDN) key changes only every few hundred
/// records.
pub(crate) struct OrderedSums<K> {
    totals: BTreeMap<K, f64>,
    /// The current run's key and running total, not yet in `totals`.
    run: Option<(K, f64)>,
}

impl<K: Ord + Copy> OrderedSums<K> {
    pub(crate) fn new() -> OrderedSums<K> {
        OrderedSums { totals: BTreeMap::new(), run: None }
    }

    /// Adds `value` to `key`'s total.
    pub(crate) fn add(&mut self, key: K, value: f64) {
        match &mut self.run {
            Some((k, total)) if *k == key => *total += value,
            _ => {
                self.flush();
                let total = self.totals.get(&key).copied().unwrap_or(0.0);
                self.run = Some((key, total + value));
            }
        }
    }

    /// The totals, keyed.
    pub(crate) fn into_map(mut self) -> BTreeMap<K, f64> {
        self.flush();
        self.totals
    }

    fn flush(&mut self) {
        if let Some((key, total)) = self.run.take() {
            self.totals.insert(key, total);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_match_entry_sums_bit_for_bit() {
        // Runs and interleavings of keys whose sums depend on the order:
        // 1e16 + 1 + 1 - 1e16 is 0 added left to right, 2 pre-summed.
        let stream = [
            (2, 0.1),
            (1, 1e16),
            (1, 1.0),
            (1, 1.0),
            (2, 0.2),
            (2, 0.3),
            (1, -1e16),
            (3, 0.7),
            (1, 1.0),
            (2, 1e-3),
        ];
        let mut sums = OrderedSums::new();
        let mut want: BTreeMap<u8, f64> = BTreeMap::new();
        for (key, value) in stream {
            sums.add(key, value);
            *want.entry(key).or_insert(0.0) += value;
        }
        let got = sums.into_map();
        assert_eq!(got.keys().collect::<Vec<_>>(), want.keys().collect::<Vec<_>>());
        for (key, total) in &want {
            assert_eq!(got[key].to_bits(), total.to_bits(), "key {key}");
        }
    }
}
