//! The global iOS device population.

use mcdn_geo::Continent;

/// iOS device counts per continent.
///
/// The paper cites "up to 1 billion iOS devices" (iPhone, iPad, iPod) as the
/// candidate population; [`Population::world_2017`] distributes that across
/// continents roughly following Apple's 2017 market footprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Population {
    counts: [u64; 6], // indexed by Continent::ALL order
}

impl Population {
    /// A population with explicit per-continent counts, given in
    /// [`Continent::ALL`] order (Africa, Asia, Europe, North America,
    /// Oceania, South America).
    pub fn new(counts: [u64; 6]) -> Population {
        Population { counts }
    }

    /// The ~1-billion-device 2017 estimate used by the scenario.
    pub fn world_2017() -> Population {
        Population::new([
            20_000_000,  // Africa
            360_000_000, // Asia
            240_000_000, // Europe
            310_000_000, // North America
            25_000_000,  // Oceania
            45_000_000,  // South America
        ])
    }

    /// Devices on `continent`.
    pub fn on(&self, continent: Continent) -> u64 {
        let idx = Continent::ALL.iter().position(|c| *c == continent).expect("all continents listed");
        self.counts[idx]
    }

    /// Total devices worldwide.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn world_total_near_one_billion() {
        let p = Population::world_2017();
        assert_eq!(p.total(), 1_000_000_000);
    }

    #[test]
    fn per_continent_lookup() {
        let p = Population::world_2017();
        assert_eq!(p.on(Continent::Europe), 240_000_000);
        assert!(p.on(Continent::NorthAmerica) > p.on(Continent::Africa));
    }
}
