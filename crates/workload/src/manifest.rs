//! The `mesu.apple.com` update manifests and the polling load they create.
//!
//! §3.1 of the paper: "iOS devices download two manifest files from
//! mesu.apple.com once per hour … The first file, termed manifest, contains
//! the version and download URL for every device and OS version combination
//! with about 1800 entries as of July 2017, and the second file contains
//! only six entries."

/// One `(device, OS version)` row of the manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestEntry {
    /// Device board identifier, e.g. `iPhone9,4`.
    pub device: String,
    /// OS version string, e.g. `11.0`.
    pub os_version: String,
    /// Build identifier, e.g. `15A372`.
    pub build: String,
    /// Download URL on the update CDN entry point.
    pub url: String,
}

/// A `SoftwareUpdate` manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Rows, one per supported device/version pair.
    pub entries: Vec<ManifestEntry>,
}

/// Device families shipping iOS updates in 2017.
const DEVICES: &[&str] = &[
    "iPhone5,1", "iPhone5,2", "iPhone5,3", "iPhone5,4", "iPhone6,1", "iPhone6,2", "iPhone7,1",
    "iPhone7,2", "iPhone8,1", "iPhone8,2", "iPhone8,4", "iPhone9,1", "iPhone9,2", "iPhone9,3",
    "iPhone9,4", "iPhone10,1", "iPhone10,2", "iPhone10,3", "iPad4,1", "iPad4,2", "iPad5,3",
    "iPad5,4", "iPad6,3", "iPad6,4", "iPad6,7", "iPad6,8", "iPad7,1", "iPad7,2", "iPad7,3",
    "iPad7,4", "iPod7,1", "iPod9,1", "AppleTV5,3", "AppleTV6,2", "Watch2,3", "Watch3,1",
];

impl Manifest {
    /// Generates the full device × version matrix, sized like the real file
    /// (~1800 entries): 36 devices × 50 version/build rows.
    pub fn software_update() -> Manifest {
        let mut entries = Vec::new();
        for device in DEVICES {
            for minor in 0..50u32 {
                let (maj, min, patch) = (8 + minor / 16, (minor % 16) / 4, minor % 4);
                let os_version = format!("{maj}.{min}.{patch}");
                let build = format!("{}{}A{:03}", 11 + maj, (b'A' + (min as u8)) as char, 100 + minor);
                entries.push(ManifestEntry {
                    device: device.to_string(),
                    os_version: os_version.clone(),
                    build: build.clone(),
                    url: format!(
                        "http://appldnld.apple.com/ios{os_version}/{device}_{os_version}_{build}_Restore.ipsw"
                    ),
                });
            }
        }
        Manifest { entries }
    }

    /// The six-entry last-resort "UpdateBrain" file that lets devices with
    /// very old software bootstrap an upgrade.
    pub fn update_brain() -> Manifest {
        let entries = (1..=6)
            .map(|i| ManifestEntry {
                device: "any".to_string(),
                os_version: format!("{}.0", 5 + i),
                build: format!("UB{i:03}"),
                url: format!("http://appldnld.apple.com/updatebrain/ub{i}.zip"),
            })
            .collect();
        Manifest { entries }
    }

    /// Entries matching a device.
    pub fn for_device<'a>(&'a self, device: &'a str) -> impl Iterator<Item = &'a ManifestEntry> {
        self.entries.iter().filter(move |e| e.device == device)
    }

    /// The newest version listed for a device (lexicographically by parsed
    /// version triple).
    pub fn latest_for<'a>(&'a self, device: &'a str) -> Option<&'a ManifestEntry> {
        self.for_device(device).max_by_key(|e| {
            let mut it = e.os_version.split('.').map(|p| p.parse::<u32>().unwrap_or(0));
            (it.next().unwrap_or(0), it.next().unwrap_or(0), it.next().unwrap_or(0))
        })
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the manifest is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Aggregate manifest-poll query rate (requests/second) of a device fleet
/// that polls hourly: `devices / 3600`.
pub fn poll_rate_qps(devices: u64) -> f64 {
    devices as f64 / 3600.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn software_update_has_about_1800_entries() {
        let m = Manifest::software_update();
        assert_eq!(m.len(), 36 * 50);
        assert!((1700..=1900).contains(&m.len()), "paper: ~1800 entries");
    }

    #[test]
    fn update_brain_has_six_entries() {
        assert_eq!(Manifest::update_brain().len(), 6);
    }

    #[test]
    fn urls_point_at_the_entry_host() {
        let m = Manifest::software_update();
        assert!(m.entries.iter().all(|e| e.url.contains("appldnld.apple.com")));
    }

    #[test]
    fn latest_version_is_maximal() {
        let m = Manifest::software_update();
        let latest = m.latest_for("iPhone9,4").unwrap();
        for e in m.for_device("iPhone9,4") {
            assert!(e.os_version <= latest.os_version || e.os_version.len() < latest.os_version.len());
        }
        assert!(m.latest_for("iPhone99,9").is_none());
    }

    #[test]
    fn hourly_poll_rate() {
        // 1 B devices polling hourly ≈ 278 k qps on mesu.
        let qps = poll_rate_qps(1_000_000_000);
        assert!((qps - 277_777.8).abs() < 1.0);
    }
}
