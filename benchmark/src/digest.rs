//! Output digests and the committed goldens they are checked against.
//!
//! A digest is FNV-64 over what a workload emits: its tables as CSV, its
//! counts, and the IP→class map sorted by address (`HashMap` iteration
//! order differs between processes). Process-local telemetry such as
//! `reused_resolutions` is left out: it describes how a result was
//! computed, not what it is.

use mcdn_analysis::Table;
use mcdn_faults::Fnv64;
use mcdn_scenario::CdnClass;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::net::Ipv4Addr;

#[derive(Default)]
pub struct Digest(Fnv64);

impl Digest {
    pub fn table(&mut self, t: &Table) {
        self.0.update(t.to_csv().as_bytes());
    }

    pub fn count(&mut self, label: &str, v: u64) {
        let _ = write!(self.0, "{label}={v};");
    }

    pub fn classes(&mut self, classes: &HashMap<Ipv4Addr, CdnClass>) {
        let mut sorted: Vec<(&Ipv4Addr, &CdnClass)> = classes.iter().collect();
        sorted.sort_unstable_by_key(|(ip, _)| **ip);
        for (ip, class) in sorted {
            let _ = write!(self.0, "{ip}:{class:?};");
        }
    }

    pub fn finish(&self) -> u64 {
        self.0.finish()
    }
}

/// The committed goldens, one `workload seed digest` line each.
pub const GOLDENS: &str = include_str!("../goldens/digests.txt");

/// The golden digest of `workload` at `seed`, if one is committed.
pub fn golden(goldens: &str, workload: &str, seed: u64) -> Option<u64> {
    goldens
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .find_map(|l| {
            let mut f = l.split_whitespace();
            let (w, s, d) = (f.next()?, f.next()?, f.next()?);
            (w == workload && s.parse() == Ok(seed)).then(|| u64::from_str_radix(d, 16).ok())?
        })
}

/// `goldens` with the line for `(workload, seed)` set to `digest`.
pub fn with_golden(goldens: &str, workload: &str, seed: u64, digest: u64) -> String {
    let line = format!("{workload} {seed} {digest:016x}");
    let mut out = String::new();
    let mut replaced = false;
    for l in goldens.lines() {
        let mut f = l.split_whitespace();
        if !l.starts_with('#') && f.next() == Some(workload) && f.next() == Some(&seed.to_string())
        {
            out.push_str(&line);
            replaced = true;
        } else {
            out.push_str(l);
        }
        out.push('\n');
    }
    if !replaced {
        out.push_str(&line);
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_digest_ignores_insertion_order() {
        let entries: Vec<(Ipv4Addr, CdnClass)> = (0..500u32)
            .map(|i| {
                (
                    Ipv4Addr::from(0x0a00_0000 + i * 7919),
                    CdnClass::ALL[i as usize % 6],
                )
            })
            .collect();
        let forward: HashMap<_, _> = entries.iter().copied().collect();
        let mut backward = HashMap::with_capacity(4096);
        for &(ip, class) in entries.iter().rev() {
            backward.insert(ip, class);
        }
        let (mut a, mut b) = (Digest::default(), Digest::default());
        a.classes(&forward);
        b.classes(&backward);
        assert_eq!(a.finish(), b.finish());

        // And it still sees a changed class.
        backward.insert(entries[3].0, CdnClass::Other);
        let mut c = Digest::default();
        c.classes(&backward);
        assert_ne!(a.finish(), c.finish());
    }

    #[test]
    fn goldens_round_trip() {
        let text = "# comment\npaper_pipeline 7 00000000000000ff\n";
        assert_eq!(golden(text, "paper_pipeline", 7), Some(0xff));
        assert_eq!(golden(text, "paper_pipeline", 8), None);
        assert_eq!(golden(text, "faulted", 7), None);
        let updated = with_golden(text, "paper_pipeline", 7, 0xabc);
        assert_eq!(golden(&updated, "paper_pipeline", 7), Some(0xabc));
        assert!(updated.starts_with("# comment\n"));
        let added = with_golden(&updated, "faulted", 7, 1);
        assert_eq!(golden(&added, "faulted", 7), Some(1));
        assert_eq!(golden(&added, "paper_pipeline", 7), Some(0xabc));
    }

    #[test]
    fn committed_goldens_parse() {
        for l in GOLDENS
            .lines()
            .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        {
            let f: Vec<&str> = l.split_whitespace().collect();
            assert_eq!(f.len(), 3, "bad golden line {l:?}");
            assert!(
                f[1].parse::<u64>().is_ok() && u64::from_str_radix(f[2], 16).is_ok(),
                "{l:?}"
            );
        }
    }
}
