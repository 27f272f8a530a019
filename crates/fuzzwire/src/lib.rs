//! Deterministic structured mutation fuzzer for the `mcdn-dnswire` codec.
//!
//! Probe fleets see truncated, bit-flipped, pointer-looped, and otherwise
//! corrupted DNS messages in the wild; the campaign engine must treat every
//! one as *data* (a typed [`WireError`](mcdn_dnswire::WireError)), never as a panic. This crate pins
//! that contract with a fully deterministic harness: a fixed-seed
//! [`SplitMix64`] stream drives structured mutations over a seed corpus of
//! valid messages, and [`run_fuzz`] asserts that
//!
//! 1. `Message::decode` never panics on any input,
//! 2. `Message::validate`, the decoder's check-only sink, returns the same
//!    verdict as `Message::decode` on every input, error included,
//! 3. any message that *does* decode re-encodes and re-decodes to the same
//!    value (canonical stability), and
//! 4. the unmutated seeds survive an exact `decode(encode(m)) == m`
//!    round-trip.
//!
//! There is no randomness source beyond the caller-supplied seed, so a fuzz
//! failure is a reproducible test case, not a flake. A committed corpus of
//! interesting wire shapes lives in `tests/corpus/*.hex` and is replayed by
//! [`replay_corpus`] (and by `scripts/ci.sh` via the `fuzz_smoke` binary).

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use std::net::{Ipv4Addr, Ipv6Addr};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;

use mcdn_dnswire::{Message, Name, RData, Rcode, RecordType, ResourceRecord, Soa};

/// Stateless-friendly SplitMix64 PRNG: the entire fuzz run is a pure
/// function of the initial seed.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A generator starting from `seed`.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `0..n`.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0)");
        (self.next_u64() % n as u64) as usize
    }
}

fn n(s: &str) -> Name {
    Name::parse(s).expect("static seed name parses")
}

/// The seed messages the mutator works from: one of each interesting wire
/// shape the simulator actually produces (query, CNAME chain, referral with
/// SOA/NS/glue, TXT/AAAA/PTR records, opaque RDATA).
pub fn seed_messages() -> Vec<Message> {
    let mut seeds = Vec::new();

    // Plain recursive query.
    seeds.push(Message::query(0x1234, n("mesu.apple.com"), RecordType::A));

    // The paper's canonical CNAME chain ending in an A record.
    let q = Message::query(0xBEEF, n("appldnld.apple.com"), RecordType::A);
    let mut resp = Message::response_to(&q, Rcode::NoError);
    resp.answers = vec![
        ResourceRecord::new(
            n("appldnld.apple.com"),
            21600,
            RData::Cname(n("appldnld.apple.com.akadns.net")),
        ),
        ResourceRecord::new(
            n("appldnld.apple.com.akadns.net"),
            120,
            RData::Cname(n("appldnld.g.applimg.com")),
        ),
        ResourceRecord::new(
            n("appldnld.g.applimg.com"),
            20,
            RData::A(Ipv4Addr::new(17, 253, 37, 16)),
        ),
    ];
    seeds.push(resp);

    // NXDOMAIN with an SOA in the authority section plus NS + glue.
    let q = Message::query(0x0042, n("missing.apple.com"), RecordType::A);
    let mut nx = Message::response_to(&q, Rcode::NxDomain);
    nx.authorities = vec![
        ResourceRecord::new(
            n("apple.com"),
            3600,
            RData::Soa(Box::new(Soa {
                mname: n("adns1.apple.com"),
                rname: n("hostmaster.apple.com"),
                serial: 2_018_091_800,
                refresh: 1800,
                retry: 900,
                expire: 2_016_000,
                minimum: 3600,
            })),
        ),
        ResourceRecord::new(n("apple.com"), 3600, RData::Ns(n("adns1.apple.com"))),
        ResourceRecord::new(n("apple.com"), 3600, RData::Ns(n("adns2.apple.com"))),
    ];
    nx.additionals = vec![
        ResourceRecord::new(n("adns1.apple.com"), 3600, RData::A(Ipv4Addr::new(17, 254, 0, 50))),
        ResourceRecord::new(n("adns2.apple.com"), 3600, RData::A(Ipv4Addr::new(17, 254, 0, 59))),
    ];
    seeds.push(nx);

    // TXT + AAAA + PTR + opaque RDATA, all in one message.
    let q = Message::query(0x7A7A, n("probe.aaplimg.com"), RecordType::Txt);
    let mut misc = Message::response_to(&q, Rcode::NoError);
    misc.answers = vec![
        ResourceRecord::new(
            n("probe.aaplimg.com"),
            300,
            RData::Txt(vec![b"pop=usnyc3".to_vec(), b"tier=edge".to_vec()]),
        ),
        ResourceRecord::new(
            n("probe.aaplimg.com"),
            300,
            RData::Aaaa(Ipv6Addr::new(0x2620, 0x149, 0xa44, 0, 0, 0, 0, 0x16)),
        ),
        ResourceRecord::new(
            n("16.37.253.17.in-addr.arpa"),
            3600,
            RData::Ptr(n("usnyc3-vip-bx-016.aaplimg.com")),
        ),
        ResourceRecord::new(
            n("probe.aaplimg.com"),
            60,
            RData::Other(0x63, vec![0xDE, 0xAD, 0xBE, 0xEF]),
        ),
    ];
    seeds.push(misc);

    // Deep name near the label/name caps.
    let long = Name::from_labels([
        vec![b'a'; 63],
        vec![b'b'; 63],
        vec![b'c'; 63],
        b"apple.example".to_vec(),
    ])
    .expect("capped name is valid");
    seeds.push(Message::query(0x00FF, long, RecordType::Aaaa));

    seeds
}

/// The encoded wire bytes of [`seed_messages`].
pub fn seed_corpus() -> Vec<Vec<u8>> {
    seed_messages()
        .iter()
        .map(|m| m.encode().expect("seed messages encode"))
        .collect()
}

/// Verifies `decode(encode(m)) == m` for every seed message. Returns a
/// description of the first violation, if any.
pub fn check_seed_roundtrips() -> Result<(), String> {
    for (i, msg) in seed_messages().iter().enumerate() {
        let bytes = msg.encode().map_err(|e| format!("seed {i} failed to encode: {e:?}"))?;
        match Message::decode(&bytes) {
            Ok(back) if back == *msg => {}
            Ok(_) => return Err(format!("seed {i} decoded to a different message")),
            Err(e) => return Err(format!("seed {i} failed to decode: {e:?}")),
        }
    }
    Ok(())
}

/// Number of distinct mutation strategies `mutate` cycles through.
const STRATEGIES: usize = 8;

/// Produces one mutated message: picks a seed and a structured mutation
/// strategy (truncation, bit flips, byte splices, compression-pointer
/// injection, reserved label types, header count inflation, random blobs,
/// trailing garbage) from the PRNG stream.
pub fn mutate(rng: &mut SplitMix64, seeds: &[Vec<u8>]) -> Vec<u8> {
    let mut bytes = seeds[rng.below(seeds.len())].clone();
    match rng.below(STRATEGIES) {
        // Truncate at an arbitrary point (mid-header, mid-name, mid-RDATA).
        0 => {
            let keep = rng.below(bytes.len());
            bytes.truncate(keep);
        }
        // Flip 1..=8 random bits.
        1 => {
            for _ in 0..=rng.below(8) {
                let i = rng.below(bytes.len());
                bytes[i] ^= 1 << rng.below(8);
            }
        }
        // Overwrite a short run with random bytes.
        2 => {
            let start = rng.below(bytes.len());
            let run = 1 + rng.below(16.min(bytes.len() - start));
            for b in &mut bytes[start..start + run] {
                *b = (rng.next_u64() & 0xFF) as u8;
            }
        }
        // Inject a compression pointer with an arbitrary target: self
        // loops, forward pointers, and offsets past the message end.
        3 => {
            let at = rng.below(bytes.len());
            let target = rng.below(0x4000);
            bytes[at] = 0xC0 | ((target >> 8) as u8);
            if at + 1 < bytes.len() {
                bytes[at + 1] = (target & 0xFF) as u8;
            }
        }
        // Plant a reserved label type / over-long label length octet.
        4 => {
            let at = rng.below(bytes.len());
            bytes[at] = 0x40 | (rng.next_u64() & 0x7F) as u8;
        }
        // Inflate one of the four section counts.
        5 => {
            let field = 4 + 2 * rng.below(4);
            let claim = (rng.next_u64() & 0xFFFF) as u16;
            if field + 1 < bytes.len() {
                bytes[field..field + 2].copy_from_slice(&claim.to_be_bytes());
            }
        }
        // Pure random blob, header-sized and up.
        6 => {
            let len = rng.below(512);
            bytes.clear();
            bytes.extend((0..len).map(|_| (rng.next_u64() & 0xFF) as u8));
        }
        // Append trailing garbage (stale rdlen/count expectations).
        _ => {
            let extra = 1 + rng.below(64);
            bytes.extend((0..extra).map(|_| (rng.next_u64() & 0xFF) as u8));
        }
    }
    bytes
}

/// Tallies from one fuzz run or corpus replay. `panics`,
/// `roundtrip_failures` and `sink_disagreements` are hard failures; the
/// ok/error split is data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FuzzReport {
    /// Messages fed to the decoder.
    pub iterations: u64,
    /// Inputs that decoded successfully.
    pub decoded_ok: u64,
    /// Inputs rejected with a typed [`WireError`](mcdn_dnswire::WireError).
    pub decode_errors: u64,
    /// Inputs that made the codec panic. Must be zero.
    pub panics: u64,
    /// Decoded messages whose re-encode ∘ re-decode changed the value.
    /// Must be zero.
    pub roundtrip_failures: u64,
    /// Inputs on which `Message::validate` and `Message::decode` returned
    /// different verdicts or errors. Must be zero.
    pub sink_disagreements: u64,
}

impl FuzzReport {
    /// True when the run saw no panic, round-trip violation or sink
    /// disagreement.
    pub fn clean(&self) -> bool {
        self.panics == 0 && self.roundtrip_failures == 0 && self.sink_disagreements == 0
    }
}

/// Feeds one input through both decoder sinks (and, on success, through
/// the re-encode/re-decode stability check), updating `report`.
fn exercise(bytes: &[u8], report: &mut FuzzReport) {
    report.iterations += 1;
    let both =
        catch_unwind(AssertUnwindSafe(|| (Message::decode(bytes), Message::validate(bytes))));
    let Ok((decoded, validated)) = both else {
        report.panics += 1;
        return;
    };
    if decoded.as_ref().err() != validated.as_ref().err() {
        report.sink_disagreements += 1;
    }
    match decoded {
        Err(_) => report.decode_errors += 1,
        Ok(msg) => {
            report.decoded_ok += 1;
            // Anything that decodes must re-encode into bytes that decode
            // back to the same message: the decoded form is canonical.
            let stable = catch_unwind(AssertUnwindSafe(|| {
                let reenc = msg.encode().map_err(|e| format!("re-encode failed: {e:?}"))?;
                match Message::decode(&reenc) {
                    Ok(back) if back == msg => Ok::<(), String>(()),
                    Ok(_) => Err("re-decode changed the message".to_string()),
                    Err(e) => Err(format!("re-decode failed: {e:?}")),
                }
            }));
            match stable {
                Err(_) => report.panics += 1,
                Ok(Err(_)) => report.roundtrip_failures += 1,
                Ok(Ok(())) => {}
            }
        }
    }
}

/// Runs `iterations` seeded mutations through the decoder. The whole run is
/// a pure function of `seed`.
pub fn run_fuzz(seed: u64, iterations: u64) -> FuzzReport {
    let seeds = seed_corpus();
    let mut rng = SplitMix64::new(seed);
    let mut report = FuzzReport::default();
    for _ in 0..iterations {
        let bytes = mutate(&mut rng, &seeds);
        exercise(&bytes, &mut report);
    }
    report
}

/// Parses a `.hex` corpus file: hex octets, whitespace-insensitive, with
/// `#` line comments.
pub fn parse_hex(text: &str) -> Result<Vec<u8>, String> {
    let mut nibbles = Vec::new();
    for line in text.lines() {
        let line = line.split('#').next().unwrap_or("");
        for ch in line.chars() {
            if ch.is_whitespace() {
                continue;
            }
            let v = ch.to_digit(16).ok_or_else(|| format!("non-hex character {ch:?}"))?;
            nibbles.push(v as u8);
        }
    }
    if nibbles.len() % 2 != 0 {
        return Err("odd number of hex digits".to_string());
    }
    Ok(nibbles.chunks(2).map(|p| (p[0] << 4) | p[1]).collect())
}

/// Loads every `*.hex` file under `dir`, sorted by file name for
/// deterministic replay order.
pub fn load_corpus(dir: &Path) -> Result<Vec<(String, Vec<u8>)>, String> {
    let mut entries = Vec::new();
    let rd = std::fs::read_dir(dir).map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
    for entry in rd {
        let entry = entry.map_err(|e| format!("read_dir entry: {e}"))?;
        let path = entry.path();
        if path.extension().and_then(|e| e.to_str()) != Some("hex") {
            continue;
        }
        let name = path
            .file_name()
            .and_then(|f| f.to_str())
            .unwrap_or("<non-utf8>")
            .to_string();
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
        let bytes = parse_hex(&text).map_err(|e| format!("{name}: {e}"))?;
        entries.push((name, bytes));
    }
    if entries.is_empty() {
        return Err(format!("no .hex files in {}", dir.display()));
    }
    entries.sort();
    Ok(entries)
}

/// Replays the committed corpus through the decoder: every file must
/// decode-or-error without panicking, and decoded files must round-trip.
pub fn replay_corpus(dir: &Path) -> Result<FuzzReport, String> {
    let mut report = FuzzReport::default();
    for (_, bytes) in load_corpus(dir)? {
        exercise(&bytes, &mut report);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The committed corpus, relative to this crate.
    fn corpus_dir() -> std::path::PathBuf {
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/corpus")
    }

    #[test]
    fn seeds_roundtrip_exactly() {
        check_seed_roundtrips().unwrap();
    }

    #[test]
    fn fuzz_run_is_clean_and_exercises_both_outcomes() {
        let report = run_fuzz(0x5EED_D15E, 4000);
        assert_eq!(report.iterations, 4000);
        assert!(report.clean(), "fuzz run not clean: {report:?}");
        assert!(report.decoded_ok > 0, "no mutated input decoded: {report:?}");
        assert!(report.decode_errors > 0, "no mutated input errored: {report:?}");
    }

    #[test]
    fn fuzz_run_is_deterministic() {
        assert_eq!(run_fuzz(42, 1500), run_fuzz(42, 1500));
        assert_ne!(run_fuzz(42, 1500), run_fuzz(43, 1500));
    }

    #[test]
    fn parse_hex_handles_comments_whitespace_and_errors() {
        assert_eq!(parse_hex("12 34 # trailing\n  AB\ncd").unwrap(), vec![0x12, 0x34, 0xAB, 0xCD]);
        assert_eq!(parse_hex("# only a comment\n").unwrap(), Vec::<u8>::new());
        assert!(parse_hex("123").unwrap_err().contains("odd"));
        assert!(parse_hex("zz").unwrap_err().contains("non-hex"));
    }

    #[test]
    fn committed_corpus_replays_clean() {
        let report = replay_corpus(&corpus_dir()).unwrap();
        assert!(report.clean(), "corpus replay not clean: {report:?}");
        assert!(report.decoded_ok >= 1, "corpus should hold valid samples: {report:?}");
        assert!(report.decode_errors >= 1, "corpus should hold malformed samples: {report:?}");
    }

    #[test]
    fn corpus_valid_samples_match_handcrafted_expectations() {
        let corpus = load_corpus(&corpus_dir()).unwrap();
        let query = corpus
            .iter()
            .find(|(name, _)| name == "valid_query.hex")
            .expect("valid_query.hex present");
        let msg = Message::decode(&query.1).unwrap();
        assert_eq!(msg.questions.len(), 1);
        assert_eq!(msg.questions[0].name, Name::parse("mesu.apple.com").unwrap());
        let chain = corpus
            .iter()
            .find(|(name, _)| name == "valid_response_chain.hex")
            .expect("valid_response_chain.hex present");
        let msg = Message::decode(&chain.1).unwrap();
        assert_eq!(msg.answers.len(), 2, "CNAME + A answer");
    }
}
