//! Test oracles for the wire-form [`Name`] and the message compressor.
//!
//! [`RefName`] is `Name` as a vector of label vectors, with derived
//! `Eq`/`Ord`/`Hash`, and [`RefCompressor`] the compressor that cloned
//! each name and looked up every parent by value. The property tests
//! below hold the flat representation and the borrow-keyed compressor to
//! them: the same comparisons, hasher calls, text, and encoded bytes.

use crate::error::WireError;
use crate::message::Message;
use crate::name::{Name, MAX_LABEL_LEN, MAX_NAME_LEN};
use core::fmt;
use std::collections::HashMap;

/// A fully-qualified domain name as a sequence of lowercase labels.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
struct RefName {
    labels: Vec<Vec<u8>>,
}

impl RefName {
    fn root() -> RefName {
        RefName { labels: Vec::new() }
    }

    fn parse(s: &str) -> Result<RefName, WireError> {
        if s == "." {
            return Ok(RefName::root());
        }
        let s = s.strip_suffix('.').unwrap_or(s);
        if s.is_empty() {
            return Err(WireError::BadName);
        }
        let mut labels = Vec::new();
        for part in s.split('.') {
            if part.is_empty() {
                return Err(WireError::BadName);
            }
            if part.len() > MAX_LABEL_LEN {
                return Err(WireError::LabelTooLong);
            }
            labels.push(part.bytes().map(|b| b.to_ascii_lowercase()).collect());
        }
        let name = RefName { labels };
        if name.wire_len() > MAX_NAME_LEN {
            return Err(WireError::NameTooLong);
        }
        Ok(name)
    }

    fn from_labels<I, L>(labels: I) -> Result<RefName, WireError>
    where
        I: IntoIterator<Item = L>,
        L: AsRef<[u8]>,
    {
        let mut out = Vec::new();
        for l in labels {
            let l = l.as_ref();
            if l.is_empty() {
                return Err(WireError::BadName);
            }
            if l.len() > MAX_LABEL_LEN {
                return Err(WireError::LabelTooLong);
            }
            out.push(l.iter().map(|b| b.to_ascii_lowercase()).collect());
        }
        let name = RefName { labels: out };
        if name.wire_len() > MAX_NAME_LEN {
            return Err(WireError::NameTooLong);
        }
        Ok(name)
    }

    fn is_root(&self) -> bool {
        self.labels.is_empty()
    }

    fn wire_len(&self) -> usize {
        self.labels.iter().map(|l| l.len() + 1).sum::<usize>() + 1
    }

    fn is_within(&self, suffix: &RefName) -> bool {
        if suffix.labels.len() > self.labels.len() {
            return false;
        }
        let skip = self.labels.len() - suffix.labels.len();
        self.labels[skip..] == suffix.labels[..]
    }

    fn parent(&self) -> Option<RefName> {
        if self.labels.is_empty() {
            None
        } else {
            Some(RefName { labels: self.labels[1..].to_vec() })
        }
    }
}

impl fmt::Display for RefName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.labels.is_empty() {
            return f.write_str(".");
        }
        for (i, l) in self.labels.iter().enumerate() {
            if i > 0 {
                f.write_str(".")?;
            }
            for &b in l {
                if b.is_ascii_graphic() && b != b'.' && b != b'\\' {
                    write!(f, "{}", b as char)?;
                } else {
                    write!(f, "\\{:03}", b)?;
                }
            }
        }
        Ok(())
    }
}

/// Tracks previously emitted names for RFC 1035 §4.1.4 compression.
struct RefCompressor {
    offsets: HashMap<RefName, usize>,
}

impl RefCompressor {
    fn new() -> RefCompressor {
        RefCompressor { offsets: HashMap::new() }
    }

    fn emit(&mut self, name: &RefName, out: &mut Vec<u8>) {
        let mut current = name.clone();
        loop {
            if current.is_root() {
                out.push(0);
                return;
            }
            if let Some(&off) = self.offsets.get(&current) {
                if off < 0x4000 {
                    out.push(0xC0 | ((off >> 8) as u8));
                    out.push((off & 0xFF) as u8);
                    return;
                }
            }
            let here = out.len();
            if here < 0x4000 {
                self.offsets.insert(current.clone(), here);
            }
            let label = &current.labels[0];
            out.push(label.len() as u8);
            out.extend_from_slice(label);
            current = current.parent().expect("non-root name has a parent");
        }
    }
}

/// The message body as the encoder laid it out before the borrow-keyed
/// compressor: owner names through [`RefCompressor`], behind 12 zero
/// bytes standing in for the header (no name depends on its bytes).
fn encode_body_reference(msg: &Message) -> Result<Vec<u8>, WireError> {
    let reference = |name: &Name| RefName::from_labels(name.labels()).expect("valid name");
    let mut out = vec![0; 12];
    let mut comp = RefCompressor::new();
    for q in &msg.questions {
        comp.emit(&reference(&q.name), &mut out);
        out.extend_from_slice(&q.qtype.to_u16().to_be_bytes());
        out.extend_from_slice(&q.qclass.to_u16().to_be_bytes());
    }
    for rr in msg.answers.iter().chain(&msg.authorities).chain(&msg.additionals) {
        comp.emit(&reference(&rr.name), &mut out);
        out.extend_from_slice(&rr.rtype().to_u16().to_be_bytes());
        out.extend_from_slice(&rr.class.to_u16().to_be_bytes());
        out.extend_from_slice(&rr.ttl.to_be_bytes());
        let rdlen_at = out.len();
        out.extend_from_slice(&[0, 0]);
        let start = out.len();
        rr.rdata.borrowed().encode(&mut out)?;
        let rdlen = u16::try_from(out.len() - start).map_err(|_| WireError::BadRdata)?;
        out[rdlen_at..rdlen_at + 2].copy_from_slice(&rdlen.to_be_bytes());
    }
    Ok(out)
}

mod tests {
    use super::*;
    use crate::message::Question;
    use crate::rr::{RData, RecordType, ResourceRecord};
    use proptest::prelude::*;
    use std::hash::{Hash, Hasher};
    use std::net::Ipv4Addr;

    /// Every call a `Hash` impl makes, in order.
    #[derive(Debug, Default, PartialEq)]
    struct RecordingHasher(Vec<(&'static str, Vec<u8>)>);

    impl Hasher for RecordingHasher {
        fn write(&mut self, bytes: &[u8]) {
            self.0.push(("write", bytes.to_vec()));
        }
        fn write_usize(&mut self, n: usize) {
            self.0.push(("write_usize", n.to_le_bytes().to_vec()));
        }
        fn finish(&self) -> u64 {
            0
        }
    }

    fn hasher_calls(value: &impl Hash) -> RecordingHasher {
        let mut h = RecordingHasher::default();
        value.hash(&mut h);
        h
    }

    fn labels_of(name: &Name) -> Vec<Vec<u8>> {
        name.labels().map(<[u8]>::to_vec).collect()
    }

    /// Label bytes: letters of both cases, so names collide once
    /// lowercased; bytes that read as a length octet, so one label's
    /// tail can spell another name; the two bytes `Display` escapes
    /// among the graphic ones; and any byte at all.
    fn arb_label_byte() -> impl Strategy<Value = u8> {
        prop_oneof![
            b'a'..=b'b',
            b'A'..=b'B',
            1u8..=2,
            (0usize..2).prop_map(|i| [b'.', b'\\'][i]),
            any::<u8>(),
        ]
    }

    /// Mostly short labels; one in four up to the 63-byte limit.
    fn arb_label() -> impl Strategy<Value = Vec<u8>> {
        prop_oneof![
            proptest::collection::vec(arb_label_byte(), 1..=3),
            proptest::collection::vec(arb_label_byte(), 1..=3),
            proptest::collection::vec(arb_label_byte(), 1..=3),
            proptest::collection::vec(arb_label_byte(), 1..=MAX_LABEL_LEN),
        ]
    }

    /// Label lists drawn from one small label pool, so equal names, names
    /// that differ only in case, shared suffixes and the root (no labels)
    /// all occur often. Each pool label also comes wrapped behind its own
    /// length octet: one longer label whose bytes end in the wire form of
    /// the shorter one, a byte suffix that is no name suffix.
    fn arb_label_lists() -> impl Strategy<Value = Vec<Vec<Vec<u8>>>> {
        (
            proptest::collection::vec(arb_label(), 1..5),
            proptest::collection::vec(proptest::collection::vec(0usize..8, 0..6), 2..10),
        )
            .prop_map(|(base, picks)| {
                let wrapped = base.iter().filter(|l| l.len() < MAX_LABEL_LEN).map(|l| {
                    let mut w = vec![l.len() as u8];
                    w.extend_from_slice(l);
                    w
                });
                let pool: Vec<Vec<u8>> = base.iter().cloned().chain(wrapped).collect();
                picks
                    .into_iter()
                    .map(|p| p.into_iter().map(|i| pool[i % pool.len()].clone()).collect())
                    .collect()
            })
    }

    /// Dotted names from short ASCII labels, some with a trailing dot, a
    /// leading dot, an empty label, or an over-long label.
    fn arb_dotted() -> impl Strategy<Value = String> {
        (proptest::collection::vec("[a-cA-C0]{1,4}", 0..5), 0u8..6, "[aB]{60,66}").prop_map(
            |(labels, shape, long)| {
                let joined = labels.join(".");
                match shape {
                    0 | 1 => joined,
                    2 => format!("{joined}."),
                    3 => format!(".{joined}"),
                    4 => format!("{joined}..x"),
                    _ => format!("{joined}.{long}"),
                }
            },
        )
    }

    fn check_pair(a: &Name, ra: &RefName, b: &Name, rb: &RefName) -> Result<(), TestCaseError> {
        prop_assert_eq!(a == b, ra == rb);
        prop_assert_eq!(a.cmp(b), ra.cmp(rb));
        prop_assert_eq!(a.partial_cmp(b), ra.partial_cmp(rb));
        prop_assert_eq!(a.is_within(b), ra.is_within(rb));
        Ok(())
    }

    fn check_name(name: &Name, r: &RefName) -> Result<(), TestCaseError> {
        prop_assert_eq!(labels_of(name), r.labels.clone());
        prop_assert_eq!(name.label_count(), r.labels.len());
        prop_assert_eq!(name.is_root(), r.is_root());
        prop_assert_eq!(name.to_string(), r.to_string());
        prop_assert_eq!(format!("{name:?}"), format!("{r:?}").replacen("RefName", "Name", 1));
        prop_assert_eq!(name.wire_len(), r.wire_len());
        prop_assert_eq!(hasher_calls(name), hasher_calls(r));
        prop_assert_eq!(name.parent().as_ref().map(labels_of), r.parent().map(|p| p.labels));
        Ok(())
    }

    proptest! {
        #[test]
        fn wire_form_name_matches_the_label_vector_reference(lists in arb_label_lists()) {
            let built: Vec<_> = lists
                .iter()
                .map(|l| (Name::from_labels(l), RefName::from_labels(l)))
                .collect();
            let mut names = Vec::new();
            for (name, r) in built {
                match (name, r) {
                    (Ok(name), Ok(r)) => {
                        check_name(&name, &r)?;
                        names.push((name, r));
                    }
                    (name, r) => prop_assert_eq!(name.err(), r.err()),
                }
            }
            for (a, ra) in &names {
                for (b, rb) in &names {
                    check_pair(a, ra, b, rb)?;
                }
                let root = (Name::root(), RefName::root());
                check_pair(a, ra, &root.0, &root.1)?;
                check_pair(&root.0, &root.1, a, ra)?;
            }
        }

        #[test]
        fn parse_matches_the_reference(s in arb_dotted()) {
            match (Name::parse(&s), RefName::parse(&s)) {
                (Ok(name), Ok(r)) => check_name(&name, &r)?,
                (name, r) => prop_assert_eq!(name.err(), r.err()),
            }
        }

        #[test]
        fn encode_matches_the_reference_compressor(
            lists in arb_label_lists(),
            layout in proptest::collection::vec(
                (0usize..16, 0u8..4, 0usize..0x1800, any::<bool>()),
                1..24,
            ),
            questions in 0usize..3,
        ) {
            let names: Vec<Name> =
                lists.iter().filter_map(|l| Name::from_labels(l).ok()).collect();
            if names.is_empty() {
                return Ok(()); // every name of the family was over-long
            }
            let pick = |i: usize| names[i % names.len()].clone();
            let mut msg = Message {
                questions: (0..questions).map(|i| Question::new(pick(i), RecordType::A)).collect(),
                ..Message::default()
            };
            for (i, &(n, kind, pad, child)) in layout.iter().enumerate() {
                let rdata = match kind {
                    0 => RData::A(Ipv4Addr::new(17, 253, i as u8, n as u8)),
                    1 => RData::Cname(pick(n + 1)),
                    // Opaque bulk that pushes later names past the pointer
                    // limit in some cases.
                    2 => RData::Txt(pad_strings(pad)),
                    _ => RData::Ns(pick(n + 2)),
                };
                // A child of a family name may first occur, and recur,
                // past the pointer limit.
                let owner = match pick(n) {
                    name if child => name.child(&format!("r{}", n % 3)).unwrap_or(name),
                    name => name,
                };
                let rr = ResourceRecord::new(owner, 60, rdata);
                match i % 3 {
                    0 => msg.answers.push(rr),
                    1 => msg.authorities.push(rr),
                    _ => msg.additionals.push(rr),
                }
            }
            let bytes = msg.encode().expect("encodes");
            let reference = encode_body_reference(&msg).expect("encodes");
            prop_assert_eq!(&bytes[12..], &reference[12..]);
            prop_assert_eq!(Message::decode(&bytes).expect("decodes"), msg);
        }
    }

    /// TXT character-strings totalling `bytes` octets of RDATA.
    fn pad_strings(bytes: usize) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        let mut left = bytes;
        while left > 0 {
            let len = (left - 1).min(255);
            out.push(vec![b'x'; len]);
            left -= len + 1;
        }
        out
    }

    /// Every alignment of a name around the 0x4000 pointer limit: the
    /// suffixes recorded below it are pointed at after it, and none at or
    /// above it is recorded.
    #[test]
    fn encode_matches_the_reference_across_the_pointer_limit() {
        let n = |s: &str| Name::parse(s).unwrap();
        let shared = n("appldnld.apple.com.akadns.net");
        for pad in 0x3F00..0x4040 {
            let mut msg = Message::query(7, n("apple.com.akadns.net"), RecordType::A);
            msg.answers = vec![
                ResourceRecord::new(n("x.apple.com"), 60, RData::Txt(pad_strings(pad))),
                ResourceRecord::new(shared.clone(), 60, RData::Cname(n("a.gslb.applimg.com"))),
                ResourceRecord::new(n("gslb.applimg.com"), 60, RData::A(Ipv4Addr::LOCALHOST)),
                ResourceRecord::new(n("a.gslb.applimg.com"), 60, RData::A(Ipv4Addr::LOCALHOST)),
                ResourceRecord::new(shared.clone(), 60, RData::A(Ipv4Addr::LOCALHOST)),
                ResourceRecord::new(n("b.apple.com"), 60, RData::A(Ipv4Addr::LOCALHOST)),
            ];
            let bytes = msg.encode().unwrap();
            assert_eq!(bytes[12..], encode_body_reference(&msg).unwrap()[12..], "pad {pad}");
            assert_eq!(Message::decode(&bytes).unwrap(), msg, "pad {pad}");
        }
    }
}
