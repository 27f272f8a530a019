//! The decoder's two sinks agree: `Message::validate`, which checks and
//! keeps nothing, returns exactly what `Message::decode` returns, error
//! included. The inputs: random messages and the poisoning audit's three
//! mangles of them, every mutation strategy of `mcdn-fuzzwire`, the
//! committed corpus, and messages whose names straddle the 0x4000
//! compression-pointer limit.

use mcdn_fuzzwire::{load_corpus, mutate, seed_corpus, SplitMix64};
use metacdn_suite::dnswire::{
    Flags, Header, Message, Name, Opcode, Question, RData, Rcode, RecordType, ResourceRecord, Soa,
};
use proptest::prelude::*;
use std::net::{Ipv4Addr, Ipv6Addr};
use std::path::Path;

fn assert_same_verdict(bytes: &[u8]) {
    assert_eq!(
        Message::validate(bytes),
        Message::decode(bytes).map(drop),
        "the sinks disagree on {bytes:02x?}"
    );
}

/// The poisoning audit's mangles of an encoded message, drawn by `r`:
/// flip one byte, truncate mid-message, or inflate a section count.
fn mangle(bytes: &[u8], r: u64) -> Vec<u8> {
    let mut m = bytes.to_vec();
    match r % 3 {
        0 => {
            let i = (r >> 8) as usize % m.len();
            m[i] ^= (r >> 32) as u8 | 1;
        }
        1 => m.truncate((r >> 8) as usize % m.len()),
        _ => {
            let i = 4 + ((r >> 8) as usize % 8).min(m.len() - 5);
            m[i] = m[i].wrapping_add(0x7F);
        }
    }
    m
}

fn arb_label() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[a-z0-9]{1,12}(-[a-z0-9]{1,8})?").unwrap()
}

fn arb_name() -> impl Strategy<Value = Name> {
    proptest::collection::vec(arb_label(), 1..6)
        .prop_map(|labels| Name::parse(&labels.join(".")).expect("generated name is valid"))
}

fn arb_rdata() -> impl Strategy<Value = RData> {
    prop_oneof![
        any::<[u8; 4]>().prop_map(|o| RData::A(Ipv4Addr::from(o))),
        any::<[u8; 16]>().prop_map(|o| RData::Aaaa(Ipv6Addr::from(o))),
        arb_name().prop_map(RData::Cname),
        arb_name().prop_map(RData::Ns),
        arb_name().prop_map(RData::Ptr),
        (arb_name(), arb_name(), any::<u32>()).prop_map(|(mname, rname, serial)| {
            RData::Soa(Box::new(Soa {
                mname,
                rname,
                serial,
                refresh: 1800,
                retry: 900,
                expire: 2_016_000,
                minimum: 60,
            }))
        }),
        proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..64), 1..4)
            .prop_map(RData::Txt),
        proptest::collection::vec(any::<u8>(), 0..16).prop_map(|b| RData::Other(0x63, b)),
    ]
}

fn arb_rr() -> impl Strategy<Value = ResourceRecord> {
    (arb_name(), 0u32..1_000_000, arb_rdata())
        .prop_map(|(name, ttl, rdata)| ResourceRecord::new(name, ttl, rdata))
}

fn arb_message() -> impl Strategy<Value = Message> {
    (
        any::<u16>(),
        any::<bool>(),
        any::<bool>(),
        proptest::collection::vec(arb_name(), 0..3),
        proptest::collection::vec(arb_rr(), 0..6),
        proptest::collection::vec(arb_rr(), 0..3),
        proptest::collection::vec(arb_rr(), 0..3),
    )
        .prop_map(|(id, qr, rd, qnames, answers, authorities, additionals)| Message {
            header: Header {
                id,
                flags: Flags { qr, rd, ..Flags::default() },
                opcode: Opcode::Query,
                rcode: Rcode::NoError,
            },
            questions: qnames.into_iter().map(|n| Question::new(n, RecordType::A)).collect(),
            answers,
            authorities,
            additionals,
        })
}

proptest! {
    #[test]
    fn sinks_agree_on_random_messages_their_mangles_and_mutants(
        msg in arb_message(),
        draws in proptest::collection::vec(any::<u64>(), 16),
    ) {
        let bytes = msg.encode().expect("well-formed message encodes");
        prop_assert_eq!(Message::validate(&bytes), Ok(()));
        assert_same_verdict(&bytes);
        for cut in 0..bytes.len() {
            assert_same_verdict(&bytes[..cut]);
        }
        for &r in &draws {
            assert_same_verdict(&mangle(&bytes, r));
            assert_same_verdict(&mutate(&mut SplitMix64::new(r), std::slice::from_ref(&bytes)));
        }
    }
}

/// `mutate` picks one of its eight strategies per draw; 40,000 draws
/// over the fuzzer's own seeds reach each thousands of times.
#[test]
fn sinks_agree_on_every_fuzzer_strategy() {
    let seeds = seed_corpus();
    let mut rng = SplitMix64::new(0x51_4B5);
    for _ in 0..40_000 {
        assert_same_verdict(&mutate(&mut rng, &seeds));
    }
}

#[test]
fn sinks_agree_on_the_committed_corpus() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let corpus = load_corpus(&dir).expect("the committed corpus loads");
    for (_, bytes) in &corpus {
        assert_same_verdict(bytes);
    }
    assert!(corpus.iter().any(|(_, b)| Message::validate(b).is_ok()));
    assert!(corpus.iter().any(|(_, b)| Message::validate(b).is_err()));
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

/// The messages of the compressor's pointer-limit test: every alignment
/// of a shared name around offset 0x4000, where suffixes stop being
/// recorded and later names point back below the limit.
#[test]
fn sinks_agree_across_the_pointer_limit() {
    let n = |s: &str| Name::parse(s).unwrap();
    let shared = n("appldnld.apple.com.akadns.net");
    let mut rng = SplitMix64::new(0x4000);
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
        assert_eq!(Message::validate(&bytes), Ok(()), "pad {pad}");
        assert_same_verdict(&bytes);
        for _ in 0..3 {
            assert_same_verdict(&mangle(&bytes, rng.next_u64()));
        }
    }
}
