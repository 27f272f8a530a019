//! DNS messages: header, question, and full encode/decode with compression.

use crate::decode::{self, Check, Owned};
use crate::error::WireError;
use crate::name::Name;
use crate::rr::{Class, RDataRef, RecordType, ResourceRecord};
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// Query/response operation code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Opcode {
    /// Standard query.
    Query,
    /// Anything else, carried opaquely.
    Other(u8),
}

impl Opcode {
    fn to_u8(self) -> u8 {
        match self {
            Opcode::Query => 0,
            Opcode::Other(v) => v & 0x0F,
        }
    }
    pub(crate) fn from_u8(v: u8) -> Opcode {
        if v == 0 {
            Opcode::Query
        } else {
            Opcode::Other(v)
        }
    }
}

/// Response code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rcode {
    /// No error.
    NoError,
    /// Format error.
    FormErr,
    /// Server failure.
    ServFail,
    /// Name does not exist.
    NxDomain,
    /// Not implemented.
    NotImp,
    /// Query refused.
    Refused,
    /// Anything else.
    Other(u8),
}

impl Rcode {
    fn to_u8(self) -> u8 {
        match self {
            Rcode::NoError => 0,
            Rcode::FormErr => 1,
            Rcode::ServFail => 2,
            Rcode::NxDomain => 3,
            Rcode::NotImp => 4,
            Rcode::Refused => 5,
            Rcode::Other(v) => v & 0x0F,
        }
    }
    pub(crate) fn from_u8(v: u8) -> Rcode {
        match v {
            0 => Rcode::NoError,
            1 => Rcode::FormErr,
            2 => Rcode::ServFail,
            3 => Rcode::NxDomain,
            4 => Rcode::NotImp,
            5 => Rcode::Refused,
            other => Rcode::Other(other),
        }
    }
}

/// Header flag bits (RFC 1035 §4.1.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Flags {
    /// Response (true) or query (false).
    pub qr: bool,
    /// Authoritative answer.
    pub aa: bool,
    /// Truncated.
    pub tc: bool,
    /// Recursion desired.
    pub rd: bool,
    /// Recursion available.
    pub ra: bool,
}

/// Message header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    /// Transaction id.
    pub id: u16,
    /// Flag bits.
    pub flags: Flags,
    /// Operation code.
    pub opcode: Opcode,
    /// Response code.
    pub rcode: Rcode,
}

impl Default for Header {
    fn default() -> Self {
        Header { id: 0, flags: Flags::default(), opcode: Opcode::Query, rcode: Rcode::NoError }
    }
}

/// A question entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Question {
    /// Queried name.
    pub name: Name,
    /// Queried type.
    pub qtype: RecordType,
    /// Queried class.
    pub qclass: Class,
}

impl Question {
    /// An `IN`-class question.
    pub fn new(name: Name, qtype: RecordType) -> Question {
        Question { name, qtype, qclass: Class::In }
    }
}

/// A complete DNS message.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Message {
    /// Header.
    pub header: Header,
    /// Question section.
    pub questions: Vec<Question>,
    /// Answer section.
    pub answers: Vec<ResourceRecord>,
    /// Authority section.
    pub authorities: Vec<ResourceRecord>,
    /// Additional section.
    pub additionals: Vec<ResourceRecord>,
}

/// Writes one DNS message at a time into a buffer it keeps, from
/// borrowed names: [`MessageWriter::start`] with the header and the four
/// section counts, then exactly that many questions, then the records of
/// the answer, authority and additional sections in turn.
/// [`Message::encode`] is this writer over the message's own names. A
/// caller that keeps its names elsewhere, such as a name table, writes
/// from there, and a writer reused across messages allocates only while
/// its buffers grow.
///
/// Owner names are compressed (RFC 1035 §4.1.4). Every owner name written
/// so far has recorded the offset of each of its suffixes at their first
/// occurrence, keyed by the suffix's wire bytes borrowed from the name
/// itself. A later name ends in a pointer at its longest recorded suffix.
/// Offsets from 0x4000 on cannot be addressed, so they are never
/// recorded. Names inside RDATA are written uncompressed.
#[derive(Debug)]
pub struct MessageWriter<'n> {
    out: Vec<u8>,
    offsets: HashMap<&'n [u8], u16>,
}

impl Default for MessageWriter<'_> {
    fn default() -> Self {
        MessageWriter::new()
    }
}

impl<'n> MessageWriter<'n> {
    /// A writer with no message.
    pub fn new() -> MessageWriter<'n> {
        MessageWriter { out: Vec::with_capacity(512), offsets: HashMap::new() }
    }

    /// Starts a message, discarding the previous one: writes `header` and
    /// the counts of questions, answers, authorities and additionals. A
    /// count above 65,535 is a [`WireError::CountMismatch`].
    pub fn start(&mut self, header: &Header, counts: [usize; 4]) -> Result<(), WireError> {
        self.out.clear();
        self.offsets.clear();
        self.out.extend_from_slice(&header.id.to_be_bytes());
        let f = &header.flags;
        let b2 = ((f.qr as u8) << 7)
            | (header.opcode.to_u8() << 3)
            | ((f.aa as u8) << 2)
            | ((f.tc as u8) << 1)
            | (f.rd as u8);
        let b3 = ((f.ra as u8) << 7) | header.rcode.to_u8();
        self.out.push(b2);
        self.out.push(b3);
        for count in counts {
            let count = u16::try_from(count).map_err(|_| WireError::CountMismatch)?;
            self.out.extend_from_slice(&count.to_be_bytes());
        }
        Ok(())
    }

    /// Writes a question.
    pub fn question(&mut self, name: &'n Name, qtype: RecordType, qclass: Class) {
        self.owner(name);
        self.out.extend_from_slice(&qtype.to_u16().to_be_bytes());
        self.out.extend_from_slice(&qclass.to_u16().to_be_bytes());
    }

    /// Writes a record. RDATA longer than 65,535 octets is a
    /// [`WireError::BadRdata`], and a TXT string longer than 255 a
    /// [`WireError::TxtTooLong`]; the message is then unusable.
    pub fn record(
        &mut self,
        owner: &'n Name,
        class: Class,
        ttl: u32,
        rdata: RDataRef<'_>,
    ) -> Result<(), WireError> {
        self.owner(owner);
        let out = &mut self.out;
        out.extend_from_slice(&rdata.rtype().to_u16().to_be_bytes());
        out.extend_from_slice(&class.to_u16().to_be_bytes());
        out.extend_from_slice(&ttl.to_be_bytes());
        let rdlen_at = out.len();
        out.extend_from_slice(&[0, 0]);
        rdata.encode(out)?;
        let rdlen = u16::try_from(out.len() - rdlen_at - 2).map_err(|_| WireError::BadRdata)?;
        out[rdlen_at..rdlen_at + 2].copy_from_slice(&rdlen.to_be_bytes());
        Ok(())
    }

    /// The message written so far.
    pub fn bytes(&self) -> &[u8] {
        &self.out
    }

    /// Writes `name` at the end of the message, ending in a pointer at its
    /// longest recorded suffix and recording the suffixes it spells out.
    fn owner(&mut self, name: &'n Name) {
        let mut rest = name.wire();
        while let Some(&len) = rest.first() {
            match self.offsets.entry(rest) {
                Entry::Occupied(first) => {
                    self.out.extend_from_slice(&(0xC000 | first.get()).to_be_bytes());
                    return;
                }
                Entry::Vacant(slot) => {
                    if let Ok(here @ 0..=0x3FFF) = u16::try_from(self.out.len()) {
                        slot.insert(here);
                    }
                }
            }
            let (label, tail) = rest.split_at(1 + len as usize);
            self.out.extend_from_slice(label);
            rest = tail;
        }
        self.out.push(0);
    }
}

impl Message {
    /// Builds a recursive query for `name`/`qtype` with transaction id `id`.
    pub fn query(id: u16, name: Name, qtype: RecordType) -> Message {
        Message {
            header: Header {
                id,
                flags: Flags { rd: true, ..Flags::default() },
                opcode: Opcode::Query,
                rcode: Rcode::NoError,
            },
            questions: vec![Question::new(name, qtype)],
            ..Message::default()
        }
    }

    /// Builds a response skeleton echoing `query`'s id and question.
    pub fn response_to(query: &Message, rcode: Rcode) -> Message {
        Message {
            header: Header {
                id: query.header.id,
                flags: Flags { qr: true, rd: query.header.flags.rd, ra: true, ..Flags::default() },
                opcode: query.header.opcode,
                rcode,
            },
            questions: query.questions.clone(),
            ..Message::default()
        }
    }

    /// Encodes the message to bytes with name compression.
    pub fn encode(&self) -> Result<Vec<u8>, WireError> {
        let mut w = MessageWriter::new();
        let counts = [
            self.questions.len(),
            self.answers.len(),
            self.authorities.len(),
            self.additionals.len(),
        ];
        w.start(&self.header, counts)?;
        for q in &self.questions {
            w.question(&q.name, q.qtype, q.qclass);
        }
        for rr in self.answers.iter().chain(&self.authorities).chain(&self.additionals) {
            w.record(&rr.name, rr.class, rr.ttl, rr.rdata.borrowed())?;
        }
        Ok(w.out)
    }

    /// Decodes a message from bytes.
    pub fn decode(buf: &[u8]) -> Result<Message, WireError> {
        let mut sink = Owned::new();
        decode::message(buf, &mut sink)?;
        Ok(sink.into_message())
    }

    /// Checks `buf` as [`Message::decode`] does, check for check, and
    /// returns the same error, without building anything: no allocation.
    pub fn validate(buf: &[u8]) -> Result<(), WireError> {
        decode::message(buf, &mut Check)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rr::RData;
    use std::net::Ipv4Addr;

    fn n(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    fn sample_response() -> Message {
        let query = Message::query(0x1234, n("appldnld.apple.com"), RecordType::A);
        let mut resp = Message::response_to(&query, Rcode::NoError);
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
                15,
                RData::Cname(n("a.gslb.applimg.com")),
            ),
            ResourceRecord::new(
                n("a.gslb.applimg.com"),
                20,
                RData::A(Ipv4Addr::new(17, 253, 37, 16)),
            ),
        ];
        resp
    }

    #[test]
    fn query_roundtrip() {
        let q = Message::query(7, n("mesu.apple.com"), RecordType::A);
        let bytes = q.encode().unwrap();
        let back = Message::decode(&bytes).unwrap();
        assert_eq!(back, q);
        assert!(back.header.flags.rd);
        assert!(!back.header.flags.qr);
    }

    #[test]
    fn response_roundtrip_with_cname_chain() {
        let resp = sample_response();
        let bytes = resp.encode().unwrap();
        let back = Message::decode(&bytes).unwrap();
        assert_eq!(back, resp);
        assert_eq!(back.answers.len(), 4);
    }

    #[test]
    fn compression_shrinks_output() {
        let resp = sample_response();
        let compressed = resp.encode().unwrap().len();
        // Sum of uncompressed wire lengths of all names as a lower bound on
        // the uncompressed size.
        let uncompressed: usize = resp
            .questions
            .iter()
            .map(|q| q.name.wire_len())
            .chain(resp.answers.iter().map(|a| {
                a.name.wire_len()
                    + match &a.rdata {
                        RData::Cname(c) => c.wire_len(),
                        _ => 4,
                    }
            }))
            .sum::<usize>()
            + 12
            + 4
            + resp.answers.len() * 10;
        assert!(
            compressed < uncompressed,
            "compression should save space: {compressed} vs {uncompressed}"
        );
    }

    #[test]
    fn decode_rejects_short_header() {
        assert_eq!(Message::decode(&[0; 11]).unwrap_err(), WireError::Truncated);
    }

    #[test]
    fn decode_rejects_missing_records() {
        let mut q = Message::query(1, n("a.com"), RecordType::A).encode().unwrap();
        // Claim one answer that isn't present.
        q[7] = 1;
        assert_eq!(Message::decode(&q).unwrap_err(), WireError::Truncated);
    }

    #[test]
    fn rcode_roundtrip() {
        for rc in [
            Rcode::NoError,
            Rcode::FormErr,
            Rcode::ServFail,
            Rcode::NxDomain,
            Rcode::NotImp,
            Rcode::Refused,
        ] {
            let q = Message::query(9, n("x.com"), RecordType::A);
            let mut resp = Message::response_to(&q, rc);
            resp.header.flags.aa = true;
            let back = Message::decode(&resp.encode().unwrap()).unwrap();
            assert_eq!(back.header.rcode, rc);
            assert!(back.header.flags.aa);
            assert!(back.header.flags.qr);
        }
    }

    #[test]
    fn response_echoes_question_and_id() {
        let q = Message::query(0xBEEF, n("appldnld.apple.com"), RecordType::Aaaa);
        let resp = Message::response_to(&q, Rcode::NoError);
        assert_eq!(resp.header.id, 0xBEEF);
        assert_eq!(resp.questions, q.questions);
        assert!(resp.answers.is_empty(), "AAAA gets an empty answer from Apple's mapping");
    }

    #[test]
    fn ptr_record_roundtrip_in_message() {
        let q = Message::query(3, n("8.37.253.17.in-addr.arpa"), RecordType::Ptr);
        let mut resp = Message::response_to(&q, Rcode::NoError);
        resp.answers.push(ResourceRecord::new(
            n("8.37.253.17.in-addr.arpa"),
            3600,
            RData::Ptr(n("usnyc3-vip-bx-008.aaplimg.com")),
        ));
        let back = Message::decode(&resp.encode().unwrap()).unwrap();
        assert_eq!(back, resp);
    }
}
