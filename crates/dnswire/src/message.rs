//! DNS messages: header, question, and full encode/decode with compression.

use crate::error::WireError;
use crate::name::Name;
use crate::rr::{Class, RData, RecordType, ResourceRecord};
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
    fn from_u8(v: u8) -> Opcode {
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
    fn from_u8(v: u8) -> Rcode {
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

/// RFC 1035 §4.1.4 name compression for one message.
///
/// Every owner name emitted so far has recorded the offset of each of its
/// suffixes at their first occurrence, keyed by the suffix's wire bytes
/// borrowed from the message's own names. A later name ends in a pointer
/// at its longest recorded suffix. Offsets from 0x4000 on cannot be
/// addressed, so they are never recorded.
struct Compressor<'a> {
    offsets: HashMap<&'a [u8], u16>,
}

impl<'a> Compressor<'a> {
    fn new() -> Compressor<'a> {
        Compressor { offsets: HashMap::new() }
    }

    /// Emits `name` at the current end of `out`, reusing earlier occurrences
    /// of any suffix via pointers and remembering new suffixes.
    fn emit(&mut self, name: &'a Name, out: &mut Vec<u8>) {
        let mut rest = name.wire();
        while let Some(&len) = rest.first() {
            match self.offsets.entry(rest) {
                Entry::Occupied(first) => {
                    out.extend_from_slice(&(0xC000 | first.get()).to_be_bytes());
                    return;
                }
                Entry::Vacant(slot) => {
                    if let Ok(here @ 0..=0x3FFF) = u16::try_from(out.len()) {
                        slot.insert(here);
                    }
                }
            }
            let (label, tail) = rest.split_at(1 + len as usize);
            out.extend_from_slice(label);
            rest = tail;
        }
        out.push(0);
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
        let mut out = Vec::with_capacity(512);
        out.extend_from_slice(&self.header.id.to_be_bytes());
        let f = &self.header.flags;
        let b2 = ((f.qr as u8) << 7)
            | (self.header.opcode.to_u8() << 3)
            | ((f.aa as u8) << 2)
            | ((f.tc as u8) << 1)
            | (f.rd as u8);
        let b3 = ((f.ra as u8) << 7) | self.header.rcode.to_u8();
        out.push(b2);
        out.push(b3);
        for count in [
            self.questions.len(),
            self.answers.len(),
            self.authorities.len(),
            self.additionals.len(),
        ] {
            let count = u16::try_from(count).map_err(|_| WireError::CountMismatch)?;
            out.extend_from_slice(&count.to_be_bytes());
        }
        let mut comp = Compressor::new();
        for q in &self.questions {
            comp.emit(&q.name, &mut out);
            out.extend_from_slice(&q.qtype.to_u16().to_be_bytes());
            out.extend_from_slice(&q.qclass.to_u16().to_be_bytes());
        }
        for rr in self.answers.iter().chain(&self.authorities).chain(&self.additionals) {
            comp.emit(&rr.name, &mut out);
            out.extend_from_slice(&rr.rtype().to_u16().to_be_bytes());
            out.extend_from_slice(&rr.class.to_u16().to_be_bytes());
            out.extend_from_slice(&rr.ttl.to_be_bytes());
            let rdlen_at = out.len();
            out.extend_from_slice(&[0, 0]);
            let start = out.len();
            rr.rdata.encode(&mut out)?;
            let rdlen = u16::try_from(out.len() - start).map_err(|_| WireError::BadRdata)?;
            out[rdlen_at..rdlen_at + 2].copy_from_slice(&rdlen.to_be_bytes());
        }
        Ok(out)
    }

    /// Decodes a message from bytes.
    pub fn decode(buf: &[u8]) -> Result<Message, WireError> {
        if buf.len() < 12 {
            return Err(WireError::Truncated);
        }
        let id = u16::from_be_bytes([buf[0], buf[1]]);
        let (b2, b3) = (buf[2], buf[3]);
        let header = Header {
            id,
            flags: Flags {
                qr: b2 & 0x80 != 0,
                aa: b2 & 0x04 != 0,
                tc: b2 & 0x02 != 0,
                rd: b2 & 0x01 != 0,
                ra: b3 & 0x80 != 0,
            },
            opcode: Opcode::from_u8((b2 >> 3) & 0x0F),
            rcode: Rcode::from_u8(b3 & 0x0F),
        };
        let count = |i: usize| u16::from_be_bytes([buf[4 + 2 * i], buf[5 + 2 * i]]) as usize;
        let (qd, an, ns, ar) = (count(0), count(1), count(2), count(3));

        // Count sanity: even maximally compressed, a question costs 5 bytes
        // (pointer name + type/class) and a record 11 (pointer name + fixed
        // part + empty RDATA). Headers claiming more entries than the
        // remaining bytes could possibly hold are rejected up front, so a
        // 12-byte flood with inflated counts costs O(1), not 4×65535
        // aborted section parses.
        let floor = qd * 5 + (an + ns + ar) * 11;
        if floor > buf.len() - 12 {
            return Err(WireError::Truncated);
        }

        let mut pos = 12;
        let mut questions = Vec::with_capacity(qd.min(32));
        for _ in 0..qd {
            let (name, p) = Name::decode(buf, pos)?;
            let fixed = buf.get(p..p + 4).ok_or(WireError::Truncated)?;
            questions.push(Question {
                name,
                qtype: RecordType::from_u16(u16::from_be_bytes([fixed[0], fixed[1]])),
                qclass: Class::from_u16(u16::from_be_bytes([fixed[2], fixed[3]])),
            });
            pos = p + 4;
        }
        let decode_rrs = |n: usize, pos: &mut usize| -> Result<Vec<ResourceRecord>, WireError> {
            let mut rrs = Vec::with_capacity(n.min(64));
            for _ in 0..n {
                let (name, p) = Name::decode(buf, *pos)?;
                let fixed = buf.get(p..p + 10).ok_or(WireError::Truncated)?;
                let rtype = RecordType::from_u16(u16::from_be_bytes([fixed[0], fixed[1]]));
                let class = Class::from_u16(u16::from_be_bytes([fixed[2], fixed[3]]));
                let ttl = u32::from_be_bytes([fixed[4], fixed[5], fixed[6], fixed[7]]);
                let rdlen = u16::from_be_bytes([fixed[8], fixed[9]]) as usize;
                let rdata = RData::decode(rtype, buf, p + 10, rdlen)?;
                rrs.push(ResourceRecord { name, class, ttl, rdata });
                *pos = p + 10 + rdlen;
            }
            Ok(rrs)
        };
        let answers = decode_rrs(an, &mut pos)?;
        let authorities = decode_rrs(ns, &mut pos)?;
        let additionals = decode_rrs(ar, &mut pos)?;
        Ok(Message { header, questions, answers, authorities, additionals })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
