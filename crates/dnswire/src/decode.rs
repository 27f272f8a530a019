//! The decode walker: one pass over a message's bytes that makes every
//! check of the wire format, generic over what the caller keeps.
//!
//! [`message`] walks the header, the four sections, each name with its
//! compression pointers, and each RDATA; [`name`] walks one name. Every
//! check runs here, once and in one order: the 12-byte header, the count
//! floor, truncation, the label type, the 63- and 255-octet caps,
//! backward-only pointers and their hop budget, and the RDATA-length
//! rules. What passes a check goes to a [`Sink`]. [`Owned`] builds the
//! [`Message`] and [`Name`] that `decode` returns; [`Check`] keeps
//! nothing, so [`Message::validate`] allocates nothing and returns the
//! same `Result` as [`Message::decode`].

use crate::error::WireError;
use crate::message::{Flags, Header, Message, Opcode, Question, Rcode};
use crate::name::{Name, MAX_LABEL_LEN, MAX_NAME_LEN};
use crate::rr::{Class, RData, RecordType, ResourceRecord, Soa};
use std::net::{Ipv4Addr, Ipv6Addr};

/// Maximum number of compression pointers we will chase before declaring a
/// loop. A legal message can never need more than the number of labels, and
/// 128 comfortably exceeds any legitimate chain.
const MAX_POINTER_HOPS: usize = 128;

/// The checked fields of one RDATA, with its names as the sink built them.
pub(crate) enum Fields<'b, N> {
    A([u8; 4]),
    Aaaa([u8; 16]),
    Ns(N),
    Cname(N),
    Ptr(N),
    /// The two names, then serial, refresh, retry, expire and minimum.
    Soa(N, N, &'b [u8; 20]),
    /// The character-strings went to [`Sink::txt_string`] one by one.
    Txt,
    Other(u16, &'b [u8]),
}

/// What the walker hands on. A sink serves one walk: a walk that fails
/// leaves it half-filled.
pub(crate) trait Sink {
    /// What a walked name becomes.
    type Name;
    /// What walked RDATA becomes.
    type RData;
    /// The header and the section counts, once the count floor holds.
    fn header(&mut self, header: Header, counts: [usize; 4]);
    /// One checked label of the name being walked.
    fn label(&mut self, label: &[u8]);
    /// Ends the name being walked.
    fn end_name(&mut self) -> Self::Name;
    /// One checked character-string of the TXT RDATA being walked.
    fn txt_string(&mut self, s: &[u8]);
    /// Ends the RDATA being walked.
    fn rdata(&mut self, fields: Fields<'_, Self::Name>) -> Self::RData;
    /// A question, in wire order.
    fn question(&mut self, name: Self::Name, qtype: RecordType, qclass: Class);
    /// A record of section `section` (0 answer, 1 authority, 2
    /// additional), in wire order.
    fn record(
        &mut self,
        section: usize,
        name: Self::Name,
        class: Class,
        ttl: u32,
        rdata: Self::RData,
    );
}

/// Walks a whole message.
pub(crate) fn message<S: Sink>(buf: &[u8], sink: &mut S) -> Result<(), WireError> {
    if buf.len() < 12 {
        return Err(WireError::Truncated);
    }
    let (b2, b3) = (buf[2], buf[3]);
    let header = Header {
        id: u16::from_be_bytes([buf[0], buf[1]]),
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
    let counts = [count(0), count(1), count(2), count(3)];
    let [qd, an, ns, ar] = counts;

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
    sink.header(header, counts);

    let mut pos = 12;
    for _ in 0..qd {
        let (qname, p) = name(buf, pos, sink)?;
        let fixed = buf.get(p..p + 4).ok_or(WireError::Truncated)?;
        let qtype = RecordType::from_u16(u16::from_be_bytes([fixed[0], fixed[1]]));
        let qclass = Class::from_u16(u16::from_be_bytes([fixed[2], fixed[3]]));
        sink.question(qname, qtype, qclass);
        pos = p + 4;
    }
    for (section, n) in [an, ns, ar].into_iter().enumerate() {
        for _ in 0..n {
            let (owner, p) = name(buf, pos, sink)?;
            let fixed = buf.get(p..p + 10).ok_or(WireError::Truncated)?;
            let rtype = RecordType::from_u16(u16::from_be_bytes([fixed[0], fixed[1]]));
            let class = Class::from_u16(u16::from_be_bytes([fixed[2], fixed[3]]));
            let ttl = u32::from_be_bytes([fixed[4], fixed[5], fixed[6], fixed[7]]);
            let rdlen = u16::from_be_bytes([fixed[8], fixed[9]]) as usize;
            let rdata = rdata(rtype, buf, p + 10, rdlen, sink)?;
            sink.record(section, owner, class, ttl, rdata);
            pos = p + 10 + rdlen;
        }
    }
    Ok(())
}

/// Walks the name starting at `pos` in `buf`, following compression
/// pointers. Returns the name and the position just past its *first*
/// occurrence (i.e. past the pointer if one was used).
pub(crate) fn name<S: Sink>(
    buf: &[u8],
    pos: usize,
    sink: &mut S,
) -> Result<(S::Name, usize), WireError> {
    let mut used = 0usize; // label octets so far, length octets included
    let mut cursor = pos;
    let mut after: Option<usize> = None; // resume point after first pointer
    let mut hops = 0usize;
    loop {
        let len = *buf.get(cursor).ok_or(WireError::Truncated)? as usize;
        match len {
            0 => {
                cursor += 1;
                break;
            }
            1..=MAX_LABEL_LEN => {
                let start = cursor + 1;
                let end = start + len;
                let label = buf.get(start..end).ok_or(WireError::Truncated)?;
                // `used + 1 + len` label bytes plus the terminating zero.
                if used + len + 2 > MAX_NAME_LEN {
                    return Err(WireError::NameTooLong);
                }
                sink.label(label);
                used += 1 + len;
                cursor = end;
            }
            l if l & 0xC0 == 0xC0 => {
                let second = *buf.get(cursor + 1).ok_or(WireError::Truncated)? as usize;
                let target = ((len & 0x3F) << 8) | second;
                // Pointers must point strictly backwards to prevent loops.
                if target >= cursor {
                    return Err(WireError::BadPointer);
                }
                hops += 1;
                if hops > MAX_POINTER_HOPS {
                    return Err(WireError::BadPointer);
                }
                if after.is_none() {
                    after = Some(cursor + 2);
                }
                cursor = target;
            }
            _ => return Err(WireError::BadLabelType),
        }
    }
    Ok((sink.end_name(), after.unwrap_or(cursor)))
}

/// Walks RDATA of type `rtype` at `buf[pos..pos+rdlen]`; `buf` is the
/// whole message so compressed names inside RDATA resolve correctly.
pub(crate) fn rdata<S: Sink>(
    rtype: RecordType,
    buf: &[u8],
    pos: usize,
    rdlen: usize,
    sink: &mut S,
) -> Result<S::RData, WireError> {
    let end = pos + rdlen;
    let slice = buf.get(pos..end).ok_or(WireError::Truncated)?;
    let fields = match rtype {
        RecordType::A => Fields::A(slice.try_into().map_err(|_| WireError::BadRdata)?),
        RecordType::Aaaa => Fields::Aaaa(slice.try_into().map_err(|_| WireError::BadRdata)?),
        RecordType::Ns | RecordType::Cname | RecordType::Ptr => {
            let (target, after) = name(buf, pos, sink)?;
            if after != end {
                return Err(WireError::BadRdata);
            }
            match rtype {
                RecordType::Ns => Fields::Ns(target),
                RecordType::Cname => Fields::Cname(target),
                _ => Fields::Ptr(target),
            }
        }
        RecordType::Soa => {
            let (mname, p) = name(buf, pos, sink)?;
            let (rname, p) = name(buf, p, sink)?;
            let tail =
                buf.get(p..p + 20).and_then(|t| t.try_into().ok()).ok_or(WireError::BadRdata)?;
            if p + 20 != end {
                return Err(WireError::BadRdata);
            }
            Fields::Soa(mname, rname, tail)
        }
        RecordType::Txt => {
            let mut p = 0;
            while p < slice.len() {
                let len = slice[p] as usize;
                sink.txt_string(slice.get(p + 1..p + 1 + len).ok_or(WireError::BadRdata)?);
                p += 1 + len;
            }
            Fields::Txt
        }
        RecordType::Other(code) => Fields::Other(code, slice),
    };
    Ok(sink.rdata(fields))
}

/// The sink of [`Message::decode`] and [`Name::decode`]: builds owned
/// values.
pub(crate) struct Owned {
    msg: Message,
    /// The name being walked, lowercased, as [`Name`] holds it.
    name: [u8; MAX_NAME_LEN],
    used: usize,
    /// The character-strings of the TXT RDATA being walked.
    txt: Vec<Vec<u8>>,
}

impl Owned {
    pub(crate) fn new() -> Owned {
        Owned { msg: Message::default(), name: [0; MAX_NAME_LEN], used: 0, txt: Vec::new() }
    }

    pub(crate) fn into_message(self) -> Message {
        self.msg
    }
}

impl Sink for Owned {
    type Name = Name;
    type RData = RData;

    fn header(&mut self, header: Header, [qd, an, ns, ar]: [usize; 4]) {
        self.msg.header = header;
        self.msg.questions = Vec::with_capacity(qd.min(32));
        self.msg.answers = Vec::with_capacity(an.min(64));
        self.msg.authorities = Vec::with_capacity(ns.min(64));
        self.msg.additionals = Vec::with_capacity(ar.min(64));
    }

    fn label(&mut self, label: &[u8]) {
        // The walker checked the caps, so the label fits.
        let dst = &mut self.name[self.used..=self.used + label.len()];
        dst[0] = label.len() as u8;
        dst[1..].copy_from_slice(label);
        dst[1..].make_ascii_lowercase();
        self.used += 1 + label.len();
    }

    fn end_name(&mut self) -> Name {
        let name = Name::from_walked(&self.name[..self.used]);
        self.used = 0;
        name
    }

    fn txt_string(&mut self, s: &[u8]) {
        self.txt.push(s.to_vec());
    }

    fn rdata(&mut self, fields: Fields<'_, Name>) -> RData {
        match fields {
            Fields::A(octets) => RData::A(Ipv4Addr::from(octets)),
            Fields::Aaaa(octets) => RData::Aaaa(Ipv6Addr::from(octets)),
            Fields::Ns(name) => RData::Ns(name),
            Fields::Cname(name) => RData::Cname(name),
            Fields::Ptr(name) => RData::Ptr(name),
            Fields::Soa(mname, rname, tail) => {
                let word = |i: usize| u32::from_be_bytes(std::array::from_fn(|j| tail[4 * i + j]));
                RData::Soa(Box::new(Soa {
                    mname,
                    rname,
                    serial: word(0),
                    refresh: word(1),
                    retry: word(2),
                    expire: word(3),
                    minimum: word(4),
                }))
            }
            Fields::Txt => RData::Txt(std::mem::take(&mut self.txt)),
            Fields::Other(code, bytes) => RData::Other(code, bytes.to_vec()),
        }
    }

    fn question(&mut self, name: Name, qtype: RecordType, qclass: Class) {
        self.msg.questions.push(Question { name, qtype, qclass });
    }

    fn record(&mut self, section: usize, name: Name, class: Class, ttl: u32, rdata: RData) {
        let rr = ResourceRecord { name, class, ttl, rdata };
        match section {
            0 => self.msg.answers.push(rr),
            1 => self.msg.authorities.push(rr),
            _ => self.msg.additionals.push(rr),
        }
    }
}

/// The sink of [`Message::validate`]: keeps nothing.
pub(crate) struct Check;

impl Sink for Check {
    type Name = ();
    type RData = ();

    fn header(&mut self, _: Header, _: [usize; 4]) {}
    fn label(&mut self, _: &[u8]) {}
    fn end_name(&mut self) {}
    fn txt_string(&mut self, _: &[u8]) {}
    fn rdata(&mut self, _: Fields<'_, ()>) {}
    fn question(&mut self, _: (), _: RecordType, _: Class) {}
    fn record(&mut self, _: usize, _: (), _: Class, _: u32, _: ()) {}
}
