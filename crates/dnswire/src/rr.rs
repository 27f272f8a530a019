//! Resource records: types, classes, and RDATA encode/decode.

use crate::error::WireError;
use crate::name::Name;
use core::fmt;
use std::net::{Ipv4Addr, Ipv6Addr};

/// DNS record types used by the measurement (plus an escape hatch for
/// anything else seen on the wire).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RecordType {
    /// IPv4 host address.
    A,
    /// Authoritative name server.
    Ns,
    /// Canonical name (the edges of the Figure 2 mapping graph).
    Cname,
    /// Start of authority.
    Soa,
    /// Domain name pointer (reverse DNS; drives the Table 1 analysis).
    Ptr,
    /// Text strings.
    Txt,
    /// IPv6 host address (the paper observes Apple's mapping answers none).
    Aaaa,
    /// Any other type, carried opaquely.
    Other(u16),
}

impl RecordType {
    /// The 16-bit wire value.
    pub fn to_u16(self) -> u16 {
        match self {
            RecordType::A => 1,
            RecordType::Ns => 2,
            RecordType::Cname => 5,
            RecordType::Soa => 6,
            RecordType::Ptr => 12,
            RecordType::Txt => 16,
            RecordType::Aaaa => 28,
            RecordType::Other(v) => v,
        }
    }

    /// From the 16-bit wire value.
    pub fn from_u16(v: u16) -> RecordType {
        match v {
            1 => RecordType::A,
            2 => RecordType::Ns,
            5 => RecordType::Cname,
            6 => RecordType::Soa,
            12 => RecordType::Ptr,
            16 => RecordType::Txt,
            28 => RecordType::Aaaa,
            other => RecordType::Other(other),
        }
    }
}

impl fmt::Display for RecordType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecordType::A => f.write_str("A"),
            RecordType::Ns => f.write_str("NS"),
            RecordType::Cname => f.write_str("CNAME"),
            RecordType::Soa => f.write_str("SOA"),
            RecordType::Ptr => f.write_str("PTR"),
            RecordType::Txt => f.write_str("TXT"),
            RecordType::Aaaa => f.write_str("AAAA"),
            RecordType::Other(v) => write!(f, "TYPE{v}"),
        }
    }
}

/// DNS class. Only `IN` matters here, but the wire field is preserved.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Class {
    /// The Internet.
    In,
    /// Anything else.
    Other(u16),
}

impl Class {
    /// The 16-bit wire value.
    pub fn to_u16(self) -> u16 {
        match self {
            Class::In => 1,
            Class::Other(v) => v,
        }
    }
    /// From the 16-bit wire value.
    pub fn from_u16(v: u16) -> Class {
        if v == 1 {
            Class::In
        } else {
            Class::Other(v)
        }
    }
}

/// SOA RDATA fields (RFC 1035 §3.3.13).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Soa {
    /// Primary name server.
    pub mname: Name,
    /// Responsible mailbox.
    pub rname: Name,
    /// Zone serial.
    pub serial: u32,
    /// Refresh interval, seconds.
    pub refresh: u32,
    /// Retry interval, seconds.
    pub retry: u32,
    /// Expiry, seconds.
    pub expire: u32,
    /// Negative-caching TTL, seconds.
    pub minimum: u32,
}

/// Decoded RDATA.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RData {
    /// IPv4 address.
    A(Ipv4Addr),
    /// Name server.
    Ns(Name),
    /// Canonical name.
    Cname(Name),
    /// Start of authority.
    Soa(Box<Soa>),
    /// Reverse pointer.
    Ptr(Name),
    /// Text strings (each ≤255 octets).
    Txt(Vec<Vec<u8>>),
    /// IPv6 address.
    Aaaa(Ipv6Addr),
    /// Opaque bytes for unmodelled types, tagged with the wire type code.
    Other(u16, Vec<u8>),
}

impl RData {
    /// The record type this RDATA belongs with.
    pub fn rtype(&self) -> RecordType {
        self.borrowed().rtype()
    }

    /// The RDATA with its names and bytes borrowed, as the writer takes it.
    pub fn borrowed(&self) -> RDataRef<'_> {
        match self {
            RData::A(a) => RDataRef::A(*a),
            RData::Ns(n) => RDataRef::Ns(n),
            RData::Cname(n) => RDataRef::Cname(n),
            RData::Soa(soa) => RDataRef::Soa(soa),
            RData::Ptr(n) => RDataRef::Ptr(n),
            RData::Txt(strings) => RDataRef::Txt(strings),
            RData::Aaaa(a) => RDataRef::Aaaa(*a),
            RData::Other(code, bytes) => RDataRef::Other(*code, bytes),
        }
    }
}

/// RDATA whose names and bytes are borrowed from wherever they live: a
/// [`RData`] ([`RData::borrowed`]) or a table of names. This is what
/// [`MessageWriter::record`](crate::MessageWriter::record) encodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RDataRef<'a> {
    /// IPv4 address.
    A(Ipv4Addr),
    /// Name server.
    Ns(&'a Name),
    /// Canonical name.
    Cname(&'a Name),
    /// Start of authority.
    Soa(&'a Soa),
    /// Reverse pointer.
    Ptr(&'a Name),
    /// Text strings (each ≤255 octets).
    Txt(&'a [Vec<u8>]),
    /// IPv6 address.
    Aaaa(Ipv6Addr),
    /// Opaque bytes for unmodelled types, tagged with the wire type code.
    Other(u16, &'a [u8]),
}

impl RDataRef<'_> {
    /// The record type this RDATA belongs with.
    pub fn rtype(self) -> RecordType {
        match self {
            RDataRef::A(_) => RecordType::A,
            RDataRef::Ns(_) => RecordType::Ns,
            RDataRef::Cname(_) => RecordType::Cname,
            RDataRef::Soa(_) => RecordType::Soa,
            RDataRef::Ptr(_) => RecordType::Ptr,
            RDataRef::Txt(_) => RecordType::Txt,
            RDataRef::Aaaa(_) => RecordType::Aaaa,
            RDataRef::Other(code, _) => RecordType::Other(code),
        }
    }

    /// Encodes RDATA (uncompressed names, as modern encoders do) into `out`.
    pub(crate) fn encode(self, out: &mut Vec<u8>) -> Result<(), WireError> {
        match self {
            RDataRef::A(a) => out.extend_from_slice(&a.octets()),
            RDataRef::Ns(n) | RDataRef::Cname(n) | RDataRef::Ptr(n) => n.encode_uncompressed(out),
            RDataRef::Soa(soa) => {
                soa.mname.encode_uncompressed(out);
                soa.rname.encode_uncompressed(out);
                for v in [soa.serial, soa.refresh, soa.retry, soa.expire, soa.minimum] {
                    out.extend_from_slice(&v.to_be_bytes());
                }
            }
            RDataRef::Txt(strings) => {
                for s in strings {
                    if s.len() > 255 {
                        return Err(WireError::TxtTooLong);
                    }
                    out.push(s.len() as u8);
                    out.extend_from_slice(s);
                }
            }
            RDataRef::Aaaa(a) => out.extend_from_slice(&a.octets()),
            RDataRef::Other(_, bytes) => out.extend_from_slice(bytes),
        }
        Ok(())
    }
}

impl From<RDataRef<'_>> for RData {
    fn from(rdata: RDataRef<'_>) -> RData {
        match rdata {
            RDataRef::A(a) => RData::A(a),
            RDataRef::Ns(n) => RData::Ns(n.clone()),
            RDataRef::Cname(n) => RData::Cname(n.clone()),
            RDataRef::Soa(soa) => RData::Soa(Box::new(soa.clone())),
            RDataRef::Ptr(n) => RData::Ptr(n.clone()),
            RDataRef::Txt(strings) => RData::Txt(strings.to_vec()),
            RDataRef::Aaaa(a) => RData::Aaaa(a),
            RDataRef::Other(code, bytes) => RData::Other(code, bytes.to_vec()),
        }
    }
}

/// A complete resource record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResourceRecord {
    /// Owner name.
    pub name: Name,
    /// Class (normally `IN`).
    pub class: Class,
    /// Time to live, seconds.
    pub ttl: u32,
    /// Type-specific data.
    pub rdata: RData,
}

impl ResourceRecord {
    /// Convenience constructor for an `IN` record.
    pub fn new(name: Name, ttl: u32, rdata: RData) -> ResourceRecord {
        ResourceRecord { name, class: Class::In, ttl, rdata }
    }

    /// The record type, derived from the RDATA variant.
    pub fn rtype(&self) -> RecordType {
        self.rdata.rtype()
    }
}

impl fmt::Display for ResourceRecord {
    /// Zone-file-like presentation: `name ttl IN TYPE rdata`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} IN {} ", self.name, self.ttl, self.rtype())?;
        match &self.rdata {
            RData::A(a) => write!(f, "{a}"),
            RData::Aaaa(a) => write!(f, "{a}"),
            RData::Ns(n) | RData::Cname(n) | RData::Ptr(n) => write!(f, "{n}"),
            RData::Soa(s) => write!(f, "{} {} {}", s.mname, s.rname, s.serial),
            RData::Txt(strings) => {
                for s in strings {
                    write!(f, "\"{}\" ", String::from_utf8_lossy(s))?;
                }
                Ok(())
            }
            RData::Other(_, b) => write!(f, "\\# {}", b.len()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode::{self, Owned};

    /// Decodes `buf` as the whole RDATA of a `rtype` record.
    fn decode(rtype: RecordType, buf: &[u8]) -> Result<RData, WireError> {
        decode::rdata(rtype, buf, 0, buf.len(), &mut Owned::new())
    }

    fn encode(rdata: &RData) -> Result<Vec<u8>, WireError> {
        let mut buf = Vec::new();
        rdata.borrowed().encode(&mut buf)?;
        Ok(buf)
    }

    #[test]
    fn record_type_wire_values() {
        for (t, v) in [
            (RecordType::A, 1),
            (RecordType::Ns, 2),
            (RecordType::Cname, 5),
            (RecordType::Soa, 6),
            (RecordType::Ptr, 12),
            (RecordType::Txt, 16),
            (RecordType::Aaaa, 28),
        ] {
            assert_eq!(t.to_u16(), v);
            assert_eq!(RecordType::from_u16(v), t);
        }
        assert_eq!(RecordType::from_u16(99), RecordType::Other(99));
    }

    #[test]
    fn a_record_roundtrip() {
        let rdata = RData::A(Ipv4Addr::new(17, 253, 1, 8));
        let buf = encode(&rdata).unwrap();
        assert_eq!(buf, [17, 253, 1, 8]);
        assert_eq!(decode(RecordType::A, &buf).unwrap(), rdata);
    }

    #[test]
    fn a_record_bad_length() {
        assert_eq!(decode(RecordType::A, &[1, 2, 3]).unwrap_err(), WireError::BadRdata);
    }

    #[test]
    fn cname_roundtrip() {
        let target = Name::parse("appldnld.apple.com.akadns.net").unwrap();
        let rdata = RData::Cname(target.clone());
        let back = decode(RecordType::Cname, &encode(&rdata).unwrap()).unwrap();
        assert_eq!(back, RData::Cname(target));
    }

    #[test]
    fn soa_roundtrip() {
        let soa = Soa {
            mname: Name::parse("adns1.apple.com").unwrap(),
            rname: Name::parse("hostmaster.apple.com").unwrap(),
            serial: 2017091901,
            refresh: 1800,
            retry: 900,
            expire: 2016000,
            minimum: 1800,
        };
        let rdata = RData::Soa(Box::new(soa));
        assert_eq!(decode(RecordType::Soa, &encode(&rdata).unwrap()).unwrap(), rdata);
    }

    #[test]
    fn txt_roundtrip_and_limits() {
        let rdata = RData::Txt(vec![b"hello".to_vec(), b"world".to_vec()]);
        assert_eq!(decode(RecordType::Txt, &encode(&rdata).unwrap()).unwrap(), rdata);

        let too_long = RData::Txt(vec![vec![b'x'; 256]]);
        assert_eq!(encode(&too_long).unwrap_err(), WireError::TxtTooLong);
    }

    #[test]
    fn display_zone_format() {
        let rr = ResourceRecord::new(
            Name::parse("appldnld.apple.com").unwrap(),
            21600,
            RData::Cname(Name::parse("appldnld.apple.com.akadns.net").unwrap()),
        );
        assert_eq!(
            rr.to_string(),
            "appldnld.apple.com 21600 IN CNAME appldnld.apple.com.akadns.net"
        );
    }
}
