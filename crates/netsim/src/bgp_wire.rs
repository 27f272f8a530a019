//! BGP-4 UPDATE wire format (RFC 4271 subset).
//!
//! The third data source of the paper's ISP pipeline is BGP: the collectors
//! "actively keep track of ~60 million BGP routes in ~300 active sessions".
//! This module implements the part of BGP a route collector needs — parsing
//! and emitting UPDATE messages (withdrawn routes, ORIGIN/AS_PATH/NEXT_HOP
//! path attributes, NLRI prefixes).

use crate::ip::Ipv4Net;
use crate::topology::AsId;
use std::net::Ipv4Addr;

/// BGP message header length (16-byte marker + length + type).
pub const HEADER_LEN: usize = 19;
/// UPDATE message type code.
pub const TYPE_UPDATE: u8 = 2;

/// Errors from the BGP codec.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BgpError {
    /// Input shorter than its length field promises.
    Truncated,
    /// The 16-byte marker was not all-ones.
    BadMarker,
    /// Not an UPDATE message.
    NotUpdate,
    /// A prefix length exceeded 32 bits.
    BadPrefix,
    /// A path attribute was malformed.
    BadAttribute,
    /// Message exceeds the BGP maximum of 4096 octets.
    TooLong,
}

impl core::fmt::Display for BgpError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            BgpError::Truncated => "BGP message truncated",
            BgpError::BadMarker => "bad BGP marker",
            BgpError::NotUpdate => "not an UPDATE message",
            BgpError::BadPrefix => "invalid NLRI prefix",
            BgpError::BadAttribute => "malformed path attribute",
            BgpError::TooLong => "message longer than 4096 octets",
        };
        f.write_str(s)
    }
}

impl std::error::Error for BgpError {}

/// A parsed UPDATE message (the fields a route collector uses).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Update {
    /// Prefixes withdrawn from service.
    pub withdrawn: Vec<Ipv4Net>,
    /// AS path of the announced routes (AS_SEQUENCE, 2-octet ASNs).
    pub as_path: Vec<AsId>,
    /// Next-hop router.
    pub next_hop: Option<Ipv4Addr>,
    /// Newly announced prefixes.
    pub announced: Vec<Ipv4Net>,
}

impl Update {
    /// The origin AS of the announced routes (last AS in the path).
    pub fn origin(&self) -> Option<AsId> {
        self.as_path.last().copied()
    }

    /// Encodes to a full BGP message (header + UPDATE body).
    pub fn encode(&self) -> Result<Vec<u8>, BgpError> {
        let mut withdrawn = Vec::new();
        for p in &self.withdrawn {
            encode_prefix(p, &mut withdrawn);
        }
        let mut attrs = Vec::new();
        if !self.as_path.is_empty() || self.next_hop.is_some() {
            // ORIGIN: well-known mandatory, IGP.
            attrs.extend_from_slice(&[0x40, 1, 1, 0]);
            // AS_PATH: one AS_SEQUENCE segment of 2-octet ASNs.
            let mut seg = vec![2u8, self.as_path.len() as u8];
            for asn in &self.as_path {
                seg.extend_from_slice(&((asn.0 & 0xFFFF) as u16).to_be_bytes());
            }
            attrs.extend_from_slice(&[0x40, 2, seg.len() as u8]);
            attrs.extend_from_slice(&seg);
            // NEXT_HOP.
            if let Some(nh) = self.next_hop {
                attrs.extend_from_slice(&[0x40, 3, 4]);
                attrs.extend_from_slice(&nh.octets());
            }
        }
        let mut nlri = Vec::new();
        for p in &self.announced {
            encode_prefix(p, &mut nlri);
        }
        let body_len = 2 + withdrawn.len() + 2 + attrs.len() + nlri.len();
        let total = HEADER_LEN + body_len;
        if total > 4096 {
            return Err(BgpError::TooLong);
        }
        let mut out = Vec::with_capacity(total);
        out.extend_from_slice(&[0xFF; 16]);
        out.extend_from_slice(&(total as u16).to_be_bytes());
        out.push(TYPE_UPDATE);
        out.extend_from_slice(&(withdrawn.len() as u16).to_be_bytes());
        out.extend_from_slice(&withdrawn);
        out.extend_from_slice(&(attrs.len() as u16).to_be_bytes());
        out.extend_from_slice(&attrs);
        out.extend_from_slice(&nlri);
        Ok(out)
    }

    /// Decodes a full BGP message; must be an UPDATE.
    pub fn decode(buf: &[u8]) -> Result<Update, BgpError> {
        if buf.len() < HEADER_LEN {
            return Err(BgpError::Truncated);
        }
        if buf[..16] != [0xFF; 16] {
            return Err(BgpError::BadMarker);
        }
        let length = u16::from_be_bytes([buf[16], buf[17]]) as usize;
        if length > 4096 {
            return Err(BgpError::TooLong);
        }
        if buf.len() < length {
            return Err(BgpError::Truncated);
        }
        if buf[18] != TYPE_UPDATE {
            return Err(BgpError::NotUpdate);
        }
        let body = &buf[HEADER_LEN..length];
        let mut pos = 0usize;
        let take2 = |body: &[u8], pos: &mut usize| -> Result<usize, BgpError> {
            let b = body.get(*pos..*pos + 2).ok_or(BgpError::Truncated)?;
            *pos += 2;
            Ok(u16::from_be_bytes([b[0], b[1]]) as usize)
        };

        let withdrawn_len = take2(body, &mut pos)?;
        let withdrawn_end = pos + withdrawn_len;
        let mut withdrawn = Vec::new();
        while pos < withdrawn_end {
            withdrawn.push(decode_prefix(body, &mut pos, withdrawn_end)?);
        }

        let attrs_len = take2(body, &mut pos)?;
        let attrs_end = pos + attrs_len;
        if attrs_end > body.len() {
            return Err(BgpError::Truncated);
        }
        let mut as_path = Vec::new();
        let mut next_hop = None;
        while pos < attrs_end {
            let flags = *body.get(pos).ok_or(BgpError::Truncated)?;
            let type_code = *body.get(pos + 1).ok_or(BgpError::Truncated)?;
            let extended = flags & 0x10 != 0;
            let (alen, header) = if extended {
                let b = body.get(pos + 2..pos + 4).ok_or(BgpError::Truncated)?;
                (u16::from_be_bytes([b[0], b[1]]) as usize, 4)
            } else {
                (*body.get(pos + 2).ok_or(BgpError::Truncated)? as usize, 3)
            };
            let val = body.get(pos + header..pos + header + alen).ok_or(BgpError::Truncated)?;
            match type_code {
                2 => {
                    // AS_PATH: segments of (type, count, count×u16).
                    let mut p = 0usize;
                    while p < val.len() {
                        let count = *val.get(p + 1).ok_or(BgpError::BadAttribute)? as usize;
                        let seg =
                            val.get(p + 2..p + 2 + count * 2).ok_or(BgpError::BadAttribute)?;
                        for c in seg.chunks(2) {
                            as_path.push(AsId(u16::from_be_bytes([c[0], c[1]]) as u32));
                        }
                        p += 2 + count * 2;
                    }
                }
                3 => {
                    let octets: [u8; 4] =
                        val.try_into().map_err(|_| BgpError::BadAttribute)?;
                    next_hop = Some(Ipv4Addr::from(octets));
                }
                _ => {}
            }
            pos += header + alen;
        }

        let mut announced = Vec::new();
        let end = body.len();
        while pos < end {
            announced.push(decode_prefix(body, &mut pos, end)?);
        }
        Ok(Update { withdrawn, as_path, next_hop, announced })
    }
}

fn encode_prefix(p: &Ipv4Net, out: &mut Vec<u8>) {
    out.push(p.prefix_len());
    let octets = p.network().octets();
    out.extend_from_slice(&octets[..p.prefix_len().div_ceil(8) as usize]);
}

fn decode_prefix(body: &[u8], pos: &mut usize, end: usize) -> Result<Ipv4Net, BgpError> {
    let len = *body.get(*pos).ok_or(BgpError::Truncated)?;
    if len > 32 {
        return Err(BgpError::BadPrefix);
    }
    let n = len.div_ceil(8) as usize;
    if *pos + 1 + n > end {
        return Err(BgpError::Truncated);
    }
    let mut octets = [0u8; 4];
    octets[..n].copy_from_slice(&body[*pos + 1..*pos + 1 + n]);
    *pos += 1 + n;
    Ok(Ipv4Net::new(Ipv4Addr::from(octets), len))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net(s: &str) -> Ipv4Net {
        Ipv4Net::parse(s).unwrap()
    }

    #[test]
    fn update_roundtrip() {
        let u = Update {
            withdrawn: vec![net("4.23.0.0/16")],
            as_path: vec![AsId(1299), AsId(22822)],
            next_hop: Some("80.81.192.1".parse().unwrap()),
            announced: vec![net("68.232.0.0/16"), net("69.28.64.0/22")],
        };
        let bytes = u.encode().unwrap();
        let back = Update::decode(&bytes).unwrap();
        assert_eq!(back, u);
        assert_eq!(back.origin(), Some(AsId(22822)));
    }

    #[test]
    fn prefix_packing_is_minimal() {
        // A /8 prefix occupies 1 length byte + 1 address byte.
        let u = Update {
            withdrawn: vec![],
            as_path: vec![AsId(714)],
            next_hop: Some("17.0.0.1".parse().unwrap()),
            announced: vec![net("17.0.0.0/8")],
        };
        let bytes = u.encode().unwrap();
        let back = Update::decode(&bytes).unwrap();
        assert_eq!(back.announced, vec![net("17.0.0.0/8")]);
        // 19 header + 2 + 0 withdrawn + 2 + attrs + 2-byte NLRI.
        let attrs = 4 + 3 + (2 + 2) + 3 + 4;
        assert_eq!(bytes.len(), 19 + 2 + 2 + attrs + 2);
    }

    #[test]
    fn decode_rejects_malformed() {
        assert_eq!(Update::decode(&[0; 10]).unwrap_err(), BgpError::Truncated);
        let mut bad_marker = Update::default().encode().unwrap();
        bad_marker[3] = 0;
        assert_eq!(Update::decode(&bad_marker).unwrap_err(), BgpError::BadMarker);
        let mut not_update = Update::default().encode().unwrap();
        not_update[18] = 1; // OPEN
        assert_eq!(Update::decode(&not_update).unwrap_err(), BgpError::NotUpdate);
        // Prefix length 40 in NLRI.
        let mut bad_prefix = Update::default().encode().unwrap();
        bad_prefix.push(40);
        let len = bad_prefix.len() as u16;
        bad_prefix[16..18].copy_from_slice(&len.to_be_bytes());
        assert_eq!(Update::decode(&bad_prefix).unwrap_err(), BgpError::BadPrefix);
    }

    #[test]
    fn empty_update_roundtrips() {
        let u = Update::default();
        let bytes = u.encode().unwrap();
        let back = Update::decode(&bytes).unwrap();
        assert_eq!(back, u);
    }
}
