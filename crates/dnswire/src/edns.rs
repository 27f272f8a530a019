//! The EDNS Client-Subnet option (RFC 7871).
//!
//! Location-based mapping like Apple's GSLB needs a location signal. In the
//! wild that signal is the recursive resolver's address, optionally refined
//! by the **EDNS Client Subnet** (ECS) option carrying a truncated client
//! prefix. The simulation passes client location explicitly (see
//! `mcdn-dnssim`); this module encodes and decodes the option itself, with
//! the RFC's truncation and host-bit rules.

use crate::error::WireError;
use std::net::Ipv4Addr;

/// The ECS option code.
pub const ECS_OPTION_CODE: u16 = 8;
/// ECS address family for IPv4.
const FAMILY_IPV4: u16 = 1;

/// An EDNS Client-Subnet option.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientSubnet {
    /// The (possibly truncated) client prefix.
    pub addr: Ipv4Addr,
    /// Prefix length the client asked to disclose (commonly 24).
    pub source_prefix_len: u8,
    /// Prefix length the authority actually used (0 in queries).
    pub scope_prefix_len: u8,
}

impl ClientSubnet {
    /// A query-side option disclosing `addr/<len>`.
    pub fn query(addr: Ipv4Addr, source_prefix_len: u8) -> ClientSubnet {
        let masked = mask(addr, source_prefix_len);
        ClientSubnet { addr: masked, source_prefix_len, scope_prefix_len: 0 }
    }

    /// Encodes the option's RDATA payload (option code + length + body).
    pub fn encode_option(&self) -> Vec<u8> {
        let octets = self.addr.octets();
        // RFC 7871: address truncated to the fewest octets covering the
        // source prefix length.
        let addr_octets = self.source_prefix_len.div_ceil(8) as usize;
        let mut body = Vec::with_capacity(4 + addr_octets);
        body.extend_from_slice(&FAMILY_IPV4.to_be_bytes());
        body.push(self.source_prefix_len);
        body.push(self.scope_prefix_len);
        body.extend_from_slice(&octets[..addr_octets]);
        let mut out = Vec::with_capacity(4 + body.len());
        out.extend_from_slice(&ECS_OPTION_CODE.to_be_bytes());
        out.extend_from_slice(&(body.len() as u16).to_be_bytes());
        out.extend_from_slice(&body);
        out
    }

    /// Decodes an ECS option body (after the option code/length header).
    pub fn decode_option(body: &[u8]) -> Result<ClientSubnet, WireError> {
        if body.len() < 4 {
            return Err(WireError::Truncated);
        }
        let family = u16::from_be_bytes([body[0], body[1]]);
        if family != FAMILY_IPV4 {
            return Err(WireError::BadRdata);
        }
        let source_prefix_len = body[2];
        let scope_prefix_len = body[3];
        if source_prefix_len > 32 {
            return Err(WireError::BadRdata);
        }
        let addr_octets = source_prefix_len.div_ceil(8) as usize;
        if body.len() != 4 + addr_octets {
            return Err(WireError::BadRdata);
        }
        let mut octets = [0u8; 4];
        octets[..addr_octets].copy_from_slice(&body[4..]);
        let addr = Ipv4Addr::from(octets);
        // RFC 7871 §6: bits beyond the source prefix MUST be zero.
        if addr != mask(addr, source_prefix_len) {
            return Err(WireError::BadRdata);
        }
        Ok(ClientSubnet { addr, source_prefix_len, scope_prefix_len })
    }
}

fn mask(addr: Ipv4Addr, len: u8) -> Ipv4Addr {
    let bits = u32::from(addr);
    let mask = if len == 0 { 0 } else { u32::MAX << (32 - len.min(32) as u32) };
    Ipv4Addr::from(bits & mask)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn option_roundtrip_common_prefix_lengths() {
        for len in [0u8, 8, 16, 20, 24, 32] {
            let ecs = ClientSubnet::query(Ipv4Addr::new(84, 17, 133, 201), len);
            let encoded = ecs.encode_option();
            // Strip the 4-byte option header for decode.
            let decoded = ClientSubnet::decode_option(&encoded[4..]).unwrap();
            assert_eq!(decoded, ecs, "len {len}");
        }
    }

    #[test]
    fn query_masks_host_bits() {
        let ecs = ClientSubnet::query(Ipv4Addr::new(84, 17, 133, 201), 24);
        assert_eq!(ecs.addr, Ipv4Addr::new(84, 17, 133, 0));
        let ecs = ClientSubnet::query(Ipv4Addr::new(84, 17, 133, 201), 20);
        assert_eq!(ecs.addr, Ipv4Addr::new(84, 17, 128, 0));
    }

    #[test]
    fn decode_rejects_nonzero_host_bits() {
        // /24 with a fourth octet present and non-conforming bits: craft
        // body manually (family=1, src=20, scope=0, 3 addr octets where the
        // last violates the /20 mask).
        let body = [0u8, 1, 20, 0, 84, 17, 133];
        assert_eq!(ClientSubnet::decode_option(&body).unwrap_err(), WireError::BadRdata);
    }

    #[test]
    fn decode_rejects_bad_family_and_lengths() {
        assert_eq!(ClientSubnet::decode_option(&[0, 2, 24, 0, 1, 2, 3]).unwrap_err(), WireError::BadRdata);
        assert_eq!(ClientSubnet::decode_option(&[0, 1, 40, 0]).unwrap_err(), WireError::BadRdata);
        assert_eq!(ClientSubnet::decode_option(&[0, 1]).unwrap_err(), WireError::Truncated);
        // Length/body mismatch.
        assert_eq!(ClientSubnet::decode_option(&[0, 1, 24, 0, 1, 2]).unwrap_err(), WireError::BadRdata);
    }
}
