//! Wire-level serving: the authoritative side answers real DNS packets.
//!
//! The simulation drivers resolve through the compiled namespace
//! ([`InternedResolver`](crate::InternedResolver)); this module is the
//! byte-accurate boundary a real deployment would expose, and the one
//! reader of the string-keyed zones' [`Namespace::query`]. A query arrives
//! as RFC 1035 bytes, is decoded, answered from the same zones/policies
//! with full-fidelity records and no cache, and re-encoded — so
//! measurement tooling built against the wire format (or captured packets)
//! can be tested against the simulated Meta-CDN directly.

use crate::context::QueryContext;
use crate::zone::{Namespace, ZoneAnswer};
use mcdn_dnswire::{Flags, Header, Message, Opcode, Rcode, WireError};

/// Serves one DNS query packet against the namespace.
///
/// Behaviour mirrors an authoritative-with-recursion-available resolver
/// front end:
///
/// * malformed packets → `FORMERR` (when a header id is recoverable) or
///   [`WireError`] when not even that much parses;
/// * non-QUERY opcodes → `NOTIMP`;
/// * zero or multiple questions → `FORMERR`;
/// * unknown names → `NXDOMAIN`; known names without the asked type →
///   empty `NOERROR` (NODATA);
/// * CNAMEs are followed *within* the namespace, like the paper's probes
///   saw (answers carried the whole visible chain).
pub fn serve(ns: &Namespace, query_bytes: &[u8], ctx: &QueryContext) -> Result<Vec<u8>, WireError> {
    let query = match Message::decode(query_bytes) {
        Ok(q) => q,
        Err(_) if query_bytes.len() >= 2 => {
            // Enough for a transaction id: answer FORMERR.
            let id = u16::from_be_bytes([query_bytes[0], query_bytes[1]]);
            let resp = Message {
                header: Header {
                    id,
                    flags: Flags { qr: true, ..Flags::default() },
                    opcode: Opcode::Query,
                    rcode: Rcode::FormErr,
                },
                ..Message::default()
            };
            return resp.encode();
        }
        Err(e) => return Err(e),
    };

    if query.header.opcode != Opcode::Query {
        let mut resp = Message::response_to(&query, Rcode::NotImp);
        resp.header.opcode = query.header.opcode;
        return resp.encode();
    }
    if query.questions.len() != 1 {
        return Message::response_to(&query, Rcode::FormErr).encode();
    }
    let question = &query.questions[0];

    // Follow the chain, accumulating answer records like a recursive
    // front end with full view of the namespace.
    let mut resp = Message::response_to(&query, Rcode::NoError);
    let mut qname = question.name.clone();
    for _ in 0..crate::resolver::MAX_CHAIN {
        match ns.query(&qname, question.qtype, ctx) {
            (ZoneAnswer::Records(rrs), _) => {
                let next = rrs.iter().find_map(|rr| match &rr.rdata {
                    mcdn_dnswire::RData::Cname(t) if question.qtype != mcdn_dnswire::RecordType::Cname => {
                        Some(t.clone())
                    }
                    _ => None,
                });
                let terminal = rrs.iter().any(|rr| rr.rtype() == question.qtype);
                resp.answers.extend(rrs);
                match next {
                    Some(t) if !terminal => qname = t,
                    _ => break,
                }
            }
            (ZoneAnswer::NoData, _) => break,
            (ZoneAnswer::NxDomain, _) => {
                // NXDOMAIN only if nothing was resolved yet; a broken tail
                // after a CNAME is still NXDOMAIN per RFC 2308.
                resp.header.rcode = Rcode::NxDomain;
                break;
            }
        }
    }
    resp.header.flags.aa = true;
    resp.encode()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zone::Zone;
    use mcdn_dnswire::{Name, RData, RecordType};
    use mcdn_geo::{Continent, Coord, Locode, SimTime};
    use std::net::Ipv4Addr;

    fn ctx() -> QueryContext {
        QueryContext {
            client_ip: Ipv4Addr::new(84, 17, 0, 1),
            locode: Locode::parse("defra").unwrap(),
            coord: Coord::new(50.1, 8.7),
            continent: Continent::Europe,
            now: SimTime::from_ymd(2017, 9, 15),
        }
    }

    fn ns() -> Namespace {
        let mut ns = Namespace::new();
        let mut z = Zone::new(Name::parse("apple.com").unwrap());
        z.add_cname("appldnld.apple.com", "lb.apple.com", 21600);
        z.add_a("lb.apple.com", Ipv4Addr::new(17, 253, 1, 1), 20);
        ns.add_zone(z);
        ns
    }

    #[test]
    fn full_chain_over_the_wire() {
        let q = Message::query(7, Name::parse("appldnld.apple.com").unwrap(), RecordType::A);
        let resp_bytes = serve(&ns(), &q.encode().unwrap(), &ctx()).unwrap();
        let resp = Message::decode(&resp_bytes).unwrap();
        assert_eq!(resp.header.id, 7);
        assert!(resp.header.flags.qr && resp.header.flags.aa);
        assert_eq!(resp.header.rcode, Rcode::NoError);
        assert_eq!(resp.answers.len(), 2, "CNAME + A");
        assert!(matches!(resp.answers[0].rdata, RData::Cname(_)));
        assert!(matches!(resp.answers[1].rdata, RData::A(a) if a == Ipv4Addr::new(17, 253, 1, 1)));
    }

    #[test]
    fn nxdomain_over_the_wire() {
        let q = Message::query(9, Name::parse("nope.apple.com").unwrap(), RecordType::A);
        let resp = Message::decode(&serve(&ns(), &q.encode().unwrap(), &ctx()).unwrap()).unwrap();
        assert_eq!(resp.header.rcode, Rcode::NxDomain);
        assert!(resp.answers.is_empty());
    }

    #[test]
    fn nodata_is_noerror_with_empty_answer() {
        let q = Message::query(9, Name::parse("lb.apple.com").unwrap(), RecordType::Txt);
        let resp = Message::decode(&serve(&ns(), &q.encode().unwrap(), &ctx()).unwrap()).unwrap();
        assert_eq!(resp.header.rcode, Rcode::NoError);
        assert!(resp.answers.is_empty());
    }

    #[test]
    fn garbage_gets_formerr_when_id_recoverable() {
        let garbage = [0xABu8, 0xCD, 0xFF, 0xFF, 0, 9];
        let resp = Message::decode(&serve(&ns(), &garbage, &ctx()).unwrap()).unwrap();
        assert_eq!(resp.header.id, 0xABCD);
        assert_eq!(resp.header.rcode, Rcode::FormErr);
    }

    #[test]
    fn truly_unparseable_is_an_error() {
        assert!(serve(&ns(), &[0x01], &ctx()).is_err());
    }

    #[test]
    fn non_query_opcode_notimp() {
        let mut q = Message::query(3, Name::parse("lb.apple.com").unwrap(), RecordType::A);
        q.header.opcode = Opcode::Other(4); // NOTIFY
        let resp = Message::decode(&serve(&ns(), &q.encode().unwrap(), &ctx()).unwrap()).unwrap();
        assert_eq!(resp.header.rcode, Rcode::NotImp);
    }

    #[test]
    fn multiple_questions_rejected() {
        let mut q = Message::query(3, Name::parse("lb.apple.com").unwrap(), RecordType::A);
        q.questions.push(q.questions[0].clone());
        let resp = Message::decode(&serve(&ns(), &q.encode().unwrap(), &ctx()).unwrap()).unwrap();
        assert_eq!(resp.header.rcode, Rcode::FormErr);
    }
}
