//! RFC 1035 DNS wire format, implemented from scratch.
//!
//! This crate is the protocol substrate of the measurement platform: probes
//! and the recursive resolver in `mcdn-dnssim` exchange real DNS packets so
//! the reproduction exercises the same encode/decode path a production
//! measurement tool would.
//!
//! Design follows the smoltcp school: explicit [`Message::encode`] /
//! [`Message::decode`] on byte buffers, no panics on malformed input, one
//! error enum ([`WireError`]) for the whole layer. There is one code path
//! per direction:
//!
//! * **Decode** is one walker over the byte slice that makes every check
//!   once (header, count floor, truncation, label types and caps, pointers
//!   and their hop budget, RDATA lengths) and hands what it checked to a
//!   sink. [`Message::decode`] and [`Name::decode`] use the sink that builds
//!   owned values; [`Message::validate`] uses one that keeps nothing, so it
//!   allocates nothing and returns the same verdict and error.
//! * **Encode** is [`MessageWriter`], which writes a message from borrowed
//!   names into a buffer it reuses, with RFC 1035 §4.1.4 name compression.
//!   [`Message::encode`] is that writer over the message's own names; a
//!   caller whose names live in a table ([`RDataRef`] borrows RDATA names
//!   the same way) writes without building a [`Message`].
//!
//! Supported record types cover everything the paper's measurement needs:
//! `A` for cache addresses, `CNAME` for the mapping-chain edges of Figure 2,
//! `NS`/`SOA` for delegation, `PTR` for the reverse-DNS naming-scheme
//! analysis (Table 1), `TXT` and `AAAA` for completeness (the paper notes the
//! mapping entry points answer no AAAA — tests assert that behaviour in the
//! simulator).

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod decode;
pub mod display;
pub mod edns;
pub mod error;
pub mod message;
pub mod name;
#[cfg(test)]
mod reference;
pub mod rr;

pub use display::dig_format;
pub use edns::ClientSubnet;
pub use error::WireError;
pub use message::{Flags, Header, Message, MessageWriter, Opcode, Question, Rcode};
pub use name::Name;
pub use rr::{Class, RData, RDataRef, RecordType, ResourceRecord, Soa};
