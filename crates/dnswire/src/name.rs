//! Domain names: parsing, display, ordering, and wire representation.

use crate::decode::{self, Owned};
use crate::error::WireError;
use core::cmp::Ordering;
use core::fmt;
use std::hash::{Hash, Hasher};

/// Maximum length of a single label on the wire (RFC 1035 §2.3.4).
pub const MAX_LABEL_LEN: usize = 63;
/// Maximum length of a whole name on the wire (RFC 1035 §2.3.4).
pub const MAX_NAME_LEN: usize = 255;

/// A fully-qualified domain name in its uncompressed wire form.
///
/// The name is one buffer of length-prefixed labels, left-most first,
/// without the terminating zero octet (the root is the empty buffer).
/// DNS names compare case-insensitively (RFC 1035 §2.3.3); `Name`
/// lowercases ASCII at construction, so clone, equality and
/// [`Name::is_within`] are byte-slice operations and a decode fills a
/// single buffer.
///
/// `Hash` and `Ord` walk the labels and behave exactly as they would on a
/// `Vec` of label byte vectors: `Hash` writes the label count, then each
/// label's length and bytes; `Ord` compares label by label, left-most
/// first. Hash-map orders and sorted outputs keyed by names therefore do
/// not depend on the representation.
#[derive(Clone, PartialEq, Eq, Default)]
pub struct Name {
    wire: Vec<u8>,
}

/// Appends `label` to a wire buffer as a length octet and its lowercased
/// bytes, after the per-label checks of RFC 1035 §2.3.4.
fn push_label(wire: &mut Vec<u8>, label: &[u8]) -> Result<(), WireError> {
    if label.is_empty() {
        return Err(WireError::BadName);
    }
    if label.len() > MAX_LABEL_LEN {
        return Err(WireError::LabelTooLong);
    }
    wire.push(label.len() as u8);
    wire.extend(label.iter().map(|b| b.to_ascii_lowercase()));
    Ok(())
}

impl Name {
    /// The root name (zero labels).
    pub fn root() -> Name {
        Name { wire: Vec::new() }
    }

    /// Wraps a buffer of well-formed labels, checking the whole-name limit.
    fn from_wire(wire: Vec<u8>) -> Result<Name, WireError> {
        if wire.len() + 1 > MAX_NAME_LEN {
            return Err(WireError::NameTooLong);
        }
        Ok(Name { wire })
    }

    /// Parses a dotted name such as `appldnld.apple.com`. A single trailing
    /// dot (FQDN notation) is accepted; empty labels elsewhere are rejected.
    pub fn parse(s: &str) -> Result<Name, WireError> {
        if s == "." {
            return Ok(Name::root());
        }
        let s = s.strip_suffix('.').unwrap_or(s);
        if s.is_empty() {
            return Err(WireError::BadName);
        }
        // Every dot becomes a length octet, plus one for the first label.
        let mut wire = Vec::with_capacity(s.len() + 1);
        for part in s.split('.') {
            push_label(&mut wire, part.as_bytes())?;
        }
        Name::from_wire(wire)
    }

    /// Builds a name from raw label byte strings.
    pub fn from_labels<I, L>(labels: I) -> Result<Name, WireError>
    where
        I: IntoIterator<Item = L>,
        L: AsRef<[u8]>,
    {
        let mut wire = Vec::new();
        for l in labels {
            push_label(&mut wire, l.as_ref())?;
        }
        Name::from_wire(wire)
    }

    /// The labels, left-most first and root-most last.
    pub fn labels(&self) -> Labels<'_> {
        Labels { rest: &self.wire }
    }

    /// The labels in wire form (length-prefixed, lowercase), without the
    /// terminating zero octet. Every suffix that starts at a label
    /// boundary is the wire form of an ancestor name.
    pub(crate) fn wire(&self) -> &[u8] {
        &self.wire
    }

    /// Number of labels.
    pub fn label_count(&self) -> usize {
        self.labels().count()
    }

    /// True for the root name.
    pub fn is_root(&self) -> bool {
        self.wire.is_empty()
    }

    /// Length of this name on the wire, including the terminating zero octet.
    pub fn wire_len(&self) -> usize {
        self.wire.len() + 1
    }

    /// Whether `self` equals `suffix` or is a subdomain of it
    /// (`a.b.example.com` is within `example.com`).
    pub fn is_within(&self, suffix: &Name) -> bool {
        let Some(skip) = self.wire.len().checked_sub(suffix.wire.len()) else {
            return false;
        };
        if self.wire[skip..] != suffix.wire[..] {
            return false;
        }
        // Equal bytes are equal labels only if they start on a label.
        let mut at = 0;
        while at < skip {
            at += 1 + self.wire[at] as usize;
        }
        at == skip
    }

    /// The name with its leftmost label removed (`a.b.c` → `b.c`); `None` at
    /// the root.
    pub fn parent(&self) -> Option<Name> {
        let (&len, rest) = self.wire.split_first()?;
        Some(Name { wire: rest[len as usize..].to_vec() })
    }

    /// Prepends a label (`child("www")` on `example.com` → `www.example.com`).
    pub fn child(&self, label: &str) -> Result<Name, WireError> {
        Name::from_labels(std::iter::once(label.as_bytes()).chain(self.labels()))
    }

    /// Encodes the name without compression, appending to `out`.
    pub fn encode_uncompressed(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.wire);
        out.push(0);
    }

    /// Wraps labels the decode walker checked against both caps.
    pub(crate) fn from_walked(wire: &[u8]) -> Name {
        Name { wire: wire.to_vec() }
    }

    /// Decodes a name starting at `pos` in `buf`, following compression
    /// pointers. Returns the name and the position just past its *first*
    /// occurrence (i.e. past the pointer if one was used).
    pub fn decode(buf: &[u8], pos: usize) -> Result<(Name, usize), WireError> {
        decode::name(buf, pos, &mut Owned::new())
    }
}

/// The labels of a [`Name`], left-most first; see [`Name::labels`].
#[derive(Debug, Clone)]
pub struct Labels<'a> {
    rest: &'a [u8],
}

impl<'a> Iterator for Labels<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        let (&len, tail) = self.rest.split_first()?;
        let (label, rest) = tail.split_at(len as usize);
        self.rest = rest;
        Some(label)
    }
}

impl std::iter::FusedIterator for Labels<'_> {}

impl Ord for Name {
    fn cmp(&self, other: &Name) -> Ordering {
        self.labels().cmp(other.labels())
    }
}

impl PartialOrd for Name {
    fn partial_cmp(&self, other: &Name) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Hash for Name {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // The calls a `Vec<Vec<u8>>` of the labels makes: its length, then
        // each label as a length-prefixed byte slice.
        state.write_usize(self.label_count());
        for label in self.labels() {
            label.hash(state);
        }
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Name").field("labels", &self.labels().collect::<Vec<_>>()).finish()
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_root() {
            return f.write_str(".");
        }
        for (i, l) in self.labels().enumerate() {
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

impl std::str::FromStr for Name {
    type Err = WireError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Name::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    #[test]
    fn parse_and_display_roundtrip() {
        for s in ["appldnld.apple.com", "a.gslb.applimg.com", "x.y", "com"] {
            assert_eq!(n(s).to_string(), s);
        }
    }

    #[test]
    fn trailing_dot_and_case_insensitivity() {
        assert_eq!(n("Apple.COM."), n("apple.com"));
    }

    #[test]
    fn root_name() {
        let r = Name::parse(".").unwrap();
        assert!(r.is_root());
        assert_eq!(r.to_string(), ".");
        assert_eq!(r.wire_len(), 1);
    }

    #[test]
    fn rejects_malformed() {
        assert!(Name::parse("").is_err());
        assert!(Name::parse("a..b").is_err());
        assert!(Name::parse(&"x".repeat(64)).is_err());
        let long = vec!["abcdefgh"; 32].join("."); // 32*9 = 288 > 255
        assert!(Name::parse(&long).is_err());
    }

    #[test]
    fn suffix_matching() {
        assert!(n("appldnld.apple.com").is_within(&n("apple.com")));
        assert!(n("apple.com").is_within(&n("apple.com")));
        assert!(!n("apple.com").is_within(&n("appldnld.apple.com")));
        assert!(!n("notapple.com").is_within(&n("apple.com")));
        assert!(n("apple.com").is_within(&Name::root()));
        // The bytes of `com` end the one label `\003com`, but not on a
        // label boundary.
        let one_label = Name::from_labels([b"\x03com"]).unwrap();
        assert!(!one_label.is_within(&n("com")));
    }

    #[test]
    fn parent_and_child() {
        let name = n("a.b.c");
        assert_eq!(name.parent().unwrap(), n("b.c"));
        assert_eq!(n("b.c").child("a").unwrap(), name);
        assert!(Name::root().parent().is_none());
    }

    #[test]
    fn wire_roundtrip_uncompressed() {
        let name = n("usnyc3-vip-bx-008.aaplimg.com");
        let mut buf = Vec::new();
        name.encode_uncompressed(&mut buf);
        assert_eq!(buf.len(), name.wire_len());
        let (decoded, end) = Name::decode(&buf, 0).unwrap();
        assert_eq!(decoded, name);
        assert_eq!(end, buf.len());
    }

    #[test]
    fn decode_with_pointer() {
        // "apple.com" at 0, then "www" + pointer to 0 at offset 11.
        let mut buf = Vec::new();
        n("apple.com").encode_uncompressed(&mut buf);
        let ptr_at = buf.len();
        buf.push(3);
        buf.extend_from_slice(b"www");
        buf.push(0xC0);
        buf.push(0);
        let (decoded, end) = Name::decode(&buf, ptr_at).unwrap();
        assert_eq!(decoded, n("www.apple.com"));
        assert_eq!(end, buf.len());
    }

    #[test]
    fn decode_rejects_forward_pointer_and_loop() {
        // Pointer to itself.
        let buf = [0xC0u8, 0x00];
        assert_eq!(Name::decode(&buf, 0).unwrap_err(), WireError::BadPointer);
        // Forward pointer.
        let buf = [0xC0u8, 0x02, 0x00];
        assert_eq!(Name::decode(&buf, 0).unwrap_err(), WireError::BadPointer);
    }

    #[test]
    fn decode_rejects_truncation_and_reserved_types() {
        assert_eq!(Name::decode(&[5, b'a'], 0).unwrap_err(), WireError::Truncated);
        assert_eq!(Name::decode(&[], 0).unwrap_err(), WireError::Truncated);
        assert_eq!(Name::decode(&[0x80, 0x01, 0], 0).unwrap_err(), WireError::BadLabelType);
    }

    #[test]
    fn ordering_is_stable() {
        let mut v = [n("b.com"), n("a.com"), n("a.com")];
        v.sort();
        assert_eq!(v[0], n("a.com"));
    }
}
