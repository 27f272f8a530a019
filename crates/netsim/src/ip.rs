//! IPv4 prefixes and longest-prefix-match lookup.

use core::fmt;
use std::net::Ipv4Addr;

/// An IPv4 network prefix in CIDR notation, e.g. `17.0.0.0/8` (Apple's
/// address block, which the paper scans to discover delivery sites).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Ipv4Net {
    addr: Ipv4Addr,
    prefix_len: u8,
}

impl Ipv4Net {
    /// Creates a prefix, normalizing host bits to zero. `prefix_len` is
    /// clamped to 32.
    pub fn new(addr: Ipv4Addr, prefix_len: u8) -> Ipv4Net {
        let prefix_len = prefix_len.min(32);
        let bits = u32::from(addr) & Self::mask(prefix_len);
        Ipv4Net { addr: Ipv4Addr::from(bits), prefix_len }
    }

    /// Parses CIDR notation like `17.253.0.0/16`.
    pub fn parse(s: &str) -> Option<Ipv4Net> {
        let (addr, len) = s.split_once('/')?;
        let addr: Ipv4Addr = addr.parse().ok()?;
        let len: u8 = len.parse().ok()?;
        if len > 32 {
            return None;
        }
        Some(Ipv4Net::new(addr, len))
    }

    fn mask(prefix_len: u8) -> u32 {
        if prefix_len == 0 {
            0
        } else {
            u32::MAX << (32 - prefix_len as u32)
        }
    }

    /// The network address.
    pub fn network(&self) -> Ipv4Addr {
        self.addr
    }

    /// The prefix length.
    pub fn prefix_len(&self) -> u8 {
        self.prefix_len
    }

    /// Whether `ip` lies inside this prefix.
    pub fn contains(&self, ip: Ipv4Addr) -> bool {
        u32::from(ip) & Self::mask(self.prefix_len) == u32::from(self.addr)
    }

    /// Number of addresses in the prefix (2^(32-len), saturating for /0).
    pub fn size(&self) -> u64 {
        1u64 << (32 - self.prefix_len as u32)
    }

    /// The `index`-th address inside the prefix, if in range.
    pub fn nth(&self, index: u64) -> Option<Ipv4Addr> {
        if index >= self.size() {
            return None;
        }
        Some(Ipv4Addr::from(u32::from(self.addr) + index as u32))
    }

    /// Iterates all addresses in the prefix (careful with short prefixes).
    pub fn iter(&self) -> impl Iterator<Item = Ipv4Addr> + '_ {
        (0..self.size()).map(move |i| self.nth(i).expect("index in range"))
    }
}

impl fmt::Display for Ipv4Net {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.addr, self.prefix_len)
    }
}

/// A binary trie keyed by IPv4 prefixes with longest-prefix-match lookup —
/// the data structure behind the simulated BGP RIB (the real ISP tracked
/// ~60 M routes; ours holds the scenario's few hundred but with the same
/// semantics).
#[derive(Debug, Clone)]
pub struct PrefixTrie<T> {
    nodes: Vec<TrieNode<T>>,
}

#[derive(Debug, Clone)]
struct TrieNode<T> {
    children: [Option<u32>; 2],
    value: Option<T>,
}

impl<T> Default for PrefixTrie<T> {
    fn default() -> Self {
        PrefixTrie { nodes: vec![TrieNode { children: [None, None], value: None }] }
    }
}

impl<T> PrefixTrie<T> {
    /// An empty trie.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty trie pre-sized for `prefixes` inserts. Each insert creates
    /// at most `prefix_len ≤ 32` nodes, so reserving `32 × prefixes` up
    /// front turns the node vector's one-at-a-time growth during a bulk
    /// build into a single allocation (callers
    /// [`shrink_to_fit`](PrefixTrie::shrink_to_fit) afterwards — shared
    /// prefixes make the bound loose).
    pub fn with_capacity(prefixes: usize) -> Self {
        let mut trie = Self::default();
        trie.reserve(prefixes);
        trie
    }

    /// Reserves node capacity for `prefixes` further inserts (see
    /// [`PrefixTrie::with_capacity`]).
    pub fn reserve(&mut self, prefixes: usize) {
        self.nodes.reserve(prefixes.saturating_mul(32));
    }

    /// Releases the slack left by [`PrefixTrie::reserve`]'s worst-case
    /// bound once the build phase is over.
    pub fn shrink_to_fit(&mut self) {
        self.nodes.shrink_to_fit();
    }

    fn bit(addr: u32, depth: u8) -> usize {
        ((addr >> (31 - depth as u32)) & 1) as usize
    }

    /// Inserts `value` at `prefix`, replacing and returning any previous
    /// value for the exact same prefix.
    pub fn insert(&mut self, prefix: Ipv4Net, value: T) -> Option<T> {
        let addr = u32::from(prefix.network());
        let mut node = 0usize;
        for depth in 0..prefix.prefix_len() {
            let b = Self::bit(addr, depth);
            node = match self.nodes[node].children[b] {
                Some(next) => next as usize,
                None => {
                    let next = self.nodes.len();
                    self.nodes.push(TrieNode { children: [None, None], value: None });
                    self.nodes[node].children[b] = Some(next as u32);
                    next
                }
            };
        }
        self.nodes[node].value.replace(value)
    }

    /// Longest-prefix match: the most specific entry covering `ip`, with the
    /// matched prefix length.
    pub fn lookup(&self, ip: Ipv4Addr) -> Option<(u8, &T)> {
        let addr = u32::from(ip);
        let mut node = 0usize;
        let mut best: Option<(u8, &T)> = self.nodes[0].value.as_ref().map(|v| (0, v));
        for depth in 0..32u8 {
            match self.nodes[node].children[Self::bit(addr, depth)] {
                Some(next) => {
                    node = next as usize;
                    if let Some(v) = self.nodes[node].value.as_ref() {
                        best = Some((depth + 1, v));
                    }
                }
                None => break,
            }
        }
        best
    }

    /// Number of stored prefixes.
    pub fn len(&self) -> usize {
        self.nodes.iter().filter(|n| n.value.is_some()).count()
    }

    /// Whether the trie holds no prefixes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every stored `(prefix, value)` pair, in ascending `(addr, len)`
    /// order.
    pub fn entries(&self) -> Vec<(Ipv4Net, &T)> {
        let mut out = Vec::with_capacity(self.len());
        self.collect_entries(0, 0, 0, &mut out);
        out.sort_by_key(|(net, _)| (u32::from(net.network()), net.prefix_len()));
        out
    }

    fn collect_entries<'a>(
        &'a self,
        node: usize,
        addr: u32,
        depth: u8,
        out: &mut Vec<(Ipv4Net, &'a T)>,
    ) {
        if let Some(v) = self.nodes[node].value.as_ref() {
            out.push((Ipv4Net::new(Ipv4Addr::from(addr), depth), v));
        }
        if depth == 32 {
            return;
        }
        for b in 0..2u32 {
            if let Some(next) = self.nodes[node].children[b as usize] {
                self.collect_entries(next as usize, addr | (b << (31 - depth)), depth + 1, out);
            }
        }
    }
}

impl<T: Copy> PrefixTrie<T> {
    /// Compiles the trie's current contents into a [`FlatLpm`] — the
    /// immutable binary-search form the hot lookup paths use. The trie
    /// stays the mutable build structure; recompile after any insert.
    pub fn compile(&self) -> FlatLpm<T> {
        FlatLpm::from_entries(self.entries().into_iter().map(|(net, v)| (net, *v)))
    }
}

/// A compiled longest-prefix-match table: for each present prefix length
/// (most specific first) a sorted array of `(masked address, value)`
/// pairs, looked up by masking the query address and binary-searching.
///
/// Compared to walking [`PrefixTrie`] bit by bit (32 dependent loads
/// through `Vec`-indexed nodes), a lookup here touches a handful of
/// contiguous arrays — the classic RIB "compile" step. The table is a
/// frozen snapshot: build it from the trie via [`PrefixTrie::compile`]
/// once per round/run, after all announcements.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlatLpm<T> {
    /// `(prefix_len, sorted [(masked_addr, value)])`, longest length first.
    tiers: Vec<(u8, Vec<(u32, T)>)>,
}

impl<T: Copy> FlatLpm<T> {
    /// Builds a table from `(prefix, value)` pairs. A duplicate prefix
    /// keeps the last value (matching repeated [`PrefixTrie::insert`]).
    pub fn from_entries(entries: impl IntoIterator<Item = (Ipv4Net, T)>) -> FlatLpm<T> {
        let mut tiers: Vec<(u8, Vec<(u32, T)>)> = Vec::new();
        for (net, value) in entries {
            let len = net.prefix_len();
            let masked = u32::from(net.network());
            let idx = match tiers.iter().position(|(l, _)| *l == len) {
                Some(i) => i,
                None => {
                    tiers.push((len, Vec::new()));
                    tiers.len() - 1
                }
            };
            let tier = &mut tiers[idx].1;
            match tier.binary_search_by_key(&masked, |(a, _)| *a) {
                Ok(i) => tier[i].1 = value,
                Err(i) => tier.insert(i, (masked, value)),
            }
        }
        tiers.sort_by(|(a, _), (b, _)| b.cmp(a));
        for (_, tier) in &mut tiers {
            tier.shrink_to_fit();
        }
        FlatLpm { tiers }
    }

    /// Longest-prefix match: the most specific entry covering `ip`, with
    /// the matched prefix length — identical answers to
    /// [`PrefixTrie::lookup`] on the trie this was compiled from.
    pub fn lookup(&self, ip: Ipv4Addr) -> Option<(u8, T)> {
        let addr = u32::from(ip);
        for (len, tier) in &self.tiers {
            let masked = addr & Ipv4Net::mask(*len);
            if let Ok(i) = tier.binary_search_by_key(&masked, |(a, _)| *a) {
                return Some((*len, tier[i].1));
            }
        }
        None
    }

    /// Number of stored prefixes.
    pub fn len(&self) -> usize {
        self.tiers.iter().map(|(_, t)| t.len()).sum()
    }

    /// Whether the table holds no prefixes.
    pub fn is_empty(&self) -> bool {
        self.tiers.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net(s: &str) -> Ipv4Net {
        Ipv4Net::parse(s).unwrap()
    }
    fn ip(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    #[test]
    fn parse_and_display() {
        assert_eq!(net("17.0.0.0/8").to_string(), "17.0.0.0/8");
        assert!(Ipv4Net::parse("17.0.0.0/33").is_none());
        assert!(Ipv4Net::parse("17.0.0.0").is_none());
        assert!(Ipv4Net::parse("x/8").is_none());
    }

    #[test]
    fn host_bits_normalized() {
        assert_eq!(net("17.253.37.99/16"), net("17.253.0.0/16"));
    }

    #[test]
    fn containment() {
        let apple8 = net("17.0.0.0/8");
        assert!(apple8.contains(ip("17.253.37.16")));
        assert!(!apple8.contains(ip("23.0.0.1")));
    }

    #[test]
    fn nth_and_size() {
        let n = net("192.0.2.0/30");
        assert_eq!(n.size(), 4);
        assert_eq!(n.nth(0), Some(ip("192.0.2.0")));
        assert_eq!(n.nth(3), Some(ip("192.0.2.3")));
        assert_eq!(n.nth(4), None);
        assert_eq!(n.iter().count(), 4);
    }

    #[test]
    fn trie_longest_prefix_match() {
        let mut trie = PrefixTrie::new();
        trie.insert(net("17.0.0.0/8"), "apple-agg");
        trie.insert(net("17.253.0.0/16"), "apple-cdn");
        trie.insert(net("0.0.0.0/0"), "default");
        assert_eq!(trie.lookup(ip("17.253.1.1")), Some((16, &"apple-cdn")));
        assert_eq!(trie.lookup(ip("17.1.1.1")), Some((8, &"apple-agg")));
        assert_eq!(trie.lookup(ip("8.8.8.8")), Some((0, &"default")));
        assert_eq!(trie.len(), 3);
    }

    #[test]
    fn trie_without_default_misses() {
        let mut trie = PrefixTrie::new();
        trie.insert(net("10.0.0.0/8"), 1);
        assert_eq!(trie.lookup(ip("11.0.0.1")), None);
    }

    #[test]
    fn trie_replace_returns_old() {
        let mut trie = PrefixTrie::new();
        assert_eq!(trie.insert(net("10.0.0.0/8"), 1), None);
        assert_eq!(trie.insert(net("10.0.0.0/8"), 2), Some(1));
        assert_eq!(trie.lookup(ip("10.1.2.3")), Some((8, &2)));
    }

    #[test]
    fn host_route_matches() {
        let mut trie = PrefixTrie::new();
        trie.insert(net("192.0.2.7/32"), "host");
        assert_eq!(trie.lookup(ip("192.0.2.7")), Some((32, &"host")));
        assert_eq!(trie.lookup(ip("192.0.2.8")), None);
    }

    #[test]
    fn with_capacity_presizes_and_shrink_releases() {
        let mut trie: PrefixTrie<u32> = PrefixTrie::with_capacity(10);
        let before = trie.nodes.len();
        for i in 0..10u32 {
            trie.insert(Ipv4Net::new(Ipv4Addr::from(i << 24), 8), i);
        }
        // All nodes fit in the reservation: one allocation up front.
        assert_eq!(before, 1);
        assert!(trie.nodes.len() <= 1 + 10 * 32);
        trie.shrink_to_fit();
        assert_eq!(trie.len(), 10);
        assert_eq!(trie.lookup(ip("3.1.2.3")), Some((8, &3)));
    }

    #[test]
    fn entries_lists_prefixes_sorted() {
        let mut trie = PrefixTrie::new();
        trie.insert(net("17.0.0.0/8"), "agg");
        trie.insert(net("17.253.0.0/16"), "cdn");
        trie.insert(net("10.0.0.0/8"), "ten");
        let entries: Vec<_> = trie.entries().into_iter().map(|(n, v)| (n, *v)).collect();
        assert_eq!(
            entries,
            vec![
                (net("10.0.0.0/8"), "ten"),
                (net("17.0.0.0/8"), "agg"),
                (net("17.253.0.0/16"), "cdn")
            ]
        );
    }

    #[test]
    fn flat_lpm_matches_trie_on_fixture() {
        let mut trie = PrefixTrie::new();
        trie.insert(net("17.0.0.0/8"), 1u32);
        trie.insert(net("17.253.0.0/16"), 2);
        trie.insert(net("0.0.0.0/0"), 0);
        trie.insert(net("192.0.2.7/32"), 3);
        let flat = trie.compile();
        assert_eq!(flat.len(), trie.len());
        for probe in ["17.253.1.1", "17.1.1.1", "8.8.8.8", "192.0.2.7", "192.0.2.8"] {
            let addr = ip(probe);
            assert_eq!(
                flat.lookup(addr),
                trie.lookup(addr).map(|(l, v)| (l, *v)),
                "{probe}"
            );
        }
    }

    #[test]
    fn flat_lpm_duplicate_prefix_keeps_last() {
        let flat = FlatLpm::from_entries([(net("10.0.0.0/8"), 1), (net("10.0.0.0/8"), 2)]);
        assert_eq!(flat.lookup(ip("10.1.2.3")), Some((8, 2)));
        assert_eq!(flat.len(), 1);
    }
}

#[cfg(test)]
mod lpm_equivalence {
    use super::*;
    use proptest::prelude::*;

    /// A compact arbitrary route: (address bits, prefix length, value).
    fn arb_route() -> impl Strategy<Value = (u32, u8, u16)> {
        (any::<u32>(), 0u8..=32, any::<u16>())
    }

    proptest! {
        /// For ANY prefix set — including duplicates, nested prefixes,
        /// host routes, and a default route — the compiled flat table
        /// answers every longest-prefix query exactly like the trie it
        /// was built from. Probe
        /// addresses cover each prefix's network address, its last
        /// address, just-outside neighbours, and unrelated addresses.
        #[test]
        fn compiled_table_equals_trie(
            routes in proptest::collection::vec(arb_route(), 0..24),
            extra_probes in proptest::collection::vec(any::<u32>(), 0..16),
        ) {
            let mut trie = PrefixTrie::with_capacity(routes.len());
            let nets: Vec<Ipv4Net> = routes
                .iter()
                .map(|&(addr, len, _)| Ipv4Net::new(Ipv4Addr::from(addr), len))
                .collect();
            for (net, &(_, _, value)) in nets.iter().zip(&routes) {
                trie.insert(*net, value);
            }
            let flat = trie.compile();
            prop_assert_eq!(flat.len(), trie.len());
            let mut probes: Vec<u32> = extra_probes;
            for net in &nets {
                let base = u32::from(net.network());
                let span = (net.size() - 1) as u32;
                probes.extend([
                    base,
                    base.wrapping_add(span),
                    base.wrapping_sub(1),
                    base.wrapping_add(span).wrapping_add(1),
                ]);
            }
            for addr in probes {
                let ip = Ipv4Addr::from(addr);
                prop_assert_eq!(flat.lookup(ip), trie.lookup(ip).map(|(l, v)| (l, *v)));
            }
        }
    }
}
