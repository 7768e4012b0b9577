//! A binary radix (Patricia-style) trie over [`Ipv6Prefix`] keys with
//! longest-prefix-match lookup.
//!
//! Used for prefix → AS attribution (the routing-table model of
//! `lumen6-netmodel`) and for allocation lookups. The trie stores one value
//! per exact prefix; lookups return the most specific stored prefix covering
//! the query.
//!
//! The implementation is a plain binary trie with path traversal bounded by
//! 128 bits; nodes are arena-allocated in a `Vec` for cache locality and to
//! avoid recursive ownership.

use crate::prefix::Ipv6Prefix;

/// Index of a node in the arena. `u32::MAX` encodes "no child".
const NIL: u32 = u32::MAX;

#[derive(Debug, Clone)]
struct Node<V> {
    children: [u32; 2],
    /// Value attached at exactly this depth/path, if any.
    value: Option<V>,
}

impl<V> Node<V> {
    fn new() -> Self {
        Node {
            children: [NIL, NIL],
            value: None,
        }
    }
}

/// A binary radix trie keyed by IPv6 prefixes, supporting exact insert/get
/// and longest-prefix-match lookup.
///
/// ```
/// use lumen6_addr::{Ipv6Prefix, PrefixTrie};
/// let mut t = PrefixTrie::new();
/// t.insert("2001:db8::/32".parse().unwrap(), "isp");
/// t.insert("2001:db8:1::/48".parse().unwrap(), "customer");
/// let q: Ipv6Prefix = "2001:db8:1:2::1".parse().unwrap();
/// let (p, v) = t.longest_match(q.bits()).unwrap();
/// assert_eq!(*v, "customer");
/// assert_eq!(p.len(), 48);
/// ```
#[derive(Debug, Clone)]
pub struct PrefixTrie<V> {
    nodes: Vec<Node<V>>,
    len: usize,
}

impl<V> Default for PrefixTrie<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> PrefixTrie<V> {
    /// Creates an empty trie.
    pub fn new() -> Self {
        PrefixTrie {
            nodes: vec![Node::new()],
            len: 0,
        }
    }

    /// Number of stored prefixes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the trie stores no prefixes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts a value at the exact prefix, returning the previous value if
    /// the prefix was already present.
    pub fn insert(&mut self, prefix: Ipv6Prefix, value: V) -> Option<V> {
        let mut node = 0usize;
        for i in 0..prefix.len() {
            let bit = prefix.bit(i) as usize;
            let child = self.nodes[node].children[bit];
            node = if child == NIL {
                let idx = self.nodes.len() as u32;
                self.nodes.push(Node::new());
                self.nodes[node].children[bit] = idx;
                idx as usize
            } else {
                child as usize
            };
        }
        let prev = self.nodes[node].value.replace(value);
        if prev.is_none() {
            self.len += 1;
        }
        prev
    }

    /// Returns the value stored at exactly this prefix, if any.
    pub fn get(&self, prefix: &Ipv6Prefix) -> Option<&V> {
        let mut node = 0usize;
        for i in 0..prefix.len() {
            let bit = prefix.bit(i) as usize;
            let child = self.nodes[node].children[bit];
            if child == NIL {
                return None;
            }
            node = child as usize;
        }
        self.nodes[node].value.as_ref()
    }

    /// Longest-prefix match: the most specific stored prefix containing the
    /// address, with its value.
    pub fn longest_match(&self, addr: u128) -> Option<(Ipv6Prefix, &V)> {
        let mut node = 0usize;
        let mut best: Option<(u8, &V)> = self.nodes[0].value.as_ref().map(|v| (0, v));
        for i in 0..128u8 {
            let bit = ((addr >> (127 - i)) & 1) as usize;
            let child = self.nodes[node].children[bit];
            if child == NIL {
                break;
            }
            node = child as usize;
            if let Some(v) = self.nodes[node].value.as_ref() {
                best = Some((i + 1, v));
            }
        }
        best.map(|(len, v)| (Ipv6Prefix::new(addr, len), v))
    }

    /// Linear-scan longest-prefix match over an explicit list; used as a
    /// correctness oracle in tests and as the ablation baseline in benches.
    pub fn linear_longest_match(
        entries: &[(Ipv6Prefix, V)],
        addr: u128,
    ) -> Option<(Ipv6Prefix, &V)> {
        entries
            .iter()
            .filter(|(p, _)| p.contains_addr(addr))
            .max_by_key(|(p, _)| p.len())
            .map(|(p, v)| (*p, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Ipv6Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn insert_get_roundtrip() {
        let mut t = PrefixTrie::new();
        assert!(t.is_empty());
        assert_eq!(t.insert(p("2001:db8::/32"), 1), None);
        assert_eq!(t.insert(p("2001:db8::/32"), 2), Some(1));
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(&p("2001:db8::/32")), Some(&2));
        assert_eq!(t.get(&p("2001:db8::/33")), None);
    }

    #[test]
    fn longest_match_prefers_specific() {
        let mut t = PrefixTrie::new();
        t.insert(p("2001:db8::/32"), "wide");
        t.insert(p("2001:db8:1::/48"), "mid");
        t.insert(p("2001:db8:1:2::/64"), "narrow");
        let q = u128::from(p("2001:db8:1:2::99").addr());
        assert_eq!(t.longest_match(q).unwrap().1, &"narrow");
        let q2 = u128::from(p("2001:db8:1:3::99").addr());
        assert_eq!(t.longest_match(q2).unwrap().1, &"mid");
        let q3 = u128::from(p("2001:db8:9::1").addr());
        assert_eq!(t.longest_match(q3).unwrap().1, &"wide");
        let q4 = u128::from(p("2001:db9::1").addr());
        assert!(t.longest_match(q4).is_none());
    }

    #[test]
    fn default_route_matches_everything() {
        let mut t = PrefixTrie::new();
        t.insert(Ipv6Prefix::DEFAULT, "default");
        assert_eq!(t.longest_match(0).unwrap().1, &"default");
        assert_eq!(t.longest_match(u128::MAX).unwrap().1, &"default");
    }

    #[test]
    fn host_route_matches_only_itself() {
        let mut t = PrefixTrie::new();
        let h = p("2001:db8::1");
        t.insert(h, "host");
        assert!(t.longest_match(h.bits()).is_some());
        assert!(t.longest_match(h.bits() + 1).is_none());
    }
}
