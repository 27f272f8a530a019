//! Valley-free (Gao–Rexford) AS path selection.
//!
//! Traffic from a CDN cache to the Eyeball ISP follows an economically valid
//! AS path: zero or more customer→provider ("up") hops, at most one peering
//! hop, then zero or more provider→customer ("down") hops. Among valid paths
//! the router prefers the shortest, breaking ties on the smallest AS number
//! at the first divergence, which makes path selection deterministic — a
//! requirement for reproducible figures.
//!
//! The *handover AS* of a flow (the neighbor that hands it into the measured
//! ISP — the quantity behind Figure 8) is simply the penultimate AS on the
//! source→ISP path, exposed via [`Router::handover`].

use crate::topology::{AsId, DirectedRel, Topology};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};

/// Phase of a valley-free walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum Stage {
    /// Still climbing customer→provider links.
    Up,
    /// Crossed the single permitted peering link.
    Peer,
    /// Descending provider→customer links.
    Down,
}

fn transition(stage: Stage, rel: DirectedRel) -> Option<Stage> {
    match (stage, rel) {
        (Stage::Up, DirectedRel::Up) => Some(Stage::Up),
        (Stage::Up, DirectedRel::Peer) => Some(Stage::Peer),
        (Stage::Up, DirectedRel::Down) => Some(Stage::Down),
        (Stage::Peer, DirectedRel::Down) | (Stage::Down, DirectedRel::Down) => Some(Stage::Down),
        _ => None,
    }
}

/// Computes and caches valley-free shortest AS paths over a [`Topology`].
#[derive(Debug, Default)]
pub struct Router {
    cache: HashMap<(AsId, AsId), Option<Vec<AsId>>>,
}

impl Router {
    /// A router with an empty path cache.
    pub fn new() -> Router {
        Router::default()
    }

    /// The valley-free shortest AS path from `src` to `dst` (inclusive of
    /// both), or `None` if no economically valid path exists.
    pub fn path(&mut self, topo: &Topology, src: AsId, dst: AsId) -> Option<Vec<AsId>> {
        if let Some(hit) = self.cache.get(&(src, dst)) {
            return hit.clone();
        }
        let result = Self::bfs(topo, src, dst);
        self.cache.insert((src, dst), result.clone());
        result
    }

    fn bfs(topo: &Topology, src: AsId, dst: AsId) -> Option<Vec<AsId>> {
        if src == dst {
            return Some(vec![src]);
        }
        // BFS over (AS, stage) states. Neighbor exploration is sorted so the
        // first path found is the deterministic tie-break winner.
        let mut parents: HashMap<(AsId, Stage), (AsId, Stage)> = HashMap::new();
        let mut queue: VecDeque<(AsId, Stage)> = VecDeque::new();
        let start = (src, Stage::Up);
        parents.insert(start, start);
        queue.push_back(start);
        let mut goal: Option<(AsId, Stage)> = None;
        'bfs: while let Some((node, stage)) = queue.pop_front() {
            let mut nexts: Vec<(AsId, Stage)> = topo
                .neighbors(node)
                .into_iter()
                .filter_map(|(nb, rel)| transition(stage, rel).map(|s| (nb, s)))
                .collect();
            nexts.sort_by_key(|&(nb, s)| (nb.0, s));
            nexts.dedup();
            for state in nexts {
                if let Entry::Vacant(e) = parents.entry(state) {
                    e.insert((node, stage));
                    if state.0 == dst {
                        goal = Some(state);
                        break 'bfs;
                    }
                    queue.push_back(state);
                }
            }
        }
        let mut state = goal?;
        let mut rev = vec![state.0];
        while state != start {
            state = parents[&state];
            rev.push(state.0);
        }
        rev.reverse();
        Some(rev)
    }

    /// The handover AS for traffic flowing along `path` into its final AS:
    /// the penultimate element. `None` for degenerate paths (length < 2),
    /// i.e. traffic originating inside the destination AS itself.
    pub fn handover(path: &[AsId]) -> Option<AsId> {
        if path.len() >= 2 {
            Some(path[path.len() - 2])
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{AsInfo, AsKind, Relationship, Topology};
    use mcdn_geo::Coord;

    fn add(t: &mut Topology, id: u32, kind: AsKind) {
        t.add_as(AsInfo {
            id: AsId(id),
            name: format!("AS{id}"),
            kind,
            location: Coord::new(0.0, 0.0),
        });
    }

    /// Diamond: 1 and 4 are customers of transits 2 and 3; 2–3 peer.
    fn diamond() -> Topology {
        let mut t = Topology::new();
        add(&mut t, 1, AsKind::Eyeball);
        add(&mut t, 2, AsKind::Transit);
        add(&mut t, 3, AsKind::Transit);
        add(&mut t, 4, AsKind::Cdn);
        t.add_link(AsId(1), AsId(2), Relationship::CustomerToProvider, 10e9);
        t.add_link(AsId(1), AsId(3), Relationship::CustomerToProvider, 10e9);
        t.add_link(AsId(4), AsId(2), Relationship::CustomerToProvider, 10e9);
        t.add_link(AsId(4), AsId(3), Relationship::CustomerToProvider, 10e9);
        t.add_link(AsId(2), AsId(3), Relationship::PeerToPeer, 10e9);
        t
    }

    #[test]
    fn shortest_valley_free_path() {
        let t = diamond();
        let mut r = Router::new();
        let p = r.path(&t, AsId(4), AsId(1)).unwrap();
        // Up to a transit, down to the eyeball; lowest-AS tie-break picks 2.
        assert_eq!(p, vec![AsId(4), AsId(2), AsId(1)]);
        assert_eq!(Router::handover(&p), Some(AsId(2)));
    }

    #[test]
    fn same_as_is_trivial_path() {
        let t = diamond();
        let mut r = Router::new();
        assert_eq!(r.path(&t, AsId(1), AsId(1)), Some(vec![AsId(1)]));
        assert_eq!(Router::handover(&[AsId(1)]), None);
    }

    #[test]
    fn valley_paths_are_rejected() {
        // 2 and 3 are both providers of 1, and have no other connection:
        // 2 → 1 → 3 would be a valley; no valid 2→3 path exists.
        let mut t = Topology::new();
        add(&mut t, 1, AsKind::Eyeball);
        add(&mut t, 2, AsKind::Transit);
        add(&mut t, 3, AsKind::Transit);
        t.add_link(AsId(1), AsId(2), Relationship::CustomerToProvider, 1e9);
        t.add_link(AsId(1), AsId(3), Relationship::CustomerToProvider, 1e9);
        let mut r = Router::new();
        assert_eq!(r.path(&t, AsId(2), AsId(3)), None);
    }

    #[test]
    fn single_peering_hop_allowed_two_rejected() {
        // 10 -peer- 11 -peer- 12: one peer hop is fine, two is not.
        let mut t = Topology::new();
        add(&mut t, 10, AsKind::Cdn);
        add(&mut t, 11, AsKind::Transit);
        add(&mut t, 12, AsKind::Eyeball);
        t.add_link(AsId(10), AsId(11), Relationship::PeerToPeer, 1e9);
        t.add_link(AsId(11), AsId(12), Relationship::PeerToPeer, 1e9);
        let mut r = Router::new();
        assert_eq!(r.path(&t, AsId(10), AsId(11)), Some(vec![AsId(10), AsId(11)]));
        assert_eq!(r.path(&t, AsId(10), AsId(12)), None);
    }

    #[test]
    fn customer_route_reachable_through_provider_chain() {
        // 20 ← provider of 21 ← provider of 22 (a small customer cone).
        let mut t = Topology::new();
        add(&mut t, 20, AsKind::Transit);
        add(&mut t, 21, AsKind::Transit);
        add(&mut t, 22, AsKind::Eyeball);
        t.add_link(AsId(21), AsId(20), Relationship::CustomerToProvider, 1e9);
        t.add_link(AsId(22), AsId(21), Relationship::CustomerToProvider, 1e9);
        let mut r = Router::new();
        assert_eq!(
            r.path(&t, AsId(20), AsId(22)),
            Some(vec![AsId(20), AsId(21), AsId(22)])
        );
        // And the reverse climbs up.
        assert_eq!(
            r.path(&t, AsId(22), AsId(20)),
            Some(vec![AsId(22), AsId(21), AsId(20)])
        );
    }

    #[test]
    fn direct_peering_beats_transit_detour() {
        let mut t = diamond();
        // Add a direct peering between CDN (4) and eyeball (1).
        t.add_link(AsId(4), AsId(1), Relationship::PeerToPeer, 10e9);
        let mut r = Router::new();
        let p = r.path(&t, AsId(4), AsId(1)).unwrap();
        assert_eq!(p, vec![AsId(4), AsId(1)], "shorter direct path wins");
        assert_eq!(Router::handover(&p), Some(AsId(4)));
    }

    #[test]
    fn cache_is_used() {
        let t = diamond();
        let mut r = Router::new();
        let a = r.path(&t, AsId(4), AsId(1));
        let b = r.path(&t, AsId(4), AsId(1));
        assert_eq!(a, b);
        assert_eq!(r.cache.len(), 1);
    }

    #[test]
    fn deterministic_across_runs() {
        let t = diamond();
        let p1 = Router::new().path(&t, AsId(4), AsId(1));
        let p2 = Router::new().path(&t, AsId(4), AsId(1));
        assert_eq!(p1, p2);
    }
}
