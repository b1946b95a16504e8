//! Complete-graph emulation: reliable unicast over `2f+1` vertex-disjoint
//! paths with receiver-side majority voting (Appendix D).
//!
//! With at most `f` faulty nodes and `2f + 1` internally-vertex-disjoint
//! paths between `u` and `v`, at most `f` path copies can be corrupted
//! (each faulty node lies on at most one path), so the majority copy is
//! always the sender's value. This turns any `2f+1`-connected network into
//! a virtual complete graph on which classic BB protocols run unchanged.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, PoisonError, RwLock};

use nab_netgraph::connectivity::{
    strongly_connected, vertex_connectivity_at_least, vertex_disjoint_paths,
};
use nab_netgraph::{DiGraph, NodeId};
use nab_sim::{NetSim, SendError};

/// Errors surfaced by the fallible routing entry points.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RouterError {
    /// The pair has no `2f+1` disjoint paths — the node was removed after
    /// [`PathRouter::build`] proved connectivity, or never existed.
    Unroutable {
        /// Requested source.
        src: NodeId,
        /// Requested destination.
        dst: NodeId,
    },
    /// A hop of an extracted path no longer exists in the simulator.
    Send(SendError),
}

impl std::fmt::Display for RouterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RouterError::Unroutable { src, dst } => {
                write!(f, "no disjoint path system from {src} to {dst}")
            }
            RouterError::Send(e) => write!(f, "routed hop failed: {e}"),
        }
    }
}

impl std::error::Error for RouterError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RouterError::Send(e) => Some(e),
            RouterError::Unroutable { .. } => None,
        }
    }
}

impl From<SendError> for RouterError {
    fn from(e: SendError) -> Self {
        RouterError::Send(e)
    }
}

/// Routes logical unicasts over vertex-disjoint path systems, computed
/// lazily per ordered pair.
///
/// Eager all-pairs routing is `O(n²)` max-flows before the first instance
/// can run — the planning wall at datacenter scale. [`PathRouter::build`]
/// now only proves the `2f+1`-connectivity precondition (so path existence
/// is guaranteed by Menger's theorem) and each pair's paths are extracted on
/// first use, memoized behind a lock. The extraction is deterministic per
/// pair, so lazy evaluation is invisible to results regardless of which
/// thread routes a pair first.
/// Memoized disjoint-path sets per ordered `(src, dst)` pair.
type PairPaths = BTreeMap<(NodeId, NodeId), Arc<Vec<Vec<NodeId>>>>;

#[derive(Debug)]
pub struct PathRouter {
    g: DiGraph,
    paths: RwLock<PairPaths>,
    copies: usize,
}

impl Clone for PathRouter {
    fn clone(&self) -> Self {
        // Poison-tolerant: the memo only ever holds fully-constructed
        // `Arc` entries, so a panicked writer cannot leave torn state.
        let paths = self
            .paths
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
        PathRouter {
            g: self.g.clone(),
            paths: RwLock::new(paths),
            copies: self.copies,
        }
    }
}

impl PathRouter {
    /// Prepares `2f + 1`-disjoint-path routing between every ordered pair
    /// of active nodes.
    ///
    /// Returns `None` if the graph's vertex connectivity is below `2f + 1`
    /// — i.e. the network violates the paper's connectivity assumption.
    /// When it holds, Menger's theorem guarantees every pair has the
    /// required paths, so they are extracted lazily on first use instead of
    /// eagerly for all `n(n−1)` pairs.
    pub fn build(g: &DiGraph, f: usize) -> Option<Self> {
        let copies = 2 * f + 1;
        let routable = if f == 0 {
            strongly_connected(g)
        } else {
            vertex_connectivity_at_least(g, copies as u64)
        };
        routable.then(|| PathRouter {
            g: g.clone(),
            paths: RwLock::new(BTreeMap::new()),
            copies,
        })
    }

    /// Number of copies (`2f + 1`) each unicast travels on.
    pub fn copies(&self) -> usize {
        self.copies
    }

    /// The disjoint paths used for the ordered pair, computing and
    /// memoizing them on first use.
    ///
    /// Returns [`RouterError::Unroutable`] if the pair cannot be routed
    /// (inactive node) — impossible while the graph that passed
    /// [`PathRouter::build`] is intact, by Menger's theorem.
    pub fn try_paths_for(
        &self,
        s: NodeId,
        t: NodeId,
    ) -> Result<Arc<Vec<Vec<NodeId>>>, RouterError> {
        // Lock access is poison-tolerant: the memo map only ever holds
        // fully-constructed entries (`or_insert` of a finished `Arc`), so a
        // panicked holder cannot have left it torn.
        if let Some(p) = self
            .paths
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&(s, t))
        {
            return Ok(Arc::clone(p));
        }
        let extracted = vertex_disjoint_paths(&self.g, s, t, self.copies)
            .ok_or(RouterError::Unroutable { src: s, dst: t })?;
        let p = Arc::new(extracted);
        let mut map = self.paths.write().unwrap_or_else(PoisonError::into_inner);
        // Another thread may have raced us here; keep the first entry so
        // every caller shares one allocation (both computations are
        // identical anyway — extraction is deterministic).
        Ok(Arc::clone(map.entry((s, t)).or_insert(p)))
    }

    /// Infallible convenience over [`PathRouter::try_paths_for`].
    ///
    /// # Panics
    ///
    /// Panics if the pair cannot be routed (inactive node).
    pub fn paths_for(&self, s: NodeId, t: NodeId) -> Arc<Vec<Vec<NodeId>>> {
        self.try_paths_for(s, t)
            // nab-lint: allow(NAB003): documented panicking convenience; fallible callers use try_paths_for
            .expect("connectivity was proven at build time")
    }

    /// Performs one reliable unicast of `value` (`bits` wide) from `origin`
    /// to `target`: one copy travels each disjoint path, hop by hop, and
    /// every hop round is charged into the meter `net`.
    ///
    /// `corrupt` is the Byzantine interposition hook: called whenever a
    /// *faulty relay* forwards a copy, it returns the (possibly altered)
    /// value to forward. Fault-free relays forward verbatim.
    ///
    /// Returns the majority value among the delivered copies, or `None` if
    /// no strict majority exists (cannot happen when at most `f` of `2f+1`
    /// copies are corrupted). Fails with [`RouterError`] if the pair has no
    /// path system or a path hop lost its link — both impossible while the
    /// graph proven connected at build time is intact.
    #[allow(clippy::too_many_arguments)] // mirrors the paper's parameter list
    pub fn try_unicast<V, FC>(
        &self,
        net: &mut NetSim<'_>,
        faulty: &BTreeSet<NodeId>,
        origin: NodeId,
        target: NodeId,
        bits: u64,
        value: V,
        corrupt: &mut FC,
    ) -> Result<Option<V>, RouterError>
    where
        V: Clone + Eq,
        FC: FnMut(NodeId, &V) -> V,
    {
        let paths = self.try_paths_for(origin, target)?;
        // The copy each path currently carries; all end at `target`.
        let mut carried: Vec<V> = vec![value; paths.len()];
        let max_hops = paths.iter().map(|p| p.len() - 1).max().unwrap_or(0);
        for hop in 0..max_hops {
            for (idx, path) in paths.iter().enumerate() {
                if hop + 1 >= path.len() {
                    continue;
                }
                let (a, b) = (path[hop], path[hop + 1]);
                // A faulty relay (not the origin: origin equivocation is
                // modeled a layer up) may corrupt the copy before
                // forwarding.
                if hop > 0 && faulty.contains(&a) {
                    carried[idx] = corrupt(a, &carried[idx]);
                }
                net.send(a, b, bits)?;
            }
            net.deliver_round();
        }
        Ok(majority(&carried))
    }

    /// Infallible convenience over [`PathRouter::try_unicast`] for callers
    /// operating on the graph that passed [`PathRouter::build`], where
    /// routing cannot fail.
    ///
    /// # Panics
    ///
    /// Panics if the pair cannot be routed or a path hop lost its link.
    #[allow(clippy::too_many_arguments)] // mirrors the paper's parameter list
    pub fn unicast<V, FC>(
        &self,
        net: &mut NetSim<'_>,
        faulty: &BTreeSet<NodeId>,
        origin: NodeId,
        target: NodeId,
        bits: u64,
        value: V,
        corrupt: &mut FC,
    ) -> Option<V>
    where
        V: Clone + Eq,
        FC: FnMut(NodeId, &V) -> V,
    {
        self.try_unicast(net, faulty, origin, target, bits, value, corrupt)
            // nab-lint: allow(NAB003): documented panicking convenience; fallible callers use try_unicast
            .expect("routing over the build-time graph cannot fail")
    }
}

/// The strict-majority element of a slice, if one exists.
///
/// Runs the Boyer–Moore majority-vote scan (one candidate pass plus one
/// verification pass, `O(n)` comparisons) instead of the naive quadratic
/// count — this sits under every unicast vote and every internal node of
/// the EIG resolve tree, so it is one of the hottest comparisons in the
/// whole simulator.
pub fn majority<V: Clone + Eq>(items: &[V]) -> Option<V> {
    let mut candidate: Option<&V> = None;
    let mut count = 0usize;
    for x in items {
        match candidate {
            Some(c) if c == x => count += 1,
            _ if count == 0 => {
                candidate = Some(x);
                count = 1;
            }
            _ => count -= 1,
        }
    }
    // Only a strict majority (not a mere plurality) wins; verify.
    let c = candidate?;
    if 2 * items.iter().filter(|x| *x == c).count() > items.len() {
        Some(c.clone())
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nab_netgraph::gen;

    #[test]
    fn majority_basic() {
        assert_eq!(majority(&[1, 1, 2]), Some(1));
        assert_eq!(majority(&[1, 2, 3]), None);
        assert_eq!(majority::<u64>(&[]), None);
        assert_eq!(majority(&[5]), Some(5));
    }

    #[test]
    fn build_requires_connectivity() {
        // K4 is 3-connected: f=1 works, f=2 does not.
        let g = gen::complete(4, 1);
        assert!(PathRouter::build(&g, 1).is_some());
        assert!(PathRouter::build(&g, 2).is_none());
    }

    #[test]
    fn unicast_delivers_without_faults() {
        let g = gen::complete(4, 1);
        let router = PathRouter::build(&g, 1).unwrap();
        let mut net = NetSim::new(&g);
        let faulty = BTreeSet::new();
        let got = router.unicast(&mut net, &faulty, 0, 3, 1, 42u64, &mut |_, v| *v);
        assert_eq!(got, Some(42));
        assert!(net.clock() > 0.0, "routing must consume time");
    }

    #[test]
    fn unicast_survives_faulty_relay() {
        let g = gen::complete(4, 1);
        let router = PathRouter::build(&g, 1).unwrap();
        let mut net = NetSim::new(&g);
        // Node 1 is faulty and flips every value it relays.
        let faulty = BTreeSet::from([1]);
        let got = router.unicast(&mut net, &faulty, 0, 3, 1, 42u64, &mut |_, _| 999);
        assert_eq!(
            got,
            Some(42),
            "majority over 3 disjoint paths beats 1 fault"
        );
    }

    #[test]
    fn unicast_survives_two_faulty_relays_with_f2() {
        let g = gen::complete(7, 1);
        let router = PathRouter::build(&g, 2).unwrap();
        let mut net = NetSim::new(&g);
        let faulty = BTreeSet::from([2, 3]);
        let got = router.unicast(&mut net, &faulty, 0, 6, 1, 7u64, &mut |_, _| 0);
        assert_eq!(got, Some(7), "5 disjoint paths beat 2 faults");
    }

    #[test]
    fn unicast_charges_each_hop_at_its_slowest_path() {
        // K4 with unequal capacities: 0→3 is forced onto the direct link
        // plus the two-hop paths via 1 and via 2.
        let mut g = DiGraph::new(4);
        for u in 0..4 {
            for v in 0..4 {
                let cap = match (u, v) {
                    (0, 1) => 4,
                    (1, 3) => 2,
                    (0, 2) | (2, 3) => 8,
                    _ => 1,
                };
                if u != v {
                    g.add_edge(u, v, cap);
                }
            }
        }
        let router = PathRouter::build(&g, 1).unwrap();
        let mut net = NetSim::new(&g).recording(true);
        let got = router.unicast(&mut net, &BTreeSet::new(), 0, 3, 8, 5u64, &mut |_, v| *v);
        assert_eq!(got, Some(5));

        let paths = router.paths_for(0, 3);
        let mut lengths: Vec<usize> = paths.iter().map(Vec::len).collect();
        lengths.sort_unstable();
        assert_eq!(lengths, [2, 3, 3], "unequal path lengths");
        let cap = |a, b| g.find_edge(a, b).unwrap().1.cap as f64;
        let (mut clock, mut rounds) = (0.0, Vec::<Vec<_>>::new());
        for hop in 0..2 {
            let live: Vec<&Vec<NodeId>> = paths.iter().filter(|p| hop + 1 < p.len()).collect();
            clock += live
                .iter()
                .map(|p| 8.0 / cap(p[hop], p[hop + 1]))
                .fold(0.0, f64::max);
            rounds.push(live.iter().map(|p| (p[hop], p[hop + 1], 8)).collect());
        }
        // Hop 0: the thin direct link (8/1); hop 1: 1→3 (8/2).
        assert_eq!(clock, 12.0);
        assert_eq!(net.clock(), clock);
        assert_eq!(net.into_rounds(), rounds);
    }

    #[test]
    fn paths_are_internally_disjoint() {
        let g = gen::complete(5, 1);
        let router = PathRouter::build(&g, 1).unwrap();
        let paths = router.paths_for(0, 4);
        assert_eq!(paths.len(), 3);
        // A second lookup shares the memoized allocation.
        assert!(Arc::ptr_eq(&paths, &router.paths_for(0, 4)));
        let mut internal = std::collections::HashSet::new();
        for p in paths.iter() {
            for &v in &p[1..p.len() - 1] {
                assert!(internal.insert(v));
            }
        }
    }
}
