//! Exponential Information Gathering (EIG) Byzantine broadcast.
//!
//! The classic Pease–Shostak–Lamport protocol [19]: `f + 1` relay rounds
//! build, at every node, a tree of claims `val(σ)` — "node `i_k` said that
//! `i_{k-1}` said that … the source said `v`" — after which each node
//! decides by recursive strict-majority over the tree. Correct for
//! `n > 3f` participants on a (possibly emulated) complete graph.
//!
//! NAB invokes this as `Broadcast_Default` for the 1-bit equality-check
//! flags (step 2.2) and for the dispute-control transcript claims (Phase 3);
//! its cost is the `O(n^α)` per-bit overhead that the throughput analysis
//! amortizes away.
//!
//! # Tree layout
//!
//! The claim tree is the same at every node, so one run enumerates it
//! once, flat and index-addressed: node 0 is the root `⟨source⟩`, the
//! levels follow in order, and the children of every internal node are
//! contiguous and in participant order. Each node stores only its parent
//! index and its path's last participant; every receiver keeps one
//! `Vec<V>` of the values it heard, indexed like the tree. Relays walk the
//! tree in index order, and resolution runs bottom-up over each internal
//! node's child slice, so no path is allocated or hashed. A claim's path
//! is materialized (into one reused buffer) only for a faulty relay's
//! [`EigAdversary::send_value`].
//!
//! Index order is lexicographic path order, which makes it the canonical
//! relay order: for `f = 1` it is the source's round followed by each
//! relay in participant order, and for `f ≥ 2` the relays of level `k`
//! go in lexicographic order of their paths. The unicast sequence — and
//! with it the order in which hop charges are summed into the reported
//! times — is therefore the same on every run.

use std::collections::{BTreeMap, BTreeSet};

/// Re-export: node identifier.
pub use nab_netgraph::NodeId;

/// Adversary hook: chooses what a *faulty* node transmits at each point of
/// the EIG protocol.
pub trait EigAdversary<V> {
    /// The value faulty `sender` reports to `receiver` for claim-path
    /// `path` (which ends in `sender`); `honest` is what a correct node
    /// would have sent.
    fn send_value(&mut self, sender: NodeId, path: &[NodeId], receiver: NodeId, honest: &V) -> V;
}

/// The trivial adversary: faulty nodes follow the protocol.
#[derive(Debug, Clone, Default)]
pub struct HonestAdversary;

impl<V: Clone> EigAdversary<V> for HonestAdversary {
    fn send_value(&mut self, _: NodeId, _: &[NodeId], _: NodeId, honest: &V) -> V {
        honest.clone()
    }
}

/// Outcome of one EIG broadcast.
#[derive(Debug, Clone)]
pub struct EigResult<V> {
    /// Decision of every participant (faulty ones included, for
    /// inspection; only fault-free decisions are meaningful).
    pub decisions: BTreeMap<NodeId, V>,
    /// Number of logical point-to-point messages exchanged.
    pub messages: u64,
}

/// The transport EIG runs over: a reliable logical unicast (on a real
/// complete graph this is a link; on an incomplete one, a
/// [`crate::router::PathRouter`] majority-unicast).
pub trait EigChannel<V> {
    /// Delivers `value` from `from` to `to`, returning what arrives.
    fn unicast(&mut self, from: NodeId, to: NodeId, bits: u64, value: V) -> V;
}

/// An ideal channel: direct, lossless, free. Useful for unit tests and for
/// cost models that charge communication separately.
#[derive(Debug, Clone, Default)]
pub struct IdealChannel;

impl<V> EigChannel<V> for IdealChannel {
    fn unicast(&mut self, _: NodeId, _: NodeId, _: u64, value: V) -> V {
        value
    }
}

/// The EIG tree of one run, enumerated once in level order.
///
/// Node 0 is the root `⟨source⟩`; level `k` holds the paths of length
/// `k + 1`. The children of every internal node are contiguous and in
/// participant order, so each level is in lexicographic path order and a
/// node's children are found by arithmetic: every node of level `k` has
/// `n − 1 − k` children. Participants are referred to by their index in
/// the participant slice.
struct EigTree {
    /// Parent of each node (the root is its own parent).
    parent: Vec<usize>,
    /// The last participant of each node's path.
    last: Vec<usize>,
    /// First node of each level, plus the total size as a sentinel.
    level_start: Vec<usize>,
}

impl EigTree {
    fn new(n: usize, source: usize, f: usize) -> EigTree {
        let mut tree = EigTree {
            parent: vec![0],
            last: vec![source],
            level_start: vec![0, 1],
        };
        let mut path = Vec::with_capacity(f + 1);
        for level in 0..f {
            for node in tree.level_start[level]..tree.level_start[level + 1] {
                tree.path_into(node, &mut path, |p| p);
                for p in (0..n).filter(|p| !path.contains(p)) {
                    tree.parent.push(node);
                    tree.last.push(p);
                }
            }
            tree.level_start.push(tree.parent.len());
        }
        tree
    }

    fn len(&self) -> usize {
        self.parent.len()
    }

    /// Number of internal (non-leaf) nodes; they precede the leaves.
    fn internal(&self) -> usize {
        self.level_start[self.level_start.len() - 2]
    }

    /// The index range of `node`'s children (`node` must be internal).
    fn children(&self, node: usize, n: usize) -> std::ops::Range<usize> {
        let level = self.level_start.partition_point(|&s| s <= node) - 1;
        let fanout = n - 1 - level;
        let first = self.level_start[level + 1] + (node - self.level_start[level]) * fanout;
        first..first + fanout
    }

    /// Writes `node`'s path, root first, into `buf` (mapping each
    /// participant index through `id`).
    fn path_into<T>(&self, mut node: usize, buf: &mut Vec<T>, id: impl Fn(usize) -> T) {
        buf.clear();
        loop {
            buf.push(id(self.last[node]));
            if node == 0 {
                break;
            }
            node = self.parent[node];
        }
        buf.reverse();
    }
}

/// Runs one EIG Byzantine broadcast.
///
/// - `participants`: the nodes taking part (must include `source`);
/// - `f`: upper bound on the number of faulty *participants*;
/// - `input`: the source's input value;
/// - `faulty` / `adversary`: which nodes misbehave and how;
/// - `chan`: the transport;
/// - `bits`: the width charged per logical message.
///
/// Guarantees (for `|participants| > 3f`): all fault-free participants
/// decide the same value, equal to `input` when the source is fault-free.
///
/// Every relay forwards its claims in lexicographic path order (by
/// participant position), and to the receivers in participant order, so
/// the unicast sequence — and with it every charge and recorded round —
/// is a function of the arguments alone.
///
/// # Panics
///
/// Panics if `source` is not a participant or `|participants| ≤ 3f`.
#[allow(clippy::too_many_arguments)] // mirrors the paper's parameter list
pub fn run_eig<V, C>(
    participants: &[NodeId],
    source: NodeId,
    f: usize,
    input: V,
    faulty: &BTreeSet<NodeId>,
    adversary: &mut dyn EigAdversary<V>,
    chan: &mut C,
    bits: u64,
) -> EigResult<V>
where
    V: Clone + Eq + Default,
    C: EigChannel<V>,
{
    let n = participants.len();
    let src = participants
        .iter()
        .position(|&p| p == source)
        .expect("source must participate"); // nab-lint: allow(NAB003): documented panic on a caller contract violation
    assert!(n > 3 * f, "EIG requires n > 3f (n={n}, f={f})");

    let tree = EigTree::new(n, src, f);
    let mut messages = 0u64;
    // Per receiver, the value heard for every tree node.
    let mut vals: Vec<Vec<V>> = (0..n).map(|_| Vec::with_capacity(tree.len())).collect();
    let mut path: Vec<NodeId> = Vec::with_capacity(f + 1);

    // Round 1: the source announces its input.
    let source_faulty = faulty.contains(&source);
    for (r, &to) in participants.iter().enumerate() {
        let honest = input.clone();
        let sent = if source_faulty {
            adversary.send_value(source, &[source], to, &honest)
        } else {
            honest
        };
        let got = if r == src {
            sent // self-delivery
        } else {
            messages += 1;
            chan.unicast(source, to, bits, sent)
        };
        vals[r].push(got);
    }

    // Rounds 2..=f+1: every tree node below the root is one relay of its
    // parent's claim by the node's last participant.
    for node in 1..tree.len() {
        let relay = tree.last[node];
        let from = participants[relay];
        let honest = vals[relay][tree.parent[node]].clone();
        let relay_faulty = faulty.contains(&from);
        if relay_faulty {
            tree.path_into(node, &mut path, |p| participants[p]);
        }
        for (r, &to) in participants.iter().enumerate() {
            let got = if r == relay {
                honest.clone()
            } else {
                let sent = if relay_faulty {
                    adversary.send_value(from, &path, to, &honest)
                } else {
                    honest.clone()
                };
                messages += 1;
                chan.unicast(from, to, bits, sent)
            };
            vals[r].push(got);
        }
    }

    // Decision: strict-majority resolve, bottom-up. Leaves keep the value
    // heard; an internal node takes the strict majority of its children,
    // or the default on a tie. (Falling back to the node's own stored
    // value would break agreement: an equivocating source gives every
    // node a different stored value.)
    let decisions = participants
        .iter()
        .zip(vals)
        .map(|(&p, mut v)| {
            for node in (0..tree.internal()).rev() {
                let kids = tree.children(node, n);
                v[node] = crate::router::majority(&v[kids]).unwrap_or_default();
            }
            (p, v.swap_remove(0))
        })
        .collect();

    EigResult {
        decisions,
        messages,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Adversary: faulty nodes send `receiver-id`-dependent garbage.
    struct Equivocator;

    impl EigAdversary<u64> for Equivocator {
        fn send_value(&mut self, _: NodeId, _: &[NodeId], receiver: NodeId, _: &u64) -> u64 {
            receiver as u64 * 1000 + 7
        }
    }

    /// Adversary: flips the honest value deterministically.
    struct Flipper;

    impl EigAdversary<u64> for Flipper {
        fn send_value(&mut self, _: NodeId, _: &[NodeId], _: NodeId, honest: &u64) -> u64 {
            honest ^ 1
        }
    }

    fn all_agree(res: &EigResult<u64>, honest: &[NodeId]) -> Option<u64> {
        let vals: Vec<u64> = honest.iter().map(|n| res.decisions[n]).collect();
        vals.windows(2).all(|w| w[0] == w[1]).then(|| vals[0])
    }

    #[test]
    fn validity_with_honest_source() {
        let parts: Vec<NodeId> = (0..4).collect();
        let res = run_eig(
            &parts,
            0,
            1,
            77u64,
            &BTreeSet::new(),
            &mut HonestAdversary,
            &mut IdealChannel,
            1,
        );
        assert_eq!(all_agree(&res, &parts), Some(77));
    }

    #[test]
    fn agreement_with_equivocating_source_f1() {
        let parts: Vec<NodeId> = (0..4).collect();
        let faulty = BTreeSet::from([0]);
        let res = run_eig(
            &parts,
            0,
            1,
            77u64,
            &faulty,
            &mut Equivocator,
            &mut IdealChannel,
            1,
        );
        let honest: Vec<NodeId> = (1..4).collect();
        assert!(
            all_agree(&res, &honest).is_some(),
            "honest nodes must agree"
        );
    }

    #[test]
    fn validity_despite_faulty_relay_f1() {
        let parts: Vec<NodeId> = (0..4).collect();
        let faulty = BTreeSet::from([2]);
        let res = run_eig(
            &parts,
            0,
            1,
            5u64,
            &faulty,
            &mut Flipper,
            &mut IdealChannel,
            1,
        );
        for n in [0, 1, 3] {
            assert_eq!(res.decisions[&n], 5, "node {n} must decide source value");
        }
    }

    #[test]
    fn agreement_with_two_faults_f2() {
        let parts: Vec<NodeId> = (0..7).collect();
        let faulty = BTreeSet::from([0, 3]);
        let res = run_eig(
            &parts,
            0,
            2,
            9u64,
            &faulty,
            &mut Equivocator,
            &mut IdealChannel,
            1,
        );
        let honest: Vec<NodeId> = parts
            .iter()
            .copied()
            .filter(|n| !faulty.contains(n))
            .collect();
        assert!(all_agree(&res, &honest).is_some());
    }

    #[test]
    fn validity_with_two_faulty_relays_f2() {
        let parts: Vec<NodeId> = (0..7).collect();
        let faulty = BTreeSet::from([5, 6]);
        let res = run_eig(
            &parts,
            0,
            2,
            13u64,
            &faulty,
            &mut Flipper,
            &mut IdealChannel,
            1,
        );
        for n in 0..5 {
            assert_eq!(res.decisions[&n], 13);
        }
    }

    #[test]
    fn f0_is_single_round() {
        let parts: Vec<NodeId> = (0..2).collect();
        let res = run_eig(
            &parts,
            1,
            0,
            3u64,
            &BTreeSet::new(),
            &mut HonestAdversary,
            &mut IdealChannel,
            1,
        );
        assert_eq!(res.decisions[&0], 3);
        assert_eq!(res.messages, 1);
    }

    #[test]
    #[should_panic(expected = "n > 3f")]
    fn too_few_participants_rejected() {
        let parts: Vec<NodeId> = (0..3).collect();
        let _ = run_eig(
            &parts,
            0,
            1,
            0u64,
            &BTreeSet::new(),
            &mut HonestAdversary,
            &mut IdealChannel,
            1,
        );
    }

    #[test]
    fn works_with_string_values() {
        // EIG is generic over the value domain — dispute control broadcasts
        // structured claims, not bits.
        let parts: Vec<NodeId> = (0..4).collect();
        let res = run_eig(
            &parts,
            0,
            1,
            "claim:sent[1,2,3]".to_string(),
            &BTreeSet::new(),
            &mut HonestAdversary,
            &mut IdealChannel,
            128,
        );
        assert_eq!(res.decisions[&3], "claim:sent[1,2,3]");
    }

    /// Transport that logs every unicast's endpoints, in order.
    #[derive(Default)]
    struct LoggingChannel(Vec<(NodeId, NodeId)>);

    impl<V> EigChannel<V> for LoggingChannel {
        fn unicast(&mut self, from: NodeId, to: NodeId, _: u64, value: V) -> V {
            self.0.push((from, to));
            value
        }
    }

    #[test]
    fn f1_unicast_order_is_source_then_relays_in_participant_order() {
        let parts: Vec<NodeId> = vec![2, 5, 7, 9];
        let mut chan = LoggingChannel::default();
        let res = run_eig(
            &parts,
            5,
            1,
            1u64,
            &BTreeSet::new(),
            &mut HonestAdversary,
            &mut chan,
            1,
        );
        assert_eq!(
            chan.0,
            [
                (5, 2),
                (5, 7),
                (5, 9),
                (2, 5),
                (2, 7),
                (2, 9),
                (7, 2),
                (7, 5),
                (7, 9),
                (9, 2),
                (9, 5),
                (9, 7),
            ]
        );
        assert_eq!(res.messages, 12);
    }

    /// Adversary that follows the protocol but logs every claim path it
    /// is asked about.
    #[derive(Default)]
    struct PathLog(Vec<Vec<NodeId>>);

    impl EigAdversary<u64> for PathLog {
        fn send_value(&mut self, _: NodeId, path: &[NodeId], _: NodeId, honest: &u64) -> u64 {
            if self.0.last().map(Vec::as_slice) != Some(path) {
                self.0.push(path.to_vec());
            }
            *honest
        }
    }

    #[test]
    fn f2_relays_go_in_lexicographic_path_order() {
        let parts: Vec<NodeId> = (0..7).collect();
        let mut log = PathLog::default();
        let all = parts.iter().copied().collect();
        run_eig(&parts, 3, 2, 0u64, &all, &mut log, &mut IdealChannel, 1);
        // Root, 6 level-2 paths, 6·5 level-3 paths; each level sorted.
        assert_eq!(log.0.len(), 1 + 6 + 30);
        assert_eq!(log.0[0], [3]);
        assert!(log.0[1..7].windows(2).all(|w| w[0] < w[1]));
        assert!(log.0[7..].windows(2).all(|w| w[0] < w[1]));
        assert_eq!(log.0[7], [3, 0, 1]);
        assert_eq!(log.0[36], [3, 6, 5]);
    }

    /// Exhaustive check for n=4, f=1: for every choice of faulty node and
    /// both adversaries, agreement + validity hold.
    #[test]
    fn exhaustive_single_fault_n4() {
        let parts: Vec<NodeId> = (0..4).collect();
        for bad in 0..4 {
            for adv_kind in 0..2 {
                let faulty = BTreeSet::from([bad]);
                let mut equiv = Equivocator;
                let mut flip = Flipper;
                let adversary: &mut dyn EigAdversary<u64> =
                    if adv_kind == 0 { &mut equiv } else { &mut flip };
                let res = run_eig(
                    &parts,
                    0,
                    1,
                    42u64,
                    &faulty,
                    adversary,
                    &mut IdealChannel,
                    1,
                );
                let honest: Vec<NodeId> = parts.iter().copied().filter(|n| *n != bad).collect();
                let agreed = all_agree(&res, &honest);
                assert!(agreed.is_some(), "disagreement with faulty={bad}");
                if bad != 0 {
                    assert_eq!(agreed, Some(42), "validity violated with faulty={bad}");
                }
            }
        }
    }
}
