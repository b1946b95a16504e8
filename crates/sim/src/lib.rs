//! A synchronous round meter with per-link capacity/time accounting — the
//! cost model of NAB's Byzantine-broadcast transport.
//!
//! The paper's model (Section 1): a synchronous network where a directed
//! link of capacity `z_e` can carry `z_e · τ` bits in time `τ`, with zero
//! propagation delay. Throughput is bits reliably broadcast per unit time.
//! This crate implements exactly that accounting:
//!
//! - protocols proceed in *rounds*; during a round every node may place
//!   messages on its outgoing links;
//! - when the round is delivered, the meter charges wall-clock time
//!   `max_e (bits_e / z_e)` — all links transmit in parallel, so a round
//!   lasts as long as its most loaded link (this reproduces the paper's
//!   `L/γ` and `L/ρ` phase costs, see `nab` crate tests);
//! - on request, every round's `(src, dst, bits)` sends are recorded so the
//!   message-level layer can replay the same load under a link model.
//!
//! The meter carries no payloads. Protocol layers move values themselves
//! (the path router forwards its own copies; Byzantine behavior is
//! injected there) and only report each transmission's size here, which
//! mirrors the paper's model where links are reliable and only nodes
//! misbehave. Dispute control cross-examines the broadcast `NodeClaims`,
//! not anything recorded by this crate.

use nab_netgraph::{DiGraph, NodeId};

/// One recorded round: its sends as `(src, dst, bits)`, in send order.
pub type Round = Vec<(NodeId, NodeId, u64)>;

/// Errors returned by [`NetSim::send`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SendError {
    /// The directed link does not exist (or an endpoint was removed).
    NoSuchLink {
        /// Attempted transmitter.
        src: NodeId,
        /// Attempted receiver.
        dst: NodeId,
    },
}

impl std::fmt::Display for SendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SendError::NoSuchLink { src, dst } => {
                write!(f, "no directed link from {src} to {dst}")
            }
        }
    }
}

impl std::error::Error for SendError {}

/// The synchronous capacitated round meter over a borrowed network.
///
/// # Example
///
/// ```
/// use nab_netgraph::gen;
/// use nab_sim::NetSim;
///
/// let g = gen::complete(3, 2);
/// let mut net = NetSim::new(&g).recording(true);
/// net.send(0, 1, 4).unwrap();
/// // 4 bits over a capacity-2 link: 2 time units.
/// assert_eq!(net.deliver_round(), 2.0);
/// assert_eq!(net.clock(), 2.0);
/// assert_eq!(net.into_rounds(), vec![vec![(0, 1, 4)]]);
/// ```
#[derive(Debug, Clone)]
pub struct NetSim<'g> {
    graph: &'g DiGraph,
    clock: f64,
    total_bits: u64,
    /// Queued sends of the current round as `(src, dst, bits, cap)`.
    pending: Vec<(NodeId, NodeId, u64, u64)>,
    rounds: Option<Vec<Round>>,
}

impl<'g> NetSim<'g> {
    /// Creates a meter over the given network, not recording rounds.
    pub fn new(graph: &'g DiGraph) -> Self {
        NetSim {
            graph,
            clock: 0.0,
            total_bits: 0,
            pending: Vec::new(),
            rounds: None,
        }
    }

    /// Turns per-round send recording on or off (message-level replay
    /// needs it; the synchronous path does not).
    pub fn recording(mut self, on: bool) -> Self {
        self.rounds = on.then(Vec::new);
        self
    }

    /// Elapsed simulated time.
    pub fn clock(&self) -> f64 {
        self.clock
    }

    /// Total bits sent so far.
    pub fn total_bits(&self) -> u64 {
        self.total_bits
    }

    /// Charges extra wall-clock time not tied to message bits (e.g. an
    /// analytically-computed phase cost).
    ///
    /// # Panics
    ///
    /// Panics if `duration` is negative.
    pub fn charge(&mut self, duration: f64) {
        assert!(duration >= 0.0, "cannot charge negative time");
        self.clock += duration;
    }

    /// Queues `bits` on the directed link `src → dst` for the current
    /// round.
    ///
    /// # Errors
    ///
    /// Returns [`SendError::NoSuchLink`] if the link is absent. Protocol
    /// layers treat a missing message as a default value per the fault
    /// model, so callers typically propagate this only for fault-free
    /// senders.
    pub fn send(&mut self, src: NodeId, dst: NodeId, bits: u64) -> Result<(), SendError> {
        let (_, e) = self
            .graph
            .find_edge(src, dst)
            .ok_or(SendError::NoSuchLink { src, dst })?;
        self.pending.push((src, dst, bits, e.cap));
        self.total_bits += bits;
        Ok(())
    }

    /// Ends the current round, charging `max_e(bits_e / z_e)` time over
    /// the per-link bit totals, and returns the round duration.
    pub fn deliver_round(&mut self) -> f64 {
        if let Some(rounds) = &mut self.rounds {
            rounds.push(self.pending.iter().map(|&(s, d, b, _)| (s, d, b)).collect());
        }
        self.pending.sort_unstable_by_key(|&(s, d, _, _)| (s, d));
        let duration = self
            .pending
            .chunk_by(|a, b| (a.0, a.1) == (b.0, b.1))
            .map(|link| link.iter().map(|m| m.2).sum::<u64>() as f64 / link[0].3 as f64)
            .fold(0.0, f64::max);
        self.pending.clear();
        self.clock += duration;
        duration
    }

    /// The recorded rounds, in delivery order; empty unless recording.
    pub fn into_rounds(self) -> Vec<Round> {
        self.rounds.unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nab_netgraph::gen;

    #[test]
    fn send_on_missing_link_fails() {
        let g = gen::figure_1a();
        let mut n = NetSim::new(&g);
        // Figure 1(a) has no link between ids 1 and 3.
        assert_eq!(
            n.send(1, 3, 8),
            Err(SendError::NoSuchLink { src: 1, dst: 3 })
        );
        assert!(n.send(0, 1, 8).is_ok());
    }

    #[test]
    fn round_duration_is_max_over_links() {
        let g = gen::figure_1a();
        let mut n = NetSim::new(&g);
        // (0,1) has cap 2; (0,2) has cap 2; load them unevenly.
        n.send(0, 1, 8).unwrap(); // 4 time units worth
        n.send(0, 2, 2).unwrap(); // 1 time unit worth
        let d = n.deliver_round();
        assert_eq!(d, 4.0);
        assert_eq!(n.clock(), 4.0);
    }

    #[test]
    fn multiple_messages_on_one_link_accumulate() {
        let g = gen::figure_1a();
        let mut n = NetSim::new(&g);
        n.send(0, 1, 3).unwrap();
        n.send(0, 2, 2).unwrap();
        n.send(0, 1, 5).unwrap();
        let d = n.deliver_round();
        assert_eq!(d, 4.0); // 8 bits over cap 2
        assert_eq!(n.total_bits(), 10);
    }

    #[test]
    fn recording_keeps_every_round_in_send_order() {
        let g = gen::figure_1a();
        let mut n = NetSim::new(&g).recording(true);
        n.send(0, 2, 2).unwrap();
        n.send(0, 1, 1).unwrap();
        n.deliver_round();
        n.deliver_round();
        n.send(1, 2, 1).unwrap();
        n.deliver_round();
        assert_eq!(
            n.into_rounds(),
            vec![vec![(0, 2, 2), (0, 1, 1)], vec![], vec![(1, 2, 1)]]
        );
    }

    #[test]
    fn recording_can_be_disabled() {
        let g = gen::figure_1a();
        let mut n = NetSim::new(&g).recording(false);
        n.send(0, 1, 2).unwrap();
        assert_eq!(n.deliver_round(), 1.0);
        // Time and bits are still charged.
        assert_eq!(n.clock(), 1.0);
        assert_eq!(n.total_bits(), 2);
        assert!(n.into_rounds().is_empty());
    }

    #[test]
    fn charge_accumulates_time() {
        let g = gen::figure_1a();
        let mut n = NetSim::new(&g);
        n.charge(2.5);
        n.charge(0.5);
        assert_eq!(n.clock(), 3.0);
    }

    #[test]
    fn empty_round_costs_nothing() {
        let g = gen::figure_1a();
        let mut n = NetSim::new(&g);
        assert_eq!(n.deliver_round(), 0.0);
        assert_eq!(n.clock(), 0.0);
    }

    #[test]
    #[should_panic(expected = "negative")]
    fn negative_charge_rejected() {
        let g = gen::figure_1a();
        let mut n = NetSim::new(&g);
        n.charge(-1.0);
    }
}
