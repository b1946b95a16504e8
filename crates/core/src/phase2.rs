//! Phase 2: failure detection — the equality check on the wire (step 2.1)
//! and Byzantine broadcast of the 1-bit flags (step 2.2).

use std::collections::{BTreeMap, BTreeSet};

use nab_bb::baselines::RoutedChannel;
use nab_bb::eig::{run_eig, EigChannel, HonestAdversary};
use nab_bb::phaseking::{run_phase_king, PkHonest};
use nab_bb::router::PathRouter;
use nab_gf::{Gf2_16, Matrix};
use nab_netgraph::arborescence::Arborescence;
use nab_netgraph::{DiGraph, NodeId};
use nab_sim::NetSim;

use crate::adversary::NabAdversary;
use crate::dispute::NodeClaims;
use crate::equality::CodingScheme;
use crate::value::{Value, SYMBOL_BITS};

/// Ground truth of one equality-check execution (step 2.1).
#[derive(Debug, Clone)]
pub struct EqOutcome {
    /// Coded symbols actually transmitted per edge.
    pub sends: BTreeMap<(NodeId, NodeId), Vec<Gf2_16>>,
    /// Each node's honestly computed flag (`true` = MISMATCH). Faulty
    /// nodes may *announce* something else; see
    /// [`run_flag_broadcast`].
    pub flags: BTreeMap<NodeId, bool>,
    /// Wall-clock duration (`≈ L/ρ_k`).
    pub duration: f64,
}

/// Runs the equality check (Algorithm 1) on `gk`.
///
/// Links are reliable, so the receiver's view of an edge equals the
/// sender's transmission; the phase is evaluated directly on the ground
/// truth, charging the same `max_e(bits_e / z_e)` round time the
/// simulator would.
pub fn run_equality_phase(
    gk: &DiGraph,
    values: &BTreeMap<NodeId, Value>,
    scheme: &CodingScheme,
    faulty: &BTreeSet<NodeId>,
    adv: &mut dyn NabAdversary,
) -> EqOutcome {
    let mut sends = BTreeMap::new();

    // Each node's value is reshaped into ρ-symbol columns exactly once;
    // the per-edge encode/check then runs on the nab-gf row kernels.
    let reshaped: BTreeMap<NodeId, Vec<Vec<Gf2_16>>> = gk
        .nodes()
        .map(|v| (v, values[&v].reshape(scheme.rho())))
        .collect();

    let mut flags: BTreeMap<NodeId, bool> = gk.nodes().map(|v| (v, false)).collect();
    let mut meter = NetSim::new(gk);
    for (_, e) in gk.edges() {
        let honest = scheme.encode_cols(e.src, e.dst, &reshaped[&e.src]);
        let sent = if faulty.contains(&e.src) {
            adv.equality_symbols(e.src, e.dst, &honest)
        } else {
            honest
        };
        charge_edge(&mut meter, e.src, e.dst, &sent);
        if !scheme.check_cols(e.src, e.dst, &reshaped[&e.dst], &sent) {
            flags.insert(e.dst, true);
        }
        sends.insert((e.src, e.dst), sent);
    }

    EqOutcome {
        sends,
        flags,
        duration: meter.deliver_round(),
    }
}

/// Queues one edge's coded symbols on the phase's single metered round,
/// which charges `max_e(bits_e / z_e)` over per-link bit totals.
fn charge_edge(meter: &mut NetSim<'_>, src: NodeId, dst: NodeId, sent: &[Gf2_16]) {
    meter
        .send(src, dst, sent.len() as u64 * SYMBOL_BITS)
        .expect("edge exists"); // nab-lint: allow(NAB003): the symbols travel an edge of G_k by construction
}

/// Packs the reshaped value columns of every stream into one row-major
/// `ρ × Σ_s cols_s` slab: stream `s`'s column `j` lands at slab column
/// `offsets[s] + j`. This is the `Xᵀ` operand of the batched equality
/// check. Streams may hold **different column counts at the same node**
/// (a length-tampering adversary grows or shrinks a forwarded block, so
/// a downstream node's assembled value no longer has `S` symbols), which
/// is why each stream gets a cumulative offset instead of a uniform
/// stride. Returns the slab plus the `streams + 1` column offsets
/// (`offsets[s]..offsets[s + 1]` is stream `s`'s span).
fn pack_columns(reshaped: &[&Vec<Vec<Gf2_16>>], rho: usize) -> (Matrix<Gf2_16>, Vec<usize>) {
    let mut offsets = Vec::with_capacity(reshaped.len() + 1);
    offsets.push(0usize);
    for stream_cols in reshaped {
        offsets.push(offsets.last().unwrap() + stream_cols.len()); // nab-lint: allow(NAB003): offsets starts as [0], never empty
    }
    let width = *offsets.last().unwrap(); // nab-lint: allow(NAB003): offsets starts as [0], never empty
                                          // DetSan: the gather/scatter loops below index the slab by this
                                          // table; a non-monotonic table would silently interleave streams.
    #[cfg(feature = "sanitize")]
    crate::detsan::check_offsets_monotonic(&offsets);
    let mut xt = Matrix::zero(rho, width);
    for (s, stream_cols) in reshaped.iter().enumerate() {
        for (j, col) in stream_cols.iter().enumerate() {
            for (r, &sym) in col.iter().enumerate() {
                xt[(r, offsets[s] + j)] = sym;
            }
        }
    }
    (xt, offsets)
}

/// Extracts one stream's coded symbols (slab columns
/// `start..start + cols`) from a batched `Yᵀ = C_eᵀ · Xᵀ` slab,
/// flattened column-major exactly like [`CodingScheme::encode_cols`]:
/// symbol `j·z + r` is `Yᵀ(r, start + j)`.
fn scatter_stream(yt: &Matrix<Gf2_16>, start: usize, cols: usize) -> Vec<Gf2_16> {
    let z = yt.rows();
    let mut out = Vec::with_capacity(cols * z);
    for j in start..start + cols {
        for r in 0..z {
            out.push(yt[(r, j)]);
        }
    }
    out
}

/// The batched equality check: one execution of Algorithm 1 per stream,
/// all sharing the same coding scheme (streams at the same instance index
/// use identical per-edge matrices), evaluated as **one blocked matrix
/// multiply per edge** over a packed cross-stream slab instead of
/// per-column vector products.
///
/// Per edge `e`, the sender-side slab is `Y_eᵀ = C_eᵀ · Xᵀ` where `Xᵀ`
/// stacks every stream's value columns side by side (at cumulative
/// offsets, since tampered values may differ in length); the
/// receiver-side expectation reuses the same shape. Row lengths grow
/// from `z_e` to `≈ streams · S/ρ`, which is the shape the
/// [`nab_gf::simd`] row kernels want. Results are bit-identical to [`run_equality_phase`] per stream
/// (`GF(2^16)` addition is exact XOR, so any grouping of the same
/// multiply-accumulates produces the same symbols), which the engine's
/// batch tests pin.
///
/// # Panics
///
/// Panics if `values` and `advs` lengths differ, or some active node is
/// missing a value.
pub fn run_equality_phase_batched(
    gk: &DiGraph,
    values: &[&BTreeMap<NodeId, Value>],
    scheme: &CodingScheme,
    faulty: &BTreeSet<NodeId>,
    advs: &mut [&mut dyn NabAdversary],
) -> Vec<EqOutcome> {
    assert_eq!(values.len(), advs.len(), "one adversary per stream");
    let streams = values.len();
    let rho = scheme.rho();

    // Reshape every node's value per stream, then pack per node.
    let reshaped: Vec<BTreeMap<NodeId, Vec<Vec<Gf2_16>>>> = values
        .iter()
        .map(|vals| gk.nodes().map(|v| (v, vals[&v].reshape(rho))).collect())
        .collect();
    let packed: BTreeMap<NodeId, (Matrix<Gf2_16>, Vec<usize>)> = gk
        .nodes()
        .map(|v| {
            let per_stream: Vec<&Vec<Vec<Gf2_16>>> = reshaped.iter().map(|r| &r[&v]).collect();
            (v, pack_columns(&per_stream, rho))
        })
        .collect();

    let mut sends: Vec<BTreeMap<(NodeId, NodeId), Vec<Gf2_16>>> = vec![BTreeMap::new(); streams];
    let mut flags: Vec<BTreeMap<NodeId, bool>> = (0..streams)
        .map(|_| gk.nodes().map(|v| (v, false)).collect())
        .collect();
    let mut meters: Vec<NetSim<'_>> = (0..streams).map(|_| NetSim::new(gk)).collect();

    for (_, e) in gk.edges() {
        // One blocked multiply covers every stream's encode on this edge;
        // a second covers every stream's receiver-side expectation. The
        // sender and receiver slabs carry independent per-stream widths
        // (values may differ in length after tampering), so each side
        // scatters with its own offsets — a cross-side length mismatch
        // then fails the `sent != expected` compare exactly like the
        // per-instance [`CodingScheme::check_cols`] does.
        let (src_slab, src_off) = &packed[&e.src];
        let (dst_slab, dst_off) = &packed[&e.dst];
        let ys = scheme.encode_slab(e.src, e.dst, src_slab);
        let yd = scheme.encode_slab(e.src, e.dst, dst_slab);
        for s in 0..streams {
            let honest = scatter_stream(&ys, src_off[s], src_off[s + 1] - src_off[s]);
            let sent = if faulty.contains(&e.src) {
                advs[s].equality_symbols(e.src, e.dst, &honest)
            } else {
                honest
            };
            charge_edge(&mut meters[s], e.src, e.dst, &sent);
            if sent != scatter_stream(&yd, dst_off[s], dst_off[s + 1] - dst_off[s]) {
                flags[s].insert(e.dst, true);
            }
            sends[s].insert((e.src, e.dst), sent);
        }
    }

    (0..streams)
        .map(|s| EqOutcome {
            sends: std::mem::take(&mut sends[s]),
            flags: std::mem::take(&mut flags[s]),
            duration: meters[s].deliver_round(),
        })
        .collect()
}

/// Which classic BB protocol serves as `Broadcast_Default` for flags and
/// dispute-control claims.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BroadcastKind {
    /// Exponential Information Gathering: optimal resilience (`n > 3f`),
    /// message count `O(n^{f+1})`.
    #[default]
    Eig,
    /// Phase-King: polynomial messages `O(f·n²)` but needs `n > 4f`;
    /// automatically falls back to EIG when the participant count is too
    /// small.
    PhaseKing,
}

/// Runs one `Broadcast_Default` of `input` from `source` among
/// `participants` over the given channel, returning every participant's
/// decision.
#[allow(clippy::too_many_arguments)] // mirrors the paper's parameter list
pub fn broadcast_value<V, C>(
    kind: BroadcastKind,
    participants: &[NodeId],
    source: NodeId,
    f: usize,
    input: V,
    faulty: &BTreeSet<NodeId>,
    chan: &mut C,
    bits: u64,
) -> BTreeMap<NodeId, V>
where
    V: Clone + Eq + Ord + Default,
    C: EigChannel<V>,
{
    match kind {
        BroadcastKind::PhaseKing if participants.len() > 4 * f => {
            run_phase_king(
                participants,
                source,
                f,
                input,
                faulty,
                &mut PkHonest,
                chan,
                bits,
            )
            .decisions
        }
        _ => {
            run_eig(
                participants,
                source,
                f,
                input,
                faulty,
                &mut HonestAdversary,
                chan,
                bits,
            )
            .decisions
        }
    }
}

/// Outcome of step 2.2: every participant Byzantine-broadcasts its flag.
#[derive(Debug, Clone)]
pub struct FlagOutcome {
    /// The flag each node *announced* (faulty nodes may have lied).
    pub announced: BTreeMap<NodeId, bool>,
    /// Per broadcaster, the decision each participant reached (all
    /// fault-free participants agree, by EIG correctness).
    pub decisions: BTreeMap<NodeId, BTreeMap<NodeId, bool>>,
    /// Wall-clock duration of all flag broadcasts.
    pub duration: f64,
    /// Per-round send lists `(src, dst, bits)`, recorded only when the
    /// caller asked for them (message-level replay); empty otherwise.
    pub rounds: Vec<Vec<(NodeId, NodeId, u64)>>,
}

impl FlagOutcome {
    /// The agreed flag of broadcaster `b` as seen by `observer`.
    pub fn agreed(&self, b: NodeId, observer: NodeId) -> bool {
        self.decisions[&b][&observer]
    }

    /// Whether any broadcaster's agreed flag (at `observer`) is MISMATCH.
    pub fn any_mismatch(&self, observer: NodeId) -> bool {
        self.decisions.values().any(|d| d[&observer])
    }
}

/// Runs step 2.2: one EIG broadcast per participant of its 1-bit flag,
/// over the `2f+1`-disjoint-path emulated complete graph of the *original*
/// network `g0` (dispute-removed links still physically exist; NAB only
/// stops trusting them for its own phases).
///
/// `f_residual` is the fault budget among the participants (original `f`
/// minus nodes already exposed and excluded).
#[allow(clippy::too_many_arguments)] // mirrors the paper's parameter list
pub fn run_flag_broadcast(
    g0: &DiGraph,
    router: &PathRouter,
    participants: &[NodeId],
    f_residual: usize,
    computed_flags: &BTreeMap<NodeId, bool>,
    faulty: &BTreeSet<NodeId>,
    adv: &mut dyn NabAdversary,
    kind: BroadcastKind,
    record_rounds: bool,
) -> FlagOutcome {
    let mut net = NetSim::new(g0).recording(record_rounds);

    let mut announced = BTreeMap::new();
    let mut decisions = BTreeMap::new();
    for &b in participants {
        let honest = computed_flags[&b];
        let flag = if faulty.contains(&b) {
            adv.flag(b, honest)
        } else {
            honest
        };
        announced.insert(b, flag);
        let dec = {
            let mut chan = RoutedChannel {
                net: &mut net,
                router,
                faulty,
            };
            broadcast_value(
                kind,
                participants,
                b,
                f_residual,
                flag as u64,
                faulty,
                &mut chan,
                1,
            )
        };
        decisions.insert(b, dec.iter().map(|(&n, &v)| (n, v != 0)).collect());
    }

    FlagOutcome {
        announced,
        decisions,
        duration: net.clock(),
        rounds: net.into_rounds(),
    }
}

/// Builds every node's *truthful* claims from the ground truth of Phases
/// 1–2 (what Phase 3 broadcasts when nodes do not lie about their
/// transcripts). `announced_flags` are the flags from step 2.2.
#[allow(clippy::too_many_arguments)] // mirrors the paper's parameter list
pub fn honest_claims(
    gk: &DiGraph,
    source: NodeId,
    input: &Value,
    _trees: &[Arborescence],
    _scheme: &CodingScheme,
    p1: &crate::phase1::Phase1Output,
    eq: &EqOutcome,
    announced_flags: &BTreeMap<NodeId, bool>,
) -> BTreeMap<NodeId, NodeClaims> {
    let mut claims: BTreeMap<NodeId, NodeClaims> = gk
        .nodes()
        .map(|v| {
            (
                v,
                NodeClaims {
                    flag: announced_flags.get(&v).copied().unwrap_or(false),
                    ..NodeClaims::default()
                },
            )
        })
        .collect();
    claims.get_mut(&source).unwrap().input = Some(input.symbols().to_vec()); // nab-lint: allow(NAB003): claims is pre-populated with an entry per node

    for (&(t, src, dst), block) in &p1.sends {
        claims
            .get_mut(&src)
            .unwrap() // nab-lint: allow(NAB003): claims is pre-populated with an entry per node
            .p1_sent
            .insert((t, dst), block.as_ref().clone());
        claims
            .get_mut(&dst)
            .unwrap() // nab-lint: allow(NAB003): claims is pre-populated with an entry per node
            .p1_received
            .insert((t, src), block.as_ref().clone());
    }
    for (&(src, dst), symbols) in &eq.sends {
        claims
            .get_mut(&src)
            .unwrap() // nab-lint: allow(NAB003): claims is pre-populated with an entry per node
            .eq_sent
            .insert(dst, symbols.clone());
        claims
            .get_mut(&dst)
            .unwrap() // nab-lint: allow(NAB003): claims is pre-populated with an entry per node
            .eq_received
            .insert(src, symbols.clone());
    }
    claims
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{EqualityGarbler, FalseAlarm, HonestStrategy, TruthfulCorruptor};
    use crate::phase1::run_phase1;
    use nab_netgraph::arborescence::pack_arborescences;
    use nab_netgraph::flow::broadcast_rate;
    use nab_netgraph::gen;

    fn complete_setup() -> (DiGraph, Vec<Arborescence>, CodingScheme, Value) {
        let g = gen::complete(4, 2);
        let gamma = broadcast_rate(&g, 0);
        let trees = pack_arborescences(&g, 0, gamma).unwrap();
        let scheme = CodingScheme::random(&g, 2, 17);
        let input = Value::from_u64s(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12]);
        (g, trees, scheme, input)
    }

    #[test]
    fn clean_run_raises_no_flags() {
        let (g, trees, scheme, input) = complete_setup();
        let p1 = run_phase1(&g, 0, &input, &trees, &BTreeSet::new(), &mut HonestStrategy);
        let eq = run_equality_phase(
            &g,
            &p1.values,
            &scheme,
            &BTreeSet::new(),
            &mut HonestStrategy,
        );
        assert!(eq.flags.values().all(|f| !f));
    }

    #[test]
    fn equality_duration_is_l_over_rho() {
        let (g, trees, scheme, input) = complete_setup();
        let p1 = run_phase1(&g, 0, &input, &trees, &BTreeSet::new(), &mut HonestStrategy);
        let eq = run_equality_phase(
            &g,
            &p1.values,
            &scheme,
            &BTreeSet::new(),
            &mut HonestStrategy,
        );
        // S=12 symbols, ρ=2 → 6 columns × 16 bits = 96 bits = L/ρ, and
        // every link of capacity z carries 6·z symbols → 96 time units / z·z…
        // each link: z·6 symbols·16 bits / z cap = 96.
        assert!(
            (eq.duration - 96.0).abs() < 1e-9,
            "duration {}",
            eq.duration
        );
    }

    #[test]
    fn phase1_corruption_is_flagged() {
        let (g, trees, scheme, input) = complete_setup();
        let faulty = BTreeSet::from([1]);
        let mut adv = TruthfulCorruptor;
        let p1 = run_phase1(&g, 0, &input, &trees, &faulty, &mut adv);
        let eq = run_equality_phase(&g, &p1.values, &scheme, &faulty, &mut adv);
        assert!(
            eq.flags.iter().any(|(v, f)| *f && !faulty.contains(v)),
            "a fault-free node must flag the mismatch: {:?}",
            eq.flags
        );
    }

    #[test]
    fn garbled_equality_symbols_flag_receivers() {
        let (g, trees, scheme, input) = complete_setup();
        let faulty = BTreeSet::from([2]);
        let mut adv = EqualityGarbler;
        let p1 = run_phase1(&g, 0, &input, &trees, &faulty, &mut adv);
        let eq = run_equality_phase(&g, &p1.values, &scheme, &faulty, &mut adv);
        assert!(eq.flags.iter().any(|(v, f)| *f && *v != 2));
    }

    #[test]
    fn flag_broadcast_reaches_agreement() {
        let (g, _, _, _) = complete_setup();
        let router = PathRouter::build(&g, 1).unwrap();
        let participants: Vec<NodeId> = g.nodes().collect();
        let computed: BTreeMap<NodeId, bool> = participants.iter().map(|&v| (v, v == 2)).collect();
        let out = run_flag_broadcast(
            &g,
            &router,
            &participants,
            1,
            &computed,
            &BTreeSet::new(),
            &mut HonestStrategy,
            BroadcastKind::Eig,
            false,
        );
        for &b in &participants {
            for &o in &participants {
                assert_eq!(out.agreed(b, o), b == 2);
            }
        }
        assert!(out.any_mismatch(0));
        assert!(out.duration > 0.0);
    }

    #[test]
    fn false_alarm_is_agreed_as_mismatch() {
        let (g, _, _, _) = complete_setup();
        let router = PathRouter::build(&g, 1).unwrap();
        let participants: Vec<NodeId> = g.nodes().collect();
        let computed: BTreeMap<NodeId, bool> = participants.iter().map(|&v| (v, false)).collect();
        let faulty = BTreeSet::from([3]);
        let out = run_flag_broadcast(
            &g,
            &router,
            &participants,
            1,
            &computed,
            &faulty,
            &mut FalseAlarm,
            BroadcastKind::Eig,
            false,
        );
        // All honest observers see node 3's MISMATCH announcement.
        for o in [0, 1, 2] {
            assert!(out.agreed(3, o));
            assert!(out.any_mismatch(o));
        }
    }

    #[test]
    fn honest_claims_are_mutually_consistent() {
        let (g, trees, scheme, input) = complete_setup();
        let p1 = run_phase1(&g, 0, &input, &trees, &BTreeSet::new(), &mut HonestStrategy);
        let eq = run_equality_phase(
            &g,
            &p1.values,
            &scheme,
            &BTreeSet::new(),
            &mut HonestStrategy,
        );
        let claims = honest_claims(&g, 0, &input, &trees, &scheme, &p1, &eq, &eq.flags);
        assert!(crate::dispute::dc2_disputes(&claims).is_empty());
        assert!(crate::dispute::dc3_exposed(&g, 0, &trees, &scheme, &claims).is_empty());
        // Claims have meaningful sizes.
        assert!(claims[&0].bits() > 0);
        assert_eq!(claims[&0].implied_value(trees.len()), input);
    }
}
