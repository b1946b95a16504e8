//! The Equality Check algorithm with local linear coding (Algorithm 1).
//!
//! Each node `i` holds an `L`-bit value `x_i` (what it received in
//! Phase 1), viewed as `ρ` symbols `X_i ∈ GF(2^{L/ρ})^ρ`. On every outgoing
//! link `e = (i, j)` of capacity `z_e`, node `i` transmits `Y_e = X_i C_e`,
//! where `C_e` is a `ρ × z_e` coding matrix fixed by the algorithm; node
//! `j` checks `Y_e = X_j C_e` against its own value and raises a MISMATCH
//! flag on failure. One round, no forwarding — a faulty node can send bad
//! coded symbols but cannot tamper with symbols exchanged between
//! fault-free nodes.
//!
//! Theorem 1: when `ρ ≤ U/2` and the `C_e` entries are uniform random, the
//! scheme is *correct* — any two fault-free nodes with different values
//! cause a MISMATCH at some fault-free node — with probability at least
//! `1 − 2^{−L/ρ}·C(n, n−f)·(n−f−1)·ρ`.

use std::collections::BTreeMap;

use nab_gf::field::Field;
use nab_gf::matrix::Matrix;
use nab_gf::Gf2_16;
use nab_netgraph::{DiGraph, NodeId};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::value::{Value, SYMBOL_BITS};

/// The per-edge coding matrices `{C_e | e ∈ E_k}` for one instance.
///
/// The matrices are part of the *algorithm specification*: every node knows
/// all of them (they are generated from a public seed), so a receiver can
/// recompute the expected coded symbols from its own value.
#[derive(Debug, Clone)]
pub struct CodingScheme {
    rho: usize,
    matrices: BTreeMap<(NodeId, NodeId), Matrix<Gf2_16>>,
}

impl CodingScheme {
    /// Samples uniform random coding matrices for every live edge of `g`,
    /// with equality-check parameter `rho`, from a deterministic seed.
    ///
    /// # Panics
    ///
    /// Panics if `rho` is zero.
    pub fn random(g: &DiGraph, rho: usize, seed: u64) -> Self {
        assert!(rho > 0, "equality-check parameter ρ must be positive");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut matrices = BTreeMap::new();
        for (_, e) in g.edges() {
            let c = Matrix::<Gf2_16>::random(rho, e.cap as usize, &mut rng);
            matrices.insert((e.src, e.dst), c);
        }
        CodingScheme { rho, matrices }
    }

    /// Builds a *deterministic* Vandermonde coding scheme: the `t`-th
    /// coded symbol of edge `e` uses the column `(1, α, α², …, α^{ρ−1})`
    /// for a globally distinct evaluation point `α` (consecutive powers of
    /// the field generator). An ablation alternative to random matrices —
    /// structured, reproducible without a seed, and empirically sound on
    /// well-provisioned graphs, though Theorem 1's probabilistic guarantee
    /// only covers the random construction.
    ///
    /// # Panics
    ///
    /// Panics if `rho` is zero or the graph needs more than `2^16 − 1`
    /// distinct evaluation points.
    pub fn vandermonde(g: &DiGraph, rho: usize) -> Self {
        assert!(rho > 0, "equality-check parameter ρ must be positive");
        let total: u64 = g.edges().map(|(_, e)| e.cap).sum();
        assert!(
            total < 65_535,
            "graph too large for distinct GF(2^16) points"
        );
        let gen_elt = Gf2_16::from_u64(2); // generator of GF(2^16)* for 0x1100B
        let mut alpha = Gf2_16::from_u64(1);
        let mut matrices = BTreeMap::new();
        for (_, e) in g.edges() {
            let cols = e.cap as usize;
            let mut m = Matrix::zero(rho, cols);
            for c in 0..cols {
                alpha = alpha.mul(gen_elt);
                let mut p = Gf2_16::from_u64(1);
                for r in 0..rho {
                    m[(r, c)] = p;
                    p = p.mul(alpha);
                }
            }
            matrices.insert((e.src, e.dst), m);
        }
        CodingScheme { rho, matrices }
    }

    /// The equality-check parameter `ρ`.
    pub fn rho(&self) -> usize {
        self.rho
    }

    /// The coding matrix of edge `(src, dst)`.
    ///
    /// # Panics
    ///
    /// Panics if the edge has no matrix (edge absent at generation time).
    pub fn matrix(&self, src: NodeId, dst: NodeId) -> &Matrix<Gf2_16> {
        self.matrices
            .get(&(src, dst))
            // nab-lint: allow(NAB003): plan construction emits a matrix for every live edge
            .unwrap_or_else(|| panic!("no coding matrix for edge ({src}, {dst})"))
    }

    /// Encodes a value for transmission on edge `(src, dst)`:
    /// `Y_e = X C_e` computed per 16-bit column, flattened column-major.
    ///
    /// The multiply runs on the [`nab_gf::kernel`] row kernels (the
    /// split-table `GF(2^16)` fast path); when encoding the same value on
    /// many edges, reshape once and use [`CodingScheme::encode_cols`].
    pub fn encode(&self, src: NodeId, dst: NodeId, value: &Value) -> Vec<Gf2_16> {
        self.encode_cols(src, dst, &value.reshape(self.rho))
    }

    /// Encodes pre-reshaped symbol columns (from
    /// [`Value::reshape`] with this scheme's `ρ`) for edge `(src, dst)`.
    /// This is the per-edge hot path of Phase 2: the reshape is hoisted so
    /// a node encoding on all its out-edges pays it once.
    pub fn encode_cols(&self, src: NodeId, dst: NodeId, cols: &[Vec<Gf2_16>]) -> Vec<Gf2_16> {
        let c = self.matrix(src, dst);
        let mut out = Vec::with_capacity(cols.len() * c.cols());
        for x in cols {
            out.extend(nab_gf::kernel::left_mul_vec(c, x));
        }
        out
    }

    /// The batched-encode shape: `Y_eᵀ = C_eᵀ · Xᵀ`, where `xt` is a
    /// `ρ × W` row-major slab whose columns are value columns (from any
    /// number of instances/streams packed side by side). One blocked
    /// [`nab_gf::kernel::mat_mul`] with `W`-long rows replaces `W` per-column
    /// [`nab_gf::kernel::left_mul_vec`] calls with `z_e`-long rows — the
    /// hot path of the batched execution engine. Entry `(r, c)` of the
    /// result is coded symbol `r` of packed column `c`, bit-identical to
    /// [`CodingScheme::encode_cols`] on the same columns.
    ///
    /// # Panics
    ///
    /// Panics if the edge has no matrix or `xt` has `!= ρ` rows.
    pub fn encode_slab(&self, src: NodeId, dst: NodeId, xt: &Matrix<Gf2_16>) -> Matrix<Gf2_16> {
        let c = self.matrix(src, dst);
        assert_eq!(xt.rows(), self.rho, "packed slab must have ρ rows");
        nab_gf::kernel::mat_mul(&c.transpose(), xt)
    }

    /// Number of coded symbols [`CodingScheme::encode`] produces on an edge
    /// for a value of `s` symbols.
    pub fn encoded_len(&self, src: NodeId, dst: NodeId, s: usize) -> usize {
        let z = self.matrix(src, dst).cols();
        s.div_ceil(self.rho) * z
    }

    /// Bits transmitted on the edge for a value of `s` symbols
    /// (`z_e · L/ρ`, rounded up to whole columns).
    pub fn encoded_bits(&self, src: NodeId, dst: NodeId, s: usize) -> u64 {
        self.encoded_len(src, dst, s) as u64 * SYMBOL_BITS
    }

    /// The receiver check of step 2: does `received` equal `X_j C_e` for
    /// the receiver's own value?
    pub fn check(&self, src: NodeId, dst: NodeId, own: &Value, received: &[Gf2_16]) -> bool {
        self.encode(src, dst, own) == received
    }

    /// [`CodingScheme::check`] on pre-reshaped columns (reshape hoisted,
    /// for receivers checking many in-edges against the same value).
    pub fn check_cols(
        &self,
        src: NodeId,
        dst: NodeId,
        own_cols: &[Vec<Gf2_16>],
        received: &[Gf2_16],
    ) -> bool {
        self.encode_cols(src, dst, own_cols) == received
    }
}

/// Pure (simulator-free) execution of Algorithm 1 on graph `g` with the
/// values held by each node.
///
/// `tamper(i, j, honest)` lets a Byzantine sender substitute the coded
/// symbols it puts on edge `(i, j)`; pass [`no_tamper`] for fault-free
/// runs. Returns each node's 1-bit flag: `true` = MISMATCH.
///
/// # Panics
///
/// Panics if some active node is missing from `values`.
pub fn equality_check_flags(
    g: &DiGraph,
    values: &BTreeMap<NodeId, Value>,
    scheme: &CodingScheme,
    tamper: &mut dyn FnMut(NodeId, NodeId, Vec<Gf2_16>) -> Vec<Gf2_16>,
) -> BTreeMap<NodeId, bool> {
    let mut flags: BTreeMap<NodeId, bool> = g.nodes().map(|v| (v, false)).collect();
    // Reshape each node's value once, not once per incident edge.
    let reshaped: BTreeMap<NodeId, Vec<Vec<Gf2_16>>> = g
        .nodes()
        .map(|v| (v, values[&v].reshape(scheme.rho())))
        .collect();
    for (_, e) in g.edges() {
        let honest = scheme.encode_cols(e.src, e.dst, &reshaped[&e.src]);
        let sent = tamper(e.src, e.dst, honest);
        if !scheme.check_cols(e.src, e.dst, &reshaped[&e.dst], &sent) {
            flags.insert(e.dst, true);
        }
    }
    flags
}

/// A pass-through tamper function (all nodes follow the protocol).
pub fn no_tamper(_: NodeId, _: NodeId, honest: Vec<Gf2_16>) -> Vec<Gf2_16> {
    honest
}

/// The Theorem 1 failure-probability bound
/// `2^{−m} · C(n, n−f) · (n−f−1) · ρ`, where `m` is the per-symbol bit
/// width (the paper's `L/ρ`; 16 in this implementation's machine field).
pub fn theorem1_failure_bound(n: usize, f: usize, rho: usize, m_bits: u32) -> f64 {
    let choose = binomial(n, n - f) as f64;
    choose * (n - f - 1) as f64 * rho as f64 / 2f64.powi(m_bits as i32)
}

/// Binomial coefficient (saturating; fine for the small `n` used here).
pub fn binomial(n: usize, k: usize) -> u128 {
    if k > n {
        return 0;
    }
    let k = k.min(n - k);
    let mut num: u128 = 1;
    for i in 0..k {
        num = num * (n - i) as u128 / (i + 1) as u128;
    }
    num
}

#[cfg(test)]
mod tests {
    use super::*;
    use nab_netgraph::gen;

    fn values_all_equal(g: &DiGraph, v: &Value) -> BTreeMap<NodeId, Value> {
        g.nodes().map(|n| (n, v.clone())).collect()
    }

    #[test]
    fn equal_values_raise_no_flags() {
        let g = gen::figure_1a();
        let scheme = CodingScheme::random(&g, 1, 99);
        let v = Value::from_u64s(&[10, 20, 30, 40]);
        let flags = equality_check_flags(&g, &values_all_equal(&g, &v), &scheme, &mut no_tamper);
        assert!(flags.values().all(|f| !f));
    }

    #[test]
    fn single_deviant_value_is_detected() {
        let g = gen::figure_1a();
        let scheme = CodingScheme::random(&g, 1, 7);
        let v = Value::from_u64s(&[10, 20, 30, 40]);
        let mut vals = values_all_equal(&g, &v);
        vals.insert(2, v.corrupt_symbol(1, 4));
        let flags = equality_check_flags(&g, &vals, &scheme, &mut no_tamper);
        assert!(
            flags.values().any(|f| *f),
            "a mismatching neighbor must raise a flag"
        );
    }

    #[test]
    fn detection_probability_matches_theorem1_shape() {
        // Random coding over GF(2^16): a single differing pair is missed
        // with probability ~2^-16 per coded symbol; over many trials we
        // must see (essentially) perfect detection.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let g = gen::complete(4, 1);
        let mut rng = StdRng::seed_from_u64(42);
        let mut detected = 0;
        let trials = 200;
        for t in 0..trials {
            let scheme = CodingScheme::random(&g, 2, t as u64);
            let v = Value::random(8, &mut rng);
            let mut vals = values_all_equal(&g, &v);
            let idx = rng.gen_range(0..8);
            vals.insert(3, v.corrupt_symbol(idx, rng.gen::<u64>() & 0xFFFF));
            let flags = equality_check_flags(&g, &vals, &scheme, &mut no_tamper);
            if flags.values().any(|f| *f) {
                detected += 1;
            }
        }
        assert_eq!(detected, trials, "missed detections far above 2^-16 rate");
    }

    #[test]
    fn tampered_symbols_flag_the_receiver() {
        let g = gen::figure_1a();
        let scheme = CodingScheme::random(&g, 1, 3);
        let v = Value::from_u64s(&[1, 2, 3, 4]);
        let vals = values_all_equal(&g, &v);
        // Node 1 garbles what it sends to node 2 (edge (1,2) exists in
        // figure_1a).
        let mut tamper = |src: NodeId, dst: NodeId, mut y: Vec<Gf2_16>| {
            if src == 1 && dst == 2 {
                y[0] = y[0].add(Gf2_16::ONE);
            }
            y
        };
        let flags = equality_check_flags(&g, &vals, &scheme, &mut tamper);
        assert!(flags[&2], "tampered edge must flag node 2");
        assert!(!flags[&0] && !flags[&3]);
    }

    #[test]
    fn encode_check_roundtrip() {
        let g = gen::complete(3, 2);
        let scheme = CodingScheme::random(&g, 2, 5);
        let v = Value::from_u64s(&[9, 8, 7, 6]);
        let y = scheme.encode(0, 1, &v);
        assert!(scheme.check(0, 1, &v, &y));
        let w = v.corrupt_symbol(0, 2);
        assert!(!scheme.check(0, 1, &w, &y));
    }

    #[test]
    fn encoded_sizes_match_capacity() {
        let g = gen::complete(3, 4); // z_e = 4
        let scheme = CodingScheme::random(&g, 2, 5);
        // 8 symbols, ρ=2 → 4 columns × z_e=4 coded symbols = 16.
        assert_eq!(scheme.encoded_len(0, 1, 8), 16);
        assert_eq!(scheme.encoded_bits(0, 1, 8), 256);
        let v = Value::from_u64s(&[1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(scheme.encode(0, 1, &v).len(), 16);
    }

    #[test]
    fn vandermonde_scheme_detects_deviations() {
        let g = gen::complete(4, 2);
        let scheme = CodingScheme::vandermonde(&g, 2);
        let v = Value::from_u64s(&[1, 2, 3, 4, 5, 6]);
        let mut vals = values_all_equal(&g, &v);
        let flags = equality_check_flags(&g, &vals, &scheme, &mut no_tamper);
        assert!(flags.values().all(|f| !f));
        vals.insert(2, v.corrupt_symbol(3, 9));
        let flags = equality_check_flags(&g, &vals, &scheme, &mut no_tamper);
        assert!(flags.values().any(|f| *f));
    }

    #[test]
    fn vandermonde_is_deterministic() {
        let g = gen::figure_2a();
        let a = CodingScheme::vandermonde(&g, 1);
        let b = CodingScheme::vandermonde(&g, 1);
        let v = Value::from_u64s(&[7, 8]);
        assert_eq!(a.encode(0, 1, &v), b.encode(0, 1, &v));
    }

    #[test]
    fn vandermonde_columns_are_vandermonde() {
        use nab_gf::linalg;
        // Any ρ distinct columns of a ρ-row Vandermonde scheme on one edge
        // are linearly independent.
        let g = gen::complete(3, 4);
        let scheme = CodingScheme::vandermonde(&g, 3);
        let m = scheme.matrix(0, 1);
        let sub = m.select_cols(&[0, 1, 2]);
        assert!(linalg::is_invertible(&sub));
    }

    #[test]
    fn encode_slab_matches_encode_cols_per_packed_stream() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let g = gen::complete(4, 3);
        let scheme = CodingScheme::random(&g, 2, 31);
        let mut rng = StdRng::seed_from_u64(8);
        // Three "streams" of 6 symbols each → 3 columns per stream.
        let vals: Vec<Value> = (0..3).map(|_| Value::random(6, &mut rng)).collect();
        let reshaped: Vec<Vec<Vec<Gf2_16>>> = vals.iter().map(|v| v.reshape(2)).collect();
        let cols = reshaped[0].len();
        let mut xt = Matrix::zero(2, 3 * cols);
        for (s, cs) in reshaped.iter().enumerate() {
            for (j, col) in cs.iter().enumerate() {
                for (r, &sym) in col.iter().enumerate() {
                    xt[(r, s * cols + j)] = sym;
                }
            }
        }
        let yt = scheme.encode_slab(0, 1, &xt);
        assert_eq!(yt.rows(), scheme.matrix(0, 1).cols());
        for (s, cs) in reshaped.iter().enumerate() {
            let expect = scheme.encode_cols(0, 1, cs);
            let mut got = Vec::new();
            for j in 0..cols {
                for r in 0..yt.rows() {
                    got.push(yt[(r, s * cols + j)]);
                }
            }
            assert_eq!(got, expect, "stream {s}");
        }
    }

    #[test]
    fn binomials() {
        assert_eq!(binomial(4, 3), 4);
        assert_eq!(binomial(7, 5), 21);
        assert_eq!(binomial(5, 0), 1);
        assert_eq!(binomial(3, 5), 0);
    }

    #[test]
    fn failure_bound_shrinks_with_symbol_width() {
        let b8 = theorem1_failure_bound(4, 1, 1, 8);
        let b16 = theorem1_failure_bound(4, 1, 1, 16);
        assert!(b16 < b8);
        // n=4, f=1, ρ=1: C(4,3)·2·1 = 8 over 2^m.
        assert!((b8 - 8.0 / 256.0).abs() < 1e-12);
    }
}
