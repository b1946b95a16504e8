//! Cross-commit golden test for the Byzantine-broadcast transport: shrunk
//! versions of the bundled scenarios that exercise every BB path (EIG
//! flags, EIG dispute claims, Phase-King, colluding framers, plan repair
//! under disputes, and message-level replay of the recorded BB rounds)
//! must keep producing byte-identical canonical sweep JSON. Each report
//! is pinned by its FNV-1a-64 digest, captured before the BB layer was
//! last restructured; a change to these constants means the canonical
//! output moved and needs its own justification.
//!
//! The `f = 2` cases on heterogeneous capacities pin the EIG relay order:
//! there, the order in which hop charges are summed reaches the last bits
//! of the reported times, so the relays must go in lexicographic path
//! order, from run to run and within one process. Their digests were
//! captured once that order was fixed; before, these outputs moved from
//! run to run, so there was no earlier value to pin.

use nab_repro::scenario::{parse_str, run_sweep_with_options, SweepOptions};

/// FNV-1a, 64-bit.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Runs `text` single-threaded and digests its canonical JSON.
fn digest(text: &str) -> u64 {
    let spec = parse_str(text).expect("scenario parses");
    let opts = SweepOptions {
        threads: 1,
        ..SweepOptions::default()
    };
    let report = run_sweep_with_options(&spec, &opts).expect("sweep runs");
    fnv1a64(report.to_json().as_bytes())
}

/// `fig1a` at `f = 0`: Phase-1 streaming only, no BB at all — the control.
const FIG1A: &str = "name = fig1a\ntopology = fig1a\nbroadcast = eig\n\
    adversary = honest\nfaults = none\nq = 3\nsymbols = 8,32\nf = 0\n\
    n = 4\ncap = 1\nseeds = 1\nseed0 = 7\nbounds = true\n";

/// `collusion`: `f = 2` EIG flags and dispute claims on `K7`, with two
/// colluding liars trying to frame node 3.
const COLLUSION: &str = "name = collusion\ntopology = complete:$n:$cap\n\
    broadcast = eig\nadversary = collude:3:1\nfaults = fixed:1,2\nq = 3\n\
    symbols = 16\nn = 7\ncap = 2\nf = 2\nseeds = 1\nseed0 = 41\n";

/// `phaseking-streams`: Phase-King BB with interleaved streams.
const PHASEKING: &str = "name = phaseking-streams\ntopology = complete:$n:$cap\n\
    broadcast = phase-king\nadversary = random:0.3\nfaults = rotating:1\n\
    q = 3\nstreams = 3\nsymbols = 16\nn = 5,6\ncap = 1\nf = 1\nseeds = 1\n\
    seed0 = 71\n";

/// `dispute-storm`: dispute rounds plus `G_k` repair and plan migration on
/// a sparse 3-connected graph.
const DISPUTE_STORM: &str = "name = dispute-storm\n\
    topology = kconnected:$n:3:$cap:25\nbroadcast = eig\nadversary = corruptor\n\
    faults = fixed:2\nmutations = degrade:4:6:25\nq = 10\nsymbols = 8\n\
    n = 16\ncap = 2\nf = 1\nseeds = 1\nseed0 = 1205\nbounds = false\n";

/// `wan-grid`: message-level replay of the recorded flag and dispute BB
/// rounds over a jittery WAN link model.
const WAN_GRID: &str = "name = wan-grid\ntopology = complete:$n:$cap\n\
    broadcast = eig\nadversary = corruptor\nfaults = rotating:1\nq = 4\n\
    symbols = 16\nn = 4,5\ncap = 2\nf = 1\nseeds = 2\nseed0 = 29\nnet = on\n\
    link_model = uniform:20000000:5000000\n";

/// EIG at `f = 2` (flags and dispute claims) on a heterogeneous `K7`.
const HETERO_F2: &str = "name = hetero-f2\ntopology = hetero:$n:1:5\n\
    broadcast = eig\nadversary = corruptor\nfaults = fixed:1,2\nq = 2\n\
    symbols = 8\nn = 7\ncap = 1\nf = 2\nseeds = 1\nseed0 = 5\n";

/// The same, with every recorded BB round replayed over a jittery link
/// model.
const HETERO_F2_NET: &str = "name = hetero-f2-net\ntopology = hetero:$n:1:5\n\
    broadcast = eig\nadversary = corruptor\nfaults = fixed:1,2\nq = 2\n\
    symbols = 8\nn = 7\ncap = 1\nf = 2\nseeds = 1\nseed0 = 5\nnet = on\n\
    link_model = uniform:20000000:5000000\n";

#[test]
fn eig_f2_relay_order_is_canonical() {
    for (name, text, want) in [
        ("hetero-f2", HETERO_F2, 0x09c9_5805_1aab_8997),
        ("hetero-f2-net", HETERO_F2_NET, 0x73c0_1a72_7fa0_a80e),
    ] {
        let first = digest(text);
        assert_eq!(first, digest(text), "{name}: rerun in-process moved");
        assert_eq!(first, want, "{name}: {first:#018x}");
    }
}

#[test]
fn bb_scenarios_keep_their_canonical_json() {
    let got = [
        ("fig1a", digest(FIG1A)),
        ("collusion", digest(COLLUSION)),
        ("phaseking-streams", digest(PHASEKING)),
        ("dispute-storm", digest(DISPUTE_STORM)),
        ("wan-grid", digest(WAN_GRID)),
    ];
    let want = [
        ("fig1a", 0x2bd7_c9b0_9d0d_f563),
        ("collusion", 0x04c3_41ca_3042_74f5),
        ("phaseking-streams", 0xef02_71ea_3a42_8864),
        ("dispute-storm", 0xa949_3885_b0ee_aa62),
        ("wan-grid", 0x60ed_c9ee_ee7f_0af1),
    ];
    assert_eq!(got, want);
}
