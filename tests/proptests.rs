//! Property-based integration tests: BB safety properties under random
//! networks, random faulty sets, and randomized adversaries, plus the
//! EIG and path-router shortcuts checked against their definitions.

use std::collections::BTreeSet;

use nab_repro::bb::eig::{run_eig, EigAdversary, IdealChannel};
use nab_repro::bb::router::PathRouter;
use nab_repro::nab::adversary::RandomStrategy;
use nab_repro::nab::engine::{NabConfig, NabEngine, SOURCE};
use nab_repro::nab::Value;
use nab_repro::netgraph::{gen, NodeId};
use nab_repro::sim::NetSim;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// On K4/K5 with one random faulty node and a fully random adversary,
    /// every instance satisfies agreement; validity holds when the source
    /// is fault-free; only faulty nodes ever get excluded.
    #[test]
    fn random_adversary_never_breaks_bb(
        n in 4usize..6,
        cap in 1u64..4,
        bad in 0usize..5,
        adv_seed in any::<u64>(),
        p in 0.1f64..1.0,
        input_seed in any::<u64>(),
    ) {
        let bad = bad % n;
        let g = gen::complete(n, cap);
        let cfg = NabConfig { f: 1, symbols: 12, seed: 42 };
        let mut engine = NabEngine::new(g, cfg).unwrap();
        let faulty = BTreeSet::from([bad]);
        let mut adv = RandomStrategy::new(adv_seed, p);
        let mut rng = StdRng::seed_from_u64(input_seed);

        for _ in 0..3 {
            let input = Value::random(12, &mut rng);
            let rep = engine.run_instance(&input, &faulty, &mut adv).unwrap();

            let honest: Vec<&Value> = rep
                .outputs
                .iter()
                .filter(|(v, _)| !faulty.contains(v))
                .map(|(_, o)| o)
                .collect();
            for w in honest.windows(2) {
                prop_assert_eq!(w[0], w[1], "agreement");
            }
            if bad != SOURCE && !rep.defaulted {
                prop_assert_eq!(honest[0], &input, "validity");
            }
        }
        for removed in &engine.disputes().removed {
            prop_assert!(faulty.contains(removed), "removed an honest node");
        }
        for &(a, b) in &engine.disputes().pairs {
            prop_assert!(faulty.contains(&a) || faulty.contains(&b));
        }
    }

    /// Random heterogeneous networks: the bounds pipeline (γ*, ρ*, Eq. 6,
    /// Theorem 2) is internally consistent and Theorem 3's fraction holds.
    #[test]
    fn bounds_consistent_on_random_networks(seed in any::<u64>()) {
        let mut grng = StdRng::seed_from_u64(seed);
        let g = gen::random_connected(5, 0.7, 4, &mut grng);
        if let Some(rep) = nab_repro::nab::bounds::bounds_report(&g, 0, 1, 1 << 16) {
            prop_assert!(rep.gamma_star.value <= rep.gamma1);
            prop_assert!(rep.rho_star == rep.u1 / 2);
            prop_assert!(rep.tnab_lower <= rep.capacity_upper as f64 + 1e-9);
            if rep.gamma_star.exact {
                prop_assert!(rep.guaranteed_fraction >= 1.0 / 3.0 - 1e-9);
            }
        }
    }

    /// Phase-1 value corruption by a random adversary is always either
    /// absent or detected by the equality check + flag agreement.
    #[test]
    fn corruption_implies_detection(
        adv_seed in any::<u64>(),
        bad in 1usize..4,
    ) {
        use nab_repro::nab::adversary::NabAdversary;
        let g = gen::complete(4, 2);
        let cfg = NabConfig { f: 1, symbols: 12, seed: 17 };
        let mut engine = NabEngine::new(g, cfg).unwrap();
        let faulty = BTreeSet::from([bad]);
        let mut adv = RandomStrategy::new(adv_seed, 0.9);
        let input = Value::from_u64s(&(0..12).collect::<Vec<_>>());
        let rep = engine.run_instance(&input, &faulty, &mut adv).unwrap();
        // If any fault-free node ended Phase 1 with a wrong value, the
        // instance must have detected a mismatch (Theorem 1 property EC —
        // up to the 2^-16 soundness error, negligible at 24 trials).
        let honest_wrong = rep
            .outputs
            .iter()
            .any(|(v, o)| !faulty.contains(v) && *o != input);
        if honest_wrong {
            prop_assert!(rep.mismatch_detected);
            // And dispute control repaired the outcome.
            prop_assert!(rep.dispute_ran);
        }
        let _ = &mut adv as &mut dyn NabAdversary;
    }
}

/// Adversary for the EIG properties: every faulty send is an independent
/// draw from a three-value domain, so faulty sources and relays both
/// equivocate and split the honest nodes' trees.
struct Equivocator(StdRng);

impl EigAdversary<u64> for Equivocator {
    fn send_value(&mut self, _: NodeId, _: &[NodeId], _: NodeId, _: &u64) -> u64 {
        self.0.gen_range(0..3)
    }
}

/// EIG's message count: `n − 1` unicasts per tree node, and the tree has
/// `Σ_{k=0..=f} (n−1)(n−2)…(n−k)` nodes.
fn eig_messages(n: u64, f: u64) -> u64 {
    let nodes: u64 = (0..=f)
        .map(|k| (1..=k).map(|j| n - j).product::<u64>())
        .sum();
    (n - 1) * nodes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// EIG on `n ∈ 4..=8`, `f ∈ {1, 2}` against equivocating faulty sets
    /// of size ≤ f: agreement, validity, and the closed-form message count.
    #[test]
    fn eig_agreement_validity_and_message_count(
        n in 4usize..9,
        f2 in any::<bool>(),
        source in 0usize..8,
        faults in proptest::collection::vec(0usize..8, 0..3),
        input in 0u64..3,
        adv_seed in any::<u64>(),
    ) {
        let f = if f2 && n > 6 { 2 } else { 1 };
        let source = source % n;
        let faulty: BTreeSet<NodeId> = faults.iter().take(f).map(|v| v % n).collect();
        let parts: Vec<NodeId> = (0..n).collect();
        let mut adv = Equivocator(StdRng::seed_from_u64(adv_seed));
        let res = run_eig(&parts, source, f, input, &faulty, &mut adv, &mut IdealChannel, 1);

        let honest: Vec<u64> = parts
            .iter()
            .filter(|p| !faulty.contains(p))
            .map(|p| res.decisions[p])
            .collect();
        prop_assert!(honest.windows(2).all(|w| w[0] == w[1]), "agreement");
        if !faulty.contains(&source) {
            prop_assert_eq!(honest[0], input, "validity");
        }
        prop_assert_eq!(res.messages, eig_messages(n as u64, f as u64));
    }

    /// `PathRouter::unicast` charges the meter exactly as sending every
    /// copy hop by hop over `paths_for` does: same clock, bits and
    /// recorded rounds, bit for bit, on random heterogeneous
    /// `(2f+1)`-connected networks. Faulty relays are asked to corrupt the
    /// same copies in the same order, and the voted values agree.
    #[test]
    fn routed_unicast_matches_hop_by_hop_replay(
        f2 in any::<bool>(),
        extra in 0usize..6,
        chords in any::<bool>(),
        graph_seed in any::<u64>(),
        sends in proptest::collection::vec((any::<u64>(), any::<u64>(), 1u64..64), 1..24),
        nfaulty in 0usize..3,
        fault_seed in any::<u64>(),
    ) {
        let f: usize = if f2 { 2 } else { 1 };
        let k = 2 * f + 1;
        let n = 2 * k.div_ceil(2) + 1 + extra;
        // Without chords the paths run long, so copies meet faulty relays
        // at different hops.
        let extra_p = if chords { 0.2 } else { 0.0 };
        let g = gen::random_k_connected(n, k, 7, extra_p, &mut StdRng::seed_from_u64(graph_seed));
        let router = PathRouter::build(&g, f).expect("generator guarantees k-connectivity");
        let mut frng = StdRng::seed_from_u64(fault_seed);
        let mut faulty = BTreeSet::new();
        while faulty.len() < nfaulty.min(f) {
            faulty.insert(frng.gen_range(0..n));
        }

        let mut routed = NetSim::new(&g).recording(true);
        let mut replay = NetSim::new(&g).recording(true);
        let (mut calls, mut replay_calls) = (Vec::new(), Vec::new());
        for &(a, b, bits) in &sends {
            let origin = a as usize % n;
            let target = (origin + 1 + b as usize % (n - 1)) % n;
            let got = router.unicast(&mut routed, &faulty, origin, target, bits, 0u64, &mut |r, _| {
                calls.push(r);
                calls.len() as u64
            });

            let route = router.paths_for(origin, target);
            let paths = route.paths();
            let mut carried = vec![0u64; paths.len()];
            let hops = paths.iter().map(|p| p.len() - 1).max().unwrap();
            for hop in 0..hops {
                for (copy, p) in carried.iter_mut().zip(paths) {
                    if hop + 1 < p.len() {
                        if hop > 0 && faulty.contains(&p[hop]) {
                            replay_calls.push(p[hop]);
                            *copy = replay_calls.len() as u64;
                        }
                        replay.send(p[hop], p[hop + 1], bits).unwrap();
                    }
                }
                replay.deliver_round();
            }
            prop_assert_eq!(got, nab_repro::bb::router::majority(&carried));
        }
        prop_assert_eq!(&calls, &replay_calls);
        prop_assert_eq!(routed.clock().to_bits(), replay.clock().to_bits());
        prop_assert_eq!(routed.total_bits(), replay.total_bits());
        prop_assert_eq!(routed.into_rounds(), replay.into_rounds());
    }
}
