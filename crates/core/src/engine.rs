//! The NAB execution engine: orchestrates Phases 1–3 across repeated
//! instances, evolving `G_k` through dispute control (Section 2).
//!
//! One-time network setup (validation, γ₁/ρ₁, arborescence packing, the
//! disjoint-path router) lives in the planning layer
//! ([`crate::plan::ExecutionPlan`]); the engine borrows a plan via
//! [`Arc`] and keeps only per-instance state, so many engines — a sweep
//! job's interleaved streams, or every job of a grid sharing a topology —
//! execute against one shared plan.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use nab_bb::baselines::RoutedChannel;
use nab_netgraph::arborescence::{pack_arborescences, pack_arborescences_naive, Arborescence};
use nab_netgraph::{DiGraph, NodeId};
use nab_obs::trace::{self, EventKind, InstanceSpan, Phase, PhaseSpan};
use nab_sim::NetSim;

use crate::adversary::NabAdversary;
use crate::bounds::{gamma_k, rho_k, Pair};
use crate::dispute::{dc2_disputes, dc3_exposed, DisputeState, NodeClaims};
use crate::equality::CodingScheme;
use crate::netexec::{self, DeliveredTimes, NetExec, ReplayInput};
use crate::phase1::run_phase1;
use crate::phase2::{
    broadcast_value, honest_claims, run_equality_phase, run_flag_broadcast, BroadcastKind,
};
use crate::plan::ExecutionPlan;
use crate::value::Value;

/// The broadcast source — the paper's "node 1" is node 0 here.
pub const SOURCE: NodeId = 0;

/// Static configuration of a NAB deployment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NabConfig {
    /// Upper bound on the number of faulty nodes over the system lifetime.
    pub f: usize,
    /// Input size per instance in 16-bit symbols (`L = 16 · symbols`).
    pub symbols: usize,
    /// Seed for the per-instance coding matrices (public, part of the
    /// algorithm specification).
    pub seed: u64,
}

/// Errors detectable at setup or between instances.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NabError {
    /// Fewer than `3f + 1` nodes.
    TooManyFaults {
        /// Nodes in the network.
        n: usize,
        /// Configured fault bound.
        f: usize,
    },
    /// Vertex connectivity below `2f + 1`.
    InsufficientConnectivity,
    /// `U_k < 2`: no integer equality-check parameter exists.
    NoEqualityParameter,
    /// Input has the wrong number of symbols.
    WrongInputSize {
        /// Expected symbol count.
        expect: usize,
        /// Provided symbol count.
        got: usize,
    },
    /// Edmonds arborescence packing failed at the computed broadcast
    /// rate — a planning failure that carries the topology/rate context
    /// so a bad scenario reports cleanly instead of aborting a sweep.
    ArborescencePacking {
        /// Active nodes of the graph being planned.
        n: usize,
        /// Live edges of the graph being planned.
        edges: usize,
        /// The rate `γ` the packing was attempted at.
        gamma: u64,
    },
    /// [`NabEngine::from_plan`] was given a plan built for a different
    /// fault bound than the configuration asks for.
    PlanMismatch {
        /// The plan's fault bound.
        plan_f: usize,
        /// The configuration's fault bound.
        cfg_f: usize,
    },
}

impl std::fmt::Display for NabError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NabError::TooManyFaults { n, f: ff } => {
                write!(f, "need n ≥ 3f+1: n={n}, f={ff}")
            }
            NabError::InsufficientConnectivity => {
                write!(f, "network connectivity below 2f+1")
            }
            NabError::NoEqualityParameter => {
                write!(f, "U_k < 2: equality check has no valid ρ")
            }
            NabError::WrongInputSize { expect, got } => {
                write!(f, "input must have {expect} symbols, got {got}")
            }
            NabError::ArborescencePacking { n, edges, gamma } => {
                write!(
                    f,
                    "Edmonds packing failed at rate γ={gamma} on a {n}-node, \
                     {edges}-edge graph (the rate should be achievable; this \
                     indicates an inconsistent topology)"
                )
            }
            NabError::PlanMismatch { plan_f, cfg_f } => {
                write!(
                    f,
                    "execution plan was built for f={plan_f} but the \
                     configuration asks for f={cfg_f}"
                )
            }
        }
    }
}

impl std::error::Error for NabError {}

/// Per-phase wall-clock breakdown of one instance.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseTimes {
    /// Phase 1 unreliable broadcast (`≈ L/γ_k`).
    pub phase1: f64,
    /// Equality check (`≈ L/ρ_k`).
    pub equality: f64,
    /// Flag broadcasts (the `O(n^α)` term).
    pub flags: f64,
    /// Dispute control (0 when not triggered).
    pub dispute: f64,
}

impl PhaseTimes {
    /// Total instance time.
    pub fn total(&self) -> f64 {
        self.phase1 + self.equality + self.flags + self.dispute
    }
}

/// Per-phase **wall-clock** nanoseconds of one instance — how long the
/// simulator itself took, as opposed to [`PhaseTimes`], which is the
/// *simulated* link-time model. This is the raw material of the perf
/// report (`BENCH_sweep.json`): summed per job by the sweep runner and
/// serialized when timings are requested.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseWallNanos {
    /// Phase 1 (arborescence streaming).
    pub phase1: u64,
    /// Equality check (coding-matrix generation + encode/check).
    pub equality: u64,
    /// Flag broadcasts.
    pub flags: u64,
    /// Dispute control (claims broadcast + DC2/DC3), 0 when not run.
    pub dispute: u64,
}

impl PhaseWallNanos {
    /// Accumulates another instance's breakdown.
    ///
    /// (There is deliberately no `total()` here: the per-job total the
    /// sweep report serializes is `JobMetrics::wall_ns`, which also
    /// covers engine setup and input generation — a phase-sum "total"
    /// would silently disagree with it.)
    pub fn accumulate(&mut self, other: &PhaseWallNanos) {
        self.phase1 += other.phase1;
        self.equality += other.equality;
        self.flags += other.flags;
        self.dispute += other.dispute;
    }
}

/// Everything observable about one NAB instance.
#[derive(Debug, Clone)]
pub struct InstanceReport {
    /// Output value decided by each *fault-free* node (faulty nodes'
    /// entries are present but meaningless).
    pub outputs: BTreeMap<NodeId, Value>,
    /// Simulated-time breakdown.
    pub times: PhaseTimes,
    /// Measured wall-clock breakdown (nanoseconds).
    pub wall: PhaseWallNanos,
    /// `γ_k` used for Phase 1.
    pub gamma_k: u64,
    /// `ρ_k` used for the equality check.
    pub rho_k: u64,
    /// Whether any agreed flag was MISMATCH.
    pub mismatch_detected: bool,
    /// Whether dispute control executed.
    pub dispute_ran: bool,
    /// New dispute pairs found this instance.
    pub new_pairs: Vec<Pair>,
    /// Nodes newly excluded as faulty.
    pub newly_removed: Vec<NodeId>,
    /// Whether the fast path (source known faulty → default output) ran.
    pub defaulted: bool,
    /// Per-phase delivered-time distributions from message-level
    /// execution; `None` on the default formula path (or when the
    /// instance defaulted before any message was sent).
    pub delivered: Option<DeliveredTimes>,
}

/// Counters for per-`G_k` replanning work (see
/// [`NabEngine::repair_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RepairStats {
    /// Replans resolved by incremental repair: the γ/ρ bounds survived the
    /// dispute, so the packing was patched by the witness-incremental
    /// packer without touching the bounds.
    pub repairs: u64,
    /// Replans where a γ or ρ bound actually changed, forcing the full
    /// recompute fallback.
    pub full_recomputes: u64,
    /// Total wall nanoseconds spent replanning (repairs + recomputes).
    pub repair_ns: u64,
}

impl RepairStats {
    /// Accumulates another engine's counters (sweep aggregation).
    pub fn accumulate(&mut self, other: &RepairStats) {
        self.repairs += other.repairs;
        self.full_recomputes += other.full_recomputes;
        self.repair_ns += other.repair_ns;
    }
}

/// Memoized per-`G_k` planning artifacts, keyed by the dispute state that
/// produced them. Derivation is a deterministic function of
/// `(G_1, pairs, removed)`, so reuse across instances is bit-identical to
/// recomputing every time — it only removes redundant work.
#[derive(Debug, Clone)]
struct GkMemo {
    pairs: BTreeSet<Pair>,
    removed: BTreeSet<NodeId>,
    gamma: u64,
    trees: Arc<Vec<Arborescence>>,
    /// `ρ_k`, filled lazily on the first instance that reaches Phase 2
    /// under this dispute state (earlier phases never need it).
    rho: Option<u64>,
    /// Whether this derivation was counted as a repair (γ unchanged); a
    /// later ρ change reclassifies it as a full recompute.
    counted_repair: bool,
}

/// The NAB protocol engine (execution layer).
///
/// Create one engine per deployment and call
/// [`NabEngine::run_instance`] repeatedly; dispute state carries across
/// instances exactly as the paper's `G_k` evolution prescribes. The
/// one-time planning artifact is shared: engines built with
/// [`NabEngine::from_plan`] borrow the same [`ExecutionPlan`].
#[derive(Debug, Clone)]
pub struct NabEngine {
    plan: Arc<ExecutionPlan>,
    cfg: NabConfig,
    disputes: DisputeState,
    instance: usize,
    broadcast: BroadcastKind,
    net: Option<NetExec>,
    repair: bool,
    memo: Option<GkMemo>,
    repair_stats: RepairStats,
}

impl NabEngine {
    /// Validates the network against the paper's conditions (`n ≥ 3f+1`,
    /// connectivity `≥ 2f+1`, `U_1 ≥ 2`) and builds the engine with a
    /// private plan. Equivalent to [`ExecutionPlan::build`] +
    /// [`NabEngine::from_plan`].
    ///
    /// # Errors
    ///
    /// Returns the violated condition.
    pub fn new(g: DiGraph, cfg: NabConfig) -> Result<Self, NabError> {
        let plan = Arc::new(ExecutionPlan::build(g, cfg.f)?);
        Self::from_plan(plan, cfg)
    }

    /// Builds an engine executing against a shared, already-realized
    /// plan. The plan's fault bound must match the configuration's.
    ///
    /// # Errors
    ///
    /// Returns [`NabError::PlanMismatch`] when `cfg.f != plan.f()`.
    pub fn from_plan(plan: Arc<ExecutionPlan>, cfg: NabConfig) -> Result<Self, NabError> {
        if plan.f() != cfg.f {
            return Err(NabError::PlanMismatch {
                plan_f: plan.f(),
                cfg_f: cfg.f,
            });
        }
        Ok(NabEngine {
            plan,
            cfg,
            disputes: DisputeState::new(),
            instance: 0,
            broadcast: BroadcastKind::default(),
            net: None,
            repair: true,
            memo: None,
            repair_stats: RepairStats::default(),
        })
    }

    /// Re-seats the engine on a new plan — a live deployment whose
    /// network was re-provisioned mid-stream (link capacities changed,
    /// OCS-style) — while carrying forward everything it learned:
    /// dispute state, the instance counter (which seeds per-instance
    /// coding schemes), and the replanning counters. The per-`G_k` memo
    /// is dropped: it was derived against the old network. The node set
    /// must be unchanged (capacity-only mutation), or carried dispute
    /// state would reference nodes the new plan does not have.
    ///
    /// # Errors
    ///
    /// Returns [`NabError::PlanMismatch`] when `plan.f() != cfg.f`.
    ///
    /// # Panics
    ///
    /// Panics if the new plan's node count differs from the old one's.
    pub fn migrate_to_plan(&mut self, plan: Arc<ExecutionPlan>) -> Result<(), NabError> {
        if plan.f() != self.cfg.f {
            return Err(NabError::PlanMismatch {
                plan_f: plan.f(),
                cfg_f: self.cfg.f,
            });
        }
        assert_eq!(
            plan.graph().node_count(),
            self.plan.graph().node_count(),
            "plan migration requires a capacity-only mutation"
        );
        self.plan = plan;
        self.memo = None;
        Ok(())
    }

    /// Enables or disables incremental plan repair (default: enabled).
    ///
    /// Disabled, every disputed instance re-derives γ_k, the arborescence
    /// packing, and ρ_k from scratch with the reference packer — the
    /// pre-repair behavior, kept as the benchmark baseline and the
    /// differential-testing oracle. Outputs are bit-identical either way.
    pub fn set_plan_repair(&mut self, on: bool) {
        self.repair = on;
        if !on {
            self.memo = None;
        }
    }

    /// Whether incremental plan repair is enabled.
    pub fn plan_repair(&self) -> bool {
        self.repair
    }

    /// Replanning counters accumulated by this engine.
    pub fn repair_stats(&self) -> &RepairStats {
        &self.repair_stats
    }

    /// Switches the engine to message-level execution: phase durations
    /// and delivered-time distributions come from replaying the exact
    /// send sets through the `nab-net` event kernel under the given
    /// link models. `None` (the default) restores the formula path.
    /// Protocol outputs and dispute evolution are identical either way
    /// — only timing differs.
    pub fn set_net(&mut self, net: Option<NetExec>) {
        self.net = net;
    }

    /// The message-level execution config, if enabled.
    pub fn net(&self) -> Option<&NetExec> {
        self.net.as_ref()
    }

    /// The shared planning artifact this engine executes against.
    pub fn plan(&self) -> &Arc<ExecutionPlan> {
        &self.plan
    }

    /// The original network.
    pub fn original_graph(&self) -> &DiGraph {
        self.plan.graph()
    }

    /// The configuration.
    pub fn config(&self) -> &NabConfig {
        &self.cfg
    }

    /// Selects the classic-BB primitive used for flag and claim broadcasts
    /// (default: EIG; Phase-King needs `n > 4f` and falls back to EIG
    /// otherwise).
    pub fn set_broadcast_kind(&mut self, kind: BroadcastKind) {
        self.broadcast = kind;
    }

    /// The configured `Broadcast_Default`.
    pub fn broadcast_kind(&self) -> BroadcastKind {
        self.broadcast
    }

    /// The current `G_k` after all disputes so far.
    pub fn current_graph(&self) -> DiGraph {
        self.disputes.current_graph(self.plan.graph())
    }

    /// Accumulated dispute state.
    pub fn disputes(&self) -> &DisputeState {
        &self.disputes
    }

    /// Number of instances run.
    pub fn instances_run(&self) -> usize {
        self.instance
    }

    /// Residual fault budget among non-excluded nodes (excluded nodes are
    /// guaranteed faulty).
    pub fn residual_f(&self) -> usize {
        self.cfg.f.saturating_sub(self.disputes.removed.len())
    }

    /// Runs one NAB instance.
    ///
    /// `faulty` is the ground-truth faulty set (fixed across instances per
    /// the fault model; must have at most `f` members); `adv` chooses the
    /// faulty nodes' behavior.
    ///
    /// # Errors
    ///
    /// Returns [`NabError::WrongInputSize`] on a bad input, or
    /// [`NabError::NoEqualityParameter`] if dispute evolution drove
    /// `U_k` below 2 (cannot happen on networks meeting the paper's
    /// assumptions).
    ///
    /// # Panics
    ///
    /// Panics if `faulty` has more than `f` members.
    pub fn run_instance(
        &mut self,
        input: &Value,
        faulty: &BTreeSet<NodeId>,
        adv: &mut dyn NabAdversary,
    ) -> Result<InstanceReport, NabError> {
        assert!(
            faulty.len() <= self.cfg.f,
            "faulty set exceeds configured f"
        );
        if input.len() != self.cfg.symbols {
            return Err(NabError::WrongInputSize {
                expect: self.cfg.symbols,
                got: input.len(),
            });
        }
        self.instance += 1;
        // Tracing: a no-op unless a sink is installed on this thread (the
        // sweep runner installs one per worker when `--trace` is active).
        let _instance_span = InstanceSpan::enter((self.instance - 1) as u64);
        let plan = Arc::clone(&self.plan);
        // While no disputes have shrunk the graph, `G_k` *is* `G_1` and
        // the plan's precomputed γ/ρ/arborescences apply verbatim; only
        // after dispute control bites do the per-`G_k` quantities get
        // recomputed. Either way the values are identical to deriving
        // them from scratch (the plan is a deterministic function of the
        // same inputs), which keeps cached and uncached runs bit-equal.
        let undisputed = self.disputes.pairs.is_empty() && self.disputes.removed.is_empty();
        let gk_shrunk;
        let gk: &DiGraph = if undisputed {
            plan.graph()
        } else {
            gk_shrunk = self.disputes.current_graph(plan.graph());
            &gk_shrunk
        };

        // Special case 1: the source is known faulty — agree on default.
        if !gk.is_active(SOURCE) {
            trace::emit(EventKind::InstanceDefaulted);
            let outputs = gk
                .nodes()
                .map(|v| (v, Value::zeros(self.cfg.symbols)))
                .collect();
            return Ok(InstanceReport {
                outputs,
                times: PhaseTimes::default(),
                wall: PhaseWallNanos::default(),
                gamma_k: 0,
                rho_k: 0,
                mismatch_detected: false,
                dispute_ran: false,
                new_pairs: Vec::new(),
                newly_removed: Vec::new(),
                defaulted: true,
                delivered: None,
            });
        }

        let gamma;
        let trees_shrunk;
        let trees_memo;
        let trees: &[Arborescence] = if undisputed {
            gamma = plan.gamma0();
            plan.trees0()
        } else if self.repair {
            // Incremental repair: re-derive (γ_k, trees) only when the
            // dispute state changed since the last derivation, and use the
            // witness-incremental packer when it did. Both are exact — the
            // memoized artifacts equal a from-scratch naive recompute bit
            // for bit — so this path differs from the fallback below only
            // in wall time.
            let hit = self.memo.as_ref().is_some_and(|m| {
                m.pairs == self.disputes.pairs && m.removed == self.disputes.removed
            });
            if !hit {
                let t0 = nab_obs::clock::mono_now();
                let gamma_new = gamma_k(gk, SOURCE);
                let trees_new = pack_arborescences(gk, SOURCE, gamma_new).ok_or_else(|| {
                    NabError::ArborescencePacking {
                        n: gk.active_count(),
                        edges: gk.edge_count(),
                        gamma: gamma_new,
                    }
                })?;
                let ns = t0.elapsed().as_nanos() as u64;
                // DetSan: the witness-incremental packer must produce a
                // packing as valid as the from-scratch one; re-verify it
                // against `G_k` before it is memoized and used.
                #[cfg(feature = "sanitize")]
                nab_netgraph::arborescence::validate_packing(gk, SOURCE, &trees_new)
                    .expect("DetSan: incremental repair produced an invalid packing"); // nab-lint: allow(NAB003): DetSan check; aborting on a violated invariant is the point
                let counted_repair = gamma_new == plan.gamma0();
                if counted_repair {
                    self.repair_stats.repairs += 1;
                    trace::emit(EventKind::PlanRepair { ns });
                } else {
                    self.repair_stats.full_recomputes += 1;
                    trace::emit(EventKind::PlanFullRecompute { ns });
                }
                self.repair_stats.repair_ns += ns;
                self.memo = Some(GkMemo {
                    pairs: self.disputes.pairs.clone(),
                    removed: self.disputes.removed.clone(),
                    gamma: gamma_new,
                    trees: Arc::new(trees_new),
                    rho: None,
                    counted_repair,
                });
            }
            let m = self.memo.as_ref().expect("memo was just ensured"); // nab-lint: allow(NAB003): ensure_memo() on the preceding line set it
            gamma = m.gamma;
            trees_memo = Arc::clone(&m.trees);
            &trees_memo
        } else {
            // Full-recompute fallback (`plan_repair = false`): the
            // pre-repair behavior — re-derive everything per instance with
            // the reference packer.
            let t0 = nab_obs::clock::mono_now();
            gamma = gamma_k(gk, SOURCE);
            trees_shrunk = pack_arborescences_naive(gk, SOURCE, gamma).ok_or_else(|| {
                NabError::ArborescencePacking {
                    n: gk.active_count(),
                    edges: gk.edge_count(),
                    gamma,
                }
            })?;
            let ns = t0.elapsed().as_nanos() as u64;
            self.repair_stats.full_recomputes += 1;
            self.repair_stats.repair_ns += ns;
            trace::emit(EventKind::PlanFullRecompute { ns });
            &trees_shrunk
        };

        // Phase 1.
        let p1_span = PhaseSpan::enter(Phase::Phase1);
        let t0 = nab_obs::clock::mono_now();
        let p1 = run_phase1(gk, SOURCE, input, trees, faulty, adv);
        let mut times = PhaseTimes {
            phase1: p1.duration,
            ..PhaseTimes::default()
        };
        let mut wall = PhaseWallNanos {
            phase1: t0.elapsed().as_nanos() as u64,
            ..PhaseWallNanos::default()
        };
        drop(p1_span);
        #[cfg(feature = "sanitize")]
        trace::emit(EventKind::DetSanDigest {
            phase: Phase::Phase1,
            digest: crate::detsan::digest_values(&p1.values),
        });

        // Special case 2: at least f nodes excluded → everyone left is
        // fault-free; Phase 1 alone is reliable.
        if self.disputes.removed.len() >= self.cfg.f {
            let mut delivered = None;
            if let Some(nx) = &self.net {
                let (net_times, d) = netexec::replay_instance(
                    nx,
                    self.instance as u64,
                    &ReplayInput {
                        gk,
                        g0: plan.graph(),
                        trees,
                        p1_sends: &p1.sends,
                        eq_sends: None,
                        flag_rounds: &[],
                        dispute_rounds: &[],
                    },
                );
                times = net_times;
                delivered = Some(d);
            }
            return Ok(InstanceReport {
                outputs: p1.values,
                times,
                wall,
                gamma_k: gamma,
                rho_k: 0,
                mismatch_detected: false,
                dispute_ran: false,
                new_pairs: Vec::new(),
                newly_removed: Vec::new(),
                defaulted: false,
                delivered,
            });
        }

        // Phase 2: equality check + flag broadcast.
        let eq_span = PhaseSpan::enter(Phase::Equality);
        let t0 = nab_obs::clock::mono_now();
        let rho = if undisputed {
            plan.rho0()
        } else if self.repair {
            let rho0 = plan.rho0();
            let m = self.memo.as_mut().expect("memo set while packing trees"); // nab-lint: allow(NAB003): memo is set before tree packing completes
            match m.rho {
                Some(r) => r,
                None => {
                    let t0 = nab_obs::clock::mono_now();
                    let r = rho_k(gk, self.cfg.f, &self.disputes.pairs)
                        .ok_or(NabError::NoEqualityParameter)?;
                    self.repair_stats.repair_ns += t0.elapsed().as_nanos() as u64;
                    m.rho = Some(r);
                    if m.counted_repair && r != rho0 {
                        // The ρ bound moved after all: this derivation was
                        // a full recompute, not a repair.
                        m.counted_repair = false;
                        self.repair_stats.repairs -= 1;
                        self.repair_stats.full_recomputes += 1;
                    }
                    r
                }
            }
        } else {
            let t0 = nab_obs::clock::mono_now();
            let r =
                rho_k(gk, self.cfg.f, &self.disputes.pairs).ok_or(NabError::NoEqualityParameter)?;
            self.repair_stats.repair_ns += t0.elapsed().as_nanos() as u64;
            r
        };
        let scheme = if undisputed {
            plan.instance_scheme(self.cfg.seed, self.instance as u64)
        } else {
            CodingScheme::random(
                gk,
                rho as usize,
                self.cfg.seed.wrapping_add(self.instance as u64),
            )
        };
        let eq = run_equality_phase(gk, &p1.values, &scheme, faulty, adv);
        times.equality = eq.duration;
        wall.equality = t0.elapsed().as_nanos() as u64;
        drop(eq_span);
        #[cfg(feature = "sanitize")]
        trace::emit(EventKind::DetSanDigest {
            phase: Phase::Equality,
            digest: crate::detsan::digest_flags(&eq.flags),
        });

        Ok(self.finish_instance(
            gk, trees, gamma, rho, &scheme, p1, eq, input, faulty, adv, times, wall,
        ))
    }

    /// The shared tail of an instance — flag broadcast, mismatch
    /// evaluation, dispute control, message-level replay — identical
    /// between the per-instance and batched front halves.
    #[allow(clippy::too_many_arguments)] // internal seam of run_instance
    fn finish_instance(
        &mut self,
        gk: &DiGraph,
        trees: &[Arborescence],
        gamma: u64,
        rho: u64,
        scheme: &CodingScheme,
        p1: crate::phase1::Phase1Output,
        eq: crate::phase2::EqOutcome,
        input: &Value,
        faulty: &BTreeSet<NodeId>,
        adv: &mut dyn NabAdversary,
        mut times: PhaseTimes,
        mut wall: PhaseWallNanos,
    ) -> InstanceReport {
        let plan = Arc::clone(&self.plan);
        let flags_span = PhaseSpan::enter(Phase::Flags);
        let t0 = nab_obs::clock::mono_now();
        let participants: Vec<NodeId> = gk.nodes().collect();
        let f_res = self.residual_f();
        let flags = run_flag_broadcast(
            plan.graph(),
            plan.router(),
            &participants,
            f_res,
            &eq.flags,
            faulty,
            adv,
            self.broadcast,
            self.net.is_some(),
        );
        times.flags = flags.duration;
        wall.flags = t0.elapsed().as_nanos() as u64;
        drop(flags_span);
        #[cfg(feature = "sanitize")]
        trace::emit(EventKind::DetSanDigest {
            phase: Phase::Flags,
            digest: crate::detsan::digest_flags(&flags.announced),
        });

        // All fault-free nodes see the same set of agreed flags; evaluate
        // at an arbitrary fault-free participant.
        let observer = *participants
            .iter()
            .find(|v| !faulty.contains(v))
            .expect("at least one fault-free node"); // nab-lint: allow(NAB003): n >= 3f+1 leaves a fault-free node after f removals
        let mismatch = flags.any_mismatch(observer);

        if !mismatch {
            let mut delivered = None;
            if let Some(nx) = &self.net {
                let (net_times, d) = netexec::replay_instance(
                    nx,
                    self.instance as u64,
                    &ReplayInput {
                        gk,
                        g0: plan.graph(),
                        trees,
                        p1_sends: &p1.sends,
                        eq_sends: Some(&eq.sends),
                        flag_rounds: &flags.rounds,
                        dispute_rounds: &[],
                    },
                );
                times = net_times;
                delivered = Some(d);
            }
            return InstanceReport {
                outputs: p1.values,
                times,
                wall,
                gamma_k: gamma,
                rho_k: rho,
                mismatch_detected: false,
                dispute_ran: false,
                new_pairs: Vec::new(),
                newly_removed: Vec::new(),
                defaulted: false,
                delivered,
            };
        }

        // Phase 3: dispute control.
        let dispute_span = PhaseSpan::enter(Phase::Dispute);
        let t0 = nab_obs::clock::mono_now();
        let truthful = honest_claims(gk, SOURCE, input, trees, scheme, &p1, &eq, &flags.announced);
        // Fault-free claims move into their `Arc` as built; every BB copy
        // of a claim then shares that one allocation.
        let broadcast_claims: BTreeMap<NodeId, Arc<NodeClaims>> = truthful
            .into_iter()
            .map(|(v, honest)| {
                let c = if faulty.contains(&v) {
                    adv.claims(v, &honest)
                } else {
                    honest
                };
                (v, Arc::new(c))
            })
            .collect();

        // Broadcast every node's claims with the classic BB protocol and
        // charge the (large) communication time.
        let mut net = NetSim::new(plan.graph()).recording(self.net.is_some());
        let mut agreed_claims: BTreeMap<NodeId, NodeClaims> = BTreeMap::new();
        for &b in &participants {
            let claims = &broadcast_claims[&b];
            let dec = {
                let mut chan = RoutedChannel {
                    net: &mut net,
                    router: plan.router(),
                    faulty,
                };
                broadcast_value(
                    self.broadcast,
                    &participants,
                    b,
                    f_res,
                    Arc::clone(claims),
                    faulty,
                    &mut chan,
                    claims.bits(),
                )
            };
            // All fault-free nodes agree; record the observer's copy.
            agreed_claims.insert(b, NodeClaims::clone(&dec[&observer]));
        }
        times.dispute = net.clock();
        let dispute_rounds = net.into_rounds();

        // DC2 + DC3 on the agreed claims.
        let new_pairs = dc2_disputes(&agreed_claims);
        let exposed = dc3_exposed(gk, SOURCE, trees, scheme, &agreed_claims);
        let newly_removed = self
            .disputes
            .integrate(plan.graph(), self.cfg.f, &new_pairs, &exposed);

        // Instance output: the source's broadcast input claim (agreement is
        // inherited from the claim broadcast; validity because a fault-free
        // source claims its true input).
        let decided = agreed_claims
            .get(&SOURCE)
            .and_then(|c| c.input.clone())
            .map(Value::from_symbols)
            .unwrap_or_else(|| Value::zeros(self.cfg.symbols));
        let outputs = participants.iter().map(|&v| (v, decided.clone())).collect();
        wall.dispute = t0.elapsed().as_nanos() as u64;
        drop(dispute_span);
        #[cfg(feature = "sanitize")]
        trace::emit(EventKind::DetSanDigest {
            phase: Phase::Dispute,
            digest: crate::detsan::digest_disputes(&self.disputes),
        });

        let mut delivered = None;
        if let Some(nx) = &self.net {
            let (net_times, d) = netexec::replay_instance(
                nx,
                self.instance as u64,
                &ReplayInput {
                    gk,
                    g0: plan.graph(),
                    trees,
                    p1_sends: &p1.sends,
                    eq_sends: Some(&eq.sends),
                    flag_rounds: &flags.rounds,
                    dispute_rounds: &dispute_rounds,
                },
            );
            times = net_times;
            delivered = Some(d);
        }

        InstanceReport {
            outputs,
            times,
            wall,
            gamma_k: gamma,
            rho_k: rho,
            mismatch_detected: true,
            dispute_ran: true,
            new_pairs,
            newly_removed,
            defaulted: false,
            delivered,
        }
    }

    /// Whether no dispute has shrunk `G_k` yet — the precondition for
    /// the plan's precomputed γ/ρ/trees (and for cross-stream batching).
    fn undisputed(&self) -> bool {
        self.disputes.pairs.is_empty() && self.disputes.removed.is_empty()
    }
}

/// Whether `engines` can take the batched equality path this step:
/// every engine must be on the undisputed fast path (so they share
/// `G_k`, trees, ρ, and — because coding matrices depend only on
/// `(seed, instance)` — the *same* [`CodingScheme`]), agree on config
/// and instance counter, borrow the very same plan, and use formula
/// timing (message-level replay retimes streams independently).
fn batch_compatible(engines: &[NabEngine]) -> bool {
    let Some(first) = engines.first() else {
        return false;
    };
    // f = 0 instances stop after Phase 1 (special case 2 holds
    // vacuously) — there is no equality phase to batch.
    first.cfg.f > 0
        && engines.iter().all(|e| {
            e.undisputed()
                && e.net.is_none()
                && e.cfg == first.cfg
                && e.instance == first.instance
                && e.broadcast == first.broadcast
                && Arc::ptr_eq(&e.plan, &first.plan)
        })
}

/// Runs one instance on every engine (one per stream), packing all
/// streams' equality-check columns into a single slab multiply per edge
/// when the streams are batch-compatible; otherwise falls back to
/// per-stream [`NabEngine::run_instance`] calls. Results are
/// bit-identical either way — batching only regroups XOR-exact GF
/// arithmetic and never changes protocol messages or RNG draw order.
///
/// `inputs` and `advs` are indexed by stream, matching `engines`.
///
/// # Errors
///
/// Returns the first stream's error ([`NabError::WrongInputSize`] etc.),
/// exactly as the per-stream loop would.
///
/// # Panics
///
/// Panics if `engines`, `inputs`, and `advs` have mismatched lengths or
/// a `faulty` set exceeds the configured `f`.
pub fn run_instances_batched(
    engines: &mut [NabEngine],
    inputs: &[Value],
    faulty: &BTreeSet<NodeId>,
    advs: &mut [&mut dyn NabAdversary],
) -> Result<Vec<InstanceReport>, NabError> {
    assert_eq!(engines.len(), inputs.len(), "one input per stream");
    assert_eq!(engines.len(), advs.len(), "one adversary per stream");

    if !batch_compatible(engines) {
        // Per-stream fallback: bit-identical to the caller looping
        // itself (stream tags keep traces attributable).
        let mut reports = Vec::with_capacity(engines.len());
        for (s, ((engine, input), adv)) in engines
            .iter_mut()
            .zip(inputs)
            .zip(advs.iter_mut())
            .enumerate()
        {
            trace::set_stream(s as u32);
            reports.push(engine.run_instance(input, faulty, &mut **adv)?);
        }
        return Ok(reports);
    }

    let streams = engines.len();
    let plan = Arc::clone(&engines[0].plan);
    let cfg = engines[0].cfg;
    for (engine, input) in engines.iter().zip(inputs) {
        assert!(
            faulty.len() <= engine.cfg.f,
            "faulty set exceeds configured f"
        );
        if input.len() != engine.cfg.symbols {
            return Err(NabError::WrongInputSize {
                expect: engine.cfg.symbols,
                got: input.len(),
            });
        }
    }

    let gk = plan.graph();
    let trees = plan.trees0();
    let gamma = plan.gamma0();
    let rho = plan.rho0();

    // Phase 1 per stream (protocol messages are per-stream regardless).
    let mut spans = Vec::with_capacity(streams);
    let mut p1s = Vec::with_capacity(streams);
    let mut times = Vec::with_capacity(streams);
    let mut walls = Vec::with_capacity(streams);
    for (s, (engine, input)) in engines.iter_mut().zip(inputs).enumerate() {
        trace::set_stream(s as u32);
        engine.instance += 1;
        spans.push(InstanceSpan::enter((engine.instance - 1) as u64));
        let p1_span = PhaseSpan::enter(Phase::Phase1);
        let t0 = nab_obs::clock::mono_now();
        let p1 = run_phase1(gk, SOURCE, input, trees, faulty, &mut *advs[s]);
        times.push(PhaseTimes {
            phase1: p1.duration,
            ..PhaseTimes::default()
        });
        walls.push(PhaseWallNanos {
            phase1: t0.elapsed().as_nanos() as u64,
            ..PhaseWallNanos::default()
        });
        drop(p1_span);
        p1s.push(p1);
    }

    // Equality check: one coding scheme (identical across streams by
    // construction), all streams' columns in one slab per edge.
    let t0 = nab_obs::clock::mono_now();
    let scheme = plan.instance_scheme(cfg.seed, engines[0].instance as u64);
    let values: Vec<&BTreeMap<NodeId, Value>> = p1s.iter().map(|p| &p.values).collect();
    let eqs = crate::phase2::run_equality_phase_batched(gk, &values, &scheme, faulty, advs);
    let eq_wall = t0.elapsed().as_nanos() as u64 / streams as u64;

    // Per-stream tail: flag broadcast, disputes, report.
    let mut reports = Vec::with_capacity(streams);
    for (s, (((engine, input), p1), eq)) in
        engines.iter_mut().zip(inputs).zip(p1s).zip(eqs).enumerate()
    {
        trace::set_stream(s as u32);
        let eq_span = PhaseSpan::enter(Phase::Equality);
        times[s].equality = eq.duration;
        walls[s].equality = eq_wall;
        drop(eq_span);
        let report = engine.finish_instance(
            gk,
            trees,
            gamma,
            rho,
            &scheme,
            p1,
            eq,
            input,
            faulty,
            &mut *advs[s],
            times[s],
            walls[s],
        );
        reports.push(report);
        drop(spans.pop());
    }
    Ok(reports)
}

/// Summary of a multi-instance run (the throughput experiment quantum).
#[derive(Debug, Clone)]
pub struct RunSummary {
    /// Instances executed.
    pub instances: usize,
    /// Total simulated time.
    pub total_time: f64,
    /// Total payload bits broadcast (`L · Q`).
    pub total_bits: u64,
    /// Dispute-control executions observed.
    pub dispute_rounds: usize,
    /// `total_bits / total_time`.
    pub throughput: f64,
    /// Every fault-free node agreed with the source's input in every
    /// instance (validity + agreement).
    pub all_correct: bool,
}

/// The paper's per-instance correctness conditions: *agreement* among
/// fault-free nodes always, and *validity* (every fault-free output equals
/// the input) when the source is fault-free and the known-faulty-source
/// fast path did not default the instance.
pub fn instance_correct(rep: &InstanceReport, faulty: &BTreeSet<NodeId>, input: &Value) -> bool {
    let honest: Vec<&Value> = rep
        .outputs
        .iter()
        .filter(|(v, _)| !faulty.contains(v))
        .map(|(_, o)| o)
        .collect();
    if honest.windows(2).any(|w| w[0] != w[1]) {
        return false;
    }
    if !faulty.contains(&SOURCE) && !rep.defaulted {
        return honest.first().is_some_and(|v| **v == *input);
    }
    true
}

/// Runs `q` instances with fresh random inputs and returns the aggregate
/// throughput report. Inputs are generated from `seed`.
pub fn run_many(
    engine: &mut NabEngine,
    q: usize,
    faulty: &BTreeSet<NodeId>,
    adv: &mut dyn NabAdversary,
    seed: u64,
) -> Result<RunSummary, NabError> {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(seed);
    let symbols = engine.config().symbols;
    let mut total_time = 0.0;
    let mut dispute_rounds = 0;
    let mut all_correct = true;

    for _ in 0..q {
        let input = Value::random(symbols, &mut rng);
        let rep = engine.run_instance(&input, faulty, adv)?;
        total_time += rep.times.total();
        dispute_rounds += usize::from(rep.dispute_ran);
        if !instance_correct(&rep, faulty, &input) {
            all_correct = false;
        }
    }

    let total_bits = (q * symbols) as u64 * crate::value::SYMBOL_BITS;
    Ok(RunSummary {
        instances: q,
        total_time,
        total_bits,
        dispute_rounds,
        throughput: if total_time > 0.0 {
            total_bits as f64 / total_time
        } else {
            0.0
        },
        all_correct,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{
        EquivocatingSource, FalseAlarm, HonestStrategy, LyingCorruptor, TruthfulCorruptor,
    };
    use nab_netgraph::gen;

    fn engine(symbols: usize) -> NabEngine {
        NabEngine::new(
            gen::complete(4, 2),
            NabConfig {
                f: 1,
                symbols,
                seed: 42,
            },
        )
        .unwrap()
    }

    fn input(symbols: usize) -> Value {
        Value::from_u64s(&(0..symbols as u64).map(|i| i * 7 + 1).collect::<Vec<_>>())
    }

    #[test]
    fn fault_free_instance_is_fast_path() {
        let mut e = engine(12);
        let x = input(12);
        let rep = e
            .run_instance(&x, &BTreeSet::new(), &mut HonestStrategy)
            .unwrap();
        assert!(!rep.mismatch_detected);
        assert!(!rep.dispute_ran);
        for v in rep.outputs.values() {
            assert_eq!(*v, x);
        }
        assert!(rep.times.phase1 > 0.0);
        assert!(rep.times.equality > 0.0);
        assert!(rep.times.flags > 0.0);
        assert_eq!(rep.times.dispute, 0.0);
    }

    #[test]
    fn setup_rejects_bad_networks() {
        let cfg = NabConfig {
            f: 1,
            symbols: 4,
            seed: 0,
        };
        // Too few nodes for f=1.
        assert!(matches!(
            NabEngine::new(gen::complete(3, 1), cfg),
            Err(NabError::TooManyFaults { .. })
        ));
        // A ring is 2-connected at best — not enough for 2f+1=3.
        assert!(matches!(
            NabEngine::new(gen::ring(5, 1), cfg),
            Err(NabError::InsufficientConnectivity)
        ));
    }

    #[test]
    fn engines_sharing_a_plan_match_private_plan_engines() {
        // The plan/execute split must be invisible to results: an engine
        // borrowing a shared plan behaves bit-identically to one that
        // built its own.
        let g = gen::complete(4, 2);
        let cfg = NabConfig {
            f: 1,
            symbols: 12,
            seed: 42,
        };
        let plan = Arc::new(ExecutionPlan::build(g.clone(), 1).unwrap());
        let mut shared1 = NabEngine::from_plan(Arc::clone(&plan), cfg).unwrap();
        let mut shared2 = NabEngine::from_plan(Arc::clone(&plan), cfg).unwrap();
        let mut private = NabEngine::new(g, cfg).unwrap();
        let x = input(12);
        let faulty = BTreeSet::from([2]);
        for _ in 0..3 {
            let a = shared1
                .run_instance(&x, &faulty, &mut TruthfulCorruptor)
                .unwrap();
            let b = shared2
                .run_instance(&x, &faulty, &mut TruthfulCorruptor)
                .unwrap();
            let c = private
                .run_instance(&x, &faulty, &mut TruthfulCorruptor)
                .unwrap();
            assert_eq!(a.outputs, b.outputs);
            assert_eq!(a.outputs, c.outputs);
            assert_eq!((a.gamma_k, a.rho_k), (c.gamma_k, c.rho_k));
            assert_eq!(a.times, c.times);
            assert_eq!(a.new_pairs, c.new_pairs);
            assert_eq!(a.newly_removed, c.newly_removed);
        }
        assert_eq!(shared1.disputes().pairs, private.disputes().pairs);
        assert_eq!(shared1.disputes().removed, private.disputes().removed);
    }

    #[test]
    fn from_plan_rejects_fault_bound_mismatch() {
        let plan = Arc::new(ExecutionPlan::build(gen::complete(7, 2), 2).unwrap());
        let cfg = NabConfig {
            f: 1,
            symbols: 4,
            seed: 0,
        };
        assert!(matches!(
            NabEngine::from_plan(plan, cfg),
            Err(NabError::PlanMismatch {
                plan_f: 2,
                cfg_f: 1
            })
        ));
    }

    #[test]
    fn packing_error_carries_topology_context() {
        let e = NabError::ArborescencePacking {
            n: 5,
            edges: 9,
            gamma: 3,
        };
        let msg = e.to_string();
        assert!(msg.contains("γ=3"), "{msg}");
        assert!(msg.contains("5-node"), "{msg}");
        assert!(msg.contains("9-edge"), "{msg}");
    }

    #[test]
    fn wrong_input_size_rejected() {
        let mut e = engine(12);
        let bad = input(5);
        assert!(matches!(
            e.run_instance(&bad, &BTreeSet::new(), &mut HonestStrategy),
            Err(NabError::WrongInputSize { expect: 12, got: 5 })
        ));
    }

    #[test]
    fn corrupting_relay_triggers_dispute_and_correct_output() {
        let mut e = engine(12);
        let x = input(12);
        let faulty = BTreeSet::from([2]);
        let rep = e.run_instance(&x, &faulty, &mut TruthfulCorruptor).unwrap();
        assert!(rep.mismatch_detected);
        assert!(rep.dispute_ran);
        // Validity: fault-free nodes still output the source's input.
        for (&v, out) in &rep.outputs {
            if !faulty.contains(&v) {
                assert_eq!(*out, x, "node {v}");
            }
        }
        // The truthful corruptor exposes itself via DC3.
        assert_eq!(rep.newly_removed, vec![2]);
    }

    #[test]
    fn lying_relay_lands_in_dispute_pair() {
        let mut e = engine(12);
        let x = input(12);
        let faulty = BTreeSet::from([2]);
        let rep = e.run_instance(&x, &faulty, &mut LyingCorruptor).unwrap();
        assert!(rep.dispute_ran);
        assert!(
            rep.new_pairs.iter().any(|&(a, b)| a == 2 || b == 2),
            "the liar must appear in a dispute pair: {:?}",
            rep.new_pairs
        );
        for (&v, out) in &rep.outputs {
            if !faulty.contains(&v) {
                assert_eq!(*out, x);
            }
        }
    }

    #[test]
    fn equivocating_source_still_reaches_agreement() {
        let mut e = engine(12);
        let x = input(12);
        let faulty = BTreeSet::from([0]);
        let rep = e
            .run_instance(&x, &faulty, &mut EquivocatingSource)
            .unwrap();
        assert!(rep.mismatch_detected, "equality check must catch the split");
        // Agreement among fault-free nodes (validity not required: source
        // is faulty).
        let honest: Vec<&Value> = rep
            .outputs
            .iter()
            .filter(|(v, _)| !faulty.contains(v))
            .map(|(_, o)| o)
            .collect();
        assert!(honest.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn false_alarm_wastes_a_dispute_round_then_stops() {
        let mut e = engine(12);
        let x = input(12);
        let faulty = BTreeSet::from([3]);
        let mut adv = FalseAlarm;
        let rep1 = e.run_instance(&x, &faulty, &mut adv).unwrap();
        assert!(rep1.dispute_ran);
        // DC3 exposes the false-alarmist (its claims show clean receives
        // yet it announced MISMATCH).
        assert_eq!(rep1.newly_removed, vec![3]);
        // Next instance: f nodes removed → fast path, no equality check.
        let rep2 = e.run_instance(&x, &faulty, &mut adv).unwrap();
        assert!(!rep2.dispute_ran);
        for (&v, out) in &rep2.outputs {
            if !faulty.contains(&v) {
                assert_eq!(*out, x);
            }
        }
    }

    #[test]
    fn plan_repair_is_bit_identical_to_full_recompute() {
        let x = input(12);
        let faulty = BTreeSet::from([2]);
        let mut fast = engine(12);
        let mut slow = engine(12);
        slow.set_plan_repair(false);
        assert!(fast.plan_repair());
        assert!(!slow.plan_repair());
        // Raise a dispute, then keep running so later instances replan on
        // the shrunken G_k.
        for i in 0..2 {
            let a = fast.run_instance(&x, &faulty, &mut LyingCorruptor).unwrap();
            let b = slow.run_instance(&x, &faulty, &mut LyingCorruptor).unwrap();
            assert_reports_match(&a, &b, &format!("lying instance {i}"));
        }
        for i in 0..3 {
            let a = fast.run_instance(&x, &faulty, &mut HonestStrategy).unwrap();
            let b = slow.run_instance(&x, &faulty, &mut HonestStrategy).unwrap();
            assert_reports_match(&a, &b, &format!("quiet instance {i}"));
        }
        assert_eq!(fast.disputes().pairs, slow.disputes().pairs);
        let fs = *fast.repair_stats();
        let ss = *slow.repair_stats();
        assert_eq!(ss.repairs, 0, "repair-off never counts repairs");
        assert!(
            ss.full_recomputes >= 4,
            "repair-off replans every disputed instance: {ss:?}"
        );
        let fast_derivations = fs.repairs + fs.full_recomputes;
        assert!(
            (1..ss.full_recomputes).contains(&fast_derivations),
            "memo must collapse stable dispute states: fast {fs:?} vs slow {ss:?}"
        );
    }

    #[test]
    fn phase_king_broadcast_kind_end_to_end() {
        // K5 has n = 5 > 4f = 4, so Phase-King is usable as
        // Broadcast_Default; the full adversarial round-trip must behave
        // identically to EIG.
        let mut e = NabEngine::new(
            gen::complete(5, 2),
            NabConfig {
                f: 1,
                symbols: 12,
                seed: 21,
            },
        )
        .unwrap();
        e.set_broadcast_kind(crate::phase2::BroadcastKind::PhaseKing);
        assert_eq!(e.broadcast_kind(), crate::phase2::BroadcastKind::PhaseKing);
        let x = input(12);
        let faulty = BTreeSet::from([2]);
        let rep = e.run_instance(&x, &faulty, &mut TruthfulCorruptor).unwrap();
        assert!(rep.mismatch_detected);
        assert!(rep.dispute_ran);
        for (&v, out) in &rep.outputs {
            if !faulty.contains(&v) {
                assert_eq!(*out, x, "node {v}");
            }
        }
        assert_eq!(rep.newly_removed, vec![2]);
    }

    #[test]
    fn run_many_fault_free_has_full_validity() {
        let mut e = engine(8);
        let sum = run_many(&mut e, 5, &BTreeSet::new(), &mut HonestStrategy, 9).unwrap();
        assert_eq!(sum.instances, 5);
        assert!(sum.all_correct);
        assert_eq!(sum.dispute_rounds, 0);
        assert!(sum.throughput > 0.0);
    }

    #[test]
    fn run_many_with_adversary_amortizes() {
        let mut e = engine(8);
        let faulty = BTreeSet::from([1]);
        let sum = run_many(&mut e, 6, &faulty, &mut TruthfulCorruptor, 9).unwrap();
        assert!(sum.all_correct);
        // The corruptor is exposed in the first dispute round; afterwards
        // the fast path runs (f=1 node removed → residual faults 0).
        assert_eq!(sum.dispute_rounds, 1);
        assert!(sum.dispute_rounds <= DisputeState::max_executions(1));
    }

    #[test]
    fn source_removal_defaults_all_outputs() {
        let mut e = engine(8);
        let x = input(8);
        let faulty = BTreeSet::from([0]);
        // An equivocating source that also lies in claims ends up removed…
        // simplest: force removal via dispute state by running with a
        // source that corrupts both trees and lies.
        let rep = e
            .run_instance(&x, &faulty, &mut EquivocatingSource)
            .unwrap();
        assert!(rep.dispute_ran);
        if e.disputes().removed.contains(&0) {
            let rep2 = e
                .run_instance(&x, &faulty, &mut EquivocatingSource)
                .unwrap();
            assert!(rep2.defaulted);
            for out in rep2.outputs.values() {
                assert_eq!(*out, Value::zeros(8));
            }
        }
    }

    /// Everything deterministic in a report (wall-clock excluded).
    fn assert_reports_match(a: &InstanceReport, b: &InstanceReport, ctx: &str) {
        assert_eq!(a.outputs, b.outputs, "{ctx}: outputs");
        assert_eq!(a.times, b.times, "{ctx}: times");
        assert_eq!((a.gamma_k, a.rho_k), (b.gamma_k, b.rho_k), "{ctx}: rates");
        assert_eq!(a.mismatch_detected, b.mismatch_detected, "{ctx}: mismatch");
        assert_eq!(a.dispute_ran, b.dispute_ran, "{ctx}: dispute_ran");
        assert_eq!(a.new_pairs, b.new_pairs, "{ctx}: new_pairs");
        assert_eq!(a.newly_removed, b.newly_removed, "{ctx}: removed");
        assert_eq!(a.defaulted, b.defaulted, "{ctx}: defaulted");
    }

    /// Drives `run_instances_batched` for several instances and mirrors
    /// every stream with an independent per-instance engine, asserting
    /// bit-identical reports and dispute evolution throughout.
    fn assert_batched_equivalence<A: NabAdversary + Default>(
        faulty: &BTreeSet<NodeId>,
        instances: usize,
    ) {
        let g = gen::complete(4, 2);
        let cfg = NabConfig {
            f: 1,
            symbols: 12,
            seed: 42,
        };
        let plan = Arc::new(ExecutionPlan::build(g, 1).unwrap());
        let mk = |n: usize| -> Vec<NabEngine> {
            (0..n)
                .map(|_| NabEngine::from_plan(Arc::clone(&plan), cfg).unwrap())
                .collect()
        };
        let mut batched = mk(3);
        let mut solo = mk(3);
        let inputs: Vec<Value> = (0..3u64)
            .map(|s| Value::from_u64s(&(0..12u64).map(|i| i * 7 + s + 1).collect::<Vec<_>>()))
            .collect();
        for k in 0..instances {
            let mut a0 = A::default();
            let mut a1 = A::default();
            let mut a2 = A::default();
            let mut advs: Vec<&mut dyn NabAdversary> = vec![&mut a0, &mut a1, &mut a2];
            let reps = run_instances_batched(&mut batched, &inputs, faulty, &mut advs).unwrap();
            assert_eq!(reps.len(), 3);
            for (s, rep) in reps.iter().enumerate() {
                let mut adv = A::default();
                let want = solo[s].run_instance(&inputs[s], faulty, &mut adv).unwrap();
                assert_reports_match(rep, &want, &format!("instance {k} stream {s}"));
            }
        }
        for (b, s) in batched.iter().zip(&solo) {
            assert_eq!(b.disputes().pairs, s.disputes().pairs);
            assert_eq!(b.disputes().removed, s.disputes().removed);
            assert_eq!(b.instances_run(), s.instances_run());
        }
    }

    #[test]
    fn batched_streams_match_per_instance_fault_free() {
        assert_batched_equivalence::<HonestStrategy>(&BTreeSet::new(), 3);
    }

    #[test]
    fn batched_streams_match_per_instance_through_dispute_fallback() {
        // Instance 0 takes the packed-slab path and exposes node 2 via
        // DC3; from instance 1 on the engines are disputed, so the entry
        // point must take its internal per-stream fallback — reports and
        // dispute state stay bit-identical to solo engines either way.
        assert_batched_equivalence::<TruthfulCorruptor>(&BTreeSet::from([2]), 4);
    }

    /// Grows every forwarded Phase-1 block by one symbol, so downstream
    /// nodes assemble values *longer* than the source's input and
    /// per-node (and per-stream) column counts diverge — the
    /// heterogeneous-width case of the packed-slab equality check.
    #[derive(Default)]
    struct BlockStretcher;
    impl NabAdversary for BlockStretcher {
        fn phase1_forward(
            &mut self,
            _: NodeId,
            _: usize,
            _: NodeId,
            honest: &[nab_gf::Gf2_16],
        ) -> Vec<nab_gf::Gf2_16> {
            let mut out = honest.to_vec();
            out.push(nab_gf::Gf2_16(0x5A));
            out
        }
    }

    #[test]
    fn batched_streams_match_per_instance_under_length_tampering() {
        // A length-tampering relay makes node values (hence reshaped
        // column counts) unequal across nodes; the batched pack must
        // reproduce the per-instance flags and sends exactly.
        assert_batched_equivalence::<BlockStretcher>(&BTreeSet::from([2]), 3);
    }

    #[test]
    fn batched_streams_match_per_instance_under_equality_tampering() {
        // The garbler corrupts coded symbols *inside* the equality phase,
        // exercising the batched path's per-stream adversary calls (and
        // their RNG-free determinism) rather than Phase-1 corruption.
        assert_batched_equivalence::<crate::adversary::EqualityGarbler>(&BTreeSet::from([1]), 3);
    }

    #[test]
    fn batched_entry_point_handles_heterogeneous_engines() {
        // Engines with private (non-shared) plans are batch-incompatible;
        // the entry point must silently fall back and still match.
        let g = gen::complete(4, 2);
        let cfg = NabConfig {
            f: 1,
            symbols: 12,
            seed: 42,
        };
        let mut batched: Vec<NabEngine> = (0..2)
            .map(|_| NabEngine::new(g.clone(), cfg).unwrap())
            .collect();
        let mut solo: Vec<NabEngine> = (0..2)
            .map(|_| NabEngine::new(g.clone(), cfg).unwrap())
            .collect();
        let x = input(12);
        let inputs = vec![x.clone(), x.clone()];
        let mut a0 = HonestStrategy;
        let mut a1 = HonestStrategy;
        let mut advs: Vec<&mut dyn NabAdversary> = vec![&mut a0, &mut a1];
        let reps =
            run_instances_batched(&mut batched, &inputs, &BTreeSet::new(), &mut advs).unwrap();
        for (s, rep) in reps.iter().enumerate() {
            let want = solo[s]
                .run_instance(&x, &BTreeSet::new(), &mut HonestStrategy)
                .unwrap();
            assert_reports_match(rep, &want, &format!("stream {s}"));
        }
    }

    #[test]
    fn message_level_zero_model_matches_formula() {
        // The pinned cross-check: with zero-latency lossless links the
        // event-driven path must reproduce the synchronous formula
        // charges to within integer-nanosecond rounding (UNIT_NS ns per
        // time unit → sub-microsecond absolute error), on the clean
        // fast path and through a full dispute round alike.
        let x = input(12);
        type MkAdv = fn() -> Box<dyn NabAdversary>;
        let cases: [(BTreeSet<NodeId>, MkAdv); 2] = [
            (BTreeSet::new(), || Box::new(HonestStrategy)),
            (BTreeSet::from([2]), || Box::new(TruthfulCorruptor)),
        ];
        for (faulty, mk_adv) in cases {
            let mut formula = engine(12);
            let mut event = engine(12);
            event.set_net(Some(crate::netexec::NetExec {
                model: nab_net::NetModel::default(),
                seed: 99,
            }));
            for _ in 0..3 {
                let a = formula
                    .run_instance(&x, &faulty, mk_adv().as_mut())
                    .unwrap();
                let b = event.run_instance(&x, &faulty, mk_adv().as_mut()).unwrap();
                assert_eq!(a.outputs, b.outputs, "net mode must not change outputs");
                assert_eq!(a.dispute_ran, b.dispute_ran);
                assert!(a.delivered.is_none());
                for (fa, fb, phase) in [
                    (a.times.phase1, b.times.phase1, "phase1"),
                    (a.times.equality, b.times.equality, "equality"),
                    (a.times.flags, b.times.flags, "flags"),
                    (a.times.dispute, b.times.dispute, "dispute"),
                ] {
                    assert!(
                        (fa - fb).abs() < 5e-3,
                        "{phase}: formula {fa} vs message-level {fb}"
                    );
                }
                assert!((a.times.total() - b.times.total()).abs() < 5e-3);
                if !b.defaulted {
                    let d = b.delivered.as_ref().expect("net mode records deliveries");
                    assert!(d.phase1.count() > 0);
                    assert_eq!(d.instance.count(), 1);
                }
            }
        }
    }

    #[test]
    fn message_level_latency_slows_instances_deterministically() {
        let x = input(12);
        let model = nab_net::NetSpec::parse("uniform:1000000:500000+loss:0.2:2:2000000")
            .unwrap()
            .build();
        let run = |seed: u64| {
            let mut e = engine(12);
            e.set_net(Some(crate::netexec::NetExec {
                model: model.clone(),
                seed,
            }));
            e.run_instance(&x, &BTreeSet::new(), &mut HonestStrategy)
                .unwrap()
        };
        let base = {
            let mut e = engine(12);
            e.run_instance(&x, &BTreeSet::new(), &mut HonestStrategy)
                .unwrap()
        };
        let a = run(5);
        // Latency and loss can only push completion later.
        assert!(a.times.total() > base.times.total());
        for v in a.outputs.values() {
            assert_eq!(*v, x, "timing must not affect outputs");
        }
        // Same seed → identical timings; different seed → different jitter.
        let b = run(5);
        assert_eq!(a.times, b.times);
        assert_eq!(a.delivered, b.delivered);
        let c = run(6);
        assert_ne!(a.delivered, c.delivered);
    }

    #[test]
    fn phase_times_reproduce_paper_costs() {
        // K4 cap 2: γ=6, U=12 → ρ=6… check L/γ and L/ρ shape.
        let mut e = engine(12);
        let x = input(12);
        let rep = e
            .run_instance(&x, &BTreeSet::new(), &mut HonestStrategy)
            .unwrap();
        let l = x.bits() as f64;
        assert!((rep.times.phase1 - l / rep.gamma_k as f64).abs() < 1e-6);
        // Equality time is L/ρ rounded up to whole 16-bit columns.
        let cols = (12usize).div_ceil(rep.rho_k as usize) as f64;
        assert!((rep.times.equality - cols * 16.0).abs() < 1e-6);
    }
}
