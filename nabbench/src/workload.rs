//! The three benchmark workloads and their shape guards.
//!
//! Each workload is a `.scenario` text whose `seed0` line is derived from
//! the benchmark's `--seed`; the program under test sees only the
//! generated spec. Each one loads one layer of NAB and leaves the others
//! idle, and its guard fails the run if a change makes it stop doing so.

use nab_scenario::{parse_str, MutationSchedule, ScenarioSpec, SweepReport};

/// Which layer a workload loads; selects its shape guard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Shape {
    SteadyHonest,
    DisputeChurn,
    WanReplay,
}

/// A named workload: scenario text without its `seed0` line.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    shape: Shape,
    salt: u64,
    text: &'static str,
}

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "steady-honest",
        shape: Shape::SteadyHonest,
        salt: 1,
        text: "topology = hetero:$n:1:4\n\
               adversary = honest\n\
               faults = none\n\
               f = 1\n\
               n = 4,7,10\n\
               symbols = 64,1024\n\
               streams = 4\n\
               q = 6\n\
               seeds = 4\n",
    },
    Workload {
        name: "dispute-churn",
        shape: Shape::DisputeChurn,
        salt: 2,
        text: "topology = kconnected:$n:3:2:25\n\
               broadcast = eig\n\
               adversary = corruptor\n\
               faults = fixed:2\n\
               mutations = degrade:8:6:25\n\
               f = 1\n\
               n = 8,10,12\n\
               symbols = 8\n\
               q = 24\n\
               seeds = 6\n",
    },
    Workload {
        name: "wan-replay",
        shape: Shape::WanReplay,
        salt: 3,
        text: "topology = complete:$n:2\n\
               broadcast = eig\n\
               adversary = corruptor\n\
               faults = rotating:1\n\
               f = 1\n\
               n = 4,5,7\n\
               symbols = 16,256\n\
               q = 12\n\
               seeds = 8\n\
               net = on\n\
               link_model = uniform:20000000:5000000+loss:0.02:3:60000000\n",
    },
];

/// SplitMix64 finalizer: spreads the benchmark seed into a `seed0`.
fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Workload {
    /// Looks a workload up by name.
    pub fn named(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// The scenario this workload runs for `seed`.
    pub fn spec(&self, seed: u64) -> Result<ScenarioSpec, String> {
        let text = format!(
            "name = {}\n{}seed0 = {}\n",
            self.name,
            self.text,
            mix(seed, self.salt)
        );
        parse_str(&text).map_err(|e| format!("workload {}: {e}", self.name))
    }

    /// Checks that the run still loads this workload's layer. Returns one
    /// message per violated expectation.
    pub fn shape_problems(&self, spec: &ScenarioSpec, report: &SweepReport) -> Vec<String> {
        let a = &report.aggregate;
        let mut problems = Vec::new();
        let mut expect = |ok: bool, what: &str| {
            if !ok {
                problems.push(format!("{}: {what}", self.name));
            }
        };
        expect(
            a.plan_misses == 0 && a.plan_hits > 0,
            "the sweep pass must be served from the warm plan cache (0 misses)",
        );
        let ok_jobs = || report.jobs.iter().filter_map(|j| j.result.as_ref().ok());
        match self.shape {
            Shape::SteadyHonest => {
                expect(a.total_dispute_rounds == 0, "must raise no disputes");
                expect(
                    spec.batch && !spec.net && spec.mutations == MutationSchedule::None,
                    "every step must be batch-compatible",
                );
            }
            Shape::DisputeChurn => {
                expect(
                    ok_jobs().all(|m| m.dispute_rounds >= 1),
                    "every job must run at least one dispute round",
                );
                expect(
                    a.plan_repairs > 0 && a.plan_full_recomputes > 0,
                    "G_k replanning must both repair and recompute",
                );
            }
            Shape::WanReplay => {
                expect(spec.net, "must replay over nab-net");
                expect(
                    a.delivered.as_ref().is_some_and(|d| {
                        [&d.phase1, &d.equality, &d.flags, &d.dispute, &d.instance]
                            .iter()
                            .all(|h| !h.is_empty())
                    }),
                    "every delivered-time histogram must be non-empty",
                );
                expect(a.total_dispute_rounds > 0, "must raise disputes");
            }
        }
        problems
    }

    /// Whether every step must run on the batched path (checked against
    /// the trace on traced passes).
    pub fn expects_batched_steps(&self) -> bool {
        self.shape == Shape::SteadyHonest
    }
}
