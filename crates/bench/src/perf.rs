//! The perf-report subsystem: wall-clock benchmarks of the GF kernel
//! tiers and a bundled scenario sweep, emitting deterministic-schema JSON
//! (`BENCH_gf.json`, `BENCH_sweep.json`).
//!
//! "Deterministic schema" means the key set and key order of the emitted
//! documents never change between runs — only the measured nanosecond
//! values do — so perf reports diff cleanly across commits and the CI
//! smoke job can validate them structurally. The JSON is rendered with
//! the same hand-rolled writer the sweep reports use
//! ([`nab_scenario::json::Json`]); regeneration instructions live in
//! `docs/perf.md`.

use nab_obs::clock;
use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;

use nab::adversary::HonestStrategy;
use nab::equality::CodingScheme;
use nab::phase2::run_flag_broadcast;
use nab::value::Value;
use nab::BroadcastKind;
use nab_bb::eig::{run_eig, EigChannel, HonestAdversary, IdealChannel};
use nab_bb::router::PathRouter;
use nab_gf::kernel::{self, scalar_mul_row_add, FastOps};
use nab_gf::linalg;
use nab_gf::matrix::Matrix;
use nab_gf::{simd, Field, Gf2_16};
use nab_netgraph::{gen, NodeId};
use nab_scenario::json::Json;
use nab_scenario::{parse_str, PhaseLatency, SweepReport};
use nab_sim::NetSim;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Bumped whenever a key is added to / removed from the emitted JSON.
/// v2: plan-cache stats in timed sweep metrics/aggregate plus the
/// `plan_cache` cold-vs-cached comparison section.
/// v3: per-phase latency-distribution `percentiles` section, plus the
/// `latency` histograms and `metrics` registry inside the embedded timed
/// sweep report (see `docs/observability.md`).
/// v4: top-level `tier`/`cpu` kernel metadata (the detected arch-SIMD
/// tier and CPU features), SIMD tier names in the case labels, and
/// min-of-[`MIN_REPS`] timing per case. Which ops and tiers appear is
/// data, not schema, so changing the case set does not bump the version.
/// v5: the `plan_repair` A/B section (dispute-heavy replanning with
/// incremental repair on vs. off), disk-tier fields in the `plan_cache`
/// section (`disk_scenario`, `disk_grid_points`, `disk_cold_wall_ns`,
/// `disk_warm_wall_ns`, `disk_hits`, `disk_stores` — the `dc-grid`
/// planning pass, built+persisted vs. loaded), and per-job/aggregate
/// `plan_repairs` / `plan_full_recomputes` / `plan_repair_ns` counters
/// inside the embedded timed sweep.
/// v6: the `flag_bb` section in `BENCH_sweep.json` — the step-2.2 flag
/// broadcast split into EIG tree work, routed unicasts, and the whole
/// call, as min and median over [`FLAG_BB_REPS`] repetitions.
pub const SCHEMA_VERSION: u64 = 6;

/// Repetitions of every timed loop; the reported `total_ns` is the
/// **minimum** over these (min-of-N filters scheduler and frequency
/// noise, so committed baselines diff stably across regenerations).
pub const MIN_REPS: u32 = 5;

/// The bundled scenario the sweep benchmark runs (the E3 complete-graph
/// grid), embedded so the `perf` binary works from any directory.
pub const SWEEP_SCENARIO: &str = include_str!("../../../scenarios/complete-sweep.scenario");

/// The scenario the plan-cache benchmark runs: the 120-job `scale-grid`,
/// whose 12 distinct networks make plan sharing measurable.
pub const PLAN_CACHE_SCENARIO: &str = include_str!("../../../scenarios/scale-grid.scenario");

/// The scenario the plan-repair benchmark runs: `dispute-storm`, where a
/// fixed corruptor raises disputes in the first instances and every later
/// instance replans on the shrunken `G_k` (plus a degrade schedule that
/// migrates plans mid-job).
pub const PLAN_REPAIR_SCENARIO: &str = include_str!("../../../scenarios/dispute-storm.scenario");

/// The scenario whose planning pass the disk-tier benchmark times: the
/// 1024-node `dc-grid` torus, where plan construction — not execution —
/// is the cold-start cost the persistent cache exists to amortize.
pub const PLAN_DISK_SCENARIO: &str = include_str!("../../../scenarios/dc-grid.scenario");

/// One timed GF micro-benchmark case.
#[derive(Debug, Clone)]
pub struct GfCase {
    /// Operation: `mul_row_add`, `mat_mul`, `invert`, `solve`, `encode`,
    /// `encode_slab`.
    pub op: &'static str,
    /// Implementation tier, `<field>/<kernel>` (e.g. `gf2_16/simd-avx2`,
    /// `gf2_16/split-table16`, `gf2_16/scalar`).
    pub tier: &'static str,
    /// Problem size: row length for row kernels, matrix dimension for
    /// `mat_mul`/`invert`/`solve`, symbol count for `encode`.
    pub n: u64,
    /// Timed iterations per repetition (after one warmup iteration).
    pub iters: u64,
    /// Minimum total nanoseconds over [`MIN_REPS`] repetitions of the
    /// `iters`-iteration loop.
    pub total_ns: u64,
}

impl GfCase {
    /// Mean nanoseconds per iteration.
    pub fn ns_per_iter(&self) -> f64 {
        self.total_ns as f64 / self.iters.max(1) as f64
    }
}

/// Times `iters` iterations of `f`, repeated [`MIN_REPS`] times after one
/// warmup call, and returns the minimum repetition total (min-of-N).
fn time<R>(iters: u64, mut f: impl FnMut() -> R) -> u64 {
    black_box(f());
    let mut best = u64::MAX;
    for _ in 0..MIN_REPS {
        let t0 = clock::mono_now();
        for _ in 0..iters {
            black_box(f());
        }
        best = best.min(t0.elapsed().as_nanos() as u64);
    }
    best
}

fn case<R>(
    op: &'static str,
    tier: &'static str,
    n: u64,
    iters: u64,
    f: impl FnMut() -> R,
) -> GfCase {
    GfCase {
        op,
        tier,
        n,
        iters,
        total_ns: time(iters, f),
    }
}

/// The tier label a `GF(2^16)` `FastOps` row call actually takes for rows
/// of `len` elements: the detected arch-SIMD kernel when one exists and
/// the row clears the dispatch threshold, otherwise the split-table or
/// log-domain loop. Labels are static so `GfCase` stays `&'static str`
/// throughout.
fn row_tier(len: usize) -> &'static str {
    match simd::tier() {
        "avx2" if len >= simd::SIMD_THRESHOLD => "gf2_16/simd-avx2",
        "ssse3" if len >= simd::SIMD_THRESHOLD => "gf2_16/simd-ssse3",
        _ if len >= kernel::GF2_16_SPLIT_THRESHOLD => "gf2_16/split-table16",
        _ => "gf2_16/log16",
    }
}

/// Runs the GF(2^16) micro-benchmark grid: the `FastOps` kernel tiers
/// against the scalar reference on the row kernel, matrix multiply,
/// inversion, solving, Algorithm-1 encode, and the batched equality
/// check's slab encode.
///
/// `quick` shrinks sizes and iteration counts for smoke runs (CI, tests).
pub fn run_gf_bench(quick: bool) -> Vec<GfCase> {
    let mut rng = StdRng::seed_from_u64(0xBEAC);
    let mut cases = Vec::new();

    // --- Row kernel: dst += s * src over a long row. -------------------
    let row_lens: &[usize] = if quick { &[1024] } else { &[256, 4096] };
    let row_iters = |len: usize| {
        if quick {
            2_000
        } else {
            2_000_000 / len.max(1) as u64 + 1_000
        }
    };
    for &len in row_lens {
        let iters = row_iters(len);
        // FastOps dispatches on row length and the detected SIMD tier:
        // label the tier that actually runs, so BENCH_gf.json attributes
        // timings to the right kernel.
        let src16: Vec<Gf2_16> = (0..len)
            .map(|i| Gf2_16::from_u64(i as u64 * 257 + 11))
            .collect();
        let mut dst16: Vec<Gf2_16> = (0..len)
            .map(|i| Gf2_16::from_u64(i as u64 * 41 + 5))
            .collect();
        cases.push(case(
            "mul_row_add",
            row_tier(len),
            len as u64,
            iters,
            || <Gf2_16 as FastOps>::mul_row_add(&mut dst16, &src16, Gf2_16(0xABCD)),
        ));
        let mut dst16s = dst16.clone();
        cases.push(case(
            "mul_row_add",
            "gf2_16/scalar",
            len as u64,
            iters,
            || scalar_mul_row_add(&mut dst16s, &src16, Gf2_16(0xABCD)),
        ));
    }

    // --- Dense linear algebra: mat_mul / invert / solve. ---------------
    let dims: &[usize] = if quick { &[24] } else { &[48, 96] };
    for &n in dims {
        let iters = if quick {
            10
        } else {
            2_000_000 / (n * n * n) as u64 + 5
        };
        let a = Matrix::<Gf2_16>::random(n, n, &mut rng);
        let b = Matrix::<Gf2_16>::random(n, n, &mut rng);
        cases.push(case("mat_mul", "gf2_16/kernel", n as u64, iters, || {
            kernel::mat_mul(&a, &b)
        }));
        cases.push(case("mat_mul", "gf2_16/scalar", n as u64, iters, || {
            a.mul(&b)
        }));

        cases.push(case("invert", "gf2_16/kernel", n as u64, iters, || {
            kernel::invert(&a)
        }));
        cases.push(case("invert", "gf2_16/scalar", n as u64, iters, || {
            linalg::invert(&a)
        }));

        let rhs: Vec<Gf2_16> = (0..n).map(|i| Gf2_16::from_u64(i as u64 + 1)).collect();
        cases.push(case("solve", "gf2_16/kernel", n as u64, iters, || {
            kernel::solve(&a, &rhs)
        }));
        cases.push(case("solve", "gf2_16/scalar", n as u64, iters, || {
            linalg::solve(&a, &rhs)
        }));
    }

    // --- Algorithm-1 encode on the full coding-scheme path. ------------
    let symbols = if quick { 64 } else { 512 };
    let enc_iters = if quick { 50 } else { 500 };
    let g = gen::complete(6, 4);
    let scheme = CodingScheme::random(&g, 4, 29);
    let value = Value::random(symbols, &mut rng);
    cases.push(case(
        "encode",
        "gf2_16/kernel",
        symbols as u64,
        enc_iters,
        || scheme.encode(0, 1, &value),
    ));

    // --- Batched Algorithm-1 encode over a packed column slab. ---------
    // `CodingScheme::encode_slab`, the call batched Phase 2 makes per edge
    // and side: one ρ×width slab holding the value-columns of many
    // instances/streams, encoded by a single blocked multiply. `n` records
    // the slab width (packed columns). The `gf2_16/per-column` baseline
    // encodes the same columns one at a time with `encode_cols`, the
    // per-instance path.
    let width = if quick { 256 } else { 2048 };
    let (rho, z) = (6usize, 10u64);
    let slab_scheme = CodingScheme::random(&gen::complete(2, z), rho, 31);
    let xt = Matrix::<Gf2_16>::random(rho, width, &mut rng);
    let slab_iters = if quick { 100 } else { 400 };
    cases.push(case(
        "encode_slab",
        row_tier(width),
        width as u64,
        slab_iters,
        || slab_scheme.encode_slab(0, 1, &xt),
    ));
    let cols: Vec<Vec<Gf2_16>> = (0..width).map(|j| xt.col(j)).collect();
    cases.push(case(
        "encode_slab",
        "gf2_16/per-column",
        width as u64,
        slab_iters,
        || slab_scheme.encode_cols(0, 1, &cols),
    ));

    cases
}

/// Renders the GF micro-benchmark report (`BENCH_gf.json`): the selected
/// arch-SIMD tier and detected CPU features (so baselines from different
/// machines stay comparable), then every timed case.
pub fn gf_report_json(cases: &[GfCase], quick: bool) -> Json {
    Json::obj(vec![
        ("report", Json::str("gf")),
        ("schema", Json::U64(SCHEMA_VERSION)),
        ("quick", Json::Bool(quick)),
        ("tier", Json::str(simd::tier())),
        ("cpu", Json::str(simd::cpu_features())),
        (
            "cases",
            Json::Arr(
                cases
                    .iter()
                    .map(|c| {
                        Json::obj(vec![
                            ("op", Json::str(c.op)),
                            ("tier", Json::str(c.tier)),
                            ("n", Json::U64(c.n)),
                            ("iters", Json::U64(c.iters)),
                            ("total_ns", Json::U64(c.total_ns)),
                            ("ns_per_iter", Json::F64(c.ns_per_iter())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Runs the bundled scenario sweep under timing instrumentation.
///
/// `quick` shrinks the grid to a smoke-sized subset. Returns the report,
/// the elapsed wall nanoseconds, and the **resolved** worker count
/// (`threads == 0` means one per CPU, resolved here exactly as the sweep
/// runner resolves it, so the recorded metadata matches the run).
///
/// # Errors
///
/// Returns the scenario parse/validation failure, if any.
pub fn run_sweep_bench(quick: bool, threads: usize) -> Result<(SweepReport, u64, usize), String> {
    let mut spec = parse_str(SWEEP_SCENARIO).map_err(|e| e.to_string())?;
    if quick {
        spec.q = spec.q.min(2);
        spec.seeds = spec.seeds.min(1);
        spec.symbols.truncate(1);
        spec.n.truncate(1);
        spec.cap.truncate(1);
        spec.bounds = false;
    }
    let resolved = if threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        threads
    };
    let t0 = clock::mono_now();
    let report = nab_scenario::sweep::run_sweep(&spec, resolved)?;
    Ok((report, t0.elapsed().as_nanos() as u64, resolved))
}

/// The cold-vs-cached plan-cache comparison: the same sweep measured
/// with per-engine planning (cache off), with a fresh sweep-private
/// cache, and against a pre-warmed external cache.
#[derive(Debug, Clone)]
pub struct PlanCacheBench {
    /// Scenario name the comparison ran.
    pub scenario: String,
    /// Jobs in the sweep grid.
    pub jobs: usize,
    /// Worker threads used for all three runs.
    pub threads: usize,
    /// Wall ns with `plan_cache = false` (every engine plans privately).
    pub cold_wall_ns: u64,
    /// Wall ns with a fresh cache (plans built once, then shared).
    pub cache_cold_wall_ns: u64,
    /// Wall ns re-running against the already-populated cache.
    pub cache_warm_wall_ns: u64,
    /// Cache stats after the fresh-cache run (distinct networks built).
    pub plan_misses: u64,
    /// Cache hits during the fresh-cache run (shared fetches).
    pub plan_hits: u64,
    /// Wall ns the fresh-cache run spent building plans.
    pub plan_build_ns: u64,
    /// Scenario whose *planning pass* the disk-tier timings measure
    /// (`dc-grid`: 1024-node torus — the regime where planning, not
    /// execution, dominates cold start).
    pub disk_scenario: String,
    /// Grid points planned per disk-tier pass.
    pub disk_grid_points: usize,
    /// Wall ns to plan every grid point with a fresh disk-backed cache
    /// over an empty directory: every distinct plan is built *and*
    /// persisted (write-then-rename) — the no-cache cold start plus
    /// persistence overhead.
    pub disk_cold_wall_ns: u64,
    /// Wall ns of the same planning pass in a fresh process-equivalent
    /// cache over the populated directory: in-memory cache empty, every
    /// plan loaded (and re-verified) from disk instead of built.
    pub disk_warm_wall_ns: u64,
    /// Plans loaded from disk during the disk-warm pass.
    pub disk_hits: u64,
    /// Plans persisted during the disk-cold pass.
    pub disk_stores: u64,
    /// Whether all runs produced byte-identical canonical JSON
    /// (the tentpole guarantee; recorded so a regression is visible in
    /// the committed baseline).
    pub reports_identical: bool,
}

/// Runs the plan-cache comparison on the `scale-grid` scenario, plus the
/// disk-tier A/B on the `dc-grid` planning pass (build+persist vs. load
/// at 1024 nodes — the cold-start cost the disk cache amortizes).
///
/// `quick` shrinks the grids to smoke-sized subsets that still contain
/// duplicate networks (so hits stay observable).
///
/// # Errors
///
/// Returns the scenario parse/validation failure, if any.
/// Plans every grid point of `spec` through `cache` — the `--validate`
/// code path without the printing. Returns the number of grid points.
fn plan_grid(
    spec: &nab_scenario::ScenarioSpec,
    cache: &nab::plan::PlanCache,
) -> Result<usize, String> {
    let jobs = nab_scenario::sweep::expand_jobs(spec);
    for job in &jobs {
        let ctx = nab_scenario::topology::ResolveCtx {
            n: job.n,
            cap: job.cap,
            f: job.f,
            seed: job.seed,
        };
        let g = spec
            .topology
            .build(&ctx)
            .map_err(|e| format!("{} grid point {}: {e}", spec.name, job.index))?;
        cache
            .fetch(&g, job.f)
            .map_err(|e| format!("{} grid point {}: {e}", spec.name, job.index))?;
    }
    Ok(jobs.len())
}

pub fn run_plan_cache_bench(quick: bool, threads: usize) -> Result<PlanCacheBench, String> {
    let mut spec = parse_str(PLAN_CACHE_SCENARIO).map_err(|e| e.to_string())?;
    if quick {
        spec.q = 1;
        spec.seeds = spec.seeds.min(2);
        spec.symbols.truncate(1);
        spec.n.truncate(2);
        spec.cap.truncate(2);
    }
    let resolved = if threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        threads
    };

    spec.plan_cache = false;
    let t0 = clock::mono_now();
    let cold = nab_scenario::sweep::run_sweep(&spec, resolved)?;
    let cold_wall_ns = t0.elapsed().as_nanos() as u64;

    spec.plan_cache = true;
    let cache = nab::plan::PlanCache::new();
    let t0 = clock::mono_now();
    let cached = nab_scenario::run_sweep_with_cache(&spec, resolved, Some(&cache))?;
    let cache_cold_wall_ns = t0.elapsed().as_nanos() as u64;
    let stats = cache.stats();

    let t0 = clock::mono_now();
    let warm = nab_scenario::run_sweep_with_cache(&spec, resolved, Some(&cache))?;
    let cache_warm_wall_ns = t0.elapsed().as_nanos() as u64;

    // Disk tier, identity half: run the same sweep through a disk-backed
    // cache (empty directory, then the populated one) and fold both
    // reports into the byte-identity check — the disk path must never
    // perturb results.
    let dir = std::env::temp_dir().join(format!("nab-plan-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let disk_sweep_cold_cache = nab::plan::PlanCache::with_dir(&dir);
    let disk_cold =
        nab_scenario::run_sweep_with_cache(&spec, resolved, Some(&disk_sweep_cold_cache))?;
    let disk_sweep_warm_cache = nab::plan::PlanCache::with_dir(&dir);
    let disk_warm =
        nab_scenario::run_sweep_with_cache(&spec, resolved, Some(&disk_sweep_warm_cache))?;
    let _ = std::fs::remove_dir_all(&dir);

    // Disk tier, timing half: the datacenter-scale `dc-grid` planning
    // pass — plan every grid point against an empty directory (build +
    // persist), then again from a fresh cache over the populated one
    // (load + verify). Execution is deliberately absent: the disk tier
    // amortizes cold-start *planning*, which at 1024 nodes dwarfs a plan
    // load; timing the whole sweep would mostly measure execution.
    let mut disk_spec = parse_str(PLAN_DISK_SCENARIO).map_err(|e| e.to_string())?;
    if quick {
        disk_spec.cap.truncate(1);
    }
    let _ = std::fs::remove_dir_all(&dir);
    let disk_cold_cache = nab::plan::PlanCache::with_dir(&dir);
    let t0 = clock::mono_now();
    let disk_grid_points = plan_grid(&disk_spec, &disk_cold_cache)?;
    let disk_cold_wall_ns = t0.elapsed().as_nanos() as u64;
    let disk_stores = disk_cold_cache.stats().disk_stores;

    let disk_warm_cache = nab::plan::PlanCache::with_dir(&dir);
    let t0 = clock::mono_now();
    plan_grid(&disk_spec, &disk_warm_cache)?;
    let disk_warm_wall_ns = t0.elapsed().as_nanos() as u64;
    let disk_hits = disk_warm_cache.stats().disk_hits;
    let _ = std::fs::remove_dir_all(&dir);

    let reference = cold.to_json();
    Ok(PlanCacheBench {
        scenario: spec.name.clone(),
        jobs: spec.job_count(),
        threads: resolved,
        cold_wall_ns,
        cache_cold_wall_ns,
        cache_warm_wall_ns,
        plan_misses: stats.misses,
        plan_hits: stats.hits,
        plan_build_ns: stats.build_ns,
        disk_scenario: disk_spec.name.clone(),
        disk_grid_points,
        disk_cold_wall_ns,
        disk_warm_wall_ns,
        disk_hits,
        disk_stores,
        reports_identical: reference == cached.to_json()
            && reference == warm.to_json()
            && reference == disk_cold.to_json()
            && reference == disk_warm.to_json(),
    })
}

/// The incremental plan-repair A/B: the same dispute-heavy sweep run
/// with `plan_repair` on (witness-incremental packer + memoized `G_k`
/// derivations) and off (full recompute on every disputed instance).
#[derive(Debug, Clone)]
pub struct PlanRepairBench {
    /// Scenario name the comparison ran.
    pub scenario: String,
    /// Jobs in the sweep grid.
    pub jobs: usize,
    /// Worker threads used for both runs.
    pub threads: usize,
    /// Total sweep wall ns with repair on.
    pub repair_wall_ns: u64,
    /// Total sweep wall ns with repair off.
    pub norepair_wall_ns: u64,
    /// Replanning ns with repair on (the acceptance metric's numerator
    /// base: repairs + the forced full recomputes).
    pub repair_replan_ns: u64,
    /// Replanning ns with repair off (every disputed instance recomputes).
    pub norepair_replan_ns: u64,
    /// Derivations resolved by incremental repair (repair-on run).
    pub repairs: u64,
    /// Forced full recomputes (repair-on run: γ/ρ changed or migration).
    pub full_recomputes: u64,
    /// Full recomputes in the repair-off run.
    pub norepair_recomputes: u64,
    /// Whether both runs produced byte-identical canonical JSON.
    pub reports_identical: bool,
}

/// Runs the plan-repair comparison on the `dispute-storm` scenario.
///
/// `quick` shrinks the grid while keeping the dispute-then-long-tail
/// shape that makes replanning measurable.
///
/// # Errors
///
/// Returns the scenario parse/validation failure, if any.
pub fn run_plan_repair_bench(quick: bool, threads: usize) -> Result<PlanRepairBench, String> {
    let mut spec = parse_str(PLAN_REPAIR_SCENARIO).map_err(|e| e.to_string())?;
    if quick {
        spec.q = spec.q.min(10);
        spec.seeds = spec.seeds.min(2);
        spec.n.truncate(1);
    }
    let resolved = if threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        threads
    };

    spec.plan_repair = true;
    let t0 = clock::mono_now();
    let on = nab_scenario::sweep::run_sweep(&spec, resolved)?;
    let repair_wall_ns = t0.elapsed().as_nanos() as u64;

    spec.plan_repair = false;
    let t0 = clock::mono_now();
    let off = nab_scenario::sweep::run_sweep(&spec, resolved)?;
    let norepair_wall_ns = t0.elapsed().as_nanos() as u64;

    Ok(PlanRepairBench {
        scenario: spec.name.clone(),
        jobs: spec.job_count(),
        threads: resolved,
        repair_wall_ns,
        norepair_wall_ns,
        repair_replan_ns: on.aggregate.plan_repair_ns,
        norepair_replan_ns: off.aggregate.plan_repair_ns,
        repairs: on.aggregate.plan_repairs,
        full_recomputes: on.aggregate.plan_full_recomputes,
        norepair_recomputes: off.aggregate.plan_full_recomputes,
        reports_identical: on.to_json() == off.to_json(),
    })
}

/// Network sizes of the `flag_bb` section: heterogeneous complete graphs
/// `K_n` (capacities uniform in `1..=5`) at `f = 1`.
pub const FLAG_BB_SIZES: [usize; 3] = [4, 7, 10];

/// Repetitions of every `flag_bb` timing; min and median are reported.
pub const FLAG_BB_REPS: u32 = 11;

/// [`FLAG_BB_REPS`], or 3 for smoke runs.
fn flag_bb_reps(quick: bool) -> u32 {
    if quick {
        3
    } else {
        FLAG_BB_REPS
    }
}

/// Min and median over the repetitions of one timed part, in ns per call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Spread {
    /// Fastest repetition.
    pub min_ns: u64,
    /// Median repetition.
    pub median_ns: u64,
}

/// One `flag_bb` case: a flag broadcast (`run_flag_broadcast`, one EIG
/// per participant) on the heterogeneous `K_n`, split into its layers.
#[derive(Debug, Clone)]
pub struct FlagBbCase {
    /// Participants.
    pub n: u64,
    /// Calls per repetition.
    pub iters: u64,
    /// The `n` EIG runs over [`IdealChannel`]: tree work alone.
    pub eig: Spread,
    /// The same logical unicasts routed over the `2f+1` disjoint paths
    /// into the round meter, without EIG.
    pub routing: Spread,
    /// The whole `run_flag_broadcast` call.
    pub flag_bb: Spread,
}

/// Times `iters` calls of `f` per repetition, [`flag_bb_reps`] times
/// after one warmup call.
fn spread<R>(quick: bool, iters: u64, mut f: impl FnMut() -> R) -> Spread {
    black_box(f());
    let mut per_call: Vec<u64> = (0..flag_bb_reps(quick))
        .map(|_| {
            let t0 = clock::mono_now();
            for _ in 0..iters {
                black_box(f());
            }
            t0.elapsed().as_nanos() as u64 / iters
        })
        .collect();
    per_call.sort_unstable();
    Spread {
        min_ns: per_call[0],
        median_ns: per_call[per_call.len() / 2],
    }
}

/// Records the endpoints of every logical unicast, delivering verbatim.
struct UnicastLog(Vec<(NodeId, NodeId)>);

impl EigChannel<u64> for UnicastLog {
    fn unicast(&mut self, from: NodeId, to: NodeId, _: u64, value: u64) -> u64 {
        self.0.push((from, to));
        value
    }
}

/// Runs the `flag_bb` section over [`FLAG_BB_SIZES`].
///
/// # Errors
///
/// Returns an error if a network fails the router's connectivity check.
pub fn run_flag_bb_bench(quick: bool) -> Result<Vec<FlagBbCase>, String> {
    let iters = if quick { 2 } else { 200 };
    FLAG_BB_SIZES
        .iter()
        .map(|&n| {
            let g = gen::complete_heterogeneous(n, 1, 5, &mut StdRng::seed_from_u64(n as u64));
            let router =
                PathRouter::build(&g, 1).ok_or_else(|| format!("K{n} is not 3-connected"))?;
            let parts: Vec<NodeId> = g.nodes().collect();
            let none = BTreeSet::new();
            let eig = spread(quick, iters, || {
                for &b in &parts {
                    run_eig(
                        &parts,
                        b,
                        1,
                        0u64,
                        &none,
                        &mut HonestAdversary,
                        &mut IdealChannel,
                        1,
                    );
                }
            });
            let mut log = UnicastLog(Vec::new());
            for &b in &parts {
                run_eig(&parts, b, 1, 0u64, &none, &mut HonestAdversary, &mut log, 1);
            }
            let routing = spread(quick, iters, || {
                let mut net = NetSim::new(&g);
                for &(a, b) in &log.0 {
                    router.unicast(&mut net, &none, a, b, 1, 0u64, &mut |_, v| *v);
                }
                net.clock()
            });
            let flags: BTreeMap<NodeId, bool> = parts.iter().map(|&v| (v, false)).collect();
            let flag_bb = spread(quick, iters, || {
                run_flag_broadcast(
                    &g,
                    &router,
                    &parts,
                    1,
                    &flags,
                    &none,
                    &mut HonestStrategy,
                    BroadcastKind::Eig,
                    false,
                )
                .duration
            });
            Ok(FlagBbCase {
                n: n as u64,
                iters,
                eig,
                routing,
                flag_bb,
            })
        })
        .collect()
}

fn spread_json(s: Spread) -> Json {
    Json::obj(vec![
        ("min_ns", Json::U64(s.min_ns)),
        ("median_ns", Json::U64(s.median_ns)),
    ])
}

fn flag_bb_json(cases: &[FlagBbCase], quick: bool) -> Json {
    Json::obj(vec![
        ("topology", Json::str("hetero:$n:1:5")),
        ("f", Json::U64(1)),
        ("reps", Json::U64(flag_bb_reps(quick).into())),
        (
            "cases",
            Json::Arr(
                cases
                    .iter()
                    .map(|c| {
                        Json::obj(vec![
                            ("n", Json::U64(c.n)),
                            ("iters", Json::U64(c.iters)),
                            ("eig", spread_json(c.eig)),
                            ("routing", spread_json(c.routing)),
                            ("flag_bb", spread_json(c.flag_bb)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// A terminal summary table of `flag_bb` cases (µs per call, min/median).
pub fn flag_bb_summary_table(cases: &[FlagBbCase]) -> String {
    let us = |s: Spread| {
        format!(
            "{:.1} / {:.1}",
            s.min_ns as f64 / 1e3,
            s.median_ns as f64 / 1e3
        )
    };
    let rows: Vec<Vec<String>> = cases
        .iter()
        .map(|c| vec![c.n.to_string(), us(c.eig), us(c.routing), us(c.flag_bb)])
        .collect();
    crate::format_table(
        &[
            "n",
            "eig µs min/med",
            "routing µs min/med",
            "flag_bb µs min/med",
        ],
        &rows,
    )
}

/// Renders the sweep-wide latency percentiles (`p50`/`p90`/`p99` wall
/// nanoseconds per phase) from the aggregate latency histograms.
fn percentiles_json(latency: &PhaseLatency) -> Json {
    Json::obj(
        latency
            .phases()
            .into_iter()
            .map(|(name, h)| {
                (
                    name,
                    Json::obj(vec![
                        ("count", Json::U64(h.count())),
                        ("p50_ns", Json::U64(h.percentile(50.0))),
                        ("p90_ns", Json::U64(h.percentile(90.0))),
                        ("p99_ns", Json::U64(h.percentile(99.0))),
                    ]),
                )
            })
            .collect(),
    )
}

/// Renders the sweep benchmark report (`BENCH_sweep.json`): run metadata,
/// per-phase latency percentiles, the full timed sweep report (per-job
/// `wall_*_ns`, latency histograms, plan-cache and plan-repair stats
/// included), the cold-vs-cached-vs-disk `plan_cache` comparison, the
/// repair-on-vs-off `plan_repair` comparison, and the `flag_bb` layer
/// split.
pub fn sweep_report_json(
    report: &SweepReport,
    wall_ns: u64,
    threads: usize,
    quick: bool,
    plan_cache: &PlanCacheBench,
    plan_repair: &PlanRepairBench,
    flag_bb: &[FlagBbCase],
) -> Json {
    Json::obj(vec![
        ("report", Json::str("sweep")),
        ("schema", Json::U64(SCHEMA_VERSION)),
        ("quick", Json::Bool(quick)),
        ("threads", Json::U64(threads as u64)),
        ("wall_ns", Json::U64(wall_ns)),
        ("percentiles", percentiles_json(&report.aggregate.latency)),
        (
            "plan_cache",
            Json::obj(vec![
                ("scenario", Json::str(&plan_cache.scenario)),
                ("jobs", Json::U64(plan_cache.jobs as u64)),
                ("threads", Json::U64(plan_cache.threads as u64)),
                ("cold_wall_ns", Json::U64(plan_cache.cold_wall_ns)),
                (
                    "cache_cold_wall_ns",
                    Json::U64(plan_cache.cache_cold_wall_ns),
                ),
                (
                    "cache_warm_wall_ns",
                    Json::U64(plan_cache.cache_warm_wall_ns),
                ),
                ("plan_misses", Json::U64(plan_cache.plan_misses)),
                ("plan_hits", Json::U64(plan_cache.plan_hits)),
                ("plan_build_ns", Json::U64(plan_cache.plan_build_ns)),
                ("disk_scenario", Json::str(&plan_cache.disk_scenario)),
                (
                    "disk_grid_points",
                    Json::U64(plan_cache.disk_grid_points as u64),
                ),
                ("disk_cold_wall_ns", Json::U64(plan_cache.disk_cold_wall_ns)),
                ("disk_warm_wall_ns", Json::U64(plan_cache.disk_warm_wall_ns)),
                ("disk_hits", Json::U64(plan_cache.disk_hits)),
                ("disk_stores", Json::U64(plan_cache.disk_stores)),
                (
                    "reports_identical",
                    Json::Bool(plan_cache.reports_identical),
                ),
            ]),
        ),
        (
            "plan_repair",
            Json::obj(vec![
                ("scenario", Json::str(&plan_repair.scenario)),
                ("jobs", Json::U64(plan_repair.jobs as u64)),
                ("threads", Json::U64(plan_repair.threads as u64)),
                ("repair_wall_ns", Json::U64(plan_repair.repair_wall_ns)),
                ("norepair_wall_ns", Json::U64(plan_repair.norepair_wall_ns)),
                ("repair_replan_ns", Json::U64(plan_repair.repair_replan_ns)),
                (
                    "norepair_replan_ns",
                    Json::U64(plan_repair.norepair_replan_ns),
                ),
                ("repairs", Json::U64(plan_repair.repairs)),
                ("full_recomputes", Json::U64(plan_repair.full_recomputes)),
                (
                    "norepair_recomputes",
                    Json::U64(plan_repair.norepair_recomputes),
                ),
                (
                    "reports_identical",
                    Json::Bool(plan_repair.reports_identical),
                ),
            ]),
        ),
        ("flag_bb", flag_bb_json(flag_bb, quick)),
        ("sweep", report.to_json_value(true)),
    ])
}

/// A terminal summary table of GF cases (op, tier, n, ns/iter).
pub fn gf_summary_table(cases: &[GfCase]) -> String {
    let rows: Vec<Vec<String>> = cases
        .iter()
        .map(|c| {
            vec![
                c.op.to_string(),
                c.tier.to_string(),
                c.n.to_string(),
                format!("{:.0}", c.ns_per_iter()),
            ]
        })
        .collect();
    crate::format_table(&["op", "tier", "n", "ns/iter"], &rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gf_report_schema_is_stable() {
        let cases = vec![GfCase {
            op: "mul_row_add",
            tier: "gf2_16/log16",
            n: 64,
            iters: 10,
            total_ns: 1234,
        }];
        let j = gf_report_json(&cases, true).render();
        assert!(j.starts_with("{\"report\":\"gf\",\"schema\":6,\"quick\":true,\"tier\":\""));
        for key in [
            "\"cpu\":\"",
            "\"cases\":[",
            "\"op\":",
            "\"tier\":",
            "\"n\":64",
            "\"iters\":10",
            "\"total_ns\":1234",
            "\"ns_per_iter\":123.4",
        ] {
            assert!(j.contains(key), "missing {key} in {j}");
        }
    }

    #[test]
    fn quick_gf_bench_covers_every_op_and_tier_pair() {
        let cases = run_gf_bench(true);
        let ops: std::collections::BTreeSet<&str> = cases.iter().map(|c| c.op).collect();
        assert_eq!(
            ops.into_iter().collect::<Vec<_>>(),
            vec![
                "encode",
                "encode_slab",
                "invert",
                "mat_mul",
                "mul_row_add",
                "solve"
            ]
        );
        // Every specialized tier appears alongside its scalar baseline,
        // with the row cases labeled by the kernel that actually runs on
        // this machine (arch-SIMD when detected, table tiers otherwise).
        assert!(cases.iter().all(|c| c.tier.starts_with("gf2_16/")));
        assert!(cases.iter().any(|c| c.tier == "gf2_16/kernel"));
        assert!(cases.iter().any(|c| c.tier == "gf2_16/scalar"));
        // The slab encode is timed against its per-column baseline.
        assert!(cases
            .iter()
            .any(|c| c.op == "encode_slab" && c.tier == "gf2_16/per-column"));
        let expected_row = match simd::tier() {
            "avx2" => "gf2_16/simd-avx2",
            "ssse3" => "gf2_16/simd-ssse3",
            _ => "gf2_16/split-table16",
        };
        assert!(
            cases
                .iter()
                .any(|c| c.op == "mul_row_add" && c.tier == expected_row),
            "row tier must track the detected kernel ({expected_row})"
        );
        for c in &cases {
            assert!(c.iters > 0, "{c:?}");
        }
    }

    fn fixture_plan_cache_bench() -> PlanCacheBench {
        PlanCacheBench {
            scenario: "scale-grid".into(),
            jobs: 8,
            threads: 2,
            cold_wall_ns: 300,
            cache_cold_wall_ns: 200,
            cache_warm_wall_ns: 100,
            plan_misses: 4,
            plan_hits: 4,
            plan_build_ns: 50,
            disk_scenario: "dc-grid".into(),
            disk_grid_points: 2,
            disk_cold_wall_ns: 250,
            disk_warm_wall_ns: 120,
            disk_hits: 4,
            disk_stores: 4,
            reports_identical: true,
        }
    }

    fn fixture_plan_repair_bench() -> PlanRepairBench {
        PlanRepairBench {
            scenario: "dispute-storm".into(),
            jobs: 4,
            threads: 2,
            repair_wall_ns: 400,
            norepair_wall_ns: 900,
            repair_replan_ns: 60,
            norepair_replan_ns: 500,
            repairs: 5,
            full_recomputes: 2,
            norepair_recomputes: 40,
            reports_identical: true,
        }
    }

    #[test]
    fn quick_sweep_bench_produces_timed_report() {
        let (report, wall_ns, threads) = run_sweep_bench(true, 2).expect("bundled scenario runs");
        assert_eq!(threads, 2, "explicit thread counts pass through");
        assert!(report.aggregate.ok_jobs > 0);
        assert!(report.aggregate.all_correct);
        let j = sweep_report_json(
            &report,
            wall_ns,
            threads,
            true,
            &fixture_plan_cache_bench(),
            &fixture_plan_repair_bench(),
            &[fixture_flag_bb_case()],
        )
        .render();
        assert!(j.starts_with("{\"report\":\"sweep\",\"schema\":6"));
        assert!(
            j.contains("\"wall_total_ns\":"),
            "timed sweep embedded: {j}"
        );
        assert!(
            j.contains("\"plan_cache_hits\":"),
            "per-job cache stats embedded: {j}"
        );
        // The v3 percentile section covers every phase plus the
        // whole-instance distribution, in declaration order.
        assert!(
            j.contains("\"percentiles\":{\"phase1\":{\"count\":"),
            "latency percentiles embedded: {j}"
        );
        for phase in ["phase1", "equality", "flags", "dispute", "instance"] {
            assert!(
                j.contains(&format!("\"{phase}\":{{\"count\":")),
                "percentiles cover {phase}: {j}"
            );
        }
        for p in ["p50_ns", "p90_ns", "p99_ns"] {
            assert!(j.contains(&format!("\"{p}\":")), "{p} present");
        }
        // The timed sweep inside carries per-job latency histograms and
        // the sweep-wide metrics registry.
        assert!(j.contains("\"latency\":{\"phase1\":{"), "job latency: {j}");
        assert!(
            j.contains("\"metrics\":{\"counters\":{"),
            "metrics registry: {j}"
        );
        assert!(j.contains(
            "\"plan_cache\":{\"scenario\":\"scale-grid\",\"jobs\":8,\"threads\":2,\
             \"cold_wall_ns\":300,\"cache_cold_wall_ns\":200,\"cache_warm_wall_ns\":100,\
             \"plan_misses\":4,\"plan_hits\":4,\"plan_build_ns\":50,\
             \"disk_scenario\":\"dc-grid\",\"disk_grid_points\":2,\
             \"disk_cold_wall_ns\":250,\"disk_warm_wall_ns\":120,\
             \"disk_hits\":4,\"disk_stores\":4,\
             \"reports_identical\":true}"
        ));
        assert!(j.contains(
            "\"plan_repair\":{\"scenario\":\"dispute-storm\",\"jobs\":4,\"threads\":2,\
             \"repair_wall_ns\":400,\"norepair_wall_ns\":900,\
             \"repair_replan_ns\":60,\"norepair_replan_ns\":500,\
             \"repairs\":5,\"full_recomputes\":2,\"norepair_recomputes\":40,\
             \"reports_identical\":true}"
        ));
        // The v5 timed sweep carries the per-job repair counters.
        assert!(j.contains("\"plan_repairs\":"), "repair counters: {j}");
        assert!(
            j.contains("\"plan_full_recomputes\":"),
            "recompute counters: {j}"
        );
        assert!(j.contains(
            "\"flag_bb\":{\"topology\":\"hetero:$n:1:5\",\"f\":1,\"reps\":3,\
             \"cases\":[{\"n\":4,\"iters\":2,\"eig\":{\"min_ns\":10,\"median_ns\":11},\
             \"routing\":{\"min_ns\":20,\"median_ns\":22},\
             \"flag_bb\":{\"min_ns\":30,\"median_ns\":33}}]}"
        ));
        assert!(j.contains("\"sweep\":{\"scenario\":\"complete-sweep\""));
    }

    fn fixture_flag_bb_case() -> FlagBbCase {
        let s = |min_ns, median_ns| Spread { min_ns, median_ns };
        FlagBbCase {
            n: 4,
            iters: 2,
            eig: s(10, 11),
            routing: s(20, 22),
            flag_bb: s(30, 33),
        }
    }

    #[test]
    fn quick_flag_bb_bench_covers_every_size() {
        let cases = run_flag_bb_bench(true).expect("complete graphs route");
        let sizes: Vec<u64> = cases.iter().map(|c| c.n).collect();
        assert_eq!(sizes, [4, 7, 10]);
        for c in &cases {
            for s in [c.eig, c.routing, c.flag_bb] {
                assert!(s.min_ns <= s.median_ns, "{c:?}");
            }
        }
    }

    #[test]
    fn quick_plan_cache_bench_shares_plans_and_stays_identical() {
        let b = run_plan_cache_bench(true, 2).expect("scale-grid runs");
        assert_eq!(b.scenario, "scale-grid");
        assert!(b.jobs >= 8, "quick grid keeps duplicate networks");
        assert!(b.plan_misses > 0);
        assert!(
            b.plan_hits > 0,
            "duplicate networks must hit the cache: {b:?}"
        );
        assert!(b.plan_build_ns > 0);
        assert_eq!(b.disk_scenario, "dc-grid");
        assert!(b.disk_grid_points >= 1, "dc-grid plans at least once");
        assert!(b.disk_stores > 0, "disk-cold pass persists plans: {b:?}");
        assert_eq!(
            b.disk_hits, b.disk_stores,
            "warm pass loads every persisted plan: {b:?}"
        );
        assert!(
            b.disk_warm_wall_ns < b.disk_cold_wall_ns,
            "loading a 1024-node plan beats building it: {b:?}"
        );
        assert!(
            b.reports_identical,
            "cache state must not perturb canonical JSON"
        );
    }

    #[test]
    fn quick_plan_repair_bench_repairs_and_stays_identical() {
        let b = run_plan_repair_bench(true, 2).expect("dispute-storm runs");
        assert_eq!(b.scenario, "dispute-storm");
        assert!(b.jobs >= 2);
        assert!(
            b.repairs + b.full_recomputes > 0,
            "disputes must force derivations: {b:?}"
        );
        assert!(
            b.norepair_recomputes > b.repairs + b.full_recomputes,
            "repair must collapse derivations: {b:?}"
        );
        assert!(b.repair_replan_ns > 0 && b.norepair_replan_ns > 0);
        assert!(
            b.reports_identical,
            "repair mode must not perturb canonical JSON"
        );
    }

    #[test]
    fn default_thread_count_is_resolved_before_recording() {
        let (_, _, threads) = run_sweep_bench(true, 0).expect("bundled scenario runs");
        assert!(threads >= 1, "0 must resolve to the actual worker count");
    }
}
