//! `perf` — regenerate the repo's perf baselines (`BENCH_gf.json`,
//! `BENCH_sweep.json`).
//!
//! ```text
//! perf [--quick] [--threads N] [--out DIR]
//! ```
//!
//! Times the GF kernel tiers (byte-slab, table kernels, scalar reference),
//! a bundled scenario sweep and the flag-BB layer split, then writes both
//! reports as deterministic-schema JSON into `--out` (default: the
//! current directory). See `docs/perf.md` for the schema and interpretation.

use std::path::PathBuf;
use std::process::ExitCode;

use nab_bench::perf;

const HELP: &str = "perf — NAB perf-report generator

USAGE:
    perf [OPTIONS]

OPTIONS:
    --quick         smoke-sized grid (small sizes, few iterations); used
                    by the CI bench job
    --threads N     worker threads for the scenario sweep (default 0 =
                    one per CPU)
    --out DIR       directory to write BENCH_gf.json / BENCH_sweep.json
                    (default: current directory)
    -h, --help      show this help
";

struct Args {
    quick: bool,
    threads: usize,
    out: PathBuf,
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut args = Args {
        quick: false,
        threads: 0,
        out: PathBuf::from("."),
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--quick" => args.quick = true,
            "--threads" => {
                i += 1;
                args.threads = argv
                    .get(i)
                    .ok_or("missing value for --threads")?
                    .parse()
                    .map_err(|e| format!("--threads: {e}"))?;
            }
            "--out" => {
                i += 1;
                args.out = PathBuf::from(argv.get(i).ok_or("missing value for --out")?);
            }
            "--help" | "-h" => {
                print!("{HELP}");
                return Ok(None);
            }
            other => return Err(format!("unknown flag {other:?} (try --help)")),
        }
        i += 1;
    }
    Ok(Some(args))
}

fn run(args: &Args) -> Result<(), String> {
    eprintln!(
        "perf: GF kernel micro-benchmarks ({} mode)…",
        if args.quick { "quick" } else { "full" }
    );
    let cases = perf::run_gf_bench(args.quick);
    print!("{}", perf::gf_summary_table(&cases));
    let gf_path = args.out.join("BENCH_gf.json");
    std::fs::write(
        &gf_path,
        perf::gf_report_json(&cases, args.quick).render_pretty(),
    )
    .map_err(|e| format!("cannot write {}: {e}", gf_path.display()))?;
    eprintln!("perf: wrote {}", gf_path.display());

    eprintln!("perf: bundled scenario sweep…");
    let (report, wall_ns, threads) = perf::run_sweep_bench(args.quick, args.threads)?;
    println!(
        "sweep: {} jobs ({} ok) on {} threads in {:.1} ms wall, all correct: {}",
        report.aggregate.jobs,
        report.aggregate.ok_jobs,
        threads,
        wall_ns as f64 / 1e6,
        report.aggregate.all_correct
    );

    eprintln!("perf: plan-cache cold vs cached sweep…");
    let pc = perf::run_plan_cache_bench(args.quick, args.threads)?;
    println!(
        "plan-cache ({}, {} jobs, {} threads): no-cache {:.1} ms, fresh cache {:.1} ms, \
         warm cache {:.1} ms ({} plans built, {} shared fetches, identical reports: {})",
        pc.scenario,
        pc.jobs,
        pc.threads,
        pc.cold_wall_ns as f64 / 1e6,
        pc.cache_cold_wall_ns as f64 / 1e6,
        pc.cache_warm_wall_ns as f64 / 1e6,
        pc.plan_misses,
        pc.plan_hits,
        pc.reports_identical,
    );
    println!(
        "plan-cache disk tier ({} planning pass, {} grid points): cold (build+persist) \
         {:.1} ms, warm (load) {:.1} ms ({} stored, {} loaded)",
        pc.disk_scenario,
        pc.disk_grid_points,
        pc.disk_cold_wall_ns as f64 / 1e6,
        pc.disk_warm_wall_ns as f64 / 1e6,
        pc.disk_stores,
        pc.disk_hits,
    );

    eprintln!("perf: plan-repair on vs off sweep…");
    let pr = perf::run_plan_repair_bench(args.quick, args.threads)?;
    println!(
        "plan-repair ({}, {} jobs, {} threads): replan {:.1} ms repaired vs {:.1} ms \
         recomputed ({} repairs + {} forced recomputes vs {} recomputes, identical \
         reports: {})",
        pr.scenario,
        pr.jobs,
        pr.threads,
        pr.repair_replan_ns as f64 / 1e6,
        pr.norepair_replan_ns as f64 / 1e6,
        pr.repairs,
        pr.full_recomputes,
        pr.norepair_recomputes,
        pr.reports_identical,
    );

    eprintln!("perf: flag BB layer split…");
    let flag_bb = perf::run_flag_bb_bench(args.quick)?;
    print!("{}", perf::flag_bb_summary_table(&flag_bb));

    let sweep_path = args.out.join("BENCH_sweep.json");
    std::fs::write(
        &sweep_path,
        perf::sweep_report_json(&report, wall_ns, threads, args.quick, &pc, &pr, &flag_bb)
            .render_pretty(),
    )
    .map_err(|e| format!("cannot write {}: {e}", sweep_path.display()))?;
    eprintln!("perf: wrote {}", sweep_path.display());
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(a)) => a,
        Ok(None) => return ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
