//! The repository benchmark: one NAB workload per process, measured end
//! to end, with a traced run for the per-layer table. See `README.md`.
//!
//! ```text
//! nabbench --workload <name> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; human-readable
//! progress and the per-layer table go to standard error.

mod layers;
mod run;
mod workload;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::sync::Arc;

use nab_obs::trace::BufferSink;

use run::{iterate, median, min, peak_rss_mb, Clock, Fastest, Gate, Iteration};
use workload::{Workload, WORKLOADS};

const USAGE: &str = "usage: nabbench --workload <name> --seed <n> --seconds <n> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                workload = Some(Workload::named(&value).ok_or_else(|| {
                    format!("unknown workload {value}; one of {}", names.join(", "))
                })?);
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// What one run reports.
struct Outcome {
    gate: Gate,
    /// `(name, value, unit)`, in `BENCHMARK.json` order.
    metrics: Vec<(&'static str, f64, &'static str)>,
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.trace {
        traced(&args)
    } else {
        untraced(&args)
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    for p in &outcome.gate.problems {
        eprintln!("FAILED: {p}");
    }
    let mut metrics = String::new();
    for (i, (name, value, unit)) in outcome.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(*value)
        );
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        outcome.gate.correct(),
        outcome.gate.attempted,
        outcome.gate.failed
    );
    if outcome.gate.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// Repeats iterations until `seconds` have passed. The first iteration
/// warms the process up and is checked but not timed; at least two are
/// timed, so the same-seed JSON comparison always runs.
///
/// Each timing metric adds up the fastest time of each part of an
/// iteration over the timed iterations: every part for `wall_s`, the
/// setup pass's parts for `setup_s`, the sweep pass's parts for
/// `instances_per_s` (see `run::Fastest` and README.md).
fn untraced(args: &Args) -> Result<Outcome, String> {
    let w = &args.workload;
    let spec = w.spec(args.seed)?;
    let clock = Clock::new(false);
    let budget_ns = args.seconds.saturating_mul(1_000_000_000);
    let mut gate = Gate::default();
    gate.check(w, &spec, &iterate(&spec, &clock, None)?);
    let mut wall = Vec::new();
    let mut fastest = Fastest::default();
    let mut instances = 0.0;
    while wall.len() < 2 || clock.now() < budget_ns {
        let it = iterate(&spec, &clock, None)?;
        gate.check(w, &spec, &it);
        fastest.add(&it)?;
        wall.push(it.wall_ns as f64 / 1e9);
        instances = it.report.aggregate.total_instances as f64;
    }
    let rss = peak_rss_mb()?;
    let [fastest_wall, fastest_setup, fastest_sweep] =
        [fastest.wall_ns(), fastest.setup_ns(), fastest.sweep_ns()].map(|ns| ns as f64 / 1e9);
    eprintln!(
        "{} seed {}: {} timed iterations; wall min {:.4} s, median {:.4} s; fastest parts: \
         wall {:.4} s, setup {:.4} s, sweep {:.4} s; peak RSS {:.1} MiB",
        w.name,
        args.seed,
        wall.len(),
        min(&wall),
        median(&wall),
        fastest_wall,
        fastest_setup,
        fastest_sweep,
        rss
    );
    Ok(Outcome {
        gate,
        metrics: vec![
            ("wall_s", fastest_wall, "s"),
            ("setup_s", fastest_setup, "s"),
            ("instances_per_s", instances / fastest_sweep, "1/s"),
            ("peak_rss_mb", rss, "MiB"),
        ],
    })
}

/// After one warm-up iteration, alternates untraced and traced iterations
/// until `seconds` have passed. Reports the median of each per-layer
/// metric over the traced ones, the tracing overhead (fastest traced over
/// fastest untraced iteration) and the planning split; prints the
/// per-layer table of the last traced iteration and writes its spans out.
fn traced(args: &Args) -> Result<Outcome, String> {
    let w = &args.workload;
    let spec = w.spec(args.seed)?;
    let clock = Clock::new(true);
    let budget_ns = args.seconds.saturating_mul(1_000_000_000);
    let mut gate = Gate::default();
    gate.check(w, &spec, &iterate(&spec, &clock, None)?);
    let (mut plain_wall, mut traced_wall) = (Vec::new(), Vec::new());
    let mut samples: Vec<Vec<(&'static str, f64, &'static str)>> = Vec::new();
    let mut last: Option<(Iteration, layers::Attribution)> = None;
    while samples.is_empty() || clock.now() < budget_ns {
        let it = iterate(&spec, &clock, None)?;
        gate.check(w, &spec, &it);
        plain_wall.push(it.call_ns as f64);

        let sink = Arc::new(BufferSink::new());
        let it = iterate(&spec, &clock, Some(Arc::clone(&sink)))?;
        gate.check(w, &spec, &it);
        let attribution = layers::attribute(&it, &sink.take_sorted());
        if w.expects_batched_steps() && !attribution.all_steps_batched {
            gate.problems
                .insert(format!("{}: a step ran unbatched", w.name));
        }
        traced_wall.push(it.call_ns as f64);
        samples.push(attribution.metrics.clone());
        last = Some((it, attribution));
    }
    let (it, attribution) = last.ok_or("no traced iteration ran")?;

    let mut metrics: Vec<(&'static str, f64, &'static str)> = layers::planning_split(&it.built)?
        .into_iter()
        .map(|(name, v)| (name, v, "ns"))
        .collect();
    for (i, &(name, _, unit)) in samples[0].iter().enumerate() {
        let values: Vec<f64> = samples.iter().map(|s| s[i].1).collect();
        metrics.push((name, median(&values), unit));
    }
    let overhead = min(&traced_wall) / min(&plain_wall) - 1.0;
    metrics.push(("trace.overhead_frac", overhead, "frac"));

    print_table(args, &it, &attribution, &metrics);
    if let Err(e) = write_spans(args, &it, &attribution) {
        eprintln!("warning: spans not written: {e}");
    }
    Ok(Outcome { gate, metrics })
}

fn print_table(
    args: &Args,
    it: &Iteration,
    attribution: &layers::Attribution,
    metrics: &[(&'static str, f64, &'static str)],
) {
    let wall = it.call_ns as f64;
    eprintln!(
        "\n{} seed {}: per-layer self time of the last traced iteration (GF SIMD tier {}, CPU {})",
        args.workload.name,
        args.seed,
        nab_gf::simd::tier(),
        nab_gf::simd::cpu_features()
    );
    eprintln!("{:<32} {:>12} {:>8}", "layer", "self ms", "share");
    for (name, ns) in &attribution.rows {
        eprintln!(
            "{name:<32} {:>12.3} {:>7.2}%",
            ns / 1e6,
            100.0 * ns / wall.max(1.0)
        );
    }
    eprintln!("{:<32} {:>12.3} {:>7.2}%", "traced wall", wall / 1e6, 100.0);
    let get = |n: &str| {
        metrics
            .iter()
            .find(|m| m.0 == n)
            .map(|m| m.1)
            .unwrap_or_default()
    };
    let split = [
        "plan.connectivity_ns",
        "plan.router_ns",
        "plan.rho_ns",
        "plan.gamma_ns",
        "plan.pack_ns",
        "plan.other_ns",
    ];
    let rebuilt: f64 = split.iter().map(|n| get(n)).sum();
    eprintln!(
        "\nplanning split, re-timed next to {:.3} ms of fresh builds of the setup networks:",
        rebuilt / 1e6
    );
    for name in split {
        let v = get(name);
        eprintln!(
            "{name:<32} {:>12.3} {:>7.2}%",
            v / 1e6,
            100.0 * v / rebuilt.max(1.0)
        );
    }
}

/// Writes the last traced iteration's spans, one JSON object per line, to
/// `out/<workload>-seed<seed>.spans.jsonl` in the benchmark's directory.
fn write_spans(
    args: &Args,
    it: &Iteration,
    attribution: &layers::Attribution,
) -> std::io::Result<()> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let mut out = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"gf_tier\": \"{}\"}}\n",
        args.workload.name,
        args.seed,
        nab_gf::simd::tier()
    );
    for s in it.spans.iter().chain(&attribution.spans) {
        let _ = writeln!(
            out,
            "{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"job\": {}, \"instance\": {}}}",
            s.name, s.start_ns, s.end_ns, s.job, s.instance
        );
    }
    let path = dir.join(format!(
        "{}-seed{}.spans.jsonl",
        args.workload.name, args.seed
    ));
    std::fs::write(path, out)
}
