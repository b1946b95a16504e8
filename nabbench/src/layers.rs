//! Per-layer attribution of a traced iteration.
//!
//! The program's own trace events (job, instance, phase, plan repair,
//! node exposure) are turned into spans and nested under the benchmark's
//! spans (setup, sweep, report). Every layer's self time is its span time
//! minus the time of the spans nested in it, so the rows of the table add
//! up to the wall time of the traced iteration; the part of it that no
//! span covers is the explicit `unattributed` row.
//!
//! Two quirks of the program's spans are handled here:
//! - In a batched step every stream's instance span is open at once, so a
//!   step is the union of the instance spans of one (job, instance index).
//! - The batched equality span is empty, so equality time is taken from
//!   the report (`wall_equality_ns`), which also holds the ρ_k
//!   re-derivation the per-stream path times inside that phase.

use std::collections::BTreeSet;
use std::hint::black_box;
use std::sync::Arc;

use nab::bounds::{gamma_k, rho_k};
use nab::engine::SOURCE;
use nab::ExecutionPlan;
use nab_bb::PathRouter;
use nab_netgraph::arborescence::pack_arborescences;
use nab_netgraph::connectivity::supports_byzantine_broadcast;
use nab_obs::clock::{elapsed_ns, mono_now};
use nab_obs::trace::{Event, EventKind, Phase};

use crate::run::{Iteration, Span};

/// Attribution of one traced iteration.
pub struct Attribution {
    /// Per-layer metrics, in report order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// `(layer, self ns)` rows; they sum to the traced wall.
    pub rows: Vec<(&'static str, f64)>,
    /// The program's spans (jobs, steps, phases) rebuilt from its events.
    pub spans: Vec<Span>,
    /// Whether every step ran all its streams' instances batched together.
    pub all_steps_batched: bool,
}

/// One step: the union of the instance spans of one (job, instance).
struct Step {
    key: (u64, u64),
    start: u64,
    end: u64,
    open: u32,
    starts: u32,
    max_open: u32,
}

fn phase_index(p: Phase) -> usize {
    match p {
        Phase::Phase1 => 0,
        Phase::Equality => 1,
        Phase::Flags => 2,
        Phase::Dispute => 3,
    }
}

const PHASE_SPAN_NAMES: [&str; 4] = ["phase1", "equality", "flags", "dispute"];

/// Attributes a traced iteration's wall time to layers. `events` are the
/// sweep's trace events in sequence order.
pub fn attribute(it: &Iteration, events: &[Event]) -> Attribution {
    let mut spans = Vec::new();
    let mut job_open: Option<(u64, u64)> = None;
    let mut job_ns = 0u64;
    let mut step: Option<Step> = None;
    let mut steps: Vec<Step> = Vec::new();
    let mut phase_open = [None::<u64>; 4];
    let mut phase_ns = [0u64; 4];
    let mut flags_count = 0u64;
    let mut dispute_ns: Vec<u64> = Vec::new();
    let (mut exposed, mut repair_ns) = (0u64, 0u64);

    for ev in events {
        let ts = ev.ts_ns;
        match ev.kind {
            EventKind::JobStart => job_open = Some((ts, ev.job)),
            EventKind::JobEnd => {
                steps.extend(step.take());
                if let Some((start, job)) = job_open.take() {
                    job_ns += ts.saturating_sub(start);
                    spans.push(span("job", start, ts, job, 0));
                }
            }
            EventKind::InstanceStart => {
                let key = (ev.job, ev.instance);
                match step.as_mut() {
                    Some(s) if s.key == key => {
                        s.open += 1;
                        s.starts += 1;
                        s.max_open = s.max_open.max(s.open);
                    }
                    _ => {
                        steps.extend(step.take());
                        step = Some(Step {
                            key,
                            start: ts,
                            end: ts,
                            open: 1,
                            starts: 1,
                            max_open: 1,
                        });
                    }
                }
            }
            EventKind::InstanceEnd => {
                if let Some(s) = step.as_mut() {
                    s.open = s.open.saturating_sub(1);
                    s.end = ts;
                }
            }
            EventKind::PhaseStart(p) => phase_open[phase_index(p)] = Some(ts),
            EventKind::PhaseEnd(p) => {
                let i = phase_index(p);
                if let Some(start) = phase_open[i].take() {
                    let ns = ts.saturating_sub(start);
                    phase_ns[i] += ns;
                    match p {
                        Phase::Flags => flags_count += 1,
                        Phase::Dispute => dispute_ns.push(ns),
                        _ => {}
                    }
                    spans.push(span(PHASE_SPAN_NAMES[i], start, ts, ev.job, ev.instance));
                }
            }
            EventKind::PlanRepair { ns } | EventKind::PlanFullRecompute { ns } => repair_ns += ns,
            EventKind::NodeExposed { .. } => exposed += 1,
            _ => {}
        }
    }
    steps.extend(step.take());
    let all_steps_batched = steps.iter().all(|s| s.max_open == s.starts);
    let mut step_ns: Vec<u64> = steps.iter().map(|s| s.end - s.start).collect();
    for s in &steps {
        spans.push(span("step", s.start, s.end, s.key.0, s.key.1));
    }
    step_ns.sort_unstable();
    let steps_total: u64 = step_ns.iter().sum();

    let a = &it.report.aggregate;
    let equality_ns = a.latency.equality.sum();
    let [phase1, _, flags, dispute] = phase_ns;
    let f = |x: u64| x as f64;
    let us = |x: u64| x as f64 / 1e3;
    let in_steps = f(phase1) + f(equality_ns) + f(flags) + f(dispute) + f(repair_ns);
    let rows = vec![
        ("scenario.topology_build", f(it.topology_ns)),
        ("plan.build", f(it.plan_build_ns)),
        ("plan.fetch_other", f(it.fetch_ns) - f(it.plan_build_ns)),
        (
            "setup.other",
            f(it.setup_ns) - f(it.topology_ns) - f(it.fetch_ns),
        ),
        ("scenario.sweep_orchestration", f(it.sweep_ns) - f(job_ns)),
        ("scenario.job_other", f(job_ns) - f(steps_total)),
        ("engine.instance_other", f(steps_total) - in_steps),
        ("phase1", f(phase1)),
        ("equality", f(equality_ns)),
        ("flags", f(flags)),
        ("dispute", f(dispute)),
        ("plan.repair", f(repair_ns)),
        ("scenario.report_json", f(it.json_ns)),
        (
            "unattributed",
            f(it.call_ns) - f(it.setup_ns) - f(it.sweep_ns) - f(it.json_ns),
        ),
    ];
    let row = |name: &str| {
        rows.iter()
            .find(|r| r.0 == name)
            .map(|r| r.1)
            .unwrap_or_default()
    };

    let (tail_pct, tail_ns) = tail(&step_ns);
    let rounds = a.total_dispute_rounds as f64;
    let lookups = (a.plan_hits + a.plan_misses) as f64;
    dispute_ns.sort_unstable();
    let metrics = vec![
        ("plan.build_ns", f(it.plan_build_ns), "ns"),
        ("plan.builds", it.built.len() as f64, "count"),
        ("plan.fetch_other_ns", row("plan.fetch_other"), "ns"),
        ("plan.hit_ratio", ratio(a.plan_hits as f64, lookups), "frac"),
        ("plan.repairs", f(a.plan_repairs), "count"),
        ("plan.full_recomputes", f(a.plan_full_recomputes), "count"),
        ("plan.repair_ns", f(repair_ns), "ns"),
        ("engine.instances", a.total_instances as f64, "count"),
        ("engine.steps", step_ns.len() as f64, "count"),
        ("engine.step_p50_us", us(percentile(&step_ns, 50.0)), "us"),
        ("engine.step_tail_us", us(tail_ns), "us"),
        ("engine.step_tail_pct", tail_pct, "percentile"),
        (
            "engine.instance_other_ns",
            row("engine.instance_other"),
            "ns",
        ),
        ("phase1.ns", f(phase1), "ns"),
        ("equality.ns", f(equality_ns), "ns"),
        ("flags.ns", f(flags), "ns"),
        ("flags.count", f(flags_count), "count"),
        ("dispute.ns", f(dispute), "ns"),
        ("dispute.rounds", rounds, "count"),
        (
            "dispute.round_p50_ms",
            us(percentile(&dispute_ns, 50.0)) / 1e3,
            "ms",
        ),
        (
            "dispute.exposed_per_round",
            ratio(f(exposed), rounds),
            "nodes/round",
        ),
        ("scenario.topology_build_ns", f(it.topology_ns), "ns"),
        ("scenario.job_other_ns", row("scenario.job_other"), "ns"),
        (
            "scenario.sweep_orchestration_ns",
            row("scenario.sweep_orchestration"),
            "ns",
        ),
        ("scenario.report_json_ns", f(it.json_ns), "ns"),
        ("setup.other_ns", row("setup.other"), "ns"),
        ("trace.wall_ns", f(it.wall_ns), "ns"),
        ("unattributed_ns", row("unattributed"), "ns"),
        (
            "unattributed_frac",
            ratio(row("unattributed"), f(it.wall_ns)),
            "frac",
        ),
    ];
    Attribution {
        metrics,
        rows,
        spans,
        all_steps_batched,
    }
}

fn span(name: &'static str, start_ns: u64, end_ns: u64, job: u64, instance: u64) -> Span {
    Span {
        name,
        start_ns,
        end_ns,
        job,
        instance,
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Nearest-rank percentile of sorted samples (0 for none).
fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest of p99.9 / p99 / p90 / p50 with at least ten samples
/// beyond it, as `(percentile, value)`; the median when none has.
fn tail(sorted: &[u64]) -> (f64, u64) {
    let n = sorted.len() as f64;
    let p = [99.9, 99.0, 90.0]
        .into_iter()
        .find(|p| n * (1.0 - p / 100.0) >= 10.0)
        .unwrap_or(50.0);
    (p, percentile(sorted, p))
}

/// The planning split: each step of `ExecutionPlan::build`, timed by
/// calling it on the networks the setup pass planned, next to a fresh
/// build of the same network. Returns `(metric, ns)` pairs; the residual
/// of those builds' reported time against the five steps is
/// `plan.other_ns`.
pub fn planning_split(plans: &[Arc<ExecutionPlan>]) -> Result<Vec<(&'static str, f64)>, String> {
    let mut ns = [0u64; 5];
    let mut build_ns = 0u64;
    let mut timed = |i: usize, work: &mut dyn FnMut()| {
        let t = mono_now();
        work();
        ns[i] += elapsed_ns(t);
    };
    for plan in plans {
        let (g, f) = (plan.graph(), plan.f());
        build_ns += ExecutionPlan::build(g.clone(), f)
            .map_err(|e| format!("re-planning a setup network failed: {e}"))?
            .build_wall_ns();
        let mut gamma = 0;
        timed(0, &mut || {
            black_box(supports_byzantine_broadcast(g, f));
        });
        timed(1, &mut || {
            black_box(PathRouter::build(g, f));
        });
        timed(2, &mut || {
            black_box(rho_k(g, f, &BTreeSet::new()));
        });
        timed(3, &mut || gamma = black_box(gamma_k(g, SOURCE)));
        timed(4, &mut || {
            black_box(pack_arborescences(g, SOURCE, gamma));
        });
    }
    let names = [
        "plan.connectivity_ns",
        "plan.router_ns",
        "plan.rho_ns",
        "plan.gamma_ns",
        "plan.pack_ns",
    ];
    let mut out: Vec<(&'static str, f64)> = names
        .iter()
        .zip(ns)
        .map(|(&name, v)| (name, v as f64))
        .collect();
    let steps: u64 = ns.iter().sum();
    out.push(("plan.other_ns", build_ns as f64 - steps as f64));
    Ok(out)
}
