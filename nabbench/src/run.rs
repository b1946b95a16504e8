//! One benchmark iteration — setup pass, sweep pass, canonical JSON — and
//! the correctness gate every iteration's output goes through.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;

use nab::{ExecutionPlan, PlanCache};
use nab_obs::clock::{elapsed_ns, mono_now};
use nab_obs::trace::{self, BufferSink, NullSink, TraceSink};
use nab_scenario::topology::ResolveCtx;
use nab_scenario::{expand_jobs, run_sweep_with_options, ScenarioSpec, SweepOptions, SweepReport};

use crate::workload::Workload;

/// The benchmark's clock. In traced runs its epoch is taken right after
/// the program's trace epoch is pinned, so the benchmark's own spans and
/// the program's trace events share one time base (to within the few
/// microseconds between the two reads).
pub struct Clock {
    epoch: Instant,
}

impl Clock {
    pub fn new(align_with_trace: bool) -> Clock {
        if align_with_trace {
            // Installing any sink pins the process-wide trace epoch.
            trace::set_thread_sink(Some(Arc::new(NullSink)));
            trace::set_thread_sink(None);
        }
        Clock { epoch: mono_now() }
    }

    /// Nanoseconds since the epoch.
    pub fn now(&self) -> u64 {
        elapsed_ns(self.epoch)
    }
}

/// A span the benchmark records around one of its calls into the program.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub job: u64,
    /// The instance index for program spans; the mutation epoch for the
    /// setup pass's per-network spans.
    pub instance: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Everything one iteration measured and produced.
pub struct Iteration {
    /// The whole `iterate` call, plan-cache creation and teardown included.
    pub call_ns: u64,
    /// Setup pass + sweep pass + canonical JSON, start to end.
    pub wall_ns: u64,
    pub setup_ns: u64,
    pub sweep_ns: u64,
    pub json_ns: u64,
    /// Setup-pass time in `TopologyTemplate::build` and `graph_for_epoch`.
    pub topology_ns: u64,
    /// Setup-pass time in `PlanCache::fetch`.
    pub fetch_ns: u64,
    /// Build time the cache reported for the setup pass's misses.
    pub plan_build_ns: u64,
    /// The plans the setup pass built (one per cache miss).
    pub built: Vec<Arc<ExecutionPlan>>,
    /// The benchmark's own spans: setup, its per-network calls, sweep, JSON.
    pub spans: Vec<Span>,
    pub report: SweepReport,
    pub json: String,
}

/// Runs one iteration on a fresh plan cache: the setup pass plans every
/// job's network and every mutation epoch's network (all cold), the
/// sweep pass runs on one worker against that warm cache, and the report
/// is serialized to canonical JSON. With `sink`, the sweep is traced.
pub fn iterate(
    spec: &ScenarioSpec,
    clock: &Clock,
    sink: Option<Arc<BufferSink>>,
) -> Result<Iteration, String> {
    let call_start = clock.now();
    let cache = PlanCache::new();
    let mut spans = Vec::new();
    let (mut topology_ns, mut fetch_ns, mut plan_build_ns) = (0, 0, 0);
    let mut built = Vec::new();

    let start = clock.now();
    for job in expand_jobs(spec) {
        let index = job.index as u64;
        let t = clock.now();
        let base = spec
            .topology
            .build(&ResolveCtx {
                n: job.n,
                cap: job.cap,
                f: job.f,
                seed: job.seed,
            })
            .map_err(|e| format!("job {index}: topology rejected: {e}"))?;
        spans.push(span("setup.topology", t, clock.now(), index, 0));
        let epochs: BTreeSet<usize> = (0..spec.q).map(|i| spec.mutations.epoch(i)).collect();
        for epoch in epochs {
            let mutated;
            let graph = if epoch == 0 {
                &base
            } else {
                let t = clock.now();
                mutated = spec.mutations.graph_for_epoch(&base, epoch, job.seed);
                spans.push(span("setup.topology", t, clock.now(), index, epoch as u64));
                &mutated
            };
            let t = clock.now();
            let fetch = cache
                .fetch(graph, job.f)
                .map_err(|e| format!("job {index}: network rejected: {e}"))?;
            spans.push(span("setup.fetch", t, clock.now(), index, epoch as u64));
            if !fetch.hit {
                plan_build_ns += fetch.build_ns;
                built.push(fetch.plan);
            }
        }
    }
    let sweep_start = clock.now();
    let report = run_sweep_with_options(
        spec,
        &SweepOptions {
            threads: 1,
            cache: Some(&cache),
            trace: sink.map(|s| s as Arc<dyn TraceSink>),
            progress: None,
        },
    )?;
    let json_start = clock.now();
    let json = report.to_json();
    let end = clock.now();
    drop(cache);

    for s in &spans {
        match s.name {
            "setup.topology" => topology_ns += s.ns(),
            _ => fetch_ns += s.ns(),
        }
    }
    spans.push(span("setup", start, sweep_start, 0, 0));
    spans.push(span("sweep", sweep_start, json_start, 0, 0));
    spans.push(span("report.json", json_start, end, 0, 0));
    Ok(Iteration {
        call_ns: clock.now() - call_start,
        wall_ns: end - start,
        setup_ns: sweep_start - start,
        sweep_ns: json_start - sweep_start,
        json_ns: end - json_start,
        topology_ns,
        fetch_ns,
        plan_build_ns,
        built,
        spans,
        report,
        json,
    })
}

impl Iteration {
    /// The iteration's wall cut into parts that add up to `wall_ns`, in an
    /// order that is the same for every iteration of a spec: the setup
    /// pass's per-network calls and its remainder, then each job of the
    /// sweep (its measured `wall_ns`) and the sweep's remainder, then the
    /// JSON. The second value is how many of the parts are setup.
    fn parts(&self) -> (Vec<u64>, usize) {
        let mut parts: Vec<u64> = self
            .spans
            .iter()
            .filter(|s| s.name.starts_with("setup."))
            .map(Span::ns)
            .collect();
        let calls: u64 = parts.iter().sum();
        parts.push(self.setup_ns.saturating_sub(calls));
        let setup_parts = parts.len();
        let mut jobs = 0;
        for job in &self.report.jobs {
            let ns = job.result.as_ref().map_or(0, |m| m.wall_ns);
            jobs += ns;
            parts.push(ns);
        }
        parts.push(self.sweep_ns.saturating_sub(jobs));
        parts.push(self.json_ns);
        (parts, setup_parts)
    }
}

/// The fastest time of each part of an iteration (see `Iteration::parts`)
/// over a run's iterations.
///
/// On a machine shared with other tenants, co-runners slow this process
/// down by up to a factor of two, in spells from a fraction of a second
/// to minutes. The fastest time of each part, a single job or network,
/// needs only that part to run once in a quiet moment, so the sum of
/// these minima estimates an iteration on a quiet machine far more
/// steadily than the fastest or the median whole iteration does.
#[derive(Default)]
pub struct Fastest {
    parts: Vec<u64>,
    setup_parts: usize,
}

impl Fastest {
    pub fn add(&mut self, it: &Iteration) -> Result<(), String> {
        let (parts, setup_parts) = it.parts();
        if self.parts.is_empty() {
            self.parts = parts;
            self.setup_parts = setup_parts;
            return Ok(());
        }
        if parts.len() != self.parts.len() || setup_parts != self.setup_parts {
            return Err("iterations of the same spec were cut into different parts".into());
        }
        for (best, ns) in self.parts.iter_mut().zip(parts) {
            *best = (*best).min(ns);
        }
        Ok(())
    }

    /// Setup pass + sweep pass + JSON, in nanoseconds.
    pub fn wall_ns(&self) -> u64 {
        self.parts.iter().sum()
    }

    /// The setup pass, in nanoseconds.
    pub fn setup_ns(&self) -> u64 {
        self.parts[..self.setup_parts].iter().sum()
    }

    /// The sweep pass, in nanoseconds.
    pub fn sweep_ns(&self) -> u64 {
        let end = self.parts.len().saturating_sub(1);
        self.parts[self.setup_parts.min(end)..end].iter().sum()
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

/// The correctness gate. A job fails if it returned an error, if any
/// instance broke agreement or validity, or if it exceeded its dispute
/// budget. The run also fails if the workload lost its shape, or if the
/// canonical JSON of any pass (traced or not) differs from the first.
#[derive(Default)]
pub struct Gate {
    pub attempted: u64,
    pub failed: u64,
    pub problems: BTreeSet<String>,
    reference: Option<String>,
}

impl Gate {
    pub fn check(&mut self, workload: &Workload, spec: &ScenarioSpec, it: &Iteration) {
        for job in &it.report.jobs {
            self.attempted += 1;
            let why = match &job.result {
                Err(e) => Some(format!("error: {e}")),
                Ok(m) if !m.all_correct => Some("agreement or validity violated".into()),
                Ok(m) if m.dispute_budget_exceeded => Some("dispute budget exceeded".into()),
                Ok(_) => None,
            };
            if let Some(why) = why {
                self.failed += 1;
                self.problems.insert(format!("job {}: {why}", job.index));
            }
        }
        self.problems
            .extend(workload.shape_problems(spec, &it.report));
        match &self.reference {
            None => self.reference = Some(it.json.clone()),
            Some(r) if *r != it.json => {
                self.problems
                    .insert("canonical JSON differs between passes with the same seed".into());
            }
            Some(_) => {}
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }
}

/// Peak resident memory of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .map(|kb| kb as f64 / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".into())
}

/// Smallest of `values` (infinity for none).
pub fn min(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}
