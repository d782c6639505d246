//! The measurement loop shared by every workload, and the metrics it
//! derives from the loop's samples and the trace.

use std::collections::BTreeMap;
use std::fmt::Display;
use std::time::{Duration, Instant};

use crate::manifest::{END_TO_END, PER_LAYER};
use crate::procfs;
use crate::stats::{median, percentile};
use crate::trace::{summarize, Summary, Tracer};

/// Set-ups per run: at least `SETUP_MIN_REPS`, and more (up to
/// `SETUP_MAX_REPS`) until `SETUP_MIN_SECONDS` have been spent, so that a
/// set-up of a few milliseconds still gets a median over enough repeats to
/// be steady. `setup_s` is their median.
const SETUP_MIN_REPS: usize = 5;
const SETUP_MAX_REPS: usize = 50;
const SETUP_MIN_SECONDS: f64 = 1.0;
/// Fewest measured rounds per run, whatever `--seconds` says.
const MIN_ROUNDS: usize = 5;
/// Fewest single-patient latency samples per untraced run.
const MIN_QUERIES: usize = 1000;
/// A run stops measuring after this many times `--seconds` (and two
/// rounds, one of them traced in a traced run), even short of `MIN_ROUNDS`
/// or `MIN_QUERIES`, so it always ends in bounded time.
const HARD_STOP_FACTOR: u32 = 3;

/// Output checks: every checked operation and every failed one.
#[derive(Debug, Default)]
pub struct Checks {
    /// Operations checked.
    pub attempted: u64,
    /// Operations that failed or gave a wrong output.
    pub failed: u64,
    /// The first few failure messages, for the report.
    pub messages: Vec<String>,
}

impl Checks {
    /// Records one checked operation; `what` describes a failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Unwraps a library result, recording an error as a failed operation.
    pub fn ok<T, E: Display>(&mut self, what: &str, result: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.fail(format!("{what}: {e}"));
                None
            }
        }
    }

    fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.messages.len() < 8 {
            self.messages.push(message);
        }
    }
}

/// What a workload's round and set-up code works with.
#[derive(Debug)]
pub struct Ctx {
    /// Span recorder, enabled only in traced rounds and set-ups.
    pub tracer: Tracer,
    /// Output checks.
    pub checks: Checks,
    /// Single-patient request latencies, in microseconds.
    pub query_us: Vec<f64>,
}

/// One measured round's end-to-end figures.
#[derive(Debug, Clone, Copy)]
pub struct Round {
    /// Wall seconds of the workload's pass.
    pub pass_s: f64,
    /// Accuracy of the round's predictions.
    pub accuracy: f64,
}

/// A workload: built by `setup`, then measured one round at a time.
pub trait Workload: Sized {
    /// Whether the run is pinned to one CPU, so that the library's pool
    /// has one thread and no parallel region waits on a second core.
    const ONE_CPU: bool = false;

    /// Builds the workload's inputs and state from `seed`.
    fn setup(seed: u64, ctx: &mut Ctx) -> Result<Self, String>;

    /// Runs one round: the workload's pass plus its single-patient requests
    /// (pushed to `ctx.query_us`).
    fn round(&mut self, ctx: &mut Ctx) -> Round;

    /// Workload-specific figures for the human-readable report.
    fn report(&self) -> Vec<(&'static str, f64, &'static str)> {
        Vec::new()
    }

    /// Removes anything the workload wrote to disk.
    fn cleanup(&mut self) {}
}

/// A finished run.
#[derive(Debug)]
pub struct Outcome {
    /// Output checks.
    pub checks: Checks,
    /// Metrics in declaration order: name, value, unit.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Extra figures for the human-readable report.
    pub report: Vec<(&'static str, f64, &'static str)>,
}

/// Counters sampled around measured rounds.
#[derive(Debug, Default)]
struct Runtime {
    wall_s: f64,
    cpu_s: f64,
    switches: u64,
    steal_ticks: u64,
    total_ticks: u64,
}

impl Runtime {
    fn steal_share(&self) -> f64 {
        self.steal_ticks as f64 / self.total_ticks.max(1) as f64
    }
}

/// Runs workload `W`: set-ups, one warm-up round, then measured rounds for
/// `seconds`. With `trace`, rounds alternate untraced and traced, and the
/// per-layer metrics replace the end-to-end ones.
pub fn run<W: Workload>(seed: u64, seconds: u64, trace: bool) -> Result<Outcome, String> {
    if W::ONE_CPU {
        procfs::pin_to_one_cpu()?;
    }
    let mut ctx = Ctx {
        tracer: Tracer::new(),
        checks: Checks::default(),
        query_us: Vec::new(),
    };
    ctx.tracer.set_enabled(trace);
    let mut setup_s: Vec<f64> = Vec::new();
    let mut workload: Option<W> = None;
    while setup_s.len() < SETUP_MIN_REPS
        || (setup_s.len() < SETUP_MAX_REPS && setup_s.iter().sum::<f64>() < SETUP_MIN_SECONDS)
    {
        if let Some(mut old) = workload.take() {
            old.cleanup();
        }
        let root = ctx.tracer.enter("setup");
        let start = Instant::now();
        let built = W::setup(seed, &mut ctx);
        setup_s.push(start.elapsed().as_secs_f64());
        ctx.tracer.exit(root);
        workload = Some(built?);
    }
    let mut w = workload.ok_or("no set-up ran")?;

    ctx.tracer.set_enabled(false);
    w.round(&mut ctx);
    ctx.query_us.clear();

    let budget = Duration::from_secs(seconds);
    let start = Instant::now();
    let mut untraced_wall = Vec::new();
    let mut traced_wall = Vec::new();
    let mut rounds = Vec::new();
    let mut runtime = Runtime::default();
    let mut host = Runtime::default();
    loop {
        let elapsed = start.elapsed();
        let enough = elapsed >= budget
            && rounds.len() >= MIN_ROUNDS
            && (trace || ctx.query_us.len() >= MIN_QUERIES);
        let overdue = elapsed >= (budget * HARD_STOP_FACTOR).max(Duration::from_secs(1));
        if enough || (overdue && rounds.len() >= 2) {
            break;
        }
        let traced = trace && rounds.len() % 2 == 1;
        ctx.tracer.set_enabled(traced);
        let cpu0 = procfs::process_cpu_seconds().unwrap_or(0.0);
        let switches0 = procfs::thread_voluntary_switches().unwrap_or(0);
        let (steal0, total0) = procfs::steal_and_total_ticks().unwrap_or((0, 0));
        let t = Instant::now();
        let root = ctx.tracer.enter("round");
        let round = w.round(&mut ctx);
        ctx.tracer.exit(root);
        let wall = t.elapsed().as_secs_f64();
        let (steal1, total1) = procfs::steal_and_total_ticks().unwrap_or((0, 0));
        let host_round = if traced { &mut runtime } else { &mut host };
        host_round.steal_ticks += steal1.saturating_sub(steal0);
        host_round.total_ticks += total1.saturating_sub(total0);
        if traced {
            runtime.wall_s += wall;
            runtime.cpu_s += procfs::process_cpu_seconds().unwrap_or(0.0) - cpu0;
            runtime.switches += procfs::thread_voluntary_switches().unwrap_or(0) - switches0;
            traced_wall.push(wall);
        } else {
            untraced_wall.push(wall);
        }
        rounds.push(round);
    }
    ctx.tracer.set_enabled(false);
    w.cleanup();

    let mut report = w.report();
    if !trace {
        let pass: Vec<f64> = rounds.iter().map(|r| r.pass_s).collect();
        // Tails and host noise, for reading the run; too unsteady on a
        // shared host to gate on.
        report.extend([
            (
                "query_p90_us",
                percentile(&ctx.query_us, 90.0).unwrap_or(0.0),
                "us",
            ),
            (
                "query_p99_us",
                percentile(&ctx.query_us, 99.0).unwrap_or(0.0),
                "us",
            ),
            ("query_samples", ctx.query_us.len() as f64, "count"),
            ("rounds", rounds.len() as f64, "count"),
            ("pass_s_min", percentile(&pass, 0.0).unwrap_or(0.0), "s"),
            ("pass_s_max", percentile(&pass, 100.0).unwrap_or(0.0), "s"),
            ("host_steal_share", host.steal_share(), "ratio"),
        ]);
    }
    let metrics = if trace {
        per_layer(&mut ctx, &runtime, &untraced_wall, &traced_wall)
    } else {
        end_to_end(&ctx, &setup_s, &rounds)
    };
    Ok(Outcome {
        checks: ctx.checks,
        metrics,
        report,
    })
}

fn end_to_end(
    ctx: &Ctx,
    setup_s: &[f64],
    rounds: &[Round],
) -> Vec<(&'static str, f64, &'static str)> {
    let pass: Vec<f64> = rounds.iter().map(|r| r.pass_s).collect();
    let accuracy: Vec<f64> = rounds.iter().map(|r| r.accuracy).collect();
    let peak_mb = procfs::peak_rss_bytes().unwrap_or(0) as f64 / 1e6;
    END_TO_END
        .iter()
        .map(|m| {
            let value = match m.name {
                "setup_s" => median(setup_s),
                "pass_s" => median(&pass),
                "accuracy" => median(&accuracy),
                "query_p50_us" => percentile(&ctx.query_us, 50.0).unwrap_or(0.0),
                "peak_rss_mb" => peak_mb,
                other => unreachable!("end-to-end metric {other} has no definition"),
            };
            (m.name, value, m.unit)
        })
        .collect()
}

/// Per-round (or, for layers called only in set-up, per-set-up) value of
/// the time metric `name`, from the self times of the span it names.
fn layer_seconds(name: &str, rounds: &Summary, setups: &Summary) -> Option<f64> {
    let span = name.strip_suffix("_s")?;
    for summary in [rounds, setups] {
        if let Some(&ns) = summary.self_ns.get(span) {
            return Some(ns as f64 / 1e9 / summary.roots.max(1) as f64);
        }
    }
    Some(0.0)
}

fn layer_percentile(name: &str, rounds: &Summary, setups: &Summary) -> Option<f64> {
    let (span, p) = if let Some(span) = name.strip_suffix("_us_p50") {
        (span, 50.0)
    } else {
        (name.strip_suffix("_us_p99")?, 99.0)
    };
    let durations = rounds
        .durations_ns
        .get(span)
        .or_else(|| setups.durations_ns.get(span));
    let us: Vec<f64> =
        durations.map_or_else(Vec::new, |d| d.iter().map(|&ns| ns as f64 / 1e3).collect());
    Some(percentile(&us, p).unwrap_or(0.0))
}

/// `a / b`, or 0 when nothing was counted.
fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

fn per_layer(
    ctx: &mut Ctx,
    runtime: &Runtime,
    untraced_wall: &[f64],
    traced_wall: &[f64],
) -> Vec<(&'static str, f64, &'static str)> {
    let rounds = summarize(ctx.tracer.spans(), "round");
    let setups = summarize(ctx.tracer.spans(), "setup");
    let counts: &BTreeMap<&'static str, f64> = ctx.tracer.counts();
    let n = rounds.roots.max(1) as f64;
    let count = |key: &str| counts.get(key).copied().unwrap_or(0.0);
    let wall_s = rounds.wall_ns as f64 / 1e9;
    let unattributed_s = rounds.unattributed_ns as f64 / 1e9;

    let metrics: Vec<(&'static str, f64, &'static str)> = PER_LAYER
        .iter()
        .map(|m| {
            let value = match m.name {
                "runtime.cpu_per_wall" => ratio(runtime.cpu_s, runtime.wall_s),
                "runtime.main_ctx_switches_per_op" => {
                    ratio(runtime.switches as f64, rounds.calls as f64)
                }
                "runtime.nproc" => procfs::nproc() as f64,
                "runtime.pool_threads" => rayon::current_num_threads() as f64,
                "runtime.host_steal_share" => runtime.steal_share(),
                "hdc.loocv.ns_per_pair" => {
                    let ns = rounds.self_ns.get("hdc.loocv.run").copied().unwrap_or(0);
                    ratio(ns as f64, count("hdc.loocv.pairs"))
                }
                "serve.bank_bytes_per_query" => {
                    ratio(count("serve.bank_bytes_scanned"), count("serve.queries"))
                }
                "serve.snapshot.files_written"
                | "serve.snapshot.bytes_written"
                | "serve.recovery.quarantined" => count(m.name) / n,
                "trace.round_wall_s" => wall_s / n,
                "trace.unattributed_s" => unattributed_s / n,
                "trace.unattributed_share" => ratio(unattributed_s, wall_s),
                "trace.overhead_share" => {
                    median(traced_wall) / median(untraced_wall).max(1e-12) - 1.0
                }
                "trace.spans_per_round" => rounds.calls as f64 / n,
                "trace.rounds" => rounds.roots as f64,
                other => layer_percentile(other, &rounds, &setups)
                    .or_else(|| layer_seconds(other, &rounds, &setups))
                    .unwrap_or_else(|| unreachable!("per-layer metric {other} has no definition")),
            };
            (m.name, value, m.unit)
        })
        .collect();

    // Reconcile: the per-round layer self times reported above, plus the
    // residual no layer span covers, must add back up to the traced wall
    // time per round. A span without a metric of its own would break it.
    let has_metric = |span: &str| {
        PER_LAYER
            .iter()
            .any(|m| m.name.strip_suffix("_s") == Some(span))
    };
    let unreported: Vec<&str> = rounds
        .self_ns
        .keys()
        .copied()
        .filter(|s| !has_metric(s))
        .collect();
    let reported: f64 = metrics
        .iter()
        .filter(|(name, _, _)| {
            name.strip_suffix("_s")
                .is_some_and(|span| rounds.self_ns.contains_key(span))
        })
        .map(|(_, value, _)| value)
        .sum();
    let (unattributed, wall) = (unattributed_s / n, wall_s / n);
    ctx.checks.check(
        unreported.is_empty() && (reported + unattributed - wall).abs() <= 1e-6 * wall.max(1e-3),
        || {
            format!(
                "trace does not reconcile: layers {reported:.6} s + unattributed \
                 {unattributed:.6} s vs wall {wall:.6} s per round; spans without a metric: \
                 {unreported:?}"
            )
        },
    );
    metrics
}
