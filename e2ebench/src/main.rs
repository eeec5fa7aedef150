//! End-to-end detection benchmark for SAQL.
//!
//! ```sh
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload replay_store --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Each run generates one seed's simulated enterprise trace (attack on),
//! computes the serial in-process reference alerts, then repeats the
//! workload until `--seconds` have passed. `--trace 0` reports the
//! end-to-end metrics of untraced repetitions; `--trace 1` alternates
//! untraced and traced repetitions and reports the per-layer metrics.
//! Either way the stage ledger of a traced repetition is printed next to
//! the result, and every repetition's alerts are checked against the
//! reference. The last stdout line is the JSON result.

mod check;
mod inputs;
mod job;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use check::{multiset_mismatch, sorted_lines, Reference};
use inputs::Inputs;
use job::{JobRun, JobSpec};
use serve::ServeRun;
use stats::MIN_WINDOW_SAMPLES;
use trace::Stage;

/// The benchmark's workloads (see `BENCHMARK.json` for why each exists).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    ReplayStore,
    ReplayStoreW2,
    ServePaced,
    ServeFloodDurable,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::ReplayStore,
        Workload::ReplayStoreW2,
        Workload::ServePaced,
        Workload::ServeFloodDurable,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::ReplayStore => "replay_store",
            Workload::ReplayStoreW2 => "replay_store_w2",
            Workload::ServePaced => "serve_paced",
            Workload::ServeFloodDurable => "serve_flood_durable",
        }
    }

    fn is_serve(self) -> bool {
        matches!(self, Workload::ServePaced | Workload::ServeFloodDurable)
    }

    fn durable(self) -> bool {
        self == Workload::ServeFloodDurable
    }

    /// The in-process job: the workload itself for replays, the serve
    /// core's work without the network for serve workloads.
    fn job(self) -> JobSpec {
        match self {
            Workload::ReplayStore => JobSpec::replay(0),
            Workload::ReplayStoreW2 => JobSpec::replay(2),
            Workload::ServePaced => JobSpec::serve_copy(false),
            Workload::ServeFloodDurable => JobSpec::serve_copy(true),
        }
    }

    fn rate(self) -> Option<f64> {
        (self == Workload::ServePaced).then_some(serve::PACED_RATE)
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: saql-e2ebench --workload <replay_store|replay_store_w2|serve_paced|serve_flood_durable> --seed <n> --seconds <n> --trace <0|1>";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut map: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument `{flag}`"))?;
        let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        if map.insert(key, value).is_some() {
            return Err(format!("--{key} given twice"));
        }
    }
    let get = |k: &str| map.get(k).copied().ok_or_else(|| format!("missing --{k}"));
    let workload = get("workload")?;
    let workload = Workload::ALL
        .into_iter()
        .find(|w| w.name() == workload)
        .ok_or_else(|| format!("unknown workload `{workload}`"))?;
    let num = |k: &str| -> Result<u64, String> {
        get(k)?
            .parse()
            .map_err(|_| format!("--{k} expects a whole number"))
    };
    let trace = match get("trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace expects 0 or 1, got `{other}`")),
    };
    if map.len() != 4 {
        return Err("unknown flag".into());
    }
    let seconds = num("seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload,
        seed: num("seed")?,
        seconds,
        trace,
    })
}

/// Operations attempted and failed, with the first few reasons.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    reasons: Vec<String>,
}

impl Tally {
    fn attempt(&mut self, n: u64) {
        self.attempted += n;
    }

    fn fail(&mut self, n: u64, why: impl FnOnce() -> String) {
        if n > 0 {
            self.failed += n;
            if self.reasons.len() < 8 {
                self.reasons.push(format!("{n} {}", why()));
            }
        }
    }
}

/// A work directory inside the checkout, removed when dropped.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave the parent only if another run still uses it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Check one in-process job repetition against the reference.
fn check_job(w: Workload, run: &JobRun, inputs: &Inputs, reference: &Reference, tally: &mut Tally) {
    let spec = w.job();
    let want: &[u8] = if spec.finish {
        &reference.jsonl
    } else {
        &reference.jsonl[..reference.live_jsonl_len]
    };
    tally.attempt(inputs.len() + sorted_lines(want).len() as u64);
    tally.fail(inputs.len().saturating_sub(run.events), || {
        "events not processed".into()
    });
    tally.fail(run.dropped_late, || "events dropped late".into());
    tally.fail(run.source_failures, || "source failures".into());
    tally.fail(run.dropped_alerts, || "alerts dropped".into());
    let mismatch = if spec.workers == 0 {
        // Serial runs must reproduce the reference byte for byte, in order.
        if run.alerts_jsonl == want {
            0
        } else {
            multiset_mismatch(&sorted_lines(want), &sorted_lines(&run.alerts_jsonl)).max(1)
        }
    } else {
        multiset_mismatch(&sorted_lines(want), &sorted_lines(&run.alerts_jsonl))
    };
    tally.fail(mismatch, || format!("alert mismatches ({})", w.name()));
}

/// Check one serve repetition against the reference.
fn check_serve(
    w: Workload,
    run: &ServeRun,
    inputs: &Inputs,
    reference: &Reference,
    tally: &mut Tally,
) {
    let per_query = if w.durable() {
        &reference.per_query_live
    } else {
        &reference.per_query_total
    };
    tally.attempt(inputs.len() + reference.audit_alerts() + per_query.values().sum::<u64>());
    tally.fail(inputs.len().saturating_sub(run.accepted), || {
        "events not accepted".into()
    });
    tally.fail(run.decode_errors, || "decode failures".into());
    tally.fail(run.shed, || "events shed".into());
    tally.fail(run.dropped_late, || "events dropped late".into());
    tally.fail(run.dropped_alerts, || "subscriber alerts dropped".into());
    tally.fail(run.source_failures, || "source failures".into());
    tally.fail(
        multiset_mismatch(&reference.audit_sorted, &run.audit_lines),
        || "audit alert mismatches".into(),
    );
    tally.fail(serve::count_mismatch(per_query, &run.per_query), || {
        "per-query delivered-count mismatches".into()
    });
}

/// End-to-end figures of one untraced repetition.
struct E2eRep {
    setup_s: f64,
    events: u64,
    wall_s: f64,
    cpu_s: f64,
    rss_mb: f64,
    /// (offered s after the repetition's first event, latency ms).
    latencies: Vec<(f64, f64)>,
}

impl E2eRep {
    fn events_per_s(&self) -> f64 {
        self.events as f64 / self.wall_s
    }

    fn cpu_us_per_event(&self) -> f64 {
        self.cpu_s * 1e6 / self.events.max(1) as f64
    }
}

/// Metrics in output order: `(name, value, unit)`.
type Metrics = Vec<(String, f64, &'static str)>;

/// Detection latency is summarized per window of offer time, then over the
/// windows of the run. Half a second holds 3.7k+ audit alerts on every
/// workload, enough for a p99 with 37 samples beyond it. The p99 is the
/// median window's: a run's tail is a typical window's tail, so one
/// descheduled moment on a shared two-core machine does not decide it.
const LATENCY_WINDOW_S: f64 = 0.5;

/// Throughput and CPU per event are the run's totals, and the p50 latency
/// the interquartile mean of the run's windows, not a median of
/// repetitions or windows. On a shared VM the host switches, at every time
/// scale from sub-second to minutes, between a contended and a faster
/// speed (serial replay at 165-180k vs 250-310k ev/s on a 2-vCPU Xeon VM).
/// A median of repetitions or windows, like a window's p50 over its pump
/// rounds, is a vote between the two and jumps with the share of fast
/// spells (replay p50 1.2 vs 0.7 ms, IQR/median 0.33-0.36 over ten seeds);
/// an average moves in proportion to that share. Window p99s are set by
/// stalls more than by that speed, and an average would let them in.
fn e2e_metrics(reps: &[E2eRep], tally: &mut Tally) -> (Metrics, usize) {
    let col = |f: &dyn Fn(&E2eRep) -> f64| reps.iter().map(f).collect::<Vec<_>>();
    let total = |f: &dyn Fn(&E2eRep) -> f64| reps.iter().map(f).sum::<f64>();
    let events = total(&|r| r.events as f64);
    let mut p50 = Vec::new();
    let mut p99 = Vec::new();
    let mut samples = 0;
    for rep in reps {
        samples += rep.latencies.len();
        let (a, b) = stats::windowed_percentiles(&rep.latencies, LATENCY_WINDOW_S);
        p50.extend(a);
        p99.extend(b);
    }
    if p99.is_empty() {
        tally.fail(1, || {
            format!("runs without a latency window of {MIN_WINDOW_SAMPLES}+ samples")
        });
    }
    let m = vec![
        ("events_per_s".into(), events / total(&|r| r.wall_s), "ev/s"),
        ("setup_s".into(), stats::median(&col(&|r| r.setup_s)), "s"),
        (
            "detect_latency_p50_ms".into(),
            stats::interquartile_mean(&p50),
            "ms",
        ),
        ("detect_latency_p99_ms".into(), stats::median(&p99), "ms"),
        (
            "cpu_us_per_event".into(),
            total(&|r| r.cpu_s) * 1e6 / events.max(1.0),
            "us",
        ),
        (
            "peak_rss_mb".into(),
            stats::median(&col(&|r| r.rss_mb)),
            "MiB",
        ),
    ];
    (m, samples)
}

/// The stage ledger of one traced repetition: self ns/event per layer and
/// share of the traced wall.
fn print_ledger(w: Workload, run: &JobRun, untraced_ev_s: f64) {
    let t = run.traced.as_ref().expect("traced run");
    let events = run.events.max(1) as f64;
    let wall_ns = run.wall_s * 1e9;
    println!(
        "stage ledger ({}, traced in-process {}, {} events, wall {:.1} ms):",
        w.name(),
        if w.is_serve() { "copy" } else { "run" },
        run.events,
        run.wall_s * 1e3
    );
    println!("  {:<20} {:>12} {:>8}", "stage", "self ns/ev", "share");
    let mut accounted = 0.0;
    for stage in Stage::ALL {
        let ns = t.self_ns[stage.index()] as f64;
        accounted += ns;
        if ns > 0.0 {
            println!(
                "  {:<20} {:>12.1} {:>7.1}%",
                stage_label(w, stage),
                ns / events,
                100.0 * ns / wall_ns
            );
        }
    }
    let traced_ev_s = events / run.wall_s;
    println!(
        "  {:<20} {:>12.1} {:>7.1}%",
        "unaccounted",
        (wall_ns - accounted) / events,
        100.0 * (1.0 - accounted / wall_ns)
    );
    println!(
        "  tracing overhead: {:.1}% ({:.0} traced vs {:.0} untraced ev/s)",
        100.0 * (1.0 - traced_ev_s / untraced_ev_s),
        traced_ev_s,
        untraced_ev_s
    );
}

fn stage_label(w: Workload, stage: Stage) -> &'static str {
    match stage {
        Stage::Drive if w.job().workers > 0 => "runtime (coordinator)",
        Stage::Drive => "engine (drive)",
        Stage::Finish => "engine (finish)",
        s => s.name(),
    }
}

/// Per-layer metrics from the traced repetitions (and, on serve
/// workloads, the serve repetitions measured beside them).
fn layer_metrics(
    w: Workload,
    inputs: &Inputs,
    traced: &[JobRun],
    untraced_ev_s: &[f64],
    serve_runs: &[ServeRun],
    register_s: &[f64],
    table: &[(&'static str, f64)],
) -> Metrics {
    let per_event = |f: &dyn Fn(&JobRun) -> f64| {
        stats::median(
            &traced
                .iter()
                .map(|r| f(r) / r.events.max(1) as f64)
                .collect::<Vec<_>>(),
        )
    };
    let med = |f: &dyn Fn(&JobRun) -> f64| stats::median(&traced.iter().map(f).collect::<Vec<_>>());
    let self_ns =
        |r: &JobRun, s: Stage| r.traced.as_ref().expect("traced").self_ns[s.index()] as f64;
    fn t(r: &JobRun) -> &job::Traced {
        r.traced.as_ref().expect("traced")
    }
    let parallel = w.job().workers > 0;
    let pooled = |f: &dyn Fn(&JobRun) -> &Vec<f64>| {
        stats::sorted(traced.iter().flat_map(|r| f(r).iter().copied()).collect())
    };
    let sync = pooled(&|r| &t(r).sync_ns);
    let capture = pooled(&|r| &t(r).capture_ns);
    let write = pooled(&|r| &t(r).write_ns);
    let skew = |f: &dyn Fn(&saql_engine::scheduler::SchedulerStats) -> u64| {
        med(&|r| {
            let v: Vec<f64> = r.shard_stats.iter().map(|s| f(s) as f64).collect();
            let mean = v.iter().sum::<f64>() / v.len().max(1) as f64;
            if mean > 0.0 {
                v.iter().cloned().fold(0.0, f64::max) / mean
            } else {
                0.0
            }
        })
    };
    let traced_ev_s = stats::median(
        &traced
            .iter()
            .map(|r| r.events as f64 / r.wall_s)
            .collect::<Vec<_>>(),
    );
    let srv =
        |f: &dyn Fn(&ServeRun) -> f64| stats::median(&serve_runs.iter().map(f).collect::<Vec<_>>());
    let srv_sum = |f: &dyn Fn(&ServeRun) -> u64| serve_runs.iter().map(f).sum::<u64>() as f64;
    let untraced_wall_s = inputs.len() as f64 / stats::median(untraced_ev_s);
    let send_lag = stats::sorted(
        serve_runs
            .iter()
            .flat_map(|r| r.send_lag_ms.iter().copied())
            .collect(),
    );

    let mut m: Metrics = vec![
        (
            "source.self_ns_per_event".into(),
            med(&|r| self_ns(r, Stage::Source) / t(r).pulled.max(1) as f64),
            "ns",
        ),
        (
            "source.bytes_per_event".into(),
            inputs.bytes_per_event(w.job().jsonl),
            "bytes",
        ),
        (
            "merge.self_ns_per_event".into(),
            per_event(&|r| self_ns(r, Stage::Merge)),
            "ns",
        ),
        (
            "merge.dropped_late".into(),
            med(&|r| r.dropped_late as f64),
            "count",
        ),
        (
            "batch.ns_per_event".into(),
            per_event(&|r| self_ns(r, Stage::Batch)),
            "ns",
        ),
        (
            "engine.drive_ns_per_event".into(),
            if parallel {
                0.0
            } else {
                per_event(&|r| self_ns(r, Stage::Drive))
            },
            "ns",
        ),
        (
            "engine.finish_ms".into(),
            med(&|r| self_ns(r, Stage::Finish) / 1e6),
            "ms",
        ),
        (
            "engine.master_checks_per_event".into(),
            per_event(&|r| r.stats.master_checks as f64),
            "count",
        ),
        (
            "engine.deliveries_per_event".into(),
            per_event(&|r| r.stats.deliveries as f64),
            "count",
        ),
    ];
    for (name, ns) in table {
        m.push((format!("query.{name}.ns_per_event"), *ns, "ns"));
    }
    m.extend([
        (
            "sink.ns_per_alert".into(),
            med(&|r| self_ns(r, Stage::Sink) / t(r).sink_alerts.max(1) as f64),
            "ns",
        ),
        (
            "sink.bytes_per_alert".into(),
            med(&|r| t(r).sink_bytes as f64 / t(r).sink_alerts.max(1) as f64),
            "bytes",
        ),
        (
            "sink.alerts".into(),
            med(&|r| t(r).sink_alerts as f64),
            "count",
        ),
        (
            "checkpoint.capture_ms".into(),
            stats::median(&capture) / 1e6,
            "ms",
        ),
        (
            "checkpoint.write_ms".into(),
            stats::median(&write) / 1e6,
            "ms",
        ),
        (
            "checkpoint.bytes".into(),
            med(&|r| t(r).checkpoint_bytes as f64),
            "bytes",
        ),
        (
            "durable.append_ns_per_event".into(),
            per_event(&|r| self_ns(r, Stage::DurableAppend)),
            "ns",
        ),
        (
            "durable.sync_p50_ms".into(),
            stats::percentile(&sync, 0.5).unwrap_or(0.0) / 1e6,
            "ms",
        ),
        (
            "durable.sync_p99_ms".into(),
            stats::percentile(&sync, 0.99).unwrap_or(0.0) / 1e6,
            "ms",
        ),
        (
            "runtime.drive_ns_per_event".into(),
            if parallel {
                per_event(&|r| self_ns(r, Stage::Drive))
            } else {
                0.0
            },
            "ns",
        ),
        (
            "runtime.shard_check_skew".into(),
            skew(&|s| s.master_checks),
            "ratio",
        ),
        (
            "runtime.shard_delivery_skew".into(),
            skew(&|s| s.deliveries),
            "ratio",
        ),
        (
            "lang.register_ms".into(),
            stats::median(register_s) * 1e3,
            "ms",
        ),
        (
            "serve.write_blocked_ms".into(),
            srv(&|r| r.write_blocked_s * 1e3),
            "ms",
        ),
        ("serve.drain_ms".into(), srv(&|r| r.drain_ms), "ms"),
        (
            "serve.send_lag_p99_ms".into(),
            stats::percentile(&send_lag, 0.99).unwrap_or(0.0),
            "ms",
        ),
        (
            "serve.delivery_latency_p50_us".into(),
            srv(&|r| r.delivery_p50_us),
            "us",
        ),
        (
            "serve.delivery_latency_p99_us".into(),
            srv(&|r| r.delivery_p99_us),
            "us",
        ),
        (
            "serve.dropped_alerts".into(),
            srv_sum(&|r| r.dropped_alerts),
            "count",
        ),
        ("serve.shed_events".into(), srv_sum(&|r| r.shed), "count"),
        (
            "serve.decode_failures".into(),
            srv_sum(&|r| r.decode_errors),
            "count",
        ),
        (
            "serve.overhead_ns_per_event".into(),
            if serve_runs.is_empty() {
                0.0
            } else {
                (srv(&|r| r.wall_s) - untraced_wall_s) * 1e9 / inputs.len().max(1) as f64
            },
            "ns",
        ),
        (
            "trace.unaccounted_frac".into(),
            med(&|r| {
                let accounted: u64 = t(r).self_ns.iter().sum();
                1.0 - accounted as f64 / (r.wall_s * 1e9)
            }),
            "frac",
        ),
        (
            "trace.overhead_frac".into(),
            1.0 - traced_ev_s / stats::median(untraced_ev_s),
            "frac",
        ),
    ]);
    m
}

fn render_result(tally: &Tally, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                inputs::json_str(name),
                if value.is_finite() { *value } else { 0.0 },
                inputs::json_str(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        tally.failed == 0,
        tally.attempted.max(1),
        tally.failed,
        body.join(",")
    )
}

fn run(args: &Args) -> Result<String, String> {
    let w = args.workload;
    let work =
        WorkDir(Path::new(".bench_work").join(format!("{}-{}", w.name(), std::process::id())));
    std::fs::create_dir_all(&work.0).map_err(|e| format!("work dir: {e}"))?;
    let spec = w.job();

    let t_gen = Instant::now();
    let inputs = Inputs::generate(args.seed, &work.0, !spec.jsonl, spec.jsonl)?;
    let reference = Reference::compute(&inputs);
    println!("env: {}", inputs::environment(args.seed));
    println!(
        "inputs: seed {} -> {} events, {} hosts, {} store bytes, {} jsonl bytes, {} reference alerts ({} audit); built in {:.2} s",
        inputs.seed,
        inputs.len(),
        inputs.hosts,
        inputs.store_bytes,
        inputs.jsonl.len(),
        reference.alerts(),
        reference.audit_alerts(),
        stats::secs(t_gen)
    );

    let mut tally = Tally::default();
    tally.attempt(reference.undetected.len() as u64 + 5);
    tally.fail(reference.undetected.len() as u64, || {
        format!("attack steps undetected: {:?}", reference.undetected)
    });

    let budget = Duration::from_secs(args.seconds);
    let t_measure = Instant::now();
    let mut e2e: Vec<E2eRep> = Vec::new();
    let mut untraced_ev_s: Vec<f64> = Vec::new();
    let mut traced: Vec<JobRun> = Vec::new();
    let mut serve_runs: Vec<ServeRun> = Vec::new();
    let mut register_s: Vec<f64> = Vec::new();
    let mut table = Vec::new();

    let serve_rep = |tally: &mut Tally| -> Result<ServeRun, String> {
        let run = serve::run(&inputs, &work.0, w.durable(), w.rate())?;
        check_serve(w, &run, &inputs, &reference, tally);
        Ok(run)
    };
    let job_rep = |tally: &mut Tally, traced: bool| -> Result<JobRun, String> {
        let run = if traced {
            job::run_traced(&spec, &inputs, &work.0)?
        } else {
            job::run_untraced(&spec, &inputs, &work.0)?
        };
        check_job(w, &run, &inputs, &reference, tally);
        Ok(run)
    };

    loop {
        let done_measuring = t_measure.elapsed() >= budget;
        if !args.trace {
            if done_measuring && !e2e.is_empty() {
                break;
            }
            e2e.push(if w.is_serve() {
                let r = serve_rep(&mut tally)?;
                E2eRep {
                    setup_s: r.setup_s,
                    events: r.events,
                    wall_s: r.wall_s,
                    cpu_s: r.cpu_s,
                    rss_mb: r.rss_growth_mb,
                    latencies: r.latencies,
                }
            } else {
                let r = job_rep(&mut tally, false)?;
                untraced_ev_s.push(r.events as f64 / r.wall_s);
                E2eRep {
                    setup_s: r.setup_s,
                    events: r.events,
                    wall_s: r.wall_s,
                    cpu_s: r.cpu_s,
                    rss_mb: r.rss_growth_mb,
                    latencies: r.latencies,
                }
            });
        } else {
            if done_measuring && traced.len() >= 2 {
                break;
            }
            if w.is_serve() {
                serve_runs.push(serve_rep(&mut tally)?);
            }
            let plain = job_rep(&mut tally, false)?;
            untraced_ev_s.push(plain.events as f64 / plain.wall_s);
            register_s.push(plain.register_s);
            let run = job_rep(&mut tally, true)?;
            register_s.push(run.register_s);
            traced.push(run);
            if table.is_empty() {
                table = job::query_table(&inputs);
            }
        }
    }

    let metrics = if args.trace {
        layer_metrics(
            w,
            &inputs,
            &traced,
            &untraced_ev_s,
            &serve_runs,
            &register_s,
            &table,
        )
    } else {
        // The ledger rides along with the end-to-end result: one traced
        // repetition (plus, for serve workloads, the untraced in-process
        // copy its overhead is measured against).
        if w.is_serve() {
            let plain = job_rep(&mut tally, false)?;
            untraced_ev_s.push(plain.events as f64 / plain.wall_s);
        }
        traced.push(job_rep(&mut tally, true)?);
        let (m, samples) = e2e_metrics(&e2e, &mut tally);
        println!(
            "samples: {} repetitions, {} detection-latency samples",
            e2e.len(),
            samples
        );
        let per_rep: Vec<String> = e2e
            .iter()
            .map(|r| {
                let (a, b) = stats::windowed_percentiles(&r.latencies, LATENCY_WINDOW_S);
                format!(
                    "{:.0}/{:.2}/{:.2}/{:.2}",
                    r.events_per_s(),
                    stats::interquartile_mean(&a),
                    stats::median(&b),
                    r.cpu_us_per_event()
                )
            })
            .collect();
        println!(
            "events/s / latency p50 ms / p99 ms / cpu us per event by repetition: {}",
            per_rep.join(" ")
        );
        m
    };
    print_ledger(
        w,
        traced.last().expect("at least one traced repetition"),
        stats::median(&untraced_ev_s),
    );
    if args.trace {
        println!(
            "samples: {} traced + {} untraced in-process repetitions, {} serve repetitions",
            traced.len(),
            untraced_ev_s.len(),
            serve_runs.len()
        );
    }
    println!("metrics ({}):", w.name());
    for (name, value, unit) in &metrics {
        println!("  {name:<44} {value:>16.4} {unit}");
    }
    println!(
        "failed/attempted: {}/{} = {:.6}",
        tally.failed,
        tally.attempted,
        tally.failed as f64 / tally.attempted.max(1) as f64
    );
    for reason in &tally.reasons {
        println!("  failure: {reason}");
    }
    Ok(render_result(&tally, &metrics))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(result) => println!("{result}"),
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn args_parse_and_reject() {
        let a = parse_args(&argv(
            "--workload serve_paced --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, Workload::ServePaced);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10, true));
        assert!(parse_args(&argv("--workload nope --seed 1 --seconds 1 --trace 0")).is_err());
        assert!(parse_args(&argv(
            "--workload replay_store --seed 1 --seconds 1 --trace 2"
        ))
        .is_err());
        assert!(parse_args(&argv("--workload replay_store --seed 1 --trace 0")).is_err());
        assert!(parse_args(&argv(
            "--workload replay_store --seed 1 --seconds 1 --trace 0 --extra 1"
        ))
        .is_err());
    }

    /// Every metric and workload the program reports is declared in
    /// `BENCHMARK.json`, and vice versa.
    #[test]
    fn benchmark_json_matches_the_program() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).unwrap();
        // The workspace's JSON reader takes integers only (the bounds are
        // fractions), so pick the `name`s out of each array by hand.
        let names = |key: &str| -> Vec<String> {
            let start = text.find(&format!("\"{key}\": [")).unwrap();
            let section = &text[start..start + text[start..].find(']').unwrap()];
            section
                .split("\"name\": \"")
                .skip(1)
                .map(|s| s[..s.find('"').unwrap()].to_string())
                .collect()
        };
        let workloads: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(names("workloads"), workloads);

        let reps = [E2eRep {
            setup_s: 1.0,
            events: 1,
            wall_s: 1.0,
            cpu_s: 1.0,
            rss_mb: 1.0,
            latencies: (0..1000).map(|i| (0.0, f64::from(i))).collect(),
        }];
        let (e2e, _) = e2e_metrics(&reps, &mut Tally::default());
        assert_eq!(
            names("end_to_end"),
            e2e.iter().map(|m| m.0.clone()).collect::<Vec<_>>()
        );
        let table: Vec<(&str, f64)> = inputs::queries().iter().map(|(n, _)| (*n, 1.0)).collect();
        let inputs = Inputs {
            seed: 0,
            events: Vec::new(),
            hosts: 0,
            attack_ids: Vec::new(),
            store: None,
            store_bytes: 0,
            jsonl: Vec::new(),
            line_ends: Vec::new(),
        };
        let layers = layer_metrics(
            Workload::ReplayStore,
            &inputs,
            &[],
            &[1.0],
            &[],
            &[1.0],
            &table,
        );
        assert_eq!(
            names("per_layer"),
            layers.iter().map(|m| m.0.clone()).collect::<Vec<_>>()
        );
    }
}
