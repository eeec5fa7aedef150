//! The serve workloads: an in-process loopback [`Server`] fed by one
//! lossless JSONL ingest connection, with one subscriber tailing the audit
//! query. The generator runs on the calling thread, the subscriber on one
//! more; both are bench threads outside the server.

use std::collections::{BTreeMap, HashMap};
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpStream};
use std::path::Path;
use std::time::{Duration, Instant};

use saql_engine::EngineConfig;
use saql_model::json::{parse_json, JsonValue};
use saql_serve::{ServeConfig, Server};

use crate::check::{max_event_id, unscoped};
use crate::inputs::{self, Inputs};
use crate::job::CHECKPOINT_EVERY;
use crate::stats::{self, RssPeak};

/// Open-loop send rate of `serve_paced`, events/s: about half of what the
/// in-memory server sustains on two cores, so queues stay short and
/// latency measures the path, not a backlog.
pub const PACED_RATE: f64 = 50_000.0;
/// Generator wake-up period of the paced loop; events due within one tick
/// go out in one write.
const PACED_TICK: Duration = Duration::from_micros(200);
/// Bytes per write of the flood generator.
const FLOOD_CHUNK: usize = 64 << 10;
/// Bench sockets give up after this long without progress.
const IO_TIMEOUT: Duration = Duration::from_secs(60);
/// Alerts the server holds for the subscriber before it drops them: more
/// than one trace's audit alerts (~22k). At the engine's default of 1024
/// (~70 ms of flood alerts) the bench subscriber thread, sharing two vCPUs
/// with the server's threads, fell behind and lost 14 alerts in one of
/// several hundred flood repetitions on a contended host. Lost alerts are
/// failed operations; the workload measures latency, not that stall.
const SUBSCRIPTION_BACKLOG: usize = 1 << 15;

/// One serve repetition.
#[derive(Default)]
pub struct ServeRun {
    pub setup_s: f64,
    /// First byte sent to the drain acknowledgement.
    pub wall_s: f64,
    /// Process CPU over `wall_s` minus the two bench threads' own CPU.
    pub cpu_s: f64,
    pub events: u64,
    pub rss_growth_mb: f64,
    /// Audit alerts: (when the triggering event's write began (paced) or
    /// returned (flood), s after the first send; latency from then to
    /// receipt at the subscriber, ms).
    pub latencies: Vec<(f64, f64)>,
    /// How late each event went out against its schedule (paced), ms.
    pub send_lag_ms: Vec<f64>,
    pub write_blocked_s: f64,
    pub drain_ms: f64,
    /// Received audit alerts, tenant scope removed, sorted.
    pub audit_lines: Vec<String>,
    /// `saql_alerts_delivered_total` per query.
    pub per_query: BTreeMap<String, u64>,
    pub accepted: u64,
    pub decode_errors: u64,
    pub shed: u64,
    pub dropped_late: u64,
    pub dropped_alerts: u64,
    pub source_failures: u64,
    pub delivery_p50_us: f64,
    pub delivery_p99_us: f64,
}

fn io<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}

/// Connect and send a hello line.
fn connect(addr: &str, hello: &str) -> Result<TcpStream, String> {
    let mut stream = TcpStream::connect(addr).map_err(io("connect"))?;
    stream.set_nodelay(true).map_err(io("nodelay"))?;
    stream
        .set_read_timeout(Some(IO_TIMEOUT))
        .map_err(io("timeout"))?;
    stream
        .write_all(format!("{hello}\n").as_bytes())
        .map_err(io("hello"))?;
    Ok(stream)
}

/// Wait for the server's ok to a hello.
fn accepted(stream: TcpStream, hello: &str) -> Result<(TcpStream, BufReader<TcpStream>), String> {
    let mut reader = BufReader::new(stream.try_clone().map_err(io("clone"))?);
    let mut line = String::new();
    reader.read_line(&mut line).map_err(io("hello reply"))?;
    if !line.contains("\"ok\":true") {
        return Err(format!("server refused `{hello}`: {}", line.trim()));
    }
    Ok((stream, reader))
}

/// Subscriber: every line with its receipt time, until the server closes.
fn tail(mut reader: BufReader<TcpStream>) -> (Vec<(String, Instant)>, f64) {
    let cpu0 = stats::thread_cpu_s();
    let mut got = Vec::with_capacity(1 << 15);
    loop {
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => break,
            Ok(_) => got.push((line, Instant::now())),
        }
    }
    (got, stats::thread_cpu_s() - cpu0)
}

/// One generator write of whole JSONL lines.
struct SocketWrite {
    /// Stream offset of the last event in the write.
    last: usize,
    start: Instant,
    done: Instant,
}

/// Value of one series on the metrics exposition page.
fn metric(text: &str, series: &str) -> f64 {
    text.lines()
        .find_map(|l| {
            l.strip_prefix(series)?
                .strip_prefix(' ')?
                .trim()
                .parse()
                .ok()
        })
        .unwrap_or(0.0)
}

/// Run one serve repetition. `rate` is the paced send rate; `None` floods.
pub fn run(
    inputs: &Inputs,
    work: &Path,
    durable: bool,
    rate: Option<f64>,
) -> Result<ServeRun, String> {
    let store_dir = work.join("serve-store");
    let ckpt_dir = work.join("serve-ckpt");
    let _ = std::fs::remove_dir_all(&store_dir);
    let _ = std::fs::remove_dir_all(&ckpt_dir);
    let mut rss = RssPeak::start();
    let mut out = ServeRun::default();

    let t_setup = Instant::now();
    let server = Server::start(ServeConfig {
        listen: "127.0.0.1:0".into(),
        engine: EngineConfig {
            record_latency: true,
            subscription_backlog: SUBSCRIPTION_BACKLOG,
            ..EngineConfig::default()
        },
        initial_queries: inputs::queries()
            .into_iter()
            .map(|(n, s)| (n.to_string(), s.to_string()))
            .collect(),
        durable_store: durable.then(|| store_dir.clone()),
        checkpoint_dir: durable.then(|| ckpt_dir.clone()),
        checkpoint_every: CHECKPOINT_EVERY,
        ..ServeConfig::default()
    })?;
    let addr = server.addr().to_string();
    let metrics = server.metrics();
    // The server's accept loop polls every 25 ms. Clients that connect the
    // instant `start` returns race its first poll, which made setup
    // bimodal (~1.5 ms or ~25 ms). Connecting 1 ms later always lands in
    // the first poll interval, and connecting both clients before either
    // waits for its ok lets one pass accept both; setup then measures
    // start, one accept poll and both handshakes, every time.
    std::thread::sleep(Duration::from_millis(1));
    let sub_hello = format!(
        "{{\"role\":\"subscribe\",\"tenant\":\"default\",\"query\":\"{}\"}}",
        inputs::AUDIT_QUERY
    );
    // The paced feed is one time-ordered stream, so it declares arrival
    // order (`saql client ingest --arrival`). Under the default 1 s
    // lateness bound every event would wait for the next event 1 s of
    // trace time later, a hold set by how bursty each seed's trace is,
    // which moved the p99 by half between seeds. The flood keeps the
    // default bounded-lateness merge, the server's usual ingest path.
    let ingest_hello = format!(
        "{{\"role\":\"ingest\",\"tenant\":\"default\",\"source\":\"bench\",\"lossless\":true{}}}",
        if rate.is_some() {
            ",\"order\":\"arrival\""
        } else {
            ""
        }
    );
    let sub = connect(&addr, &sub_hello)?;
    let ingest = connect(&addr, &ingest_hello)?;
    let (_sub_stream, sub_reader) = accepted(sub, &sub_hello)?;
    let (mut ingest, mut ingest_reader) = accepted(ingest, &ingest_hello)?;
    out.setup_s = stats::secs(t_setup);

    let jsonl = &inputs.jsonl;
    let ends = &inputs.line_ends;
    let n = ends.len();
    let start_of = |i: usize| if i == 0 { 0 } else { ends[i - 1] };

    let (received, sub_cpu, t0, writes, summary, gen_cpu, proc_cpu) =
        std::thread::scope(|scope| -> Result<_, String> {
            let subscriber = scope.spawn(move || tail(sub_reader));
            let gen_cpu0 = stats::thread_cpu_s();
            let proc_cpu0 = stats::process_cpu_s();
            let t0 = Instant::now();
            let mut writes: Vec<SocketWrite> = Vec::new();
            let mut sent = 0usize;
            while sent < n {
                let upto = match rate {
                    Some(rate) => {
                        let el = t0.elapsed().as_secs_f64();
                        let due = ((el * rate).floor() as usize + 1).min(n);
                        if due <= sent {
                            std::thread::sleep(PACED_TICK);
                            continue;
                        }
                        for i in sent..due {
                            out.send_lag_ms.push((el - i as f64 / rate).max(0.0) * 1e3);
                        }
                        due
                    }
                    None => {
                        let limit = start_of(sent) + FLOOD_CHUNK;
                        (sent + ends[sent..].partition_point(|&e| e <= limit)).max(sent + 1)
                    }
                };
                let start = Instant::now();
                ingest
                    .write_all(&jsonl[start_of(sent)..ends[upto - 1]])
                    .map_err(io("ingest write"))?;
                let done = Instant::now();
                out.write_blocked_s += (done - start).as_secs_f64();
                writes.push(SocketWrite {
                    last: upto - 1,
                    start,
                    done,
                });
                sent = upto;
                rss.sample();
            }
            let last_write = Instant::now();
            ingest.shutdown(Shutdown::Write).map_err(io("half-close"))?;
            let mut summary = String::new();
            ingest_reader
                .read_line(&mut summary)
                .map_err(io("drain ack"))?;
            let acked = Instant::now();
            let proc_cpu = stats::process_cpu_s() - proc_cpu0;
            let gen_cpu = stats::thread_cpu_s() - gen_cpu0;
            out.wall_s = (acked - t0).as_secs_f64();
            out.drain_ms = (acked - last_write).as_secs_f64() * 1e3;
            rss.sample();
            server.request_shutdown();
            let (received, sub_cpu) = subscriber.join().map_err(|_| "subscriber panicked")?;
            Ok((received, sub_cpu, t0, writes, summary, gen_cpu, proc_cpu))
        })?;
    server.wait()?;
    out.rss_growth_mb = rss.growth_mb();
    out.cpu_s = proc_cpu - gen_cpu - sub_cpu;
    out.events = n as u64;

    let summary = parse_json(summary.trim()).map_err(|e| format!("drain ack `{summary}`: {e}"))?;
    let field = |k: &str| summary.get(k).and_then(JsonValue::as_u64).unwrap_or(0);
    if summary.get("done").and_then(JsonValue::as_bool) != Some(true) {
        return Err("ingest connection ended without a drain ack".into());
    }
    out.accepted = field("events");
    out.decode_errors = field("decode_errors");
    out.shed = field("shed_quota") + field("shed_buffer");
    out.dropped_late = field("dropped_late");

    for (line, at) in &received {
        let Some(id) = max_event_id(line) else {
            continue;
        };
        let offset = (id - 1) as usize;
        let i = writes.partition_point(|w| w.last < offset);
        let Some(write) = writes.get(i) else {
            continue;
        };
        // Paced: from when the event's write began. The generator's own
        // wake-up lag against its schedule (p999 up to ~20 ms on a shared
        // 2-vCPU VM) is reported apart as `serve.send_lag_p99_ms`; a
        // server stall shorter than the socket buffers (~200 ms of input)
        // still lands in the latency of the events already written, and a
        // longer one blocks the write (`serve.write_blocked_ms`).
        // Flood: from when the kernel accepted the event.
        let offered = if rate.is_some() {
            write.start
        } else {
            write.done
        };
        out.latencies.push((
            (offered - t0).as_secs_f64(),
            at.saturating_duration_since(offered).as_secs_f64() * 1e3,
        ));
    }
    out.audit_lines = received.iter().map(|(l, _)| unscoped(l)).collect();
    out.audit_lines.sort_unstable();

    let text = metrics.render_text();
    for (name, _) in inputs::queries() {
        out.per_query.insert(
            name.to_string(),
            metrics.counter_value(&format!(
                "saql_alerts_delivered_total{{query=\"default/{name}\"}}"
            )),
        );
    }
    out.dropped_alerts = metric(&text, "saql_engine_dropped_alerts_total") as u64;
    out.source_failures = metrics.counter_value("saql_source_failures_total");
    let series = |stat: &str| {
        format!(
            "saql_delivery_latency_us{{query=\"default/{}\",stat=\"{stat}\"}}",
            inputs::AUDIT_QUERY
        )
    };
    out.delivery_p50_us = metric(&text, &series("p50"));
    out.delivery_p99_us = metric(&text, &series("p99"));
    let _ = std::fs::remove_dir_all(&store_dir);
    let _ = std::fs::remove_dir_all(&ckpt_dir);
    Ok(out)
}

/// Per-query delivered counts that differ from `want`, as a mismatch size.
pub fn count_mismatch(want: &BTreeMap<String, u64>, got: &BTreeMap<String, u64>) -> u64 {
    let got: HashMap<&str, u64> = got.iter().map(|(k, v)| (k.as_str(), *v)).collect();
    want.iter()
        .map(|(k, w)| w.abs_diff(got.get(k.as_str()).copied().unwrap_or(0)))
        .sum()
}
