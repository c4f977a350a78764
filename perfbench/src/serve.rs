//! The `serve-edits` workload: one in-process daemon (`taj serve`) with a
//! persistent store, driven in closed loop by two client connections.
//! Each connection replays its own seeded edit chain — one over Webgoat,
//! one over SBM — so the two never share a cache entry.
//!
//! Every new version is analyzed under Hybrid-Optimized, Hybrid-Unbounded
//! and IFDS: the first request misses every tier and writes the store,
//! the second hits the prepared tier, the third the phase-1 tier. The
//! rest of the traffic (70% of requests) revisits recent (version,
//! config) pairs, answered from the report tier or, once the in-memory
//! cache has evicted them, from the store. `analyze_delta` and the
//! router are deliberately not exercised.

use std::collections::{HashMap, HashSet, VecDeque};
use std::path::PathBuf;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use serde_json::Value;
use taj_core::{score, AnalysisStats, AnalyzedFlow, GroundTruth, IssueType, TajFinding, TajReport};
use taj_service::{serve, AnalyzeOpts, Bind, Client, RetryPolicy, ServeOptions, ServerHandle};
use taj_webgen::{edit_chain, presets};

use crate::batch::{program, SOUND};
use crate::ledger::Ledger;
use crate::stats::{mix, peak_rss_mb, reset_peak_rss, Op};
use crate::{set_up, Measurement, Window};

/// The two programs, one per connection.
const PRESETS: [&str; 2] = ["Webgoat", "SBM"];
/// Edits per chain; more versions than a run reaches.
const CHAIN_STEPS: usize = 160;
/// The configurations each new version is analyzed under, in order.
const CONFIGS: [&str; 3] = ["Hybrid-Optimized", "Hybrid-Unbounded", "IFDS"];
/// Every this many steps of a connection's script starts a new version
/// (three requests); the other steps revisit, so 7 of every 10 requests
/// are revisits. A fixed cadence rather than a coin keeps the miss
/// share, and so the throughput, from varying with the seed. With both
/// programs at an equal share (see [`Pacer`]) the median lands mid-way
/// through the cache-hit latencies and the 90th percentile among the
/// analyses, not on the edge between the two.
const NEW_VERSION_EVERY: usize = 8;
/// Revisits draw from the pairs of this many most recent versions: more
/// than the in-memory cache holds, so some answers come from the store,
/// and a fixed window keeps that share steady through the run.
const REVISIT_VERSIONS: usize = 12;
/// Largest lead one connection may take over the other, in requests.
const MAX_SKEW: usize = 8;
/// Daemon worker threads.
const WORKERS: usize = 2;
/// In-memory cache budget: the daemon default.
const CACHE_BYTES: usize = 64 << 20;
/// Flight-recorder capacity of the traced daemon: every request of a run.
const TRACED_FLIGHT_RECORDS: usize = 1 << 16;

/// One connection's input: every version of its program and what the
/// answers are scored against.
struct Stream {
    versions: Vec<String>,
    truth: GroundTruth,
    /// EJB flows: the wire protocol carries no deployment descriptor, so
    /// the daemon cannot see them. Declared misses, still counted.
    declared_misses: HashSet<(String, IssueType)>,
}

impl PartialEq for Stream {
    fn eq(&self, other: &Stream) -> bool {
        self.versions == other.versions
    }
}

fn streams(seed: u64) -> Result<Vec<Stream>, String> {
    let all = presets();
    PRESETS
        .iter()
        .enumerate()
        .map(|(c, name)| {
            let index = all.iter().position(|p| p.name == *name).expect("Table-2 preset");
            let bench = program(seed, index);
            // webgen names an EJB pattern's bean `<p>Bean` and the servlet
            // whose flow runs through it `<p>Page`.
            let mut declared_misses = HashSet::new();
            for entry in &bench.descriptor.entries {
                let page = entry.bean_class.strip_suffix("Bean").map(|p| format!("{p}Page"));
                match page.map(|p| (p, IssueType::Xss)) {
                    Some(flow) if bench.truth.vulnerable.contains(&flow) => {
                        declared_misses.insert(flow);
                    }
                    _ => {
                        return Err(format!("no ground-truth page for EJB `{}`", entry.bean_class))
                    }
                }
            }
            let mut versions = vec![bench.source.clone()];
            let chain = edit_chain(&bench.source, mix(seed, 100 + c as u64), CHAIN_STEPS);
            versions.extend(chain.into_iter().map(|(_, source)| source));
            Ok(Stream { versions, truth: bench.truth, declared_misses })
        })
        .collect()
}

/// A running daemon and the store directory it owns.
struct Daemon {
    handle: ServerHandle,
    store_dir: PathBuf,
}

impl Daemon {
    fn start(store_dir: PathBuf, flight_records: usize) -> Result<Daemon, String> {
        let options = ServeOptions {
            bind: Bind::Tcp("127.0.0.1:0".to_string()),
            workers: WORKERS,
            cache_bytes: CACHE_BYTES,
            store_dir: Some(store_dir.clone()),
            flight_records,
            ..ServeOptions::tcp_ephemeral()
        };
        let handle = serve(options).map_err(|e| format!("daemon failed to start: {e}"))?;
        Ok(Daemon { handle, store_dir })
    }

    fn connect(&self) -> Result<Client, String> {
        Client::connect(self.handle.addr())
            .map(|c| c.with_retry(RetryPolicy::none()))
            .map_err(|e| format!("connect failed: {e}"))
    }

    /// Drains the daemon, waits for it to exit and deletes its store.
    fn stop(self) {
        self.handle.request_shutdown();
        self.handle.join();
        let _ = std::fs::remove_dir_all(&self.store_dir);
    }
}

/// Layer metrics read from the daemon's `stats` and flight recorder.
type DaemonMetrics = Vec<(&'static str, f64)>;

/// What the traced run needs to attribute a request's daemon spans.
struct Sent {
    config: &'static str,
    trace_id: Option<String>,
}

fn issue_of(name: &str) -> Option<IssueType> {
    Some(match name {
        "Xss" => IssueType::Xss,
        "Sqli" => IssueType::Sqli,
        "CommandInjection" => IssueType::CommandInjection,
        "MaliciousFile" => IssueType::MaliciousFile,
        "InfoLeak" => IssueType::InfoLeak,
        _ => return None,
    })
}

/// Rebuilds the findings of a wire report so `taj_core::score` can
/// classify them.
fn report_of(result: &Value, config: &str) -> Result<TajReport, String> {
    if result["config"].as_str() != Some(config) {
        return Err(format!("answer for config {:?}, asked {config}", result["config"]));
    }
    let text = |f: &Value, key: &str| f[key].as_str().unwrap_or_default().to_string();
    let findings = result["findings"]
        .as_array()
        .ok_or("report without findings")?
        .iter()
        .map(|f| {
            let issue = f["issue"].as_str().and_then(issue_of).ok_or("finding without issue")?;
            Ok(TajFinding {
                flow: AnalyzedFlow {
                    issue,
                    source_method: text(f, "source_method"),
                    sink_method: text(f, "sink_method"),
                    sink_owner_class: text(f, "sink_owner_class"),
                    source_owner_class: text(f, "source_owner_class"),
                    flow_len: f["flow_len"].as_u64().unwrap_or(0) as usize,
                    heap_transitions: f["heap_transitions"].as_u64().unwrap_or(0) as usize,
                },
                lcp_owner_class: text(f, "lcp_owner_class"),
                group_size: f["group_size"].as_u64().unwrap_or(0) as usize,
            })
        })
        .collect::<Result<Vec<_>, &str>>()?;
    Ok(TajReport {
        config: config.to_string(),
        findings,
        flows: Vec::new(),
        stats: AnalysisStats::default(),
        concurrency: Default::default(),
        degradation: Default::default(),
    })
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// Keeps the two connections within [`MAX_SKEW`] requests of each
/// other, so each program's share of the traffic is set by the script,
/// not by which program analyzes faster. Without it the request mix —
/// and with it which cluster the latency percentiles land in — would
/// shift with every speed change.
struct Pacer {
    done: Mutex<[usize; 2]>,
    turn: Condvar,
}

impl Pacer {
    /// Waits until connection `c` may send its request number `n`;
    /// `false` once `deadline` has passed.
    fn wait_turn(&self, c: usize, n: usize, deadline: Instant) -> bool {
        let mut done = self.done.lock().expect("pacer lock poisoned");
        loop {
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            if done[1 - c].saturating_add(MAX_SKEW) > n {
                return true;
            }
            done = self.turn.wait_timeout(done, deadline - now).expect("pacer lock poisoned").0;
        }
    }

    /// Connection `c` has completed `n` requests.
    fn record(&self, c: usize, n: usize) {
        self.done.lock().expect("pacer lock poisoned")[c] = n;
        self.turn.notify_all();
    }
}

/// One closed-loop connection: sends its next request only after the
/// previous answer, until `deadline`.
fn connection(
    daemon: &Daemon,
    c: usize,
    stream: &Stream,
    seed: u64,
    deadline: Instant,
    traced: bool,
    pacer: &Pacer,
) -> Result<Vec<(Op, Sent)>, String> {
    let mut client = daemon.connect()?;
    let mut rng = mix(seed, 200 + c as u64) | 1;
    let mut queued: VecDeque<(usize, usize)> = VecDeque::new();
    let mut next_version = 0;
    let (mut steps, mut revisits) = (0, 0);
    let mut sent = Vec::new();
    while pacer.wait_turn(c, sent.len(), deadline) {
        // Revisits only happen with the queue drained, so every config of
        // every version below `next_version` has been answered. The
        // revisited version is random; its config cycles, so the config
        // mix — and with it the false-negative rate — is the same on
        // every seed.
        if queued.is_empty() {
            if steps % NEW_VERSION_EVERY == 0 && next_version < stream.versions.len() {
                queued.extend((0..CONFIGS.len()).map(|k| (next_version, k)));
                next_version += 1;
            } else {
                let oldest = next_version.saturating_sub(REVISIT_VERSIONS);
                let span = (next_version - oldest) as u64;
                let version = oldest + (xorshift(&mut rng) % span) as usize;
                queued.push_back((version, revisits % CONFIGS.len()));
                revisits += 1;
            }
            steps += 1;
        }
        let (version, k) = queued.pop_front().expect("queued above");
        let config = CONFIGS[k];
        let trace_id = traced.then(|| format!("perfbench-c{c}-{}", sent.len()));
        let opts = AnalyzeOpts {
            config: Some(config.to_string()),
            threads: Some(1),
            trace_id: trace_id.clone(),
            ..AnalyzeOpts::default()
        };
        let started = Instant::now();
        let answer = client.analyze(&stream.versions[version], &opts);
        let latency_ms = started.elapsed().as_secs_f64() * 1e3;
        let op = match answer.map_err(|e| e.to_string()).and_then(|v| report_of(&v, config)) {
            Ok(report) => {
                let detected: HashSet<_> = report
                    .findings
                    .iter()
                    .map(|f| (f.flow.sink_owner_class.clone(), f.flow.issue))
                    .collect();
                let undeclared = stream
                    .truth
                    .vulnerable
                    .iter()
                    .filter(|v| !detected.contains(*v) && !stream.declared_misses.contains(*v))
                    .count();
                let score = score(&report, &stream.truth);
                Op::decided(latency_ms, score, undeclared, SOUND.contains(&config))
            }
            Err(why) => Op::failed(latency_ms, why),
        };
        if let Some(why) = &op.failure {
            eprintln!("perfbench: {}/{config} request failed: {why}", PRESETS[c]);
        }
        sent.push((op, Sent { config, trace_id }));
        pacer.record(c, sent.len());
    }
    Ok(sent)
}

/// Runs both connections against `daemon` for `seconds`. The peak is the
/// process's `VmHWM` over the window (daemon and clients share it).
fn drive(
    daemon: &Daemon,
    streams: &[Stream],
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Result<(Window, Vec<Sent>), String> {
    let pacer = Pacer { done: Mutex::new([0; 2]), turn: Condvar::new() };
    reset_peak_rss();
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    let results: Vec<Result<Vec<(Op, Sent)>, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = streams
            .iter()
            .enumerate()
            .map(|(c, stream)| {
                let pacer = &pacer;
                s.spawn(move || {
                    let sent = connection(daemon, c, stream, seed, deadline, traced, pacer);
                    // A finished connection never holds the other back.
                    pacer.record(c, usize::MAX);
                    sent
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Err("client thread panicked".to_string())))
            .collect()
    });
    let wall_s = started.elapsed().as_secs_f64();
    let (mut ops, mut sent) = (Vec::new(), Vec::new());
    for r in results {
        for (op, s) in r? {
            ops.push(op);
            sent.push(s);
        }
    }
    Ok((Window { ops, wall_s, peak_rss_mb: peak_rss_mb() }, sent))
}

fn u64_at(v: &Value, path: &[&str]) -> f64 {
    path.iter().fold(v, |v, key| &v[*key]).as_u64().unwrap_or(0) as f64
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Reads the traced daemon's spans (`last_traces`, then `trace` per
/// request) and its `stats` counters into the ledger and the daemon,
/// cache and store metrics.
fn collect(
    daemon: &Daemon,
    window: &Window,
    sent: &[Sent],
) -> Result<(Ledger, DaemonMetrics), String> {
    let mut client = daemon.connect()?;
    let remote = |e: taj_service::ClientError| format!("daemon query failed: {e}");
    let listed = client.last_traces(None).map_err(remote)?;
    let traces = listed["traces"].as_array().cloned().unwrap_or_default();
    if traces.len() != sent.len() {
        return Err(format!("flight recorder kept {} of {} requests", traces.len(), sent.len()));
    }
    let configs: HashMap<&str, &str> =
        sent.iter().filter_map(|s| Some((s.trace_id.as_deref()?, s.config))).collect();
    let mut ledger = Ledger::default();
    for summary in &traces {
        let id = summary["trace_id"].as_str().ok_or("trace summary without id")?;
        let config = configs.get(id).ok_or_else(|| format!("unknown trace id `{id}`"))?;
        let trace = client.trace(id).map_err(remote)?;
        for fragment in trace["fragments"].as_array().into_iter().flatten() {
            for span in fragment["spans"].as_array().into_iter().flatten() {
                let name = span["name"].as_str().unwrap_or_default();
                let attrs: Vec<(&str, u64)> = match &span["args"] {
                    Value::Object(fields) => fields
                        .iter()
                        .filter_map(|(k, v)| v.as_u64().map(|n| (k.as_str(), n)))
                        .collect(),
                    _ => Vec::new(),
                };
                ledger.add(name, span["dur"].as_u64().unwrap_or(0), attrs, config, "phase2");
            }
        }
    }
    let stats = client.stats().map_err(remote)?;
    let n = sent.len().max(1) as f64;
    let latency_ms: f64 = window.ops.iter().map(|op| op.latency_ms).sum::<f64>() / n;
    let queue_wait_ms = ledger.ms("queue.wait") / n;
    let run_ms = ledger.ms("run") / n;
    let tier_ratio = |tier: &str| {
        let hits = u64_at(&stats, &["cache_tiers", tier, "hits"]);
        ratio(hits, hits + u64_at(&stats, &["cache_tiers", tier, "misses"]))
    };
    let store_hits = u64_at(&stats, &["store", "hits"]);
    let daemon = vec![
        ("daemon.queue_wait_ms", queue_wait_ms),
        ("daemon.run_ms", run_ms),
        ("daemon.overhead_ms", latency_ms - queue_wait_ms - run_ms),
        ("daemon.prepare_runs", u64_at(&stats, &["prepare_runs"])),
        ("daemon.phase1_runs", u64_at(&stats, &["phase1_runs"])),
        ("daemon.phase2_runs", u64_at(&stats, &["phase2_runs"])),
        ("daemon.requests_shed", u64_at(&stats, &["requests_shed"])),
        ("daemon.errors", u64_at(&stats, &["errors"])),
        ("cache.prepared_hit_ratio", tier_ratio("prepared")),
        ("cache.phase1_hit_ratio", tier_ratio("phase1")),
        ("cache.report_hit_ratio", tier_ratio("report")),
        ("cache.evictions", u64_at(&stats, &["cache", "evictions"])),
        ("store.hits", store_hits),
        ("store.hit_ratio", ratio(store_hits, store_hits + u64_at(&stats, &["store", "misses"]))),
        ("store.entries", u64_at(&stats, &["store", "entries"])),
        ("store.bytes_used", u64_at(&stats, &["store", "bytes_used"])),
    ];
    Ok((ledger, daemon))
}

/// Runs the workload with its stores under `run_dir`.
fn run_in(
    run_dir: &std::path::Path,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<Measurement, String> {
    // Set-up is input generation, daemon start and store open; each
    // repetition opens a fresh store, and all but the last daemon are
    // stopped once set-up is timed.
    let mut daemons: Vec<Result<Daemon, String>> = Vec::new();
    let (streams, setup_s) = set_up(|| {
        let inputs = streams(seed);
        daemons.push(Daemon::start(run_dir.join(format!("store-{}", daemons.len())), 0));
        inputs
    })?;
    let daemon = daemons.pop().expect("set-up ran");
    for d in daemons.into_iter().flatten() {
        d.stop();
    }
    let (streams, daemon) = (streams?, daemon?);
    let plain = drive(&daemon, &streams, seed, seconds, false);
    daemon.stop();
    let (plain, _) = plain?;
    if !trace {
        return Ok(Measurement {
            setup_s,
            plain,
            traced: None,
            daemon: Vec::new(),
            checked: Vec::new(),
        });
    }
    let daemon = Daemon::start(run_dir.join("store-traced"), TRACED_FLIGHT_RECORDS)?;
    let traced = drive(&daemon, &streams, seed, seconds, true)
        .and_then(|(window, sent)| collect(&daemon, &window, &sent).map(|c| (window, c)));
    daemon.stop();
    let (window, (ledger, daemon)) = traced?;
    Ok(Measurement { setup_s, plain, traced: Some((window, ledger)), daemon, checked: Vec::new() })
}

/// Runs `serve-edits`. The daemon's stores live in a per-process
/// directory under `.perfbench-run/`, deleted before returning.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<Measurement, String> {
    let base = PathBuf::from(".perfbench-run");
    let run_dir = base.join(std::process::id().to_string());
    let result = run_in(&run_dir, seed, seconds, trace);
    let _ = std::fs::remove_dir_all(&run_dir);
    // Fails harmlessly while another run still owns a directory there.
    let _ = std::fs::remove_dir(&base);
    result
}
