//! The repository benchmark: the TAJ pipeline and daemon measured end to
//! end and layer by layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <table3-sweep|ci-gate|serve-edits> --seed N --seconds S --trace <0|1>
//! ```
//!
//! Every input comes from `taj_webgen` at `Scale::standard()`, seeded by
//! `--seed`; the program under test only ever sees the generated sources.
//! `ci-gate` measures its peak memory in one child process per program
//! (this binary with `--program <index>`), as a CI job runs them.
//! Every operation is scored against webgen ground truth. The last line
//! of standard output is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics`, where the metrics are the end-to-end ones
//! (`--trace 0`) or the per-layer ledger (`--trace 1`). `design.json`
//! beside this crate records why each workload exists and which layer
//! should move which metric.

mod batch;
mod ledger;
mod serve;
mod stats;

use std::process::ExitCode;
use std::time::Instant;

use serde_json::Value;

use ledger::{Ledger, PER_LAYER};
use stats::{median, peak_rss_mb, percentile, reset_peak_rss, Op};

/// Seed used when `--seed` is absent.
const DEFAULT_SEED: u64 = 1;

/// Times the set-up is repeated in one run; `setup_s` is the median.
const SETUP_REPS: usize = 5;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    Table3Sweep,
    CiGate,
    ServeEdits,
}

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::Table3Sweep => "table3-sweep",
            Workload::CiGate => "ci-gate",
            Workload::ServeEdits => "serve-edits",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Set in the child processes `ci-gate` measures peak memory in: run
    /// only this preset and print its report.
    program: Option<usize>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = None;
    let mut trace = false;
    let mut program = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let all = [Workload::Table3Sweep, Workload::CiGate, Workload::ServeEdits];
                workload = Some(
                    *all.iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed `{value}`"))?,
            "--seconds" => {
                let s: u64 = value.parse().map_err(|_| format!("bad seconds `{value}`"))?;
                if !(1..=600).contains(&s) {
                    return Err(format!("seconds must be in 1..=600, got {s}"));
                }
                seconds = Some(s as f64);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
                }
            }
            "--program" => {
                let index: usize = value.parse().map_err(|_| format!("bad program `{value}`"))?;
                if index >= taj_webgen::presets().len() {
                    return Err(format!("no preset {index}"));
                }
                program = Some(index);
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        program,
    })
}

/// The operations of one timed window, its wall time and peak memory.
pub struct Window {
    /// Every operation attempted, in order.
    pub ops: Vec<Op>,
    /// Timed wall time in seconds.
    pub wall_s: f64,
    /// Peak resident set (`VmHWM`) while the window ran, in MiB.
    pub peak_rss_mb: f64,
}

impl Window {
    fn ops_per_s(&self) -> f64 {
        self.ops.len() as f64 / self.wall_s
    }
}

/// Runs `set_up` [`SETUP_REPS`] times and returns the last result with
/// the median set-up time. Every repetition must yield the same inputs.
fn set_up<T: PartialEq>(mut set_up: impl FnMut() -> T) -> Result<(T, f64), String> {
    let mut times = Vec::new();
    let mut last: Option<T> = None;
    for _ in 0..SETUP_REPS {
        let started = Instant::now();
        let inputs = set_up();
        times.push(started.elapsed().as_secs_f64());
        if last.as_ref().is_some_and(|prev| *prev != inputs) {
            return Err("the same seed generated different inputs".to_string());
        }
        last = Some(inputs);
    }
    Ok((last.expect("SETUP_REPS > 0"), median(&times)))
}

/// Runs whole passes until the next one would overrun `seconds` (at
/// least one), so every window covers the same operation mix.
fn timed_passes(seconds: f64, mut pass: impl FnMut(&mut Vec<Op>)) -> (Window, usize) {
    let mut ops = Vec::new();
    let mut passes = 0;
    reset_peak_rss();
    let started = Instant::now();
    loop {
        let pass_started = Instant::now();
        pass(&mut ops);
        passes += 1;
        let elapsed = started.elapsed().as_secs_f64();
        if elapsed + pass_started.elapsed().as_secs_f64() > seconds {
            return (Window { ops, wall_s: elapsed, peak_rss_mb: peak_rss_mb() }, passes);
        }
    }
}

/// Runs exactly `passes` passes.
fn counted_passes(passes: usize, mut pass: impl FnMut(&mut Vec<Op>)) -> Window {
    let mut ops = Vec::new();
    reset_peak_rss();
    let started = Instant::now();
    for _ in 0..passes {
        pass(&mut ops);
    }
    Window { ops, wall_s: started.elapsed().as_secs_f64(), peak_rss_mb: peak_rss_mb() }
}

/// A measured run: the untraced window, plus in trace mode the traced
/// window and its ledger.
pub struct Measurement {
    /// Set-up time (median of the repetitions), in seconds.
    pub setup_s: f64,
    /// The untraced window: the source of every end-to-end metric.
    pub plain: Window,
    /// The traced window with its ledger (trace mode only).
    pub traced: Option<(Window, Ledger)>,
    /// Layer metrics read from the daemon after the traced window
    /// (`serve-edits` in trace mode only).
    pub daemon: Vec<(&'static str, f64)>,
    /// Operations run outside both windows (the `ci-gate` memory pass):
    /// checked like the others, but not timed.
    pub checked: Vec<Op>,
}

fn batch(args: &Args) -> Result<Measurement, String> {
    let (programs, setup_s) =
        set_up(|| batch::programs(args.seed).into_iter().map(Inputs).collect::<Vec<_>>())?;
    let programs: Vec<_> = programs.into_iter().map(|p| p.0).collect();
    let sweep = args.workload == Workload::Table3Sweep;
    let (mut plain, passes) =
        timed_passes(args.seconds, |ops| batch::pass(sweep, &programs, &mut None, ops));
    let mut checked = Vec::new();
    if !sweep {
        (plain.peak_rss_mb, checked) = batch::fresh_process_peak(args.seed);
    }
    let traced = args.trace.then(|| {
        let mut ledger = Some(Ledger::default());
        let window = counted_passes(passes, |ops| batch::pass(sweep, &programs, &mut ledger, ops));
        (window, ledger.expect("traced run keeps its ledger"))
    });
    Ok(Measurement { setup_s, plain, traced, daemon: Vec::new(), checked })
}

/// Generated programs compared by source text (the only input the
/// program under test sees).
struct Inputs(taj_webgen::GeneratedBenchmark);

impl PartialEq for Inputs {
    fn eq(&self, other: &Inputs) -> bool {
        self.0.source == other.0.source
    }
}

fn metric(value: f64, unit: &str) -> Value {
    let mut o = Value::object();
    o.insert("value", Value::Float(value));
    o.insert("unit", Value::String(unit.to_string()));
    o
}

/// The end-to-end metrics of an untraced window.
fn end_to_end(setup_s: f64, window: &Window) -> Value {
    let ops = &window.ops;
    let latencies: Vec<f64> = ops.iter().map(|op| op.latency_ms).collect();
    let decided: Vec<_> = ops.iter().filter_map(|op| op.score).collect();
    let tp: usize = decided.iter().map(|s| s.true_positives).sum();
    let fp: usize = decided.iter().map(|s| s.false_positives).sum();
    let fns: usize = decided.iter().map(|s| s.false_negatives).sum();
    let per_decided = |x: usize| x as f64 / decided.len().max(1) as f64;
    let failed = ops.iter().filter(|op| op.failure.is_some()).count();
    let n = ops.len() as f64;
    let mut m = Value::object();
    m.insert("setup_s", metric(setup_s, "s"));
    m.insert("latency_p50_ms", metric(percentile(&latencies, 50.0), "ms"));
    m.insert("latency_p90_ms", metric(percentile(&latencies, 90.0), "ms"));
    m.insert("ops_per_s", metric(window.ops_per_s(), "1/s"));
    m.insert("peak_rss_mb", metric(window.peak_rss_mb, "MiB"));
    m.insert("accuracy", metric(tp as f64 / (tp + fp).max(1) as f64, "ratio"));
    m.insert("false_negatives_per_op", metric(per_decided(fns), "1/op"));
    m.insert("decided_frac", metric(decided.len() as f64 / n, "ratio"));
    m.insert("ok_frac", metric(1.0 - failed as f64 / n, "ratio"));
    m
}

/// The per-layer ledger of a traced run, every [`PER_LAYER`] metric.
fn per_layer(measurement: &Measurement) -> Value {
    let (window, ledger) = measurement.traced.as_ref().expect("trace mode");
    let mut values = ledger.metrics(window.wall_s * 1e3);
    values.insert("trace.overhead_frac", 1.0 - window.ops_per_s() / measurement.plain.ops_per_s());
    values.extend(measurement.daemon.iter().copied());
    let mut m = Value::object();
    for (name, unit) in PER_LAYER {
        m.insert(name, metric(values.get(name).copied().unwrap_or(0.0), unit));
    }
    m
}

fn run(args: &Args) -> Result<Value, String> {
    if let Some(index) = args.program {
        if args.workload != Workload::CiGate {
            return Err("--program runs ci-gate only".into());
        }
        return Ok(batch::program_report(args.seed, index));
    }
    let measurement = match args.workload {
        Workload::Table3Sweep | Workload::CiGate => batch(args)?,
        Workload::ServeEdits => serve::run(args.seed, args.seconds, args.trace)?,
    };
    let mut all_ops: Vec<&Op> = measurement.plain.ops.iter().chain(&measurement.checked).collect();
    if let Some((window, _)) = &measurement.traced {
        all_ops.extend(window.ops.iter());
    }
    let failed = all_ops.iter().filter(|op| op.failure.is_some()).count();
    let metrics = if args.trace {
        per_layer(&measurement)
    } else {
        end_to_end(measurement.setup_s, &measurement.plain)
    };
    let mut out = Value::object();
    out.insert("correct", Value::Bool(failed == 0 && !all_ops.is_empty()));
    out.insert("attempted", Value::UInt(all_ops.len() as u128));
    out.insert("failed", Value::UInt(failed as u128));
    out.insert("metrics", metrics);
    Ok(out)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args).and_then(|v| serde_json::to_string(&v).map_err(|e| e.to_string())) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names_and_units(list: &Value) -> Vec<(String, String)> {
        list.as_array()
            .expect("metric list")
            .iter()
            .map(|m| (m["name"].as_str().unwrap().into(), m["unit"].as_str().unwrap().into()))
            .collect()
    }

    /// The metrics a run prints are exactly the ones `BENCHMARK.json`
    /// declares, with the same units.
    #[test]
    fn printed_metrics_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let declared = serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
        let window = Window {
            ops: vec![Op::undecided(1.0), Op::failed(2.0, "x".into())],
            wall_s: 1.0,
            peak_rss_mb: 1.0,
        };
        let printed = match end_to_end(0.1, &window) {
            Value::Object(fields) => fields
                .iter()
                .map(|(k, v)| (k.clone(), v["unit"].as_str().unwrap().to_string()))
                .collect::<Vec<_>>(),
            other => panic!("not an object: {other:?}"),
        };
        assert_eq!(printed, names_and_units(&declared["end_to_end"]));
        let layers: Vec<_> =
            PER_LAYER.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect();
        assert_eq!(layers, names_and_units(&declared["per_layer"]));
    }

    #[test]
    fn arguments_are_checked() {
        let args = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let ok = parse_args(&args("--workload ci-gate --seed 7 --seconds 3 --trace 1")).unwrap();
        assert_eq!((ok.workload, ok.seed, ok.seconds, ok.trace), (Workload::CiGate, 7, 3.0, true));
        for bad in [
            "--workload nope --seconds 3",
            "--workload ci-gate",
            "--workload ci-gate --seconds 0",
            "--workload ci-gate --seconds 3 --trace 2",
            "--workload ci-gate --seconds 3 --extra 1",
            "--workload ci-gate --seconds",
            "--workload ci-gate --seconds 3 --program 22",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad}");
        }
    }
}
