//! The batch workloads, driven in-process through the library's public
//! entry points: `table3-sweep` (every preset under every configuration,
//! sharing prepare and phase 1 as the two-phase design intends) and
//! `ci-gate` (every preset from source to SARIF under Hybrid-Optimized,
//! sharing nothing).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::{Command, Stdio};
use std::time::Instant;

use serde_json::Value;
use taj_core::{
    analyze_with_phase1_opts, prepare_traced, run_phase1_traced, score, to_sarif, to_text, Phase1,
    PreparedProgram, Recorder, RuleSet, RunOptions, Supervisor, TajConfig, TajError, TajReport,
};
use taj_webgen::{generate, presets, GeneratedBenchmark, Scale};

use crate::ledger::{Ledger, PHASE1, PHASE2, PREPARE, RENDER};
use crate::stats::{mix, peak_rss_mb, Op};

/// Phase-2 worker threads for both batch workloads.
const THREADS: usize = 2;

/// Generates all 22 Table-2 presets at standard scale, each with its
/// generator seed mixed with the workload seed.
pub fn programs(seed: u64) -> Vec<GeneratedBenchmark> {
    (0..presets().len()).map(|i| program(seed, i)).collect()
}

/// Generates Table-2 preset `index` at standard scale under the workload
/// seed.
pub fn program(seed: u64, index: usize) -> GeneratedBenchmark {
    let mut spec = presets()[index].spec(Scale::standard());
    spec.seed ^= mix(seed, index as u64);
    generate(&spec)
}

/// Configurations that must find every ground-truth flow whenever they
/// produce a report: no call-graph budget and no slicing bounds. Plain
/// CS is not among them — it misses cross-thread flows by design (§7.2),
/// which CS-Escape repairs.
pub const SOUND: [&str; 4] = ["Hybrid-Unbounded", "CI", "IFDS", "CS-Escape"];

/// The recorder one operation hands to the library: enabled only in the
/// traced run.
fn recorder(traced: bool) -> Recorder {
    if traced {
        Recorder::new()
    } else {
        Recorder::disabled()
    }
}

/// How a phase-2 call ended.
#[allow(clippy::large_enum_variant)] // one short-lived value per operation
enum Phase2 {
    Report(TajReport),
    OutOfMemory,
}

fn prepare_timed(
    bench: &GeneratedBenchmark,
    rec: &Recorder,
    ledger: &mut Option<Ledger>,
) -> Result<PreparedProgram, String> {
    let span = rec.span(PREPARE);
    let prepared =
        prepare_traced(&bench.source, Some(&bench.descriptor), RuleSet::default_rules(), rec)
            .map_err(|e| format!("prepare failed: {e}"));
    span.finish();
    if let Some(l) = ledger.as_mut() {
        l.prepared_bytes += bench.source.len() as u64;
    }
    prepared
}

fn phase1_timed(prepared: &PreparedProgram, config: &TajConfig, rec: &Recorder) -> Phase1 {
    let span = rec.span(PHASE1);
    let phase1 = run_phase1_traced(prepared, config, &Supervisor::new(), rec);
    span.finish();
    phase1
}

fn phase2_timed(
    prepared: &PreparedProgram,
    phase1: &Phase1,
    config: &TajConfig,
    rec: &Recorder,
) -> Result<Phase2, String> {
    let opts = RunOptions { threads: THREADS, recorder: rec.clone(), ..RunOptions::default() };
    let span = rec.span(PHASE2);
    let result = analyze_with_phase1_opts(prepared, phase1, config, &opts);
    span.finish();
    match result {
        Ok(report) => Ok(Phase2::Report(report)),
        Err(TajError::OutOfMemory { .. }) if config.cs_path_edge_budget.is_some() => {
            Ok(Phase2::OutOfMemory)
        }
        Err(e) => Err(format!("{} failed: {e}", config.name)),
    }
}

/// Renders a report the way the CLI prints it: text for the sweep,
/// SARIF for the CI gate.
fn render_timed(report: &TajReport, sarif: bool, rec: &Recorder) -> Result<String, String> {
    let span = rec.span(RENDER);
    let rendered = if sarif {
        to_sarif(report).map_err(|e| format!("SARIF rendering failed: {e}"))?
    } else {
        to_text(report)
    };
    span.finish();
    Ok(rendered)
}

/// Checks that a rendering lists every finding of its report.
fn check_rendering(report: &TajReport, rendered: &str, sarif: bool) -> Result<(), String> {
    let listed = if sarif {
        let log = serde_json::from_str(rendered).map_err(|e| format!("bad SARIF: {e}"))?;
        log["runs"][0]["results"].as_array().map_or(0, Vec::len)
    } else {
        rendered.lines().filter(|l| l.starts_with("  [")).count()
    };
    if listed == report.findings.len() {
        Ok(())
    } else {
        Err(format!("rendering lists {listed} of {} findings", report.findings.len()))
    }
}

/// What one operation produced: the phase-2 outcome and, for a report,
/// its rendering.
type Outcome = std::thread::Result<Result<(Phase2, String), String>>;

/// Runs one operation under the benchmark's clock, then checks, scores
/// and books it. The clock stops before any checking starts.
fn run_op(
    bench: &GeneratedBenchmark,
    config: &TajConfig,
    sarif: bool,
    ledger: &mut Option<Ledger>,
    ops: &mut Vec<Op>,
    body: impl FnOnce(&Recorder, &mut Option<Ledger>) -> Result<(Phase2, String), String>,
) {
    let rec = recorder(ledger.is_some());
    let started = Instant::now();
    let outcome: Outcome = catch_unwind(AssertUnwindSafe(|| body(&rec, ledger)));
    let latency_ms = started.elapsed().as_secs_f64() * 1e3;
    let failed = |why: String| Op::failed(latency_ms, why);
    let op = match outcome {
        Ok(Ok((Phase2::Report(report), rendered))) => {
            match check_rendering(&report, &rendered, sarif) {
                Ok(()) => {
                    let score = score(&report, &bench.truth);
                    Op::decided(
                        latency_ms,
                        score,
                        score.false_negatives,
                        SOUND.contains(&config.name),
                    )
                }
                Err(why) => failed(why),
            }
        }
        Ok(Ok((Phase2::OutOfMemory, _))) => Op::undecided(latency_ms),
        Ok(Err(why)) => failed(why),
        Err(_) => failed("panicked".to_string()),
    };
    if let Some(ledger) = ledger {
        ledger.absorb(&rec, config.name);
        ledger.op_us += (latency_ms * 1e3) as u64;
        if op.score.is_none() && op.failure.is_none() {
            ledger.undecided += 1;
        }
    }
    if let Some(why) = &op.failure {
        eprintln!("perfbench: {}/{} failed: {why}", bench.name, config.name);
    }
    ops.push(op);
}

/// Renders a finished phase 2 and books the byte counts.
fn render_booked(
    result: Phase2,
    sarif: bool,
    rec: &Recorder,
    ledger: &mut Option<Ledger>,
) -> Result<(Phase2, String), String> {
    let rendered = match &result {
        Phase2::Report(report) => render_timed(report, sarif, rec)?,
        Phase2::OutOfMemory => String::new(),
    };
    if let Some(l) = ledger.as_mut() {
        l.rendered_bytes += rendered.len() as u64;
    }
    Ok((result, rendered))
}

/// `table3-sweep` on one program: every configuration. `prepare` runs
/// once and is billed to the first configuration; phase 1 runs once per
/// `Phase1::matches` key and is billed to the first configuration that
/// needs it.
fn sweep_program(bench: &GeneratedBenchmark, ledger: &mut Option<Ledger>, ops: &mut Vec<Op>) {
    let mut prepared: Option<Result<PreparedProgram, String>> = None;
    let mut phase1s: Vec<Phase1> = Vec::new();
    for config in &TajConfig::all() {
        run_op(bench, config, false, ledger, ops, |rec, ledger| {
            if prepared.is_none() {
                prepared = Some(prepare_timed(bench, rec, ledger));
            }
            let prepared = match &prepared {
                Some(Ok(p)) => p,
                Some(Err(why)) => return Err(why.clone()),
                None => unreachable!("prepared above"),
            };
            let index = match phase1s.iter().position(|p| p.matches(config)) {
                Some(i) => i,
                None => {
                    phase1s.push(phase1_timed(prepared, config, rec));
                    phase1s.len() - 1
                }
            };
            let result = phase2_timed(prepared, &phase1s[index], config, rec)?;
            render_booked(result, false, rec, ledger)
        });
    }
}

/// `ci-gate` on one program: source to SARIF under Hybrid-Optimized.
fn ci_gate_program(bench: &GeneratedBenchmark, ledger: &mut Option<Ledger>, ops: &mut Vec<Op>) {
    let config = TajConfig::hybrid_optimized();
    run_op(bench, &config, true, ledger, ops, |rec, ledger| {
        let prepared = prepare_timed(bench, rec, ledger)?;
        let phase1 = phase1_timed(&prepared, &config, rec);
        let result = phase2_timed(&prepared, &phase1, &config, rec)?;
        render_booked(result, true, rec, ledger)
    });
}

/// One pass of a batch workload over every program, in this process.
pub fn pass(
    sweep: bool,
    programs: &[GeneratedBenchmark],
    ledger: &mut Option<Ledger>,
    ops: &mut Vec<Op>,
) {
    for bench in programs {
        if sweep {
            sweep_program(bench, ledger, ops);
        } else {
            ci_gate_program(bench, ledger, ops);
        }
    }
}

/// Runs `ci-gate` on preset `index` in this process and returns its
/// operation and the process's peak memory: the report a
/// [`fresh_process_peak`] child prints.
pub fn program_report(seed: u64, index: usize) -> Value {
    let mut ops = Vec::new();
    ci_gate_program(&program(seed, index), &mut None, &mut ops);
    let mut out = Value::object();
    out.insert("ops", Value::Array(ops.iter().map(Op::to_json).collect()));
    out.insert("peak_rss_mb", Value::Float(peak_rss_mb()));
    out
}

/// The peak memory of `ci-gate` as a CI job sees it: every preset
/// analyzed in a fresh process of its own (this benchmark binary with
/// `--program <index>`), the largest `VmHWM` among them. Inside one
/// long-lived process the mark keeps growing from program to program as
/// the phase-2 workers spread allocations over more allocator arenas,
/// by a different amount on every run. The children's operations are
/// checked like any other and returned with the peak.
pub fn fresh_process_peak(seed: u64) -> (f64, Vec<Op>) {
    let mut peak: f64 = 0.0;
    let mut ops = Vec::new();
    for index in 0..presets().len() {
        match run_child(seed, index) {
            Ok(report) => {
                let child_ops = report["ops"].as_array().into_iter().flatten();
                ops.extend(child_ops.map(|v| {
                    Op::from_json(v).unwrap_or_else(|| {
                        Op::failed(0.0, format!("program {index}: unreadable operation"))
                    })
                }));
                peak = peak.max(report["peak_rss_mb"].as_f64().unwrap_or(0.0));
            }
            Err(why) => {
                eprintln!("perfbench: program {index} failed: {why}");
                ops.push(Op::failed(0.0, format!("program {index}: {why}")));
            }
        }
    }
    (peak, ops)
}

/// Runs this benchmark binary on one `ci-gate` program and reads its
/// report.
fn run_child(seed: u64, index: usize) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("no executable path: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", "ci-gate", "--seed", &seed.to_string(), "--seconds", "1"])
        .args(["--program", &index.to_string()])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("could not start: {e}"))?;
    if !output.status.success() {
        return Err(format!("exited with {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().ok_or("printed nothing")?;
    serde_json::from_str(last).map_err(|e| format!("unreadable report: {e}"))
}
