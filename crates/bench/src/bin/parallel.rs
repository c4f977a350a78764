//! Thread-scaling benchmark for the parallel phase-2 engine: emits
//! `BENCH_parallel.json` with wall-clock per configuration × thread
//! count over the combined webgen securibench suite.
//!
//! Phase 1, def-use index included, is computed once per configuration
//! (shared exactly as the daemon's artifact cache shares it) and the
//! timed region is phase 2 — the part the parallel engine fans out. The
//! traced breakdown therefore shows the index under `phase1.index`. `speedup_vs_seq` is the
//! single-thread wall clock divided by this row's wall clock, so > 1.0
//! means the fan-out is winning.
//!
//! Honesty note: `host_cores` records what the machine can actually run
//! in parallel. On a single-core host every thread count interleaves on
//! one CPU and the speedup hovers around 1.0 — the numbers are measured,
//! never extrapolated. Run on a multi-core host for real scaling data.
//!
//! Usage: `parallel [--quick] [--scale K] [--out PATH]`
//!   --quick   1 timing iteration and scale 2 (CI smoke mode)
//!   --scale   replicate the suite K times with renamed classes
//!             (default 8) — one copy is ~12 KB of jweb, far too small
//!             for thread-spawn overhead to amortize
//!   --out     output path (default `BENCH_parallel.json`)

use std::fmt::Write as _;
use std::time::Instant;

use taj_core::{
    analyze_with_phase1_opts, prepare, run_phase1_shared, run_phase1_traced, Recorder, RuleSet,
    RunOptions, Supervisor, TajConfig,
};
use taj_webgen::securibench_cases;

const THREADS: [usize; 4] = [1, 2, 4, 8];

/// Rewrites `source` appending `suffix` to every occurrence of a name in
/// `classes` (token-wise, so `Basic1` never corrupts `Basic10`). The
/// securibench class names are globally unique, which is what makes
/// replica suites compose into one well-formed program.
fn rename_classes(source: &str, classes: &[String], suffix: &str) -> String {
    let mut out = String::with_capacity(source.len() + 64);
    let bytes = source.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        if c.is_ascii_alphabetic() || c == '_' {
            let start = i;
            while i < bytes.len()
                && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
            {
                i += 1;
            }
            let ident = &source[start..i];
            out.push_str(ident);
            if classes.iter().any(|c| c == ident) {
                out.push_str(suffix);
            }
        } else {
            out.push(c);
            i += 1;
        }
    }
    out
}

/// Every class name defined in `source` (`class Foo ...`).
fn class_names(source: &str) -> Vec<String> {
    let mut names = Vec::new();
    let mut rest = source;
    while let Some(pos) = rest.find("class ") {
        let after = &rest[pos + 6..];
        let name: String =
            after.chars().take_while(|c| c.is_ascii_alphanumeric() || *c == '_').collect();
        if !name.is_empty() {
            names.push(name);
        }
        rest = after;
    }
    names.sort();
    names.dedup();
    names
}

struct Row {
    config: &'static str,
    threads: usize,
    wall_ms: f64,
    speedup_vs_seq: f64,
    issues: Option<usize>,
    error: Option<String>,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map_or("BENCH_parallel.json", String::as_str);
    let iters = if quick { 1 } else { 5 };
    let scale: usize = args
        .iter()
        .position(|a| a == "--scale")
        .and_then(|i| args.get(i + 1))
        .map_or(if quick { 2 } else { 8 }, |v| v.parse().expect("--scale takes an integer"));

    // One combined program: every securibench case concatenated (class
    // names are globally unique across the suite, so the sources compose
    // into a single application with one seed list per rule), replicated
    // `scale` times with renamed classes so phase 2 has enough seeds to
    // be worth fanning out.
    let cases = securibench_cases();
    let mut combined = String::new();
    for case in &cases {
        combined.push_str(&case.source);
        combined.push('\n');
    }
    let classes = class_names(&combined);
    let mut source = combined.clone();
    for k in 1..scale {
        source.push_str(&rename_classes(&combined, &classes, &format!("R{k}")));
    }
    eprintln!("suite: {} securibench cases x{scale}, {} bytes of jweb", cases.len(), source.len());

    let prepared = prepare(&source, None, RuleSet::default_rules()).expect("suite prepares");
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut rows: Vec<Row> = Vec::new();
    // Per-config span recorders from one traced end-to-end pass: where
    // inside each phase the time actually goes (solve vs escape vs
    // per-unit slicing), embedded alongside the wall-clock rows.
    let mut breakdown: Vec<(&'static str, Recorder)> = Vec::new();
    // IFDS tabulation counters (facts created, summary edges, worklist
    // pops) from the traced pass — the scale knobs for the access-path
    // fact space.
    let mut ifds_counters: Option<(usize, usize, usize)> = None;

    for config in TajConfig::all() {
        let phase1 = run_phase1_shared(&prepared, &config);
        // One untimed warm-up pass: the first phase-2 run per config
        // pays one-time costs (page faults, allocator growth) that
        // would otherwise be billed entirely to the threads=1 row.
        let _ = analyze_with_phase1_opts(&prepared, &phase1, &config, &RunOptions::default());
        let mut seq_ms = f64::NAN;
        for &threads in &THREADS {
            let opts = RunOptions { threads, ..RunOptions::default() };
            let mut best = f64::INFINITY;
            let mut issues = None;
            let mut error = None;
            for _ in 0..iters {
                let t0 = Instant::now();
                match analyze_with_phase1_opts(&prepared, &phase1, &config, &opts) {
                    Ok(report) => issues = Some(report.issue_count()),
                    Err(e) => error = Some(e.to_string()),
                }
                best = best.min(t0.elapsed().as_secs_f64() * 1e3);
            }
            if threads == 1 {
                seq_ms = best;
            }
            eprintln!(
                "{:<20} threads={threads}: {best:8.2} ms  ({}x vs seq)",
                config.name,
                if best > 0.0 { format!("{:.2}", seq_ms / best) } else { "-".into() },
            );
            rows.push(Row {
                config: config.name,
                threads,
                wall_ms: best,
                speedup_vs_seq: if best > 0.0 { seq_ms / best } else { 1.0 },
                issues,
                error,
            });
        }
        // One traced end-to-end pass (default threads, untimed) whose
        // span aggregation becomes this config's per-phase cost rows.
        let recorder = Recorder::new();
        let traced_phase1 = run_phase1_traced(&prepared, &config, &Supervisor::new(), &recorder);
        let traced_opts = RunOptions { recorder: recorder.clone(), ..RunOptions::default() };
        let traced = analyze_with_phase1_opts(&prepared, &traced_phase1, &config, &traced_opts);
        if config.name == "IFDS" {
            if let Ok(report) = &traced {
                ifds_counters = Some((
                    report.stats.ifds_facts,
                    report.stats.ifds_summary_edges,
                    report.stats.ifds_worklist_pops,
                ));
            }
        }
        breakdown.push((config.name, recorder));
    }

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"suite\": \"webgen-securibench\",");
    let _ = writeln!(json, "  \"cases\": {},", cases.len());
    let _ = writeln!(json, "  \"scale\": {scale},");
    let _ = writeln!(json, "  \"iters\": {iters},");
    let _ = writeln!(json, "  \"host_cores\": {host_cores},");
    json.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let issues = r.issues.map_or("null".to_string(), |n| n.to_string());
        let error = r.error.as_ref().map_or("null".to_string(), |e| format!("{e:?}"));
        let _ = write!(
            json,
            "    {{\"config\": \"{}\", \"threads\": {}, \"wall_ms\": {:.3}, \
             \"speedup_vs_seq\": {:.3}, \"issues\": {}, \"error\": {}}}",
            r.config, r.threads, r.wall_ms, r.speedup_vs_seq, issues, error,
        );
        json.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n");
    json.push_str("  \"phase_breakdown\": {\n");
    for (ci, (config, recorder)) in breakdown.iter().enumerate() {
        let _ = writeln!(json, "    \"{config}\": [");
        let agg = recorder.aggregate();
        for (ri, row) in agg.iter().enumerate() {
            let _ = write!(
                json,
                "      {{\"span\": \"{}\", \"count\": {}, \"total_ms\": {:.3}}}",
                row.name,
                row.count,
                row.total_us as f64 / 1e3,
            );
            json.push_str(if ri + 1 < agg.len() { ",\n" } else { "\n" });
        }
        json.push_str("    ]");
        json.push_str(if ci + 1 < breakdown.len() { ",\n" } else { "\n" });
    }
    json.push_str("  },\n");
    match ifds_counters {
        Some((facts, summary_edges, pops)) => {
            let _ = writeln!(
                json,
                "  \"ifds_counters\": {{\"facts_created\": {facts}, \
                 \"summary_edges\": {summary_edges}, \"worklist_pops\": {pops}}}"
            );
        }
        None => {
            let _ = writeln!(json, "  \"ifds_counters\": null");
        }
    }
    json.push_str("}\n");
    std::fs::write(out_path, &json).expect("write benchmark output");
    eprintln!("wrote {out_path}");
}
