//! The per-layer ledger: span totals and counters summed over a traced
//! run, and the per-layer metrics derived from them.
//!
//! Two kinds of span feed it. The benchmark's own `bench.*` spans wrap
//! each call into a layer's public entry point (batch workloads only);
//! the in-program spans (`prepare.*`, `phase1.*`, `phase2.*`,
//! `queue.wait`, `run`) come from the enabled recorder the traced run
//! hands to those calls, or from the daemon's flight recorder.

use std::collections::BTreeMap;

use taj_obs::{AttrValue, Recorder};

/// Benchmark-side span around `prepare_traced`.
pub const PREPARE: &str = "bench.prepare";
/// Benchmark-side span around `run_phase1_traced`.
pub const PHASE1: &str = "bench.phase1";
/// Benchmark-side span around `analyze_with_phase1_opts`.
pub const PHASE2: &str = "bench.phase2";
/// Benchmark-side span around `to_text` / `to_sarif`.
pub const RENDER: &str = "bench.render";

/// The seven configurations in `TajConfig::all()` order, with the metric
/// key of each one's phase-2 busy time.
pub const CONFIG_KEYS: [(&str, &str); 7] = [
    ("Hybrid-Unbounded", "phase2.hybrid_unbounded.busy_ms"),
    ("Hybrid-Prioritized", "phase2.hybrid_prioritized.busy_ms"),
    ("Hybrid-Optimized", "phase2.hybrid_optimized.busy_ms"),
    ("CS", "phase2.cs.busy_ms"),
    ("CI", "phase2.ci.busy_ms"),
    ("CS-Escape", "phase2.cs_escape.busy_ms"),
    ("IFDS", "phase2.ifds.busy_ms"),
];

/// Every per-layer metric, with its unit, in output order. Each traced
/// run prints all of them; a layer a workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 62] = [
    ("prepare.busy_ms", "ms"),
    ("prepare.kb_per_s", "KiB/s"),
    ("prepare.parse_ms", "ms"),
    ("prepare.model_ms", "ms"),
    ("prepare.ssa_ms", "ms"),
    ("prepare.methods", "count"),
    ("phase1.busy_ms", "ms"),
    ("phase1.runs", "count"),
    ("phase1.solve_ms", "ms"),
    ("phase1.heapgraph_ms", "ms"),
    ("phase1.escape_ms", "ms"),
    ("phase1.mhp_ms", "ms"),
    ("phase1.worklist_iterations", "count"),
    ("phase1.pts_entries", "count"),
    ("phase1.contexts", "count"),
    ("phase1.cg_nodes", "count"),
    ("phase1.solve_us_per_cg_node", "us"),
    ("phase2.busy_ms", "ms"),
    ("phase2.hybrid_unbounded.busy_ms", "ms"),
    ("phase2.hybrid_prioritized.busy_ms", "ms"),
    ("phase2.hybrid_optimized.busy_ms", "ms"),
    ("phase2.cs.busy_ms", "ms"),
    ("phase2.ci.busy_ms", "ms"),
    ("phase2.cs_escape.busy_ms", "ms"),
    ("phase2.ifds.busy_ms", "ms"),
    ("phase2.specs_ms", "ms"),
    ("phase2.views_ms", "ms"),
    ("phase2.unit_ms", "ms"),
    ("phase2.post_ms", "ms"),
    ("phase2.units", "count"),
    ("phase2.slicer_work", "count"),
    ("phase2.heap_transitions", "count"),
    ("phase2.view_nodes", "count"),
    ("phase2.view_use_edges", "count"),
    ("phase2.ifds_worklist_pops", "count"),
    ("phase2.unit_ms_per_kwork", "ms"),
    ("phase2.undecided", "count"),
    ("render.busy_ms", "ms"),
    ("render.kb", "KiB"),
    ("daemon.queue_wait_ms", "ms"),
    ("daemon.run_ms", "ms"),
    ("daemon.overhead_ms", "ms"),
    ("daemon.prepare_runs", "count"),
    ("daemon.phase1_runs", "count"),
    ("daemon.phase2_runs", "count"),
    ("daemon.requests_shed", "count"),
    ("daemon.errors", "count"),
    ("cache.prepared_hit_ratio", "ratio"),
    ("cache.phase1_hit_ratio", "ratio"),
    ("cache.report_hit_ratio", "ratio"),
    ("cache.evictions", "count"),
    ("store.hits", "count"),
    ("store.hit_ratio", "ratio"),
    ("store.entries", "count"),
    ("store.bytes_used", "bytes"),
    ("share.prepare", "ratio"),
    ("share.phase1", "ratio"),
    ("share.phase2", "ratio"),
    ("share.render", "ratio"),
    ("trace.span_coverage", "ratio"),
    ("trace.wall_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
];

/// Summed durations and numeric attributes of one span name.
#[derive(Debug, Default)]
struct Row {
    count: u64,
    total_us: u64,
    counters: BTreeMap<String, u64>,
}

/// Span totals of a traced run plus the byte and time totals the
/// benchmark measures itself.
#[derive(Debug, Default)]
pub struct Ledger {
    rows: BTreeMap<String, Row>,
    phase2_by_config: BTreeMap<String, u64>,
    /// Source bytes handed to `prepare`.
    pub prepared_bytes: u64,
    /// Bytes `to_text` / `to_sarif` produced.
    pub rendered_bytes: u64,
    /// Operations that ran out of their memory budget.
    pub undecided: u64,
    /// Summed operation latencies, in microseconds.
    pub op_us: u64,
}

impl Ledger {
    /// Adds one span (or instant event, `dur_us == 0`) with its numeric
    /// attributes. `phase2_span` names the span whose duration is booked
    /// as `config`'s phase-2 time.
    pub fn add<'a>(
        &mut self,
        name: &str,
        dur_us: u64,
        attrs: impl IntoIterator<Item = (&'a str, u64)>,
        config: &str,
        phase2_span: &str,
    ) {
        let row = self.rows.entry(name.to_string()).or_default();
        row.count += 1;
        row.total_us += dur_us;
        for (key, value) in attrs {
            *row.counters.entry(key.to_string()).or_default() += value;
        }
        if name == phase2_span {
            *self.phase2_by_config.entry(config.to_string()).or_default() += dur_us;
        }
    }

    /// Adds every event one in-process recorder collected, booking the
    /// benchmark's own phase-2 span to `config`.
    pub fn absorb(&mut self, rec: &Recorder, config: &str) {
        for ev in rec.events() {
            let attrs = ev.attrs.iter().filter_map(|(k, v)| match v {
                AttrValue::U64(n) => Some((*k, *n)),
                _ => None,
            });
            self.add(ev.name, ev.dur_us.unwrap_or(0), attrs, config, PHASE2);
        }
    }

    /// Total milliseconds spent in spans named `name`.
    pub fn ms(&self, name: &str) -> f64 {
        self.rows.get(name).map_or(0.0, |r| r.total_us as f64 / 1e3)
    }

    /// Number of spans named `name`.
    pub fn count(&self, name: &str) -> u64 {
        self.rows.get(name).map_or(0, |r| r.count)
    }

    /// Summed attribute `key` over spans named `name`.
    pub fn counter(&self, name: &str, key: &str) -> u64 {
        self.rows.get(name).and_then(|r| r.counters.get(key)).copied().unwrap_or(0)
    }

    /// The layer metrics this ledger supports, keyed by metric name. The
    /// phase busy times prefer the benchmark's own spans and fall back to
    /// the in-program ones (the daemon's layers are not called by the
    /// benchmark directly; its prepare has no span of its own). `wall_ms`
    /// is the traced run's timed wall.
    pub fn metrics(&self, wall_ms: f64) -> BTreeMap<&'static str, f64> {
        let busy = |own: &str, program: &str| {
            if self.count(own) > 0 {
                self.ms(own)
            } else {
                self.ms(program)
            }
        };
        let prepare = self.ms(PREPARE);
        let phase1 = busy(PHASE1, "phase1");
        let phase2 = busy(PHASE2, "phase2");
        let render = self.ms(RENDER);
        let per = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        let mut m = BTreeMap::new();
        m.insert("prepare.busy_ms", prepare);
        m.insert("prepare.kb_per_s", per(self.prepared_bytes as f64 / 1024.0, prepare / 1e3));
        m.insert("prepare.parse_ms", self.ms("prepare.parse"));
        m.insert("prepare.model_ms", self.ms("prepare.model"));
        m.insert("prepare.ssa_ms", self.ms("prepare.ssa"));
        m.insert("prepare.methods", self.counter("prepare.parse", "methods") as f64);
        m.insert("phase1.busy_ms", phase1);
        m.insert("phase1.runs", self.count("phase1") as f64);
        m.insert("phase1.solve_ms", self.ms("phase1.solve"));
        m.insert("phase1.heapgraph_ms", self.ms("phase1.heapgraph"));
        m.insert("phase1.escape_ms", self.ms("phase1.escape"));
        m.insert("phase1.mhp_ms", self.ms("phase1.mhp"));
        for (name, key) in [
            ("phase1.worklist_iterations", "worklist_iterations"),
            ("phase1.pts_entries", "pts_entries"),
            ("phase1.contexts", "contexts"),
            ("phase1.cg_nodes", "cg_nodes"),
        ] {
            m.insert(name, self.counter("phase1.solve", key) as f64);
        }
        m.insert(
            "phase1.solve_us_per_cg_node",
            per(self.ms("phase1.solve") * 1e3, self.counter("phase1.solve", "cg_nodes") as f64),
        );
        m.insert("phase2.busy_ms", phase2);
        for (config, key) in CONFIG_KEYS {
            let us = self.phase2_by_config.get(config).copied().unwrap_or(0);
            m.insert(key, us as f64 / 1e3);
        }
        m.insert("phase2.specs_ms", self.ms("phase2.specs"));
        m.insert("phase2.views_ms", self.ms("phase2.views"));
        m.insert("phase2.unit_ms", self.ms("phase2.unit"));
        m.insert("phase2.post_ms", self.ms("phase2.post"));
        m.insert("phase2.units", self.count("phase2.unit") as f64);
        let work = self.counter("phase2.unit", "work");
        m.insert("phase2.slicer_work", work as f64);
        m.insert("phase2.heap_transitions", self.counter("phase2.unit", "heap_transitions") as f64);
        m.insert("phase2.view_nodes", self.counter("phase2.views", "nodes") as f64);
        m.insert("phase2.view_use_edges", self.counter("phase2.views", "use_edges") as f64);
        m.insert("phase2.ifds_worklist_pops", self.counter("phase2.unit", "pops") as f64);
        m.insert("phase2.unit_ms_per_kwork", per(self.ms("phase2.unit"), work as f64 / 1e3));
        m.insert("phase2.undecided", self.undecided as f64);
        m.insert("render.busy_ms", render);
        m.insert("render.kb", self.rendered_bytes as f64 / 1024.0);
        m.insert("share.prepare", per(prepare, wall_ms));
        m.insert("share.phase1", per(phase1, wall_ms));
        m.insert("share.phase2", per(phase2, wall_ms));
        m.insert("share.render", per(render, wall_ms));
        let layers = self.ms(PREPARE) + self.ms(PHASE1) + self.ms(PHASE2) + self.ms(RENDER);
        m.insert("trace.span_coverage", per(layers * 1e3, self.op_us as f64));
        m.insert("trace.wall_ms", wall_ms);
        m
    }
}
