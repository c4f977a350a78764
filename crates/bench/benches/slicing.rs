//! Criterion bench: the three thin-slicing algorithms (§3.2) on prepared
//! programs — the core Table 3 comparison as a microbenchmark.

use criterion::{criterion_group, criterion_main, Criterion};

use taj_core::{prepare, run_phase1, IssueType, Phase1, PreparedProgram, RuleSet, TajConfig};
use taj_sdg::{CiSlicer, CsSlicer, HybridSlicer, ProgramView, SliceBounds, SliceSpec};
use taj_webgen::{generate, presets, Scale};

struct Prepared {
    prepared: PreparedProgram,
    phase1: Phase1,
    spec: SliceSpec,
}

fn prepare_preset(name: &str) -> Prepared {
    let preset = presets().into_iter().find(|p| p.name == name).expect("preset");
    let bench = generate(&preset.spec(Scale::quick()));
    let prepared = prepare(&bench.source, None, RuleSet::default_rules()).expect("parses");
    let phase1 = run_phase1(&prepared, &TajConfig::hybrid_unbounded());
    let resolved = prepared.rules.resolve(&prepared.program);
    let xss = resolved.iter().find(|r| r.issue == IssueType::Xss).expect("xss");
    let mut spec = SliceSpec::default();
    spec.sources.extend(xss.sources.iter().copied());
    spec.sanitizers.extend(xss.sanitizers.iter().copied());
    for (m, pos) in &xss.sinks {
        spec.sinks.insert(*m, pos.clone());
    }
    Prepared { prepared, phase1, spec }
}

fn bench_slicing(c: &mut Criterion) {
    let mut group = c.benchmark_group("slicing");
    group.sample_size(10);
    for name in ["I", "Webgoat"] {
        let p = prepare_preset(name);
        let view = ProgramView::new(&p.prepared.program, &p.phase1.pts, &p.phase1.index, &p.spec);
        group.bench_function(format!("hybrid/{name}"), |b| {
            b.iter(|| HybridSlicer::new(&view, SliceBounds::default()).run())
        });
        group.bench_function(format!("ci/{name}"), |b| {
            b.iter(|| CiSlicer::new(&view, SliceBounds::default()).run())
        });
        group.bench_function(format!("cs/{name}"), |b| {
            b.iter(|| CsSlicer::new(&view, SliceBounds::default()).run())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_slicing);
criterion_main!(benches);
