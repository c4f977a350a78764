//! Criterion bench: taint-carrier detection (§4.1.1) with the
//! nested-depth ablation of §6.2.3 — depth 0/1/2/unbounded reachability
//! over the heap graph.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use taj_core::{prepare, run_phase1, IssueType, RuleSet, TajConfig};
use taj_webgen::{generate, presets, Scale};

fn bench_carriers(c: &mut Criterion) {
    let preset = presets().into_iter().find(|p| p.name == "Webgoat").expect("preset");
    let bench = generate(&preset.spec(Scale::quick()));
    let prepared = prepare(&bench.source, None, RuleSet::default_rules()).expect("parses");
    let phase1 = run_phase1(&prepared, &TajConfig::hybrid_unbounded());
    let program = &prepared.program;
    let resolved = prepared.rules.resolve(program);
    let xss = resolved.iter().find(|r| r.issue == IssueType::Xss).expect("xss").clone();

    let mut group = c.benchmark_group("carrier_detection");
    group.sample_size(10);
    for depth in [Some(0usize), Some(1), Some(2), None] {
        let label = depth.map(|d| d.to_string()).unwrap_or_else(|| "unbounded".into());
        group.bench_with_input(BenchmarkId::new("nested_depth", label), &depth, |b, &d| {
            b.iter(|| {
                taj_core::carriers::build_carrier_index(
                    program,
                    &phase1.pts,
                    &phase1.heap,
                    &phase1.index,
                    &xss,
                    d,
                )
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_carriers);
criterion_main!(benches);
