//! Pins the exactness of the per-rule overlay: a [`ProgramView`] over a
//! shared [`DefUseIndex`] must show every call-graph node exactly as
//! [`build_node_view`] builds it under the rule's own spec — same
//! per-register use order, loads and sources — and must find the same
//! seeds and by-reference seeds as a walk over those full views.

use jir::inst::{Inst, Loc};
use jir::Program;
use taj_core::{prepare, run_phase1, DeploymentDescriptor, ResolvedRule, RuleSet, TajConfig};
use taj_pointer::{CGNodeId, PointsTo};
use taj_sdg::view::{build_node_view, RefSeed};
use taj_sdg::{DefUseIndex, ProgramView, SliceSpec, SourceCall, StmtNode};
use taj_webgen::{generate, standard_mix, BenchmarkSpec};

/// The rule's slice spec, with the roles and synthetic sites the driver
/// gives it (carrier sinks do not reach the view).
fn spec_of(rule: &ResolvedRule, pts: &PointsTo, synthetic: &[(jir::MethodId, Loc)]) -> SliceSpec {
    let mut spec = SliceSpec::default();
    spec.sources.extend(rule.sources.iter().copied());
    spec.sanitizers.extend(rule.sanitizers.iter().copied());
    spec.sinks.extend(rule.sinks.iter().cloned());
    spec.ref_sources.extend(rule.ref_sources.iter().cloned());
    for &(method, loc) in synthetic {
        for node in pts.callgraph.nodes_of_method(method) {
            spec.synthetic_source_sites.push(StmtNode { node, loc });
        }
    }
    spec
}

/// The call at `(node, loc)`: its destination and first resolved callee.
fn call_at(
    program: &Program,
    pts: &PointsTo,
    node: CGNodeId,
    loc: Loc,
) -> Option<(Option<jir::inst::Var>, jir::MethodId)> {
    let body = program.method(pts.callgraph.method_of(node)).body()?;
    let Inst::Call { dst, .. } = body.blocks.get(loc.block.index())?.insts.get(loc.idx as usize)?
    else {
        return None;
    };
    let callee = pts
        .callgraph
        .targets(node, loc)
        .first()
        .map(|&t| pts.callgraph.method_of(t))
        .or_else(|| pts.intrinsics_at(node, loc).first().map(|&(m, _)| m))?;
    Some((*dst, callee))
}

/// By-reference seeds by a walk over every call site of every node.
fn reference_ref_seeds(
    program: &Program,
    pts: &PointsTo,
    index: &DefUseIndex,
    spec: &SliceSpec,
) -> Vec<RefSeed> {
    let mut out = Vec::new();
    for node in pts.callgraph.iter_nodes() {
        let Some(body) = program.method(pts.callgraph.method_of(node)).body() else { continue };
        for (bid, block) in body.iter_blocks() {
            for (i, inst) in block.insts.iter().enumerate() {
                let Inst::Call { args, .. } = inst else { continue };
                let loc = Loc::new(bid, i);
                let callees = pts
                    .callgraph
                    .targets(node, loc)
                    .iter()
                    .map(|&t| pts.callgraph.method_of(t))
                    .chain(pts.intrinsics_at(node, loc).iter().map(|&(m, _)| m));
                for callee in callees {
                    for &pos in spec.ref_sources.get(&callee).into_iter().flatten() {
                        let Some(&arg) = args.get(pos) else { continue };
                        let arg_pts = pts.local(node, arg).cloned().unwrap_or_default();
                        if arg_pts.is_empty() {
                            continue;
                        }
                        let facts = index
                            .field_loads()
                            .filter(|(lnode, l)| {
                                l.base
                                    .and_then(|b| pts.local(*lnode, b))
                                    .is_some_and(|p| p.intersects(&arg_pts))
                            })
                            .map(|(lnode, l)| (lnode, l.dst))
                            .collect();
                        out.push(RefSeed {
                            stmt: StmtNode { node, loc },
                            method: callee,
                            arg_pts,
                            facts,
                        });
                    }
                }
            }
        }
    }
    out
}

/// Checks every rule's overlay against the full per-rule views; returns
/// the overlay node and by-reference seed totals.
fn assert_overlay_exact(
    label: &str,
    src: &str,
    descriptor: Option<&DeploymentDescriptor>,
) -> (usize, usize) {
    let prepared = prepare(src, descriptor, RuleSet::default_rules()).expect("program prepares");
    let phase1 = run_phase1(&prepared, &TajConfig::hybrid_unbounded());
    let (program, pts) = (&prepared.program, &phase1.pts);
    let index = DefUseIndex::build(program, pts);
    let rules = prepared.rules.resolve(program);
    assert!(!rules.is_empty(), "[{label}] default rules resolve");
    let (mut overlaid, mut ref_seeds) = (0, 0);
    for rule in &rules {
        let spec = spec_of(rule, pts, &prepared.synthetic_sites);
        let view = ProgramView::new(program, pts, &index, &spec);
        let mut seeds: Vec<(StmtNode, SourceCall)> = Vec::new();
        for node in pts.callgraph.iter_nodes() {
            let full = build_node_view(program, pts, &spec, node);
            let full = full.node(0);
            assert_eq!(view.node(node), full, "[{label} {}] node {node:?}", rule.issue);
            seeds.extend(full.sources.iter().map(|s| (StmtNode { node, loc: s.loc }, *s)));
        }
        for site in &spec.synthetic_source_sites {
            if let Some((Some(dst), method)) = call_at(program, pts, site.node, site.loc) {
                if !seeds.iter().any(|(st, _)| st == site) {
                    seeds.push((*site, SourceCall { loc: site.loc, dst, method }));
                }
            }
        }
        assert_eq!(view.seeds(), &seeds[..], "[{label} {}] seeds", rule.issue);
        let want_refs = reference_ref_seeds(program, pts, &index, &spec);
        assert_eq!(view.ref_seeds(), &want_refs[..], "[{label} {}] ref seeds", rule.issue);
        overlaid += view.stats().nodes;
        ref_seeds += want_refs.len();
    }
    (overlaid, ref_seeds)
}

#[test]
fn overlay_matches_full_views_on_a_securibench_case() {
    let case = taj_webgen::securibench::cases()
        .into_iter()
        .find(|c| c.name == "Sanitizers2")
        .expect("case exists");
    let (overlaid, _) = assert_overlay_exact(case.name, &case.source, None);
    assert!(overlaid > 0, "the case calls sources, sinks and sanitizers");
}

#[test]
fn overlay_matches_full_views_on_a_webgen_app() {
    let bench = generate(&BenchmarkSpec {
        name: "overlay-exactness".into(),
        pattern_counts: standard_mix(2, 1, true),
        filler_classes: 3,
        methods_per_class: 4,
        seed: 0xD17E,
    });
    let (overlaid, _) = assert_overlay_exact("webgen", &bench.source, Some(&bench.descriptor));
    assert!(overlaid > 0);
}

#[test]
fn overlay_matches_full_views_with_by_reference_sources_and_role_helpers() {
    // Each role is called from a method that calls no other role, so the
    // overlay must pick up callers of sources, sinks and sanitizers alike.
    let src = r#"
        class Helpers {
            static method String read(HttpServletRequest req) { return req.getParameter("q"); }
            static method String clean(String s) { return Encoder.encodeForHTML(s); }
            static method void show(HttpServletResponse resp, String s) { resp.getWriter().println(s); }
        }
        class Page extends HttpServlet {
            method void doGet(HttpServletRequest req, HttpServletResponse resp) {
                RandomAccessFile f = new RandomAccessFile("upload.bin");
                ByteBuffer buf = new ByteBuffer();
                f.readFully(buf);
                String content = buf.data;
                Helpers.show(resp, content);
                Helpers.show(resp, Helpers.clean(Helpers.read(req)));
            }
        }
    "#;
    let (_, ref_seeds) = assert_overlay_exact("helpers", src, None);
    assert!(ref_seeds > 0, "readFully is a by-reference source");
}
