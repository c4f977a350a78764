//! Taint-carrier detection (§4.1.1): find, for every abstract object, the
//! sink call statements whose sensitive arguments may reach it in the heap
//! graph. The slicers then add a direct HSDG edge from any store into such
//! an object to the corresponding sink.
//!
//! Only nodes that call one of the rule's sinks can contribute, so the
//! scan visits exactly those, read off the phase-1 def-use index, in
//! ascending node order — the order a scan of every node would use.
//!
//! The reachability search is bounded by the nested-taint depth (§6.2.3);
//! the paper found 2 dereference levels sufficient in practice.

use std::collections::HashMap;

use jir::inst::Inst;
use jir::util::BitSet;
use jir::MethodId;
use taj_pointer::{CGNodeId, HeapGraph, PointsTo};
use taj_sdg::{CarrierSink, DefUseIndex, StmtNode};

use crate::rules::ResolvedRule;

/// Builds the carrier index for one rule: abstract object (raw instance
/// key) → sinks reachable from it. `index` is the def-use index built
/// from `pts`.
///
/// Implements the three-step recipe of §4.1.1:
/// 1. For each sink invocation `sk`, let `Isk` be the union of points-to
///    sets of its sensitive formal parameters.
/// 2. Let `I*sk` be the instance keys reachable in the heap graph from
///    `Isk` (bounded by `nested_depth` dereferences).
/// 3. A store whose base points into `I*sk` gets an edge to `sk`.
pub fn build_carrier_index(
    program: &jir::Program,
    pts: &PointsTo,
    heap: &HeapGraph,
    index: &DefUseIndex,
    rule: &ResolvedRule,
    nested_depth: Option<usize>,
) -> HashMap<u32, Vec<CarrierSink>> {
    let sink_positions = sink_positions(rule);
    let mut carriers = HashMap::new();
    for node in index.callers_of_any(sink_positions.keys()) {
        scan_node(program, pts, heap, &sink_positions, nested_depth, node, &mut carriers);
    }
    carriers
}

fn sink_positions(rule: &ResolvedRule) -> HashMap<MethodId, &[usize]> {
    rule.sinks.iter().map(|(m, p)| (*m, p.as_slice())).collect()
}

/// Adds the carriers of every sink call in `node` to `carriers`.
fn scan_node(
    program: &jir::Program,
    pts: &PointsTo,
    heap: &HeapGraph,
    sink_positions: &HashMap<MethodId, &[usize]>,
    nested_depth: Option<usize>,
    node: CGNodeId,
    carriers: &mut HashMap<u32, Vec<CarrierSink>>,
) {
    let method = pts.callgraph.method_of(node);
    let Some(body) = program.method(method).body() else { return };
    for (bid, block) in body.iter_blocks() {
        for (i, inst) in block.insts.iter().enumerate() {
            let Inst::Call { args, .. } = inst else { continue };
            let loc = jir::Loc::new(bid, i);
            // Resolve sink callees at this site (body + intrinsic).
            let mut sink_callees: Vec<MethodId> = Vec::new();
            for &t in pts.callgraph.targets(node, loc) {
                let m = pts.callgraph.method_of(t);
                if sink_positions.contains_key(&m) && !sink_callees.contains(&m) {
                    sink_callees.push(m);
                }
            }
            for &(m, _) in pts.intrinsics_at(node, loc) {
                if sink_positions.contains_key(&m) && !sink_callees.contains(&m) {
                    sink_callees.push(m);
                }
            }
            for callee in sink_callees {
                for &pos in sink_positions[&callee] {
                    let Some(&arg) = args.get(pos) else { continue };
                    let Some(arg_pts) = pts.local(node, arg) else { continue };
                    if arg_pts.is_empty() {
                        continue;
                    }
                    let reachable: BitSet = heap.reachable(arg_pts, nested_depth);
                    let sink = CarrierSink { stmt: StmtNode { node, loc }, method: callee, pos };
                    for ik in reachable.iter() {
                        let entry = carriers.entry(ik).or_default();
                        if !entry.contains(&sink) {
                            entry.push(sink);
                        }
                    }
                }
            }
        }
    }
}

/// The carrier index by a scan of every call-graph node: the reference
/// the sink-caller scan must reproduce exactly.
#[cfg(test)]
fn build_carrier_index_by_full_scan(
    program: &jir::Program,
    pts: &PointsTo,
    heap: &HeapGraph,
    rule: &ResolvedRule,
    nested_depth: Option<usize>,
) -> HashMap<u32, Vec<CarrierSink>> {
    let sink_positions = sink_positions(rule);
    let mut carriers = HashMap::new();
    for node in pts.callgraph.iter_nodes() {
        scan_node(program, pts, heap, &sink_positions, nested_depth, node, &mut carriers);
    }
    carriers
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frameworks::{DeploymentDescriptor, EjbEntry};
    use crate::rules::RuleSet;
    use crate::{prepare, run_phase1, TajConfig};
    use taj_pointer::{analyze, SolverConfig};
    use taj_webgen::{generate, presets, Scale};

    /// Scanning only the callers of a rule's sinks finds the same carriers,
    /// with each object's sinks in the same order, as scanning every node.
    #[test]
    fn sink_caller_scan_matches_the_full_scan() {
        let mut compared = 0;
        for preset in presets() {
            let bench = generate(&preset.spec(Scale::quick()));
            // The generator links its own build of this crate; carry the
            // descriptor over field by field.
            let descriptor = DeploymentDescriptor {
                entries: bench
                    .descriptor
                    .entries
                    .iter()
                    .map(|e| EjbEntry {
                        jndi_name: e.jndi_name.clone(),
                        home_interface: e.home_interface.clone(),
                        bean_class: e.bean_class.clone(),
                    })
                    .collect(),
            };
            let prepared = prepare(&bench.source, Some(&descriptor), RuleSet::default_rules())
                .expect("preset prepares");
            let program = &prepared.program;
            for config in [TajConfig::hybrid_unbounded(), TajConfig::hybrid_optimized()] {
                let phase1 = run_phase1(&prepared, &config);
                let (pts, heap) = (&phase1.pts, &phase1.heap);
                for rule in &prepared.rules.resolve(program) {
                    for depth in [Some(0), Some(2), None] {
                        let fast =
                            build_carrier_index(program, pts, heap, &phase1.index, rule, depth);
                        let full =
                            build_carrier_index_by_full_scan(program, pts, heap, rule, depth);
                        assert_eq!(
                            fast, full,
                            "[{} {} {:?} depth {depth:?}]",
                            preset.name, config.name, rule.issue
                        );
                        compared += usize::from(!full.is_empty());
                    }
                }
            }
        }
        assert!(compared > 0, "some rule has carriers on some preset");
    }

    #[test]
    fn carrier_index_covers_wrapped_objects() {
        let src = r#"
            class Wrapper {
                field String s;
                ctor (String s) { this.s = s; }
            }
            class Main {
                static method void main() {
                    HttpServletRequest req = new HttpServletRequest();
                    HttpServletResponse resp = new HttpServletResponse();
                    String t = req.getParameter("x");
                    Wrapper w = new Wrapper(t);
                    PrintWriter out = resp.getWriter();
                    out.println(w);
                }
            }
        "#;
        let mut p = jir::frontend::build_program(src).unwrap();
        let c = p.class_by_name("Main").unwrap();
        p.entrypoints.push(p.method_by_name(c, "main").unwrap());
        let pts = analyze(&p, &SolverConfig::default());
        let heap = HeapGraph::build(&pts);
        let rules = RuleSet::default_rules().resolve(&p);
        let xss = rules.iter().find(|r| r.issue == crate::rules::IssueType::Xss).unwrap();
        let def_use = DefUseIndex::build(&p, &pts);
        let index = build_carrier_index(&p, &pts, &heap, &def_use, xss, Some(2));
        // The Wrapper allocation must map to the println sink.
        let wrapper = p.class_by_name("Wrapper").unwrap();
        let wrapper_ik = pts
            .iter_instance_keys()
            .find(|(_, k)| matches!(k, taj_pointer::InstanceKey::Alloc { class, .. } if *class == wrapper))
            .map(|(id, _)| id)
            .expect("wrapper allocated");
        assert!(
            index.contains_key(&wrapper_ik.0),
            "wrapper object must be in the carrier index: {index:?}"
        );
    }

    #[test]
    fn depth_zero_still_covers_direct_args() {
        // With depth 0, only the argument objects themselves are carriers.
        let src = r#"
            class Main {
                static method void main() {
                    HttpServletResponse resp = new HttpServletResponse();
                    Object o = new Object();
                    resp.getWriter().println(o);
                }
            }
        "#;
        let mut p = jir::frontend::build_program(src).unwrap();
        let c = p.class_by_name("Main").unwrap();
        p.entrypoints.push(p.method_by_name(c, "main").unwrap());
        let pts = analyze(&p, &SolverConfig::default());
        let heap = HeapGraph::build(&pts);
        let rules = RuleSet::default_rules().resolve(&p);
        let xss = rules.iter().find(|r| r.issue == crate::rules::IssueType::Xss).unwrap();
        let def_use = DefUseIndex::build(&p, &pts);
        let index = build_carrier_index(&p, &pts, &heap, &def_use, xss, Some(0));
        assert!(!index.is_empty(), "the Object arg itself is a carrier root");
    }
}
