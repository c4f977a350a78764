//! Pinned phase-1 output of the §6.1 priority-driven call-graph
//! construction.
//!
//! Under a node budget the priority order decides *which* nodes make it
//! into the call graph, so any change to how π is computed or how the
//! pending queue pops can silently change every downstream report. This
//! test pins, for three standard-scale presets under both priority
//! configurations, the solver's deterministic counters and a hash of the
//! call-graph node order (creation order, which is the pop order of the
//! pending queue). The values were recorded before the neighbourhood
//! update moved from call-edge scans to adjacency lists; they must not
//! change unless the analysis itself is meant to change.
//!
//! On these programs the node order depends on the source seeding and on
//! the budget, but not on the neighbourhood update itself: disabling the
//! update leaves the order of all 22 presets at standard scale unchanged
//! under budgets of 300, 1,000 and 3,500 nodes. The update is
//! checked against the old edge-scan propagation on random graphs by
//! `priority::tests::propagation_matches_edge_scan_reference` in
//! taj-pointer.

use taj::core::{prepare, run_phase1, RuleSet, TajConfig};
use taj::pointer::SolverStats;
use taj::webgen::{generate, presets, Scale};

/// Pinned counters and node-order hash of one preset's phase 1.
struct Golden {
    preset: &'static str,
    nodes: usize,
    call_edges: usize,
    pts_entries: usize,
    propagations: usize,
    contexts: usize,
    nodes_dropped: usize,
    node_order_hash: u64,
}

const GOLDEN: [Golden; 3] = [
    Golden {
        preset: "Webgoat",
        nodes: 3500,
        call_edges: 3293,
        pts_entries: 11_715,
        propagations: 9844,
        contexts: 1770,
        nodes_dropped: 225,
        node_order_hash: 0x8ad5d0efbd2d49f5,
    },
    Golden {
        preset: "SBM",
        nodes: 1907,
        call_edges: 1785,
        pts_entries: 6214,
        propagations: 5118,
        contexts: 958,
        nodes_dropped: 0,
        node_order_hash: 0x07628351fa74aa91,
    },
    Golden {
        preset: "GridSphere",
        nodes: 3500,
        call_edges: 2926,
        pts_entries: 9804,
        propagations: 6382,
        contexts: 2963,
        nodes_dropped: 2101,
        node_order_hash: 0x89d274f0776e9875,
    },
];

/// FNV-1a over the `(method, context)` ids of the call-graph nodes in
/// creation order. Written out by hand so the value does not depend on
/// the standard library's hasher.
fn node_order_hash(nodes: &[(taj::jir::MethodId, taj::pointer::ContextId)]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &(m, c) in nodes {
        for byte in m.0.to_le_bytes().into_iter().chain(c.0.to_le_bytes()) {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn check(config: &TajConfig) {
    for golden in &GOLDEN {
        let preset = presets().into_iter().find(|p| p.name == golden.preset).unwrap();
        let bench = generate(&preset.spec(Scale::standard()));
        let prepared = prepare(&bench.source, Some(&bench.descriptor), RuleSet::default_rules())
            .expect("preset prepares");
        let phase1 = run_phase1(&prepared, config);
        let SolverStats {
            nodes,
            call_edges,
            pts_entries,
            propagations,
            contexts,
            nodes_dropped,
            ..
        } = phase1.pts.stats;
        let got = (
            nodes,
            call_edges,
            pts_entries,
            propagations,
            contexts,
            nodes_dropped,
            node_order_hash(&phase1.pts.callgraph.nodes),
        );
        let want = (
            golden.nodes,
            golden.call_edges,
            golden.pts_entries,
            golden.propagations,
            golden.contexts,
            golden.nodes_dropped,
            golden.node_order_hash,
        );
        assert_eq!(
            got, want,
            "{} under {}: (nodes, call_edges, pts_entries, propagations, contexts, \
             nodes_dropped, node_order_hash) moved",
            golden.preset, config.name
        );
    }
}

#[test]
fn hybrid_prioritized_phase1_is_pinned() {
    check(&TajConfig::hybrid_prioritized());
}

#[test]
fn hybrid_optimized_phase1_is_pinned() {
    check(&TajConfig::hybrid_optimized());
}
