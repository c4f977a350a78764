//! A per-call-graph-node view of the IR tailored to slicing: def-use
//! roles, load/store inventories, resolved call targets, and taint-rule
//! classifications. Every slicer consumes this.
//!
//! The view comes in two layers: a rule-independent [`DefUseIndex`],
//! built once per phase-1 result and owned by it, and a per-rule
//! [`ProgramView`] that rebuilds only the nodes calling one of the rule's
//! sources, sinks or sanitizers.
//!
//! Both layers keep their node views flat, in a [`NodeTable`]: one vector
//! of uses sorted by (node, register) with per-node ranges. The index then
//! costs little more than its uses, so a cache can keep it beside the
//! phase-1 result it came from.

use std::sync::OnceLock;

use jir::inst::{BinOp, Inst, Loc, Terminator, Var};
use jir::method::Intrinsic;
use jir::{FieldId, MethodId, Program};
use taj_pointer::{CGNodeId, PointsTo};

use crate::spec::{SliceSpec, StmtNode};

/// Field identity for heap-edge matching.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FieldKey {
    /// A named instance field.
    Field(FieldId),
    /// Array contents.
    Array,
}

/// One way a register is used inside a node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Use {
    /// Local value flow into another register at `loc`.
    Flow {
        /// Destination register.
        to: Var,
        /// Statement.
        loc: Loc,
    },
    /// Stored into the heap.
    Store {
        /// Statement.
        loc: Loc,
        /// Base register.
        base: Var,
        /// Field.
        field: FieldKey,
    },
    /// Stored into a static field.
    StaticStore {
        /// Statement.
        loc: Loc,
        /// Field.
        field: FieldId,
    },
    /// Passed as the `pos`-th argument of a call with body callees.
    Arg {
        /// Call statement.
        loc: Loc,
        /// 0-based argument position (`u32` keeps a use at 20 bytes).
        pos: u32,
    },
    /// Used by the `return` terminator.
    Ret {
        /// Terminator pseudo-location.
        loc: Loc,
    },
    /// Passed at a vulnerable position of a sink call (§3).
    SinkArg {
        /// Call statement.
        loc: Loc,
        /// Resolved sink method.
        method: MethodId,
        /// Parameter position.
        pos: u32,
    },
    /// Passed to a sanitizer: propagation stops (§3.2).
    Sanitized {
        /// Call statement.
        loc: Loc,
    },
}

/// A heap load statement (instance, static, or array).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LoadStmt {
    /// Statement location.
    pub loc: Loc,
    /// Base register (`None` for static loads).
    pub base: Option<Var>,
    /// Field identity (`None` for static loads — see `static_field`).
    pub field: Option<FieldKey>,
    /// Static field when `base` is `None`.
    pub static_field: Option<FieldId>,
    /// Loaded-into register.
    pub dst: Var,
}

/// A taint seed: a call to a source method.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SourceCall {
    /// Call statement.
    pub loc: Loc,
    /// Register receiving the tainted value.
    pub dst: Var,
    /// The source method.
    pub method: MethodId,
}

/// A by-reference taint seed: see [`ProgramView::ref_seeds`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RefSeed {
    /// The call statement invoking the by-reference source.
    pub stmt: StmtNode,
    /// The resolved by-reference source method.
    pub method: MethodId,
    /// Points-to set of the tainted argument object.
    pub arg_pts: jir::util::BitSet,
    /// Initial slicing facts: destinations of loads that may read the
    /// tainted object's state.
    pub facts: Vec<(CGNodeId, Var)>,
}

/// Node views stored flat: every node's uses in one vector, sorted by
/// register and, within a register, in body order, beside a parallel
/// vector of those registers; loads in per-node ranges of their own
/// vector and sources tagged with their node, both in body order. Node
/// `i` of the table is the `i`-th node pushed.
#[derive(Debug)]
pub struct NodeTable {
    /// Per node, the start of its uses; one more entry closes the last.
    node_uses: Vec<u32>,
    /// The register each use reads, ascending within a node.
    vars: Vec<Var>,
    uses: Vec<Use>,
    /// Per node, the start of its loads; one more entry closes the last.
    node_loads: Vec<u32>,
    loads: Vec<LoadStmt>,
    /// The table node of each source, ascending. Only overlays hold
    /// sources, so the index keeps no per-node ranges for them.
    source_nodes: Vec<u32>,
    sources: Vec<SourceCall>,
}

impl Default for NodeTable {
    fn default() -> Self {
        NodeTable {
            node_uses: vec![0],
            vars: Vec::new(),
            uses: Vec::new(),
            node_loads: vec![0],
            loads: Vec::new(),
            source_nodes: Vec::new(),
            sources: Vec::new(),
        }
    }
}

impl NodeTable {
    /// The view of the `i`-th node of the table.
    pub fn node(&self, i: usize) -> NodeView<'_> {
        let range = |starts: &[u32]| starts[i] as usize..starts[i + 1] as usize;
        let uses = range(&self.node_uses);
        let i = i as u32;
        let sources = self.source_nodes.partition_point(|&n| n < i)
            ..self.source_nodes.partition_point(|&n| n <= i);
        NodeView {
            vars: &self.vars[uses.clone()],
            uses: &self.uses[uses],
            loads: &self.loads[range(&self.node_loads)],
            sources: &self.sources[sources],
        }
    }

    /// Appends the view of `node` under `spec`. `scratch` is reused
    /// buffer space for the node's `(register, use)` pairs.
    fn push(
        &mut self,
        program: &Program,
        pts: &PointsTo,
        spec: &SliceSpec,
        node: CGNodeId,
        scratch: &mut Vec<(Var, Use)>,
    ) {
        scratch.clear();
        collect_node(program, pts, spec, node, scratch, &mut self.loads, &mut self.sources);
        // Stable: each register keeps its uses in body order.
        scratch.sort_by_key(|&(var, _)| var);
        for (var, u) in scratch.drain(..) {
            self.vars.push(var);
            self.uses.push(u);
        }
        let index = (self.node_uses.len() - 1) as u32;
        self.source_nodes.resize(self.sources.len(), index);
        self.node_uses.push(self.uses.len() as u32);
        self.node_loads.push(self.loads.len() as u32);
    }

    /// Releases spare capacity, so [`NodeTable::heap_bytes`] is what the
    /// table keeps.
    fn shrink_to_fit(&mut self) {
        self.node_uses.shrink_to_fit();
        self.vars.shrink_to_fit();
        self.uses.shrink_to_fit();
        self.node_loads.shrink_to_fit();
        self.loads.shrink_to_fit();
        self.source_nodes.shrink_to_fit();
        self.sources.shrink_to_fit();
    }

    /// Heap bytes the table holds.
    fn heap_bytes(&self) -> usize {
        vec_bytes(&self.node_uses)
            + vec_bytes(&self.vars)
            + vec_bytes(&self.uses)
            + vec_bytes(&self.node_loads)
            + vec_bytes(&self.loads)
            + vec_bytes(&self.source_nodes)
            + vec_bytes(&self.sources)
    }

    fn stats(&self) -> ViewStats {
        ViewStats {
            nodes: self.node_uses.len() - 1,
            use_edges: self.uses.len(),
            loads: self.loads.len(),
            sources: self.sources.len(),
        }
    }
}

/// Heap bytes a vector holds: its capacity, not its length.
fn vec_bytes<T>(v: &Vec<T>) -> usize {
    v.capacity() * std::mem::size_of::<T>()
}

/// Slicing-oriented view of one call-graph node, borrowed from a
/// [`NodeTable`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NodeView<'v> {
    /// The register of each use, ascending.
    vars: &'v [Var],
    uses: &'v [Use],
    /// Heap/static loads in this node, in body order.
    pub loads: &'v [LoadStmt],
    /// Source calls (taint seeds) in this node, in body order.
    pub sources: &'v [SourceCall],
}

impl<'v> NodeView<'v> {
    /// The uses of `var`, in body order; empty if it has none.
    pub fn uses(&self, var: Var) -> &'v [Use] {
        let start = self.vars.partition_point(|&v| v < var);
        let end = self.vars.partition_point(|&v| v <= var);
        &self.uses[start..end]
    }

    /// Every register with uses, ascending, with its uses in body order.
    pub fn iter_uses(&self) -> impl Iterator<Item = (Var, &'v [Use])> + 'v {
        let view = *self;
        let mut start = 0;
        std::iter::from_fn(move || {
            let var = *view.vars.get(start)?;
            let end = start + view.vars[start..].partition_point(|&v| v == var);
            let group = &view.uses[start..end];
            start = end;
            Some((var, group))
        })
    }
}

/// A multimap stored flat: keys ascending, each with the end of its
/// values in one vector, each key's values in insertion order.
#[derive(Debug)]
struct Grouped<K, V> {
    keys: Vec<(K, u32)>,
    values: Vec<V>,
}

impl<K: Ord + Copy, V> Grouped<K, V> {
    /// Groups `pairs` by key, keeping the order of each key's values.
    fn from_pairs(mut pairs: Vec<(K, V)>) -> Self {
        pairs.sort_by_key(|&(k, _)| k);
        let mut keys: Vec<(K, u32)> = Vec::new();
        let mut values = Vec::with_capacity(pairs.len());
        for (k, v) in pairs {
            if keys.last().map(|&(last, _)| last) != Some(k) {
                keys.push((k, 0));
            }
            values.push(v);
            if let Some(last) = keys.last_mut() {
                last.1 = values.len() as u32;
            }
        }
        keys.shrink_to_fit();
        Grouped { keys, values }
    }

    /// The values of `key`, empty if it has none.
    fn get(&self, key: &K) -> &[V] {
        match self.keys.binary_search_by_key(key, |&(k, _)| k) {
            Ok(i) => self.group(i),
            Err(_) => &[],
        }
    }

    fn group(&self, i: usize) -> &[V] {
        let start = if i == 0 { 0 } else { self.keys[i - 1].1 as usize };
        &self.values[start..self.keys[i].1 as usize]
    }

    fn heap_bytes(&self) -> usize {
        vec_bytes(&self.keys) + vec_bytes(&self.values)
    }
}

/// The rule-independent half of the slicing view: every call-graph node's
/// view built under an empty [`SliceSpec`], plus the global indices for
/// heap-edge matching and return plumbing. Rules differ only at calls to
/// their own sources, sinks and sanitizers, so one index serves every
/// rule of every phase-2 pass over the same phase-1 result; each rule's
/// [`ProgramView`] overlays the few nodes its roles change. It borrows
/// nothing, so the phase-1 result that owns it can be cached.
#[derive(Debug)]
pub struct DefUseIndex {
    table: NodeTable,
    /// Instance/array loads by field key, as `(node, index into the
    /// table's loads)`, ascending by node.
    loads_by_field: Grouped<FieldKey, (CGNodeId, u32)>,
    /// Static loads by field, likewise.
    static_loads: Grouped<FieldId, (CGNodeId, u32)>,
    /// For each callee node: the indices of its incoming call-graph
    /// edges, ascending — the call sites its return value lands at.
    return_edges: Grouped<CGNodeId, u32>,
    /// Reflective invoke bindings grouped for array-store matching:
    /// `(caller node, call loc, array var, callee node)`.
    pub invoke_bindings: Vec<(CGNodeId, Loc, Var, CGNodeId)>,
    /// Method → the nodes with a call site resolving to it (a call-graph
    /// target or an intrinsic callee), ascending and unique.
    callers_of: Grouped<MethodId, CGNodeId>,
}

/// Aggregate size counters of node views — the SDG-side numbers tracing
/// attaches to the `phase1.index` and `phase2.views` spans.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ViewStats {
    /// Call-graph node views built.
    pub nodes: usize,
    /// Register-use edges across those node views.
    pub use_edges: usize,
    /// Heap/static load statements in those node views.
    pub loads: usize,
    /// Source (taint-seed) calls found.
    pub sources: usize,
}

impl ViewStats {
    /// Component-wise sum, for aggregating across per-rule views.
    pub fn add(&mut self, other: ViewStats) {
        self.nodes += other.nodes;
        self.use_edges += other.use_edges;
        self.loads += other.loads;
        self.sources += other.sources;
    }
}

impl DefUseIndex {
    /// Builds the rule-independent views of every call-graph node.
    pub fn build(program: &Program, pts: &PointsTo) -> Self {
        let no_roles = SliceSpec::default();
        let mut table = NodeTable::default();
        let mut scratch = Vec::new();
        let mut callers: Vec<(MethodId, CGNodeId)> = Vec::new();
        for node in pts.callgraph.iter_nodes() {
            table.push(program, pts, &no_roles, node, &mut scratch);
            for_each_callee(program, pts, node, |_, _, callee| callers.push((callee, node)));
        }
        table.shrink_to_fit();
        callers.sort_unstable();
        callers.dedup();
        let mut field_loads: Vec<(FieldKey, (CGNodeId, u32))> = Vec::new();
        let mut static_loads: Vec<(FieldId, (CGNodeId, u32))> = Vec::new();
        for node in pts.callgraph.iter_nodes() {
            let (start, end) = (table.node_loads[node.index()], table.node_loads[node.index() + 1]);
            for i in start..end {
                let l = &table.loads[i as usize];
                if let Some(f) = l.field {
                    field_loads.push((f, (node, i)));
                } else if let Some(sf) = l.static_field {
                    static_loads.push((sf, (node, i)));
                }
            }
        }
        let return_edges =
            pts.callgraph.edges.iter().enumerate().map(|(i, e)| (e.callee, i as u32)).collect();
        let invoke_bindings =
            pts.invoke_bindings.iter().map(|b| (b.caller, b.loc, b.arg_array, b.callee)).collect();
        DefUseIndex {
            table,
            loads_by_field: Grouped::from_pairs(field_loads),
            static_loads: Grouped::from_pairs(static_loads),
            return_edges: Grouped::from_pairs(return_edges),
            invoke_bindings,
            callers_of: Grouped::from_pairs(callers),
        }
    }

    /// The rule-independent view of `node`.
    pub fn node(&self, node: CGNodeId) -> NodeView<'_> {
        self.table.node(node.index())
    }

    /// Instance/array loads of `field`, as `(node, load)`, ascending by
    /// node and in body order within a node.
    pub fn loads_of_field(
        &self,
        field: FieldKey,
    ) -> impl Iterator<Item = (CGNodeId, &LoadStmt)> + '_ {
        self.loads_by_field.get(&field).iter().map(|&(n, i)| (n, &self.table.loads[i as usize]))
    }

    /// Every instance/array load, grouped by field key ascending.
    pub fn field_loads(&self) -> impl Iterator<Item = (CGNodeId, &LoadStmt)> + '_ {
        self.loads_by_field.values.iter().map(|&(n, i)| (n, &self.table.loads[i as usize]))
    }

    /// Static loads of `field`, as `(node, load)`, ascending by node.
    pub fn static_loads_of(
        &self,
        field: FieldId,
    ) -> impl Iterator<Item = (CGNodeId, &LoadStmt)> + '_ {
        self.static_loads.get(&field).iter().map(|&(n, i)| (n, &self.table.loads[i as usize]))
    }

    /// Aggregate size counters over every node view.
    pub fn stats(&self) -> ViewStats {
        self.table.stats()
    }

    /// Heap bytes the index holds: the capacity of each of its vectors
    /// times its element size.
    pub fn heap_bytes(&self) -> usize {
        self.table.heap_bytes()
            + self.loads_by_field.heap_bytes()
            + self.static_loads.heap_bytes()
            + self.return_edges.heap_bytes()
            + vec_bytes(&self.invoke_bindings)
            + self.callers_of.heap_bytes()
    }

    /// The nodes calling any of `methods`, ascending and unique.
    pub fn callers_of_any<'m>(
        &self,
        methods: impl IntoIterator<Item = &'m MethodId>,
    ) -> Vec<CGNodeId> {
        let mut nodes: Vec<CGNodeId> =
            methods.into_iter().flat_map(|m| self.callers_of.get(m)).copied().collect();
        nodes.sort_unstable();
        nodes.dedup();
        nodes
    }
}

/// One rule's slicing view: the shared [`DefUseIndex`] with the nodes
/// whose calls the rule's roles reclassify rebuilt under its spec.
#[derive(Debug)]
pub struct ProgramView<'a> {
    /// The analyzed program.
    pub program: &'a Program,
    /// Phase-1 results.
    pub pts: &'a PointsTo,
    /// The rule projection.
    pub spec: &'a SliceSpec,
    /// The shared rule-independent index.
    pub index: &'a DefUseIndex,
    /// The nodes rebuilt under `spec`, ascending: exactly the nodes
    /// calling one of its sources, sinks or sanitizers. `overlay` holds
    /// their views in the same order.
    overlay_nodes: Vec<CGNodeId>,
    overlay: NodeTable,
    seeds: OnceLock<Vec<(StmtNode, SourceCall)>>,
    ref_seeds: OnceLock<Vec<RefSeed>>,
}

impl<'a> ProgramView<'a> {
    /// The view of one rule over the index built from `program` and
    /// `pts`.
    pub fn new(
        program: &'a Program,
        pts: &'a PointsTo,
        index: &'a DefUseIndex,
        spec: &'a SliceSpec,
    ) -> Self {
        let roles = spec.sources.iter().chain(spec.sinks.keys()).chain(&spec.sanitizers);
        let overlay_nodes = index.callers_of_any(roles);
        let mut overlay = NodeTable::default();
        let mut scratch = Vec::new();
        for &node in &overlay_nodes {
            overlay.push(program, pts, spec, node, &mut scratch);
        }
        ProgramView {
            program,
            pts,
            spec,
            index,
            overlay_nodes,
            overlay,
            seeds: OnceLock::new(),
            ref_seeds: OnceLock::new(),
        }
    }

    /// The view of `node` under this rule.
    pub fn node(&self, node: CGNodeId) -> NodeView<'_> {
        match self.overlay_nodes.binary_search(&node) {
            Ok(i) => self.overlay.node(i),
            Err(_) => self.index.node(node),
        }
    }

    /// The uses of `var` in `node` under this rule, in body order.
    pub fn uses(&self, node: CGNodeId, var: Var) -> &[Use] {
        self.node(node).uses(var)
    }

    /// Where `callee`'s return value lands: `(caller, call loc, call
    /// dst)` for each incoming call edge, in call-edge order.
    pub fn return_sites(
        &self,
        callee: CGNodeId,
    ) -> impl Iterator<Item = (CGNodeId, Loc, Option<Var>)> + '_ {
        self.index.return_edges.get(&callee).iter().map(|&e| {
            let e = &self.pts.callgraph.edges[e as usize];
            (e.caller, e.loc, call_dst_at(self.program, self.pts, e.caller, e.loc))
        })
    }

    /// Aggregate size counters over the rule's overlay node views.
    pub fn stats(&self) -> ViewStats {
        self.overlay.stats()
    }

    /// All taint seeds in the program: source calls plus synthetic source
    /// sites (§4.1.2). Computed on first use.
    pub fn seeds(&self) -> &[(StmtNode, SourceCall)] {
        self.seeds.get_or_init(|| {
            // Only overlay nodes call a source, so only they hold any.
            let mut out = Vec::new();
            for (i, node) in self.overlay_nodes.iter().enumerate() {
                for s in self.overlay.node(i).sources {
                    out.push((StmtNode { node: *node, loc: s.loc }, *s));
                }
            }
            for site in &self.spec.synthetic_source_sites {
                if site.node.index() >= self.pts.callgraph.len() {
                    continue;
                }
                if let Some((Some(d), method)) = self.call_at(site.node, site.loc) {
                    let sc = SourceCall { loc: site.loc, dst: d, method };
                    if !out.iter().any(|(st, _)| *st == *site) {
                        out.push((*site, sc));
                    }
                }
            }
            out
        })
    }

    /// By-reference taint seeds (footnote 2 of the paper): for every call
    /// site resolving to a `ref_sources` method, the contents of the
    /// flagged argument object become tainted. Returns, per site, the
    /// loads whose base may alias that object (their destinations are the
    /// initial slicing facts) and the argument's points-to set (for
    /// immediate carrier checks). Computed on first use.
    pub fn ref_seeds(&self) -> &[RefSeed] {
        self.ref_seeds.get_or_init(|| {
            let mut out = Vec::new();
            for node in self.index.callers_of_any(self.spec.ref_sources.keys()) {
                for_each_callee(self.program, self.pts, node, |loc, args, callee| {
                    let Some(positions) = self.spec.ref_sources.get(&callee) else { return };
                    for &pos in positions {
                        let Some(&arg) = args.get(pos) else { continue };
                        let arg_pts = self.local_pts(node, arg);
                        if arg_pts.is_empty() {
                            continue;
                        }
                        let facts = self
                            .index
                            .field_loads()
                            .filter(|(lnode, l)| {
                                l.base
                                    .and_then(|b| self.pts.local(*lnode, b))
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
                });
            }
            out
        })
    }

    /// The destination register and first resolved callee of the call at
    /// `(node, loc)`, if it is a call.
    fn call_at(&self, node: CGNodeId, loc: Loc) -> Option<(Option<Var>, MethodId)> {
        let method = self.pts.callgraph.method_of(node);
        let body = self.program.method(method).body()?;
        let inst = body.blocks.get(loc.block.index())?.insts.get(loc.idx as usize)?;
        if let Inst::Call { dst, .. } = inst {
            let callee = self
                .pts
                .callgraph
                .targets(node, loc)
                .first()
                .map(|&t| self.pts.callgraph.method_of(t))
                .or_else(|| self.pts.intrinsics_at(node, loc).first().map(|&(m, _)| m))?;
            Some((*dst, callee))
        } else {
            None
        }
    }

    /// The points-to set of a local, empty if absent.
    pub fn local_pts(&self, node: CGNodeId, var: Var) -> jir::util::BitSet {
        self.pts.local(node, var).cloned().unwrap_or_default()
    }

    /// Whether the statement's owning method is library code (for LCP, §5).
    pub fn is_library_stmt(&self, stmt: StmtNode) -> bool {
        let m = self.pts.callgraph.method_of(stmt.node);
        self.program.class(self.program.method(m).owner).is_library
    }
}

/// Calls `f(loc, args, callee)` for every resolved callee of every call
/// site in `node`, in body order: call-graph targets first, then
/// intrinsic callees.
fn for_each_callee(
    program: &Program,
    pts: &PointsTo,
    node: CGNodeId,
    mut f: impl FnMut(Loc, &[Var], MethodId),
) {
    let Some(body) = program.method(pts.callgraph.method_of(node)).body() else { return };
    for (bid, block) in body.iter_blocks() {
        for (i, inst) in block.insts.iter().enumerate() {
            let Inst::Call { args, .. } = inst else { continue };
            let loc = Loc::new(bid, i);
            for &t in pts.callgraph.targets(node, loc) {
                f(loc, args, pts.callgraph.method_of(t));
            }
            for &(m, _) in pts.intrinsics_at(node, loc) {
                f(loc, args, m);
            }
        }
    }
}

fn call_dst_at(program: &Program, pts: &PointsTo, node: CGNodeId, loc: Loc) -> Option<Var> {
    let method = pts.callgraph.method_of(node);
    let body = program.method(method).body()?;
    let inst = body.blocks.get(loc.block.index())?.insts.get(loc.idx as usize)?;
    match inst {
        Inst::Call { dst, .. } => *dst,
        _ => None,
    }
}

/// The slicing view of `node` under `spec`, as a one-node table — the
/// definition a [`ProgramView`] reproduces for every node, shared or
/// overlaid.
pub fn build_node_view(
    program: &Program,
    pts: &PointsTo,
    spec: &SliceSpec,
    node: CGNodeId,
) -> NodeTable {
    let mut table = NodeTable::default();
    table.push(program, pts, spec, node, &mut Vec::new());
    table
}

/// Appends the uses of `node` under `spec` (as `(register, use)` pairs,
/// in body order), its loads and its sources.
fn collect_node(
    program: &Program,
    pts: &PointsTo,
    spec: &SliceSpec,
    node: CGNodeId,
    uses: &mut Vec<(Var, Use)>,
    loads: &mut Vec<LoadStmt>,
    sources: &mut Vec<SourceCall>,
) {
    let method = pts.callgraph.method_of(node);
    let Some(body) = program.method(method).body() else { return };
    let mut add_use = |v: Var, u: Use| uses.push((v, u));

    for (bid, block) in body.iter_blocks() {
        for (i, inst) in block.insts.iter().enumerate() {
            let loc = Loc::new(bid, i);
            match inst {
                Inst::Assign { dst, src, .. } => {
                    add_use(*src, Use::Flow { to: *dst, loc });
                }
                Inst::Phi { dst, srcs } => {
                    for (_, v) in srcs {
                        add_use(*v, Use::Flow { to: *dst, loc });
                    }
                }
                Inst::Select { dst, srcs } => {
                    for v in srcs {
                        add_use(*v, Use::Flow { to: *dst, loc });
                    }
                }
                Inst::Binary { dst, op, lhs, rhs } => {
                    // All binary operators are data dependencies; string
                    // concatenation is the taint-relevant one.
                    let _ = op;
                    let _ = BinOp::Concat;
                    add_use(*lhs, Use::Flow { to: *dst, loc });
                    add_use(*rhs, Use::Flow { to: *dst, loc });
                }
                Inst::Load { dst, base, field } => {
                    loads.push(LoadStmt {
                        loc,
                        base: Some(*base),
                        field: Some(FieldKey::Field(*field)),
                        static_field: None,
                        dst: *dst,
                    });
                }
                Inst::StaticLoad { dst, field } => {
                    loads.push(LoadStmt {
                        loc,
                        base: None,
                        field: None,
                        static_field: Some(*field),
                        dst: *dst,
                    });
                }
                Inst::ArrayLoad { dst, base, .. } => {
                    loads.push(LoadStmt {
                        loc,
                        base: Some(*base),
                        field: Some(FieldKey::Array),
                        static_field: None,
                        dst: *dst,
                    });
                }
                Inst::Store { base, field, src } => {
                    add_use(*src, Use::Store { loc, base: *base, field: FieldKey::Field(*field) });
                }
                Inst::ArrayStore { base, src, .. } => {
                    add_use(*src, Use::Store { loc, base: *base, field: FieldKey::Array });
                }
                Inst::StaticStore { field, src } => {
                    add_use(*src, Use::StaticStore { loc, field: *field });
                }
                Inst::Call { dst, recv, args, .. } => {
                    build_call_uses(
                        program,
                        pts,
                        spec,
                        node,
                        loc,
                        *dst,
                        *recv,
                        args,
                        &mut add_use,
                        sources,
                    );
                    // Container intrinsics that survived model expansion
                    // (receiver static type too weak, e.g. an interface):
                    // model reads as pseudo-loads of the synthetic fields
                    // so direct store→load matching still applies.
                    for &(_, intr) in pts.intrinsics_at(node, loc) {
                        let field_names: &[&str] = match intr {
                            Intrinsic::CollGet => &[jir::expand::fields::ELEMS],
                            Intrinsic::BuilderToString => &[jir::expand::fields::CONTENT],
                            Intrinsic::MapGet => &[jir::expand::fields::MAP_UNKNOWN],
                            _ => continue,
                        };
                        if let (Some(d), Some(r)) = (*dst, *recv) {
                            for fname in field_names {
                                if let Some(f) = program.find_synthetic_field(fname) {
                                    loads.push(LoadStmt {
                                        loc,
                                        base: Some(r),
                                        field: Some(FieldKey::Field(f)),
                                        static_field: None,
                                        dst: d,
                                    });
                                }
                            }
                            // A fallback MapGet must cover every known key.
                            if intr == Intrinsic::MapGet {
                                for f in program.map_key_fields() {
                                    loads.push(LoadStmt {
                                        loc,
                                        base: Some(r),
                                        field: Some(FieldKey::Field(f)),
                                        static_field: None,
                                        dst: d,
                                    });
                                }
                            }
                        }
                    }
                }
                Inst::Const { .. }
                | Inst::New { .. }
                | Inst::NewArray { .. }
                | Inst::CatchBind { .. } => {}
            }
        }
        // Terminator: returns propagate to callers.
        let term_loc = Loc::new(bid, block.insts.len());
        if let Terminator::Return(Some(v)) = &block.term {
            add_use(*v, Use::Ret { loc: term_loc });
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn build_call_uses(
    _program: &Program,
    pts: &PointsTo,
    spec: &SliceSpec,
    node: CGNodeId,
    loc: Loc,
    dst: Option<Var>,
    recv: Option<Var>,
    args: &[Var],
    add_use: &mut impl FnMut(Var, Use),
    sources: &mut Vec<SourceCall>,
) {
    let mut has_body_target = false;
    let mut body_sanitizer = false;

    // Body callees (call-graph targets).
    for &target in pts.callgraph.targets(node, loc) {
        let callee = pts.callgraph.method_of(target);
        if spec.sanitizers.contains(&callee) {
            body_sanitizer = true;
            continue;
        }
        if let Some(positions) = spec.sinks.get(&callee) {
            for &p in positions {
                if let Some(&a) = args.get(p) {
                    add_use(a, Use::SinkArg { loc, method: callee, pos: p as u32 });
                }
            }
            continue; // flow does not continue into sink bodies
        }
        if spec.sources.contains(&callee) {
            if let Some(d) = dst {
                sources.push(SourceCall { loc, dst: d, method: callee });
            }
            continue;
        }
        has_body_target = true;
    }
    if has_body_target {
        for (i, &a) in args.iter().enumerate() {
            add_use(a, Use::Arg { loc, pos: i as u32 });
        }
    }

    // Intrinsic callees.
    for &(callee, intr) in pts.intrinsics_at(node, loc) {
        if spec.sanitizers.contains(&callee) {
            for &a in args {
                add_use(a, Use::Sanitized { loc });
            }
            continue;
        }
        if let Some(positions) = spec.sinks.get(&callee) {
            for &p in positions {
                if let Some(&a) = args.get(p) {
                    add_use(a, Use::SinkArg { loc, method: callee, pos: p as u32 });
                }
            }
        }
        if spec.sources.contains(&callee) {
            if let Some(d) = dst {
                sources.push(SourceCall { loc, dst: d, method: callee });
            }
            continue;
        }
        // Intrinsic dataflow.
        match intr {
            Intrinsic::Propagate | Intrinsic::GetMessage => {
                if let Some(d) = dst {
                    if let Some(r) = recv {
                        add_use(r, Use::Flow { to: d, loc });
                    }
                    if intr == Intrinsic::Propagate {
                        for &a in args {
                            add_use(a, Use::Flow { to: d, loc });
                        }
                    }
                }
            }
            Intrinsic::ReturnReceiver | Intrinsic::IterAlias => {
                if let (Some(d), Some(r)) = (dst, recv) {
                    add_use(r, Use::Flow { to: d, loc });
                }
            }
            // Container write fallbacks: model the stored value as a heap
            // store into the synthetic summary field.
            Intrinsic::CollAdd | Intrinsic::BuilderAppend | Intrinsic::MapPut => {
                let fname = match intr {
                    Intrinsic::CollAdd => jir::expand::fields::ELEMS,
                    Intrinsic::BuilderAppend => jir::expand::fields::CONTENT,
                    _ => jir::expand::fields::MAP_UNKNOWN,
                };
                if let (Some(r), Some(&v)) = (recv, args.last()) {
                    if let Some(f) = _program.find_synthetic_field(fname) {
                        add_use(v, Use::Store { loc, base: r, field: FieldKey::Field(f) });
                    }
                }
            }
            // The rest have no register-level dataflow to model.
            _ => {}
        }
    }

    // Sanitized args for body sanitizers (recorded once).
    if body_sanitizer {
        for &a in args {
            add_use(a, Use::Sanitized { loc });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taj_pointer::{analyze, SolverConfig};

    fn setup(src: &str) -> (Program, PointsTo) {
        let mut p = jir::frontend::build_program(src).unwrap();
        let c = p.class_by_name("Main").unwrap();
        let m = p.method_by_name(c, "main").unwrap();
        p.entrypoints.push(m);
        let pts = analyze(&p, &SolverConfig::default());
        (p, pts)
    }

    fn default_spec(p: &Program) -> SliceSpec {
        let req = p.class_by_name("HttpServletRequest").unwrap();
        let gp = p.method_by_name(req, "getParameter").unwrap();
        let pw = p.class_by_name("PrintWriter").unwrap();
        let println = p.method_by_name(pw, "println").unwrap();
        let enc = p.class_by_name("URLEncoder").unwrap();
        let encode = p.method_by_name(enc, "encode").unwrap();
        let mut spec = SliceSpec::default();
        spec.sources.insert(gp);
        spec.sinks.insert(println, vec![0]);
        spec.sanitizers.insert(encode);
        spec
    }

    #[test]
    fn seeds_found() {
        let (p, pts) = setup(
            r#"
            class Main {
                static method void main() {
                    HttpServletRequest req = new HttpServletRequest();
                    String t = req.getParameter("x");
                }
            }
            "#,
        );
        let spec = default_spec(&p);
        let index = DefUseIndex::build(&p, &pts);
        let view = ProgramView::new(&p, &pts, &index, &spec);
        assert_eq!(view.seeds().len(), 1);
    }

    #[test]
    fn sink_args_classified() {
        let (p, pts) = setup(
            r#"
            class Main {
                static method void main() {
                    HttpServletResponse resp = new HttpServletResponse();
                    PrintWriter w = resp.getWriter();
                    w.println("x");
                }
            }
            "#,
        );
        let spec = default_spec(&p);
        let index = DefUseIndex::build(&p, &pts);
        let view = ProgramView::new(&p, &pts, &index, &spec);
        let has_sink = pts.callgraph.iter_nodes().any(|n| {
            view.node(n).iter_uses().flat_map(|(_, u)| u).any(|u| matches!(u, Use::SinkArg { .. }))
        });
        assert!(has_sink, "println argument should be a SinkArg");
    }

    #[test]
    fn sanitizer_stops_classification() {
        let (p, pts) = setup(
            r#"
            class Main {
                static method void main() {
                    HttpServletRequest req = new HttpServletRequest();
                    String t = req.getParameter("x");
                    String s = URLEncoder.encode(t);
                }
            }
            "#,
        );
        let spec = default_spec(&p);
        let index = DefUseIndex::build(&p, &pts);
        let view = ProgramView::new(&p, &pts, &index, &spec);
        let has_sanitized = pts.callgraph.iter_nodes().any(|n| {
            view.node(n)
                .iter_uses()
                .flat_map(|(_, u)| u)
                .any(|u| matches!(u, Use::Sanitized { .. }))
        });
        assert!(has_sanitized);
        // And no Flow use may exist at the same statement as the
        // sanitization (the sanitizer's Propagate semantics are overridden).
        for n in pts.callgraph.iter_nodes() {
            let sanitized_locs: Vec<Loc> = view
                .node(n)
                .iter_uses()
                .flat_map(|(_, u)| u)
                .filter_map(|u| match u {
                    Use::Sanitized { loc } => Some(*loc),
                    _ => None,
                })
                .collect();
            let flows_at_sanitizer = view
                .node(n)
                .iter_uses()
                .flat_map(|(_, u)| u)
                .any(|u| matches!(u, Use::Flow { loc, .. } if sanitized_locs.contains(loc)));
            assert!(!flows_at_sanitizer, "sanitized arg must not also flow");
        }
    }

    #[test]
    fn concat_is_flow() {
        let (p, pts) = setup(
            r#"
            class Main {
                static method void main() {
                    HttpServletRequest req = new HttpServletRequest();
                    String t = req.getParameter("x");
                    String u = "pre" + t;
                }
            }
            "#,
        );
        let spec = default_spec(&p);
        let index = DefUseIndex::build(&p, &pts);
        let view = ProgramView::new(&p, &pts, &index, &spec);
        let flows = pts
            .callgraph
            .iter_nodes()
            .flat_map(|n| {
                view.node(n).iter_uses().flat_map(|(_, u)| u).cloned().collect::<Vec<_>>()
            })
            .filter(|u| matches!(u, Use::Flow { .. }))
            .count();
        assert!(flows >= 1, "concat should register local flow");
    }

    #[test]
    fn loads_indexed_by_field() {
        let (p, pts) = setup(
            r#"
            class Box { field Object v; ctor (Object v) { this.v = v; } method Object get() { return this.v; } }
            class Main {
                static method void main() {
                    Box b = new Box(new Object());
                    Object o = b.get();
                }
            }
            "#,
        );
        let spec = default_spec(&p);
        let index = DefUseIndex::build(&p, &pts);
        let view = ProgramView::new(&p, &pts, &index, &spec);
        let box_c = p.class_by_name("Box").unwrap();
        let v_field = p.field_by_name(box_c, "v").unwrap();
        assert!(view.index.loads_of_field(FieldKey::Field(v_field)).next().is_some());
    }
}
