//! Reusable search state: the zero-allocation query engine.
//!
//! Every experiment in the paper's evaluation is a loop over thousands of
//! `(source, fault set)` shortest-path queries, and the cost of allocating
//! (and zero-initializing) fresh `O(n)` state per query dominates once the
//! per-query work is small. [`SearchScratch`] amortizes that away:
//!
//! * **generation stamping** — every per-vertex slot carries the epoch of
//!   the query that last wrote it, so "resetting" the scratch between
//!   queries is a single counter bump, not an `O(n)` clear;
//! * **a dirty list** — the vertices a query actually touched, letting
//!   result extraction ([`SearchScratch::tree_edges`],
//!   [`SearchScratch::to_bfs_tree`]) skip the unreached part of the graph;
//! * **a cost-specialized heap policy** ([`rsp_arith::PathCost::HEAP`]) —
//!   register-copy costs (`u32`/`u64`/`u128`) run on a flat lazy binary
//!   heap (`std`'s [`BinaryHeap`]) whose entries are `(cost, vertex)`
//!   pairs stored inline: no per-vertex heap-position bookkeeping, no
//!   indirection on comparisons, candidates held in registers end to end
//!   ([`EdgeCostSource::compute`]). Heavyweight costs
//!   ([`rsp_arith::BigInt`]) run on an indexed 4-ary heap with
//!   decrease-key that stores vertex ids only and compares through the
//!   cost array, so an exact cost is stored exactly once per vertex and
//!   never cloned into stale heap entries. Both policies settle vertices
//!   in the same `(cost, vertex id)` order and detect the same ties, so
//!   results are byte-identical;
//! * **in-place cost arithmetic** — relaxations go through
//!   [`PathCost::add_into`], which for [`rsp_arith::BigInt`] reuses limb
//!   buffers instead of allocating per relaxed edge.
//!
//! The entry points are [`bfs_into`], [`dijkstra_into`] and
//! [`layered_into`]; the classic [`crate::bfs`] / [`crate::dijkstra`] are
//! thin wrappers that allocate one scratch, run the `_into` variant, and
//! materialize an owned tree. Hot loops hold one scratch per concurrent
//! tree and read results straight from it. [`layered_into`] is the
//! heap-free kernel for hop-dominant costs (the tiebreaking schemes'
//! Lemma 34 layering): a BFS that carries exact costs, filling the same
//! arrays with the trees [`dijkstra_into`] would select.
//!
//! # Examples
//!
//! ```
//! use rsp_graph::{dijkstra_into, generators, FaultSet, SearchScratch};
//!
//! let g = generators::grid(4, 4);
//! let mut scratch = SearchScratch::<u64>::with_capacity(g.n());
//! for e in 0..g.m() {
//!     // One query per single-edge fault; no per-query allocation.
//!     dijkstra_into(&g, 0, &FaultSet::single(e), |_, _, _| 1u64, &mut scratch);
//!     assert!(scratch.cost(15).is_some(), "grid minus one edge stays connected");
//! }
//! ```

use std::cmp::{Ordering, Reverse};
use std::collections::{BinaryHeap, VecDeque};
use std::mem;

use rsp_arith::{HeapKind, PathCost};

use crate::bfs::BfsTree;
use crate::fault::FaultSet;
use crate::graph::{EdgeId, Graph, Vertex};
use crate::path::Path;
use crate::spt::WeightedSpt;

/// Heap-position sentinel of the indexed engine: the vertex is settled
/// (or was never enqueued). The inline-key engine keeps no heap positions.
const SETTLED: u32 = u32::MAX;

/// Heap arity. Four keeps the tree shallow (fewer comparisons per
/// decrease-key, the dominant operation) while sift-down still touches one
/// cache line of children.
const ARITY: usize = 4;

/// Supplies directed edge costs to [`dijkstra_into`] by *accumulating*
/// `base + w(e, from → to)` into a caller-provided output buffer.
///
/// The accumulate form (rather than "return the edge cost") exists so that
/// implementations holding costs by reference — like the tiebreaking
/// schemes' per-direction cost tables — never clone an exact cost to hand
/// it to the search: they forward straight to [`PathCost::add_into`].
///
/// Any `FnMut(EdgeId, Vertex, Vertex) -> C` closure is an `EdgeCostSource`
/// via the blanket impl, which keeps the classic [`crate::dijkstra`]
/// signature working unchanged.
pub trait EdgeCostSource<C: PathCost> {
    /// Writes `base + w(e, from → to)` into `out`, reusing `out`'s storage.
    fn accumulate(&mut self, base: &C, e: EdgeId, from: Vertex, to: Vertex, out: &mut C);

    /// Returns `base + w(e, from → to)` by value — the inline-key
    /// engine's relaxation path, which keeps register-copy candidates out
    /// of memory entirely (the accumulate form forces a store/load round
    /// trip through the scratch's candidate buffer on every edge).
    ///
    /// The default builds on [`EdgeCostSource::accumulate`] via a fresh
    /// [`PathCost::zero`]; implementations serving `Copy` costs should
    /// override it with pure value arithmetic. Only the inline-key engine
    /// calls this, so heavyweight costs keep their buffer-reusing
    /// accumulate path.
    #[inline]
    fn compute(&mut self, base: &C, e: EdgeId, from: Vertex, to: Vertex) -> C {
        let mut out = C::zero();
        self.accumulate(base, e, from, to, &mut out);
        out
    }
}

impl<C: PathCost, F: FnMut(EdgeId, Vertex, Vertex) -> C> EdgeCostSource<C> for F {
    #[inline]
    fn accumulate(&mut self, base: &C, e: EdgeId, from: Vertex, to: Vertex, out: &mut C) {
        let w = self(e, from, to);
        base.add_into(&w, out);
    }

    #[inline]
    fn compute(&mut self, base: &C, e: EdgeId, from: Vertex, to: Vertex) -> C {
        base.plus(&self(e, from, to))
    }
}

/// Per-direction edge costs held as two parallel slices, indexed by
/// [`EdgeId`]: `fwd[e]` is the cost of traversing `e` from its canonical
/// lower endpoint to the higher, `bwd[e]` the reverse.
///
/// This is the zero-clone [`EdgeCostSource`] used by the exact tiebreaking
/// schemes: relaxations borrow the stored cost and accumulate in place.
///
/// # Examples
///
/// ```
/// use rsp_graph::{dijkstra_into, generators, DirectedCosts, FaultSet, SearchScratch};
///
/// let g = generators::cycle(4);
/// let fwd = vec![10u64; g.m()];
/// let bwd = vec![10u64; g.m()];
/// let mut scratch = SearchScratch::new();
/// dijkstra_into(&g, 0, &FaultSet::empty(), DirectedCosts::new(&fwd, &bwd), &mut scratch);
/// assert_eq!(scratch.cost(2), Some(&20));
/// ```
#[derive(Clone, Copy, Debug)]
pub struct DirectedCosts<'a, C> {
    fwd: &'a [C],
    bwd: &'a [C],
}

impl<'a, C: PathCost> DirectedCosts<'a, C> {
    /// Wraps per-direction cost slices (one entry per edge).
    pub fn new(fwd: &'a [C], bwd: &'a [C]) -> Self {
        assert_eq!(fwd.len(), bwd.len(), "one forward and one backward cost per edge");
        DirectedCosts { fwd, bwd }
    }
}

impl<C: PathCost> EdgeCostSource<C> for DirectedCosts<'_, C> {
    #[inline]
    fn accumulate(&mut self, base: &C, e: EdgeId, from: Vertex, to: Vertex, out: &mut C) {
        // Endpoints are canonicalized `u < v`, so the traversal direction is
        // recoverable from the endpoint order alone.
        let w = if from < to { &self.fwd[e] } else { &self.bwd[e] };
        base.add_into(w, out);
    }

    #[inline]
    fn compute(&mut self, base: &C, e: EdgeId, from: Vertex, to: Vertex) -> C {
        base.plus(if from < to { &self.fwd[e] } else { &self.bwd[e] })
    }
}

/// Reusable single-source search state for [`bfs_into`],
/// [`dijkstra_into`] and [`layered_into`].
///
/// One scratch holds the complete result of its most recent query — costs,
/// hop counts, parent pointers, tie flag — readable through the accessor
/// methods without materializing an owned tree. Reusing the scratch across
/// queries skips all `O(n)` allocation and clearing: only the vertices the
/// previous query touched are ever rewritten.
///
/// The cost type parameter defaults to `u32` for unweighted (BFS-only) use.
///
/// # Examples
///
/// ```
/// use rsp_graph::{bfs_into, generators, FaultSet, SearchScratch};
///
/// let g = generators::cycle(6);
/// let mut scratch = SearchScratch::<u32>::new();
/// bfs_into(&g, 0, &FaultSet::empty(), &mut scratch);
/// assert_eq!(scratch.dist(3), Some(3));
///
/// // Back-to-back reuse: earlier results are invisible to the new query.
/// let cut = g.edge_between(0, 1).unwrap();
/// bfs_into(&g, 0, &FaultSet::single(cut), &mut scratch);
/// assert_eq!(scratch.dist(1), Some(5), "re-routed the long way around");
/// ```
#[derive(Clone, Debug)]
pub struct SearchScratch<C = u32> {
    /// Query generation; a per-vertex slot is valid iff `stamp[v] == epoch`.
    epoch: u32,
    /// Vertex count of the most recent query's graph.
    n: usize,
    source: Vertex,
    /// Whether the most recent query was weighted (`dijkstra_into` or
    /// `layered_into`).
    weighted: bool,
    ties: bool,
    stamp: Vec<u32>,
    /// Tentative/final exact cost per vertex (weighted queries only).
    key: Vec<C>,
    /// Parent `(vertex, edge)` in stored-width `u32` ids; valid iff stamped
    /// and not the source. Half the bytes of the old `(usize, usize)`
    /// layout — parent writes are on every relaxation's hot path.
    parent: Vec<(u32, u32)>,
    hops: Vec<u32>,
    /// Indexed d-ary min-heap of open vertex ids, ordered by `(key, id)`
    /// ([`HeapKind::Indexed`] policy only).
    heap: Vec<u32>,
    /// Position of each vertex in `heap`, or [`SETTLED`]
    /// ([`HeapKind::Indexed`] policy only: sized by
    /// [`SearchScratch::begin`] only for queries that run that engine, so
    /// inline-key scratches never carry it).
    heap_pos: Vec<u32>,
    /// Flat lazy min-heap of inline `(cost, vertex)` entries
    /// ([`HeapKind::InlineKey`] policy only), vertex ids stored as `u32`
    /// so a `(u32, u32)` entry is a single 8-byte word (the old
    /// `(C, usize)` form padded every u32-cost entry to 16 bytes).
    /// Improved keys are pushed as fresh entries; stale entries are
    /// skipped at pop. This is `std`'s binary heap on purpose: its unsafe
    /// hole-based sifts beat anything expressible under this crate's
    /// `#![forbid(unsafe_code)]` by ~40% on out-of-cache graphs (measured
    /// against a safe 4-ary heap).
    lazy: BinaryHeap<Reverse<(C, u32)>>,
    /// The heap engine serving the current query (fixed at
    /// [`SearchScratch::begin`]; see [`SearchScratch::set_heap_kind`]).
    active: HeapKind,
    /// Forced heap engine, overriding the automatic choice.
    heap_override: Option<HeapKind>,
    /// BFS frontier ring buffer (stored-width ids), shared by
    /// [`bfs_into`] and [`layered_into`].
    queue: VecDeque<u32>,
    /// Dirty list: vertices reached by the current query, in reach order
    /// (stored-width ids).
    touched: Vec<u32>,
    /// Relaxation buffer: the candidate cost under evaluation.
    cand: C,
}

impl<C: PathCost> SearchScratch<C> {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// A scratch pre-sized for graphs with up to `n` vertices.
    pub fn with_capacity(n: usize) -> Self {
        let mut s = SearchScratch {
            epoch: 0,
            n: 0,
            source: 0,
            weighted: false,
            ties: false,
            stamp: Vec::new(),
            key: Vec::new(),
            parent: Vec::new(),
            hops: Vec::new(),
            // Pre-size only the heap the policy will use; a forced
            // override of the other engine just grows it amortized.
            heap: Vec::with_capacity(if C::HEAP == HeapKind::Indexed { n } else { 0 }),
            heap_pos: Vec::new(),
            lazy: BinaryHeap::with_capacity(if C::HEAP == HeapKind::InlineKey { n } else { 0 }),
            active: C::HEAP,
            heap_override: None,
            queue: VecDeque::with_capacity(n),
            touched: Vec::with_capacity(n),
            cand: C::zero(),
        };
        s.grow(n);
        s
    }

    fn grow(&mut self, n: usize) {
        if self.stamp.len() < n {
            self.stamp.resize(n, 0);
            self.key.resize_with(n, C::zero);
            self.parent.resize(n, (0, 0));
            self.hops.resize(n, 0);
        }
    }

    /// Opens a new query generation. All previous per-vertex state becomes
    /// invisible in `O(1)` (amortized: a full clear happens only when the
    /// 32-bit epoch wraps, once per ~4 billion queries).
    fn begin(&mut self, n: usize, source: Vertex, weighted: bool) {
        assert!(n < SETTLED as usize, "graph too large for scratch heap indices");
        self.grow(n);
        if self.epoch == u32::MAX {
            self.stamp.fill(0);
            self.epoch = 1;
        } else {
            self.epoch += 1;
        }
        self.n = n;
        self.source = source;
        self.weighted = weighted;
        self.ties = false;
        self.touched.clear();
        self.heap.clear();
        self.lazy.clear();
        self.queue.clear();
        // Fix the heap engine for this query: the cost type's policy,
        // unless explicitly overridden.
        self.active = self.heap_override.unwrap_or(C::HEAP);
        if self.active == HeapKind::Indexed && self.heap_pos.len() < n {
            self.heap_pos.resize(n, SETTLED);
        }
    }

    /// Forces the heap engine for subsequent queries, or restores the
    /// cost type's [`PathCost::HEAP`] policy with `None`.
    ///
    /// Both engines produce byte-identical results, so this is a
    /// performance knob — used by the benches to measure the policies
    /// against each other and by the property suite to pin them to each
    /// other.
    pub fn set_heap_kind(&mut self, kind: Option<HeapKind>) {
        self.heap_override = kind;
    }

    /// Builder-style companion of [`SearchScratch::set_heap_kind`].
    pub fn with_heap_kind(mut self, kind: HeapKind) -> Self {
        self.heap_override = Some(kind);
        self
    }

    /// The most recent query's source vertex.
    pub fn source(&self) -> Vertex {
        self.source
    }

    /// `true` iff the most recent query reached `v`.
    #[inline]
    pub fn reached(&self, v: Vertex) -> bool {
        v < self.n && self.stamp[v] == self.epoch
    }

    /// Exact cost of the selected source-to-`v` path, or `None` if `v` is
    /// unreachable. Meaningful after [`dijkstra_into`] or
    /// [`layered_into`]; BFS queries report `None` for every vertex.
    #[inline]
    pub fn cost(&self, v: Vertex) -> Option<&C> {
        if self.weighted && self.reached(v) {
            Some(&self.key[v])
        } else {
            None
        }
    }

    /// Hop count of the selected source-to-`v` path, or `None` if
    /// unreachable. For BFS queries this is the unweighted distance.
    #[inline]
    pub fn hops(&self, v: Vertex) -> Option<u32> {
        if self.reached(v) {
            Some(self.hops[v])
        } else {
            None
        }
    }

    /// Unweighted distance alias for [`SearchScratch::hops`] (the natural
    /// name after a [`bfs_into`] or [`layered_into`] query).
    #[inline]
    pub fn dist(&self, v: Vertex) -> Option<u32> {
        self.hops(v)
    }

    /// Parent of `v` in the selected tree as `(vertex, edge id)`, or `None`
    /// for the source and unreachable vertices.
    #[inline]
    pub fn parent(&self, v: Vertex) -> Option<(Vertex, EdgeId)> {
        if v != self.source && self.reached(v) {
            let (p, e) = self.parent[v];
            Some((p as usize, e as usize))
        } else {
            None
        }
    }

    /// `true` iff the most recent weighted query saw two equal-cost ways to
    /// reach some vertex (the runtime witness that a tiebreaking weight
    /// function failed to be tie-free).
    ///
    /// After [`layered_into`] this is exactly a genuine tie: two
    /// minimum-cost routes into one vertex. [`dijkstra_into`] also flags
    /// equal non-minimal candidates its settle order happens to meet (see
    /// [`layered_into`]'s "Tie flag").
    pub fn ties_detected(&self) -> bool {
        self.ties
    }

    /// Number of vertices the most recent query reached (incl. the source).
    pub fn reachable_count(&self) -> usize {
        self.touched.len()
    }

    /// The selected source-to-`v` path, or `None` if unreachable.
    pub fn path_to(&self, v: Vertex) -> Option<Path> {
        if !self.reached(v) {
            return None;
        }
        let mut verts = vec![v];
        let mut cur = v;
        while cur != self.source {
            let (p, _) = self.parent[cur];
            verts.push(p as usize);
            cur = p as usize;
        }
        verts.reverse();
        Some(Path::new(verts))
    }

    /// Tree edge ids of the most recent query (one per reached non-source
    /// vertex), in reach order: first discovery for [`dijkstra_into`], BFS
    /// layer order for [`bfs_into`] and [`layered_into`]. Iterates the
    /// dirty list, not all of `0..n`.
    pub fn tree_edges(&self) -> impl Iterator<Item = EdgeId> + '_ {
        let source = self.source as u32;
        self.touched
            .iter()
            .filter(move |&&v| v != source)
            .map(|&v| self.parent[v as usize].1 as usize)
    }

    /// Materializes the most recent query as an owned [`BfsTree`].
    ///
    /// # Panics
    ///
    /// Panics if no query has been run into this scratch.
    pub fn to_bfs_tree(&self) -> BfsTree {
        assert!(self.epoch > 0, "no search has been run into this scratch");
        let mut dist = vec![None; self.n];
        let mut parent = vec![None; self.n];
        for &v in &self.touched {
            let v = v as usize;
            dist[v] = Some(self.hops[v]);
            if v != self.source {
                let (p, e) = self.parent[v];
                parent[v] = Some((p as usize, e as usize));
            }
        }
        BfsTree::from_parts(self.source, dist, parent)
    }

    /// Materializes the most recent weighted query as an owned
    /// [`WeightedSpt`], cloning each reached vertex's cost once.
    ///
    /// # Panics
    ///
    /// Panics if the most recent query was not weighted
    /// ([`dijkstra_into`] or [`layered_into`]).
    pub fn to_weighted_spt(&self) -> WeightedSpt<C> {
        assert!(self.weighted, "to_weighted_spt needs a weighted query");
        let mut cost = vec![None; self.n];
        let mut parent = vec![None; self.n];
        let mut hops = vec![0u32; self.n];
        for &v in &self.touched {
            let v = v as usize;
            cost[v] = Some(self.key[v].clone());
            hops[v] = self.hops[v];
            if v != self.source {
                let (p, e) = self.parent[v];
                parent[v] = Some((p as usize, e as usize));
            }
        }
        WeightedSpt::new(self.source, parent, cost, hops, self.ties)
    }
}

impl<C: PathCost> Default for SearchScratch<C> {
    fn default() -> Self {
        Self::new()
    }
}

/// Runs BFS from `source` in `g \ faults` into `scratch`, allocation-free
/// once the scratch is warm.
///
/// Identical traversal (and therefore identical trees) to [`crate::bfs`]:
/// neighbors are visited in increasing vertex id, ties broken by first
/// discovery. Results are read from the scratch.
///
/// # Panics
///
/// Panics if `source >= g.n()`.
pub fn bfs_into<C: PathCost>(
    g: &Graph,
    source: Vertex,
    faults: &FaultSet,
    scratch: &mut SearchScratch<C>,
) {
    assert!(source < g.n(), "bfs source {source} out of range");
    scratch.begin(g.n(), source, false);
    scratch.stamp[source] = scratch.epoch;
    scratch.hops[source] = 0;
    scratch.touched.push(source as u32);
    scratch.queue.push_back(source as u32);
    let epoch = scratch.epoch;
    while let Some(u) = scratch.queue.pop_front() {
        let u = u as usize;
        let du = scratch.hops[u];
        for (v, e) in g.neighbors(u) {
            if faults.contains(e) || scratch.stamp[v] == epoch {
                continue;
            }
            scratch.stamp[v] = epoch;
            scratch.hops[v] = du + 1;
            scratch.parent[v] = (u as u32, e as u32);
            scratch.touched.push(v as u32);
            scratch.queue.push_back(v as u32);
        }
    }
}

/// Runs exact-cost Dijkstra from `source` in `g \ faults` into `scratch`,
/// on the heap policy selected by the cost type ([`PathCost::HEAP`]).
///
/// Semantics match [`crate::dijkstra`] exactly — same trees, costs, hop
/// counts, and tie detection — under *either* policy. Vertices settle in
/// `(cost, vertex id)` order, the same total order the lazy-deletion binary
/// heap realized, so even on inputs with genuine ties the selected tree is
/// identical.
///
/// Costs must be non-negative. Under [`HeapKind::Indexed`] each vertex's
/// exact cost lives only in the scratch's cost array; the heap holds vertex
/// ids, compares through that array, and decrease-keys in place, so no cost
/// is ever cloned into the heap. Under [`HeapKind::InlineKey`] the heap
/// holds flat `(cost, vertex)` entries (improved keys are re-pushed, stale
/// entries skipped at pop) — cheaper for register-copy costs because no
/// heap positions are maintained. Relaxed candidates are accumulated in
/// place via [`PathCost::add_into`] either way.
///
/// # Panics
///
/// Panics if `source >= g.n()`.
pub fn dijkstra_into<C, F>(
    g: &Graph,
    source: Vertex,
    faults: &FaultSet,
    costs: F,
    scratch: &mut SearchScratch<C>,
) where
    C: PathCost,
    F: EdgeCostSource<C>,
{
    assert!(source < g.n(), "dijkstra source {source} out of range");
    scratch.begin(g.n(), source, true);
    scratch.stamp[source] = scratch.epoch;
    scratch.key[source].set_zero();
    scratch.hops[source] = 0;
    scratch.touched.push(source as u32);
    match scratch.active {
        HeapKind::InlineKey => {
            scratch.lazy.push(Reverse((scratch.key[source].clone(), source as u32)));
            dijkstra_run_inline(g, faults, costs, scratch);
        }
        HeapKind::Indexed => {
            scratch.heap_pos[source] = 0;
            scratch.heap.push(source as u32);
            dijkstra_run_indexed(g, faults, costs, scratch);
        }
    }
}

/// Relaxes the single candidate route `u —e→ v` against `v`'s current
/// state under the [`HeapKind::Indexed`] policy. `cand` must already hold
/// the candidate cost `key[u] + w(e)`.
#[inline]
#[allow(clippy::too_many_arguments)]
fn relax<C: PathCost>(
    u: Vertex,
    v: Vertex,
    e: EdgeId,
    epoch: u32,
    cand: &mut C,
    stamp: &mut [u32],
    key: &mut [C],
    parent: &mut [(u32, u32)],
    hops: &mut [u32],
    heap: &mut Vec<u32>,
    heap_pos: &mut [u32],
    touched: &mut Vec<u32>,
    ties: &mut bool,
) {
    if stamp[v] != epoch {
        // First route into v: adopt the candidate by swap, keeping
        // both buffers warm.
        stamp[v] = epoch;
        mem::swap(&mut key[v], cand);
        parent[v] = (u as u32, e as u32);
        hops[v] = hops[u] + 1;
        touched.push(v as u32);
        let end = heap.len();
        heap_pos[v] = end as u32;
        heap.push(v as u32);
        sift_up(heap, heap_pos, key, end);
    } else if heap_pos[v] != SETTLED {
        match (*cand).cmp(&key[v]) {
            Ordering::Less => {
                mem::swap(&mut key[v], cand);
                parent[v] = (u as u32, e as u32);
                hops[v] = hops[u] + 1;
                let pos = heap_pos[v] as usize;
                sift_up(heap, heap_pos, key, pos);
            }
            // Two distinct minimum-cost routes to v: a genuine tie.
            Ordering::Equal => *ties = true,
            Ordering::Greater => {}
        }
    } else if *cand == key[v] {
        // Equal-cost route into an already-settled vertex is a tie
        // too (matches the lazy-deletion engine's detection).
        *ties = true;
    }
}

/// Relaxes the single candidate route `u —e→ v` against `v`'s current
/// state under the [`HeapKind::InlineKey`] policy. `cand` is the
/// candidate cost `key[u] + w(e)`, passed *by value*: inline-eligible
/// costs are register copies, and keeping the candidate out of memory is
/// half the point of this engine (the indexed engine's
/// [`EdgeCostSource::accumulate`] path round-trips every candidate
/// through the scratch's buffer instead).
///
/// Reaches the exact same verdicts as [`relax`]: a strictly better route
/// pushes a fresh `(cost, vertex)` entry (the old entry goes stale and is
/// skipped at pop), an equal-cost route flags a tie whether `v` is open or
/// settled, and a worse route is ignored. A strictly better route into a
/// *settled* vertex cannot occur with non-negative costs, which is what
/// lets this variant skip the open/settled distinction entirely.
#[inline]
#[allow(clippy::too_many_arguments)]
fn relax_inline<C: PathCost>(
    u: Vertex,
    v: Vertex,
    e: EdgeId,
    epoch: u32,
    cand: C,
    stamp: &mut [u32],
    key: &mut [C],
    parent: &mut [(u32, u32)],
    hops: &mut [u32],
    lazy: &mut BinaryHeap<Reverse<(C, u32)>>,
    touched: &mut Vec<u32>,
    ties: &mut bool,
) {
    if stamp[v] != epoch {
        stamp[v] = epoch;
        key[v] = cand.clone();
        parent[v] = (u as u32, e as u32);
        hops[v] = hops[u] + 1;
        touched.push(v as u32);
        lazy.push(Reverse((cand, v as u32)));
    } else {
        match cand.cmp(&key[v]) {
            Ordering::Less => {
                key[v] = cand.clone();
                parent[v] = (u as u32, e as u32);
                hops[v] = hops[u] + 1;
                lazy.push(Reverse((cand, v as u32)));
            }
            // Equal-cost routes are ties, whether v is open or settled —
            // the same two cases the indexed engine flags.
            Ordering::Equal => *ties = true,
            Ordering::Greater => {}
        }
    }
}

/// The [`dijkstra_into`] main loop under the indexed decrease-key policy.
fn dijkstra_run_indexed<C, F>(
    g: &Graph,
    faults: &FaultSet,
    mut costs: F,
    scratch: &mut SearchScratch<C>,
) where
    C: PathCost,
    F: EdgeCostSource<C>,
{
    let SearchScratch {
        epoch, stamp, key, parent, hops, heap, heap_pos, touched, cand, ties, ..
    } = scratch;
    let epoch = *epoch;

    while !heap.is_empty() {
        let u = pop_min(heap, heap_pos, key) as usize;
        for (v, e) in g.neighbors(u) {
            if faults.contains(e) {
                continue;
            }
            costs.accumulate(&key[u], e, u, v, cand);
            relax(u, v, e, epoch, cand, stamp, key, parent, hops, heap, heap_pos, touched, ties);
        }
    }
}

/// The [`dijkstra_into`] main loop under the inline-key lazy policy.
fn dijkstra_run_inline<C, F>(
    g: &Graph,
    faults: &FaultSet,
    mut costs: F,
    scratch: &mut SearchScratch<C>,
) where
    C: PathCost,
    F: EdgeCostSource<C>,
{
    let SearchScratch { epoch, stamp, key, parent, hops, lazy, touched, ties, .. } = scratch;
    let epoch = *epoch;

    while let Some(Reverse((c, u))) = lazy.pop() {
        let u = u as usize;
        if key[u] != c {
            // Stale entry: u was re-pushed with a better key (and that
            // entry either settled u already or still precedes this one).
            continue;
        }
        for (v, e) in g.neighbors(u) {
            if faults.contains(e) {
                continue;
            }
            let cand = costs.compute(&c, e, u, v);
            relax_inline(u, v, e, epoch, cand, stamp, key, parent, hops, lazy, touched, ties);
        }
    }
}

/// Runs the layered, heap-free shortest-path search from `source` in
/// `g \ faults` into `scratch`: the sequential form of the paper's
/// Lemma 34, which observes that a shortest-path tree under tiebreaking
/// weights is layered exactly like a BFS tree.
///
/// # Hop-dominant costs
///
/// The search is exact for *hop-dominant* costs: every path with fewer
/// hops costs strictly less than every path with more. `n·min > (n−1)·max`
/// over all directed edge costs is sufficient, and
/// `rsp_core::ExactScheme::from_costs` checks exactly that. Tiebreaking
/// weights satisfy it by construction: Theorem 20 stores `2nK + i` with
/// `|Σi| < nK` along any simple path, so hop classes never mix.
///
/// On such costs every minimum-cost path is a hop-shortest path, so the
/// search is a BFS that carries costs along:
///
/// * vertices leave the FIFO `queue` in BFS order, one hop layer after
///   the next, and no heap is involved;
/// * a newly reached `v` takes `hops[u] + 1`, `key[u] + w(u → v)` and the
///   parent `(u, e)`;
/// * a `v` already reached in the next layer keeps the smaller candidate
///   cost. On an equal cost it keeps the parent `p` with the smaller
///   `(key[p], p)`, which is the parent Dijkstra's `(cost, id)` settle order
///   picks. Edges into the same or an earlier layer are never costed:
///   hop dominance makes them strictly worse.
///
/// Reached set, costs, hop counts and parents are then cell-identical to
/// [`dijkstra_into`], also where costs tie. On costs that are *not* hop-dominant
/// the search still returns, per vertex, the cheapest hop-shortest path
/// (the `(hops, cost)` optimum), which is then not the minimum-cost path.
///
/// # Tie flag
///
/// [`SearchScratch::ties_detected`] reports a *genuine* tie: some reached
/// vertex has two minimum-cost routes, i.e. shortest paths in `G* \ F` are
/// not unique. Dijkstra's flag is order-dependent on top of that: it is
/// also set when two equal but non-minimal candidates happen to meet its
/// running best (see [`crate::reference::ref_dijkstra`]). The two flags
/// therefore agree whenever Dijkstra sees no such non-minimal collision,
/// which includes every tie-free weight function and every genuine tie,
/// and this flag implies Dijkstra's. An equal-cost candidate is the only
/// way a genuine tie can arise, so the exact check is one extra pass over
/// the reached vertices, run only after the search met one.
///
/// `touched` (and [`SearchScratch::tree_edges`]) lists vertices in BFS
/// discovery order.
///
/// # Panics
///
/// Panics if `source >= g.n()`.
///
/// # Examples
///
/// ```
/// use rsp_graph::{dijkstra_into, generators, layered_into, FaultSet, SearchScratch};
///
/// // Unit 1000 with a per-edge perturbation of at most 7: hop-dominant.
/// let g = generators::grid(4, 4);
/// let cost = |e: usize, u: usize, v: usize| 1000 + (e as u64 % 7) + u64::from(u < v);
/// let faults = FaultSet::single(3);
/// let mut layered = SearchScratch::<u64>::new();
/// let mut heap = SearchScratch::<u64>::new();
/// layered_into(&g, 0, &faults, cost, &mut layered);
/// dijkstra_into(&g, 0, &faults, cost, &mut heap);
/// for v in g.vertices() {
///     assert_eq!(layered.cost(v), heap.cost(v));
///     assert_eq!(layered.parent(v), heap.parent(v));
/// }
/// ```
pub fn layered_into<C, F>(
    g: &Graph,
    source: Vertex,
    faults: &FaultSet,
    mut costs: F,
    scratch: &mut SearchScratch<C>,
) where
    C: PathCost,
    F: EdgeCostSource<C>,
{
    assert!(source < g.n(), "layered source {source} out of range");
    scratch.begin(g.n(), source, true);
    // A local candidate buffer: register-resident for `Copy` costs, and
    // for `BigInt` a limb buffer that swaps with the adopted keys.
    let mut cand = mem::replace(&mut scratch.cand, C::zero());
    let SearchScratch { epoch, stamp, key, parent, hops, queue, touched, ties, .. } = scratch;
    let epoch = *epoch;
    stamp[source] = epoch;
    key[source].set_zero();
    hops[source] = 0;
    touched.push(source as u32);
    queue.push_back(source as u32);

    let mut equal_seen = false;
    while let Some(u) = queue.pop_front() {
        let u = u as usize;
        let next = hops[u] + 1;
        for (v, e) in g.neighbors(u) {
            if faults.contains(e) {
                continue;
            }
            if stamp[v] != epoch {
                stamp[v] = epoch;
                costs.accumulate(&key[u], e, u, v, &mut cand);
                mem::swap(&mut key[v], &mut cand);
                hops[v] = next;
                parent[v] = (u as u32, e as u32);
                touched.push(v as u32);
                queue.push_back(v as u32);
            } else if hops[v] == next {
                costs.accumulate(&key[u], e, u, v, &mut cand);
                match cand.cmp(&key[v]) {
                    Ordering::Less => {
                        mem::swap(&mut key[v], &mut cand);
                        parent[v] = (u as u32, e as u32);
                    }
                    Ordering::Equal => {
                        equal_seen = true;
                        let p = parent[v].0 as usize;
                        if (&key[u], u) < (&key[p], p) {
                            parent[v] = (u as u32, e as u32);
                        }
                    }
                    Ordering::Greater => {}
                }
            }
        }
    }

    if equal_seen {
        // Keys are final: a tie is genuine iff some vertex has two tight
        // in-edges from the layer before it.
        'verify: for &v in touched.iter() {
            let v = v as usize;
            let mut tight = 0;
            for (u, e) in g.neighbors(v) {
                if faults.contains(e) || stamp[u] != epoch || hops[u] + 1 != hops[v] {
                    continue;
                }
                costs.accumulate(&key[u], e, u, v, &mut cand);
                if cand == key[v] {
                    tight += 1;
                    if tight == 2 {
                        *ties = true;
                        break 'verify;
                    }
                }
            }
        }
    }
    scratch.cand = cand;
}

/// `(key, id)`-lexicographic heap order; the id component never decides
/// path selection, it only makes the order total (and reproduces the lazy
/// binary heap's settle order on tied costs).
#[inline]
fn heap_less<C: Ord>(key: &[C], a: u32, b: u32) -> bool {
    match key[a as usize].cmp(&key[b as usize]) {
        Ordering::Less => true,
        Ordering::Greater => false,
        Ordering::Equal => a < b,
    }
}

fn sift_up<C: Ord>(heap: &mut [u32], pos: &mut [u32], key: &[C], mut i: usize) {
    while i > 0 {
        let p = (i - 1) / ARITY;
        if heap_less(key, heap[i], heap[p]) {
            heap.swap(i, p);
            pos[heap[i] as usize] = i as u32;
            pos[heap[p] as usize] = p as u32;
            i = p;
        } else {
            break;
        }
    }
}

fn sift_down<C: Ord>(heap: &mut [u32], pos: &mut [u32], key: &[C], mut i: usize) {
    loop {
        let first = i * ARITY + 1;
        if first >= heap.len() {
            break;
        }
        let last = (first + ARITY).min(heap.len());
        let mut best = i;
        for c in first..last {
            if heap_less(key, heap[c], heap[best]) {
                best = c;
            }
        }
        if best == i {
            break;
        }
        heap.swap(i, best);
        pos[heap[i] as usize] = i as u32;
        pos[heap[best] as usize] = best as u32;
        i = best;
    }
}

fn pop_min<C: Ord>(heap: &mut Vec<u32>, pos: &mut [u32], key: &[C]) -> u32 {
    let root = heap[0];
    pos[root as usize] = SETTLED;
    let last = heap.pop().expect("pop_min on an empty heap");
    if !heap.is_empty() {
        heap[0] = last;
        pos[last as usize] = 0;
        sift_down(heap, pos, key, 0);
    }
    root
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs::bfs;
    use crate::dijkstra::dijkstra;
    use crate::generators;

    fn assert_same_bfs(g: &Graph, s: Vertex, faults: &FaultSet, scratch: &mut SearchScratch<u32>) {
        let fresh = bfs(g, s, faults);
        bfs_into(g, s, faults, scratch);
        for v in g.vertices() {
            assert_eq!(scratch.dist(v), fresh.dist(v), "dist({v})");
            assert_eq!(scratch.parent(v), fresh.parent(v), "parent({v})");
        }
        assert_eq!(scratch.to_bfs_tree().reachable_count(), fresh.reachable_count());
    }

    #[test]
    fn bfs_into_matches_bfs_under_reuse() {
        let mut scratch = SearchScratch::new();
        let g = generators::grid(4, 5);
        for s in [0, 7, 19] {
            for e in [None, Some(0), Some(5)] {
                let faults = e.map(FaultSet::single).unwrap_or_default();
                assert_same_bfs(&g, s, &faults, &mut scratch);
            }
        }
        // Switch to a different (smaller) graph with the same scratch.
        let h = generators::cycle(5);
        assert_same_bfs(&h, 3, &FaultSet::empty(), &mut scratch);
    }

    #[test]
    fn dijkstra_into_matches_dijkstra_under_reuse() {
        let g = generators::grid(4, 4);
        let mut scratch = SearchScratch::<u64>::new();
        for s in [0, 5, 15] {
            for e in 0..3 {
                let faults = FaultSet::single(e);
                let fresh = dijkstra(&g, s, &faults, |e, _, _| 100 + e as u64);
                dijkstra_into(&g, s, &faults, |e, _, _| 100 + e as u64, &mut scratch);
                for v in g.vertices() {
                    assert_eq!(scratch.cost(v), fresh.cost(v));
                    assert_eq!(scratch.hops(v), fresh.hops(v));
                    assert_eq!(scratch.parent(v), fresh.parent(v));
                }
                assert_eq!(scratch.ties_detected(), fresh.ties_detected());
            }
        }
    }

    #[test]
    fn decrease_key_reroutes_through_cheaper_parent() {
        // Diamond where the first discovery of vertex 3 is later improved:
        // 0-1 (1), 0-2 (10), 1-3 (100), 2-3 (1) ⇒ best is 0→1→3 at 101
        // versus 0→2→3 at 11; the engine must decrease 3's key after
        // settling 2.
        let g = Graph::from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap();
        let w = |e: EdgeId| [1u64, 10, 100, 1][e];
        let mut scratch = SearchScratch::<u64>::new();
        dijkstra_into(&g, 0, &FaultSet::empty(), |e, _, _| w(e), &mut scratch);
        assert_eq!(scratch.cost(3), Some(&11));
        assert_eq!(scratch.path_to(3).unwrap().vertices(), &[0, 2, 3]);
        assert_eq!(scratch.hops(3), Some(2));
    }

    #[test]
    fn directed_costs_orientation() {
        // Path 0-1-2 with cheap canonical (low→high) traversal and
        // expensive reverse traversal: walking away from 0 uses fwd,
        // walking toward 0 uses bwd.
        let g = generators::path_graph(3);
        let fwd = vec![10u64; g.m()];
        let bwd = vec![1000u64; g.m()];
        let mut scratch = SearchScratch::new();
        dijkstra_into(&g, 0, &FaultSet::empty(), DirectedCosts::new(&fwd, &bwd), &mut scratch);
        assert_eq!(scratch.cost(2), Some(&20), "two forward hops");
        dijkstra_into(&g, 2, &FaultSet::empty(), DirectedCosts::new(&fwd, &bwd), &mut scratch);
        assert_eq!(scratch.cost(0), Some(&2000), "two backward hops");
    }

    #[test]
    fn stale_state_is_invisible_across_queries() {
        let g = generators::path_graph(6);
        let mut scratch = SearchScratch::<u64>::new();
        dijkstra_into(&g, 0, &FaultSet::empty(), |_, _, _| 1u64, &mut scratch);
        assert_eq!(scratch.cost(5), Some(&5));
        // Cut the path: the unreachable side must read as unreached even
        // though its slots still hold the previous query's values.
        let cut = g.edge_between(2, 3).unwrap();
        dijkstra_into(&g, 0, &FaultSet::single(cut), |_, _, _| 1u64, &mut scratch);
        assert_eq!(scratch.cost(5), None);
        assert_eq!(scratch.hops(4), None);
        assert!(scratch.path_to(3).is_none());
        assert_eq!(scratch.reachable_count(), 3);
    }

    #[test]
    fn accessors_before_any_query_are_empty() {
        let scratch = SearchScratch::<u64>::new();
        assert!(!scratch.reached(0));
        assert_eq!(scratch.cost(0), None);
        assert_eq!(scratch.dist(0), None);
        assert!(scratch.path_to(0).is_none());
        assert_eq!(scratch.reachable_count(), 0);
        assert_eq!(scratch.tree_edges().count(), 0);
    }

    #[test]
    fn tree_edges_come_from_dirty_list() {
        let g = generators::complete(6);
        let mut scratch = SearchScratch::<u32>::new();
        bfs_into(&g, 2, &FaultSet::empty(), &mut scratch);
        let edges: Vec<EdgeId> = scratch.tree_edges().collect();
        assert_eq!(edges.len(), 5);
        let tree = scratch.to_bfs_tree();
        let mut expected: Vec<EdgeId> = tree.tree_edges().collect();
        let mut got = edges;
        got.sort_unstable();
        expected.sort_unstable();
        assert_eq!(got, expected);
    }

    #[test]
    fn layered_tree_edges_match_dijkstra_as_a_set() {
        // The dirty list is in BFS discovery order under the layered
        // kernel; `tree_edges` consumers read it as a set.
        let g = generators::grid(5, 6);
        let cost = |e: EdgeId, u: Vertex, v: Vertex| 1000 + (e as u64 % 5) + u64::from(u < v);
        let mut layered = SearchScratch::<u64>::new();
        let mut heap = SearchScratch::<u64>::new();
        for (s, faults) in [(0, FaultSet::empty()), (13, FaultSet::from_edges([3, 17, 30]))] {
            layered_into(&g, s, &faults, cost, &mut layered);
            dijkstra_into(&g, s, &faults, cost, &mut heap);
            let mut got: Vec<EdgeId> = layered.tree_edges().collect();
            let mut expected: Vec<EdgeId> = heap.tree_edges().collect();
            got.sort_unstable();
            expected.sort_unstable();
            assert_eq!(got, expected, "source {s}");
            let hops: Vec<u32> =
                layered.touched.iter().map(|&v| layered.hops[v as usize]).collect();
            assert!(hops.windows(2).all(|w| w[0] <= w[1]), "touched is in BFS layer order");
        }
    }

    #[test]
    fn layered_flags_only_genuine_ties() {
        // 0 reaches 1, 2, 3 at costs 100, 101, 102; all three reach 4.
        // Via 1 and via 2 both cost 202 and Dijkstra, settling 1 then 2,
        // flags that equal pair before 3 offers 201. Only one route into
        // 4 is minimum-cost, so the layered kernel reports no tie; the
        // trees are identical either way.
        let g = Graph::from_edges(5, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)]).unwrap();
        let w = |e: EdgeId| [100u64, 101, 102, 102, 101, 99][e];
        let mut layered = SearchScratch::<u64>::new();
        let mut heap = SearchScratch::<u64>::new();
        layered_into(&g, 0, &FaultSet::empty(), |e, _, _| w(e), &mut layered);
        dijkstra_into(&g, 0, &FaultSet::empty(), |e, _, _| w(e), &mut heap);
        for v in g.vertices() {
            assert_eq!(layered.cost(v), heap.cost(v), "cost({v})");
            assert_eq!(layered.parent(v), heap.parent(v), "parent({v})");
        }
        assert_eq!(layered.cost(4), Some(&201));
        assert!(heap.ties_detected(), "Dijkstra met 202 twice before 201");
        assert!(!layered.ties_detected(), "201 via 3 is the unique minimum");

        // Make the route via 3 cost 202 as well: now 4 has two
        // minimum-cost routes, a genuine tie both engines flag.
        let w = |e: EdgeId| [100u64, 101, 100, 102, 101, 102][e];
        layered_into(&g, 0, &FaultSet::empty(), |e, _, _| w(e), &mut layered);
        dijkstra_into(&g, 0, &FaultSet::empty(), |e, _, _| w(e), &mut heap);
        assert!(layered.ties_detected() && heap.ties_detected());
        assert_eq!(layered.parent(4), heap.parent(4));
    }

    #[test]
    fn inline_and_indexed_engines_are_byte_identical() {
        // Tie-rich near-uniform costs on a grid: settle order, parents,
        // and tie flags must agree between the two heap engines on every
        // query, including under scratch reuse.
        let g = generators::grid(5, 6);
        let mut inline = SearchScratch::<u64>::new().with_heap_kind(HeapKind::InlineKey);
        let mut indexed = SearchScratch::<u64>::new().with_heap_kind(HeapKind::Indexed);
        for s in [0, 13, 29] {
            for e in [None, Some(0), Some(17)] {
                let faults = e.map(FaultSet::single).unwrap_or_default();
                let cost =
                    |e: EdgeId, u: Vertex, v: Vertex| 100 + (e as u64 % 3) + u64::from(u < v);
                dijkstra_into(&g, s, &faults, cost, &mut inline);
                dijkstra_into(&g, s, &faults, cost, &mut indexed);
                assert_eq!(inline.active, HeapKind::InlineKey);
                assert_eq!(indexed.active, HeapKind::Indexed);
                for v in g.vertices() {
                    assert_eq!(inline.cost(v), indexed.cost(v), "cost({v})");
                    assert_eq!(inline.hops(v), indexed.hops(v), "hops({v})");
                    assert_eq!(inline.parent(v), indexed.parent(v), "parent({v})");
                }
                assert_eq!(inline.ties_detected(), indexed.ties_detected(), "ties s{s}");
                assert_eq!(inline.reachable_count(), indexed.reachable_count());
            }
        }
        assert!(inline.heap_pos.is_empty() && indexed.heap_pos.len() == g.n());

        // Only the indexed heap reads heap positions: a u128 scratch on
        // the inline policy never sizes them, on either weighted engine.
        let mut lean = SearchScratch::<u128>::with_capacity(g.n());
        layered_into(&g, 0, &FaultSet::empty(), |_, _, _| 7u128, &mut lean);
        dijkstra_into(&g, 0, &FaultSet::empty(), |_, _, _| 7u128, &mut lean);
        assert!(lean.heap_pos.is_empty(), "u128 scratch carries no heap_pos");
    }

    #[test]
    fn heap_engine_follows_policy_and_override() {
        // Register-copy costs run the inline-key heap by policy; the
        // override forces either engine and `None` restores the policy.
        let g = generators::grid(4, 4);
        let mut s = SearchScratch::<u64>::new();
        dijkstra_into(&g, 0, &FaultSet::empty(), |_, _, _| 1u64, &mut s);
        assert_eq!(s.active, HeapKind::InlineKey, "u64 policy: inline");
        s.set_heap_kind(Some(HeapKind::Indexed));
        dijkstra_into(&g, 0, &FaultSet::empty(), |_, _, _| 1u64, &mut s);
        assert_eq!(s.active, HeapKind::Indexed, "override wins");
        s.set_heap_kind(None);
        dijkstra_into(&g, 0, &FaultSet::empty(), |_, _, _| 1u64, &mut s);
        assert_eq!(s.active, HeapKind::InlineKey, "None restores the policy");

        // BigInt keeps the indexed decrease-key heap by policy.
        use rsp_arith::BigInt;
        let mut b = SearchScratch::<BigInt>::new();
        dijkstra_into(&g, 0, &FaultSet::empty(), |_, _, _| BigInt::one(), &mut b);
        assert_eq!(b.active, HeapKind::Indexed);
    }

    #[test]
    fn inline_engine_stale_entries_are_skipped() {
        // The diamond forces a re-push: vertex 3 is first discovered at
        // cost 101 via 1, then improved to 11 via 2; the stale entry must
        // be ignored and the final tree must reflect the improvement.
        let g = Graph::from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap();
        let w = |e: EdgeId| [1u64, 10, 100, 1][e];
        let mut scratch = SearchScratch::<u64>::new().with_heap_kind(HeapKind::InlineKey);
        dijkstra_into(&g, 0, &FaultSet::empty(), |e, _, _| w(e), &mut scratch);
        assert_eq!(scratch.cost(3), Some(&11));
        assert_eq!(scratch.path_to(3).unwrap().vertices(), &[0, 2, 3]);
        assert!(!scratch.ties_detected());
    }

    #[test]
    fn bigint_costs_accumulate_in_place() {
        use rsp_arith::BigInt;
        let g = generators::grid(3, 3);
        let mut scratch = SearchScratch::<BigInt>::new();
        let fwd: Vec<BigInt> =
            (0..g.m()).map(|e| BigInt::pow2(80) + BigInt::from(e as i64)).collect();
        let bwd: Vec<BigInt> =
            fwd.iter().map(|f| (BigInt::pow2(81) + BigInt::pow2(81)) - f.clone()).collect();
        for s in g.vertices() {
            dijkstra_into(&g, s, &FaultSet::empty(), DirectedCosts::new(&fwd, &bwd), &mut scratch);
            let fresh = dijkstra(&g, s, &FaultSet::empty(), |e, from, to| {
                if from < to {
                    fwd[e].clone()
                } else {
                    bwd[e].clone()
                }
            });
            for v in g.vertices() {
                assert_eq!(scratch.cost(v), fresh.cost(v), "source {s} vertex {v}");
            }
        }
    }
}
