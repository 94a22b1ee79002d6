//! O(1)-amortized adjacency-multiplicity index with a hybrid per-node
//! representation.
//!
//! Triangle counting, the clustering-coefficient estimator
//! (`A_{x_{i-1}, x_{i+1}}` lookups), and the rewiring engine all need many
//! `A_uv` queries. Scanning neighbor lists makes each query O(deg); this
//! index trades one pass of preprocessing and O(m) memory for constant-time
//! queries, and supports incremental updates so the rewiring engine can
//! keep it consistent while mutating the graph.
//!
//! **Representation.** Social-graph degree distributions are heavy-tailed:
//! almost every node has a small neighborhood, while a few hubs are huge.
//! A hash map per node — the obvious choice — makes the *common* case pay
//! hashing, probing, and cache-unfriendly layout on every query. Instead,
//! each node stores its `(neighbor, multiplicity)` pairs in one of two
//! forms:
//!
//! * [`NodeRep::Sorted`] — a sorted `Vec<(NodeId, u32)>`, queried by
//!   branch-light binary search. Used while the node has at most
//!   [`SMALL_THRESHOLD`] distinct neighbors; at those sizes the whole list
//!   spans a few cache lines and beats hashing in both latency and memory.
//! * [`NodeRep::Hashed`] — an `FxHashMap`, used above the threshold so hub
//!   updates stay O(1) instead of O(deg) vector shifts.
//!
//! Nodes promote to `Hashed` when they outgrow the threshold and never
//! demote (degree is invariant under rewiring, the heaviest user). The
//! iteration order of [`MultiplicityIndex::entries`] is unspecified — it
//! differs between the two representations — so consumers must not rely on
//! it; every algorithm in this workspace folds entries commutatively.

use crate::view::GraphView;
use crate::NodeId;
use sgr_util::FxHashMap;

/// Maximum number of distinct neighbors stored in sorted-vec form.
///
/// Confirmed by measurement (the `small_threshold_sweep` bench in
/// `crates/bench/benches/threshold.rs`; single-core container, release
/// build, 2026-07; median ns/op over cutoffs {16, 32, 64, 128, 256}).
/// Three degree profiles × three workloads showed the cutoff is a real
/// trade-off, not a free parameter:
///
/// * Erdős–Rényi k̄ ≈ 8 (every node below every cutoff): flat — lookup
///   ≈ 24 ns, churn ≈ 104 ns, iterate ≈ 29 ns at all cutoffs.
/// * Holme–Kim m = 8 heavy tail: point lookups favor hashing *early*
///   (18 → 31 → 40 ns at 16 / 64 / 256) and edge churn mildly agrees
///   (92 → 106 → 131 ns), but full `entries()` iteration — the triangle
///   and shared-partner mix — favors sorted vecs *late* (126 → 78 →
///   43 ns at 16 / 64 / 256).
/// * Watts–Strogatz k = 100 (≈ 200 distinct neighbors per node, all on
///   one side of each cutoff): hashed nodes iterate 3.4× slower
///   (627 vs 186 ns) while sorted-vec nodes churn 2.3× slower
///   (403 vs 176 ns) — each extreme has a ≥ 2.3× pathology.
///
/// No cutoff dominates; 64 is the bounded-regret middle: on the
/// heavy-tailed profile (the case this workspace actually runs) every
/// workload stays within ≈ 1.8× of its per-workload best, whereas 16
/// costs 2.9× on iteration and 256 costs 2.2× on lookups plus the
/// mid-degree churn pathology. 128 measures within noise of 64 except a
/// further lookup regression (31 → 35 ns), so the lower value stands.
pub const SMALL_THRESHOLD: usize = 64;

/// Per-node storage for `(neighbor, A_uv)` pairs. See the module docs for
/// the size policy.
#[derive(Clone, Debug)]
pub enum NodeRep {
    /// Sorted by neighbor id; binary-searched.
    Sorted(Vec<(NodeId, u32)>),
    /// Hash-mapped; used above [`SMALL_THRESHOLD`] distinct neighbors.
    Hashed(FxHashMap<NodeId, u32>),
}

impl Default for NodeRep {
    fn default() -> Self {
        NodeRep::Sorted(Vec::new())
    }
}

impl NodeRep {
    #[inline]
    fn get(&self, v: NodeId) -> u32 {
        match self {
            NodeRep::Sorted(list) => match list.binary_search_by_key(&v, |&(w, _)| w) {
                Ok(i) => list[i].1,
                Err(_) => 0,
            },
            NodeRep::Hashed(map) => map.get(&v).copied().unwrap_or(0),
        }
    }

    #[inline]
    fn len(&self) -> usize {
        match self {
            NodeRep::Sorted(list) => list.len(),
            NodeRep::Hashed(map) => map.len(),
        }
    }

    /// Adds `by` to the entry for `v`, creating it if absent. Returns the
    /// new distinct-neighbor count so the caller can decide on promotion.
    fn increment(&mut self, v: NodeId, by: u32) -> usize {
        match self {
            NodeRep::Sorted(list) => {
                match list.binary_search_by_key(&v, |&(w, _)| w) {
                    Ok(i) => list[i].1 += by,
                    Err(i) => list.insert(i, (v, by)),
                }
                list.len()
            }
            NodeRep::Hashed(map) => {
                *map.entry(v).or_insert(0) += by;
                map.len()
            }
        }
    }

    /// Subtracts `by` from the entry for `v`, removing it at zero.
    ///
    /// # Panics
    /// Panics if the entry is absent; debug-asserts it holds at least `by`.
    fn decrement(&mut self, v: NodeId, by: u32) {
        match self {
            NodeRep::Sorted(list) => {
                let i = list
                    .binary_search_by_key(&v, |&(w, _)| w)
                    .unwrap_or_else(|_| panic!("removing a non-existent edge from the index"));
                debug_assert!(list[i].1 >= by);
                list[i].1 -= by;
                if list[i].1 == 0 {
                    list.remove(i);
                }
            }
            NodeRep::Hashed(map) => {
                let entry = map
                    .get_mut(&v)
                    .expect("removing a non-existent edge from the index");
                debug_assert!(*entry >= by);
                *entry -= by;
                if *entry == 0 {
                    map.remove(&v);
                }
            }
        }
    }

    /// Converts a sorted list into hashed form (promotion).
    fn promote(&mut self) {
        if let NodeRep::Sorted(list) = self {
            let mut map = sgr_util::hash::fx_map_with_capacity(list.len() * 2);
            for &(v, c) in list.iter() {
                map.insert(v, c);
            }
            *self = NodeRep::Hashed(map);
        }
    }
}

/// Hybrid per-node index from neighbor id to adjacency-matrix entry `A_uv`
/// (multiplicity; `A_uu` = 2 × loop count).
#[derive(Clone, Debug)]
pub struct MultiplicityIndex {
    nodes: Vec<NodeRep>,
    /// Sorted-vec/hash cutoff; [`SMALL_THRESHOLD`] unless overridden by
    /// [`MultiplicityIndex::build_with_threshold`] (used by the bench that
    /// sweeps the cutoff).
    threshold: usize,
    /// Total structural mutations (`add_edge` + `remove_edge` calls),
    /// maintained only in debug builds. The rewiring engine asserts this
    /// is unchanged across rejected swap attempts.
    #[cfg(debug_assertions)]
    mutations: u64,
}

impl Default for MultiplicityIndex {
    fn default() -> Self {
        Self::with_nodes(0)
    }
}

impl MultiplicityIndex {
    /// Builds the index from any read-only view in O(n + m log k̄); nodes
    /// above [`SMALL_THRESHOLD`] distinct neighbors go straight to hashed
    /// form.
    pub fn build<G: GraphView + ?Sized>(g: &G) -> Self {
        Self::build_with_threshold(g, SMALL_THRESHOLD)
    }

    /// As [`build`](Self::build), with an explicit sorted-vec/hash cutoff.
    /// Exists so the `small_threshold_sweep` bench can measure candidate
    /// cutoffs; production code should use [`build`](Self::build).
    pub fn build_with_threshold<G: GraphView + ?Sized>(g: &G, threshold: usize) -> Self {
        let mut nodes: Vec<NodeRep> = Vec::with_capacity(g.num_nodes());
        let mut scratch: Vec<NodeId> = Vec::new();
        for u in g.nodes() {
            scratch.clear();
            scratch.extend_from_slice(g.neighbors(u));
            scratch.sort_unstable();
            // Run-length encode the sorted neighbor list.
            let mut list: Vec<(NodeId, u32)> = Vec::new();
            for &v in scratch.iter() {
                match list.last_mut() {
                    Some(last) if last.0 == v => last.1 += 1,
                    _ => list.push((v, 1)),
                }
            }
            let mut rep = NodeRep::Sorted(list);
            if rep.len() > threshold {
                rep.promote();
            }
            nodes.push(rep);
        }
        Self {
            nodes,
            threshold,
            #[cfg(debug_assertions)]
            mutations: 0,
        }
    }

    /// Creates an empty index over `n` nodes (all entries zero).
    pub fn with_nodes(n: usize) -> Self {
        Self {
            nodes: (0..n).map(|_| NodeRep::default()).collect(),
            threshold: SMALL_THRESHOLD,
            #[cfg(debug_assertions)]
            mutations: 0,
        }
    }

    /// Number of nodes covered.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of distinct neighbors of `u` (counting `u` itself if it has
    /// a loop).
    #[inline]
    pub fn num_distinct(&self, u: NodeId) -> usize {
        self.nodes[u as usize].len()
    }

    /// `A_uv` (0 when absent).
    #[inline]
    pub fn get(&self, u: NodeId, v: NodeId) -> u32 {
        self.nodes[u as usize].get(v)
    }

    /// Whether any edge `{u, v}` exists.
    #[inline]
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.get(u, v) > 0
    }

    /// Iterates `(neighbor, A_uv)` pairs of `u` (each neighbor once).
    /// Iteration order is unspecified and differs between representations.
    pub fn entries(&self, u: NodeId) -> Entries<'_> {
        match &self.nodes[u as usize] {
            NodeRep::Sorted(list) => Entries::Sorted(list.iter()),
            NodeRep::Hashed(map) => Entries::Hashed(map.iter()),
        }
    }

    /// The sorted `(neighbor, A_uv)` slice of `u`, if `u` is stored in
    /// small-vec form (`None` for hub nodes promoted to hashed form).
    ///
    /// The slice is strictly ascending in neighbor id — the invariant
    /// [`for_each_common`](Self::for_each_common)'s merge-intersection
    /// fast path relies on.
    #[inline]
    pub fn sorted_entries(&self, u: NodeId) -> Option<&[(NodeId, u32)]> {
        match &self.nodes[u as usize] {
            NodeRep::Sorted(list) => Some(list),
            NodeRep::Hashed(_) => None,
        }
    }

    /// Calls `f(w, A_xw, A_yw)` once for every **distinct common
    /// neighbor** `w` of `x` and `y` (i.e. `A_xw > 0` and `A_yw > 0`).
    /// Visit order is unspecified, like [`entries`](Self::entries).
    ///
    /// This is the hot kernel of the rewiring engine's swap evaluation:
    /// one raw scan per pair whose multiplicity the swap changes (at most
    /// four per attempt), read against the unmodified index.
    /// Representation-aware:
    ///
    /// * both nodes sorted (the overwhelmingly common case under
    ///   [`SMALL_THRESHOLD`]) — a branchless [`merge_common`] over the two
    ///   ascending slices, O(d̃_x + d̃_y) with no hashing or binary search;
    /// * either node hashed — iterate the side with fewer distinct
    ///   neighbors (using its sorted slice when available, so probes walk
    ///   memory in order) and probe the other in O(1).
    pub fn for_each_common<F: FnMut(NodeId, u32, u32)>(&self, x: NodeId, y: NodeId, mut f: F) {
        match (self.sorted_entries(x), self.sorted_entries(y)) {
            (Some(a), Some(b)) => merge_common(a, b, f),
            _ => {
                if self.num_distinct(x) <= self.num_distinct(y) {
                    for (w, a_xw) in self.entries(x) {
                        let a_yw = self.get(y, w);
                        if a_yw > 0 {
                            f(w, a_xw, a_yw);
                        }
                    }
                } else {
                    for (w, a_yw) in self.entries(y) {
                        let a_xw = self.get(x, w);
                        if a_xw > 0 {
                            f(w, a_xw, a_yw);
                        }
                    }
                }
            }
        }
    }

    /// Structural mutation count (debug builds only; always 0 in release).
    /// Used by the rewiring engine to assert rejected attempts touch
    /// nothing.
    #[inline]
    pub fn mutation_count(&self) -> u64 {
        #[cfg(debug_assertions)]
        {
            self.mutations
        }
        #[cfg(not(debug_assertions))]
        {
            0
        }
    }

    #[inline]
    fn note_mutation(&mut self) {
        #[cfg(debug_assertions)]
        {
            self.mutations += 1;
        }
    }

    /// Registers the addition of edge `{u, v}` (loop adds 2 to `A_uu`).
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) {
        self.note_mutation();
        if u == v {
            self.bump(u, u, 2);
        } else {
            self.bump(u, v, 1);
            self.bump(v, u, 1);
        }
    }

    #[inline]
    fn bump(&mut self, u: NodeId, v: NodeId, by: u32) {
        let rep = &mut self.nodes[u as usize];
        let len = rep.increment(v, by);
        if len > self.threshold {
            rep.promote();
        }
    }

    /// Registers the removal of one copy of edge `{u, v}`.
    ///
    /// # Panics
    /// Panics if the edge is not present.
    pub fn remove_edge(&mut self, u: NodeId, v: NodeId) {
        self.note_mutation();
        if u == v {
            self.nodes[u as usize].decrement(u, 2);
        } else {
            self.nodes[u as usize].decrement(v, 1);
            self.nodes[v as usize].decrement(u, 1);
        }
    }

    /// Consistency check against a graph; returns the first mismatch.
    pub fn validate_against<G: GraphView + ?Sized>(&self, g: &G) -> Result<(), String> {
        if self.nodes.len() != g.num_nodes() {
            return Err(format!(
                "index covers {} nodes, graph has {}",
                self.nodes.len(),
                g.num_nodes()
            ));
        }
        for u in g.nodes() {
            let mut counts: FxHashMap<NodeId, u32> = FxHashMap::default();
            for &v in g.neighbors(u) {
                *counts.entry(v).or_insert(0) += 1;
            }
            if counts.len() != self.num_distinct(u) {
                return Err(format!("node {u}: neighbor-set size mismatch"));
            }
            for (&v, &c) in counts.iter() {
                if self.get(u, v) != c {
                    return Err(format!(
                        "A_{{{u},{v}}} mismatch: index {} vs graph {c}",
                        self.get(u, v)
                    ));
                }
            }
            if let NodeRep::Sorted(list) = &self.nodes[u as usize] {
                if !list.windows(2).all(|w| w[0].0 < w[1].0) {
                    return Err(format!("node {u}: sorted list out of order"));
                }
            }
        }
        Ok(())
    }
}

/// Branchless sorted-slice intersection: calls `f(w, a_w, b_w)` for every
/// key present in both ascending `(key, value)` slices.
///
/// Cursor advancement is a data-dependent add (`cmp as usize`), not a
/// branch, so mispredict stalls disappear from the balanced-merge case.
/// When one cursor falls behind, a 4-wide unrolled catch-up loop counts
/// how many of the next four keys are still below the bound with four
/// independent compares — a form the autovectorizer can lift to SIMD —
/// and jumps the cursor by that count, giving galloping-style skips over
/// hub-vs-leaf skew without a branchy binary search.
pub fn merge_common<F: FnMut(NodeId, u32, u32)>(
    a: &[(NodeId, u32)],
    b: &[(NodeId, u32)],
    mut f: F,
) {
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        let (wa, va) = a[i];
        let (wb, vb) = b[j];
        if wa == wb {
            f(wa, va, vb);
            i += 1;
            j += 1;
            continue;
        }
        if wa < wb {
            i = advance4(a, i + 1, wb);
        } else {
            j = advance4(b, j + 1, wa);
        }
    }
}

/// Advances `i` past every key of `list` strictly below `bound`,
/// consuming quads with four branchless compares per step.
#[inline]
fn advance4(list: &[(NodeId, u32)], mut i: usize, bound: NodeId) -> usize {
    while i + 4 <= list.len() {
        let adv = (list[i].0 < bound) as usize
            + (list[i + 1].0 < bound) as usize
            + (list[i + 2].0 < bound) as usize
            + (list[i + 3].0 < bound) as usize;
        i += adv;
        if adv < 4 {
            return i;
        }
    }
    while i < list.len() && list[i].0 < bound {
        i += 1;
    }
    i
}

/// Iterator over one node's `(neighbor, A_uv)` pairs; see
/// [`MultiplicityIndex::entries`].
pub enum Entries<'a> {
    /// Over a sorted small-vec node.
    Sorted(std::slice::Iter<'a, (NodeId, u32)>),
    /// Over a hashed hub node.
    Hashed(std::collections::hash_map::Iter<'a, NodeId, u32>),
}

impl Iterator for Entries<'_> {
    type Item = (NodeId, u32);

    #[inline]
    fn next(&mut self) -> Option<(NodeId, u32)> {
        match self {
            Entries::Sorted(it) => it.next().copied(),
            Entries::Hashed(it) => it.next().map(|(&v, &c)| (v, c)),
        }
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            Entries::Sorted(it) => it.size_hint(),
            Entries::Hashed(it) => it.size_hint(),
        }
    }
}

impl ExactSizeIterator for Entries<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Graph;

    #[test]
    fn build_matches_graph() {
        let mut g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 0), (0, 1)]);
        g.add_edge(3, 3);
        let idx = MultiplicityIndex::build(&g);
        assert_eq!(idx.get(0, 1), 2);
        assert_eq!(idx.get(1, 0), 2);
        assert_eq!(idx.get(1, 2), 1);
        assert_eq!(idx.get(3, 3), 2);
        assert_eq!(idx.get(0, 3), 0);
        assert!(idx.has_edge(2, 0));
        assert!(!idx.has_edge(1, 3));
        idx.validate_against(&g).unwrap();
    }

    #[test]
    fn incremental_updates_stay_consistent() {
        let mut g = Graph::from_edges(4, &[(0, 1), (1, 2)]);
        let mut idx = MultiplicityIndex::build(&g);
        g.add_edge(2, 3);
        idx.add_edge(2, 3);
        g.add_edge(3, 3);
        idx.add_edge(3, 3);
        idx.validate_against(&g).unwrap();
        g.remove_edge(0, 1);
        idx.remove_edge(0, 1);
        g.remove_edge(3, 3);
        idx.remove_edge(3, 3);
        idx.validate_against(&g).unwrap();
        assert_eq!(idx.get(0, 1), 0);
        assert_eq!(idx.get(3, 3), 0);
    }

    #[test]
    fn entries_iterate_each_neighbor_once() {
        let g = Graph::from_edges(3, &[(0, 1), (0, 1), (0, 2)]);
        let idx = MultiplicityIndex::build(&g);
        let mut entries: Vec<_> = idx.entries(0).collect();
        entries.sort_unstable();
        assert_eq!(entries, vec![(1, 2), (2, 1)]);
    }

    #[test]
    #[should_panic]
    fn removing_absent_edge_panics() {
        let g = Graph::from_edges(2, &[(0, 1)]);
        let mut idx = MultiplicityIndex::build(&g);
        idx.remove_edge(0, 1);
        idx.remove_edge(0, 1); // second removal must panic
    }

    #[test]
    fn validate_detects_mismatch() {
        let g = Graph::from_edges(2, &[(0, 1)]);
        let idx = MultiplicityIndex::with_nodes(2);
        assert!(idx.validate_against(&g).is_err());
    }

    #[test]
    fn hub_nodes_promote_to_hashed_and_stay_consistent() {
        // A star whose hub exceeds SMALL_THRESHOLD distinct neighbors.
        let n = SMALL_THRESHOLD + 20;
        let edges: Vec<(NodeId, NodeId)> = (1..=n as NodeId).map(|v| (0, v)).collect();
        let g = Graph::from_edges(n + 1, &edges);
        let idx = MultiplicityIndex::build(&g);
        assert!(matches!(idx.nodes[0], NodeRep::Hashed(_)));
        assert!(matches!(idx.nodes[1], NodeRep::Sorted(_)));
        idx.validate_against(&g).unwrap();
        assert_eq!(idx.num_distinct(0), n);
        assert_eq!(idx.entries(0).count(), n);
        for v in 1..=n as NodeId {
            assert_eq!(idx.get(0, v), 1);
            assert_eq!(idx.get(v, 0), 1);
        }
    }

    #[test]
    fn incremental_growth_promotes_at_threshold() {
        let n = SMALL_THRESHOLD + 5;
        let mut g = Graph::with_nodes(n + 1);
        let mut idx = MultiplicityIndex::with_nodes(n + 1);
        for v in 1..=n as NodeId {
            g.add_edge(0, v);
            idx.add_edge(0, v);
            idx.validate_against(&g).unwrap();
        }
        assert!(matches!(idx.nodes[0], NodeRep::Hashed(_)));
        // Removals keep hashed form consistent (no demotion).
        for v in 1..=n as NodeId {
            g.remove_edge(0, v);
            idx.remove_edge(0, v);
        }
        idx.validate_against(&g).unwrap();
        assert_eq!(idx.num_distinct(0), 0);
    }

    /// Common-neighbor reference: probe every node of the graph.
    fn naive_common(idx: &MultiplicityIndex, x: NodeId, y: NodeId) -> Vec<(NodeId, u32, u32)> {
        let mut out: Vec<(NodeId, u32, u32)> = (0..idx.num_nodes() as NodeId)
            .filter_map(|w| {
                let (a, b) = (idx.get(x, w), idx.get(y, w));
                (a > 0 && b > 0).then_some((w, a, b))
            })
            .collect();
        out.sort_unstable();
        out
    }

    fn collected_common(idx: &MultiplicityIndex, x: NodeId, y: NodeId) -> Vec<(NodeId, u32, u32)> {
        let mut out = Vec::new();
        idx.for_each_common(x, y, |w, a, b| out.push((w, a, b)));
        out.sort_unstable();
        out
    }

    #[test]
    fn sorted_entries_only_for_small_nodes() {
        let n = SMALL_THRESHOLD + 10;
        let edges: Vec<(NodeId, NodeId)> = (1..=n as NodeId).map(|v| (0, v)).collect();
        let g = Graph::from_edges(n + 1, &edges);
        let idx = MultiplicityIndex::build(&g);
        assert!(idx.sorted_entries(0).is_none(), "hub should be hashed");
        let leaf = idx.sorted_entries(1).expect("leaf should be sorted");
        assert_eq!(leaf, &[(0, 1)]);
    }

    #[test]
    fn for_each_common_matches_naive_on_all_pairs() {
        // Mixed representations: node 0 is a hashed hub, everyone else
        // sorted; multi-edges and self-loops included.
        let n = SMALL_THRESHOLD + 8;
        let mut edges: Vec<(NodeId, NodeId)> = (1..=n as NodeId).map(|v| (0, v)).collect();
        edges.extend([(1, 2), (1, 2), (2, 3), (3, 4), (1, 4), (2, 2)]);
        let g = Graph::from_edges(n + 1, &edges);
        let idx = MultiplicityIndex::build(&g);
        for x in [0, 1, 2, 3, 4, 5] {
            for y in [0, 1, 2, 3, 4, 5] {
                assert_eq!(
                    collected_common(&idx, x, y),
                    naive_common(&idx, x, y),
                    "pair ({x},{y})"
                );
            }
        }
    }

    #[test]
    fn merge_common_handles_skew_and_runs() {
        // Hand-built slices exercising the 4-wide catch-up: long run of
        // low keys on one side, sparse high keys on the other.
        let a: Vec<(NodeId, u32)> = (0..40).map(|k| (k, k + 1)).collect();
        let b: Vec<(NodeId, u32)> = vec![(3, 9), (17, 2), (38, 5), (39, 1), (90, 7)];
        let mut got = Vec::new();
        merge_common(&a, &b, |w, x, y| got.push((w, x, y)));
        assert_eq!(got, vec![(3, 4, 9), (17, 18, 2), (38, 39, 5), (39, 40, 1)]);
        // Symmetric call sees the same keys with values swapped.
        let mut rev = Vec::new();
        merge_common(&b, &a, |w, x, y| rev.push((w, y, x)));
        assert_eq!(got, rev);
        // Disjoint and empty inputs.
        let mut none = Vec::new();
        merge_common(&a[..2], &b[4..], |w, _, _| none.push(w));
        merge_common(&[], &b, |w, _, _| none.push(w));
        assert!(none.is_empty());
    }

    #[test]
    fn mutation_counter_tracks_updates_in_debug() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]);
        let mut idx = MultiplicityIndex::build(&g);
        let before = idx.mutation_count();
        idx.add_edge(0, 2);
        idx.remove_edge(0, 2);
        if cfg!(debug_assertions) {
            assert_eq!(idx.mutation_count(), before + 2);
        }
    }
}
