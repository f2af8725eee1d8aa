//! Rooted-tree utilities: parent/depth tables, tree paths, and lowest
//! common ancestors.
//!
//! Pseudo-multicast trees are derived from Steiner trees by routing
//! processed packets *back up* the tree from the processing server; both the
//! offline and online algorithms therefore need tree paths and LCAs of the
//! chosen server and the destinations.

#![allow(clippy::needless_range_loop)] // paired-index loops over parallel arrays

use crate::{EdgeId, Graph, NodeId, Path};
use std::collections::BTreeMap;

/// A tree embedded in a [`Graph`], rooted at a chosen node.
///
/// The tree is described by a set of graph edges; only nodes incident to
/// those edges (plus the root) are part of the tree. Construction verifies
/// the edge set actually forms a tree containing the root.
///
/// ```
/// use netgraph::{Graph, RootedTree};
/// # fn main() -> Result<(), netgraph::GraphError> {
/// let mut g = Graph::new();
/// let a = g.add_node();
/// let b = g.add_node();
/// let c = g.add_node();
/// let e1 = g.add_edge(a, b, 1.0)?;
/// let e2 = g.add_edge(b, c, 2.0)?;
/// let t = RootedTree::from_edges(&g, &[e1, e2], a).unwrap();
/// assert_eq!(t.depth(c), Some(2));
/// assert_eq!(t.lca().lca(a, c), a);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct RootedTree {
    root: NodeId,
    /// Local index of each tree node.
    index: BTreeMap<NodeId, usize>,
    /// Tree nodes by local index (root first is *not* guaranteed).
    nodes: Vec<NodeId>,
    /// Parent (node, edge) per local index; `None` for the root.
    parent: Vec<Option<(NodeId, EdgeId)>>,
    /// Hop depth per local index (root = 0).
    depth: Vec<usize>,
    /// Weighted distance from the root per local index.
    dist: Vec<f64>,
    /// Edge ids forming the tree.
    edges: Vec<EdgeId>,
    /// Total weight of the tree edges.
    total_weight: f64,
}

impl RootedTree {
    /// Builds a rooted tree from `edges` of `g`, rooted at `root`.
    ///
    /// Returns `None` if the edges do not form a single tree containing
    /// `root` (cycle, disconnected, or root not incident). A lone root with
    /// no edges is a valid single-node tree.
    #[must_use]
    pub fn from_edges(g: &Graph, edges: &[EdgeId], root: NodeId) -> Option<RootedTree> {
        RootedTree::from_weighted_edges(g, edges, root, |e| g.edge(e).weight)
    }

    /// [`RootedTree::from_edges`] with each edge weighing `weight(e)`
    /// instead of its weight in `g`, which then supplies only endpoints.
    #[must_use]
    pub fn from_weighted_edges(
        g: &Graph,
        edges: &[EdgeId],
        root: NodeId,
        weight: impl Fn(EdgeId) -> f64,
    ) -> Option<RootedTree> {
        // Collect incident nodes.
        let mut index: BTreeMap<NodeId, usize> = BTreeMap::new();
        let mut nodes: Vec<NodeId> = Vec::new();
        let intern = |n: NodeId, nodes: &mut Vec<NodeId>, index: &mut BTreeMap<NodeId, usize>| {
            *index.entry(n).or_insert_with(|| {
                nodes.push(n);
                nodes.len() - 1
            })
        };
        intern(root, &mut nodes, &mut index);
        let mut adj: Vec<Vec<(usize, EdgeId, f64)>> = vec![Vec::new()];
        for &e in edges {
            let er = g.try_edge(e)?;
            let ui = intern(er.u, &mut nodes, &mut index);
            let vi = intern(er.v, &mut nodes, &mut index);
            if adj.len() < nodes.len() {
                adj.resize(nodes.len(), Vec::new());
            }
            let w = weight(e);
            adj[ui].push((vi, e, w));
            adj[vi].push((ui, e, w));
        }
        let n = nodes.len();
        // A tree on n nodes has exactly n - 1 edges.
        if edges.len() != n - 1 {
            return None;
        }

        // BFS from the root; must reach every node without revisits.
        let mut parent: Vec<Option<(NodeId, EdgeId)>> = vec![None; n];
        let mut depth = vec![usize::MAX; n];
        let mut dist = vec![f64::INFINITY; n];
        let ri = index[&root];
        depth[ri] = 0;
        dist[ri] = 0.0;
        let mut queue = std::collections::VecDeque::from([ri]);
        let mut visited = 1usize;
        while let Some(u) = queue.pop_front() {
            for &(v, e, w) in &adj[u] {
                if depth[v] == usize::MAX {
                    depth[v] = depth[u] + 1;
                    dist[v] = dist[u] + w;
                    parent[v] = Some((nodes[u], e));
                    visited += 1;
                    queue.push_back(v);
                }
            }
        }
        if visited != n {
            return None; // disconnected (cycle elsewhere given the edge count)
        }

        let total_weight = edges.iter().map(|&e| weight(e)).sum();
        Some(RootedTree {
            root,
            index,
            nodes,
            parent,
            depth,
            dist,
            edges: edges.to_vec(),
            total_weight,
        })
    }

    /// The root node.
    #[must_use]
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Number of nodes in the tree.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Iterates over tree nodes.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes.iter().copied()
    }

    /// The edge ids forming the tree.
    #[must_use]
    pub fn edges(&self) -> &[EdgeId] {
        &self.edges
    }

    /// Sum of tree edge weights.
    #[must_use]
    pub fn total_weight(&self) -> f64 {
        self.total_weight
    }

    /// Returns `true` if `n` is a node of the tree.
    #[must_use]
    pub fn contains(&self, n: NodeId) -> bool {
        self.index.contains_key(&n)
    }

    /// Hop depth of `n` (root = 0), or `None` if not in the tree.
    #[must_use]
    pub fn depth(&self, n: NodeId) -> Option<usize> {
        self.index.get(&n).map(|&i| self.depth[i])
    }

    /// Weighted distance from the root to `n`, or `None` if not in the tree.
    #[must_use]
    pub fn distance_from_root(&self, n: NodeId) -> Option<f64> {
        self.index.get(&n).map(|&i| self.dist[i])
    }

    /// Parent (node, edge) of `n`; `None` for the root or non-tree nodes.
    #[must_use]
    pub fn parent(&self, n: NodeId) -> Option<(NodeId, EdgeId)> {
        self.index.get(&n).and_then(|&i| self.parent[i])
    }

    /// Returns `true` if `a` is an ancestor of `b` (or equal to it).
    ///
    /// # Panics
    ///
    /// Panics if either node is not in the tree.
    #[must_use]
    pub fn is_ancestor(&self, a: NodeId, b: NodeId) -> bool {
        let da = self.depth(a).expect("node not in tree"); // lint:allow(P1): documented panic contract: nodes must be in the tree
        let mut cur = b;
        let mut dc = self.depth(b).expect("node not in tree"); // lint:allow(P1): documented panic contract: nodes must be in the tree
        while dc > da {
            cur = self.parent(cur).expect("non-root has a parent").0; // lint:allow(P1): dc > da >= 0, so cur is not the root
            dc -= 1;
        }
        cur == a
    }

    /// The unique tree path between `a` and `b` (through their LCA).
    ///
    /// # Panics
    ///
    /// Panics if either node is not in the tree.
    #[must_use]
    pub fn path_between(&self, a: NodeId, b: NodeId) -> Path {
        let l = self.lca().lca(a, b);
        // Walk a -> l (forward) and b -> l (to reverse).
        let mut up_nodes = vec![a];
        let mut up_edges = Vec::new();
        let mut cur = a;
        while cur != l {
            let (p, e) = self.parent(cur).expect("non-root has a parent"); // lint:allow(P1): cur != lca, so cur is below the LCA and has a parent
            up_nodes.push(p);
            up_edges.push(e);
            cur = p;
        }
        let mut down_nodes = Vec::new();
        let mut down_edges = Vec::new();
        cur = b;
        while cur != l {
            let (p, e) = self.parent(cur).expect("non-root has a parent"); // lint:allow(P1): cur != lca, so cur is below the LCA and has a parent
            down_nodes.push(cur);
            down_edges.push(e);
            cur = p;
        }
        down_nodes.reverse();
        down_edges.reverse();
        up_nodes.extend(down_nodes);
        up_edges.extend(down_edges);
        let ia = self.index[&a];
        let ib = self.index[&b];
        let il = self.index[&l];
        let cost = (self.dist[ia] - self.dist[il]) + (self.dist[ib] - self.dist[il]);
        Path::new(up_nodes, up_edges, cost)
    }

    /// Nodes in the subtree rooted at `n` (including `n`).
    ///
    /// # Panics
    ///
    /// Panics if `n` is not in the tree.
    #[must_use]
    pub fn subtree_nodes(&self, n: NodeId) -> Vec<NodeId> {
        assert!(self.contains(n), "node {n} not in tree");
        self.nodes
            .iter()
            .copied()
            .filter(|&m| self.is_ancestor(n, m))
            .collect()
    }

    /// Leaves of the tree (degree-1 nodes other than a lone root).
    #[must_use]
    pub fn leaves(&self) -> Vec<NodeId> {
        let mut child_count = vec![0usize; self.nodes.len()];
        for (i, p) in self.parent.iter().enumerate() {
            let _ = i;
            if let Some((pn, _)) = p {
                child_count[self.index[pn]] += 1;
            }
        }
        self.nodes
            .iter()
            .enumerate()
            .filter(|&(i, &n)| child_count[i] == 0 && n != self.root)
            .map(|(_, &n)| n)
            .collect()
    }

    /// Builds an LCA query structure (binary lifting, `O(n log n)` build,
    /// `O(log n)` per query).
    #[must_use]
    pub fn lca(&self) -> Lca<'_> {
        let n = self.nodes.len();
        let levels = usize::BITS as usize - n.leading_zeros() as usize; // ceil(log2(n))+..
        let levels = levels.max(1);
        let mut up = vec![vec![usize::MAX; n]; levels];
        for i in 0..n {
            up[0][i] = self.parent[i].map_or(usize::MAX, |(p, _)| self.index[&p]);
        }
        for l in 1..levels {
            for i in 0..n {
                let mid = up[l - 1][i];
                up[l][i] = if mid == usize::MAX {
                    usize::MAX
                } else {
                    up[l - 1][mid]
                };
            }
        }
        Lca { tree: self, up }
    }
}

/// Binary-lifting LCA oracle borrowed from a [`RootedTree`].
#[derive(Debug)]
pub struct Lca<'t> {
    tree: &'t RootedTree,
    up: Vec<Vec<usize>>,
}

impl Lca<'_> {
    /// Lowest common ancestor of `a` and `b`.
    ///
    /// # Panics
    ///
    /// Panics if either node is not in the tree.
    #[must_use]
    pub fn lca(&self, a: NodeId, b: NodeId) -> NodeId {
        let t = self.tree;
        let mut ia = *t.index.get(&a).expect("node not in tree"); // lint:allow(P1): documented panic contract: nodes must be in the tree
        let mut ib = *t.index.get(&b).expect("node not in tree"); // lint:allow(P1): documented panic contract: nodes must be in the tree
        if t.depth[ia] < t.depth[ib] {
            std::mem::swap(&mut ia, &mut ib);
        }
        // Lift ia to ib's depth.
        let mut diff = t.depth[ia] - t.depth[ib];
        let mut level = 0;
        while diff > 0 {
            if diff & 1 == 1 {
                ia = self.up[level][ia];
            }
            diff >>= 1;
            level += 1;
        }
        if ia == ib {
            return t.nodes[ia];
        }
        for l in (0..self.up.len()).rev() {
            if self.up[l][ia] != self.up[l][ib]
                && self.up[l][ia] != usize::MAX
                && self.up[l][ib] != usize::MAX
            {
                ia = self.up[l][ia];
                ib = self.up[l][ib];
            }
        }
        let pa = self.up[0][ia];
        debug_assert_ne!(pa, usize::MAX);
        t.nodes[pa]
    }

    /// LCA of a non-empty set of nodes, folded pairwise:
    /// `LCA(x1, …, xn) = LCA(LCA(x1, …, x_{n-1}), xn)` (as in Algorithm 2 of
    /// the paper).
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is empty or contains a non-tree node.
    #[must_use]
    pub fn lca_of_set(&self, nodes: &[NodeId]) -> NodeId {
        assert!(!nodes.is_empty(), "lca of empty set is undefined");
        nodes[1..].iter().fold(nodes[0], |acc, &n| self.lca(acc, n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Graph;

    /// Builds the tree
    /// ```text
    ///        r
    ///       / \
    ///      a   b
    ///     / \    \
    ///    c   d    e
    /// ```
    fn sample() -> (Graph, RootedTree, [NodeId; 6]) {
        let mut g = Graph::new();
        let r = g.add_node();
        let a = g.add_node();
        let b = g.add_node();
        let c = g.add_node();
        let d = g.add_node();
        let e = g.add_node();
        let edges = vec![
            g.add_edge(r, a, 1.0).unwrap(),
            g.add_edge(r, b, 2.0).unwrap(),
            g.add_edge(a, c, 3.0).unwrap(),
            g.add_edge(a, d, 4.0).unwrap(),
            g.add_edge(b, e, 5.0).unwrap(),
        ];
        let t = RootedTree::from_edges(&g, &edges, r).unwrap();
        (g, t, [r, a, b, c, d, e])
    }

    #[test]
    fn depths_and_distances() {
        let (_, t, [r, a, _, c, _, e]) = sample();
        assert_eq!(t.depth(r), Some(0));
        assert_eq!(t.depth(a), Some(1));
        assert_eq!(t.depth(c), Some(2));
        assert_eq!(t.distance_from_root(c), Some(4.0));
        assert_eq!(t.distance_from_root(e), Some(7.0));
        assert_eq!(t.node_count(), 6);
        assert_eq!(t.total_weight(), 15.0);
    }

    #[test]
    fn lca_pairs() {
        let (_, t, [r, a, b, c, d, e]) = sample();
        let lca = t.lca();
        assert_eq!(lca.lca(c, d), a);
        assert_eq!(lca.lca(c, e), r);
        assert_eq!(lca.lca(a, c), a);
        assert_eq!(lca.lca(r, e), r);
        assert_eq!(lca.lca(b, b), b);
        assert_eq!(lca.lca(d, b), r);
    }

    #[test]
    fn lca_of_set_folds() {
        let (_, t, [r, a, _, c, d, e]) = sample();
        let lca = t.lca();
        assert_eq!(lca.lca_of_set(&[c, d]), a);
        assert_eq!(lca.lca_of_set(&[c, d, e]), r);
        assert_eq!(lca.lca_of_set(&[c]), c);
    }

    #[test]
    #[should_panic(expected = "lca of empty set")]
    fn lca_of_empty_set_panics() {
        let (_, t, _) = sample();
        let _ = t.lca().lca_of_set(&[]);
    }

    #[test]
    fn path_between_goes_through_lca() {
        let (_, t, [_, a, _, c, d, _]) = sample();
        let p = t.path_between(c, d);
        assert_eq!(p.nodes(), &[c, a, d]);
        assert_eq!(p.cost(), 7.0);
        let trivial = t.path_between(c, c);
        assert!(trivial.is_empty());
        assert_eq!(trivial.cost(), 0.0);
    }

    #[test]
    fn ancestor_checks() {
        let (_, t, [r, a, b, c, _, e]) = sample();
        assert!(t.is_ancestor(r, c));
        assert!(t.is_ancestor(a, c));
        assert!(t.is_ancestor(c, c));
        assert!(!t.is_ancestor(c, a));
        assert!(!t.is_ancestor(b, c));
        assert!(t.is_ancestor(b, e));
    }

    #[test]
    fn subtrees_and_leaves() {
        let (_, t, [r, a, b, c, d, e]) = sample();
        let mut sub = t.subtree_nodes(a);
        sub.sort_unstable();
        let mut expect = vec![a, c, d];
        expect.sort_unstable();
        assert_eq!(sub, expect);
        let mut leaves = t.leaves();
        leaves.sort_unstable();
        let mut expect = vec![c, d, e];
        expect.sort_unstable();
        assert_eq!(leaves, expect);
        assert_eq!(t.subtree_nodes(r).len(), 6);
        assert_eq!(t.subtree_nodes(b), {
            let mut v = vec![b, e];
            v.sort_unstable();
            v
        });
    }

    #[test]
    fn rejects_cycles_and_disconnection() {
        let mut g = Graph::new();
        let v: Vec<NodeId> = (0..4).map(|_| g.add_node()).collect();
        let e01 = g.add_edge(v[0], v[1], 1.0).unwrap();
        let e12 = g.add_edge(v[1], v[2], 1.0).unwrap();
        let e20 = g.add_edge(v[2], v[0], 1.0).unwrap();
        let e23 = g.add_edge(v[2], v[3], 1.0).unwrap();
        // Cycle: 3 nodes, 3 edges.
        assert!(RootedTree::from_edges(&g, &[e01, e12, e20], v[0]).is_none());
        // Root not incident to the edges.
        assert!(RootedTree::from_edges(&g, &[e12, e23], v[0]).is_none());
    }

    #[test]
    fn single_node_tree() {
        let mut g = Graph::new();
        let r = g.add_node();
        let t = RootedTree::from_edges(&g, &[], r).unwrap();
        assert_eq!(t.node_count(), 1);
        assert_eq!(t.depth(r), Some(0));
        assert!(t.leaves().is_empty());
        assert_eq!(t.lca().lca(r, r), r);
    }

    #[test]
    fn deep_chain_lca() {
        // Chain of 40 nodes exercises multi-level lifting.
        let mut g = Graph::new();
        let v: Vec<NodeId> = (0..40).map(|_| g.add_node()).collect();
        let edges: Vec<EdgeId> = (0..39)
            .map(|i| g.add_edge(v[i], v[i + 1], 1.0).unwrap())
            .collect();
        let t = RootedTree::from_edges(&g, &edges, v[0]).unwrap();
        let lca = t.lca();
        assert_eq!(lca.lca(v[39], v[20]), v[20]);
        assert_eq!(lca.lca(v[39], v[0]), v[0]);
        assert_eq!(t.depth(v[39]), Some(39));
        let p = t.path_between(v[5], v[35]);
        assert_eq!(p.cost(), 30.0);
    }
}
