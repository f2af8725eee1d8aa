//! Subgraph filtering with id translation.
//!
//! The capacitated algorithms repeatedly work on the subgraph of links with
//! enough residual bandwidth; [`FilteredGraph`] owns such a subgraph plus
//! the mappings between its dense ids and the original graph's ids.

use crate::{EdgeId, EdgeRef, Graph, NodeId};

/// A subgraph together with node/edge id mappings back to its parent graph.
#[derive(Debug, Clone)]
pub struct FilteredGraph {
    graph: Graph,
    /// Original node id per filtered node index.
    to_parent_node: Vec<NodeId>,
    /// Filtered node id per original node index (None if dropped).
    from_parent_node: Vec<Option<NodeId>>,
    /// Original edge id per filtered edge index.
    to_parent_edge: Vec<EdgeId>,
}

impl FilteredGraph {
    /// The filtered graph itself.
    #[must_use]
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Maps a filtered node id back to the parent graph.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a node of the filtered graph.
    #[must_use]
    pub fn parent_node(&self, n: NodeId) -> NodeId {
        self.to_parent_node[n.index()]
    }

    /// Maps a parent node id into the filtered graph, if it survived.
    #[must_use]
    pub fn filtered_node(&self, parent: NodeId) -> Option<NodeId> {
        self.from_parent_node.get(parent.index()).copied().flatten()
    }

    /// Maps a filtered edge id back to the parent graph.
    ///
    /// # Panics
    ///
    /// Panics if `e` is not an edge of the filtered graph.
    #[must_use]
    pub fn parent_edge(&self, e: EdgeId) -> EdgeId {
        self.to_parent_edge[e.index()]
    }

    /// Maps a slice of filtered edge ids back to parent edge ids.
    #[must_use]
    pub fn parent_edges(&self, edges: &[EdgeId]) -> Vec<EdgeId> {
        edges.iter().map(|&e| self.parent_edge(e)).collect()
    }
}

/// Builds the subgraph of `g` induced by the nodes passing `keep_node` and
/// the edges passing `keep_edge` (an edge also needs both endpoints kept).
///
/// Edge weights are preserved.
pub fn induced_subgraph(
    g: &Graph,
    keep_node: impl FnMut(NodeId) -> bool,
    keep_edge: impl FnMut(EdgeId) -> bool,
) -> FilteredGraph {
    induced_subgraph_weighted(g, keep_node, keep_edge, |e| e.weight)
}

/// [`induced_subgraph`] with each kept edge re-weighted: the subgraph edge
/// copied from parent edge `e` gets weight `weight(e)` instead of
/// `e.weight`. Building the re-weighted subgraph in one pass spares
/// callers a second copy.
///
/// # Panics
///
/// Panics if `weight` returns a negative, NaN or infinite weight (the
/// [`Graph`] invariant).
pub fn induced_subgraph_weighted(
    g: &Graph,
    mut keep_node: impl FnMut(NodeId) -> bool,
    mut keep_edge: impl FnMut(EdgeId) -> bool,
    mut weight: impl FnMut(&EdgeRef) -> f64,
) -> FilteredGraph {
    let mut graph = Graph::new();
    let mut to_parent_node = Vec::new();
    let mut from_parent_node = vec![None; g.node_count()];
    for n in g.nodes() {
        if keep_node(n) {
            let local = graph.add_node();
            to_parent_node.push(n);
            from_parent_node[n.index()] = Some(local);
        }
    }
    let mut to_parent_edge = Vec::new();
    for e in g.edges() {
        if !keep_edge(e.id) {
            continue;
        }
        let (Some(u), Some(v)) = (from_parent_node[e.u.index()], from_parent_node[e.v.index()])
        else {
            continue;
        };
        graph
            .add_edge(u, v, weight(e))
            .expect("subgraph weights must be finite and non-negative"); // lint:allow(P1): documented panic on an invalid weight from the caller's closure
        to_parent_edge.push(e.id);
    }
    FilteredGraph {
        graph,
        to_parent_node,
        from_parent_node,
        to_parent_edge,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path4() -> (Graph, Vec<NodeId>, Vec<EdgeId>) {
        let mut g = Graph::new();
        let v: Vec<NodeId> = (0..4).map(|_| g.add_node()).collect();
        let e: Vec<EdgeId> = (0..3)
            .map(|i| g.add_edge(v[i], v[i + 1], (i + 1) as f64).unwrap())
            .collect();
        (g, v, e)
    }

    #[test]
    fn keep_everything_is_identity_shaped() {
        let (g, ..) = path4();
        let f = induced_subgraph(&g, |_| true, |_| true);
        assert_eq!(f.graph().node_count(), 4);
        assert_eq!(f.graph().edge_count(), 3);
        for n in f.graph().nodes() {
            assert_eq!(f.parent_node(n).index(), n.index());
        }
    }

    #[test]
    fn dropping_a_node_drops_its_edges() {
        let (g, v, _) = path4();
        let f = induced_subgraph(&g, |n| n != v[1], |_| true);
        assert_eq!(f.graph().node_count(), 3);
        assert_eq!(f.graph().edge_count(), 1); // only v2-v3 survives
        assert_eq!(f.filtered_node(v[1]), None);
        let local2 = f.filtered_node(v[2]).unwrap();
        assert_eq!(f.parent_node(local2), v[2]);
    }

    #[test]
    fn dropping_edges_keeps_nodes() {
        let (g, _, e) = path4();
        let f = induced_subgraph(&g, |_| true, |id| id != e[0]);
        assert_eq!(f.graph().node_count(), 4);
        assert_eq!(f.graph().edge_count(), 2);
        let parents = f.parent_edges(&f.graph().edges().map(|er| er.id).collect::<Vec<_>>());
        assert_eq!(parents, vec![e[1], e[2]]);
    }

    #[test]
    fn weights_preserved() {
        let (g, _, _) = path4();
        let f = induced_subgraph(&g, |_| true, |_| true);
        let ws: Vec<f64> = f.graph().edges().map(|e| e.weight).collect();
        assert_eq!(ws, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn weighted_variant_reweights_kept_edges_in_order() {
        let (g, _, e) = path4();
        let f = induced_subgraph_weighted(&g, |_| true, |id| id != e[1], |er| 10.0 * er.weight);
        let ws: Vec<f64> = f.graph().edges().map(|er| er.weight).collect();
        assert_eq!(ws, vec![10.0, 30.0]);
        let parents = f.parent_edges(&f.graph().edges().map(|er| er.id).collect::<Vec<_>>());
        assert_eq!(parents, vec![e[0], e[2]]);
    }

    #[test]
    fn empty_filter() {
        let (g, ..) = path4();
        let f = induced_subgraph(&g, |_| false, |_| true);
        assert_eq!(f.graph().node_count(), 0);
        assert_eq!(f.graph().edge_count(), 0);
    }
}
