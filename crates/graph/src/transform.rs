//! Connected-component labelling — the sequential reference the WCC
//! application kernel is verified against (`dne_apps::wcc_reference`).

use crate::types::VertexId;
use crate::Graph;

/// Connected-component labels (smallest member id per component), by
/// union-find over one edge scan — any storage backend, no neighbour lists.
pub fn component_labels(g: &Graph) -> Vec<VertexId> {
    fn find(parent: &mut [VertexId], mut v: VertexId) -> VertexId {
        while parent[v as usize] != v {
            parent[v as usize] = parent[parent[v as usize] as usize]; // path halving
            v = parent[v as usize];
        }
        v
    }
    let mut parent: Vec<VertexId> = g.vertices().collect();
    g.for_each_edge(|_, u, v| {
        let (a, b) = (find(&mut parent, u), find(&mut parent, v));
        // The smaller root wins, so a root is its component's smallest id.
        parent[a.max(b) as usize] = a.min(b);
    });
    // `parent[v] <= v`, so an ascending sweep meets every parent resolved.
    for v in 0..parent.len() {
        parent[v] = parent[parent[v] as usize];
    }
    parent
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{gen, EdgeListBuilder};

    #[test]
    fn component_labels_on_two_components() {
        let g = gen::ring_complete(4); // clique 0..4 + ring 4..10
        let labels = component_labels(&g);
        assert!(labels[0..4].iter().all(|&l| l == 0));
        assert!(labels[4..].iter().all(|&l| l == 4));
    }

    #[test]
    fn isolated_vertices_form_singleton_components() {
        let mut b = EdgeListBuilder::new();
        b.push(0, 1);
        let g = b.into_graph(4); // vertices 2, 3 isolated
        let labels = component_labels(&g);
        assert_eq!(labels, vec![0, 0, 2, 3]);
    }
}
