//! Connected-component labelling — the sequential reference the WCC
//! application kernel is verified against (`dne_apps::wcc_reference`).

use std::collections::VecDeque;

use crate::types::VertexId;
use crate::Graph;

/// Connected-component labels (smallest member id per component).
pub fn component_labels(g: &Graph) -> Vec<VertexId> {
    let n = g.num_vertices() as usize;
    let mut label = vec![VertexId::MAX; n];
    for start in g.vertices() {
        if label[start as usize] != VertexId::MAX {
            continue;
        }
        label[start as usize] = start;
        let mut q = VecDeque::from([start]);
        while let Some(v) = q.pop_front() {
            for &u in g.neighbor_vertices(v) {
                if label[u as usize] == VertexId::MAX {
                    label[u as usize] = start;
                    q.push_back(u);
                }
            }
        }
    }
    label
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
