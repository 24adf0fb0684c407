//! The allocation process: distributed edge allocation (Algorithms 2 & 3).
//!
//! Each iteration an allocator receives the selected vertices of every
//! partition and runs the four phases of `EdgeAllocation()`:
//!
//! 1. [`one_hop`] — `AllocteOneHopNeighbors`: allocate the selected
//!    vertices' unallocated local edges to their partitions; conflicts
//!    (several partitions reaching the same edge in one iteration) are
//!    resolved locally, first-claim-wins in deterministic partition order —
//!    the sequential analogue of the paper's CAS resolution.
//! 2. membership sync (driven by the partitioner loop) —
//!    `SyncVertexAllocations`: new `(vertex, partition)` memberships are
//!    exchanged with the vertex's replica processes.
//! 3. [`two_hop`] — `AllocateTwoHopNeighbors`: for each new boundary vertex
//!    `u`, allocate unallocated local edges `e{u,w}` whose endpoints share a
//!    partition (`Parti(u) ∩ Parti(w) ≠ ∅`, Condition 5) to the member
//!    partition with the fewest locally allocated edges (`SubG.NumEdges`).
//! 4. [`local_drest`] — `ComputeLocalDrest`: this allocator's contribution
//!    to each new boundary vertex's `D_rest` score.

use dne_graph::VertexId;

use crate::dist::AllocatorPart;
use crate::messages::Part;

/// A selection request from one expansion process.
#[derive(Debug, Clone)]
pub struct SelectRequest {
    /// The requesting partition (== source rank).
    pub part: Part,
    /// Boundary vertices to expand (global ids).
    pub vertices: Vec<VertexId>,
    /// If non-zero, this allocator should additionally expand one random
    /// free local vertex on the partition's behalf whose remaining degree
    /// fits this budget (the partition's remaining capacity).
    pub random_budget: u64,
}

/// Output of the one-hop phase.
#[derive(Debug, Default)]
pub struct OneHopOutput {
    /// New `(local vertex, partition)` memberships created locally
    /// (`BP_local_new`) — to be synchronized with the vertex replicas.
    pub new_memberships: Vec<(u32, Part)>,
    /// Edges allocated in this phase, as `(local edge slot, partition)`.
    pub allocated: Vec<(u32, Part)>,
}

/// Phase 1: allocate one-hop neighbors of the selected vertices
/// (Algorithm 3, `AllocteOneHopNeighbors`).
///
/// Requests must arrive sorted by partition id; vertices are processed in
/// the order their expansion process popped them — together with the
/// lock-step exchange this makes allocation fully deterministic.
pub fn one_hop(part: &mut AllocatorPart, requests: &[SelectRequest]) -> OneHopOutput {
    let mut out = OneHopOutput::default();
    for req in requests {
        let p = req.part;
        // Random-restart expansion on behalf of partition p (Algorithm 1
        // line 7 executed allocator-side; the part's seeded shuffled scan
        // order provides the randomness, the budget keeps the pick within
        // the partition's remaining capacity).
        let random_pick = if req.random_budget > 0 {
            part.random_free_vertex_within(req.random_budget)
        } else {
            None
        };
        let selected = req
            .vertices
            .iter()
            .filter_map(|&v| part.local_of(v))
            .chain(random_pick)
            .collect::<Vec<_>>();
        for lv in selected {
            let mut touched_any = false;
            // Claim every still-free local edge of lv for p.
            for pos in part.free_slots(lv) {
                let (nbr, le) = part.slot(pos);
                if !part.claim_edge(le, p) {
                    continue; // lost to an earlier partition this iteration
                }
                touched_any = true;
                part.consume_rest(lv, nbr);
                out.allocated.push((le, p));
                if part.add_membership(nbr, p) {
                    out.new_memberships.push((nbr, p));
                }
            }
            // The expanded vertex itself is (now) a member of V(E_p): for a
            // boundary vertex this membership already exists from its join;
            // for a random-restart vertex it is created here and must sync.
            if touched_any && part.add_membership(lv, p) {
                out.new_memberships.push((lv, p));
            }
        }
    }
    out
}

/// Phase 3: allocate two-hop neighbor edges that satisfy Condition 5
/// (Algorithm 3, `AllocateTwoHopNeighbors`).
///
/// `bp_new` must be the deduplicated, sorted list of this iteration's new
/// `(local vertex, partition)` memberships at this allocator (own one-hop
/// discoveries plus synced remote ones). A vertex that joined several
/// partitions is scanned once: memberships do not change inside this phase
/// and budgets only shrink, so a second scan could claim nothing.
/// `global_sizes` is the previous iteration's all-gathered `|E_p|` vector,
/// `limit` the `α·|E|/|P|` capacity and `one_hop` what [`one_hop`] allocated
/// here this iteration. Each partition's remaining capacity is split fairly
/// across the `nprocs` allocators for this iteration, so the closure
/// avalanche of a dense region cannot blow a partition past its limit
/// between two size gathers — total two-hop growth per partition per
/// iteration is bounded by `remaining + nprocs` (Equation 2's constraint).
/// Returns `(local edge slot, partition)` allocations.
pub fn two_hop(
    part: &mut AllocatorPart,
    bp_new: &[(u32, Part)],
    global_sizes: &[u64],
    limit: u64,
    nprocs: u64,
    rank: u64,
    one_hop: &[(u32, Part)],
) -> Vec<(u32, Part)> {
    // Per-allocator budget for this iteration: an *exact* split of the
    // remaining capacity (allocators with rank below the remainder take
    // one extra), minus what the one-hop phase already added to the
    // partition at this allocator in the same iteration (the gathered
    // sizes are one iteration stale). Summed over allocators the two-hop
    // growth per partition per iteration never exceeds the remaining
    // capacity — Equation 2's constraint with one iteration of staleness.
    let np = nprocs.max(1);
    let mut budget: Vec<u64> = global_sizes
        .iter()
        .map(|&s| {
            let remaining = limit.saturating_sub(s);
            remaining / np + u64::from(rank < remaining % np)
        })
        .collect();
    for &(_, p) in one_hop {
        budget[p as usize] = budget[p as usize].saturating_sub(1);
    }
    let mut out = Vec::new();
    let mut scanned = None;
    for &(lu, _) in bp_new {
        if scanned.replace(lu) == Some(lu) {
            continue;
        }
        for pos in part.free_slots(lu) {
            let (lw, le) = part.slot(pos);
            // P_new = Parti(u) ∩ Parti(w), minus budget-exhausted parts.
            let pu = part.memberships(lu);
            let pw = part.memberships(lw);
            let mut pnew: Option<Part> = None;
            let mut best = u64::MAX;
            let (mut i, mut j) = (0, 0);
            while i < pu.len() && j < pw.len() {
                match pu[i].cmp(&pw[j]) {
                    std::cmp::Ordering::Less => i += 1,
                    std::cmp::Ordering::Greater => j += 1,
                    std::cmp::Ordering::Equal => {
                        let x = pu[i];
                        let load = part.part_edges[x as usize];
                        // argmin_{x ∈ P_new} SubG.NumEdges(x), ties by id,
                        // skipping partitions whose share is spent.
                        if budget[x as usize] > 0 && load < best {
                            best = load;
                            pnew = Some(x);
                        }
                        i += 1;
                        j += 1;
                    }
                }
            }
            if let Some(px) = pnew {
                if part.claim_edge(le, px) {
                    part.consume_rest(lu, lw);
                    budget[px as usize] -= 1;
                    out.push((le, px));
                }
            }
        }
    }
    out
}

/// Phase 4: this allocator's local `D_rest` contribution for each new
/// boundary vertex (Algorithm 2, `ComputeLocalDrest`). Run *after*
/// [`two_hop`] so the score reflects this iteration's allocations.
pub fn local_drest(part: &AllocatorPart, bp_new: &[(u32, Part)]) -> Vec<(VertexId, Part, u64)> {
    bp_new.iter().map(|&(lv, p)| (part.global_id(lv), p, part.rest[lv as usize] as u64)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{Grid2D, FREE};
    use dne_graph::gen;

    fn single_allocator(g: &dne_graph::Graph, k: usize) -> AllocatorPart {
        let grid = Grid2D::new(1, 1);
        let mut part = AllocatorPart::build(g, &grid, 0, 1);
        part.ensure_parts(k);
        part
    }

    #[test]
    fn one_hop_allocates_star_center() {
        let g = gen::star(5);
        let mut part = single_allocator(&g, 2);
        let req = vec![SelectRequest { part: 0, vertices: vec![0], random_budget: 0 }];
        let out = one_hop(&mut part, &req);
        assert_eq!(out.allocated.len(), 4, "all hub edges claimed");
        // Memberships: hub + 4 spokes.
        assert_eq!(out.new_memberships.len(), 5);
        assert_eq!(part.free_edges, 0);
    }

    #[test]
    fn one_hop_conflict_first_partition_wins() {
        // Path 0-1-2: both partitions select vertex 1 simultaneously.
        let g = gen::path(3);
        let mut part = single_allocator(&g, 2);
        let reqs = vec![
            SelectRequest { part: 0, vertices: vec![1], random_budget: 0 },
            SelectRequest { part: 1, vertices: vec![1], random_budget: 0 },
        ];
        let out = one_hop(&mut part, &reqs);
        // Partition 0 claims both edges; partition 1 gets nothing.
        assert!(out.allocated.iter().all(|&(_, p)| p == 0));
        assert_eq!(out.allocated.len(), 2);
    }

    #[test]
    fn one_hop_random_restart_picks_free_vertex() {
        let g = gen::cycle(6);
        let mut part = single_allocator(&g, 1);
        let req = vec![SelectRequest { part: 0, vertices: vec![], random_budget: u64::MAX }];
        let out = one_hop(&mut part, &req);
        assert_eq!(out.allocated.len(), 2, "a cycle vertex has exactly 2 edges");
    }

    #[test]
    fn two_hop_closes_triangles() {
        // Triangle 0-1-2: expanding 0 allocates (0,1),(0,2); edge (1,2) has
        // both endpoints in V(E_0) → two-hop must take it.
        let g = gen::complete(3);
        let mut part = single_allocator(&g, 1);
        let req = vec![SelectRequest { part: 0, vertices: vec![0], random_budget: 0 }];
        let out = one_hop(&mut part, &req);
        assert_eq!(out.allocated.len(), 2);
        let mut bp = out.new_memberships.clone();
        bp.sort_unstable();
        bp.dedup();
        let two = two_hop(&mut part, &bp, &[0, 0], u64::MAX, 1, 0, &[]);
        assert_eq!(two.len(), 1, "the closing edge (1,2)");
        assert_eq!(part.free_edges, 0);
    }

    #[test]
    fn two_hop_requires_shared_partition() {
        // Path 0-1-2: expand 0 for p0 → membership {0,1}. Edge (1,2) has
        // endpoint 2 in no partition → two-hop must NOT take it.
        let g = gen::path(3);
        let mut part = single_allocator(&g, 2);
        let req = vec![SelectRequest { part: 0, vertices: vec![0], random_budget: 0 }];
        let out = one_hop(&mut part, &req);
        let mut bp = out.new_memberships.clone();
        bp.sort_unstable();
        let two = two_hop(&mut part, &bp, &[0, 0], u64::MAX, 1, 0, &[]);
        assert!(two.is_empty());
        assert_eq!(part.free_edges, 1);
    }

    #[test]
    fn two_hop_prefers_least_loaded_partition() {
        // Square 0-1-2-3-0. p0 expands 0 (gets edges 0-1, 0-3);
        // p1 gets nothing. Then 1 and 3 join p1 artificially with p1 lighter
        // … simpler: make both memberships and check argmin choice.
        let g = gen::cycle(4);
        let mut part = single_allocator(&g, 2);
        let req = vec![SelectRequest { part: 0, vertices: vec![0], random_budget: 0 }];
        let _ = one_hop(&mut part, &req);
        // Vertices 1 and 2 also members of partition 1 (lighter: 0 edges).
        let l1 = part.local_of(1).unwrap();
        let l2 = part.local_of(2).unwrap();
        part.add_membership(l1, 1);
        part.add_membership(l2, 1);
        let bp = vec![(l1, 1), (l2, 1)];
        let two = two_hop(&mut part, &bp, &[0, 0], u64::MAX, 1, 0, &[]);
        // Edge (1,2): P_new = {1} (only shared partition of both). Edge
        // (2,3): 3 has no membership → skipped.
        assert_eq!(two.len(), 1);
        assert_eq!(two[0].1, 1);
    }

    #[test]
    fn local_drest_reports_post_allocation_scores() {
        let g = gen::path(4); // 0-1-2-3
        let mut part = single_allocator(&g, 1);
        let req = vec![SelectRequest { part: 0, vertices: vec![0], random_budget: 0 }];
        let out = one_hop(&mut part, &req);
        let mut bp = out.new_memberships.clone();
        bp.sort_unstable();
        let scores = local_drest(&part, &bp);
        // Vertex 1 has one remaining edge (1,2); vertex 0 has none.
        let get = |v: u64| scores.iter().find(|&&(x, _, _)| x == v).unwrap().2;
        assert_eq!(get(0), 0);
        assert_eq!(get(1), 1);
    }

    /// [`one_hop`] as it was before `AllocatorPart::free_slots`: a scan of
    /// the vertex's whole adjacency range, filtered and collected.
    fn one_hop_full_scan(part: &mut AllocatorPart, requests: &[SelectRequest]) -> OneHopOutput {
        let mut out = OneHopOutput::default();
        for req in requests {
            let p = req.part;
            let random_pick = if req.random_budget > 0 {
                part.random_free_vertex_within(req.random_budget)
            } else {
                None
            };
            let selected = req
                .vertices
                .iter()
                .filter_map(|&v| part.local_of(v))
                .chain(random_pick)
                .collect::<Vec<_>>();
            for lv in selected {
                let mut touched_any = false;
                let slots: Vec<(u32, u32)> = part
                    .neighbors(lv)
                    .filter(|&(_, le)| part.edge_part[le as usize] == FREE)
                    .collect();
                for (nbr, le) in slots {
                    if !part.claim_edge(le, p) {
                        continue;
                    }
                    touched_any = true;
                    part.consume_rest(lv, nbr);
                    out.allocated.push((le, p));
                    if part.add_membership(nbr, p) {
                        out.new_memberships.push((nbr, p));
                    }
                }
                if touched_any && part.add_membership(lv, p) {
                    out.new_memberships.push((lv, p));
                }
            }
        }
        out
    }

    /// [`two_hop`] as it was: every `bp_new` entry scans its vertex's whole
    /// range again, repeated vertices included.
    fn two_hop_full_scan(
        part: &mut AllocatorPart,
        bp_new: &[(u32, Part)],
        global_sizes: &[u64],
        limit: u64,
        nprocs: u64,
        rank: u64,
        one_hop: &[(u32, Part)],
    ) -> Vec<(u32, Part)> {
        let mut one_hop_local = vec![0u64; global_sizes.len()];
        for &(_, p) in one_hop {
            one_hop_local[p as usize] += 1;
        }
        let np = nprocs.max(1);
        let mut budget: Vec<u64> = global_sizes
            .iter()
            .zip(one_hop_local.iter())
            .map(|(&s, &oh)| {
                let remaining = limit.saturating_sub(s);
                let share = remaining / np + u64::from(rank < remaining % np);
                share.saturating_sub(oh)
            })
            .collect();
        let mut out = Vec::new();
        for &(lu, _) in bp_new {
            let slots: Vec<(u32, u32)> =
                part.neighbors(lu).filter(|&(_, le)| part.edge_part[le as usize] == FREE).collect();
            for (lw, le) in slots {
                let pu = part.memberships(lu);
                let pw = part.memberships(lw);
                let mut pnew: Option<Part> = None;
                let mut best = u64::MAX;
                let (mut i, mut j) = (0, 0);
                while i < pu.len() && j < pw.len() {
                    match pu[i].cmp(&pw[j]) {
                        std::cmp::Ordering::Less => i += 1,
                        std::cmp::Ordering::Greater => j += 1,
                        std::cmp::Ordering::Equal => {
                            let x = pu[i];
                            let load = part.part_edges[x as usize];
                            if budget[x as usize] > 0 && load < best {
                                best = load;
                                pnew = Some(x);
                            }
                            i += 1;
                            j += 1;
                        }
                    }
                }
                if let Some(px) = pnew {
                    if part.claim_edge(le, px) {
                        part.consume_rest(lu, lw);
                        budget[px as usize] -= 1;
                        out.push((le, px));
                    }
                }
            }
        }
        out
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        const K: usize = 3;

        /// Everything a later phase or a checkpoint reads off the allocator.
        type Observed = (Vec<Part>, Vec<u32>, Vec<u64>, u64, Vec<Vec<Part>>);

        fn observe(part: &AllocatorPart) -> Observed {
            let (edge_part, rest) = (part.edge_part.clone(), part.rest.clone());
            (edge_part, rest, part.part_edges.clone(), part.free_edges, part.vparts())
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]

            /// Rounds of one-hop then two-hop on a random graph, once
            /// through the `rest`-bounded compacting scan and once through
            /// the full-range reference: requests name random vertices
            /// (repeats and absent ids included) and random restarts,
            /// `bp_new` is the one-hop discoveries plus random "synced"
            /// memberships (so vertices repeat under several partitions),
            /// and the capacity is small enough that budgets run out. Both
            /// sides return the same allocations and memberships and leave
            /// the same allocator behind after every call.
            #[test]
            fn bounded_scan_is_bit_identical_to_the_full_scan(
                graph in (0u64..1_000, 4u32..7),
                limit in 4u64..60,
                rounds in prop::collection::vec(
                    (
                        prop::collection::vec((0u32..K as u32, 0u64..80, 0u64..6), 0..6),
                        prop::collection::vec((0u32..64, 0u32..K as u32), 0..10),
                        prop::collection::vec(0u64..40, K..K + 1),
                    ),
                    1..8,
                ),
            ) {
                let g = gen::rmat(&gen::RmatConfig::graph500(graph.1, 4, graph.0));
                let mut part = single_allocator(&g, K);
                let mut reference = single_allocator(&g, K);
                let n = part.num_local_vertices() as u32;
                for (picks, synced, global_sizes) in rounds {
                    let mut requests: Vec<SelectRequest> = (0..K as Part)
                        .map(|part| SelectRequest { part, vertices: vec![], random_budget: 0 })
                        .collect();
                    for (p, v, random_budget) in picks {
                        requests[p as usize].vertices.push(v);
                        requests[p as usize].random_budget = random_budget;
                    }
                    let one = one_hop(&mut part, &requests);
                    let one_ref = one_hop_full_scan(&mut reference, &requests);
                    prop_assert_eq!(&one.allocated, &one_ref.allocated);
                    prop_assert_eq!(&one.new_memberships, &one_ref.new_memberships);
                    prop_assert_eq!(observe(&part), observe(&reference));

                    let mut bp_new = one.new_memberships;
                    for (x, p) in synced {
                        let lv = x % n;
                        if part.add_membership(lv, p) {
                            prop_assert!(reference.add_membership(lv, p));
                            bp_new.push((lv, p));
                        }
                    }
                    bp_new.sort_unstable();
                    bp_new.dedup();
                    let two = two_hop(&mut part, &bp_new, &global_sizes, limit, 2, 1, &one.allocated);
                    let two_ref = two_hop_full_scan(
                        &mut reference, &bp_new, &global_sizes, limit, 2, 1, &one.allocated,
                    );
                    prop_assert_eq!(two, two_ref);
                    prop_assert_eq!(observe(&part), observe(&reference));
                    prop_assert_eq!(local_drest(&part, &bp_new), local_drest(&reference, &bp_new));
                }
            }
        }
    }
}
