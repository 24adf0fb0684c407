//! Reference verification of the kernel suite — the machinery behind the
//! `app_suite` integration tests and the `dne-bench apps` subcommand.
//!
//! Every kernel the engine runs has a single-threaded reference
//! implementation on the raw [`Graph`]; this module names the six kernels
//! as data ([`Kernel`]), pairs each with its reference and its
//! **tolerance contract** ([`Tolerance`]), and checks a distributed run
//! against the reference ([`verify_kernel`]).
//!
//! The tolerance contract is the strongest claim each kernel can honestly
//! make:
//!
//! * BFS, SSSP, WCC propagate values drawn from the small-integer subset
//!   of f64 through `min` — every intermediate is exact, so the result
//!   must be **bit-identical** to the reference ([`Tolerance::Exact`]).
//! * Triangles counts in `u64` end to end — bit-identical again.
//! * LCC performs exactly one floating-point operation (the final
//!   division, a shared expression evaluated over exact counts); its
//!   stated bound is [`LCC_ULP_BOUND`] ULPs and the observed distance is
//!   asserted against it (in practice it is 0).
//! * PageRank sums mirror partials in partition order while the reference
//!   sums in vertex order; IEEE-754 addition is not associative, so the
//!   results differ in low-order bits. The stated bound is
//!   [`PAGERANK_ULP_BOUND`] ULPs — a *relative* error of about
//!   `2^-36` — and every run is asserted against it.
//!
//! A ULP (unit in the last place) bound is used instead of an absolute
//! epsilon because it is scale-invariant: PageRank mass on a hub vertex
//! can be orders of magnitude above the mean, where any fixed absolute
//! epsilon silently becomes either vacuous or unsatisfiable.

use dne_graph::{Graph, VertexId};

use crate::apps::{
    bfs_reference, lcc_reference, pagerank_reference, sssp_reference, triangle_total,
    triangles_reference, wcc_reference,
};
use crate::engine::{AppRun, Engine};

/// Stated ULP bound for PageRank vs the sequential reference: the
/// summation-order difference across `supersteps ≤ 100` iterations and
/// test-scale degrees stays far below this (observed maxima are in the
/// hundreds); the bound is asserted on every verified run.
pub const PAGERANK_ULP_BOUND: u64 = 1 << 16;

/// Stated ULP bound for LCC vs the sequential reference. Both sides
/// evaluate the identical expression over exact integer counts, so the
/// observed distance is 0; the stated bound leaves two ULPs of slack for
/// exotic FP environments and is asserted on every verified run.
pub const LCC_ULP_BOUND: u64 = 2;

/// How close a distributed result must be to its reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tolerance {
    /// Bit-identical (`to_bits` equality), including infinities.
    Exact,
    /// At most this many units in the last place, per vertex.
    Ulps(u64),
}

impl std::fmt::Display for Tolerance {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Tolerance::Exact => write!(f, "exact"),
            Tolerance::Ulps(n) => write!(f, "≤{n} ULP"),
        }
    }
}

/// The six benchmark kernels as data: name, parameters, reference, and
/// tolerance contract in one place, so test harnesses and bench binaries
/// iterate the same roster instead of hand-copying it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// Level-synchronous BFS hop counts from a source vertex.
    Bfs {
        /// Source vertex.
        source: VertexId,
    },
    /// Single-source shortest path (unit weights) from a source vertex.
    Sssp {
        /// Source vertex.
        source: VertexId,
    },
    /// Weakly connected components (min-label).
    Wcc,
    /// Fixed-iteration PageRank.
    PageRank {
        /// Synchronous iterations to run.
        iters: u64,
    },
    /// Local clustering coefficient.
    Lcc,
    /// Exact per-vertex + global triangle counting.
    Triangles,
}

impl Kernel {
    /// The full six-kernel suite with default parameters (source 0,
    /// 10 PageRank iterations).
    pub const fn suite() -> [Kernel; 6] {
        [
            Kernel::Bfs { source: 0 },
            Kernel::Sssp { source: 0 },
            Kernel::Wcc,
            Kernel::PageRank { iters: 10 },
            Kernel::Lcc,
            Kernel::Triangles,
        ]
    }

    /// Report name (matches [`AppRun::name`]).
    pub fn name(&self) -> &'static str {
        match self {
            Kernel::Bfs { .. } => "BFS",
            Kernel::Sssp { .. } => "SSSP",
            Kernel::Wcc => "WCC",
            Kernel::PageRank { .. } => "PageRank",
            Kernel::Lcc => "LCC",
            Kernel::Triangles => "Triangles",
        }
    }

    /// The kernel's tolerance contract vs its reference.
    pub fn tolerance(&self) -> Tolerance {
        match self {
            Kernel::Bfs { .. } | Kernel::Sssp { .. } | Kernel::Wcc | Kernel::Triangles => {
                Tolerance::Exact
            }
            Kernel::PageRank { .. } => Tolerance::Ulps(PAGERANK_ULP_BOUND),
            Kernel::Lcc => Tolerance::Ulps(LCC_ULP_BOUND),
        }
    }

    /// Run the distributed kernel on `engine`.
    pub fn run(&self, engine: &Engine<'_>) -> AppRun {
        match *self {
            Kernel::Bfs { source } => engine.bfs(source),
            Kernel::Sssp { source } => engine.sssp(source),
            Kernel::Wcc => engine.wcc(),
            Kernel::PageRank { iters } => engine.pagerank(iters),
            Kernel::Lcc => engine.lcc(),
            Kernel::Triangles => engine.triangles(),
        }
    }

    /// Compute the single-threaded reference on the raw graph (any
    /// storage backend: the references derive the neighbour lists they
    /// walk).
    pub fn reference(&self, g: &Graph) -> Vec<f64> {
        match *self {
            Kernel::Bfs { source } => bfs_reference(g, source),
            Kernel::Sssp { source } => sssp_reference(g, source),
            Kernel::Wcc => wcc_reference(g),
            Kernel::PageRank { iters } => pagerank_reference(g, iters),
            Kernel::Lcc => lcc_reference(g),
            Kernel::Triangles => triangles_reference(g),
        }
    }
}

/// Outcome of one verified kernel run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckReport {
    /// Largest per-vertex ULP distance observed (0 for exact matches).
    pub max_ulps: u64,
    /// Vertex achieving `max_ulps` (`None` when the graph is empty or
    /// everything matched bit-for-bit).
    pub worst_vertex: Option<VertexId>,
}

/// Distance between two doubles in units in the last place, over the
/// monotone total order of IEEE-754 bit patterns: 0 iff bit-identical
/// (infinities included), `u64::MAX` if either is NaN (no kernel produces
/// NaN — any appearance must fail every finite bound).
pub fn ulp_distance(a: f64, b: f64) -> u64 {
    if a.to_bits() == b.to_bits() {
        return 0;
    }
    if a.is_nan() || b.is_nan() {
        return u64::MAX;
    }
    // Map the sign-magnitude bit pattern to a monotone unsigned scale.
    fn key(x: f64) -> u64 {
        let b = x.to_bits();
        if b >> 63 == 1 {
            !b
        } else {
            b | (1 << 63)
        }
    }
    key(a).abs_diff(key(b))
}

/// Compare a run's values to a reference under a tolerance. Returns the
/// observed worst-case distance, or a message naming the first offending
/// vertex.
pub fn check_values(
    name: &str,
    values: &[f64],
    reference: &[f64],
    tol: Tolerance,
) -> Result<CheckReport, String> {
    if values.len() != reference.len() {
        return Err(format!(
            "{name}: {} values vs {} reference entries",
            values.len(),
            reference.len()
        ));
    }
    let bound = match tol {
        Tolerance::Exact => 0,
        Tolerance::Ulps(n) => n,
    };
    let mut report = CheckReport { max_ulps: 0, worst_vertex: None };
    for (v, (&got, &want)) in values.iter().zip(reference).enumerate() {
        let d = ulp_distance(got, want);
        if d > bound {
            return Err(format!(
                "{name}: vertex {v}: {got:?} vs reference {want:?} is {d} ULPs apart \
                 (tolerance {tol})"
            ));
        }
        if d > report.max_ulps {
            report.max_ulps = d;
            report.worst_vertex = Some(v as VertexId);
        }
    }
    Ok(report)
}

/// Run `kernel` on `engine` and verify it against its reference computed
/// on `reference_graph` (the engine may be running over another storage
/// backend of the same graph). For
/// `Triangles`, additionally checks the published global aggregate
/// against the reference total.
pub fn verify_kernel(
    kernel: Kernel,
    engine: &Engine<'_>,
    reference_graph: &Graph,
) -> Result<CheckReport, String> {
    let run = kernel.run(engine);
    let want = kernel.reference(reference_graph);
    let report = check_values(kernel.name(), &run.values, &want, kernel.tolerance())?;
    if kernel == Kernel::Triangles {
        let total = run.aggregate.ok_or("Triangles: missing aggregate")?;
        let want_total = triangle_total(&want);
        if total.to_bits() != want_total.to_bits() {
            return Err(format!("Triangles: global count {total} vs reference {want_total}"));
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dne_graph::gen;
    use dne_partition::hash_based::RandomPartitioner;
    use dne_partition::EdgePartitioner;

    #[test]
    fn ulp_distance_basics() {
        assert_eq!(ulp_distance(1.0, 1.0), 0);
        assert_eq!(ulp_distance(f64::INFINITY, f64::INFINITY), 0);
        assert_eq!(ulp_distance(1.0, f64::from_bits(1.0f64.to_bits() + 1)), 1);
        assert_eq!(ulp_distance(0.0, -0.0), 1); // adjacent on the monotone scale
        assert_eq!(ulp_distance(f64::NAN, 1.0), u64::MAX);
        // Distance grows with the gap and is symmetric.
        let (a, b) = (1.0f64, 1.0f64 + 1e-12);
        assert_eq!(ulp_distance(a, b), ulp_distance(b, a));
        assert!(ulp_distance(a, b) > 1000);
    }

    #[test]
    fn check_values_enforces_bounds() {
        let exact = check_values("t", &[1.0, 2.0], &[1.0, 2.0], Tolerance::Exact).unwrap();
        assert_eq!(exact.max_ulps, 0);
        assert_eq!(exact.worst_vertex, None);
        let off = f64::from_bits(2.0f64.to_bits() + 3);
        assert!(check_values("t", &[1.0, off], &[1.0, 2.0], Tolerance::Exact).is_err());
        let loose = check_values("t", &[1.0, off], &[1.0, 2.0], Tolerance::Ulps(3)).unwrap();
        assert_eq!(loose.max_ulps, 3);
        assert_eq!(loose.worst_vertex, Some(1));
        assert!(check_values("t", &[1.0, off], &[1.0, 2.0], Tolerance::Ulps(2)).is_err());
        assert!(check_values("t", &[1.0], &[1.0, 2.0], Tolerance::Exact).is_err());
    }

    #[test]
    fn suite_roster_verifies_end_to_end() {
        let g = gen::rmat(&gen::RmatConfig::graph500(7, 4, 6));
        let a = RandomPartitioner::new(6).partition(&g, 4);
        let engine = Engine::new(&g, &a);
        assert_eq!(Kernel::suite().len(), 6);
        for kernel in Kernel::suite() {
            let report = verify_kernel(kernel, &engine, &g)
                .unwrap_or_else(|e| panic!("{}: {e}", kernel.name()));
            match kernel.tolerance() {
                Tolerance::Exact => assert_eq!(report.max_ulps, 0),
                Tolerance::Ulps(bound) => assert!(report.max_ulps <= bound),
            }
        }
    }
}
