//! Scaled stand-ins for the paper's real-world datasets (Table 2) and the
//! RMAT families of §7.1.
//!
//! The seven real graphs (Pokec … WebUK, up to 3.7 B edges) are not
//! redistributable inside this repository, so each is replaced by a seeded
//! RMAT graph that preserves the two properties that drive partitioning
//! difficulty (paper §1/§7.2): the **density** `|E|/|V|` (matched to the
//! original within rounding) and the **skew class** (social-network vs
//! web-crawl RMAT parameters). The scale is reduced ~512× so the full
//! benchmark suite runs on one machine; the registry records the original
//! sizes for reporting.

use dne_graph::gen::{rmat_parallel, RmatConfig};
use dne_graph::parallel::default_ingest_threads;
use dne_graph::Graph;

/// Skew class of a stand-in (selects the RMAT parameterization).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Skew {
    /// Friendship-graph skew (moderate head): Pokec, LiveJournal, Orkut,
    /// Friendster.
    Social,
    /// Graph500 default skew: generic power-law.
    Graph500,
    /// Web-crawl skew (heavy head): Flickr, Twitter, WebUK.
    Web,
}

/// One dataset stand-in.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Name of the original dataset it stands in for.
    pub name: &'static str,
    /// RMAT scale of the stand-in (`2^scale` vertices).
    pub scale: u32,
    /// RMAT edge factor of the stand-in (matches the original's |E|/|V|).
    pub edge_factor: u64,
    /// Skew class.
    pub skew: Skew,
    /// Original |V| (for reporting).
    pub paper_vertices: f64,
    /// Original |E| (for reporting).
    pub paper_edges: f64,
}

impl Dataset {
    /// The RMAT configuration of this stand-in at the given scale.
    pub fn config_at(&self, scale: u32) -> RmatConfig {
        let seed = self.name.bytes().fold(0u64, |h, b| h.wrapping_mul(131).wrapping_add(b as u64));
        match self.skew {
            Skew::Social => RmatConfig::social(scale, self.edge_factor, seed),
            Skew::Graph500 => RmatConfig::graph500(scale, self.edge_factor, seed),
            Skew::Web => RmatConfig::web(scale, self.edge_factor, seed),
        }
    }

    /// Generate the stand-in graph (deterministic per dataset — the
    /// parallel generator is byte-identical at every thread count).
    pub fn build(&self) -> Graph {
        rmat_parallel(&self.config_at(self.scale), default_ingest_threads())
    }

    /// A smaller variant for quick mode (two scales down).
    pub fn build_quick(&self) -> Graph {
        let scale = self.scale.saturating_sub(2).max(8);
        rmat_parallel(&self.config_at(scale), default_ingest_threads())
    }

    /// The graph a run in the given mode partitions.
    pub fn build_for(&self, quick: bool) -> Graph {
        if quick {
            self.build_quick()
        } else {
            self.build()
        }
    }
}

/// The seven real-world stand-ins of the paper's Table 2, ordered as the
/// paper orders its figures (Pokec, Flickr, LiveJ., Orkut, Twitter,
/// Friendster, WebUK).
pub const DATASETS: &[Dataset] = &[
    Dataset {
        name: "Pokec",
        scale: 15,
        edge_factor: 19,
        skew: Skew::Social,
        paper_vertices: 1.63e6,
        paper_edges: 30.62e6,
    },
    Dataset {
        name: "Flickr",
        scale: 15,
        edge_factor: 14,
        skew: Skew::Web,
        paper_vertices: 2.30e6,
        paper_edges: 33.14e6,
    },
    Dataset {
        name: "LiveJ",
        scale: 15,
        edge_factor: 14,
        skew: Skew::Social,
        paper_vertices: 4.84e6,
        paper_edges: 68.47e6,
    },
    Dataset {
        name: "Orkut",
        scale: 14,
        edge_factor: 38,
        skew: Skew::Social,
        paper_vertices: 3.07e6,
        paper_edges: 117.18e6,
    },
    Dataset {
        name: "Twitter",
        scale: 15,
        edge_factor: 35,
        skew: Skew::Web,
        paper_vertices: 41.65e6,
        paper_edges: 1.46e9,
    },
    Dataset {
        name: "Friendster",
        scale: 15,
        edge_factor: 27,
        skew: Skew::Social,
        paper_vertices: 65.60e6,
        paper_edges: 1.80e9,
    },
    Dataset {
        name: "WebUK",
        scale: 15,
        edge_factor: 35,
        skew: Skew::Web,
        paper_vertices: 105.15e6,
        paper_edges: 3.72e9,
    },
];

/// Look up a dataset stand-in by (case-insensitive) name.
pub fn dataset(name: &str) -> Option<&'static Dataset> {
    DATASETS.iter().find(|d| d.name.eq_ignore_ascii_case(name))
}

/// The mid-size subset used by Figure 6 and Table 4 (Pokec, Flickr,
/// LiveJ., Orkut — the paper's "middle-scale" graphs).
pub fn midsize() -> Vec<&'static Dataset> {
    ["Pokec", "Flickr", "LiveJ", "Orkut"].iter().map(|n| dataset(n).unwrap()).collect()
}

/// The stand-ins a sweep covers: the mid-size subset in quick mode, all
/// seven in full mode.
pub fn sweep(quick: bool) -> Vec<&'static Dataset> {
    if quick {
        midsize()
    } else {
        DATASETS.iter().collect()
    }
}

/// Road-network stand-ins for Table 6: lattice dimensions sized to the
/// originals' |V| ratio (California 1.96M, Pennsylvania 1.08M, Texas
/// 1.37M vertices — scaled ~256×).
pub fn road_networks(quick: bool) -> Vec<(&'static str, Graph)> {
    let scale = if quick { 2 } else { 1 };
    let grid = |name: &'static str, w: u64, h: u64, seed: u64| {
        (name, dne_graph::gen::road_grid(w / scale, h / scale, 0.72, 0.02, seed))
    };
    vec![
        grid("California", 88, 88, 11),
        grid("Pennsylvania", 66, 66, 22),
        grid("Texas", 74, 74, 33),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_all_seven() {
        assert_eq!(DATASETS.len(), 7);
        assert!(dataset("pokec").is_some());
        assert!(dataset("WEBUK").is_some());
        assert!(dataset("nope").is_none());
    }

    #[test]
    fn stand_ins_preserve_density_ordering() {
        // Orkut (38) is denser than Pokec (19) is denser than Flickr (14),
        // mirroring the originals' |E|/|V| ordering.
        let ef = |n: &str| dataset(n).unwrap().edge_factor;
        assert!(ef("Orkut") > ef("Pokec"));
        assert!(ef("Pokec") > ef("Flickr"));
        // And the stand-in EF tracks the original ratio within rounding.
        for d in DATASETS {
            let orig = d.paper_edges / d.paper_vertices;
            assert!(
                (d.edge_factor as f64 - orig).abs() / orig < 0.25,
                "{}: EF {} vs original ratio {orig:.1}",
                d.name,
                d.edge_factor
            );
        }
    }

    #[test]
    fn quick_build_is_smaller() {
        let d = dataset("Pokec").unwrap();
        let q = d.build_quick();
        assert_eq!(q.num_vertices(), 1 << (d.scale - 2));
        assert!(q.num_edges() > 0);
    }

    #[test]
    fn road_networks_are_non_skewed() {
        for (name, g) in road_networks(true) {
            let s = dne_graph::degree::degree_stats(&g);
            assert!(s.skew < 3.0, "{name} skew {} should be small", s.skew);
        }
    }

    #[test]
    fn stand_ins_are_skewed() {
        let g = dataset("Twitter").unwrap().build_quick();
        let s = dne_graph::degree::degree_stats(&g);
        assert!(s.skew > 10.0, "Twitter stand-in skew {} should be heavy", s.skew);
    }
}
