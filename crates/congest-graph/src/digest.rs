//! Stable content digests of graphs.
//!
//! [`GraphDigest`] is a 64-bit FNV-1a hash over a graph's *canonical* form:
//! the node count followed by the deduplicated CSR-ordered edge list
//! (`u < v`, sorted by `(u, v)`, parallel edges merged to the minimum
//! weight) that [`crate::GraphBuilder::build`] produces. Because the
//! canonicalization is insertion-order independent, any two builds of the
//! same logical graph — whatever order the edges were added in, however
//! parallel edges were supplied — hash identically (pinned by a proptest in
//! `tests/properties.rs`).
//!
//! The digest is the graph identity behind batch grouping, the `.wdrg`
//! file header and ablation provenance.
//!
//! # Examples
//!
//! ```
//! use congest_graph::WeightedGraph;
//! let a = WeightedGraph::from_edges(3, [(0, 1, 2), (1, 2, 3)]).unwrap();
//! let b = WeightedGraph::from_edges(3, [(2, 1, 3), (1, 0, 2), (0, 1, 9)]).unwrap();
//! assert_eq!(a.digest(), b.digest()); // order + parallel-edge insensitive
//! assert_eq!(a.digest().to_hex().len(), 16);
//! ```

use crate::graph::WeightedGraph;
use std::fmt;
use wdr_metrics::util::Fnv1a;

/// A stable 64-bit content hash of a [`WeightedGraph`].
///
/// Equal digests mean byte-identical canonical edge lists; the `Display`
/// form is fixed-width 16-digit lowercase hex.
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct GraphDigest(pub u64);

impl GraphDigest {
    /// The digest as fixed-width lowercase hex (16 digits).
    pub fn to_hex(self) -> String {
        format!("{self}")
    }
}

impl fmt::Display for GraphDigest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

impl WeightedGraph {
    /// The stable FNV-1a content digest of this graph.
    ///
    /// For memory-mapped graphs this returns the digest recorded in the
    /// file header in `O(1)` (the writer computed it from the same
    /// canonical form); otherwise it streams the content in `O(m)`. Use
    /// [`WeightedGraph::recompute_digest`] to force the streaming path —
    /// e.g. [`crate::io`]'s verified open compares the two.
    pub fn digest(&self) -> GraphDigest {
        match self.mapped() {
            Some(m) => GraphDigest(m.header().digest),
            None => self.recompute_digest(),
        }
    }

    /// The digest recomputed from the CSR content, ignoring any cached
    /// header value: streams `n` and every canonical edge triple through
    /// the hash without allocating; `O(m)` time.
    pub fn recompute_digest(&self) -> GraphDigest {
        let mut hash = Fnv1a::new();
        hash.write_u64(self.n() as u64);
        for e in self.edges() {
            hash.write_u64(e.u as u64);
            hash.write_u64(e.v as u64);
            hash.write_u64(e.w);
        }
        GraphDigest(hash.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn digest_is_deterministic_and_distinguishes_graphs() {
        let a = generators::path(6, 2);
        let b = generators::path(6, 2);
        assert_eq!(a.digest(), b.digest());
        // Different weight → different digest.
        let c = generators::path(6, 3);
        assert_ne!(a.digest(), c.digest());
        // Different topology, same node count → different digest.
        let d = generators::cycle(6, 2);
        assert_ne!(a.digest(), d.digest());
        // Extra isolated node changes the digest even with equal edges.
        let e = WeightedGraph::from_edges(7, a.edges().map(|e| (e.u, e.v, e.w))).unwrap();
        assert_ne!(a.digest(), e.digest());
    }

    #[test]
    fn hex_form_is_fixed_width() {
        let g = WeightedGraph::from_edges(2, [(0, 1, 1)]).unwrap();
        let hex = g.digest().to_hex();
        assert_eq!(hex.len(), 16);
        assert!(hex.chars().all(|c| c.is_ascii_hexdigit()));
        assert_eq!(format!("{}", g.digest()), hex);
    }

    #[test]
    fn digest_matches_reference_value() {
        let g =
            WeightedGraph::from_edges(4, [(0, 1, 3), (1, 2, 5), (2, 3, 7), (0, 3, 11)]).unwrap();
        assert_eq!(g.digest().to_hex(), "78b0f6c36a042e2b");
        assert_eq!(generators::path(6, 2).digest().to_hex(), "7d658f474121a4a4");
    }

    #[test]
    fn empty_graph_digest_is_stable() {
        let a = WeightedGraph::from_edges(0, []).unwrap();
        let b = WeightedGraph::from_edges(0, []).unwrap();
        assert_eq!(a.digest(), b.digest());
    }
}
