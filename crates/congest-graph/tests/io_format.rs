//! Property-based tests of the binary on-disk graph format: build → write →
//! mmap-open round-trips bit-exactly, digests survive the trip, and every
//! way a file can be mangled surfaces as a typed [`GraphIoError`] — never a
//! panic.

use congest_graph::io::{read_header, write_graph};
use congest_graph::{generators, sweep, GraphIoError, StorageKind, WeightedGraph};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn arb_graph() -> impl Strategy<Value = WeightedGraph> {
    (2usize..24, any::<u64>(), 1u64..1000).prop_map(|(n, seed, w)| {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        generators::erdos_renyi_connected(n, 0.3, w, &mut rng)
    })
}

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("wdrg-io-prop-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create tmp dir");
    dir.join(name)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// write → open_mmap round-trips the graph exactly: same CSR content
    /// (graph equality compares the three arrays), same digest as the
    /// header records, and identical sweep results from the mapped view.
    #[test]
    fn round_trip_is_exact(g in arb_graph()) {
        let path = tmp("prop-roundtrip.wdrg");
        write_graph(&g, &path).unwrap();

        let mapped = WeightedGraph::open_mmap(&path).unwrap();
        prop_assert_eq!(&mapped, &g);
        prop_assert_eq!(mapped.n(), g.n());
        prop_assert_eq!(mapped.m(), g.m());
        prop_assert_eq!(mapped.max_weight(), g.max_weight());

        // Digest: header value == O(1) digest() == O(m) recompute == owned.
        let header = read_header(&path).unwrap();
        prop_assert_eq!(header.digest, g.digest().0);
        prop_assert_eq!(mapped.digest(), g.digest());
        prop_assert_eq!(mapped.recompute_digest(), g.digest());

        // The verified open path accepts its own writer's output.
        let verified = WeightedGraph::open_mmap_verified(&path).unwrap();
        prop_assert_eq!(&verified, &g);

        // Kernels can't tell the storage kinds apart.
        let from_mapped = sweep::extremes(&mapped);
        let from_owned = sweep::extremes(&g);
        prop_assert_eq!(from_mapped, from_owned);
    }

    /// Flipping any single byte of the payload makes the *verified* open
    /// fail with a digest mismatch (plain `open_mmap` stays O(header) and
    /// is allowed to trust it), unless the flip lands in the header, where
    /// a typed header error is also acceptable.
    #[test]
    fn corrupted_byte_is_detected(g in arb_graph(), pos_seed in any::<u64>()) {
        let path = tmp("prop-corrupt.wdrg");
        write_graph(&g, &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let pos = (pos_seed % bytes.len() as u64) as usize;
        bytes[pos] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();

        match WeightedGraph::open_mmap_verified(&path) {
            Ok(reopened) => {
                // The flip must have produced a *different but valid* file
                // (e.g. a weight byte that still round-trips); it can never
                // silently reproduce the original graph.
                prop_assert_ne!(reopened, g);
            }
            Err(
                GraphIoError::DigestMismatch { .. }
                | GraphIoError::BadMagic { .. }
                | GraphIoError::UnsupportedVersion { .. }
                | GraphIoError::HeaderCorrupt { .. }
                | GraphIoError::Truncated { .. },
            ) => {}
            Err(other) => prop_assert!(false, "unexpected error {other:?}"),
        }
    }

    /// Truncating the file anywhere yields a typed error, never a panic or
    /// an out-of-bounds read.
    #[test]
    fn truncation_is_typed(g in arb_graph(), cut_seed in any::<u64>()) {
        let path = tmp("prop-trunc.wdrg");
        write_graph(&g, &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let cut = (cut_seed % bytes.len() as u64) as usize;
        std::fs::write(&path, &bytes[..cut]).unwrap();
        let err = WeightedGraph::open_mmap(&path).unwrap_err();
        prop_assert!(
            matches!(err, GraphIoError::Truncated { .. }),
            "cut at {cut}/{} gave {err:?}",
            bytes.len()
        );
    }
}

#[test]
fn mapped_graph_reports_its_storage_kind() {
    let g = generators::grid(5, 6, 3);
    let path = tmp("storage-kind.wdrg");
    write_graph(&g, &path).unwrap();
    let mapped = WeightedGraph::open_mmap(&path).unwrap();
    assert_eq!(mapped.storage_kind(), StorageKind::Mapped);
    assert_eq!(g.storage_kind(), StorageKind::Owned);
    // Clones of a mapped graph share the mapping (Arc), still compare equal.
    let clone = mapped.clone();
    assert_eq!(clone, mapped);
    assert_eq!(clone.storage_kind(), StorageKind::Mapped);
}

#[test]
fn appended_garbage_is_rejected() {
    let g = generators::path(9, 2);
    let path = tmp("overlong.wdrg");
    write_graph(&g, &path).unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    bytes.extend_from_slice(&[0u8; 24]);
    std::fs::write(&path, &bytes).unwrap();
    let err = WeightedGraph::open_mmap(&path).unwrap_err();
    assert!(matches!(err, GraphIoError::Truncated { .. }), "got {err:?}");
}

/// Rewriting a path that a live mapping reads replaces the file instead of
/// truncating the mapped inode: the old mapping still sees the old graph,
/// and a fresh open sees the new one.
#[test]
fn rewrite_leaves_live_mapping_intact() {
    let a = generators::grid(4, 5, 3);
    let b = generators::grid(9, 11, 7);
    let path = tmp("rewrite.wdrg");
    write_graph(&a, &path).unwrap();
    let old = WeightedGraph::open_mmap(&path).unwrap();
    assert_eq!(old.storage_kind(), StorageKind::Mapped);
    write_graph(&b, &path).unwrap();
    assert_eq!(old, a, "the live mapping must keep reading graph A");
    assert_eq!(old.digest(), a.digest());
    assert_eq!(WeightedGraph::open_mmap(&path).unwrap(), b);
}
