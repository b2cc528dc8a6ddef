//! Versioned binary on-disk graph format with zero-copy mmap loading.
//!
//! The format (`WDRG`, version 1) lays a [`WeightedGraph`]'s CSR arrays out
//! flat so a graph file can be memory-mapped and used *in place* — load time
//! is `O(header)`, not `O(m)`:
//!
//! ```text
//! offset  size  field
//! ──────  ────  ─────────────────────────────────────────────
//!      0     8  magic  b"WDRGRAPH"
//!      8     4  format version (u32 LE) = 1
//!     12     4  endian marker (u32 LE) = 0x0A0B_0C0D
//!     16     8  n            (u64 LE)  node count
//!     24     8  m            (u64 LE)  undirected edge count
//!     32     8  max_weight   (u64 LE)  W = max_e w(e)
//!     40     8  digest       (u64 LE)  order-invariant GraphDigest
//!     48     8  entries      (u64 LE)  = 2m  (directed CSR entries)
//!     56     8  reserved     (u64 LE)  = 0
//!     64     …  offsets  (n+1) × u64 LE
//!      …     …  targets  entries × u64 LE
//!      …     …  weights  entries × u64 LE
//! ```
//!
//! Every section is 8-byte aligned (the header is exactly 64 bytes and each
//! array entry is 8 bytes), so on little-endian 64-bit targets the mapped
//! bytes are reinterpreted directly as the `&[usize]` / `&[u64]` slices the
//! kernels traverse. On other targets [`WeightedGraph::open_mmap`] silently
//! falls back to an owned `O(m)` read — results are identical, only the
//! zero-copy speedup is lost.
//!
//! # Safety invariants of the mapped path
//!
//! * The mapping is `PROT_READ`/`MAP_PRIVATE`: the arrays are never written
//!   through, and other processes' writes are not observed as tearing.
//! * Array starts are 8-aligned: `mmap` returns page-aligned bases and all
//!   section offsets are multiples of 8, so the `&[u64]` reinterpretation
//!   never reads misaligned.
//! * [`open_mmap`](WeightedGraph::open_mmap) validates the header and the
//!   exact file length before any slice is formed, so mapped slices never
//!   extend past the file. Truncating the file *while it is mapped* is
//!   undefined behavior at the OS level (SIGBUS); treat graph files as
//!   immutable once written, which [`write_graph`] guarantees by writing
//!   them in one pass.
//! * Header corruption is caught by typed errors; *content* corruption
//!   (e.g. a flipped target index) is detectable via
//!   [`WeightedGraph::open_mmap_verified`], which recomputes the digest
//!   in `O(m)`.
//!
//! # Examples
//!
//! ```
//! use congest_graph::{generators, io, WeightedGraph};
//! let dir = std::env::temp_dir().join("wdrg-doctest");
//! std::fs::create_dir_all(&dir).unwrap();
//! let path = dir.join("path6.wdrg");
//! let g = generators::path(6, 2);
//! io::write_graph(&g, &path).unwrap();
//! let m = WeightedGraph::open_mmap(&path).unwrap();
//! assert_eq!(m, g);
//! assert_eq!(m.digest(), g.digest());
//! ```

use std::fmt;
use std::fs::File;
use std::io::{BufWriter, Read, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::graph::{BuildGraphError, NodeId, Weight, WeightedGraph};

/// The 8-byte magic at offset 0 of every graph file.
pub const MAGIC: [u8; 8] = *b"WDRGRAPH";

/// The format version this build writes and accepts.
pub const FORMAT_VERSION: u32 = 1;

/// Marker pinning the file's byte order (always written little-endian).
const ENDIAN_MARKER: u32 = 0x0A0B_0C0D;

/// Fixed header size; the CSR sections start here (8-byte aligned).
pub const HEADER_BYTES: usize = 64;

/// Errors from reading or writing the binary graph format.
///
/// Every malformed input maps to a typed variant — no code path panics on
/// corrupted or truncated files (pinned by `tests/io_format.rs`).
#[derive(Debug)]
pub enum GraphIoError {
    /// Underlying filesystem error.
    Io(std::io::Error),
    /// The file does not start with [`MAGIC`].
    BadMagic {
        /// The first 8 bytes actually found.
        found: [u8; 8],
    },
    /// The file's format version is not [`FORMAT_VERSION`].
    UnsupportedVersion {
        /// The version field actually found.
        found: u32,
    },
    /// The file is shorter than its header claims.
    Truncated {
        /// Bytes the header implies the file must hold.
        expected: u64,
        /// Bytes actually present.
        found: u64,
    },
    /// A header field or structural payload invariant is inconsistent.
    HeaderCorrupt {
        /// Which invariant failed.
        what: &'static str,
    },
    /// The recomputed content digest does not match the header digest.
    DigestMismatch {
        /// Digest stored in the header.
        header: u64,
        /// Digest recomputed from the CSR content.
        computed: u64,
    },
}

impl fmt::Display for GraphIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphIoError::Io(e) => write!(f, "graph file i/o error: {e}"),
            GraphIoError::BadMagic { found } => {
                write!(f, "not a WDRG graph file (magic {found:02x?})")
            }
            GraphIoError::UnsupportedVersion { found } => {
                write!(
                    f,
                    "unsupported graph format version {found} (expected {FORMAT_VERSION})"
                )
            }
            GraphIoError::Truncated { expected, found } => {
                write!(
                    f,
                    "graph file truncated: header implies {expected} bytes, found {found}"
                )
            }
            GraphIoError::HeaderCorrupt { what } => {
                write!(f, "graph file header corrupt: {what}")
            }
            GraphIoError::DigestMismatch { header, computed } => {
                write!(
                    f,
                    "graph content digest {computed:016x} does not match header {header:016x}"
                )
            }
        }
    }
}

impl std::error::Error for GraphIoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GraphIoError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for GraphIoError {
    fn from(e: std::io::Error) -> GraphIoError {
        GraphIoError::Io(e)
    }
}

/// The parsed fixed-size header of a graph file.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct GraphHeader {
    /// Node count.
    pub n: u64,
    /// Undirected (canonical) edge count.
    pub m: u64,
    /// Maximum edge weight `W` (0 permitted only for edgeless graphs).
    pub max_weight: u64,
    /// Order-invariant [`crate::GraphDigest`] of the content.
    pub digest: u64,
    /// Directed CSR entries (`= 2m`).
    pub entries: u64,
}

impl GraphHeader {
    /// Total file size in bytes this header implies.
    pub fn file_bytes(&self) -> u64 {
        HEADER_BYTES as u64 + 8 * (self.n + 1) + 16 * self.entries
    }

    fn to_bytes(self) -> [u8; HEADER_BYTES] {
        let mut b = [0u8; HEADER_BYTES];
        b[0..8].copy_from_slice(&MAGIC);
        b[8..12].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
        b[12..16].copy_from_slice(&ENDIAN_MARKER.to_le_bytes());
        b[16..24].copy_from_slice(&self.n.to_le_bytes());
        b[24..32].copy_from_slice(&self.m.to_le_bytes());
        b[32..40].copy_from_slice(&self.max_weight.to_le_bytes());
        b[40..48].copy_from_slice(&self.digest.to_le_bytes());
        b[48..56].copy_from_slice(&self.entries.to_le_bytes());
        b
    }

    fn parse(b: &[u8]) -> Result<GraphHeader, GraphIoError> {
        if b.len() < HEADER_BYTES {
            return Err(GraphIoError::Truncated {
                expected: HEADER_BYTES as u64,
                found: b.len() as u64,
            });
        }
        let mut magic = [0u8; 8];
        magic.copy_from_slice(&b[0..8]);
        if magic != MAGIC {
            return Err(GraphIoError::BadMagic { found: magic });
        }
        let u32_at = |o: usize| u32::from_le_bytes(b[o..o + 4].try_into().expect("4 bytes"));
        let u64_at = |o: usize| u64::from_le_bytes(b[o..o + 8].try_into().expect("8 bytes"));
        let version = u32_at(8);
        if version != FORMAT_VERSION {
            return Err(GraphIoError::UnsupportedVersion { found: version });
        }
        if u32_at(12) != ENDIAN_MARKER {
            return Err(GraphIoError::HeaderCorrupt {
                what: "endian marker mismatch",
            });
        }
        let header = GraphHeader {
            n: u64_at(16),
            m: u64_at(24),
            max_weight: u64_at(32),
            digest: u64_at(40),
            entries: u64_at(48),
        };
        if header.entries != header.m.wrapping_mul(2) {
            return Err(GraphIoError::HeaderCorrupt {
                what: "entries != 2 * m",
            });
        }
        if header.m > 0 && header.max_weight == 0 {
            return Err(GraphIoError::HeaderCorrupt {
                what: "max_weight is 0 but edges exist",
            });
        }
        if header.n > (u64::MAX - HEADER_BYTES as u64) / 32 || header.entries > u64::MAX / 32 {
            return Err(GraphIoError::HeaderCorrupt {
                what: "size fields overflow",
            });
        }
        if b[56..HEADER_BYTES].iter().any(|&x| x != 0) {
            return Err(GraphIoError::HeaderCorrupt {
                what: "reserved bytes nonzero",
            });
        }
        Ok(header)
    }
}

/// Writes `g` to `path` in the binary format, in one buffered pass.
///
/// The header digest is `g.digest()` (recomputed here in `O(m)` so the file
/// is self-describing); [`WeightedGraph::open_mmap`] trusts it, giving
/// `O(header)` loads.
///
/// The write is atomic: the bytes go to a sibling temp file, which is
/// synced and then renamed over `path`. Rewriting a path therefore never
/// truncates an inode that a live mapping reads; readers keep the old
/// file until they reopen.
///
/// # Errors
///
/// Any filesystem error, as [`GraphIoError::Io`]; the temp file is removed.
pub fn write_graph(g: &WeightedGraph, path: &Path) -> Result<(), GraphIoError> {
    static NEXT_TMP: AtomicU64 = AtomicU64::new(0);
    let unique = NEXT_TMP.fetch_add(1, Ordering::Relaxed);
    let tmp = path.with_extension(format!("{}-{unique}.tmp", std::process::id()));
    let header = GraphHeader {
        n: g.n() as u64,
        m: g.m() as u64,
        max_weight: if g.m() == 0 { 0 } else { g.max_weight() },
        digest: g.recompute_digest().0,
        entries: g.csr_targets().len() as u64,
    };
    let write = || -> Result<(), GraphIoError> {
        let mut out = BufWriter::new(File::create(&tmp)?);
        out.write_all(&header.to_bytes())?;
        for &x in g.csr_offsets() {
            out.write_all(&(x as u64).to_le_bytes())?;
        }
        for &x in g.csr_targets() {
            out.write_all(&(x as u64).to_le_bytes())?;
        }
        for &x in g.csr_weights() {
            out.write_all(&x.to_le_bytes())?;
        }
        out.flush()?;
        out.get_ref().sync_all()?;
        Ok(std::fs::rename(&tmp, path)?)
    };
    let written = write();
    if written.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    written
}

/// Reads just the 64-byte header of a graph file.
///
/// # Errors
///
/// Typed [`GraphIoError`] variants for missing/short/corrupt headers.
pub fn read_header(path: &Path) -> Result<GraphHeader, GraphIoError> {
    let mut f = File::open(path)?;
    let mut buf = [0u8; HEADER_BYTES];
    let mut got = 0usize;
    while got < HEADER_BYTES {
        let k = f.read(&mut buf[got..])?;
        if k == 0 {
            return Err(GraphIoError::Truncated {
                expected: HEADER_BYTES as u64,
                found: got as u64,
            });
        }
        got += k;
    }
    GraphHeader::parse(&buf)
}

/// Reads a graph file into *owned* storage (`O(m)`, works on any target).
///
/// This is the portable fallback behind [`WeightedGraph::open_mmap`] and a
/// useful primitive in its own right (e.g. when the file lives on a
/// filesystem where mapping is undesirable).
///
/// # Errors
///
/// Typed [`GraphIoError`] variants; corrupted files never panic.
pub fn read_owned(path: &Path) -> Result<WeightedGraph, GraphIoError> {
    let mut f = File::open(path)?;
    let mut bytes = Vec::new();
    f.read_to_end(&mut bytes)?;
    let header = GraphHeader::parse(&bytes)?;
    check_len(&header, bytes.len() as u64)?;
    let n = header.n as usize;
    let entries = header.entries as usize;
    let words = |start: usize, len: usize| -> Vec<u64> {
        bytes[start..start + 8 * len]
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")))
            .collect()
    };
    let offsets64 = words(HEADER_BYTES, n + 1);
    let targets64 = words(HEADER_BYTES + 8 * (n + 1), entries);
    let weights = words(HEADER_BYTES + 8 * (n + 1) + 8 * entries, entries);
    validate_offsets_prefix(&offsets64, entries as u64)?;
    let offsets: Vec<usize> = offsets64.iter().map(|&x| x as usize).collect();
    let targets: Vec<NodeId> = targets64.iter().map(|&x| x as usize).collect();
    Ok(WeightedGraph::from_owned_csr(offsets, targets, weights))
}

fn check_len(header: &GraphHeader, found: u64) -> Result<(), GraphIoError> {
    let expected = header.file_bytes();
    if found != expected {
        return Err(GraphIoError::Truncated { expected, found });
    }
    Ok(())
}

/// `O(1)` structural check on the offsets array: first entry 0, last entry
/// equal to the directed entry count. (Full monotonicity would be `O(n)`,
/// defeating the `O(header)` load contract; content-level corruption is the
/// verified-open's job.)
fn validate_offsets_prefix(offsets: &[u64], entries: u64) -> Result<(), GraphIoError> {
    if offsets.first() != Some(&0) {
        return Err(GraphIoError::HeaderCorrupt {
            what: "offsets[0] != 0",
        });
    }
    if offsets.last() != Some(&entries) {
        return Err(GraphIoError::HeaderCorrupt {
            what: "offsets[n] != entries",
        });
    }
    Ok(())
}

impl WeightedGraph {
    /// Opens a graph file with memory-mapped (zero-copy) storage.
    ///
    /// Load time is `O(header)`: the header is validated, the file length
    /// checked against it, and the CSR arrays are *borrowed* from the
    /// mapping — no per-edge work happens until a kernel touches them. The
    /// header digest is trusted (it becomes [`WeightedGraph::digest`]);
    /// use [`Self::open_mmap_verified`] to pay `O(m)` for recomputation.
    ///
    /// On targets that are not little-endian 64-bit (or where mapping
    /// fails), this transparently falls back to an owned `O(m)` read with
    /// identical results.
    ///
    /// # Errors
    ///
    /// Typed [`GraphIoError`] variants; corrupted files never panic.
    pub fn open_mmap(path: &Path) -> Result<WeightedGraph, GraphIoError> {
        #[cfg(all(target_endian = "little", target_pointer_width = "64"))]
        {
            let file = File::open(path)?;
            let map = sys::Mmap::map_file(&file)?;
            let header = GraphHeader::parse(map.bytes())?;
            check_len(&header, map.len() as u64)?;
            let mapped = MappedCsr::new(map, header)?;
            Ok(WeightedGraph::from_mapped(Arc::new(mapped)))
        }
        #[cfg(not(all(target_endian = "little", target_pointer_width = "64")))]
        {
            read_owned(path)
        }
    }

    /// [`open_mmap`](WeightedGraph::open_mmap) plus full `O(n + m)` content
    /// validation: structural payload checks and a content-digest
    /// recomputation against the header.
    ///
    /// # Errors
    ///
    /// Everything `open_mmap` returns, plus
    /// [`GraphIoError::HeaderCorrupt`] for structural payload corruption
    /// (non-monotone offsets, out-of-range targets, a header `max_weight`
    /// the weights don't attain) and [`GraphIoError::DigestMismatch`] when
    /// the CSR content does not hash to the header digest.
    pub fn open_mmap_verified(path: &Path) -> Result<WeightedGraph, GraphIoError> {
        let header = read_header(path)?;
        let g = WeightedGraph::open_mmap(path)?;
        // Structural validation first: the O(header) open only checks the
        // offsets endpoints, so interior corruption must be ruled out here
        // before anything walks the rows (a slice panic is not a typed
        // error), and the digest does not cover `max_weight`.
        if g.csr_offsets().windows(2).any(|w| w[0] > w[1]) {
            return Err(GraphIoError::HeaderCorrupt {
                what: "offsets array not monotone",
            });
        }
        let n = g.n();
        if g.csr_targets().iter().any(|&t| t >= n) {
            return Err(GraphIoError::HeaderCorrupt {
                what: "target index out of range",
            });
        }
        let max = g.csr_weights().iter().copied().max().unwrap_or(0);
        if max != header.max_weight {
            return Err(GraphIoError::HeaderCorrupt {
                what: "max_weight does not match content",
            });
        }
        let computed = g.recompute_digest().0;
        if computed != header.digest {
            return Err(GraphIoError::DigestMismatch {
                header: header.digest,
                computed,
            });
        }
        Ok(g)
    }

    /// Writes this graph to `path` in the binary format.
    ///
    /// # Errors
    ///
    /// Same as [`write_graph`].
    pub fn write_binary(&self, path: &Path) -> Result<(), GraphIoError> {
        write_graph(self, path)
    }
}

/// CSR arrays borrowed zero-copy from a memory-mapped graph file.
///
/// Constructed only on little-endian 64-bit targets (where `u64` file words
/// reinterpret directly as `usize`); [`WeightedGraph::open_mmap`] falls back
/// to owned storage elsewhere.
pub struct MappedCsr {
    map: sys::Mmap,
    header: GraphHeader,
}

impl MappedCsr {
    #[cfg(all(target_endian = "little", target_pointer_width = "64"))]
    fn new(map: sys::Mmap, header: GraphHeader) -> Result<MappedCsr, GraphIoError> {
        let this = MappedCsr { map, header };
        validate_offsets_prefix(
            &[
                this.offsets()[0] as u64,
                *this.offsets().last().expect("n+1 >= 1") as u64,
            ],
            header.entries,
        )?;
        Ok(this)
    }

    /// The parsed file header.
    pub(crate) fn header(&self) -> &GraphHeader {
        &self.header
    }

    #[cfg(all(target_endian = "little", target_pointer_width = "64"))]
    #[inline]
    fn words(&self, byte_off: usize, len: usize) -> &[u64] {
        self.map.words(byte_off, len)
    }

    /// The `n + 1` row offsets.
    #[cfg(all(target_endian = "little", target_pointer_width = "64"))]
    #[inline]
    pub(crate) fn offsets(&self) -> &[usize] {
        let w = self.words(HEADER_BYTES, self.header.n as usize + 1);
        // SAFETY: on 64-bit targets `usize` and `u64` have identical size
        // and alignment; the slice stays within the mapping.
        #[allow(unsafe_code)]
        unsafe {
            std::slice::from_raw_parts(w.as_ptr().cast::<usize>(), w.len())
        }
    }

    /// The directed neighbor entries.
    #[cfg(all(target_endian = "little", target_pointer_width = "64"))]
    #[inline]
    pub(crate) fn targets(&self) -> &[NodeId] {
        let start = HEADER_BYTES + 8 * (self.header.n as usize + 1);
        let w = self.words(start, self.header.entries as usize);
        // SAFETY: as in `offsets`.
        #[allow(unsafe_code)]
        unsafe {
            std::slice::from_raw_parts(w.as_ptr().cast::<usize>(), w.len())
        }
    }

    /// The directed weight entries.
    #[cfg(all(target_endian = "little", target_pointer_width = "64"))]
    #[inline]
    pub(crate) fn weights(&self) -> &[Weight] {
        let start =
            HEADER_BYTES + 8 * (self.header.n as usize + 1) + 8 * self.header.entries as usize;
        self.words(start, self.header.entries as usize)
    }

    #[cfg(not(all(target_endian = "little", target_pointer_width = "64")))]
    pub(crate) fn offsets(&self) -> &[usize] {
        unreachable!("mapped storage is only constructed on little-endian 64-bit targets")
    }

    #[cfg(not(all(target_endian = "little", target_pointer_width = "64")))]
    pub(crate) fn targets(&self) -> &[NodeId] {
        unreachable!("mapped storage is only constructed on little-endian 64-bit targets")
    }

    #[cfg(not(all(target_endian = "little", target_pointer_width = "64")))]
    pub(crate) fn weights(&self) -> &[Weight] {
        unreachable!("mapped storage is only constructed on little-endian 64-bit targets")
    }
}

impl fmt::Debug for MappedCsr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MappedCsr")
            .field("n", &self.header.n)
            .field("m", &self.header.m)
            .field("bytes", &self.map.len())
            .finish()
    }
}

/// The tiny vendored-only mmap shim: raw `libc::mmap`/`munmap` through
/// hand-declared `extern "C"` bindings (no crates.io dependency), with a
/// heap-buffer fallback for non-unix targets or mapping failures.
mod sys {
    #![allow(unsafe_code)]

    use std::fs::File;
    use std::io::Read;

    /// A read-only byte region: an OS memory mapping where available, an
    /// 8-byte-aligned heap copy otherwise. Either way `words`/`bytes` views
    /// are 8-aligned, which the zero-copy CSR reinterpretation relies on.
    pub(super) struct Mmap {
        inner: Inner,
    }

    enum Inner {
        #[cfg(unix)]
        Os {
            ptr: *mut core::ffi::c_void,
            len: usize,
        },
        /// `Vec<u64>` (not `Vec<u8>`) so the base is 8-byte aligned.
        Heap { words: Vec<u64>, len: usize },
    }

    // SAFETY: the region is immutable for the mapping's lifetime and freed
    // exactly once in `Drop`; sharing read-only pages across threads is safe.
    unsafe impl Send for Mmap {}
    unsafe impl Sync for Mmap {}

    #[cfg(unix)]
    mod ffi {
        use core::ffi::{c_int, c_void};

        pub const PROT_READ: c_int = 0x1;
        pub const MAP_PRIVATE: c_int = 0x2;

        extern "C" {
            pub fn mmap(
                addr: *mut c_void,
                len: usize,
                prot: c_int,
                flags: c_int,
                fd: c_int,
                offset: i64,
            ) -> *mut c_void;
            pub fn munmap(addr: *mut c_void, len: usize) -> c_int;
        }
    }

    impl Mmap {
        /// Maps `file` read-only. Falls back to a heap read if the target
        /// has no `mmap` or the call fails (empty files always use the heap
        /// path — `mmap(len = 0)` is `EINVAL`).
        pub(super) fn map_file(file: &File) -> std::io::Result<Mmap> {
            let len = file.metadata()?.len();
            let len = usize::try_from(len).map_err(|_| {
                std::io::Error::new(std::io::ErrorKind::InvalidData, "file too large to map")
            })?;
            #[cfg(unix)]
            if len > 0 {
                use std::os::unix::io::AsRawFd;
                // SAFETY: fd is a valid open file; we request a fresh
                // read-only private mapping of exactly `len` bytes.
                let ptr = unsafe {
                    ffi::mmap(
                        std::ptr::null_mut(),
                        len,
                        ffi::PROT_READ,
                        ffi::MAP_PRIVATE,
                        file.as_raw_fd(),
                        0,
                    )
                };
                if ptr as isize != -1 {
                    return Ok(Mmap {
                        inner: Inner::Os { ptr, len },
                    });
                }
            }
            Mmap::read_heap(file, len)
        }

        fn read_heap(file: &File, len: usize) -> std::io::Result<Mmap> {
            let mut bytes = Vec::with_capacity(len);
            let mut f = file;
            f.read_to_end(&mut bytes)?;
            let mut words = vec![0u64; bytes.len().div_ceil(8)];
            for (i, chunk) in bytes.chunks(8).enumerate() {
                let mut b = [0u8; 8];
                b[..chunk.len()].copy_from_slice(chunk);
                // On the little-endian targets that reinterpret these words
                // this reproduces the raw file bytes exactly.
                words[i] = u64::from_le_bytes(b);
            }
            Ok(Mmap {
                inner: Inner::Heap {
                    words,
                    len: bytes.len(),
                },
            })
        }

        pub(super) fn len(&self) -> usize {
            match &self.inner {
                #[cfg(unix)]
                Inner::Os { len, .. } => *len,
                Inner::Heap { len, .. } => *len,
            }
        }

        fn base(&self) -> *const u8 {
            match &self.inner {
                #[cfg(unix)]
                Inner::Os { ptr, .. } => ptr.cast::<u8>().cast_const(),
                Inner::Heap { words, .. } => words.as_ptr().cast::<u8>(),
            }
        }

        /// The whole region as bytes.
        pub(super) fn bytes(&self) -> &[u8] {
            // SAFETY: `base()` points at `len()` readable bytes for `self`'s
            // lifetime (OS mapping or backing Vec).
            unsafe { std::slice::from_raw_parts(self.base(), self.len()) }
        }

        /// `len` u64 words starting at `byte_off` (must be 8-aligned and in
        /// bounds — callers validate against the parsed header first).
        pub(super) fn words(&self, byte_off: usize, len: usize) -> &[u64] {
            assert!(byte_off.is_multiple_of(8), "unaligned word offset");
            let end = byte_off
                .checked_add(len.checked_mul(8).expect("word length overflow"))
                .expect("word range overflow");
            assert!(end <= self.len(), "word range out of bounds");
            // SAFETY: range checked above; base is 8-aligned (page-aligned
            // mapping or Vec<u64>), so `base + byte_off` is 8-aligned.
            unsafe { std::slice::from_raw_parts(self.base().add(byte_off).cast::<u64>(), len) }
        }
    }

    impl Drop for Mmap {
        fn drop(&mut self) {
            #[cfg(unix)]
            if let Inner::Os { ptr, len } = self.inner {
                // SAFETY: `ptr`/`len` came from a successful mmap and are
                // unmapped exactly once.
                unsafe {
                    ffi::munmap(ptr, len);
                }
            }
        }
    }
}

/// Errors from the streaming [`GraphWriter`] pipeline.
#[derive(Debug)]
pub enum StreamBuildError {
    /// An emitted edge failed [`GraphBuilder`](crate::GraphBuilder)-style
    /// validation (out-of-range node, zero weight, self-loop).
    Graph(BuildGraphError),
    /// The emitter did not replay the same edge count across the counting
    /// and filling passes (it must be deterministic).
    ReplayMismatch {
        /// Edges seen in the counting pass.
        counted: u64,
        /// Edges seen in the filling pass.
        filled: u64,
    },
}

impl fmt::Display for StreamBuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamBuildError::Graph(e) => write!(f, "{e}"),
            StreamBuildError::ReplayMismatch { counted, filled } => write!(
                f,
                "edge emitter is not replayable: counted {counted} edges, refilled {filled}"
            ),
        }
    }
}

impl std::error::Error for StreamBuildError {}

impl From<BuildGraphError> for StreamBuildError {
    fn from(e: BuildGraphError) -> StreamBuildError {
        StreamBuildError::Graph(e)
    }
}

/// Streaming CSR assembler: edges flow in twice (count pass, fill pass) and
/// come out as a finished [`WeightedGraph`] — no intermediate `Vec<Edge>`.
///
/// Peak memory is the final CSR plus one reusable row-sort scratch, roughly
/// a third of what [`GraphBuilder`](crate::GraphBuilder) needs at the same
/// size (which keeps the canonical edge list alive alongside the CSR while
/// building). Parallel edges are merged to the minimum weight, exactly like
/// the builder.
///
/// Most callers want [`build_streamed`], which drives the two passes from a
/// replayable emitter closure; [`crate::generators::stream`] is built on it.
pub struct GraphWriter {
    n: usize,
    filling: bool,
    offsets: Vec<usize>,
    targets: Vec<NodeId>,
    weights: Vec<Weight>,
    counted: u64,
    filled: u64,
    error: Option<BuildGraphError>,
}

impl GraphWriter {
    /// Starts the counting pass for an `n`-node graph.
    pub fn new(n: usize) -> GraphWriter {
        GraphWriter {
            n,
            filling: false,
            offsets: vec![0; n + 1],
            targets: Vec::new(),
            weights: Vec::new(),
            counted: 0,
            filled: 0,
            error: None,
        }
    }

    /// Feeds one undirected edge to the current pass.
    ///
    /// Invalid edges are recorded and surface as an error from
    /// [`start_fill`](GraphWriter::start_fill) / [`finish`](GraphWriter::finish);
    /// this method never panics on bad input.
    pub fn edge(&mut self, u: NodeId, v: NodeId, w: Weight) {
        if self.error.is_some() {
            return;
        }
        if u >= self.n || v >= self.n {
            self.error = Some(BuildGraphError::NodeOutOfRange {
                node: u.max(v),
                n: self.n,
            });
            return;
        }
        if w == 0 {
            self.error = Some(BuildGraphError::ZeroWeight { edge: (u, v) });
            return;
        }
        if u == v {
            self.error = Some(BuildGraphError::SelfLoop { node: u });
            return;
        }
        if self.filling {
            self.filled += 1;
            if self.filled > self.counted {
                // Over-emission: drop on the floor; finish() reports the
                // replay mismatch. Writing would run past the arrays.
                return;
            }
            let cu = self.offsets[u];
            self.targets[cu] = v;
            self.weights[cu] = w;
            self.offsets[u] += 1;
            let cv = self.offsets[v];
            self.targets[cv] = u;
            self.weights[cv] = w;
            self.offsets[v] += 1;
        } else {
            self.counted += 1;
            self.offsets[u + 1] += 1;
            self.offsets[v + 1] += 1;
        }
    }

    /// Ends the counting pass: allocates the CSR arrays and switches to the
    /// filling pass. The emitter must now replay the identical edges.
    ///
    /// # Errors
    ///
    /// The first validation error recorded during counting.
    pub fn start_fill(&mut self) -> Result<(), StreamBuildError> {
        if let Some(e) = self.error.take() {
            return Err(e.into());
        }
        for i in 1..=self.n {
            self.offsets[i] += self.offsets[i - 1];
        }
        let total = self.offsets[self.n];
        self.targets = vec![0; total];
        self.weights = vec![0; total];
        // After the prefix sum, offsets[v] is already row v's start and
        // doubles as its write cursor; filling advances it to row v's end
        // == row (v+1)'s start, which finish() undoes with a right shift.
        self.filling = true;
        Ok(())
    }

    /// Ends the filling pass: sorts each row, merges parallel edges to the
    /// minimum weight, and produces the graph.
    ///
    /// # Errors
    ///
    /// Validation errors from either pass, or
    /// [`StreamBuildError::ReplayMismatch`] if the two passes disagreed.
    pub fn finish(mut self) -> Result<WeightedGraph, StreamBuildError> {
        if let Some(e) = self.error.take() {
            return Err(e.into());
        }
        if !self.filling || self.filled != self.counted {
            return Err(StreamBuildError::ReplayMismatch {
                counted: self.counted,
                filled: self.filled,
            });
        }
        // Restore row starts (each offsets[v] advanced to its row end).
        for i in (1..=self.n).rev() {
            self.offsets[i] = self.offsets[i - 1];
        }
        self.offsets[0] = 0;

        // Per-row sort + parallel-edge merge, compacting in place. Rows are
        // processed in order with a single write cursor, so only one scratch
        // buffer (reused across rows) is needed.
        let mut scratch: Vec<(NodeId, Weight)> = Vec::new();
        let mut write = 0usize;
        let mut row_start = 0usize;
        for v in 0..self.n {
            let row_end = self.offsets[v + 1];
            scratch.clear();
            scratch.extend(
                self.targets[row_start..row_end]
                    .iter()
                    .copied()
                    .zip(self.weights[row_start..row_end].iter().copied()),
            );
            scratch.sort_unstable();
            self.offsets[v] = write;
            let mut last: Option<NodeId> = None;
            for &(t, w) in &scratch {
                if last == Some(t) {
                    continue; // parallel edge; first (t, w) pair is minimal
                }
                self.targets[write] = t;
                self.weights[write] = w;
                write += 1;
                last = Some(t);
            }
            row_start = row_end;
        }
        self.offsets[self.n] = write;
        self.targets.truncate(write);
        self.weights.truncate(write);
        Ok(WeightedGraph::from_owned_csr(
            self.offsets,
            self.targets,
            self.weights,
        ))
    }
}

/// Builds a graph by replaying a deterministic edge emitter twice through a
/// [`GraphWriter`] — the streaming analogue of
/// [`WeightedGraph::from_edges`], with no `Vec<Edge>` ever materialized.
///
/// `emit` is called twice with an edge sink and must produce the identical
/// edge sequence both times (e.g. by reseeding a PRNG from a fixed seed).
///
/// # Errors
///
/// Same as [`GraphWriter::finish`].
///
/// # Examples
///
/// ```
/// use congest_graph::io::build_streamed;
/// let g = build_streamed(4, |sink| {
///     for v in 1..4usize {
///         sink(v - 1, v, 2);
///     }
/// })
/// .unwrap();
/// assert_eq!((g.n(), g.m()), (4, 3));
/// ```
pub fn build_streamed(
    n: usize,
    mut emit: impl FnMut(&mut dyn FnMut(NodeId, NodeId, Weight)),
) -> Result<WeightedGraph, StreamBuildError> {
    let mut writer = GraphWriter::new(n);
    emit(&mut |u, v, w| writer.edge(u, v, w));
    writer.start_fill()?;
    emit(&mut |u, v, w| writer.edge(u, v, w));
    writer.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    /// A scratch path unique to this process (concurrent `cargo test` runs
    /// never share a file); every test passes its own name.
    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("congest-graph-io-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create tmp dir");
        dir.join(name)
    }

    #[test]
    fn round_trip_mmap_and_owned() {
        let g = generators::grid(7, 9, 5);
        let path = tmp("grid.wdrg");
        write_graph(&g, &path).unwrap();

        let header = read_header(&path).unwrap();
        assert_eq!(header.n, g.n() as u64);
        assert_eq!(header.m, g.m() as u64);
        assert_eq!(header.digest, g.digest().0);

        let mapped = WeightedGraph::open_mmap(&path).unwrap();
        assert_eq!(mapped, g);
        assert_eq!(mapped.digest(), g.digest());
        assert_eq!(mapped.max_weight(), g.max_weight());

        let owned = read_owned(&path).unwrap();
        assert_eq!(owned, g);
        assert_eq!(owned.digest(), g.digest());

        let verified = WeightedGraph::open_mmap_verified(&path).unwrap();
        assert_eq!(verified, g);
    }

    #[test]
    fn empty_and_edgeless_graphs_round_trip() {
        for (name, g) in [
            ("empty.wdrg", WeightedGraph::from_edges(0, []).unwrap()),
            ("lonely.wdrg", WeightedGraph::from_edges(3, []).unwrap()),
        ] {
            let path = tmp(name);
            write_graph(&g, &path).unwrap();
            let m = WeightedGraph::open_mmap_verified(&path).unwrap();
            assert_eq!(m, g);
        }
    }

    #[test]
    fn bad_magic_is_typed() {
        let path = tmp("magic.wdrg");
        std::fs::write(
            &path,
            b"NOTAGRPH________________________________________________________",
        )
        .unwrap();
        assert!(matches!(
            read_header(&path),
            Err(GraphIoError::BadMagic { .. })
        ));
        assert!(matches!(
            WeightedGraph::open_mmap(&path),
            Err(GraphIoError::BadMagic { .. })
        ));
    }

    #[test]
    fn truncated_file_is_typed() {
        let g = generators::path(20, 3);
        let path = tmp("trunc.wdrg");
        write_graph(&g, &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        for cut in [0, 5, HEADER_BYTES - 1, HEADER_BYTES, bytes.len() - 8] {
            let path = tmp("trunc-cut.wdrg");
            std::fs::write(&path, &bytes[..cut]).unwrap();
            let err = WeightedGraph::open_mmap(&path).unwrap_err();
            assert!(
                matches!(err, GraphIoError::Truncated { .. }),
                "cut={cut} gave {err:?}"
            );
        }
    }

    #[test]
    fn writer_merges_parallel_edges_like_builder() {
        let g = build_streamed(3, |sink| {
            sink(0, 1, 9);
            sink(1, 0, 4);
            sink(1, 2, 2);
            sink(0, 1, 7);
        })
        .unwrap();
        let reference =
            WeightedGraph::from_edges(3, [(0, 1, 9), (1, 0, 4), (1, 2, 2), (0, 1, 7)]).unwrap();
        assert_eq!(g, reference);
        assert_eq!(g.edge_weight(0, 1), Some(4));
    }

    #[test]
    fn writer_reports_validation_errors() {
        let bad = build_streamed(3, |sink| sink(0, 3, 1));
        assert!(matches!(
            bad,
            Err(StreamBuildError::Graph(
                BuildGraphError::NodeOutOfRange { .. }
            ))
        ));
        let bad = build_streamed(3, |sink| sink(0, 1, 0));
        assert!(matches!(
            bad,
            Err(StreamBuildError::Graph(BuildGraphError::ZeroWeight { .. }))
        ));
        let bad = build_streamed(3, |sink| sink(2, 2, 1));
        assert!(matches!(
            bad,
            Err(StreamBuildError::Graph(BuildGraphError::SelfLoop { .. }))
        ));
    }

    #[test]
    fn writer_detects_non_replayable_emitters() {
        let mut calls = 0;
        let bad = build_streamed(4, |sink| {
            calls += 1;
            for v in 1..(if calls == 1 { 4 } else { 3 }) {
                sink(v - 1, v, 1);
            }
        });
        assert!(matches!(bad, Err(StreamBuildError::ReplayMismatch { .. })));

        let mut calls = 0;
        let bad = build_streamed(4, |sink| {
            calls += 1;
            for v in 1..(if calls == 1 { 3 } else { 4 }) {
                sink(v - 1, v, 1);
            }
        });
        assert!(matches!(bad, Err(StreamBuildError::ReplayMismatch { .. })));
    }
}
