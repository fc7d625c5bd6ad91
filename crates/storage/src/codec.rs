//! The on-disk page format: header and node codec.
//!
//! Everything before this module simulated the disk; the codec makes pages
//! real. A page file is a fixed 64-byte header followed by `page_count`
//! slots of exactly `slot_bytes` each, one R\*-tree node per slot (§3.1:
//! one node ↔ one page). All integers and coordinates are little-endian,
//! so files written on any supported platform reopen on any other.
//!
//! ```text
//! header (64 B): magic "RSJP" | version u16 | flags u16
//!                page_bytes u32 | slot_bytes u32 | page_count u32
//!                free_head+1 u32 | meta [40 B, owner-defined]
//! slot (slot_bytes B): level u32 | entry_count u32
//!                      entry_count × (xl f64 | yl f64 | xu f64 | yu f64 |
//!                      child u64) | zero padding
//! free slot:           level = 0xFFFF_FFFF | next_free+1 u32 | zero padding
//! ```
//!
//! Two page sizes coexist deliberately: `page_bytes` is the *logical* page
//! size — the paper's accounting unit, from which node capacity M =
//! ⌊page/20⌋ derives (20-byte entries: four 4-byte coordinates plus a
//! 4-byte reference). The codec stores every entry as full-precision
//! `f64` coordinates and an 8-byte reference (40 bytes), so an encoded
//! node needs more than one logical page; `slot_bytes` is that *physical*
//! slot size. Keeping both in the header preserves the paper's metric
//! (`disk_accesses` count logical pages) while the bytes on disk are
//! exact.
//!
//! The **write path** adds one persistent structure: a `free_head` field
//! in the header chaining *free page slots* through the file (each free
//! slot stores the next free page in place of a node — see
//! [`encode_free_page`]). It occupies previously reserved, always-zero
//! header bytes, so every file written by earlier versions reads back as
//! "no free pages" — exactly what those files contain. The `flags` word
//! must be zero: a set bit is a file this reader does not understand.
//!
//! Every decode path returns a typed [`StorageError`]; no input, however
//! corrupted, may panic — the property suite in
//! `crates/storage/tests/prop_codec.rs` drives this with arbitrary bit
//! patterns.

use crate::page::PageId;

/// File signature, first four bytes of every page file.
pub const MAGIC: [u8; 4] = *b"RSJP";

/// The one format version: 40-byte f64 entries. Free-page chains ride in
/// previously reserved header bytes and unreachable slots, so version-1
/// files (with or without chains) decode correctly under version-1
/// readers — the version stays put. Any other version is
/// [`StorageError::BadVersion`].
pub const VERSION: u16 = 1;

/// Fixed header length in bytes.
pub const HEADER_BYTES: usize = 64;

/// Bytes of owner-defined metadata carried in the header (the R\*-tree
/// stores its root page, entry count and structural parameters here; the
/// storage layer treats the blob as opaque).
pub const META_BYTES: usize = 40;

/// Encoded bytes per node entry: four `f64` coordinates plus a `u64`
/// child/data reference.
pub const DISK_ENTRY_BYTES: usize = 40;

/// Per-slot header: `level: u32` plus `entry_count: u32`.
pub const SLOT_HEADER_BYTES: usize = 8;

/// The `level` sentinel marking a slot as a free page rather than a node.
/// Real node levels are tree heights (far below `u32::MAX`).
pub const FREE_PAGE_LEVEL: u32 = u32::MAX;

/// Errors of the persistence subsystem. Corrupted input surfaces here as a
/// typed value — decoding never panics.
#[derive(Debug)]
pub enum StorageError {
    /// An operating-system I/O error.
    Io(std::io::Error),
    /// The file does not start with [`MAGIC`].
    BadMagic {
        /// The four bytes actually found.
        found: [u8; 4],
    },
    /// The file's format version is not [`VERSION`].
    BadVersion {
        /// The version actually found.
        found: u16,
    },
    /// The file's logical page size differs from what the caller expects
    /// (e.g. two trees joined through one buffer must share a page size).
    PageSizeMismatch {
        /// The caller's expected logical page size.
        expected: u32,
        /// The page size recorded in the file header.
        found: u32,
    },
    /// The file is shorter than its header claims (or too short to hold a
    /// header at all).
    Truncated {
        /// Bytes the header (or the format) requires.
        expected_bytes: u64,
        /// Bytes actually present.
        found_bytes: u64,
    },
    /// A node does not fit the file's slot size.
    NodeTooLarge {
        /// Bytes the encoded node needs.
        need: usize,
        /// The file's slot size.
        slot: usize,
    },
    /// Structurally invalid content (impossible entry count, out-of-range
    /// page reference, malformed metadata).
    Corrupt(String),
    /// An update was refused because its rectangle, `[xl, yl, xu, yu]`,
    /// has a non-finite coordinate or inverted corners. Nothing changed.
    MalformedRect([f64; 4]),
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageError::Io(e) => write!(f, "i/o error: {e}"),
            StorageError::BadMagic { found } => {
                write!(f, "bad magic {found:?}, expected {MAGIC:?}")
            }
            StorageError::BadVersion { found } => {
                write!(f, "unsupported format version {found}, expected {VERSION}")
            }
            StorageError::PageSizeMismatch { expected, found } => {
                write!(
                    f,
                    "page size mismatch: expected {expected} B, file has {found} B"
                )
            }
            StorageError::Truncated {
                expected_bytes,
                found_bytes,
            } => write!(
                f,
                "truncated file: need {expected_bytes} B, found {found_bytes} B"
            ),
            StorageError::NodeTooLarge { need, slot } => {
                write!(f, "node needs {need} B but the slot size is {slot} B")
            }
            StorageError::Corrupt(msg) => write!(f, "corrupt page file: {msg}"),
            StorageError::MalformedRect(r) => write!(
                f,
                "rectangle {r:?} has a non-finite coordinate or inverted corners"
            ),
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> Self {
        StorageError::Io(e)
    }
}

/// The parsed fixed header of a page file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileHeader {
    /// Logical page size in bytes (the accounting unit).
    pub page_bytes: u32,
    /// Physical bytes per page slot.
    pub slot_bytes: u32,
    /// Number of page slots following the header.
    pub page_count: u32,
    /// Head of the free-page chain, if any page is free (stored on disk as
    /// `page + 1`, so the always-zero reserved field of older files reads
    /// back as "no free pages").
    pub free_head: Option<PageId>,
    /// Owner-defined metadata blob.
    pub meta: [u8; META_BYTES],
}

impl FileHeader {
    /// Serializes the header into its fixed 64-byte layout: [`VERSION`],
    /// no flag bits.
    pub fn encode(&self) -> [u8; HEADER_BYTES] {
        let mut out = [0u8; HEADER_BYTES];
        out[0..4].copy_from_slice(&MAGIC);
        out[4..6].copy_from_slice(&VERSION.to_le_bytes());
        out[8..12].copy_from_slice(&self.page_bytes.to_le_bytes());
        out[12..16].copy_from_slice(&self.slot_bytes.to_le_bytes());
        out[16..20].copy_from_slice(&self.page_count.to_le_bytes());
        let free = self.free_head.map_or(0, |p| p.0 + 1);
        out[20..24].copy_from_slice(&free.to_le_bytes());
        out[24..64].copy_from_slice(&self.meta);
        out
    }

    /// Parses and validates a header. `file_len` is the total file length,
    /// checked against the page count the header claims.
    pub fn decode(buf: &[u8; HEADER_BYTES], file_len: u64) -> Result<Self, StorageError> {
        let mut magic = [0u8; 4];
        magic.copy_from_slice(&buf[0..4]);
        if magic != MAGIC {
            return Err(StorageError::BadMagic { found: magic });
        }
        let version = u16::from_le_bytes([buf[4], buf[5]]);
        if version != VERSION {
            return Err(StorageError::BadVersion { found: version });
        }
        let flags = u16::from_le_bytes([buf[6], buf[7]]);
        if flags != 0 {
            return Err(StorageError::Corrupt(format!(
                "unknown format flags {flags:#06x}"
            )));
        }
        let page_bytes = u32::from_le_bytes(buf[8..12].try_into().expect("slice of 4"));
        let slot_bytes = u32::from_le_bytes(buf[12..16].try_into().expect("slice of 4"));
        let page_count = u32::from_le_bytes(buf[16..20].try_into().expect("slice of 4"));
        if page_bytes == 0 {
            return Err(StorageError::Corrupt("page size of zero".into()));
        }
        if (slot_bytes as usize) < SLOT_HEADER_BYTES {
            return Err(StorageError::Corrupt(format!(
                "slot size {slot_bytes} below the {SLOT_HEADER_BYTES}-byte slot header"
            )));
        }
        let expected = HEADER_BYTES as u64 + u64::from(page_count) * u64::from(slot_bytes);
        if file_len < expected {
            return Err(StorageError::Truncated {
                expected_bytes: expected,
                found_bytes: file_len,
            });
        }
        let free_raw = u32::from_le_bytes(buf[20..24].try_into().expect("slice of 4"));
        let free_head = match free_raw {
            0 => None,
            n if n - 1 < page_count => Some(PageId(n - 1)),
            n => {
                return Err(StorageError::Corrupt(format!(
                    "free-list head {} out of range of a {page_count}-page file",
                    n - 1
                )))
            }
        };
        let mut meta = [0u8; META_BYTES];
        meta.copy_from_slice(&buf[24..64]);
        Ok(FileHeader {
            page_bytes,
            slot_bytes,
            page_count,
            free_head,
            meta,
        })
    }
}

/// One encoded node entry: the MBR as raw coordinates `[xl, yl, xu, yu]`
/// plus the child reference (a page number for directory entries, a data
/// id for leaf entries — which one is decided by the node's level, exactly
/// like in memory).
#[derive(Debug, Clone, Copy)]
pub struct DiskEntry {
    /// `[xl, yl, xu, yu]`, bit-exact.
    pub rect: [f64; 4],
    /// Child page number (directory) or data id (leaf).
    pub child: u64,
}

impl PartialEq for DiskEntry {
    /// Bit-exact comparison — the codec must round-trip every `f64`
    /// pattern including NaNs, so equality is on bits, not on numeric
    /// value.
    fn eq(&self, other: &Self) -> bool {
        self.child == other.child
            && self
                .rect
                .iter()
                .zip(other.rect.iter())
                .all(|(a, b)| a.to_bits() == b.to_bits())
    }
}

/// The storage-level view of one R\*-tree node, geometry-free: the codec
/// neither interprets coordinates nor resolves references.
#[derive(Debug, Clone, PartialEq)]
pub struct DiskNode {
    /// Level above the leaves (0 = leaf).
    pub level: u32,
    /// The encoded entries.
    pub entries: Vec<DiskEntry>,
}

/// What one decoded slot holds: a node, or a link of the free-page chain.
/// [`decode_page`] yields the owned form; [`view_page`] the borrowed one,
/// with a [`NodeView`] over the slot's bytes.
#[derive(Debug, Clone, PartialEq)]
pub enum DiskPage<N = DiskNode> {
    /// An encoded R\*-tree node.
    Node(N),
    /// A released page slot; `next` continues the free chain.
    Free {
        /// The next free page, if the chain continues.
        next: Option<PageId>,
    },
}

/// One node slot read in place: [`view_page`] checks the slot header and
/// the entry count once, and the entries are read straight from the
/// slot's bytes — the one decode loop behind [`decode_node`],
/// [`decode_page`] and every tree open.
#[derive(Debug, Clone, Copy)]
pub struct NodeView<'a> {
    level: u32,
    /// Exactly `entry_count × DISK_ENTRY_BYTES` bytes.
    entries: &'a [u8],
}

impl<'a> NodeView<'a> {
    /// Level above the leaves (0 = leaf).
    #[inline]
    pub fn level(&self) -> u32 {
        self.level
    }

    /// The entries, in slot order.
    pub fn entries(&self) -> impl ExactSizeIterator<Item = DiskEntry> + 'a {
        self.entries.chunks_exact(DISK_ENTRY_BYTES).map(|raw| {
            let word = |at: usize| {
                u64::from_le_bytes(
                    raw[at..at + 8]
                        .try_into()
                        .expect("8 bytes of a 40-byte entry"),
                )
            };
            DiskEntry {
                rect: [0, 8, 16, 24].map(|at| f64::from_bits(word(at))),
                child: word(32),
            }
        })
    }

    fn to_node(self) -> DiskNode {
        DiskNode {
            level: self.level,
            entries: self.entries().collect(),
        }
    }
}

/// Physical slot size needed for nodes of up to `entry_capacity` entries.
pub fn slot_bytes_for(entry_capacity: usize) -> usize {
    SLOT_HEADER_BYTES + entry_capacity * DISK_ENTRY_BYTES
}

/// Encodes `node` into `out` (cleared first), padded with zeros to exactly
/// `slot_bytes`.
pub fn encode_node(
    node: &DiskNode,
    slot_bytes: usize,
    out: &mut Vec<u8>,
) -> Result<(), StorageError> {
    let need = slot_bytes_for(node.entries.len());
    if need > slot_bytes {
        return Err(StorageError::NodeTooLarge {
            need,
            slot: slot_bytes,
        });
    }
    if node.level == FREE_PAGE_LEVEL {
        return Err(StorageError::Corrupt(format!(
            "node level {FREE_PAGE_LEVEL} collides with the free-page marker"
        )));
    }
    out.clear();
    out.reserve(slot_bytes);
    out.extend_from_slice(&node.level.to_le_bytes());
    out.extend_from_slice(&(node.entries.len() as u32).to_le_bytes());
    for e in &node.entries {
        for c in e.rect {
            out.extend_from_slice(&c.to_bits().to_le_bytes());
        }
        out.extend_from_slice(&e.child.to_le_bytes());
    }
    out.resize(slot_bytes, 0);
    Ok(())
}

/// Encodes a free-page chain link into `out` (cleared first), padded to
/// exactly `slot_bytes`.
pub fn encode_free_page(
    next: Option<PageId>,
    slot_bytes: usize,
    out: &mut Vec<u8>,
) -> Result<(), StorageError> {
    if slot_bytes < SLOT_HEADER_BYTES {
        return Err(StorageError::Corrupt(format!(
            "slot size {slot_bytes} below the {SLOT_HEADER_BYTES}-byte slot header"
        )));
    }
    out.clear();
    out.reserve(slot_bytes);
    out.extend_from_slice(&FREE_PAGE_LEVEL.to_le_bytes());
    out.extend_from_slice(&next.map_or(0, |p| p.0 + 1).to_le_bytes());
    out.resize(slot_bytes, 0);
    Ok(())
}

/// Views one slot as node *or* free-chain link, without copying the
/// entries ([`NodeView`]). Every check of [`decode_page`] is made here.
pub fn view_page(buf: &[u8]) -> Result<DiskPage<NodeView<'_>>, StorageError> {
    if buf.len() < SLOT_HEADER_BYTES {
        return Err(StorageError::Truncated {
            expected_bytes: SLOT_HEADER_BYTES as u64,
            found_bytes: buf.len() as u64,
        });
    }
    let word = |at: usize| u32::from_le_bytes(buf[at..at + 4].try_into().expect("slice of 4"));
    let (level, count) = (word(0), word(4));
    if level == FREE_PAGE_LEVEL {
        let next = count.checked_sub(1).map(PageId);
        return Ok(DiskPage::Free { next });
    }
    // Widen before multiplying: the count is attacker-controlled, and
    // `count * entry_bytes` must not wrap on 32-bit targets.
    let need = SLOT_HEADER_BYTES as u64 + u64::from(count) * DISK_ENTRY_BYTES as u64;
    if need > buf.len() as u64 {
        return Err(StorageError::Corrupt(format!(
            "entry count {count} needs {need} B in a {}-byte slot",
            buf.len()
        )));
    }
    Ok(DiskPage::Node(NodeView {
        level,
        entries: &buf[SLOT_HEADER_BYTES..need as usize],
    }))
}

/// Decodes one slot as node *or* free-chain link.
pub fn decode_page(buf: &[u8]) -> Result<DiskPage, StorageError> {
    Ok(match view_page(buf)? {
        DiskPage::Node(view) => DiskPage::Node(view.to_node()),
        DiskPage::Free { next } => DiskPage::Free { next },
    })
}

/// Decodes one slot as a node. `buf` must be the full slot; the entry
/// count is validated against the slot length, so corrupted counts
/// surface as [`StorageError::Corrupt`] instead of a slice panic. A
/// free-page marker is an error here — readers that expect either use
/// [`decode_page`].
pub fn decode_node(buf: &[u8]) -> Result<DiskNode, StorageError> {
    match view_page(buf)? {
        DiskPage::Node(view) => Ok(view.to_node()),
        DiskPage::Free { .. } => Err(StorageError::Corrupt(
            "expected a node but found a free-page marker".into(),
        )),
    }
}

/// Convenience: decode the page id a directory entry references, range-
/// checked against `page_count`.
pub fn child_page(entry: &DiskEntry, page_count: u32) -> Result<PageId, StorageError> {
    if entry.child >= u64::from(page_count) {
        return Err(StorageError::Corrupt(format!(
            "directory entry references page {} of a {page_count}-page file",
            entry.child
        )));
    }
    Ok(PageId(entry.child as u32))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(level: u32, n: usize) -> DiskNode {
        DiskNode {
            level,
            entries: (0..n)
                .map(|i| DiskEntry {
                    rect: [i as f64, -(i as f64), i as f64 + 0.5, i as f64 + 1.5],
                    child: i as u64 * 7,
                })
                .collect(),
        }
    }

    #[test]
    fn node_round_trips() {
        let n = node(2, 5);
        let slot = slot_bytes_for(8);
        let mut buf = Vec::new();
        encode_node(&n, slot, &mut buf).unwrap();
        assert_eq!(buf.len(), slot);
        assert_eq!(decode_node(&buf).unwrap(), n);
    }

    #[test]
    fn oversized_node_is_rejected() {
        let n = node(0, 10);
        let mut buf = Vec::new();
        let err = encode_node(&n, slot_bytes_for(9), &mut buf).unwrap_err();
        assert!(matches!(err, StorageError::NodeTooLarge { .. }), "{err}");
    }

    #[test]
    fn corrupt_entry_count_is_an_error_not_a_panic() {
        let mut buf = Vec::new();
        encode_node(&node(0, 2), slot_bytes_for(4), &mut buf).unwrap();
        buf[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode_node(&buf).unwrap_err(),
            StorageError::Corrupt(_)
        ));
    }

    #[test]
    fn header_round_trips_and_validates() {
        let h = FileHeader {
            page_bytes: 1024,
            slot_bytes: 2064,
            page_count: 3,
            free_head: Some(PageId(1)),
            meta: [7; META_BYTES],
        };
        let enc = h.encode();
        let len = HEADER_BYTES as u64 + 3 * 2064;
        assert_eq!(FileHeader::decode(&enc, len).unwrap(), h);

        let mut bad = enc;
        bad[0] = b'X';
        assert!(matches!(
            FileHeader::decode(&bad, len).unwrap_err(),
            StorageError::BadMagic { .. }
        ));

        let mut bad = enc;
        bad[4] = 99;
        assert!(matches!(
            FileHeader::decode(&bad, len).unwrap_err(),
            StorageError::BadVersion { found: 99 }
        ));

        assert!(matches!(
            FileHeader::decode(&enc, len - 1).unwrap_err(),
            StorageError::Truncated { .. }
        ));

        // Unknown flag bits are a typed error, not silent misreads.
        let mut bad = enc;
        bad[6] = 0x80;
        assert!(matches!(
            FileHeader::decode(&bad, len).unwrap_err(),
            StorageError::Corrupt(_)
        ));

        // A free head beyond the page count is a typed error.
        let mut bad = enc;
        bad[20..24].copy_from_slice(&4u32.to_le_bytes()); // page 3 of 3
        assert!(matches!(
            FileHeader::decode(&bad, len).unwrap_err(),
            StorageError::Corrupt(_)
        ));
    }

    #[test]
    fn a_retired_version_or_a_set_flag_bit_is_refused() {
        let h = FileHeader {
            page_bytes: 1024,
            slot_bytes: slot_bytes_for(25) as u32,
            page_count: 0,
            free_head: None,
            meta: [0; META_BYTES],
        };
        let enc = h.encode();
        assert_eq!(u16::from_le_bytes([enc[4], enc[5]]), VERSION);
        assert_eq!(&enc[6..8], &[0, 0], "no flag bit is ever written");
        // Version 2 announced the retired 20-byte f32 entries (flag bit 0).
        let mut v2 = enc;
        v2[4..6].copy_from_slice(&2u16.to_le_bytes());
        v2[6..8].copy_from_slice(&1u16.to_le_bytes());
        assert!(matches!(
            FileHeader::decode(&v2, HEADER_BYTES as u64).unwrap_err(),
            StorageError::BadVersion { found: 2 }
        ));
        for bit in 0..16 {
            let mut flagged = enc;
            flagged[6..8].copy_from_slice(&(1u16 << bit).to_le_bytes());
            assert!(
                matches!(
                    FileHeader::decode(&flagged, HEADER_BYTES as u64).unwrap_err(),
                    StorageError::Corrupt(_)
                ),
                "flag bit {bit}"
            );
        }
    }

    #[test]
    fn header_reserved_zeros_read_as_no_free_list() {
        // Files written before the write path existed carry zeros in the
        // flags and free-head fields; they must read back as files
        // without free pages.
        let h = FileHeader {
            page_bytes: 1024,
            slot_bytes: 2064,
            page_count: 2,
            free_head: None,
            meta: [0; META_BYTES],
        };
        let enc = h.encode();
        assert_eq!(&enc[6..8], &[0, 0]);
        assert_eq!(&enc[20..24], &[0, 0, 0, 0]);
        let back = FileHeader::decode(&enc, HEADER_BYTES as u64 + 2 * 2064).unwrap();
        assert_eq!(back.free_head, None);
    }

    #[test]
    fn free_page_marker_round_trips_and_chains() {
        let slot = slot_bytes_for(4);
        let mut buf = Vec::new();
        encode_free_page(Some(PageId(7)), slot, &mut buf).unwrap();
        assert_eq!(buf.len(), slot);
        assert_eq!(
            decode_page(&buf).unwrap(),
            DiskPage::Free {
                next: Some(PageId(7))
            }
        );
        encode_free_page(None, slot, &mut buf).unwrap();
        assert_eq!(decode_page(&buf).unwrap(), DiskPage::Free { next: None });
        // The node decoder refuses a marker instead of fabricating a node.
        assert!(matches!(
            decode_node(&buf).unwrap_err(),
            StorageError::Corrupt(_)
        ));
        // And the node encoder refuses the sentinel level.
        let bad = DiskNode {
            level: FREE_PAGE_LEVEL,
            entries: vec![],
        };
        assert!(matches!(
            encode_node(&bad, slot, &mut buf).unwrap_err(),
            StorageError::Corrupt(_)
        ));
    }

    #[test]
    fn decode_page_still_decodes_nodes() {
        let n = node(1, 3);
        let slot = slot_bytes_for(4);
        let mut buf = Vec::new();
        encode_node(&n, slot, &mut buf).unwrap();
        assert_eq!(decode_page(&buf).unwrap(), DiskPage::Node(n));
    }

    #[test]
    fn child_page_is_range_checked() {
        let e = DiskEntry {
            rect: [0.0; 4],
            child: 5,
        };
        assert_eq!(child_page(&e, 6).unwrap(), PageId(5));
        assert!(matches!(
            child_page(&e, 5).unwrap_err(),
            StorageError::Corrupt(_)
        ));
    }

    #[test]
    fn nan_coordinates_round_trip_bit_exactly() {
        let weird = DiskNode {
            level: 0,
            entries: vec![DiskEntry {
                rect: [
                    f64::NAN,
                    f64::INFINITY,
                    f64::NEG_INFINITY,
                    f64::from_bits(0x7ff8_dead_beef_0001),
                ],
                child: u64::MAX,
            }],
        };
        let mut buf = Vec::new();
        encode_node(&weird, slot_bytes_for(1), &mut buf).unwrap();
        assert_eq!(decode_node(&buf).unwrap(), weird);
    }

    #[test]
    fn errors_display_something_useful() {
        let e = StorageError::PageSizeMismatch {
            expected: 1024,
            found: 4096,
        };
        assert!(e.to_string().contains("1024"));
        assert!(e.to_string().contains("4096"));
        let io: StorageError = std::io::Error::other("boom").into();
        assert!(io.to_string().contains("boom"));
    }
}
