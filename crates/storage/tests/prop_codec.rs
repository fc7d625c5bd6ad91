//! Property tests for the persistent page codec: arbitrary node contents
//! must encode→decode bit-identically, and corrupted input — headers or
//! slots — must surface as typed [`StorageError`]s, never as panics.

use proptest::prelude::*;
use proptest::TestCaseError;
use rsj_storage::codec::{
    self, DiskEntry, DiskNode, FileHeader, StorageError, HEADER_BYTES, META_BYTES,
};
use rsj_storage::{PageFile, PageId, PageSource, TempDir};

const MAX_ENTRIES: usize = 24;

/// Builds a node from raw bit patterns — every `f64`, including NaNs,
/// infinities and subnormals, must survive the round trip.
fn node_from(level: u32, raw: &[(u64, u64, u64, u64, u64)]) -> DiskNode {
    DiskNode {
        level,
        entries: raw
            .iter()
            .map(|&(a, b, c, d, child)| DiskEntry {
                rect: [
                    f64::from_bits(a),
                    f64::from_bits(b),
                    f64::from_bits(c),
                    f64::from_bits(d),
                ],
                child,
            })
            .collect(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn nodes_round_trip_bit_identically(
        level in 0u32..6,
        raw in prop::collection::vec(
            (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
            0..MAX_ENTRIES,
        ),
    ) {
        let node = node_from(level, &raw);
        let slot = codec::slot_bytes_for(MAX_ENTRIES);
        let mut buf = Vec::new();
        prop_assert!(codec::encode_node(&node, slot, &mut buf).is_ok());
        prop_assert_eq!(buf.len(), slot, "encoded slot must be padded to size");
        // DiskEntry equality is on f64 *bits*, so this covers NaN payloads.
        prop_assert_eq!(codec::decode_node(&buf).unwrap(), node);
    }

    #[test]
    fn arbitrary_bytes_never_panic_the_node_decoder(
        bytes in prop::collection::vec(any::<u8>(), 0..256),
    ) {
        // Any outcome is fine — an error or a (coincidentally valid)
        // node — as long as it is a return value, not a panic.
        match codec::decode_node(&bytes) {
            Ok(node) => {
                // A successful decode must be internally consistent.
                prop_assert!(codec::slot_bytes_for(node.entries.len()) <= bytes.len());
            }
            Err(
                StorageError::Corrupt(_) | StorageError::Truncated { .. },
            ) => {}
            Err(other) => {
                return Err(TestCaseError::fail(format!(
                    "unexpected error class: {other}"
                )))
            }
        }
    }

    #[test]
    fn arbitrary_bytes_never_panic_the_page_decoder(
        bytes in prop::collection::vec(any::<u8>(), 0..256),
    ) {
        // Same totality contract for the node-or-free-marker decoder.
        match codec::decode_page(&bytes) {
            Ok(_) | Err(StorageError::Corrupt(_) | StorageError::Truncated { .. }) => {}
            Err(other) => {
                return Err(TestCaseError::fail(format!(
                    "unexpected page error class: {other}"
                )))
            }
        }
    }

    #[test]
    fn free_markers_round_trip_for_any_next(some in any::<bool>(), page in 0u32..u32::MAX) {
        let slot = codec::slot_bytes_for(4);
        let mut buf = Vec::new();
        let next = some.then_some(PageId(page));
        codec::encode_free_page(next, slot, &mut buf).unwrap();
        prop_assert_eq!(buf.len(), slot);
        match codec::decode_page(&buf).unwrap() {
            codec::DiskPage::Free { next: got } => prop_assert_eq!(got, next),
            other => return Err(TestCaseError::fail(format!("decoded {other:?}"))),
        }
    }

    #[test]
    fn corrupted_header_bytes_never_panic_the_header_decoder(
        pos in 0usize..HEADER_BYTES,
        value in any::<u8>(),
        page_count in 0u32..50,
    ) {
        let header = FileHeader {
            page_bytes: 1024,
            slot_bytes: codec::slot_bytes_for(8) as u32,
            page_count,
            free_head: None,
            meta: [3; META_BYTES],
        };
        let mut buf = header.encode();
        buf[pos] = value;
        let file_len = HEADER_BYTES as u64
            + u64::from(page_count) * u64::from(header.slot_bytes);
        match FileHeader::decode(&buf, file_len) {
            // The flipped byte may land in the meta blob or be a no-op;
            // then the header still parses.
            Ok(h) => prop_assert_eq!(h.page_count, page_count),
            Err(
                StorageError::BadMagic { .. }
                | StorageError::BadVersion { .. }
                | StorageError::Truncated { .. }
                | StorageError::Corrupt(_),
            ) => {}
            Err(other) => {
                return Err(TestCaseError::fail(format!(
                    "unexpected error class: {other}"
                )))
            }
        }
    }

    #[test]
    fn truncation_anywhere_is_a_typed_error(cut in 0u64..200) {
        let dir = TempDir::new("prop-trunc").unwrap();
        let path = dir.file("t.rsj");
        let slot = codec::slot_bytes_for(2);
        {
            let mut f = PageFile::create(&path, 1024, slot).unwrap();
            let node = node_from(0, &[(0, 0, 0, 0, 7)]);
            let mut buf = Vec::new();
            codec::encode_node(&node, slot, &mut buf).unwrap();
            f.append_page(&buf).unwrap();
            f.append_page(&buf).unwrap();
            f.flush().unwrap();
        }
        let full = std::fs::metadata(&path).unwrap().len();
        prop_assume!(cut < full);
        let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(cut).unwrap();
        drop(f);
        match PageFile::open(&path) {
            Err(StorageError::Truncated { expected_bytes, found_bytes }) => {
                prop_assert_eq!(found_bytes, cut);
                prop_assert!(expected_bytes > cut);
            }
            other => {
                return Err(TestCaseError::fail(format!(
                    "expected Truncated, got {other:?}"
                )))
            }
        }
    }
}

// Deterministic corruption coverage over a real file on disk.

fn valid_file(dir: &TempDir) -> std::path::PathBuf {
    let path = dir.file("valid.rsj");
    let slot = codec::slot_bytes_for(3);
    let mut f = PageFile::create(&path, 2048, slot).unwrap();
    let mut buf = Vec::new();
    for i in 0..4u64 {
        let node = node_from(0, &[(i, i, i, i, i)]);
        codec::encode_node(&node, slot, &mut buf).unwrap();
        f.append_page(&buf).unwrap();
    }
    f.flush().unwrap();
    path
}

fn patch(path: &std::path::Path, at: u64, bytes: &[u8]) {
    use std::io::{Seek, SeekFrom, Write};
    let mut f = std::fs::OpenOptions::new().write(true).open(path).unwrap();
    f.seek(SeekFrom::Start(at)).unwrap();
    f.write_all(bytes).unwrap();
}

#[test]
fn bad_magic_on_disk() {
    let dir = TempDir::new("corrupt").unwrap();
    let path = valid_file(&dir);
    patch(&path, 0, b"NOPE");
    assert!(matches!(
        PageFile::open(&path).unwrap_err(),
        StorageError::BadMagic { found } if &found == b"NOPE"
    ));
}

#[test]
fn wrong_version_on_disk() {
    let dir = TempDir::new("corrupt").unwrap();
    let path = valid_file(&dir);
    patch(&path, 4, &999u16.to_le_bytes());
    assert!(matches!(
        PageFile::open(&path).unwrap_err(),
        StorageError::BadVersion { found: 999 }
    ));
}

#[test]
fn page_size_mismatch_is_typed() {
    let dir = TempDir::new("corrupt").unwrap();
    let path = valid_file(&dir);
    let f = PageFile::open(&path).unwrap();
    assert!(f.check_page_bytes(2048).is_ok());
    assert!(matches!(
        f.check_page_bytes(1024).unwrap_err(),
        StorageError::PageSizeMismatch {
            expected: 1024,
            found: 2048
        }
    ));
}

#[test]
fn corrupt_slot_surfaces_on_read() {
    let dir = TempDir::new("corrupt").unwrap();
    let path = valid_file(&dir);
    let mut f = PageFile::open(&path).unwrap();
    // Blow up the entry count of page 1.
    let off = HEADER_BYTES as u64 + f.slot_bytes() as u64 + 4;
    patch(&path, off, &u32::MAX.to_le_bytes());
    let raw = f.read_page(PageId(1)).unwrap();
    assert!(matches!(
        codec::decode_node(&raw).unwrap_err(),
        StorageError::Corrupt(_)
    ));
}
