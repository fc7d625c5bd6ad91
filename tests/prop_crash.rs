//! Crash-shaped corruption on the write path: a file that went through
//! incremental updates (`OpenCachedTree` + `flush`) and is then truncated or
//! bit-flipped — a torn write, a lost tail, a rotted sector — must surface
//! as a typed [`StorageError`] (or a validator failure folded into one),
//! **never** as a panic and never as a structurally broken tree.
//!
//! Two layers of coverage:
//!
//! * deterministic and exhaustive — truncation at *every* byte offset of
//!   the updated file, plus a bit flip at every offset of the header and
//!   the first page slots;
//! * property-based — random bit flips anywhere in the file.
//!
//! A flip landing in coordinate payload can of course produce a different
//! but structurally valid tree (no checksums in the format — detecting
//! that is future work); the contract here is panic-freedom plus
//! structural validity of whatever opens successfully.

use proptest::prelude::*;
use proptest::TestCaseError;
use rsj::prelude::*;
use rsj_storage::TempDir;
use std::path::Path;

/// Builds a small tree, saves it, churns it through an `OpenCachedTree`
/// (inserts, deletes — free-list markers and reused slots included) and
/// returns the flushed file's bytes. Cached: the fixture is
/// deterministic and the property loop below calls this per case.
fn updated_file_bytes() -> Vec<u8> {
    static BYTES: std::sync::OnceLock<Vec<u8>> = std::sync::OnceLock::new();
    BYTES.get_or_init(build_updated_file).clone()
}

fn build_updated_file() -> Vec<u8> {
    let dir = TempDir::new("prop-crash").unwrap();
    let path = dir.file("t.rsj");
    let mut t = RTree::new(RTreeParams::explicit(256, 8, 3, InsertPolicy::RStar));
    let rect = |i: u64| {
        let x = (i % 16) as f64 * 4.0;
        let y = (i / 16) as f64 * 4.0;
        Rect::from_corners(x, y, x + 3.0, y + 3.0)
    };
    for i in 0..120u64 {
        t.insert(rect(i), DataId(i));
    }
    t.save_to(&path).unwrap();
    let mut open = OpenCachedTree::open(&path, 8).unwrap();
    for i in 0..60u64 {
        open.delete(&rect(i * 2 % 120), DataId(i * 2 % 120))
            .unwrap();
    }
    for i in 0..30u64 {
        open.insert(rect(i * 2 % 120), DataId(1000 + i)).unwrap();
    }
    open.close().unwrap();
    assert!(
        RTree::open_from(&path).unwrap().free_page_count() > 0,
        "the fixture must carry free-chain markers"
    );
    std::fs::read(&path).unwrap()
}

/// Opening a corrupted file must return a value — `Ok` of a valid tree or
/// a typed error — and must never panic (a panic fails the test).
fn open_is_total(path: &Path) -> Result<(), String> {
    match RTree::open_from(path) {
        Ok(tree) => tree
            .validate()
            .map_err(|e| format!("opened tree violates invariants: {e}")),
        Err(
            StorageError::Io(_)
            | StorageError::BadMagic { .. }
            | StorageError::BadVersion { .. }
            | StorageError::PageSizeMismatch { .. }
            | StorageError::Truncated { .. }
            | StorageError::NodeTooLarge { .. }
            | StorageError::Corrupt(_),
        ) => Ok(()),
        Err(e @ StorageError::MalformedRect(_)) => Err(format!("open refused an update: {e}")),
    }
}

#[test]
fn truncation_at_every_offset_is_a_typed_error() {
    let bytes = updated_file_bytes();
    let dir = TempDir::new("prop-crash-trunc").unwrap();
    let path = dir.file("cut.rsj");
    for cut in 0..bytes.len() {
        std::fs::write(&path, &bytes[..cut]).unwrap();
        match RTree::open_from(&path) {
            Err(_) => {}
            Ok(_) => panic!("truncation to {cut} of {} bytes opened", bytes.len()),
        }
    }
}

#[test]
fn bit_flips_across_header_and_first_slots_never_panic() {
    let bytes = updated_file_bytes();
    let dir = TempDir::new("prop-crash-flip").unwrap();
    let path = dir.file("flip.rsj");
    // Exhaustive over the structurally dense prefix (header + first
    // slots); every bit of every byte.
    let dense = bytes.len().min(1024);
    for off in 0..dense {
        for bit in 0..8u8 {
            let mut bad = bytes.clone();
            bad[off] ^= 1 << bit;
            std::fs::write(&path, &bad).unwrap();
            if let Err(msg) = open_is_total(&path) {
                panic!("flip at {off} bit {bit}: {msg}");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn random_bit_flips_anywhere_never_panic(
        offs in prop::collection::vec((0usize..usize::MAX, 0u8..8), 1..4),
    ) {
        let bytes = updated_file_bytes();
        let dir = TempDir::new("prop-crash-rand").unwrap();
        let path = dir.file("flip.rsj");
        let mut bad = bytes.clone();
        for &(off, bit) in &offs {
            let off = off % bad.len();
            bad[off] ^= 1 << bit;
        }
        std::fs::write(&path, &bad).unwrap();
        if let Err(msg) = open_is_total(&path) {
            return Err(TestCaseError::fail(msg));
        }
    }
}
