//! Sequential page-emission writer for bulk-built trees.
//!
//! A bulk loader produces finished pages one at a time, bottom-up, and
//! never revisits one. [`BulkPageWriter`] is the matching write path: an
//! append-order allocator over a [`PageFile`] that encodes each emitted
//! node into one reused scratch buffer and defers everything
//! header-shaped — page count, owner metadata — to
//! [`BulkPageWriter::finish`].
//!
//! The deferral is the crash posture (the same one `prop_crash.rs` pins
//! for the save path): a build that dies mid-emission leaves a header
//! created with `page_count = 0`, so reopening it yields a typed
//! [`StorageError`] instead of a half-built tree. Only a build that
//! reached `finish` — header written last — reads back as a tree.
//!
//! The writer is deliberately dumb about tree structure: callers hand it
//! fully-formed [`DiskNode`]s and are promised consecutive [`PageId`]s
//! (`0, 1, 2, …`) in emission order. The R\*-tree crate's streaming packer
//! relies on exactly that to point parent entries at already-emitted
//! children without ever holding a level in memory.

use std::path::Path;

use crate::codec::{self, DiskNode, EntryFormat, StorageError, META_BYTES};
use crate::file::{PageFile, PageSource};
use crate::PageId;

/// Append-order page writer for streaming bulk builds. See the module
/// docs for the crash posture and the id contract.
pub struct BulkPageWriter {
    file: PageFile,
    scratch: Vec<u8>,
    emitted: u32,
}

impl BulkPageWriter {
    /// Creates (truncating) the target file. `slot_bytes` must hold the
    /// fattest node the build can emit ([`codec::slot_bytes_for_fmt`] over
    /// the node capacity).
    pub fn create_file(
        path: impl AsRef<Path>,
        page_bytes: usize,
        slot_bytes: usize,
        format: EntryFormat,
    ) -> Result<Self, StorageError> {
        Ok(BulkPageWriter {
            file: PageFile::create_with_format(path, page_bytes, slot_bytes, format)?,
            scratch: Vec::new(),
            emitted: 0,
        })
    }

    /// Encodes `node` into the reused scratch buffer and appends it,
    /// returning its [`PageId`] — always `emitted()` at call time: ids are
    /// consecutive in emission order.
    pub fn emit(&mut self, node: &DiskNode) -> Result<PageId, StorageError> {
        let slot = self.file.slot_bytes();
        let format = self.file.entry_format();
        let mut scratch = std::mem::take(&mut self.scratch);
        let res = codec::encode_node_fmt(node, slot, format, &mut scratch)
            .and_then(|()| self.file.allocate(&scratch));
        self.scratch = scratch;
        let id = res?;
        debug_assert_eq!(id.0, self.emitted, "bulk writer must append in order");
        self.emitted += 1;
        Ok(id)
    }

    /// Number of pages emitted so far (also the next page's id).
    #[inline]
    pub fn emitted(&self) -> u32 {
        self.emitted
    }

    /// The on-disk entry format of the target file.
    #[inline]
    pub fn format(&self) -> EntryFormat {
        self.file.entry_format()
    }

    /// Installs the owner metadata and persists the header — the *only*
    /// point at which the file becomes openable. Returns the flushed file
    /// so callers can immediately reopen or serve it.
    pub fn finish(mut self, meta: [u8; META_BYTES]) -> Result<PageFile, StorageError> {
        self.file.set_meta(meta);
        self.file.flush()?;
        Ok(self.file)
    }

    /// Abandons the build without flushing: the target stays unopenable
    /// (the crash posture), which is also what dropping the writer does.
    /// Explicit so tests can name the intent.
    pub fn abandon(self) -> PageFile {
        self.file
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::DiskEntry;
    use crate::temp::TempDir;

    fn leaf(ids: std::ops::Range<u64>) -> DiskNode {
        DiskNode {
            level: 0,
            entries: ids
                .map(|i| DiskEntry {
                    rect: [i as f64, 0.0, i as f64 + 1.0, 1.0],
                    child: i,
                })
                .collect(),
        }
    }

    fn dir(level: u32, children: &[PageId]) -> DiskNode {
        DiskNode {
            level,
            entries: children
                .iter()
                .map(|p| DiskEntry {
                    rect: [0.0, 0.0, 10.0, 10.0],
                    child: u64::from(p.0),
                })
                .collect(),
        }
    }

    #[test]
    fn emits_consecutive_ids_and_finishes_openable() {
        let tmp = TempDir::new("bulk-writer").unwrap();
        let path = tmp.file("b.rsj");
        let slot = codec::slot_bytes_for_fmt(4, EntryFormat::F64);
        let mut w = BulkPageWriter::create_file(&path, 256, slot, EntryFormat::F64).unwrap();
        let a = w.emit(&leaf(0..3)).unwrap();
        let b = w.emit(&leaf(3..6)).unwrap();
        assert_eq!((a, b), (PageId(0), PageId(1)));
        let root = w.emit(&dir(1, &[a, b])).unwrap();
        assert_eq!(root, PageId(2));
        assert_eq!(w.emitted(), 3);
        let file = w.finish([7u8; META_BYTES]).unwrap();
        assert_eq!(file.page_count(), 3);
        drop(file);

        let mut back = PageFile::open(&path).unwrap();
        assert_eq!(back.page_count(), 3);
        assert_eq!(back.meta(), &[7u8; META_BYTES]);
        let mut buf = Vec::new();
        back.read_page_into(PageId(2), &mut buf).unwrap();
        match codec::decode_page_fmt(&buf, EntryFormat::F64).unwrap() {
            codec::DiskPage::Node(n) => {
                assert_eq!(n.level, 1);
                assert_eq!(n.entries.len(), 2);
            }
            codec::DiskPage::Free { .. } => panic!("root decoded as free marker"),
        }
    }

    #[test]
    fn unfinished_single_file_reads_as_typed_error() {
        // The crash posture: pages were appended but finish() never ran,
        // so the header still says zero pages and the file length no
        // longer matches it — a typed error on open, never a tree.
        let tmp = TempDir::new("bulk-writer").unwrap();
        let path = tmp.file("crash.rsj");
        let slot = codec::slot_bytes_for_fmt(4, EntryFormat::F64);
        let mut w = BulkPageWriter::create_file(&path, 256, slot, EntryFormat::F64).unwrap();
        w.emit(&leaf(0..3)).unwrap();
        w.emit(&leaf(3..6)).unwrap();
        drop(w.abandon()); // no finish, no flush

        match PageFile::open(&path) {
            Ok(f) => assert_eq!(f.page_count(), 0, "unflushed pages must stay invisible"),
            Err(e) => {
                let _typed: StorageError = e; // any typed error is fine
            }
        }
    }
}
