//! A dependency-free temporary-directory helper.
//!
//! The build environment has no crate registry, so the usual `tempfile`
//! crate is unavailable; tests and benches that need scratch files use
//! this minimal stand-in instead. Directories are created under the
//! system temp dir with a collision-checked unique name and removed on
//! drop (best effort — a failing cleanup never panics a test that already
//! passed).

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

static COUNTER: AtomicU64 = AtomicU64::new(0);

/// A uniquely-named directory under `std::env::temp_dir()`, deleted
/// recursively when dropped.
#[derive(Debug)]
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    /// Creates `"<tmp>/rsj-<prefix>-<pid>-<n>"`, retrying on the (only
    /// theoretically possible) collision.
    pub fn new(prefix: &str) -> std::io::Result<Self> {
        let base = std::env::temp_dir();
        let pid = std::process::id();
        loop {
            let n = COUNTER.fetch_add(1, Ordering::Relaxed);
            let path = base.join(format!("rsj-{prefix}-{pid}-{n}"));
            match std::fs::create_dir(&path) {
                Ok(()) => return Ok(TempDir { path }),
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => continue,
                Err(e) => return Err(e),
            }
        }
    }

    /// The directory path.
    #[inline]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// A path for `name` inside the directory (not created). For nested
    /// layouts, create the parent with [`TempDir::subdir`] first — that
    /// path surfaces mkdir failures instead of deferring them to a
    /// confusing ENOENT at first file use.
    pub fn file(&self, name: &str) -> PathBuf {
        self.path.join(name)
    }

    /// Creates (and returns) a subdirectory `name` — nesting allowed —
    /// for grouping related files (an updatable store may keep original,
    /// updated and freshly-saved twins side by side). Removed recursively
    /// with the rest on drop.
    pub fn subdir(&self, name: &str) -> std::io::Result<PathBuf> {
        let p = self.path.join(name);
        std::fs::create_dir_all(&p)?;
        Ok(p)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Page-file fixtures shared by the unit tests of the file layers.
#[cfg(test)]
pub(crate) mod demo {
    use super::TempDir;
    use crate::codec::{self, META_BYTES};
    use crate::file::{PageFile, PageSource};

    /// An encoded one-entry leaf page whose entry points at child `tag`.
    pub fn payload(tag: u32, slot: usize) -> Vec<u8> {
        let node = codec::DiskNode {
            level: 0,
            entries: vec![codec::DiskEntry {
                rect: [f64::from(tag), 0.0, f64::from(tag) + 1.0, 1.0],
                child: u64::from(tag),
            }],
        };
        let mut buf = Vec::new();
        codec::encode_node(&node, slot, &mut buf).unwrap();
        buf
    }

    /// A flushed 1-KByte-page file of `pages` pages, page `i` holding
    /// [`payload`]`(i)`, metadata all nines.
    pub fn demo_file(dir: &TempDir, name: &str, pages: u32) -> PageFile {
        let slot = codec::slot_bytes_for(2);
        let mut f = PageFile::create(dir.file(name), 1024, slot).unwrap();
        for i in 0..pages {
            f.append_page(&payload(i, slot)).unwrap();
        }
        f.set_meta([9; META_BYTES]);
        f.flush().unwrap();
        f
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn creates_and_cleans_up() {
        let kept;
        {
            let d = TempDir::new("selftest").unwrap();
            kept = d.path().to_path_buf();
            assert!(kept.is_dir());
            std::fs::write(d.file("x.bin"), b"abc").unwrap();
            assert!(d.file("x.bin").is_file());
        }
        assert!(!kept.exists(), "dropped TempDir must be removed");
    }

    #[test]
    fn names_are_unique() {
        let a = TempDir::new("uniq").unwrap();
        let b = TempDir::new("uniq").unwrap();
        assert_ne!(a.path(), b.path());
    }

    #[test]
    fn nested_layouts_are_created_and_cleaned_recursively() {
        let kept;
        {
            let d = TempDir::new("nested").unwrap();
            kept = d.path().to_path_buf();
            let sub = d.subdir("plain/a").unwrap();
            assert!(sub.is_dir());
            std::fs::write(d.file("plain/a/t.rsj"), b"x").unwrap();
            d.subdir("updated").unwrap();
            std::fs::write(d.file("updated/r.rsj"), b"y").unwrap();
            assert!(d.file("updated/r.rsj").is_file());
            // And plain names keep working.
            std::fs::write(d.file("top.bin"), b"z").unwrap();
        }
        assert!(!kept.exists(), "nested layout must be removed with the dir");
    }

    #[test]
    fn subdir_surfaces_mkdir_failures() {
        let d = TempDir::new("nested-err").unwrap();
        std::fs::write(d.file("blocker"), b"not a dir").unwrap();
        assert!(d.subdir("blocker/inner").is_err());
    }
}
