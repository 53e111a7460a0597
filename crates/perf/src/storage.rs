//! A counting [`Storage`] wrapper: every durable operation the stack
//! performs is tallied, and the fsync itself is elided.
//!
//! The benchmark may write only inside its checkout, which is a real
//! disk on a shared host. There an fsync is the noisiest thing in the
//! system (an lr-only journaled search measured 1.04–1.06 s with its
//! journal on tmpfs and 1.75–1.98 s on disk) and says nothing about
//! the code. So durability work is *counted* — `store.fsyncs` must
//! repeat exactly from run to run, and a change that adds or removes
//! a sync shows up there — while the device wait is left out of every
//! timed region.

use flaml_store::{DiskStorage, Storage, StorageError, StorageFile};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Tallies shared by a [`CountingStorage`] and the files it opened.
#[derive(Debug, Default)]
pub struct StoreCounts {
    fsyncs: AtomicU64,
    renames: AtomicU64,
    bytes_written: AtomicU64,
}

/// A point-in-time copy of [`StoreCounts`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreSnapshot {
    /// File and directory syncs requested.
    pub fsyncs: u64,
    /// Renames (atomic publishes and quarantines).
    pub renames: u64,
    /// Bytes handed to `write_all`.
    pub bytes_written: u64,
}

impl StoreCounts {
    /// The counts right now.
    pub fn snapshot(&self) -> StoreSnapshot {
        StoreSnapshot {
            fsyncs: self.fsyncs.load(Ordering::Relaxed),
            renames: self.renames.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
        }
    }
}

/// [`DiskStorage`] with every sync counted and skipped (module docs).
#[derive(Debug, Default)]
pub struct CountingStorage {
    disk: DiskStorage,
    counts: Arc<StoreCounts>,
}

impl CountingStorage {
    /// A fresh wrapper with zeroed counts.
    pub fn new() -> CountingStorage {
        CountingStorage::default()
    }

    /// The shared tallies.
    pub fn counts(&self) -> Arc<StoreCounts> {
        Arc::clone(&self.counts)
    }
}

#[derive(Debug)]
struct CountingFile {
    inner: Box<dyn StorageFile>,
    counts: Arc<StoreCounts>,
}

impl StorageFile for CountingFile {
    fn write_all(&mut self, buf: &[u8]) -> Result<(), StorageError> {
        self.counts
            .bytes_written
            .fetch_add(buf.len() as u64, Ordering::Relaxed);
        self.inner.write_all(buf)
    }

    fn sync_data(&mut self) -> Result<(), StorageError> {
        self.counts.fsyncs.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    fn truncate(&mut self, len: u64) -> Result<(), StorageError> {
        self.inner.truncate(len)
    }
}

impl CountingStorage {
    fn wrap(&self, file: Box<dyn StorageFile>) -> Box<dyn StorageFile> {
        Box::new(CountingFile {
            inner: file,
            counts: Arc::clone(&self.counts),
        })
    }
}

impl Storage for CountingStorage {
    fn create(&self, path: &Path) -> Result<Box<dyn StorageFile>, StorageError> {
        Ok(self.wrap(self.disk.create(path)?))
    }

    fn append(&self, path: &Path) -> Result<Box<dyn StorageFile>, StorageError> {
        Ok(self.wrap(self.disk.append(path)?))
    }

    fn read(&self, path: &Path) -> Result<Vec<u8>, StorageError> {
        self.disk.read(path)
    }

    fn file_len(&self, path: &Path) -> Result<u64, StorageError> {
        self.disk.file_len(path)
    }

    fn truncate_file(&self, path: &Path, len: u64) -> Result<(), StorageError> {
        // DiskStorage::truncate_file syncs; truncate without it.
        self.counts.fsyncs.fetch_add(1, Ordering::Relaxed);
        let mut file = self.disk.append(path)?;
        file.truncate(len)
    }

    fn rename(&self, from: &Path, to: &Path) -> Result<(), StorageError> {
        self.counts.renames.fetch_add(1, Ordering::Relaxed);
        self.disk.rename(from, to)
    }

    fn remove(&self, path: &Path) -> Result<(), StorageError> {
        self.disk.remove(path)
    }

    fn create_dir_all(&self, dir: &Path) -> Result<(), StorageError> {
        self.disk.create_dir_all(dir)
    }

    fn sync_dir(&self, _dir: &Path) -> Result<(), StorageError> {
        self.counts.fsyncs.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    fn scan(&self, dir: &Path) -> Result<Vec<PathBuf>, StorageError> {
        self.disk.scan(dir)
    }

    fn exists(&self, path: &Path) -> bool {
        self.disk.exists(path)
    }

    fn is_dir(&self, path: &Path) -> bool {
        self.disk.is_dir(path)
    }

    // Reads are not intercepted, so blobs may be mapped straight from
    // the file exactly as under production storage.
    fn mmap_source(&self, path: &Path) -> Option<PathBuf> {
        self.disk.mmap_source(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flaml_store::atomic_write_file;

    #[test]
    fn an_atomic_publish_is_two_syncs_one_rename() {
        let dir = crate::state::scratch_dir("storage-test");
        let storage = CountingStorage::new();
        let counts = storage.counts();
        let path = dir.join("out.bin");
        atomic_write_file(&storage, &path, &[7u8; 4096]).expect("publish");
        assert_eq!(
            counts.snapshot(),
            StoreSnapshot {
                fsyncs: 2, // temp file + parent directory
                renames: 1,
                bytes_written: 4096,
            }
        );
        assert_eq!(std::fs::read(&path).expect("read back"), vec![7u8; 4096]);

        // Appends and truncation count too; reads do not.
        let mut file = storage.append(&path).expect("append");
        file.write_all(b"tail").expect("write");
        file.sync_data().expect("sync");
        drop(file);
        storage.truncate_file(&path, 10).expect("truncate");
        assert_eq!(storage.file_len(&path).expect("len"), 10);
        assert_eq!(storage.read(&path).expect("read").len(), 10);
        assert_eq!(
            counts.snapshot(),
            StoreSnapshot {
                fsyncs: 4,
                renames: 1,
                bytes_written: 4100,
            }
        );
        assert_eq!(storage.mmap_source(&path), Some(path.clone()));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
