//! Production storage: plain filesystem I/O with `ENOSPC` detection.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use crate::error::{is_enospc, StorageError};
use crate::{Storage, StorageFile};

/// The production [`Storage`]: real files, real fsyncs. The only value
/// it adds over calling `std::fs` directly is uniform error typing —
/// every failure is tagged with the operation and path, and `ENOSPC`
/// is lifted into [`StorageError::NoSpace`] so callers can map it to a
/// structured "out of space" response instead of a generic 500.
#[derive(Debug, Clone, Copy, Default)]
pub struct DiskStorage;

fn io_err(op: &'static str, path: &Path, source: io::Error) -> StorageError {
    if is_enospc(&source) {
        StorageError::NoSpace {
            path: path.to_path_buf(),
            injected: false,
        }
    } else {
        StorageError::Io {
            op,
            path: path.to_path_buf(),
            source,
        }
    }
}

/// A [`StorageFile`] backed by a real [`File`].
#[derive(Debug)]
struct DiskFile {
    file: File,
    path: PathBuf,
}

impl StorageFile for DiskFile {
    fn write_all(&mut self, buf: &[u8]) -> Result<(), StorageError> {
        self.file
            .write_all(buf)
            .map_err(|e| io_err("write", &self.path, e))
    }

    fn sync_data(&mut self) -> Result<(), StorageError> {
        self.file.sync_data().map_err(|e| {
            if is_enospc(&e) {
                StorageError::NoSpace {
                    path: self.path.clone(),
                    injected: false,
                }
            } else {
                StorageError::SyncFailed {
                    path: self.path.clone(),
                    detail: e.to_string(),
                    injected: false,
                }
            }
        })
    }

    fn truncate(&mut self, len: u64) -> Result<(), StorageError> {
        self.file
            .set_len(len)
            .map_err(|e| io_err("truncate", &self.path, e))
    }
}

impl Storage for DiskStorage {
    fn mmap_source(&self, path: &Path) -> Option<std::path::PathBuf> {
        Some(path.to_path_buf())
    }

    fn create(&self, path: &Path) -> Result<Box<dyn StorageFile>, StorageError> {
        let file = File::create(path).map_err(|e| io_err("create", path, e))?;
        Ok(Box::new(DiskFile {
            file,
            path: path.to_path_buf(),
        }))
    }

    fn append(&self, path: &Path) -> Result<Box<dyn StorageFile>, StorageError> {
        let file = OpenOptions::new()
            .append(true)
            .open(path)
            .map_err(|e| io_err("append", path, e))?;
        Ok(Box::new(DiskFile {
            file,
            path: path.to_path_buf(),
        }))
    }

    fn read(&self, path: &Path) -> Result<Vec<u8>, StorageError> {
        fs::read(path).map_err(|e| io_err("read", path, e))
    }

    fn file_len(&self, path: &Path) -> Result<u64, StorageError> {
        fs::metadata(path)
            .map(|m| m.len())
            .map_err(|e| io_err("stat", path, e))
    }

    fn truncate_file(&self, path: &Path, len: u64) -> Result<(), StorageError> {
        let file = OpenOptions::new()
            .write(true)
            .open(path)
            .map_err(|e| io_err("open-truncate", path, e))?;
        file.set_len(len).map_err(|e| io_err("truncate", path, e))?;
        file.sync_data().map_err(|e| StorageError::SyncFailed {
            path: path.to_path_buf(),
            detail: e.to_string(),
            injected: false,
        })
    }

    fn rename(&self, from: &Path, to: &Path) -> Result<(), StorageError> {
        fs::rename(from, to).map_err(|e| io_err("rename", from, e))
    }

    fn remove(&self, path: &Path) -> Result<(), StorageError> {
        fs::remove_file(path).map_err(|e| io_err("remove", path, e))
    }

    fn create_dir_all(&self, dir: &Path) -> Result<(), StorageError> {
        fs::create_dir_all(dir).map_err(|e| io_err("mkdir", dir, e))
    }

    fn sync_dir(&self, dir: &Path) -> Result<(), StorageError> {
        // Durability of a rename requires fsyncing the parent directory;
        // on platforms where directories cannot be opened for sync this
        // degrades to a no-op error we surface rather than hide.
        let file = File::open(dir).map_err(|e| io_err("sync-dir", dir, e))?;
        file.sync_all().map_err(|e| StorageError::SyncFailed {
            path: dir.to_path_buf(),
            detail: e.to_string(),
            injected: false,
        })
    }

    fn scan(&self, dir: &Path) -> Result<Vec<PathBuf>, StorageError> {
        if !dir.is_dir() {
            return Ok(Vec::new());
        }
        let rd = fs::read_dir(dir).map_err(|e| io_err("scan", dir, e))?;
        let mut out = Vec::new();
        for entry in rd {
            let entry = entry.map_err(|e| io_err("scan", dir, e))?;
            out.push(entry.path());
        }
        out.sort();
        Ok(out)
    }

    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }

    fn is_dir(&self, path: &Path) -> bool {
        path.is_dir()
    }
}
