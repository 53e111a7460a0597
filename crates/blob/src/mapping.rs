//! The bytes behind a blob: a read-only memory mapping where the
//! platform supports it, a 64-byte-aligned heap copy everywhere else.
//!
//! The mapping is what buys the format its two serving properties:
//!
//! * **Zero deserialization** — the mapped bytes *are* the node slabs;
//!   opening a model allocates nothing proportional to its size.
//! * **Page-cache sharing** — `mmap(MAP_SHARED, PROT_READ)` of the same
//!   artifact file from N processes resolves to the same physical
//!   pages, so a fleet of serving processes pays for one copy of each
//!   model, not N.
//!
//! The `mmap`/`munmap` calls are declared directly against the C
//! library the Rust standard library already links — no external crate.
//! Blobs are published atomically (temp + fsync + rename) and never
//! mutated in place, so a mapping can never observe a torn file; a
//! replaced artifact is a new inode and existing mappings keep serving
//! the old bytes until dropped.

use crate::format::BLOB_ALIGN;
use flaml_serve::ArtifactError;
use std::path::Path;

/// Read-only bytes backing a blob, aligned to [`BLOB_ALIGN`].
#[derive(Debug)]
pub(crate) struct Mapping {
    inner: MapInner,
}

#[derive(Debug)]
enum MapInner {
    /// A shared read-only file mapping (page-aligned, hence 64-aligned).
    #[cfg(all(unix, target_pointer_width = "64"))]
    Mmap { ptr: *const u8, len: usize },
    /// An owned aligned copy (fallback platforms, `Storage`-mediated
    /// reads under fault injection, and in-memory byte parsing).
    Heap(AlignedBuf),
}

// SAFETY: `Mapping`'s only field holds a raw pointer to bytes that are
// read-only for the mapping's whole lifetime — PROT_READ pages, or an
// owned buffer nothing else can reach — and that this value alone
// releases, once, in `Drop`. Moving it to another thread moves that sole
// ownership with it.
unsafe impl Send for Mapping {}
// SAFETY: shared references hand out `&[u8]` only and nothing mutates
// the bytes through `&self`, so concurrent readers cannot race.
unsafe impl Sync for Mapping {}

impl Mapping {
    /// Maps `path` read-only, falling back to an aligned heap read on
    /// platforms without the mapping path.
    pub(crate) fn from_file(path: &Path) -> Result<Mapping, ArtifactError> {
        #[cfg(all(unix, target_pointer_width = "64"))]
        {
            match map_shared(path) {
                Ok(Some(mapping)) => return Ok(mapping),
                Ok(None) => {} // empty file or mmap refusal: fall through
                Err(e) => return Err(e),
            }
        }
        let bytes = std::fs::read(path)?;
        Ok(Mapping::from_bytes(&bytes))
    }

    /// Copies `bytes` into a 64-byte-aligned heap buffer.
    pub(crate) fn from_bytes(bytes: &[u8]) -> Mapping {
        Mapping {
            inner: MapInner::Heap(AlignedBuf::copy_of(bytes)),
        }
    }

    /// The mapped or copied bytes.
    pub(crate) fn bytes(&self) -> &[u8] {
        match &self.inner {
            #[cfg(all(unix, target_pointer_width = "64"))]
            // SAFETY: `map_shared` got `ptr` from a successful mmap of
            // exactly `len` (> 0) readable bytes, which stay mapped until
            // `Drop`; the returned slice borrows `self`, so it cannot
            // outlive the mapping. Not enforced: the file must not shrink
            // while it is mapped — a read of a page past the new end of
            // file is a SIGBUS, not an error.
            MapInner::Mmap { ptr, len } => unsafe { std::slice::from_raw_parts(*ptr, *len) },
            MapInner::Heap(buf) => buf.bytes(),
        }
    }

    /// Whether the bytes are a shared file mapping (as opposed to an
    /// owned heap copy).
    pub(crate) fn is_mmap(&self) -> bool {
        match &self.inner {
            #[cfg(all(unix, target_pointer_width = "64"))]
            MapInner::Mmap { .. } => true,
            MapInner::Heap(_) => false,
        }
    }
}

impl Drop for Mapping {
    fn drop(&mut self) {
        #[cfg(all(unix, target_pointer_width = "64"))]
        if let MapInner::Mmap { ptr, len } = self.inner {
            if len > 0 {
                // A failed munmap leaks the mapping; nothing safe to do.
                // SAFETY: `ptr`/`len` are exactly what mmap returned, and
                // this runs once, after every slice borrowed from `self`
                // has ended.
                unsafe {
                    let _ = sys::munmap(ptr as *mut std::os::raw::c_void, len);
                }
            }
        }
    }
}

/// A heap buffer whose base pointer is [`BLOB_ALIGN`]-aligned, so slab
/// sections (whose offsets are 64-aligned within the file) reinterpret
/// as `&[u32]` / `&[f64]` exactly like mapped pages do.
#[derive(Debug)]
pub(crate) struct AlignedBuf {
    ptr: *mut u8,
    len: usize,
}

impl AlignedBuf {
    fn copy_of(bytes: &[u8]) -> AlignedBuf {
        let layout = Self::layout(bytes.len());
        // SAFETY: `layout` has a non-zero size (`len.max(1)`) and a
        // valid power-of-two alignment; a null result is handled below.
        let ptr = unsafe { std::alloc::alloc(layout) };
        if ptr.is_null() {
            std::alloc::handle_alloc_error(layout);
        }
        // SAFETY: `ptr` is a fresh allocation of at least `bytes.len()`
        // bytes, so it is valid for the write and cannot overlap `bytes`.
        unsafe {
            std::ptr::copy_nonoverlapping(bytes.as_ptr(), ptr, bytes.len());
        }
        AlignedBuf {
            ptr,
            len: bytes.len(),
        }
    }

    fn layout(len: usize) -> std::alloc::Layout {
        std::alloc::Layout::from_size_align(len.max(1), BLOB_ALIGN).expect("valid blob layout")
    }

    fn bytes(&self) -> &[u8] {
        // SAFETY: `copy_of` initialised all `len` bytes at `ptr`; the
        // buffer is freed only in `Drop`, and the slice borrows `self`.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }
}

impl Drop for AlignedBuf {
    fn drop(&mut self) {
        // SAFETY: `ptr` came from `alloc` with this same layout (a
        // function of `len`, which never changes) and is freed once.
        unsafe { std::alloc::dealloc(self.ptr, Self::layout(self.len)) }
    }
}

#[cfg(all(unix, target_pointer_width = "64"))]
mod sys {
    use std::os::raw::{c_int, c_void};

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

    pub const PROT_READ: c_int = 1;
    pub const MAP_SHARED: c_int = 1;
}

/// Maps `path` with `mmap(PROT_READ, MAP_SHARED)`. `Ok(None)` means the
/// file exists but cannot be mapped (empty, or the kernel refused) and
/// the caller should fall back to a heap read.
#[cfg(all(unix, target_pointer_width = "64"))]
fn map_shared(path: &Path) -> Result<Option<Mapping>, ArtifactError> {
    use std::os::unix::io::AsRawFd;

    let file = std::fs::File::open(path)?;
    let len = file.metadata()?.len();
    if len == 0 {
        return Ok(None);
    }
    let len = usize::try_from(len)
        .map_err(|_| ArtifactError::Layout(format!("blob of {len} bytes exceeds address space")))?;
    // SAFETY: a null hint lets the kernel choose the address, `len` is
    // the file's non-zero length, and the fd is open for reading for the
    // whole call; a failure is checked below and never dereferenced.
    let ptr = unsafe {
        sys::mmap(
            std::ptr::null_mut(),
            len,
            sys::PROT_READ,
            sys::MAP_SHARED,
            file.as_raw_fd(),
            0,
        )
    };
    // The fd can close immediately: the mapping keeps the inode alive.
    if ptr as isize == -1 || ptr.is_null() {
        return Ok(None);
    }
    Ok(Some(Mapping {
        inner: MapInner::Mmap {
            ptr: ptr as *const u8,
            len,
        },
    }))
}
