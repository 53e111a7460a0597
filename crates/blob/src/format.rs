//! The blob wire format and its writer.
//!
//! A blob is one flat file:
//!
//! ```text
//! ┌────────────────────────────┐ 0
//! │ header (64 bytes)          │   magic, version, endianness marker,
//! │                            │   flags, section/model counts,
//! │                            │   payload length, FNV-1a fingerprint
//! ├────────────────────────────┤ 64
//! │ section table              │   24 bytes per section:
//! │                            │   tag, element type, offset, count
//! ├────────────────────────────┤ align64
//! │ section data …             │   each section 64-byte-aligned:
//! │                            │   one SoA node slab each
//! └────────────────────────────┘
//! ```
//!
//! The header fingerprint is FNV-1a over the **whole file** with the
//! fingerprint field itself read as zero (see [`blob_fingerprint`]), so
//! every byte — header fields and alignment padding included — is
//! authenticated. Every integer and float is written little-endian and
//! read back with explicit little-endian decodes, so the bytes mean the
//! same on any host; the header's endianness marker rejects a file
//! whose bytes some other writer swapped. Section offsets are multiples
//! of 64 from the start of the file (one cache line; readers still
//! require it, though they decode rather than reinterpret the slabs).
//!
//! Models are encoded as a pre-order walk: each model owns a block of
//! sections tagged `model_index << 8 | section_kind`, and a stacked
//! ensemble is followed by its meta-learner, then its members, in
//! order. Each section is one `CompiledModel` vector in little-endian
//! order (`bool`s as bytes, ragged cuts and weights flattened behind
//! prefix-sum offsets), so a writer is a handful of `extend_from_slice`
//! calls and a reader one decoding pass per section.

use flaml_serve::{ArtifactError, CompiledLinear, CompiledModel};
use flaml_store::{atomic_write_file, create_parent_dir, Fnv1a, Storage};
use std::path::Path;

/// Magic bytes opening every blob file.
pub const BLOB_MAGIC: [u8; 8] = *b"FLMLBLOB";

/// Blob format version this build writes and reads.
pub const BLOB_VERSION: u32 = 1;

/// Alignment (bytes) of every section offset — one x86 cache line, and
/// a multiple of every slab element.
pub const BLOB_ALIGN: usize = 64;

/// Endianness sentinel, stored little-endian; any other byte order
/// reads back as a different value.
pub const ENDIAN_MARK: u32 = 0x0A0B_0C0D;

/// Header flag: tree nodes are stored in hot-first (per-tree BFS)
/// order. Only older builds wrote it; readers still accept it, since a
/// permuted slab with forward children predicts exactly the same bits.
pub const FLAG_HOT_FIRST: u32 = 1;

/// Header flag: at least one threshold/cut section is stored as `f32`.
/// Only set when every value in the quantized section round-trips
/// `f64 → f32 → f64` bit-exactly, so widening reads reproduce the
/// original doubles.
pub const FLAG_QUANTIZED: u32 = 1 << 1;

pub(crate) const HEADER_LEN: usize = 64;
pub(crate) const SECTION_ENTRY_LEN: usize = 24;
pub(crate) const KNOWN_FLAGS: u32 = FLAG_HOT_FIRST | FLAG_QUANTIZED;

/// Section element types (the `elem` field of a table entry).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Elem {
    U8,
    U32,
    U64,
    F32,
    F64,
}

impl Elem {
    pub(crate) fn code(self) -> u32 {
        match self {
            Elem::U8 => 1,
            Elem::U32 => 2,
            Elem::U64 => 3,
            Elem::F32 => 4,
            Elem::F64 => 5,
        }
    }

    pub(crate) fn from_code(code: u32) -> Option<Elem> {
        Some(match code {
            1 => Elem::U8,
            2 => Elem::U32,
            3 => Elem::U64,
            4 => Elem::F32,
            5 => Elem::F64,
            _ => return None,
        })
    }

    pub(crate) fn size(self) -> usize {
        match self {
            Elem::U8 => 1,
            Elem::U32 | Elem::F32 => 4,
            Elem::U64 | Elem::F64 => 8,
        }
    }
}

// Section kinds (low 8 bits of a section tag; high 24 bits are the
// model index in pre-order).
pub(crate) const KIND_META: u32 = 0;
pub(crate) const KIND_TREE_ROOTS: u32 = 1;
pub(crate) const KIND_FEATURE: u32 = 2;
pub(crate) const KIND_THRESHOLD: u32 = 3;
pub(crate) const KIND_LEFT: u32 = 4;
pub(crate) const KIND_RIGHT: u32 = 5;
pub(crate) const KIND_LEAF_VALUE: u32 = 6;
pub(crate) const KIND_IS_LEAF: u32 = 7;
pub(crate) const KIND_VALUES: u32 = 8;
pub(crate) const KIND_CUTS_OFFSETS: u32 = 9;
pub(crate) const KIND_CUTS_VALUES: u32 = 10;
pub(crate) const KIND_INIT_SCORES: u32 = 11;
pub(crate) const KIND_ENCODINGS: u32 = 12;
pub(crate) const KIND_WEIGHTS_OFFSETS: u32 = 13;
pub(crate) const KIND_WEIGHTS_VALUES: u32 = 14;

// Model kinds (first word of a META stream).
pub(crate) const MODEL_GBDT: u64 = 0;
pub(crate) const MODEL_FOREST: u64 = 1;
pub(crate) const MODEL_LINEAR: u64 = 2;
pub(crate) const MODEL_STACKED: u64 = 3;

// Task encoding in a META stream: (tag, k).
pub(crate) const TASK_REGRESSION: u64 = 0;
pub(crate) const TASK_BINARY: u64 = 1;
pub(crate) const TASK_MULTICLASS: u64 = 2;

// Encoding tags in an ENCODINGS triple stream.
pub(crate) const ENC_NUMERIC: f64 = 0.0;
pub(crate) const ENC_ONE_HOT: f64 = 1.0;

pub(crate) fn section_tag(model: u32, kind: u32) -> u32 {
    (model << 8) | kind
}

/// The integrity fingerprint of a whole blob file: FNV-1a over every
/// byte with the 8-byte fingerprint field itself read as zero. Covering
/// the *entire* file — header fields and alignment padding included —
/// means any single flipped bit that the magic/version/endianness
/// probes don't catch is caught here; there is no unauthenticated byte.
pub fn blob_fingerprint(bytes: &[u8]) -> u64 {
    debug_assert!(bytes.len() >= HEADER_LEN);
    Fnv1a::new()
        .update(&bytes[..40])
        .update(&[0u8; 8])
        .update(&bytes[48..])
        .finish()
}

/// Layout choices for [`encode_blob`]. Off by default, and guaranteed
/// not to change a single predicted bit: quantization only happens
/// when it is exact. (Node order is not a choice: the evaluator walks
/// an in-memory table, so the on-disk order buys no speed.)
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BlobOptions {
    /// Store forest thresholds and gbdt bin cuts as `f32` — halving
    /// those slabs — when (and only when) every value round-trips
    /// `f64 → f32 → f64` bit-exactly. Slabs with any non-round-tripping
    /// value stay `f64`.
    pub quantize: bool,
}

impl BlobOptions {
    /// The layout the server and exporters write: exact-only
    /// quantization on.
    pub fn tuned() -> BlobOptions {
        BlobOptions { quantize: true }
    }
}

/// Whether every value survives `f64 → f32 → f64` with identical bits
/// (the gate for writing a quantized section).
pub(crate) fn f32_round_trips(values: &[f64]) -> bool {
    values
        .iter()
        .all(|&v| (f64::from(v as f32)).to_bits() == v.to_bits())
}

fn task_words(task: flaml_data::Task) -> (u64, u64) {
    match task {
        flaml_data::Task::Regression => (TASK_REGRESSION, 0),
        flaml_data::Task::Binary => (TASK_BINARY, 0),
        flaml_data::Task::MultiClass(k) => (TASK_MULTICLASS, k as u64),
    }
}

struct SectionOut {
    tag: u32,
    elem: Elem,
    count: u64,
    bytes: Vec<u8>,
}

struct Writer {
    opts: BlobOptions,
    sections: Vec<SectionOut>,
    next_model: u32,
    flags: u32,
}

impl Writer {
    fn alloc_model(&mut self) -> u32 {
        let idx = self.next_model;
        self.next_model += 1;
        idx
    }

    fn push_u8s(&mut self, model: u32, kind: u32, values: &[u8]) {
        self.sections.push(SectionOut {
            tag: section_tag(model, kind),
            elem: Elem::U8,
            count: values.len() as u64,
            bytes: values.to_vec(),
        });
    }

    fn push_u32s(&mut self, model: u32, kind: u32, values: &[u32]) {
        let mut bytes = Vec::with_capacity(values.len() * 4);
        for v in values {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        self.sections.push(SectionOut {
            tag: section_tag(model, kind),
            elem: Elem::U32,
            count: values.len() as u64,
            bytes,
        });
    }

    fn push_u64s(&mut self, model: u32, kind: u32, values: &[u64]) {
        let mut bytes = Vec::with_capacity(values.len() * 8);
        for v in values {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        self.sections.push(SectionOut {
            tag: section_tag(model, kind),
            elem: Elem::U64,
            count: values.len() as u64,
            bytes,
        });
    }

    fn push_f64s(&mut self, model: u32, kind: u32, values: &[f64]) {
        let mut bytes = Vec::with_capacity(values.len() * 8);
        for v in values {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        self.sections.push(SectionOut {
            tag: section_tag(model, kind),
            elem: Elem::F64,
            count: values.len() as u64,
            bytes,
        });
    }

    /// Writes a float slab as `f32` when quantization is on and exact,
    /// `f64` otherwise.
    fn push_floats(&mut self, model: u32, kind: u32, values: &[f64]) {
        if self.opts.quantize && f32_round_trips(values) {
            let mut bytes = Vec::with_capacity(values.len() * 4);
            for &v in values {
                bytes.extend_from_slice(&(v as f32).to_le_bytes());
            }
            self.flags |= FLAG_QUANTIZED;
            self.sections.push(SectionOut {
                tag: section_tag(model, kind),
                elem: Elem::F32,
                count: values.len() as u64,
                bytes,
            });
        } else {
            self.push_f64s(model, kind, values);
        }
    }

    fn bools_as_bytes(values: &[bool]) -> Vec<u8> {
        values.iter().map(|&b| u8::from(b)).collect()
    }

    fn encode_model(&mut self, model: &CompiledModel) {
        match model {
            CompiledModel::Gbdt(m) => {
                let idx = self.alloc_model();
                let (task_tag, task_k) = task_words(m.task);
                self.push_u64s(
                    idx,
                    KIND_META,
                    &[
                        MODEL_GBDT,
                        task_tag,
                        task_k,
                        m.cuts.len() as u64,
                        m.n_groups as u64,
                    ],
                );
                self.push_f64s(idx, KIND_INIT_SCORES, &m.init_scores);
                let mut cuts_offsets = Vec::with_capacity(m.cuts.len() + 1);
                let mut cuts_values = Vec::new();
                cuts_offsets.push(0u64);
                for feature_cuts in &m.cuts {
                    cuts_values.extend_from_slice(feature_cuts);
                    cuts_offsets.push(cuts_values.len() as u64);
                }
                self.push_u64s(idx, KIND_CUTS_OFFSETS, &cuts_offsets);
                self.push_floats(idx, KIND_CUTS_VALUES, &cuts_values);
                self.push_u32s(idx, KIND_TREE_ROOTS, &m.tree_roots);
                self.push_u32s(idx, KIND_FEATURE, &m.feature);
                self.push_u32s(idx, KIND_THRESHOLD, &m.threshold);
                self.push_u32s(idx, KIND_LEFT, &m.left);
                self.push_u32s(idx, KIND_RIGHT, &m.right);
                self.push_f64s(idx, KIND_LEAF_VALUE, &m.leaf_value);
                self.push_u8s(idx, KIND_IS_LEAF, &Self::bools_as_bytes(&m.is_leaf));
            }
            CompiledModel::Forest(m) => {
                let idx = self.alloc_model();
                let (task_tag, task_k) = task_words(m.task);
                self.push_u64s(
                    idx,
                    KIND_META,
                    &[
                        MODEL_FOREST,
                        task_tag,
                        task_k,
                        m.n_features as u64,
                        m.leaf_width as u64,
                    ],
                );
                self.push_u32s(idx, KIND_TREE_ROOTS, &m.tree_roots);
                self.push_u32s(idx, KIND_FEATURE, &m.feature);
                self.push_floats(idx, KIND_THRESHOLD, &m.threshold);
                self.push_u32s(idx, KIND_LEFT, &m.left);
                self.push_u32s(idx, KIND_RIGHT, &m.right);
                self.push_u8s(idx, KIND_IS_LEAF, &Self::bools_as_bytes(&m.is_leaf));
                self.push_f64s(idx, KIND_VALUES, &m.values);
            }
            CompiledModel::Linear(m) => self.encode_linear(m),
            CompiledModel::Stacked(m) => {
                let idx = self.alloc_model();
                let (task_tag, task_k) = task_words(m.task);
                self.push_u64s(
                    idx,
                    KIND_META,
                    &[MODEL_STACKED, task_tag, task_k, m.members.len() as u64],
                );
                // Pre-order: the meta-learner immediately follows the
                // ensemble node, then the members in ensemble order.
                self.encode_linear(&m.meta);
                for member in &m.members {
                    self.encode_model(member);
                }
            }
        }
    }

    fn encode_linear(&mut self, m: &CompiledLinear) {
        let idx = self.alloc_model();
        let (task_tag, task_k) = task_words(m.task);
        self.push_u64s(
            idx,
            KIND_META,
            &[
                MODEL_LINEAR,
                task_tag,
                task_k,
                m.y_mean.to_bits(),
                m.y_std.to_bits(),
                m.encodings.len() as u64,
                m.weights.len() as u64,
            ],
        );
        let mut encodings = Vec::with_capacity(m.encodings.len() * 3);
        for enc in &m.encodings {
            match enc {
                flaml_learners::Encoding::Numeric { mean, std } => {
                    encodings.extend_from_slice(&[ENC_NUMERIC, *mean, *std]);
                }
                flaml_learners::Encoding::OneHot { cardinality } => {
                    encodings.extend_from_slice(&[ENC_ONE_HOT, *cardinality as f64, 0.0]);
                }
            }
        }
        self.push_f64s(idx, KIND_ENCODINGS, &encodings);
        let mut offsets = Vec::with_capacity(m.weights.len() + 1);
        let mut values = Vec::new();
        offsets.push(0u64);
        for group in &m.weights {
            values.extend_from_slice(group);
            offsets.push(values.len() as u64);
        }
        self.push_u64s(idx, KIND_WEIGHTS_OFFSETS, &offsets);
        self.push_f64s(idx, KIND_WEIGHTS_VALUES, &values);
    }
}

fn align_up(v: usize, align: usize) -> usize {
    v.div_ceil(align) * align
}

/// Encodes `model` into blob bytes. The encoding is deterministic:
/// identical model and options produce identical bytes (and therefore
/// an identical fingerprint).
pub fn encode_blob(model: &CompiledModel, opts: BlobOptions) -> Vec<u8> {
    let mut w = Writer {
        opts,
        sections: Vec::new(),
        next_model: 0,
        flags: 0,
    };
    w.encode_model(model);

    let table_len = w.sections.len() * SECTION_ENTRY_LEN;
    let mut data_off = align_up(HEADER_LEN + table_len, BLOB_ALIGN);
    let mut offsets = Vec::with_capacity(w.sections.len());
    for s in &w.sections {
        offsets.push(data_off as u64);
        data_off = align_up(data_off + s.bytes.len(), BLOB_ALIGN);
    }
    let file_len = data_off;

    let mut out = vec![0u8; file_len];
    out[0..8].copy_from_slice(&BLOB_MAGIC);
    out[8..12].copy_from_slice(&BLOB_VERSION.to_le_bytes());
    out[12..16].copy_from_slice(&ENDIAN_MARK.to_le_bytes());
    out[16..20].copy_from_slice(&w.flags.to_le_bytes());
    out[20..24].copy_from_slice(&(w.sections.len() as u32).to_le_bytes());
    out[24..28].copy_from_slice(&w.next_model.to_le_bytes());
    out[32..40].copy_from_slice(&((file_len - HEADER_LEN) as u64).to_le_bytes());

    for (i, (s, off)) in w.sections.iter().zip(&offsets).enumerate() {
        let at = HEADER_LEN + i * SECTION_ENTRY_LEN;
        out[at..at + 4].copy_from_slice(&s.tag.to_le_bytes());
        out[at + 4..at + 8].copy_from_slice(&s.elem.code().to_le_bytes());
        out[at + 8..at + 16].copy_from_slice(&off.to_le_bytes());
        out[at + 16..at + 24].copy_from_slice(&s.count.to_le_bytes());
        let start = *off as usize;
        out[start..start + s.bytes.len()].copy_from_slice(&s.bytes);
    }

    // The fingerprint field is still zero here, so hashing the buffer
    // as-is gives exactly the zeroed-field fingerprint the reader
    // recomputes.
    let fp = Fnv1a::new().update(&out).finish();
    out[40..48].copy_from_slice(&fp.to_le_bytes());
    out
}

/// Encodes `model` and writes it to `path` on the local disk
/// (atomically: temp file, fsync, rename, parent-dir fsync), returning
/// the blob's payload fingerprint.
///
/// # Errors
///
/// Returns [`ArtifactError::Storage`] on persistence failures.
pub fn save_blob(
    model: &CompiledModel,
    path: impl AsRef<Path>,
    opts: BlobOptions,
) -> Result<u64, ArtifactError> {
    save_blob_with(flaml_store::disk().as_ref(), path.as_ref(), model, opts)
}

/// [`save_blob`] against an explicit [`Storage`] — the write goes
/// through the storage's fault-injection surface, so chaos sweeps cover
/// blob publication exactly like every other durable write.
///
/// # Errors
///
/// Returns [`ArtifactError::Storage`] on persistence failures.
pub fn save_blob_with(
    storage: &dyn Storage,
    path: &Path,
    model: &CompiledModel,
    opts: BlobOptions,
) -> Result<u64, ArtifactError> {
    create_parent_dir(storage, path)?;
    let bytes = encode_blob(model, opts);
    let fp = blob_fingerprint(&bytes);
    atomic_write_file(storage, path, &bytes)?;
    Ok(fp)
}
