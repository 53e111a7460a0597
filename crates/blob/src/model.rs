//! Opening and serving a blob: validate once, then predict straight
//! off the blob's bytes.
//!
//! [`BlobModel::open`] does all the work the format ever requires:
//! header checks (magic, version, endianness, flags), an FNV-1a
//! fingerprint pass over the whole file, and a structural walk that proves
//! every section the model graph references is present, aligned and
//! in-bounds, then the same [`ModelView::check`] the JSON loader runs
//! (consistent slab lengths, child indices strictly increase so tree
//! evaluation provably terminates). What it does
//! *not* do is deserialize: the parsed representation is a tree of
//! section descriptors — offsets and counts into the bytes — and
//! [`BlobModel::view`] turns those into borrowed slices feeding the
//! same [`ModelView`] evaluator that owned [`CompiledModel`]s use.
//! Every rejection is a typed [`ArtifactError`]; no input bytes can
//! make `open` panic or `predict` loop.

use crate::format::{self, Elem, BLOB_ALIGN};
use flaml_data::{DatasetView, Task};
use flaml_learners::Encoding;
use flaml_metrics::Pred;
use flaml_serve::{
    ArtifactError, CompiledLinear, CompiledModel, CutsRef, FloatSlab, ForestView, GbdtView,
    LeafFlags, ModelView, Servable, Tables,
};
use flaml_store::Storage;
use std::borrow::Cow;
use std::collections::HashMap;
use std::io::{self, Read};
use std::path::Path;
use std::sync::OnceLock;

/// Stacked ensembles deeper than this are rejected at open — far above
/// anything the search produces, low enough that a crafted file cannot
/// recurse the parser off the stack.
const MAX_STACK_DEPTH: usize = 32;

fn layout(msg: impl Into<String>) -> ArtifactError {
    ArtifactError::Layout(msg.into())
}

/// A validated section: `count` elements starting `off` bytes into the
/// file. Ranges, not slices — the bytes and their views live in the
/// same struct, so views are minted on demand instead of self-borrowed.
#[derive(Debug, Clone, Copy)]
struct Slab {
    off: usize,
    count: usize,
}

/// A float slab plus the precision it was stored at.
#[derive(Debug, Clone, Copy)]
struct FloatRange {
    slab: Slab,
    quantized: bool,
}

#[derive(Debug)]
struct GbdtNode {
    task: Task,
    n_groups: usize,
    init_scores: Slab,
    cuts_offsets: Slab,
    cuts_values: FloatRange,
    tree_roots: Slab,
    feature: Slab,
    threshold: Slab,
    left: Slab,
    right: Slab,
    leaf_value: Slab,
    is_leaf: Slab,
}

#[derive(Debug)]
struct ForestNode {
    task: Task,
    n_features: usize,
    leaf_width: usize,
    tree_roots: Slab,
    feature: Slab,
    threshold: FloatRange,
    left: Slab,
    right: Slab,
    is_leaf: Slab,
    values: Slab,
}

/// The parsed model graph: section descriptors for slab models, small
/// owned parts for linear ones (whose evaluator needs an owned
/// [`flaml_learners::LinearModel`] anyway).
#[derive(Debug)]
enum Node {
    Gbdt(GbdtNode),
    Forest(ForestNode),
    Linear(CompiledLinear),
    Stacked {
        meta: CompiledLinear,
        members: Vec<Node>,
        task: Task,
    },
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    elem: Elem,
    off: usize,
    count: usize,
}

/// Blob bytes in an owned buffer whose first byte is
/// [`BLOB_ALIGN`]-aligned, so slab sections (whose offsets are 64-aligned
/// within the file) reinterpret as `&[u32]` / `&[f64]`. The `Vec` is
/// allocated `BLOB_ALIGN - 1` bytes longer than the blob, which starts
/// `pad` bytes in; it never grows again (`truncate` keeps the
/// allocation), and moving it does not move its heap bytes, so the
/// alignment holds for the buffer's whole life.
#[derive(Debug)]
struct AlignedBytes {
    buf: Vec<u8>,
    pad: usize,
}

impl AlignedBytes {
    fn bytes(&self) -> &[u8] {
        &self.buf[self.pad..]
    }
}

/// Reads the `len` bytes `source` held when its length was taken straight
/// into a zeroed aligned buffer. A file can change between that and the
/// read: a short read, or a byte still there after `len`, is a layout
/// error, and a `len` that cannot be allocated an I/O error.
fn read_aligned(source: &mut impl Read, len: u64) -> Result<AlignedBytes, ArtifactError> {
    let cap = usize::try_from(len).map_or(usize::MAX, |n| n.saturating_add(BLOB_ALIGN - 1));
    let mut buf = Vec::new();
    buf.try_reserve_exact(cap)
        .map_err(|e| io::Error::new(io::ErrorKind::OutOfMemory, e))?;
    buf.resize(cap, 0);
    let pad = (BLOB_ALIGN - buf.as_ptr() as usize % BLOB_ALIGN) % BLOB_ALIGN;
    buf.truncate(pad + cap - (BLOB_ALIGN - 1));
    source
        .read_exact(&mut buf[pad..])
        .map_err(|e| match e.kind() {
            io::ErrorKind::UnexpectedEof => layout(format!("shrank below {len} bytes while read")),
            _ => ArtifactError::Io(e),
        })?;
    if source.read(&mut [0u8; 1])? != 0 {
        return Err(layout(format!("grew past {len} bytes while read")));
    }
    Ok(AlignedBytes { buf, pad })
}

/// A model served directly from blob bytes — an owned, aligned copy of
/// the file read once — plus the validated section descriptors into it.
/// Prediction goes through the exact [`ModelView`] evaluator owned
/// [`CompiledModel`]s use, so outputs are bit-identical to the
/// JSON-artifact path.
#[derive(Debug)]
pub struct BlobModel {
    bytes: AlignedBytes,
    flags: u32,
    fingerprint: u64,
    root: Node,
    tables: OnceLock<Tables>,
}

impl Servable for BlobModel {
    fn parts(&self) -> (ModelView<'_>, Cow<'_, Tables>) {
        let tables = self.tables.get_or_init(|| Tables::build(&self.view()));
        (self.view(), Cow::Borrowed(tables))
    }
}

impl BlobModel {
    /// Reads and validates the blob at `path` on the local filesystem.
    ///
    /// # Errors
    ///
    /// [`ArtifactError::Io`] when the file cannot be read,
    /// [`ArtifactError::BadMagic`] / [`ArtifactError::Version`] for
    /// foreign or future files, [`ArtifactError::FingerprintMismatch`]
    /// for payload corruption, [`ArtifactError::Layout`] for truncation
    /// and every structural violation.
    pub fn open(path: impl AsRef<Path>) -> Result<BlobModel, ArtifactError> {
        let mut file = std::fs::File::open(path)?;
        let len = file.metadata()?.len();
        BlobModel::parse(read_aligned(&mut file, len)?)
    }

    /// [`BlobModel::open`] against an explicit [`Storage`]: the bytes
    /// come from [`Storage::read`], so every one of them flows through
    /// the storage's fault surface.
    ///
    /// # Errors
    ///
    /// Same as [`BlobModel::open`], with read failures surfacing as
    /// [`ArtifactError::Storage`].
    pub fn open_with(storage: &dyn Storage, path: &Path) -> Result<BlobModel, ArtifactError> {
        BlobModel::from_bytes(&storage.read(path)?)
    }

    /// Validates blob bytes already in memory (copied into an aligned
    /// buffer).
    ///
    /// # Errors
    ///
    /// Same as [`BlobModel::open`].
    pub fn from_bytes(bytes: &[u8]) -> Result<BlobModel, ArtifactError> {
        BlobModel::parse(read_aligned(&mut &bytes[..], bytes.len() as u64)?)
    }

    fn parse(owned: AlignedBytes) -> Result<BlobModel, ArtifactError> {
        if cfg!(target_endian = "big") {
            return Err(layout(
                "blob artifacts are little-endian memory images; use the JSON artifact \
                 format on big-endian hosts",
            ));
        }
        let bytes = owned.bytes();
        let len = bytes.len();
        if len < format::HEADER_LEN {
            return Err(layout(format!(
                "truncated header: {len} bytes, need {}",
                format::HEADER_LEN
            )));
        }
        if bytes[0..8] != format::BLOB_MAGIC {
            return Err(ArtifactError::BadMagic {
                found: String::from_utf8_lossy(&bytes[0..8]).into_owned(),
            });
        }
        let version = read_u32(bytes, 8);
        if version != format::BLOB_VERSION {
            return Err(ArtifactError::Version {
                found: version,
                supported: format::BLOB_VERSION,
            });
        }
        if read_u32(bytes, 12) != format::ENDIAN_MARK {
            return Err(layout("endianness marker mismatch"));
        }
        let flags = read_u32(bytes, 16);
        if flags & !format::KNOWN_FLAGS != 0 {
            return Err(layout(format!("unknown layout flags {flags:#010x}")));
        }
        let n_sections = read_u32(bytes, 20) as usize;
        let n_models = read_u32(bytes, 24) as usize;
        let payload_len = read_u64(bytes, 32);
        if payload_len != (len - format::HEADER_LEN) as u64 {
            return Err(layout(format!(
                "payload length {payload_len} does not match file ({} payload bytes)",
                len - format::HEADER_LEN
            )));
        }
        let expected = read_u64(bytes, 40);
        let found = format::blob_fingerprint(bytes);
        if found != expected {
            return Err(ArtifactError::FingerprintMismatch { expected, found });
        }

        let table_len = n_sections
            .checked_mul(format::SECTION_ENTRY_LEN)
            .ok_or_else(|| layout("section count overflows"))?;
        let table_end = format::HEADER_LEN + table_len;
        if table_end > len {
            return Err(layout(format!(
                "section table of {n_sections} entries exceeds file length {len}"
            )));
        }
        let mut sections: HashMap<u32, Entry> = HashMap::with_capacity(n_sections);
        for i in 0..n_sections {
            let at = format::HEADER_LEN + i * format::SECTION_ENTRY_LEN;
            let tag = read_u32(bytes, at);
            let elem = Elem::from_code(read_u32(bytes, at + 4))
                .ok_or_else(|| layout(format!("section {tag:#x}: unknown element type")))?;
            let off = read_u64(bytes, at + 8);
            let count = read_u64(bytes, at + 16);
            let off = usize::try_from(off)
                .map_err(|_| layout(format!("section {tag:#x}: offset out of range")))?;
            let count = usize::try_from(count)
                .map_err(|_| layout(format!("section {tag:#x}: count out of range")))?;
            if off % BLOB_ALIGN != 0 {
                return Err(layout(format!(
                    "section {tag:#x}: offset {off} not {BLOB_ALIGN}-byte aligned"
                )));
            }
            let nbytes = count
                .checked_mul(elem.size())
                .ok_or_else(|| layout(format!("section {tag:#x}: byte length overflows")))?;
            let end = off
                .checked_add(nbytes)
                .ok_or_else(|| layout(format!("section {tag:#x}: extent overflows")))?;
            if off < table_end || end > len {
                return Err(layout(format!(
                    "section {tag:#x}: bytes {off}..{end} outside payload {table_end}..{len}"
                )));
            }
            if sections.insert(tag, Entry { elem, off, count }).is_some() {
                return Err(layout(format!("duplicate section tag {tag:#x}")));
            }
        }

        let mut parser = Parser {
            bytes,
            sections: &sections,
            next_model: 0,
        };
        let root = parser.parse_node(0)?;
        if parser.next_model != n_models {
            return Err(layout(format!(
                "header declares {n_models} models, structure contains {}",
                parser.next_model
            )));
        }
        node_view(&root, bytes).check()?;
        Ok(BlobModel {
            bytes: owned,
            flags,
            fingerprint: expected,
            root,
            tables: OnceLock::new(),
        })
    }

    /// Renders the blob's slabs as the shared [`ModelView`] evaluator
    /// input. No allocation beyond stacked-member vectors.
    pub fn view(&self) -> ModelView<'_> {
        node_view(&self.root, self.bytes.bytes())
    }

    /// Predicts on `data` straight off the blob's bytes — bit-identical
    /// to [`CompiledModel::predict`] of the same model. The first call
    /// builds the evaluator [`Tables`]; later ones reuse them.
    pub fn predict(&self, data: impl Into<DatasetView>) -> Pred {
        self.serve(&data.into())
    }

    /// Materializes an owned [`CompiledModel`] (a slab copy; see
    /// [`ModelView::to_compiled`] for the node-order caveat on
    /// hot-first blobs written by older builds).
    pub fn to_compiled(&self) -> CompiledModel {
        self.view().to_compiled()
    }

    /// The payload fingerprint recorded in (and verified against) the
    /// header.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Whether any threshold/cut section is stored quantized to `f32`.
    pub fn quantized(&self) -> bool {
        self.flags & format::FLAG_QUANTIZED != 0
    }

    /// Total blob size in bytes.
    pub fn n_bytes(&self) -> usize {
        self.bytes.bytes().len()
    }

    /// The task the model predicts.
    pub fn task(&self) -> Task {
        self.view().task()
    }

    /// Feature columns the model expects.
    pub fn n_features(&self) -> usize {
        self.view().n_features()
    }
}

fn read_u32(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes"))
}

fn read_u64(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"))
}

/// Reinterprets a validated slab as a typed slice. Soundness: `parse`
/// proved `off + count * size_of::<T>() <= bytes.len()` and
/// `off % 64 == 0`, and `bytes` starts at the 64-byte-aligned front of
/// an [`AlignedBytes`] buffer, so the pointer is aligned and in-bounds
/// for all `T` the format stores.
fn slab_slice<'a, T>(bytes: &'a [u8], slab: &Slab) -> &'a [T] {
    debug_assert!(slab.off + slab.count * std::mem::size_of::<T>() <= bytes.len());
    debug_assert_eq!(bytes.as_ptr() as usize % BLOB_ALIGN, 0);
    // SAFETY: in bounds and aligned as the doc comment above shows; the
    // format stores only plain integer and float elements, for which
    // every bit pattern is valid; and the slice borrows `bytes`, which
    // the owning `BlobModel` never mutates, so it cannot outlive or race
    // the buffer behind them.
    unsafe { std::slice::from_raw_parts(bytes.as_ptr().add(slab.off).cast::<T>(), slab.count) }
}

fn float_slab<'a>(bytes: &'a [u8], range: &FloatRange) -> FloatSlab<'a> {
    if range.quantized {
        FloatSlab::F32(slab_slice::<f32>(bytes, &range.slab))
    } else {
        FloatSlab::F64(slab_slice::<f64>(bytes, &range.slab))
    }
}

fn node_view<'a>(node: &'a Node, bytes: &'a [u8]) -> ModelView<'a> {
    match node {
        Node::Gbdt(n) => ModelView::Gbdt(GbdtView {
            task: n.task,
            n_groups: n.n_groups,
            init_scores: slab_slice(bytes, &n.init_scores),
            cuts: CutsRef::Flat {
                offsets: slab_slice(bytes, &n.cuts_offsets),
                values: float_slab(bytes, &n.cuts_values),
            },
            tree_roots: slab_slice(bytes, &n.tree_roots),
            feature: slab_slice(bytes, &n.feature),
            threshold: slab_slice(bytes, &n.threshold),
            left: slab_slice(bytes, &n.left),
            right: slab_slice(bytes, &n.right),
            leaf_value: slab_slice(bytes, &n.leaf_value),
            is_leaf: LeafFlags::Bytes(slab_slice(bytes, &n.is_leaf)),
        }),
        Node::Forest(n) => ModelView::Forest(ForestView {
            task: n.task,
            n_features: n.n_features,
            leaf_width: n.leaf_width,
            tree_roots: slab_slice(bytes, &n.tree_roots),
            feature: slab_slice(bytes, &n.feature),
            threshold: float_slab(bytes, &n.threshold),
            left: slab_slice(bytes, &n.left),
            right: slab_slice(bytes, &n.right),
            is_leaf: LeafFlags::Bytes(slab_slice(bytes, &n.is_leaf)),
            values: slab_slice(bytes, &n.values),
        }),
        Node::Linear(m) => ModelView::Linear(m),
        Node::Stacked {
            meta,
            members,
            task,
        } => ModelView::Stacked {
            members: members.iter().map(|m| node_view(m, bytes)).collect(),
            meta,
            task: *task,
        },
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    sections: &'a HashMap<u32, Entry>,
    next_model: usize,
}

impl Parser<'_> {
    fn section(&self, model: u32, kind: u32, elem: Elem) -> Result<Slab, ArtifactError> {
        let tag = format::section_tag(model, kind);
        let entry = self
            .sections
            .get(&tag)
            .ok_or_else(|| layout(format!("model {model}: missing section kind {kind}")))?;
        if entry.elem != elem {
            return Err(layout(format!(
                "model {model}: section kind {kind} has element code {}, expected {}",
                entry.elem.code(),
                elem.code()
            )));
        }
        Ok(Slab {
            off: entry.off,
            count: entry.count,
        })
    }

    /// A float section that may be stored `f64` or (quantized) `f32`.
    fn float_section(&self, model: u32, kind: u32) -> Result<FloatRange, ArtifactError> {
        let tag = format::section_tag(model, kind);
        let entry = self
            .sections
            .get(&tag)
            .ok_or_else(|| layout(format!("model {model}: missing section kind {kind}")))?;
        let quantized = match entry.elem {
            Elem::F64 => false,
            Elem::F32 => true,
            other => {
                return Err(layout(format!(
                    "model {model}: section kind {kind} has element code {}, expected f64 or f32",
                    other.code()
                )))
            }
        };
        Ok(FloatRange {
            slab: Slab {
                off: entry.off,
                count: entry.count,
            },
            quantized,
        })
    }

    fn meta(&self, model: u32, min_words: usize) -> Result<Vec<u64>, ArtifactError> {
        let slab = self.section(model, format::KIND_META, Elem::U64)?;
        if slab.count < min_words {
            return Err(layout(format!(
                "model {model}: meta stream has {} words, need {min_words}",
                slab.count
            )));
        }
        Ok((0..slab.count)
            .map(|i| read_u64(self.bytes, slab.off + i * 8))
            .collect())
    }

    fn task_of(&self, model: u32, tag: u64, k: u64) -> Result<Task, ArtifactError> {
        match (tag, k) {
            (format::TASK_REGRESSION, 0) => Ok(Task::Regression),
            (format::TASK_BINARY, 0) => Ok(Task::Binary),
            (format::TASK_MULTICLASS, k) if k >= 2 => Ok(Task::MultiClass(k as usize)),
            _ => Err(layout(format!(
                "model {model}: invalid task encoding ({tag}, {k})"
            ))),
        }
    }

    fn parse_node(&mut self, depth: usize) -> Result<Node, ArtifactError> {
        if depth > MAX_STACK_DEPTH {
            return Err(layout("model nesting exceeds supported depth"));
        }
        let model = self.next_model as u32;
        self.next_model += 1;
        let meta = self.meta(model, 3)?;
        let task = self.task_of(model, meta[1], meta[2])?;
        match meta[0] {
            format::MODEL_GBDT => self.parse_gbdt(model, &meta, task).map(Node::Gbdt),
            format::MODEL_FOREST => self.parse_forest(model, &meta, task).map(Node::Forest),
            format::MODEL_LINEAR => self.parse_linear(model, &meta, task).map(Node::Linear),
            format::MODEL_STACKED => {
                if meta.len() < 4 {
                    return Err(layout(format!("model {model}: stacked meta too short")));
                }
                let n_members = meta[3] as usize;
                if n_members == 0 || n_members > 1024 {
                    return Err(layout(format!(
                        "model {model}: implausible member count {n_members}"
                    )));
                }
                // Pre-order: meta-learner first, then the members.
                let meta_model = self.next_model as u32;
                let meta_linear = match self.parse_node(depth + 1)? {
                    Node::Linear(l) => l,
                    _ => {
                        return Err(layout(format!(
                            "model {meta_model}: stacked meta-learner must be linear"
                        )))
                    }
                };
                let members = (0..n_members)
                    .map(|_| self.parse_node(depth + 1))
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(Node::Stacked {
                    meta: meta_linear,
                    members,
                    task,
                })
            }
            other => Err(layout(format!("model {model}: unknown model kind {other}"))),
        }
    }

    fn parse_gbdt(&self, model: u32, meta: &[u64], task: Task) -> Result<GbdtNode, ArtifactError> {
        if meta.len() < 5 {
            return Err(layout(format!("model {model}: gbdt meta too short")));
        }
        let n_features = meta[3] as usize;
        let cuts_offsets = self.section(model, format::KIND_CUTS_OFFSETS, Elem::U64)?;
        let cuts_values = self.float_section(model, format::KIND_CUTS_VALUES)?;
        if cuts_offsets.count.checked_sub(1) != Some(n_features) {
            return Err(layout(format!(
                "model {model}: {} cut offsets for {n_features} features",
                cuts_offsets.count
            )));
        }
        let offsets: &[u64] = slab_slice(self.bytes, &cuts_offsets);
        if offsets.first() != Some(&0)
            || offsets.windows(2).any(|w| w[0] > w[1])
            || offsets.last() != Some(&(cuts_values.slab.count as u64))
        {
            return Err(layout(format!(
                "model {model}: cut offsets are not a prefix sum over the cut values"
            )));
        }
        Ok(GbdtNode {
            task,
            n_groups: meta[4] as usize,
            init_scores: self.section(model, format::KIND_INIT_SCORES, Elem::F64)?,
            cuts_offsets,
            cuts_values,
            tree_roots: self.section(model, format::KIND_TREE_ROOTS, Elem::U32)?,
            feature: self.section(model, format::KIND_FEATURE, Elem::U32)?,
            threshold: self.section(model, format::KIND_THRESHOLD, Elem::U32)?,
            left: self.section(model, format::KIND_LEFT, Elem::U32)?,
            right: self.section(model, format::KIND_RIGHT, Elem::U32)?,
            leaf_value: self.section(model, format::KIND_LEAF_VALUE, Elem::F64)?,
            is_leaf: self.section(model, format::KIND_IS_LEAF, Elem::U8)?,
        })
    }

    fn parse_forest(
        &self,
        model: u32,
        meta: &[u64],
        task: Task,
    ) -> Result<ForestNode, ArtifactError> {
        if meta.len() < 5 {
            return Err(layout(format!("model {model}: forest meta too short")));
        }
        Ok(ForestNode {
            task,
            n_features: meta[3] as usize,
            leaf_width: meta[4] as usize,
            tree_roots: self.section(model, format::KIND_TREE_ROOTS, Elem::U32)?,
            feature: self.section(model, format::KIND_FEATURE, Elem::U32)?,
            threshold: self.float_section(model, format::KIND_THRESHOLD)?,
            left: self.section(model, format::KIND_LEFT, Elem::U32)?,
            right: self.section(model, format::KIND_RIGHT, Elem::U32)?,
            is_leaf: self.section(model, format::KIND_IS_LEAF, Elem::U8)?,
            values: self.section(model, format::KIND_VALUES, Elem::F64)?,
        })
    }

    fn parse_linear(
        &self,
        model: u32,
        meta: &[u64],
        task: Task,
    ) -> Result<CompiledLinear, ArtifactError> {
        if meta.len() < 7 {
            return Err(layout(format!("model {model}: linear meta too short")));
        }
        let y_mean = f64::from_bits(meta[3]);
        let y_std = f64::from_bits(meta[4]);
        let n_encodings = meta[5] as usize;
        let n_groups = meta[6] as usize;
        let enc_slab = self.section(model, format::KIND_ENCODINGS, Elem::F64)?;
        if enc_slab.count != n_encodings * 3 {
            return Err(layout(format!(
                "model {model}: {} encoding words for {n_encodings} features",
                enc_slab.count
            )));
        }
        let enc_words: &[f64] = slab_slice(self.bytes, &enc_slab);
        let mut encodings = Vec::with_capacity(n_encodings);
        for (j, triple) in enc_words.chunks_exact(3).enumerate() {
            if triple[0] == format::ENC_NUMERIC {
                encodings.push(Encoding::Numeric {
                    mean: triple[1],
                    std: triple[2],
                });
            } else if triple[0] == format::ENC_ONE_HOT {
                let card = triple[1];
                if !(card.is_finite() && card >= 0.0 && card.fract() == 0.0 && card <= 1e15) {
                    return Err(layout(format!(
                        "model {model}: feature {j} has invalid one-hot cardinality {card}"
                    )));
                }
                encodings.push(Encoding::OneHot {
                    cardinality: card as usize,
                });
            } else {
                return Err(layout(format!(
                    "model {model}: feature {j} has unknown encoding tag {}",
                    triple[0]
                )));
            }
        }
        let w_offsets = self.section(model, format::KIND_WEIGHTS_OFFSETS, Elem::U64)?;
        let w_values = self.section(model, format::KIND_WEIGHTS_VALUES, Elem::F64)?;
        if w_offsets.count != n_groups + 1 {
            return Err(layout(format!(
                "model {model}: {} weight offsets for {n_groups} groups",
                w_offsets.count
            )));
        }
        let offsets: &[u64] = slab_slice(self.bytes, &w_offsets);
        if offsets.first() != Some(&0)
            || offsets.windows(2).any(|w| w[0] > w[1])
            || offsets.last() != Some(&(w_values.count as u64))
        {
            return Err(layout(format!(
                "model {model}: weight offsets are not a prefix sum over the weight values"
            )));
        }
        let values: &[f64] = slab_slice(self.bytes, &w_values);
        let weights: Vec<Vec<f64>> = offsets
            .windows(2)
            .map(|w| values[w[0] as usize..w[1] as usize].to_vec())
            .collect();
        Ok(CompiledLinear {
            encodings,
            weights,
            task,
            y_mean,
            y_std,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_read_of_another_length_than_the_file_had_is_a_layout_error() {
        let bytes = [7u8; 100];
        let read = read_aligned(&mut &bytes[..], 100).expect("same length");
        assert_eq!(read.bytes(), &bytes[..]);
        assert_eq!(read.bytes().as_ptr() as usize % BLOB_ALIGN, 0);
        for (len, what) in [(101, "shrank"), (99, "grew")] {
            match read_aligned(&mut &bytes[..], len) {
                Err(ArtifactError::Layout(msg)) => assert!(msg.contains(what), "{msg}"),
                other => panic!("length {len}: {other:?}"),
            }
        }
    }
}
