//! Opening a blob: read, validate, decode.
//!
//! [`BlobModel::from_bytes`] does all the work the format ever requires:
//! header checks (magic, version, endianness marker, flags), an FNV-1a
//! fingerprint pass over the whole file, and a section-table walk that
//! proves every section aligned, in-bounds and unique. It then decodes
//! the sections the model graph references into an owned
//! [`CompiledModel`] with explicit little-endian reads — `f32` sections
//! widen exactly, `is_leaf` bytes become `bool`s, flat cuts and weights
//! become one `Vec` per feature or group, and nodes keep their stored
//! order — and runs [`CompiledModel::check`], the check the JSON loader
//! runs. Every count read from the file is checked before it is used,
//! and every allocation is sized from a section already proven to lie
//! inside the file. Every rejection is a typed [`ArtifactError`]; no
//! input bytes can make `from_bytes` panic or `predict` loop.

use crate::format::{self, Elem, BLOB_ALIGN};
use flaml_data::{DatasetView, Task};
use flaml_learners::Encoding;
use flaml_metrics::Pred;
use flaml_serve::{
    ArtifactError, CompiledForest, CompiledGbdt, CompiledLinear, CompiledModel, CompiledStacked,
    Servable, Tables,
};
use flaml_store::Storage;
use std::borrow::Cow;
use std::collections::HashMap;
use std::path::Path;
use std::sync::OnceLock;

/// Stacked ensembles deeper than this are rejected at open — far above
/// anything the search produces, low enough that a crafted file cannot
/// recurse the parser off the stack.
const MAX_STACK_DEPTH: usize = 32;

fn layout(msg: impl Into<String>) -> ArtifactError {
    ArtifactError::Layout(msg.into())
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    elem: Elem,
    off: usize,
    count: usize,
}

/// A model decoded from blob bytes, plus the evaluator [`Tables`] it
/// builds on its first predict. Prediction goes through the one
/// evaluator every [`CompiledModel`] uses, so outputs are bit-identical
/// to the JSON-artifact path.
#[derive(Debug)]
pub struct BlobModel {
    model: CompiledModel,
    flags: u32,
    fingerprint: u64,
    n_bytes: usize,
    tables: OnceLock<Tables>,
}

impl Servable for BlobModel {
    fn parts(&self) -> (&CompiledModel, Cow<'_, Tables>) {
        let tables = self.tables.get_or_init(|| Tables::build(&self.model));
        (&self.model, Cow::Borrowed(tables))
    }
}

impl From<BlobModel> for CompiledModel {
    /// The decoded model itself, without a copy.
    fn from(blob: BlobModel) -> CompiledModel {
        blob.model
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
        BlobModel::from_bytes(&std::fs::read(path)?)
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

    /// Validates and decodes blob bytes already in memory.
    ///
    /// # Errors
    ///
    /// Same as [`BlobModel::open`].
    pub fn from_bytes(bytes: &[u8]) -> Result<BlobModel, ArtifactError> {
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

        let mut decoder = Decoder {
            bytes,
            sections: &sections,
            next_model: 0,
        };
        let model = decoder.model(0)?;
        if decoder.next_model != n_models {
            return Err(layout(format!(
                "header declares {n_models} models, structure contains {}",
                decoder.next_model
            )));
        }
        model.check()?;
        Ok(BlobModel {
            model,
            flags,
            fingerprint: expected,
            n_bytes: len,
            tables: OnceLock::new(),
        })
    }

    /// Predicts on `data` — bit-identical to [`CompiledModel::predict`]
    /// of the same model. The first call builds the evaluator
    /// [`Tables`]; later ones reuse them.
    pub fn predict(&self, data: impl Into<DatasetView>) -> Pred {
        self.serve(&data.into())
    }

    /// A copy of the decoded model (`CompiledModel::from` takes it
    /// without one). Nodes keep their stored order: a hot-first blob
    /// written by an older build decodes with permuted slabs
    /// (predictions are identical; slab-level `==` against the original
    /// compiled model is not).
    pub fn to_compiled(&self) -> CompiledModel {
        self.model.clone()
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
        self.n_bytes
    }

    /// The task the model predicts.
    pub fn task(&self) -> Task {
        self.model.task()
    }

    /// Feature columns the model expects.
    pub fn n_features(&self) -> usize {
        self.model.n_features()
    }
}

fn read_u32(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes"))
}

fn read_u64(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"))
}

/// Decodes consecutive little-endian `N`-byte words.
fn words<const N: usize, T>(bytes: &[u8], word: impl Fn([u8; N]) -> T) -> Vec<T> {
    bytes.as_chunks::<N>().0.iter().map(|&w| word(w)).collect()
}

/// Meta word `i` of `model` as a count.
fn count(model: u32, meta: &[u64], i: usize) -> Result<usize, ArtifactError> {
    usize::try_from(meta[i])
        .map_err(|_| layout(format!("model {model}: meta word {i} is out of range")))
}

/// Splits `values` at `offsets` — a prefix sum from 0 to
/// `values.len()` — into one `Vec` per part.
fn split(
    model: u32,
    what: &str,
    offsets: &[u64],
    values: &[f64],
) -> Result<Vec<Vec<f64>>, ArtifactError> {
    if offsets.first() != Some(&0)
        || offsets.windows(2).any(|w| w[0] > w[1])
        || offsets.last() != Some(&(values.len() as u64))
    {
        return Err(layout(format!(
            "model {model}: {what} offsets are not a prefix sum over the {what} values"
        )));
    }
    Ok(offsets
        .windows(2)
        .map(|w| values[w[0] as usize..w[1] as usize].to_vec())
        .collect())
}

/// Decodes the model graph, pre-order, out of a validated section table.
struct Decoder<'a> {
    bytes: &'a [u8],
    sections: &'a HashMap<u32, Entry>,
    next_model: usize,
}

impl<'a> Decoder<'a> {
    /// The element type and bytes of section `kind` of `model`, which
    /// must hold one of `elems`.
    fn section(
        &self,
        model: u32,
        kind: u32,
        elems: &[Elem],
    ) -> Result<(Elem, &'a [u8]), ArtifactError> {
        let tag = format::section_tag(model, kind);
        let entry = self
            .sections
            .get(&tag)
            .ok_or_else(|| layout(format!("model {model}: missing section kind {kind}")))?;
        if !elems.contains(&entry.elem) {
            return Err(layout(format!(
                "model {model}: section kind {kind} holds {:?}, expected one of {elems:?}",
                entry.elem
            )));
        }
        // The table walk proved this extent in bounds.
        let end = entry.off + entry.count * entry.elem.size();
        Ok((entry.elem, &self.bytes[entry.off..end]))
    }

    fn u32s(&self, model: u32, kind: u32) -> Result<Vec<u32>, ArtifactError> {
        let (_, bytes) = self.section(model, kind, &[Elem::U32])?;
        Ok(words(bytes, u32::from_le_bytes))
    }

    fn u64s(&self, model: u32, kind: u32) -> Result<Vec<u64>, ArtifactError> {
        let (_, bytes) = self.section(model, kind, &[Elem::U64])?;
        Ok(words(bytes, u64::from_le_bytes))
    }

    fn f64s(&self, model: u32, kind: u32) -> Result<Vec<f64>, ArtifactError> {
        let (_, bytes) = self.section(model, kind, &[Elem::F64])?;
        Ok(words(bytes, f64::from_le_bytes))
    }

    /// A float section stored as `f64`, or quantized to `f32`; the
    /// widening is exact, since only values that round-trip are ever
    /// quantized.
    fn floats(&self, model: u32, kind: u32) -> Result<Vec<f64>, ArtifactError> {
        Ok(match self.section(model, kind, &[Elem::F64, Elem::F32])? {
            (Elem::F32, bytes) => words(bytes, |w| f64::from(f32::from_le_bytes(w))),
            (_, bytes) => words(bytes, f64::from_le_bytes),
        })
    }

    /// One byte per node, nonzero for a leaf.
    fn flags(&self, model: u32, kind: u32) -> Result<Vec<bool>, ArtifactError> {
        let (_, bytes) = self.section(model, kind, &[Elem::U8])?;
        Ok(bytes.iter().map(|&b| b != 0).collect())
    }

    fn meta(&self, model: u32, min_words: usize) -> Result<Vec<u64>, ArtifactError> {
        let meta = self.u64s(model, format::KIND_META)?;
        if meta.len() < min_words {
            return Err(layout(format!(
                "model {model}: meta stream has {} words, need {min_words}",
                meta.len()
            )));
        }
        Ok(meta)
    }

    fn task_of(&self, model: u32, meta: &[u64]) -> Result<Task, ArtifactError> {
        match (meta[1], meta[2]) {
            (format::TASK_REGRESSION, 0) => Ok(Task::Regression),
            (format::TASK_BINARY, 0) => Ok(Task::Binary),
            (format::TASK_MULTICLASS, 2..) => Ok(Task::MultiClass(count(model, meta, 2)?)),
            (tag, k) => Err(layout(format!(
                "model {model}: invalid task encoding ({tag}, {k})"
            ))),
        }
    }

    fn model(&mut self, depth: usize) -> Result<CompiledModel, ArtifactError> {
        if depth > MAX_STACK_DEPTH {
            return Err(layout("model nesting exceeds supported depth"));
        }
        let model = self.next_model as u32;
        self.next_model += 1;
        let meta = self.meta(model, 3)?;
        let task = self.task_of(model, &meta)?;
        match meta[0] {
            format::MODEL_GBDT => self.gbdt(model, &meta, task).map(CompiledModel::Gbdt),
            format::MODEL_FOREST => self.forest(model, &meta, task).map(CompiledModel::Forest),
            format::MODEL_LINEAR => self.linear(model, &meta, task).map(CompiledModel::Linear),
            format::MODEL_STACKED => {
                if meta.len() < 4 {
                    return Err(layout(format!("model {model}: stacked meta too short")));
                }
                let n_members = meta[3];
                if n_members == 0 || n_members > 1024 {
                    return Err(layout(format!(
                        "model {model}: implausible member count {n_members}"
                    )));
                }
                // Pre-order: meta-learner first, then the members.
                let meta_model = self.next_model;
                let CompiledModel::Linear(meta) = self.model(depth + 1)? else {
                    return Err(layout(format!(
                        "model {meta_model}: stacked meta-learner must be linear"
                    )));
                };
                let members = (0..n_members)
                    .map(|_| self.model(depth + 1))
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(CompiledModel::Stacked(Box::new(CompiledStacked {
                    members,
                    meta,
                    task,
                })))
            }
            other => Err(layout(format!("model {model}: unknown model kind {other}"))),
        }
    }

    fn gbdt(&self, model: u32, meta: &[u64], task: Task) -> Result<CompiledGbdt, ArtifactError> {
        if meta.len() < 5 {
            return Err(layout(format!("model {model}: gbdt meta too short")));
        }
        let n_features = count(model, meta, 3)?;
        let offsets = self.u64s(model, format::KIND_CUTS_OFFSETS)?;
        if offsets.len().checked_sub(1) != Some(n_features) {
            return Err(layout(format!(
                "model {model}: {} cut offsets for {n_features} features",
                offsets.len()
            )));
        }
        let values = self.floats(model, format::KIND_CUTS_VALUES)?;
        Ok(CompiledGbdt {
            cuts: split(model, "cut", &offsets, &values)?,
            n_groups: count(model, meta, 4)?,
            init_scores: self.f64s(model, format::KIND_INIT_SCORES)?,
            task,
            tree_roots: self.u32s(model, format::KIND_TREE_ROOTS)?,
            feature: self.u32s(model, format::KIND_FEATURE)?,
            threshold: self.u32s(model, format::KIND_THRESHOLD)?,
            left: self.u32s(model, format::KIND_LEFT)?,
            right: self.u32s(model, format::KIND_RIGHT)?,
            leaf_value: self.f64s(model, format::KIND_LEAF_VALUE)?,
            is_leaf: self.flags(model, format::KIND_IS_LEAF)?,
        })
    }

    fn forest(
        &self,
        model: u32,
        meta: &[u64],
        task: Task,
    ) -> Result<CompiledForest, ArtifactError> {
        if meta.len() < 5 {
            return Err(layout(format!("model {model}: forest meta too short")));
        }
        Ok(CompiledForest {
            task,
            n_features: count(model, meta, 3)?,
            leaf_width: count(model, meta, 4)?,
            tree_roots: self.u32s(model, format::KIND_TREE_ROOTS)?,
            feature: self.u32s(model, format::KIND_FEATURE)?,
            threshold: self.floats(model, format::KIND_THRESHOLD)?,
            left: self.u32s(model, format::KIND_LEFT)?,
            right: self.u32s(model, format::KIND_RIGHT)?,
            is_leaf: self.flags(model, format::KIND_IS_LEAF)?,
            values: self.f64s(model, format::KIND_VALUES)?,
        })
    }

    fn linear(
        &self,
        model: u32,
        meta: &[u64],
        task: Task,
    ) -> Result<CompiledLinear, ArtifactError> {
        if meta.len() < 7 {
            return Err(layout(format!("model {model}: linear meta too short")));
        }
        let n_encodings = count(model, meta, 5)?;
        let n_groups = count(model, meta, 6)?;
        let words = self.f64s(model, format::KIND_ENCODINGS)?;
        if n_encodings.checked_mul(3) != Some(words.len()) {
            return Err(layout(format!(
                "model {model}: {} encoding words for {n_encodings} features",
                words.len()
            )));
        }
        let encodings = words
            .chunks_exact(3)
            .enumerate()
            .map(|(j, triple)| match triple[0] {
                format::ENC_NUMERIC => Ok(Encoding::Numeric {
                    mean: triple[1],
                    std: triple[2],
                }),
                // A whole, non-negative count; `check` caps it.
                format::ENC_ONE_HOT if triple[1] >= 0.0 && triple[1].fract() == 0.0 => {
                    Ok(Encoding::OneHot {
                        cardinality: triple[1] as usize,
                    })
                }
                format::ENC_ONE_HOT => Err(layout(format!(
                    "model {model}: feature {j} has invalid one-hot cardinality {}",
                    triple[1]
                ))),
                tag => Err(layout(format!(
                    "model {model}: feature {j} has unknown encoding tag {tag}"
                ))),
            })
            .collect::<Result<Vec<_>, _>>()?;
        let offsets = self.u64s(model, format::KIND_WEIGHTS_OFFSETS)?;
        if n_groups.checked_add(1) != Some(offsets.len()) {
            return Err(layout(format!(
                "model {model}: {} weight offsets for {n_groups} groups",
                offsets.len()
            )));
        }
        let values = self.f64s(model, format::KIND_WEIGHTS_VALUES)?;
        Ok(CompiledLinear {
            encodings,
            weights: split(model, "weight", &offsets, &values)?,
            task,
            y_mean: f64::from_bits(meta[3]),
            y_std: f64::from_bits(meta[4]),
        })
    }
}
