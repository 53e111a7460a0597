use std::error::Error;
use std::fmt;

/// Error produced when constructing or manipulating a [`crate::Dataset`].
#[derive(Debug, Clone, PartialEq)]
pub enum DataError {
    /// The feature columns do not all have the same length as the target.
    RaggedColumns {
        /// Length of the target vector.
        expected: usize,
        /// Index of the offending column.
        column: usize,
        /// Length of the offending column.
        actual: usize,
    },
    /// A dataset must have at least one feature column.
    NoFeatures,
    /// A dataset must have at least one row.
    Empty,
    /// A classification target value is not a valid class index.
    BadLabel {
        /// Row of the offending label.
        row: usize,
        /// The offending value.
        value: f64,
        /// Number of classes implied by the task.
        n_classes: usize,
    },
    /// A categorical column holds a value that is neither `NaN` (missing)
    /// nor a category index.
    BadCategory {
        /// Row of the offending value.
        row: usize,
        /// Column of the offending value.
        column: usize,
        /// The offending value.
        value: f64,
        /// Number of categories the column's kind declares.
        cardinality: usize,
    },
    /// The number of feature kinds does not match the number of columns.
    KindMismatch {
        /// Number of columns.
        columns: usize,
        /// Number of feature kinds supplied.
        kinds: usize,
    },
    /// A requested sample size or split parameter is out of range.
    BadSplit(String),
}

impl fmt::Display for DataError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataError::RaggedColumns {
                expected,
                column,
                actual,
            } => write!(
                f,
                "column {column} has {actual} rows but the target has {expected}"
            ),
            DataError::NoFeatures => write!(f, "dataset has no feature columns"),
            DataError::Empty => write!(f, "dataset has no rows"),
            DataError::BadLabel {
                row,
                value,
                n_classes,
            } => write!(
                f,
                "label {value} at row {row} is not an integer in 0..{n_classes}"
            ),
            DataError::BadCategory {
                row,
                column,
                value,
                cardinality,
            } => write!(
                f,
                "categorical value {value} at row {row} of column {column} is neither NaN nor an integer in 0..{cardinality}"
            ),
            DataError::KindMismatch { columns, kinds } => write!(
                f,
                "{kinds} feature kinds supplied for {columns} feature columns"
            ),
            DataError::BadSplit(msg) => write!(f, "invalid split: {msg}"),
        }
    }
}

impl Error for DataError {}
