//! Tabular data substrate for the FLAML reproduction.
//!
//! The AutoML search in the paper manipulates training data along three
//! axes: *stratified shuffling* once up front, *prefix subsampling* to get a
//! sample of size `s` (Section 4.2: "to get a sample with size s, it takes
//! the first s tuples of the shuffled data"), and *resampling* via k-fold
//! cross-validation or holdout (Step 0). This crate implements all three,
//! plus the [`Dataset`] container every learner in the ML layer consumes
//! and the zero-copy [`DatasetView`] the search loop derives subsamples,
//! shuffles, and folds from without copying column data.
//!
//! # Example
//!
//! ```
//! use flaml_data::{Dataset, Task};
//!
//! let columns = vec![vec![1.0, 2.0, 3.0, 4.0], vec![0.5, 0.25, 0.125, 0.0625]];
//! let target = vec![0.0, 1.0, 0.0, 1.0];
//! let data = Dataset::new("toy", Task::Binary, columns, target).unwrap();
//! assert_eq!(data.n_rows(), 4);
//! assert_eq!(data.n_features(), 2);
//! ```

#![warn(missing_docs)]

mod dataset;
mod error;
mod split;
mod view;

pub use dataset::{Dataset, DatasetPayload, FeatureKind, Task};
pub use error::DataError;
pub use split::{kfold, stratified_kfold, train_test_split, Fold};
pub use view::DatasetView;
