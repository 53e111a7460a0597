use std::error::Error;
use std::fmt;

/// Error raised when a learner cannot be fit.
#[derive(Debug, Clone, PartialEq)]
pub enum FitError {
    /// A hyperparameter value is outside its valid range.
    BadParam {
        /// Parameter name.
        name: &'static str,
        /// The offending value.
        value: f64,
        /// Human-readable constraint.
        constraint: &'static str,
    },
    /// The dataset is unusable for this learner (e.g. a classification
    /// learner fit on a regression task).
    BadData(String),
}

/// A hyperparameter rule: `(broken, name, value, constraint)`.
type ParamRule = (bool, &'static str, f64, &'static str);

/// The first broken rule, in order, as a [`FitError::BadParam`].
pub(crate) fn check_params(rules: &[ParamRule]) -> Result<(), FitError> {
    match rules.iter().find(|rule| rule.0) {
        Some(&(_, name, value, constraint)) => Err(FitError::BadParam {
            name,
            value,
            constraint,
        }),
        None => Ok(()),
    }
}

impl fmt::Display for FitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FitError::BadParam {
                name,
                value,
                constraint,
            } => write!(f, "parameter {name} = {value} violates: {constraint}"),
            FitError::BadData(msg) => write!(f, "unusable dataset: {msg}"),
        }
    }
}

impl Error for FitError {}
