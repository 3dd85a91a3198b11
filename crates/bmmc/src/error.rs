//! Error types for the BMMC library.

use std::fmt;

/// Errors surfaced by permutation construction and execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BmmcError {
    /// The characteristic matrix is singular over GF(2) — the mapping
    /// is not a permutation.
    Singular,
    /// The matrix is not square or the complement vector length does
    /// not match.
    Dimension(String),
    /// The permutation's address width does not match the disk
    /// system's `n = lg N`.
    GeometryMismatch {
        /// Address width `n` of the permutation matrix.
        perm_bits: usize,
        /// Address width `lg N` of the disk system.
        system_bits: usize,
    },
    /// A disk-system error during execution.
    Pdm(pdm::PdmError),
    /// The supplied target-address vector is not a permutation of
    /// `0..N` (detection rejects it before matrix fitting).
    NotAPermutation(String),
    /// Executing a plan measured other counts than the plan predicts.
    PlanMismatch {
        /// `(parallel I/Os, steps)` the plan predicts.
        predicted: (u64, usize),
        /// `(parallel I/Os, steps)` the run measured.
        measured: (u64, usize),
    },
}

impl fmt::Display for BmmcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BmmcError::Singular => {
                write!(f, "characteristic matrix is singular over GF(2)")
            }
            BmmcError::Dimension(msg) => write!(f, "dimension error: {msg}"),
            BmmcError::GeometryMismatch {
                perm_bits,
                system_bits,
            } => write!(
                f,
                "permutation is on {perm_bits}-bit addresses but the disk system has n = {system_bits}"
            ),
            BmmcError::Pdm(e) => write!(f, "disk system error: {e}"),
            BmmcError::NotAPermutation(msg) => {
                write!(f, "target vector is not a permutation: {msg}")
            }
            BmmcError::PlanMismatch {
                predicted,
                measured,
            } => write!(
                f,
                "plan predicted {} parallel I/Os in {} steps, the run measured {} in {}",
                predicted.0, predicted.1, measured.0, measured.1
            ),
        }
    }
}

impl std::error::Error for BmmcError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BmmcError::Pdm(e) => Some(e),
            _ => None,
        }
    }
}

impl From<pdm::PdmError> for BmmcError {
    fn from(e: pdm::PdmError) -> Self {
        BmmcError::Pdm(e)
    }
}

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, BmmcError>;
