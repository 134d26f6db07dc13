//! Typed errors for the sweep engine.
//!
//! [`SweepError`] is what [`crate::Sweep::run`] returns: every journal
//! variant names the journal path, every variant names the trial where
//! one is implicated, and the original I/O error stays reachable through
//! `std::error::Error::source`. `From<SweepError> for io::Error` lets
//! `io::Result` callers use `?`, keeping the error kinds (`InvalidData`
//! for stale journals, `InvalidInput` for a repeated trial id) intact.

use std::io;
use std::path::PathBuf;

/// Why a sweep could not produce a report.
///
/// Degraded-but-successful conditions (cancellation, deadline
/// exhaustion, per-trial timeouts) are deliberately *not* errors: they
/// return a partial `SweepReport` carrying a
/// [`crate::sweep::DegradationReport`] instead.
#[derive(Debug)]
#[non_exhaustive]
pub enum SweepError {
    /// Reading or writing the write-ahead journal failed.
    Journal { path: PathBuf, source: io::Error },
    /// The journal holds a record for `trial_id` that does not match the
    /// scheduled trial set — it belongs to a different experiment
    /// configuration and replaying it would corrupt the database.
    StaleJournal { path: PathBuf, trial_id: usize },
    /// Two scheduled trials share `trial_id`. Ids key the journal and
    /// the database, so the sweep rejects the set before any trial runs.
    DuplicateTrialId { trial_id: usize },
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepError::Journal { path, source } => {
                write!(f, "sweep journal {}: {source}", path.display())
            }
            SweepError::StaleJournal { path, trial_id } => write!(
                f,
                "sweep journal {}: record for trial {trial_id} does not match the scheduled trial set",
                path.display()
            ),
            SweepError::DuplicateTrialId { trial_id } => {
                write!(f, "trial id {trial_id} is scheduled more than once")
            }
        }
    }
}

impl std::error::Error for SweepError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SweepError::Journal { source, .. } => Some(source),
            SweepError::StaleJournal { .. } | SweepError::DuplicateTrialId { .. } => None,
        }
    }
}

impl From<SweepError> for io::Error {
    /// Maps onto `io::Result`: journal I/O keeps its original kind,
    /// stale journals become `InvalidData` and a repeated trial id
    /// `InvalidInput`.
    fn from(e: SweepError) -> io::Error {
        match e {
            SweepError::Journal { source, .. } => source,
            SweepError::StaleJournal { trial_id, .. } => io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "journal record for trial {trial_id} does not match the scheduled trial set"
                ),
            ),
            e @ SweepError::DuplicateTrialId { .. } => {
                io::Error::new(io::ErrorKind::InvalidInput, e.to_string())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stale_journal_maps_to_invalid_data() {
        let e = SweepError::StaleJournal {
            path: PathBuf::from("/tmp/j.jsonl"),
            trial_id: 17,
        };
        assert!(e.to_string().contains("trial 17"));
        assert!(e.to_string().contains("j.jsonl"));
        let io_err: io::Error = e.into();
        assert_eq!(io_err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn duplicate_trial_id_maps_to_invalid_input() {
        use std::error::Error;
        let e = SweepError::DuplicateTrialId { trial_id: 5 };
        assert_eq!(e.to_string(), "trial id 5 is scheduled more than once");
        assert!(e.source().is_none());
        let io_err: io::Error = e.into();
        assert_eq!(io_err.kind(), io::ErrorKind::InvalidInput);
        assert!(io_err.to_string().contains("trial id 5"));
    }

    #[test]
    fn journal_errors_keep_their_kind_and_source() {
        use std::error::Error;
        let e = SweepError::Journal {
            path: PathBuf::from("/nope/j.jsonl"),
            source: io::Error::new(io::ErrorKind::PermissionDenied, "denied"),
        };
        assert!(e.source().is_some());
        assert!(e.to_string().contains("denied"));
        let io_err: io::Error = e.into();
        assert_eq!(io_err.kind(), io::ErrorKind::PermissionDenied);
    }
}
