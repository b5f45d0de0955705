//! Why a collective execution could not complete.

use std::fmt;

use ccoll_comm::CommError;

/// Why a collective execution could not complete. Returned by the
/// fallible surface (`try_execute_into`, `try_progress`, `try_complete`)
/// when a fault-policy-governed run hits an unrecoverable fault; the
/// infallible surface panics with the same message instead. Once an
/// execution aborts, its plan is *poisoned* — partially-exchanged state
/// cannot be resumed — and every further use reports
/// [`CollectiveError::Poisoned`] until the plan's `reset()` is called.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollectiveError {
    /// The transport reported an unrecoverable fault (retry budget
    /// exhausted, or a peer died) mid-collective.
    Comm(CommError),
    /// The plan was poisoned by an earlier aborted execution and has
    /// not been `reset()`.
    Poisoned,
    /// The operation's handle was dropped mid-flight: the collective
    /// never completed and the plan's exchanged state is undefined.
    /// Only this plan is poisoned; sibling operations are unaffected.
    Abandoned,
}

impl fmt::Display for CollectiveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CollectiveError::Comm(e) => write!(f, "collective aborted: {e}"),
            CollectiveError::Poisoned => {
                f.write_str("plan poisoned by an earlier aborted execution (reset() to reuse)")
            }
            CollectiveError::Abandoned => f.write_str(
                "operation abandoned: its handle was dropped before completing (reset() to reuse)",
            ),
        }
    }
}

impl std::error::Error for CollectiveError {}

impl From<CommError> for CollectiveError {
    fn from(e: CommError) -> Self {
        CollectiveError::Comm(e)
    }
}
