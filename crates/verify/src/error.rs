//! Errors raised by the verification toolkit.

use std::error::Error;
use std::fmt;

use spi_semantics::MachineError;

/// An error raised while exploring or checking a system.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum VerifyError {
    /// The underlying abstract machine failed.
    Machine(MachineError),
    /// The state-space exploration exceeded a hard state limit.
    ///
    /// A [`Budget`](crate::Budget) running out does not raise this:
    /// exhaustion degrades gracefully into a partial [`Lts`] with
    /// [`Lts::exhausted`] set, and checks answer *inconclusive*.  What
    /// raises it is an exploration outgrowing the 32-bit state and
    /// observation ids of its compact edges ([`Edge`]).
    ///
    /// [`Lts`]: crate::Lts
    /// [`Lts::exhausted`]: crate::Lts::exhausted
    /// [`Edge`]: crate::Edge
    StateBudgetExceeded {
        /// The budget that was exceeded.
        max_states: usize,
    },
    /// A successor computation panicked.  Worker panics are caught at
    /// the expansion boundary so one poisoned state cannot abort a whole
    /// campaign; the payload travels with the error so the schedule that
    /// triggered it can be reported as *inconclusive* with a cause.
    WorkerPanic {
        /// The panic payload, rendered as text.
        payload: String,
    },
    /// A campaign checkpoint file could not be read, parsed, or matched
    /// against the campaign being resumed.
    Checkpoint {
        /// What went wrong.
        reason: String,
    },
    /// The two decision procedures disagreed under `--engine both`.
    /// This can only mean a bug in one of the engines — the verdict
    /// cannot be trusted, so the run fails loudly instead of picking a
    /// side.
    EngineDisagreement {
        /// The trace engine's verdict, rendered.
        trace: String,
        /// The bisimulation engine's verdict, rendered.
        bisim: String,
        /// The minimal distinguishing trace claimed by whichever engine
        /// answered *Fails* (empty if neither did).
        witness: Vec<String>,
    },
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::Machine(e) => write!(f, "{e}"),
            VerifyError::StateBudgetExceeded { max_states } => {
                write!(f, "exploration exceeded the state budget of {max_states}")
            }
            VerifyError::WorkerPanic { payload } => {
                write!(f, "a successor computation panicked: {payload}")
            }
            VerifyError::Checkpoint { reason } => {
                write!(f, "campaign checkpoint error: {reason}")
            }
            VerifyError::EngineDisagreement {
                trace,
                bisim,
                witness,
            } => {
                write!(
                    f,
                    "decision procedures disagree: trace engine says {trace}, \
                     bisimulation engine says {bisim}; minimal witness: [{}]",
                    witness.join(", ")
                )
            }
        }
    }
}

impl Error for VerifyError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            VerifyError::Machine(e) => Some(e),
            VerifyError::StateBudgetExceeded { .. }
            | VerifyError::WorkerPanic { .. }
            | VerifyError::Checkpoint { .. }
            | VerifyError::EngineDisagreement { .. } => None,
        }
    }
}

impl From<MachineError> for VerifyError {
    fn from(e: MachineError) -> VerifyError {
        VerifyError::Machine(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = VerifyError::StateBudgetExceeded { max_states: 10 };
        assert!(e.to_string().contains("10"));
        assert!(e.source().is_none());
        let e = VerifyError::Machine(MachineError::NotEnabled { reason: "x".into() });
        assert!(e.source().is_some());
    }
}
