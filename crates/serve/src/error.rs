//! Typed serving errors. The service's contract is that **every**
//! submitted request is answered — with a result, a typed rejection, or
//! a typed failure — never with a panic, a hang, or silence.

use std::fmt;
use std::time::Duration;

/// Why an admission attempt was turned away.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The tenant's own submission queue is at its depth limit.
    TenantQueueFull,
    /// The service-wide queue depth limit is hit (overload shedding).
    GlobalQueueFull,
    /// The tenant's scan-byte budget cannot cover the request's
    /// reservation right now.
    BudgetExhausted,
}

impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RejectReason::TenantQueueFull => "tenant queue full",
            RejectReason::GlobalQueueFull => "global queue full",
            RejectReason::BudgetExhausted => "scan-byte budget exhausted",
        };
        f.write_str(s)
    }
}

/// Everything that can go wrong between `submit` and a job's answer.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// Load-shed at admission. `retry_after` is the service's estimate of
    /// when the same request could succeed; `None` means it can never
    /// succeed at the current configuration (e.g. a reservation larger
    /// than the budget's capacity).
    Rejected {
        tenant: String,
        reason: RejectReason,
        retry_after: Option<Duration>,
    },
    /// The tenant was never registered with the service.
    UnknownTenant { tenant: String },
    /// The request was malformed (empty program, unparsable GEL line).
    BadRequest { message: String },
    /// The job ran and failed. `retryable` mirrors the skill-layer error
    /// taxonomy: `true` means resubmitting could succeed (timeouts,
    /// exhausted transient-fault retries), `false` means the program
    /// itself is wrong.
    Failed { message: String, retryable: bool },
    /// The job was preempted more times than the service allows and was
    /// evicted to protect the pool. Resubmitting under lighter load can
    /// succeed.
    Evicted { preemptions: u32 },
    /// The service was shut down before the job ran.
    ShuttingDown,
    /// The OS refused to start one of the configured worker threads, and
    /// the pool serves nothing rather than run short-handed; `message`
    /// says how many started and why the next did not.
    ShortOfWorkers { message: String },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Rejected {
                tenant,
                reason,
                retry_after,
            } => match retry_after {
                Some(d) => write!(f, "rejected for {tenant}: {reason} (retry after {d:?})"),
                None => write!(
                    f,
                    "rejected for {tenant}: {reason} (not retryable as sized)"
                ),
            },
            ServeError::UnknownTenant { tenant } => write!(f, "unknown tenant {tenant:?}"),
            ServeError::BadRequest { message } => write!(f, "bad request: {message}"),
            ServeError::Failed { message, retryable } => {
                let kind = if *retryable { "retryable" } else { "permanent" };
                write!(f, "job failed ({kind}): {message}")
            }
            ServeError::Evicted { preemptions } => {
                write!(f, "evicted after {preemptions} preemptions")
            }
            ServeError::ShuttingDown => f.write_str("service shutting down"),
            ServeError::ShortOfWorkers { message } => {
                write!(f, "the worker pool is short of workers: {message}")
            }
        }
    }
}

impl std::error::Error for ServeError {}

impl ServeError {
    /// Whether this answer is a typed admission rejection (as opposed to
    /// an execution failure).
    pub fn is_rejection(&self) -> bool {
        matches!(self, ServeError::Rejected { .. } | ServeError::ShuttingDown)
    }
}

/// Result alias for the serving layer.
pub type Result<T> = std::result::Result<T, ServeError>;
