//! Bridges the storage layer's fault injector into the engine's
//! out-of-core spill paths.
//!
//! The engine's [`dc_engine::SpillHooks`] trait is consulted before every
//! spill-file write and read-back. [`InjectedSpillHooks`] adapts a shared
//! [`FaultInjector`] to that trait, so chaos tests drive transient
//! spill-write failures and slow spill reads from the same seeded
//! schedule as scan faults. Retryable storage faults map to
//! [`std::io::ErrorKind::Interrupted`], which the engine surfaces as a
//! retryable [`dc_engine::EngineError::Spill`] — the resilient executor
//! then retries the node like any other transient failure.

use std::io;
use std::sync::Arc;

use crate::error::StorageError;
use crate::fault::FaultInjector;

/// [`dc_engine::SpillHooks`] implementation backed by a [`FaultInjector`].
#[derive(Debug, Clone)]
pub struct InjectedSpillHooks {
    injector: Arc<FaultInjector>,
}

impl InjectedSpillHooks {
    /// Route the engine's spill I/O through `injector`.
    pub fn new(injector: Arc<FaultInjector>) -> InjectedSpillHooks {
        InjectedSpillHooks { injector }
    }
}

fn to_io(e: StorageError) -> io::Error {
    let kind = if e.is_retryable() {
        io::ErrorKind::Interrupted
    } else {
        io::ErrorKind::Other
    };
    io::Error::new(kind, e.to_string())
}

impl dc_engine::SpillHooks for InjectedSpillHooks {
    fn before_spill_write(&self) -> io::Result<()> {
        self.injector.on_spill_write().map_err(to_io)
    }

    fn before_spill_read(&self) -> io::Result<()> {
        self.injector.on_spill_read(None).map_err(to_io)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultConfig, FaultOp, InjectedFault};
    use dc_engine::SpillHooks;

    #[test]
    fn transient_spill_write_maps_to_interrupted() {
        let inj = Arc::new(FaultInjector::new(FaultConfig::disabled().schedule(
            FaultOp::SpillWrite,
            0,
            InjectedFault::Transient,
        )));
        let hooks = InjectedSpillHooks::new(Arc::clone(&inj));
        let err = hooks.before_spill_write().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::Interrupted);
        assert!(hooks.before_spill_write().is_ok());
        assert_eq!(inj.stats().transient_injected, 1);
    }

    #[test]
    fn unavailable_spill_read_maps_to_other() {
        let inj = Arc::new(FaultInjector::new(FaultConfig::disabled().schedule(
            FaultOp::SpillRead,
            0,
            InjectedFault::Unavailable,
        )));
        let hooks = InjectedSpillHooks::new(inj);
        let err = hooks.before_spill_read().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::Other);
    }

    #[test]
    fn engine_spill_error_retryability_follows_io_kind() {
        let inj = Arc::new(FaultInjector::new(FaultConfig::disabled().schedule(
            FaultOp::SpillWrite,
            0,
            InjectedFault::Transient,
        )));
        let hooks = InjectedSpillHooks::new(inj);
        let io_err = hooks.before_spill_write().unwrap_err();
        let engine_err = dc_engine::governor::spill_error("partition write", io_err);
        assert!(
            matches!(
                engine_err,
                dc_engine::EngineError::Spill {
                    retryable: true,
                    ..
                }
            ),
            "transient injected fault must stay retryable through the engine"
        );
    }
}
