//! Thread-local trace scopes: the zero-cost-when-off emission point.
//!
//! Instrumented code calls [`emit`] with a closure; when no scope is
//! installed on the current thread (the default), the call is one
//! thread-local read and a branch — the event is never constructed.  A
//! scope is installed with [`install`], which returns an RAII guard; the
//! installing layer (a bin's `--trace` flag, the service's per-instance
//! worker loop, a spawned executor thread) decides the slot number that
//! prefixes the logical sort key.

use crate::event::TraceEvent;
use crate::tracer::TraceHandle;
use std::cell::RefCell;

struct ThreadScope {
    handle: TraceHandle,
    slot: u32,
    seq: u64,
}

thread_local! {
    static SCOPE: RefCell<Option<ThreadScope>> = const { RefCell::new(None) };
}

/// Uninstalls the scope when dropped, restoring the previous one (scopes
/// nest: the service installs per-instance scopes inside a session scope).
pub struct ScopeGuard {
    previous: Option<ThreadScope>,
    // Keep the guard from being Send: it must drop on the installing thread.
    _not_send: std::marker::PhantomData<*const ()>,
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        SCOPE.with(|scope| {
            *scope.borrow_mut() = self.previous.take();
        });
    }
}

/// Installs `handle` as the current thread's trace sink under slot `slot`.
/// The per-slot sequence number restarts at 0 — chunked consumers (the
/// service's per-instance traces) rely on that for byte-identity across
/// worker counts.
pub fn install(handle: TraceHandle, slot: u32) -> ScopeGuard {
    let previous = SCOPE.with(|scope| {
        scope.borrow_mut().replace(ThreadScope {
            handle,
            slot,
            seq: 0,
        })
    });
    ScopeGuard {
        previous,
        _not_send: std::marker::PhantomData,
    }
}

/// `true` when a scope is installed on this thread (events will be
/// constructed and recorded).
pub fn is_active() -> bool {
    SCOPE.with(|scope| scope.borrow().is_some())
}

/// Emits one event to the current scope, if any.  The closure is not
/// evaluated when tracing is off.
pub fn emit(event: impl FnOnce() -> TraceEvent) {
    SCOPE.with(|scope| {
        let mut borrow = scope.borrow_mut();
        if let Some(active) = borrow.as_mut() {
            let seq = active.seq;
            active.seq += 1;
            let (handle, slot) = (active.handle.clone(), active.slot);
            // Record outside the RefCell borrow: serializing the event may
            // itself emit (a traced Γ query inside a traced round) and
            // re-enter this thread-local.
            drop(borrow);
            handle.record(slot, seq, &event());
        }
    });
}

/// The current scope's handle, for layers that need to measure timing or
/// hand the handle to their worker threads (the service's worker pool).
pub fn current_handle() -> Option<TraceHandle> {
    SCOPE.with(|scope| scope.borrow().as_ref().map(|s| s.handle.clone()))
}

/// Records a wall-time measurement on the current scope's timing channel,
/// if a scope with an open timing channel is installed.
pub fn emit_timing(label: &str, micros: u128) {
    if let Some(handle) = current_handle() {
        handle.record_timing(label, micros);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emit_without_scope_never_runs_the_closure() {
        let mut ran = false;
        emit(|| {
            ran = true;
            TraceEvent::RoundOpen { round: 1 }
        });
        assert!(!ran);
        assert!(!is_active());
    }

    #[test]
    fn scoped_events_are_sequenced_and_guard_restores() {
        let handle = TraceHandle::jsonl();
        {
            let _guard = install(handle.clone(), 0);
            assert!(is_active());
            emit(|| TraceEvent::RoundOpen { round: 1 });
            emit(|| TraceEvent::RoundClose {
                round: 1,
                spread: Some(0.5),
            });
        }
        assert!(!is_active());
        let lines = handle.finish();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"seq\": 0"));
        assert!(lines[1].contains("\"seq\": 1"));
    }

    #[test]
    fn scopes_nest_and_inner_seq_restarts() {
        let outer = TraceHandle::jsonl();
        let inner = TraceHandle::jsonl();
        let _outer_guard = install(outer.clone(), 0);
        emit(|| TraceEvent::RoundOpen { round: 1 });
        {
            let _inner_guard = install(inner.clone(), 0);
            emit(|| TraceEvent::RoundOpen { round: 99 });
        }
        emit(|| TraceEvent::RoundOpen { round: 2 });
        let outer_lines = outer.finish();
        assert_eq!(outer_lines.len(), 2);
        assert!(outer_lines[1].contains("\"seq\": 1"));
        let inner_lines = inner.finish();
        assert_eq!(inner_lines.len(), 1);
        assert!(inner_lines[0].contains("\"seq\": 0"), "inner restarts at 0");
    }
}
