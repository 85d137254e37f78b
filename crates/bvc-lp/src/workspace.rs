//! Reusable solver buffers.
//!
//! Every simplex solve needs a dense tableau (`(rows + 1) × (cols + 1)`
//! floats), a basis map and an eligibility mask.  The consensus geometry
//! solves *many* small LPs of a handful of recurring shapes — hull-membership
//! programs and joint common-point programs — so allocating those buffers
//! fresh on every call is pure churn.  [`SimplexWorkspace`] is an arena-style
//! pool: returned buffers are parked in a slot keyed by their power-of-two
//! size class and handed back out (cleared) to the next solve of a compatible
//! size, so a workload that alternates between tiny membership programs and
//! larger joint programs does not keep re-zeroing one oversized buffer.
//!
//! [`LinearProgram::solve`](crate::LinearProgram::solve) uses a thread-local
//! workspace transparently; callers that want explicit control (benchmarks,
//! long-lived engines) can hold their own and use
//! [`LinearProgram::solve_with`](crate::LinearProgram::solve_with).

use std::cell::RefCell;

/// Number of power-of-two size classes kept per buffer kind (class 30 holds
/// buffers of up to 2^30 elements — far beyond any LP this workspace serves).
const NUM_CLASSES: usize = 31;

/// An arena-style pool of simplex buffers, keyed by size class.
#[derive(Debug)]
pub struct SimplexWorkspace {
    f64_slots: Vec<Vec<f64>>,
    usize_slots: Vec<Vec<usize>>,
    bool_slots: Vec<Vec<bool>>,
    reuses: u64,
    allocations: u64,
    /// Trace-scope token of the previous solve, for the logical `reused`
    /// flag of the traced simplex event (see [`SimplexWorkspace::stamp_scope`]).
    trace_stamp: Option<u64>,
}

impl Default for SimplexWorkspace {
    fn default() -> Self {
        Self::new()
    }
}

/// The size class of a requested length: the exponent of the smallest power
/// of two that fits `len`.
#[inline]
pub(crate) fn class_of(len: usize) -> usize {
    (len.max(1).next_power_of_two().trailing_zeros() as usize).min(NUM_CLASSES - 1)
}

impl SimplexWorkspace {
    /// Creates an empty workspace; buffers are allocated lazily on first use.
    pub fn new() -> Self {
        Self {
            f64_slots: (0..NUM_CLASSES).map(|_| Vec::new()).collect(),
            usize_slots: (0..NUM_CLASSES).map(|_| Vec::new()).collect(),
            bool_slots: (0..NUM_CLASSES).map(|_| Vec::new()).collect(),
            reuses: 0,
            allocations: 0,
            trace_stamp: None,
        }
    }

    /// Pins the workspace to a trace scope: when `token` differs from the
    /// previous stamp the pooled buffers are dropped, so a physical reuse
    /// is always a *same-scope* reuse.  Without this, a thread-local
    /// workspace warmed by another instance (or by an earlier traced run on
    /// the same thread) would make the traced `reused` flag depend on
    /// worker scheduling.  Untraced runs always pass `None`, so the pools
    /// are never cleared when tracing is off.
    pub fn stamp_scope(&mut self, token: Option<u64>) {
        if self.trace_stamp != token {
            self.trace_stamp = token;
            for slot in &mut self.f64_slots {
                *slot = Vec::new();
            }
            for slot in &mut self.usize_slots {
                *slot = Vec::new();
            }
            for slot in &mut self.bool_slots {
                *slot = Vec::new();
            }
        }
    }

    /// How many buffer requests were served from the pool.
    pub fn reuses(&self) -> u64 {
        self.reuses
    }

    /// How many buffer requests required a fresh allocation.
    pub fn allocations(&self) -> u64 {
        self.allocations
    }

    pub(crate) fn take_f64(&mut self, len: usize) -> Vec<f64> {
        let class = class_of(len);
        let parked = std::mem::take(&mut self.f64_slots[class]);
        if parked.capacity() >= len {
            self.reuses += 1;
            let mut buf = parked;
            buf.clear();
            buf.resize(len, 0.0);
            return buf;
        }
        self.allocations += 1;
        let mut buf = Vec::with_capacity(1usize << class);
        buf.resize(len, 0.0);
        buf
    }

    pub(crate) fn put_f64(&mut self, buf: Vec<f64>) {
        if buf.capacity() == 0 {
            return;
        }
        let class = (buf.capacity().ilog2() as usize).min(NUM_CLASSES - 1);
        if self.f64_slots[class].capacity() < buf.capacity() {
            self.f64_slots[class] = buf;
        }
    }

    pub(crate) fn take_usize(&mut self, len: usize) -> Vec<usize> {
        let class = class_of(len);
        let parked = std::mem::take(&mut self.usize_slots[class]);
        if parked.capacity() >= len {
            self.reuses += 1;
            let mut buf = parked;
            buf.clear();
            buf.resize(len, 0);
            return buf;
        }
        self.allocations += 1;
        let mut buf = Vec::with_capacity(1usize << class);
        buf.resize(len, 0);
        buf
    }

    pub(crate) fn put_usize(&mut self, buf: Vec<usize>) {
        if buf.capacity() == 0 {
            return;
        }
        let class = (buf.capacity().ilog2() as usize).min(NUM_CLASSES - 1);
        if self.usize_slots[class].capacity() < buf.capacity() {
            self.usize_slots[class] = buf;
        }
    }

    pub(crate) fn take_bool(&mut self, len: usize, value: bool) -> Vec<bool> {
        let class = class_of(len);
        let parked = std::mem::take(&mut self.bool_slots[class]);
        if parked.capacity() >= len {
            self.reuses += 1;
            let mut buf = parked;
            buf.clear();
            buf.resize(len, value);
            return buf;
        }
        self.allocations += 1;
        let mut buf = Vec::with_capacity(1usize << class);
        buf.resize(len, value);
        buf
    }

    pub(crate) fn put_bool(&mut self, buf: Vec<bool>) {
        if buf.capacity() == 0 {
            return;
        }
        let class = (buf.capacity().ilog2() as usize).min(NUM_CLASSES - 1);
        if self.bool_slots[class].capacity() < buf.capacity() {
            self.bool_slots[class] = buf;
        }
    }
}

thread_local! {
    static THREAD_WORKSPACE: RefCell<SimplexWorkspace> = RefCell::new(SimplexWorkspace::new());
}

/// Runs `f` with the calling thread's shared workspace.
pub(crate) fn with_thread_workspace<R>(f: impl FnOnce(&mut SimplexWorkspace) -> R) -> R {
    THREAD_WORKSPACE.with(|ws| f(&mut ws.borrow_mut()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffers_are_reused_within_a_size_class() {
        let mut ws = SimplexWorkspace::new();
        let buf = ws.take_f64(100);
        assert_eq!(buf.len(), 100);
        ws.put_f64(buf);
        let again = ws.take_f64(120); // same class (128)
        assert_eq!(again.len(), 120);
        assert!(again.iter().all(|&v| v == 0.0));
        assert_eq!(ws.reuses(), 1);
        assert_eq!(ws.allocations(), 1);
    }

    #[test]
    fn different_size_classes_use_different_slots() {
        let mut ws = SimplexWorkspace::new();
        let small = ws.take_f64(10);
        ws.put_f64(small);
        // A much larger request must not be served by the small buffer.
        let large = ws.take_f64(1000);
        assert_eq!(large.len(), 1000);
        assert_eq!(ws.allocations(), 2);
    }

    #[test]
    fn returned_buffers_come_back_cleared() {
        let mut ws = SimplexWorkspace::new();
        let mut buf = ws.take_usize(8);
        buf[3] = 42;
        ws.put_usize(buf);
        let again = ws.take_usize(8);
        assert!(again.iter().all(|&v| v == 0));
    }

    #[test]
    fn bool_buffers_honour_fill_value() {
        let mut ws = SimplexWorkspace::new();
        let buf = ws.take_bool(5, true);
        assert!(buf.iter().all(|&b| b));
        ws.put_bool(buf);
        let again = ws.take_bool(4, false);
        assert!(again.iter().all(|&b| !b));
    }
}
