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

/// Parked buffers of one element type, one slot per size class.
#[derive(Debug)]
pub(crate) struct Pool<T>(Vec<Vec<T>>);

impl<T: Clone> Pool<T> {
    fn new() -> Self {
        Self((0..NUM_CLASSES).map(|_| Vec::new()).collect())
    }

    /// A buffer of `len` copies of `value`, and whether the parked buffer
    /// of its class served it.
    fn take(&mut self, len: usize, value: T) -> (Vec<T>, bool) {
        let class = class_of(len);
        let mut buf = std::mem::take(&mut self.0[class]);
        let reused = buf.capacity() >= len;
        match reused {
            true => buf.clear(),
            false => buf = Vec::with_capacity(1usize << class),
        }
        buf.resize(len, value);
        (buf, reused)
    }

    /// Parks `buf` in the class of its capacity, unless a larger one is
    /// parked there.
    fn put(&mut self, buf: Vec<T>) {
        if buf.capacity() == 0 {
            return;
        }
        let class = (buf.capacity().ilog2() as usize).min(NUM_CLASSES - 1);
        if self.0[class].capacity() < buf.capacity() {
            self.0[class] = buf;
        }
    }
}

/// An element type the workspace pools: each has its own [`Pool`].
pub(crate) trait Pooled: Clone + Sized {
    fn pool(workspace: &mut SimplexWorkspace) -> &mut Pool<Self>;
}

impl Pooled for f64 {
    fn pool(workspace: &mut SimplexWorkspace) -> &mut Pool<Self> {
        &mut workspace.floats
    }
}

impl Pooled for usize {
    fn pool(workspace: &mut SimplexWorkspace) -> &mut Pool<Self> {
        &mut workspace.indices
    }
}

impl Pooled for bool {
    fn pool(workspace: &mut SimplexWorkspace) -> &mut Pool<Self> {
        &mut workspace.flags
    }
}

/// An arena-style pool of simplex buffers, keyed by size class.
#[derive(Debug)]
pub struct SimplexWorkspace {
    floats: Pool<f64>,
    indices: Pool<usize>,
    flags: Pool<bool>,
    reuses: u64,
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
            floats: Pool::new(),
            indices: Pool::new(),
            flags: Pool::new(),
            reuses: 0,
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
            *self = Self {
                reuses: self.reuses,
                trace_stamp: token,
                ..Self::new()
            };
        }
    }

    /// How many buffer requests were served from the pool.
    pub fn reuses(&self) -> u64 {
        self.reuses
    }

    /// A buffer of `len` copies of `value`, from the pool when its class
    /// holds one large enough.
    pub(crate) fn take<T: Pooled>(&mut self, len: usize, value: T) -> Vec<T> {
        let (buf, reused) = T::pool(self).take(len, value);
        self.reuses += u64::from(reused);
        buf
    }

    /// Hands `buf` back for a later [`take`](Self::take).
    pub(crate) fn put<T: Pooled>(&mut self, buf: Vec<T>) {
        T::pool(self).put(buf);
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
        let buf = ws.take(100, 0.0);
        assert_eq!(buf.len(), 100);
        ws.put(buf);
        let again = ws.take(120, 0.0); // same class (128)
        assert_eq!(again.len(), 120);
        assert!(again.iter().all(|&v| v == 0.0));
        assert_eq!(ws.reuses(), 1);
    }

    #[test]
    fn different_size_classes_use_different_slots() {
        let mut ws = SimplexWorkspace::new();
        let small = ws.take(10, 0.0);
        ws.put(small);
        // A much larger request must not be served by the small buffer.
        let large = ws.take(1000, 0.0);
        assert_eq!(large.len(), 1000);
        assert_eq!(ws.reuses(), 0);
    }

    #[test]
    fn returned_buffers_come_back_cleared() {
        let mut ws = SimplexWorkspace::new();
        let mut buf = ws.take(8, 0usize);
        buf[3] = 42;
        ws.put(buf);
        let again = ws.take(8, 0usize);
        assert!(again.iter().all(|&v| v == 0));
    }

    #[test]
    fn bool_buffers_honour_fill_value() {
        let mut ws = SimplexWorkspace::new();
        let buf = ws.take(5, true);
        assert!(buf.iter().all(|&b| b));
        ws.put(buf);
        let again = ws.take(4, false);
        assert!(again.iter().all(|&b| !b));
    }
}
