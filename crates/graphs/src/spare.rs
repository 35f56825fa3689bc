//! Per-thread reuse of the QAP solvers' `n × n` buffers.
//!
//! Every Tabu restart needs a delta table and a tabu list, each `n × n`
//! (about 345 KiB at n = 210).  Buffers that large come from fresh pages
//! that the kernel zeroes and faults in on first touch, and freeing them
//! hands the pages back, so a fresh buffer per restart pays those faults
//! again on every compile.  Restarts run back to back on the same pool
//! threads, so each thread keeps the buffers of its last finished restart
//! here and the next restart on that thread takes them over.
//!
//! A buffer is handed out empty with its capacity kept, and every user
//! writes all of it before reading any, so nothing carries over from one
//! table to the next.  Each kind has one slot per thread, so a thread keeps
//! at most one table's worth: handing a buffer back drops the one the slot
//! held.

use std::cell::Cell;
use std::thread::LocalKey;

/// A thread's spare buffer of one kind (an empty `Vec` when it has none).
pub(crate) type Slot<T> = LocalKey<Cell<Vec<T>>>;

thread_local! {
    /// The delta table's `delta` buffer.
    pub(crate) static DELTA: Cell<Vec<f64>> = const { Cell::new(Vec::new()) };
    /// The Tabu descent's `tabu_until` list.
    pub(crate) static TABU: Cell<Vec<usize>> = const { Cell::new(Vec::new()) };
}

/// Takes this thread's spare buffer out of `slot`, emptied.
pub(crate) fn take<T>(slot: &'static Slot<T>) -> Vec<T> {
    let mut buffer = slot.try_with(Cell::take).unwrap_or_default();
    buffer.clear();
    buffer
}

/// Makes `buffer` this thread's spare of its kind.  During thread teardown,
/// when the slot is gone, the buffer is simply freed.
pub(crate) fn give_back<T>(slot: &'static Slot<T>, buffer: Vec<T>) {
    let _ = slot.try_with(|spare| spare.set(buffer));
}
