//! Per-thread buffers that the passes and the bytecode lowerer take their
//! per-sequence tables from: a forwarding table, use counts, a hash
//! table, a renumbering, registers. Each is cleared and handed back
//! after one sequence, so a thread compiling kernel after kernel
//! allocates a table only while the longest sequence it has met grows.

use crate::ir::Operand;
use std::cell::Cell;
use std::thread::LocalKey;

/// A pool of one reusable buffer per thread.
pub(crate) type Pool<T> = LocalKey<Cell<Vec<T>>>;

thread_local! {
    /// Forwarding tables ([`crate::passes::forward_walk`]).
    pub(crate) static OPERANDS: Cell<Vec<Operand>> = const { Cell::new(Vec::new()) };
    /// Use counts, hash tables, renumberings and last uses.
    pub(crate) static INDICES: Cell<Vec<usize>> = const { Cell::new(Vec::new()) };
    /// Register assignments (bytecode lowering).
    pub(crate) static REGS: Cell<Vec<u32>> = const { Cell::new(Vec::new()) };
}

/// Run `f` on this thread's buffer from `pool`, emptied, and keep the
/// buffer for the next caller. A nested call on the same pool gets a
/// fresh buffer, so nesting is correct, only not free.
pub(crate) fn with<T: 'static, R>(pool: &'static Pool<T>, f: impl FnOnce(&mut Vec<T>) -> R) -> R {
    let mut buf = pool.take();
    buf.clear();
    let r = f(&mut buf);
    pool.set(buf);
    r
}
