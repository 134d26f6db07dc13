//! Per-thread scratch arenas for kernel workspaces.
//!
//! The conv and GEMM hot paths need short-lived `f32` workspaces — im2col
//! matrices, packed A/B panels, per-sample gradient buffers — whose sizes
//! repeat exactly from call to call. Allocating them fresh inside the
//! per-sample loops puts the allocator on the hottest path in the
//! workspace; the arena instead keeps a small per-thread pool of
//! buffers and hands them out by best fit, so a warmed-up training loop
//! performs zero heap allocations per sample.
//!
//! A buffer is checked out with [`scratch`] (contents unspecified) or
//! [`scratch_zeroed`] and returns to its thread's pool when the
//! [`Scratch`] guard drops. The int8 conv's quantized operands are `i8`
//! views of buffers from the same pool, so they keep no buffers of their
//! own: a separate `i8` pool would hold up to eight more buffers per
//! thread for the life of the process. Pools are thread-local, so the
//! threads that run kernels (compute-pool workers, which also run NAS
//! sweep trials; grid submitters; engine workers) never contend; a guard
//! must drop on the thread that created it, which the RAII shape
//! guarantees for the closure-scoped uses in this crate.
//!
//! ## Telemetry
//!
//! When a telemetry session is active the arena counts its traffic:
//!
//! * `tensor.arena.hits` — checkouts served from the pool,
//! * `tensor.arena.misses` — checkouts that had to allocate,
//! * `tensor.arena.bytes_reused` — bytes served without allocation.
//!
//! A steady-state loop shows `misses` frozen at its warmup value while
//! `hits` grows — the "zero per-sample allocations" invariant the bench
//! runner asserts.

use std::cell::RefCell;
use std::ops::{Deref, DerefMut};

/// Upper bound on pooled buffers per thread; when a buffer returns to a
/// full pool the smallest-capacity one is dropped (big buffers serve the
/// most future requests).
const POOL_CAP: usize = 8;

thread_local! {
    static POOL: RefCell<Vec<Vec<f32>>> = const { RefCell::new(Vec::new()) };
}

/// A pooled scratch buffer, returned to the per-thread pool on drop.
///
/// Dereferences to `[f32]` of exactly the requested length.
pub struct Scratch {
    buf: Vec<f32>,
}

impl Deref for Scratch {
    type Target = [f32];
    fn deref(&self) -> &[f32] {
        &self.buf
    }
}

impl DerefMut for Scratch {
    fn deref_mut(&mut self) -> &mut [f32] {
        &mut self.buf
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let buf = std::mem::take(&mut self.buf);
        if buf.capacity() == 0 {
            return;
        }
        POOL.with(|p| {
            let mut pool = p.borrow_mut();
            if pool.len() == POOL_CAP {
                // Evict the smallest buffer (possibly the returning one).
                if let Some(min_at) = (0..pool.len()).min_by_key(|&i| pool[i].capacity()) {
                    if pool[min_at].capacity() < buf.capacity() {
                        pool[min_at] = buf;
                    }
                    return;
                }
            }
            pool.push(buf);
        });
    }
}

/// Takes the best-fitting pooled buffer (smallest capacity ≥ `len`), or
/// allocates when nothing fits.
fn take(len: usize) -> Vec<f32> {
    let pooled = POOL.with(|p| {
        let mut pool = p.borrow_mut();
        let best = (0..pool.len())
            .filter(|&i| pool[i].capacity() >= len)
            .min_by_key(|&i| pool[i].capacity());
        best.map(|i| pool.swap_remove(i))
    });
    match pooled {
        Some(buf) => {
            if hydronas_telemetry::enabled() {
                hydronas_telemetry::add_all(&[
                    ("tensor.arena.hits", 1),
                    ("tensor.arena.bytes_reused", 4 * len as u64),
                ]);
            }
            buf
        }
        None => {
            if hydronas_telemetry::enabled() {
                hydronas_telemetry::add("tensor.arena.misses", 1);
            }
            Vec::with_capacity(len)
        }
    }
}

/// Checks out a scratch buffer of `len` floats with **unspecified
/// contents** (stale values from earlier checkouts are visible). Use for
/// workspaces the kernel fully overwrites — im2col columns, pack panels,
/// GEMM outputs.
pub fn scratch(len: usize) -> Scratch {
    let mut buf = take(len);
    // Resize only extends with zeros; an already-large buffer keeps its
    // stale prefix, which is the point — no O(len) clear on the hot path.
    if buf.len() < len {
        buf.resize(len, 0.0);
    } else {
        buf.truncate(len);
    }
    Scratch { buf }
}

/// Checks out a zero-filled scratch buffer of `len` floats.
pub fn scratch_zeroed(len: usize) -> Scratch {
    let mut s = scratch(len);
    s.fill(0.0);
    s
}

/// `len` bytes of `i8` scratch with unspecified contents: a view of a
/// pooled `f32` buffer (see the module docs), returned to the pool on drop.
pub(crate) struct ScratchI8 {
    buf: Scratch,
    len: usize,
}

impl Deref for ScratchI8 {
    type Target = [i8];
    fn deref(&self) -> &[i8] {
        // SAFETY: `buf` holds at least `len` initialized bytes, and every
        // byte is a valid `i8`, whose alignment is 1.
        unsafe { std::slice::from_raw_parts(self.buf.as_ptr().cast(), self.len) }
    }
}

impl DerefMut for ScratchI8 {
    fn deref_mut(&mut self) -> &mut [i8] {
        // SAFETY: as in `deref`; any bytes written are valid f32 bits for
        // the buffer's next checkout.
        unsafe { std::slice::from_raw_parts_mut(self.buf.as_mut_ptr().cast(), self.len) }
    }
}

/// Checks out a [`ScratchI8`] of `len` bytes.
pub(crate) fn scratch_i8(len: usize) -> ScratchI8 {
    let buf = scratch(len.div_ceil(4));
    ScratchI8 { buf, len }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scratch_has_requested_length() {
        let s = scratch(100);
        assert_eq!(s.len(), 100);
        let z = scratch_zeroed(64);
        assert!(z.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn buffers_are_reused_across_checkouts() {
        let ptr = {
            let s = scratch(1024);
            s.as_ptr() as usize
        };
        // Same size immediately after return: must come from the pool.
        let s2 = scratch(1024);
        assert_eq!(s2.as_ptr() as usize, ptr);
    }

    #[test]
    fn concurrent_checkouts_get_distinct_buffers() {
        let a = scratch(32);
        let b = scratch(32);
        assert_ne!(a.as_ptr(), b.as_ptr());
        drop(a);
        drop(b);
    }

    #[test]
    fn i8_scratch_views_a_pooled_float_buffer() {
        let ptr = scratch(256).as_ptr() as usize;
        let mut q = scratch_i8(1023);
        assert_eq!((q.len(), q.as_ptr() as usize), (1023, ptr));
        q.fill(-7);
        assert!(q.iter().all(|&v| v == -7));
    }

    #[test]
    fn zeroed_scratch_clears_stale_contents() {
        {
            let mut s = scratch(16);
            s.fill(7.0);
        }
        let z = scratch_zeroed(16);
        assert!(z.iter().all(|&v| v == 0.0));
    }
}
