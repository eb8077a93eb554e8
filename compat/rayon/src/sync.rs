//! The synchronization-primitive seam of the pool: `std` types on normal
//! builds, instrumented [`loom`] types under `--cfg avg_local_loom`.
//!
//! `pool.rs` is written once, against this module; compiling the workspace
//! with `RUSTFLAGS="--cfg avg_local_loom"` swaps every atomic, mutex,
//! condvar, and job cell for its model-checked counterpart so the loom
//! suite (`tests/tests/loom_pool.rs`) can DFS-explore the pool's
//! interleavings. The only type that is not a plain re-export is
//! [`UnsafeCell`]: loom's cell exposes closure-based `with`/`with_mut`
//! accessors (so every access is a recordable event), so the `std` arm
//! provides the same shape as a zero-cost `#[repr(transparent)]` wrapper.

#[cfg(not(avg_local_loom))]
mod imp {
    pub use std::sync::atomic::{AtomicUsize, Ordering};
    pub use std::sync::{Condvar, Mutex};

    /// `std` twin of loom's closure-based cell.
    ///
    /// `#[repr(transparent)]` over `std::cell::UnsafeCell<T>` (itself
    /// transparent over `T`), which `pool::collect_outputs` relies on to
    /// reinterpret a fully-written `Vec<UnsafeCell<MaybeUninit<R>>>` as
    /// `Vec<R>` in place.
    #[repr(transparent)]
    pub struct UnsafeCell<T>(std::cell::UnsafeCell<T>);

    impl<T> UnsafeCell<T> {
        pub const fn new(data: T) -> UnsafeCell<T> {
            UnsafeCell(std::cell::UnsafeCell::new(data))
        }

        /// Immutable access. The pointer is raw, exactly as in loom's API:
        /// dereferencing it is the caller's `unsafe` obligation (no aliasing
        /// `&mut`, cf. the pool's cursor/index protocol).
        // Only the loom arm of `pool::collect_outputs` reads through `with`;
        // kept on the std arm for API parity so pool code never cfg-splits.
        #[allow(dead_code)]
        pub fn with<R>(&self, f: impl FnOnce(*const T) -> R) -> R {
            f(self.0.get())
        }

        /// Mutable access; same contract as [`UnsafeCell::with`].
        pub fn with_mut<R>(&self, f: impl FnOnce(*mut T) -> R) -> R {
            f(self.0.get())
        }
    }
}

#[cfg(avg_local_loom)]
mod imp {
    pub use loom::cell::UnsafeCell;
    pub use loom::sync::atomic::{AtomicUsize, Ordering};
    pub use loom::sync::{Condvar, Mutex};
}

pub(crate) use imp::*;
