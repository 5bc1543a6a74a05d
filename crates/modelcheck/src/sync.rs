//! Drop-in shims for `std::sync::atomic`.
//!
//! Each shim wraps the real std atomic and forwards every operation through
//! `crate::rt`: outside an exploration that is a direct passthrough (the
//! closure runs immediately), inside an exploration it is a schedule point
//! and a happens-before event. Code under test switches imports behind the
//! `model-check` feature:
//!
//! ```ignore
//! #[cfg(not(feature = "model-check"))]
//! use std::sync::atomic::{fence, AtomicU64, Ordering};
//! #[cfg(feature = "model-check")]
//! use cldiam_modelcheck::sync::atomic::{fence, AtomicU64, Ordering};
//! ```
//!
//! Modeling notes:
//!
//! * The serialized scheduler makes every execution sequentially
//!   consistent; *weak-memory effects are modeled in the race detector*,
//!   not in the values returned. A relaxed publish therefore returns the
//!   "right" value but still fails the exploration if a
//!   [`crate::cell::TrackedCell`] access depends on it without a
//!   happens-before edge.
//! * `compare_exchange_weak` never fails spuriously under the model; both
//!   `compare_exchange` variants count as an RMW with the *success*
//!   ordering for happens-before purposes (an over-approximation on the
//!   failure path that errs toward missing edges, i.e. toward reporting
//!   races).

pub mod atomic {
    pub use std::sync::atomic::Ordering;

    use crate::rt::{self, Op};

    /// Shimmed `std::sync::atomic::fence`.
    pub fn fence(order: Ordering) {
        rt::op_current(Op::Fence { order }, || std::sync::atomic::fence(order));
    }

    macro_rules! int_atomic {
        ($name:ident, $ty:ty) => {
            /// Shimmed integer atomic; see the module docs.
            #[derive(Debug, Default)]
            pub struct $name {
                inner: std::sync::atomic::$name,
            }

            impl $name {
                /// Creates a new atomic with the given initial value.
                pub const fn new(value: $ty) -> Self {
                    Self { inner: std::sync::atomic::$name::new(value) }
                }

                #[inline]
                fn addr(&self) -> usize {
                    self as *const Self as usize
                }

                /// Shimmed `load`.
                pub fn load(&self, order: Ordering) -> $ty {
                    rt::op_current(Op::AtomicLoad { addr: self.addr(), order }, || {
                        self.inner.load(order)
                    })
                }

                /// Shimmed `store`.
                pub fn store(&self, value: $ty, order: Ordering) {
                    rt::op_current(Op::AtomicStore { addr: self.addr(), order }, || {
                        self.inner.store(value, order)
                    })
                }

                /// Shimmed `swap`.
                pub fn swap(&self, value: $ty, order: Ordering) -> $ty {
                    rt::op_current(Op::AtomicRmw { addr: self.addr(), order }, || {
                        self.inner.swap(value, order)
                    })
                }

                /// Shimmed `compare_exchange` (HB-modeled with the success
                /// ordering; see the module docs).
                pub fn compare_exchange(
                    &self,
                    current: $ty,
                    new: $ty,
                    success: Ordering,
                    failure: Ordering,
                ) -> Result<$ty, $ty> {
                    rt::op_current(Op::AtomicRmw { addr: self.addr(), order: success }, || {
                        self.inner.compare_exchange(current, new, success, failure)
                    })
                }

                /// Shimmed `compare_exchange_weak` (never fails spuriously
                /// under the model).
                pub fn compare_exchange_weak(
                    &self,
                    current: $ty,
                    new: $ty,
                    success: Ordering,
                    failure: Ordering,
                ) -> Result<$ty, $ty> {
                    self.compare_exchange(current, new, success, failure)
                }

                /// Shimmed `fetch_add`.
                pub fn fetch_add(&self, value: $ty, order: Ordering) -> $ty {
                    rt::op_current(Op::AtomicRmw { addr: self.addr(), order }, || {
                        self.inner.fetch_add(value, order)
                    })
                }

                /// Shimmed `fetch_sub`.
                pub fn fetch_sub(&self, value: $ty, order: Ordering) -> $ty {
                    rt::op_current(Op::AtomicRmw { addr: self.addr(), order }, || {
                        self.inner.fetch_sub(value, order)
                    })
                }

                /// Shimmed `fetch_min`.
                pub fn fetch_min(&self, value: $ty, order: Ordering) -> $ty {
                    rt::op_current(Op::AtomicRmw { addr: self.addr(), order }, || {
                        self.inner.fetch_min(value, order)
                    })
                }

                /// Shimmed `fetch_max`.
                pub fn fetch_max(&self, value: $ty, order: Ordering) -> $ty {
                    rt::op_current(Op::AtomicRmw { addr: self.addr(), order }, || {
                        self.inner.fetch_max(value, order)
                    })
                }

                /// Shimmed `fetch_or`.
                pub fn fetch_or(&self, value: $ty, order: Ordering) -> $ty {
                    rt::op_current(Op::AtomicRmw { addr: self.addr(), order }, || {
                        self.inner.fetch_or(value, order)
                    })
                }

                /// Shimmed `fetch_and`.
                pub fn fetch_and(&self, value: $ty, order: Ordering) -> $ty {
                    rt::op_current(Op::AtomicRmw { addr: self.addr(), order }, || {
                        self.inner.fetch_and(value, order)
                    })
                }

                /// Consumes the atomic, returning the inner value (not a
                /// schedule point: requires exclusive ownership).
                pub fn into_inner(self) -> $ty {
                    self.inner.into_inner()
                }
            }
        };
    }

    int_atomic!(AtomicU32, u32);
    int_atomic!(AtomicU64, u64);
    int_atomic!(AtomicUsize, usize);
    int_atomic!(AtomicI64, i64);

    /// Shimmed `AtomicBool`; see the module docs.
    #[derive(Debug, Default)]
    pub struct AtomicBool {
        inner: std::sync::atomic::AtomicBool,
    }

    impl AtomicBool {
        /// Creates a new atomic with the given initial value.
        pub const fn new(value: bool) -> Self {
            Self { inner: std::sync::atomic::AtomicBool::new(value) }
        }

        #[inline]
        fn addr(&self) -> usize {
            self as *const Self as usize
        }

        /// Shimmed `load`.
        pub fn load(&self, order: Ordering) -> bool {
            rt::op_current(Op::AtomicLoad { addr: self.addr(), order }, || self.inner.load(order))
        }

        /// Shimmed `store`.
        pub fn store(&self, value: bool, order: Ordering) {
            rt::op_current(Op::AtomicStore { addr: self.addr(), order }, || {
                self.inner.store(value, order)
            })
        }

        /// Shimmed `swap`.
        pub fn swap(&self, value: bool, order: Ordering) -> bool {
            rt::op_current(Op::AtomicRmw { addr: self.addr(), order }, || {
                self.inner.swap(value, order)
            })
        }

        /// Shimmed `compare_exchange` (HB-modeled with the success
        /// ordering; see the module docs).
        pub fn compare_exchange(
            &self,
            current: bool,
            new: bool,
            success: Ordering,
            failure: Ordering,
        ) -> Result<bool, bool> {
            rt::op_current(Op::AtomicRmw { addr: self.addr(), order: success }, || {
                self.inner.compare_exchange(current, new, success, failure)
            })
        }

        /// Shimmed `fetch_or`.
        pub fn fetch_or(&self, value: bool, order: Ordering) -> bool {
            rt::op_current(Op::AtomicRmw { addr: self.addr(), order }, || {
                self.inner.fetch_or(value, order)
            })
        }

        /// Consumes the atomic, returning the inner value (not a schedule
        /// point: requires exclusive ownership).
        pub fn into_inner(self) -> bool {
            self.inner.into_inner()
        }
    }
}
