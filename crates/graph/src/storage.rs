//! Backing storage for CSR and compressed-block arrays: an owned `Vec<T>` or
//! a typed window into a shared memory mapping.
//!
//! [`Storage`] is what lets the `.cldg` v2 mmap loader hand out a fully
//! functional [`Graph`](crate::Graph) whose `offsets/targets/weights` point
//! straight into the page cache: every consumer sees a `&[T]` and cannot
//! tell the tiers apart. The mapped variant holds an `Arc` on the mapping,
//! so clones are O(1) and the file stays mapped for as long as any array
//! refers into it.

// The crate denies unsafe; this module opts back in for the documented
// raw-slice reinterpretations below (every site carries a SAFETY note).
#![allow(unsafe_code)]

use std::ops::Deref;
use std::sync::Arc;

use crate::mmap::Mmap;

/// A read-only `[T]` that is either heap-owned or a view into an [`Mmap`].
///
/// Only instantiated with plain little-endian-on-disk scalar types (`u8`,
/// `u32`, `usize`); the mapped constructor enforces alignment and bounds, so
/// the internal pointer cast is sound for any bit pattern of those types.
pub(crate) enum Storage<T: Copy> {
    Owned(Vec<T>),
    Mapped { map: Arc<Mmap>, byte_offset: usize, len: usize },
}

impl<T: Copy> Storage<T> {
    /// A typed window of `len` elements starting `byte_offset` bytes into
    /// the mapping. Fails (returns `None`) when the window overruns the file
    /// or is misaligned for `T` — callers translate that into a parse error.
    pub(crate) fn mapped(map: Arc<Mmap>, byte_offset: usize, len: usize) -> Option<Self> {
        let bytes = len.checked_mul(std::mem::size_of::<T>())?;
        let end = byte_offset.checked_add(bytes)?;
        if end > map.len() {
            return None;
        }
        let addr = map.as_slice().as_ptr() as usize + byte_offset;
        if !addr.is_multiple_of(std::mem::align_of::<T>()) {
            return None;
        }
        Some(Storage::Mapped { map, byte_offset, len })
    }
}

impl<T: Copy> Deref for Storage<T> {
    type Target = [T];

    #[inline]
    fn deref(&self) -> &[T] {
        match self {
            Storage::Owned(v) => v,
            Storage::Mapped { map, byte_offset, len } => {
                // Safety: the constructor proved the window lies inside the
                // mapping and is aligned for `T`; the `Arc` keeps the mapping
                // alive for the lifetime of `self`.
                unsafe {
                    std::slice::from_raw_parts(
                        map.as_slice().as_ptr().add(*byte_offset).cast::<T>(),
                        *len,
                    )
                }
            }
        }
    }
}

impl<T: Copy> From<Vec<T>> for Storage<T> {
    fn from(v: Vec<T>) -> Self {
        Storage::Owned(v)
    }
}

impl<T: Copy> Clone for Storage<T> {
    fn clone(&self) -> Self {
        match self {
            Storage::Owned(v) => Storage::Owned(v.clone()),
            Storage::Mapped { map, byte_offset, len } => {
                Storage::Mapped { map: Arc::clone(map), byte_offset: *byte_offset, len: *len }
            }
        }
    }
}

/// `Debug` prints the logical slice, hiding the storage tier.
impl<T: Copy + std::fmt::Debug> std::fmt::Debug for Storage<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(&self[..], f)
    }
}

/// Equality is by contents: a mapped array equals its owned copy.
impl<T: Copy + PartialEq> PartialEq for Storage<T> {
    fn eq(&self, other: &Self) -> bool {
        self[..] == other[..]
    }
}

impl<T: Copy + Eq> Eq for Storage<T> {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs::File;
    use std::io::Write;

    fn mapped_file(name: &str, contents: &[u8]) -> Arc<Mmap> {
        let path =
            std::env::temp_dir().join(format!("cldiam-storage-{}-{name}.bin", std::process::id()));
        File::create(&path).unwrap().write_all(contents).unwrap();
        let map = Arc::new(Mmap::map(&File::open(&path).unwrap()).unwrap());
        std::fs::remove_file(&path).ok();
        map
    }

    #[test]
    fn owned_and_mapped_compare_equal() {
        let bytes: Vec<u8> = (1u8..=16).collect();
        let map = mapped_file("equal", &bytes);
        let mapped: Storage<u32> = Storage::mapped(Arc::clone(&map), 0, 4).unwrap();
        let expected: Vec<u32> =
            bytes.chunks(4).map(|c| u32::from_le_bytes(c.try_into().unwrap())).collect();
        let owned: Storage<u32> = Storage::Owned(expected);
        // Both tiers deref to the same logical contents (little-endian host).
        if cfg!(target_endian = "little") {
            assert_eq!(mapped, owned);
            assert_eq!(mapped.clone(), owned);
        }
        assert_eq!(mapped.len(), 4);
    }

    #[test]
    fn out_of_bounds_windows_are_rejected() {
        let map = mapped_file("bounds", &[0u8; 16]);
        assert!(Storage::<u32>::mapped(Arc::clone(&map), 0, 5).is_none());
        assert!(Storage::<u32>::mapped(Arc::clone(&map), 8, 3).is_none());
        assert!(Storage::<u8>::mapped(Arc::clone(&map), 16, 1).is_none());
        assert!(Storage::<u8>::mapped(map, 16, 0).is_some());
    }

    #[test]
    fn misaligned_windows_are_rejected() {
        let map = mapped_file("aligned", &[0u8; 16]);
        // The mapping is page-aligned, so offset 2 is misaligned for u32.
        assert!(Storage::<u32>::mapped(Arc::clone(&map), 2, 1).is_none());
        assert!(Storage::<u8>::mapped(map, 2, 1).is_some());
    }
}
