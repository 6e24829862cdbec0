//! Typed device-memory buffers.
//!
//! Device memory is a flat array of 32-bit words stored as relaxed
//! atomics: the lock-free algorithms the paper builds (racy matching
//! proposals, concurrent refinement buffers) deliberately allow concurrent
//! conflicting writes, which would be undefined behaviour on plain `&mut`
//! memory — relaxed atomics give exactly CUDA's "some thread's write wins"
//! semantics while keeping the simulator data-race-free in the Rust sense.

use std::marker::PhantomData;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

/// Types that can live in device memory (32-bit words, like the CUDA code
/// the paper describes).
pub trait DeviceWord: Copy + Send + Sync + 'static {
    /// Reinterpret as raw bits.
    fn to_bits(self) -> u32;
    /// Reinterpret from raw bits.
    fn from_bits(bits: u32) -> Self;
}

impl DeviceWord for u32 {
    #[inline]
    fn to_bits(self) -> u32 {
        self
    }
    #[inline]
    fn from_bits(bits: u32) -> Self {
        bits
    }
}

impl DeviceWord for i32 {
    #[inline]
    fn to_bits(self) -> u32 {
        self as u32
    }
    #[inline]
    fn from_bits(bits: u32) -> Self {
        bits as i32
    }
}

impl DeviceWord for f32 {
    #[inline]
    fn to_bits(self) -> u32 {
        self.to_bits()
    }
    #[inline]
    fn from_bits(bits: u32) -> Self {
        f32::from_bits(bits)
    }
}

/// Integer device words support atomic read-modify-write (wrapping
/// arithmetic on the raw bits is correct for two's-complement integers).
pub trait DeviceInt: DeviceWord {}
impl DeviceInt for u32 {}
impl DeviceInt for i32 {}

/// A typed buffer in simulated device global memory.
///
/// Not `Clone`: each buffer is owned once (mirroring `cudaMalloc`), and its
/// memory is returned to the device when dropped (`cudaFree`).
pub struct DBuf<T: DeviceWord> {
    cells: Box<[AtomicU32]>,
    /// Unique id, used to separate address spaces in the coalescing model.
    pub(crate) id: u64,
    /// Device-wide allocation counter this buffer charges against.
    mem_counter: Arc<AtomicU64>,
    _marker: PhantomData<T>,
}

impl<T: DeviceWord> DBuf<T> {
    pub(crate) fn new(len: usize, id: u64, mem_counter: Arc<AtomicU64>) -> Self {
        let cells: Box<[AtomicU32]> = (0..len).map(|_| AtomicU32::new(0)).collect();
        DBuf { cells, id, mem_counter, _marker: PhantomData }
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True if zero-length.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Bytes occupied in device memory.
    #[inline]
    pub fn bytes(&self) -> u64 {
        self.cells.len() as u64 * 4
    }

    /// Raw load (relaxed). Prefer [`crate::lane::Lane::ld`] inside kernels
    /// so the access is costed; this is for host-side inspection.
    #[inline]
    pub fn load(&self, i: usize) -> T {
        T::from_bits(self.cells[i].load(Ordering::Relaxed))
    }

    /// Raw store (relaxed). Prefer [`crate::lane::Lane::st`] inside
    /// kernels; this is for host-side initialization.
    #[inline]
    pub fn store(&self, i: usize, v: T) {
        self.cells[i].store(v.to_bits(), Ordering::Relaxed);
    }

    /// Copy contents out to a host vector (no cost accounting; use
    /// [`crate::device::Device::d2h`] for costed transfers).
    pub fn to_vec(&self) -> Vec<T> {
        (0..self.len()).map(|i| self.load(i)).collect()
    }

    /// Fill from a host slice (no cost accounting; use
    /// [`crate::device::Device::h2d`] for costed transfers).
    pub fn copy_from_slice(&self, src: &[T]) {
        assert_eq!(src.len(), self.len());
        for (i, &v) in src.iter().enumerate() {
            self.store(i, v);
        }
    }

    /// Fill every element with `v`.
    pub fn fill(&self, v: T) {
        for c in self.cells.iter() {
            c.store(v.to_bits(), Ordering::Relaxed);
        }
    }
}

impl<T: DeviceInt> DBuf<T> {
    /// Atomic wrapping add; returns the previous value.
    #[inline]
    pub fn fetch_add(&self, i: usize, v: T) -> T {
        T::from_bits(self.cells[i].fetch_add(v.to_bits(), Ordering::Relaxed))
    }
}

impl<T: DeviceWord> Drop for DBuf<T> {
    fn drop(&mut self) {
        self.mem_counter.fetch_sub(self.bytes(), Ordering::Relaxed);
    }
}

impl<T: DeviceWord + std::fmt::Debug> std::fmt::Debug for DBuf<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "DBuf<{}>[len={}]", std::any::type_name::<T>(), self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk<T: DeviceWord>(len: usize) -> (DBuf<T>, Arc<AtomicU64>) {
        let counter = Arc::new(AtomicU64::new(len as u64 * 4));
        (DBuf::new(len, 0, counter.clone()), counter)
    }

    #[test]
    fn load_store_roundtrip() {
        let (b, _c) = mk::<u32>(4);
        b.store(2, 77);
        assert_eq!(b.load(2), 77);
        assert_eq!(b.load(0), 0);
    }

    #[test]
    fn signed_words() {
        let (b, _c) = mk::<i32>(2);
        b.store(0, -5);
        assert_eq!(b.load(0), -5);
        assert_eq!(b.fetch_add(0, -3), -5);
        assert_eq!(b.load(0), -8);
    }

    #[test]
    fn float_words() {
        let (b, _c) = mk::<f32>(1);
        b.store(0, 3.5);
        assert_eq!(b.load(0), 3.5);
    }

    #[test]
    fn fetch_add_returns_previous() {
        let (b, _c) = mk::<u32>(1);
        assert_eq!(b.fetch_add(0, 5), 0);
        assert_eq!(b.fetch_add(0, 5), 5);
        assert_eq!(b.load(0), 10);
    }

    #[test]
    fn drop_releases_memory() {
        let (b, c) = mk::<u32>(100);
        assert_eq!(c.load(Ordering::Relaxed), 400);
        drop(b);
        assert_eq!(c.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn host_copies() {
        let (b, _c) = mk::<u32>(3);
        b.copy_from_slice(&[7, 8, 9]);
        assert_eq!(b.to_vec(), vec![7, 8, 9]);
        b.fill(1);
        assert_eq!(b.to_vec(), vec![1, 1, 1]);
    }
}
