//! Free-number pools for handle normalization (paper Section 2.2).
//!
//! `MPI_Request` and `MPI_Comm` values are "randomly determined at runtime
//! ... and difficult to be compressed". The paper's fix: "maintain a pool of
//! free numbers, starting from zero"; allocate the smallest unused number
//! when a handle appears, return it to the pool when the handle is released.
//! Two processes doing the same logical sequence of operations then produce
//! byte-identical records.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hash::Hash;

use siesta_hash::FxHashMap;

/// Lowest-free-number allocator.
#[derive(Debug, Default)]
pub struct FreePool {
    next: u32,
    freed: BinaryHeap<Reverse<u32>>,
}

impl FreePool {
    pub fn new() -> FreePool {
        FreePool::default()
    }

    /// Allocate the smallest free number.
    pub fn alloc(&mut self) -> u32 {
        if let Some(Reverse(n)) = self.freed.pop() {
            n
        } else {
            let n = self.next;
            self.next += 1;
            n
        }
    }

    /// Return a number to the pool.
    pub fn release(&mut self, n: u32) {
        debug_assert!(n < self.next, "releasing a never-allocated number");
        self.freed.push(Reverse(n));
    }

    /// Numbers currently live.
    pub fn live(&self) -> usize {
        self.next as usize - self.freed.len()
    }
}

/// Maps volatile runtime handles to stable pool numbers.
#[derive(Debug, Default)]
pub struct HandleMap<K: Eq + Hash + Copy> {
    pool: FreePool,
    /// Only ever looked up, never iterated, so the hasher cannot reorder
    /// anything observable.
    map: FxHashMap<K, u32>,
}

impl<K: Eq + Hash + Copy> HandleMap<K> {
    pub fn new() -> HandleMap<K> {
        HandleMap { pool: FreePool::new(), map: FxHashMap::default() }
    }

    /// Take the next pool number without binding a handle to it: the
    /// caller answers for that handle itself (e.g. `MPI_COMM_WORLD` → 0),
    /// so it costs no map entry and no lookup.
    pub fn reserve(&mut self) -> u32 {
        self.pool.alloc()
    }

    /// Normalize a newly created handle.
    pub fn bind(&mut self, handle: K) -> u32 {
        debug_assert!(!self.map.contains_key(&handle), "handle bound twice");
        let id = self.pool.alloc();
        self.map.insert(handle, id);
        id
    }

    /// Look up a live handle.
    pub fn get(&self, handle: K) -> Option<u32> {
        self.map.get(&handle).copied()
    }

    /// Release a handle, returning its pool number to the free list.
    pub fn unbind(&mut self, handle: K) -> Option<u32> {
        let id = self.map.remove(&handle)?;
        self.pool.release(id);
        Some(id)
    }

    pub fn live(&self) -> usize {
        self.map.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_allocates_smallest_free() {
        let mut p = FreePool::new();
        assert_eq!(p.alloc(), 0);
        assert_eq!(p.alloc(), 1);
        assert_eq!(p.alloc(), 2);
        p.release(1);
        p.release(0);
        // Smallest freed first, regardless of release order.
        assert_eq!(p.alloc(), 0);
        assert_eq!(p.alloc(), 1);
        assert_eq!(p.alloc(), 3);
        assert_eq!(p.live(), 4);
    }

    #[test]
    fn handle_map_normalizes_arbitrary_values() {
        // Two "runs" whose runtime handle values differ produce the same
        // normalized ids for the same logical sequence.
        let runs = [[0xdeadbeefusize, 0x1234, 0x9999], [77, 3, 500_000]];
        let mut normalized = Vec::new();
        for handles in runs {
            let mut m: HandleMap<usize> = HandleMap::new();
            let a = m.bind(handles[0]);
            let b = m.bind(handles[1]);
            m.unbind(handles[0]);
            let c = m.bind(handles[2]);
            normalized.push((a, b, c));
        }
        assert_eq!(normalized[0], normalized[1]);
        assert_eq!(normalized[0], (0, 1, 0)); // slot 0 reused after release
    }

    #[test]
    fn unbind_unknown_returns_none() {
        let mut m: HandleMap<u64> = HandleMap::new();
        assert_eq!(m.unbind(42), None);
        m.bind(1);
        assert_eq!(m.get(1), Some(0));
        assert_eq!(m.live(), 1);
    }

    #[test]
    fn reserved_numbers_are_skipped_and_unmapped() {
        let mut m: HandleMap<u64> = HandleMap::new();
        assert_eq!(m.reserve(), 0);
        assert_eq!(m.bind(7), 1);
        assert_eq!(m.live(), 1);
        // Releasing a bound handle never hands out the reserved number.
        m.unbind(7);
        assert_eq!(m.bind(8), 1);
    }
}
