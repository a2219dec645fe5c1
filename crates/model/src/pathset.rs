//! An open-addressing set of `u64` state hashes for on-path cycle
//! detection.
//!
//! The explorer keeps the exact-state hashes of every kernel state on the
//! *current* DFS path and asks, at each node, whether the new state closes
//! a cycle. The path grows and shrinks stack-wise, so the set needs three
//! operations — `insert`, `contains`, `remove` — all O(1) expected,
//! replacing the previous `Vec::contains` linear scan (O(depth) per node,
//! O(depth²) per schedule).
//!
//! Implementation: linear probing over a power-of-two table with slot
//! value `0` reserved as the empty sentinel (a real hash of `0` is
//! remapped to an arbitrary odd constant, which is safe because the set
//! only ever answers questions about hashes — a collision between `0` and
//! the constant is no different from any other 64-bit hash collision).
//! Removal uses backward-shift deletion, so no tombstones accumulate
//! across the millions of push/pop pairs of a long search.

/// Empty-slot sentinel. Real zero hashes are remapped to [`ZERO_ALIAS`].
const EMPTY: u64 = 0;
/// Stand-in stored for a genuine hash value of zero.
const ZERO_ALIAS: u64 = 0x9E37_79B9_7F4A_7C15;
/// Initial table size (slots); must be a power of two.
const INITIAL_SLOTS: usize = 64;

/// A set of on-path state hashes with O(1) insert/contains/remove.
#[derive(Debug, Clone)]
pub struct PathSet {
    slots: Vec<u64>,
    /// Occupied slot count.
    len: usize,
    /// `slots.len() - 1`, for masking hashes into slot indices.
    mask: usize,
}

impl Default for PathSet {
    fn default() -> Self {
        Self::new()
    }
}

impl PathSet {
    /// An empty set.
    pub fn new() -> Self {
        Self {
            slots: vec![EMPTY; INITIAL_SLOTS],
            len: 0,
            mask: INITIAL_SLOTS - 1,
        }
    }

    /// Number of hashes currently in the set.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn slot_of(&self, key: u64) -> usize {
        // The explorer's state hashes end in the splitmix64 finalizer, so
        // every state bit reaches the low bits and masking them is a fine
        // slot function.
        (key as usize) & self.mask
    }

    fn remap(key: u64) -> u64 {
        if key == EMPTY {
            ZERO_ALIAS
        } else {
            key
        }
    }

    /// Whether `key` is in the set.
    pub fn contains(&self, key: u64) -> bool {
        let key = Self::remap(key);
        let mut i = self.slot_of(key);
        loop {
            let v = self.slots[i];
            if v == key {
                return true;
            }
            if v == EMPTY {
                return false;
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Inserts `key`; returns `true` if it was newly added, `false` if it
    /// was already present.
    pub fn insert(&mut self, key: u64) -> bool {
        let key = Self::remap(key);
        // Grow at ~3/4 load to keep probe chains short.
        if (self.len + 1) * 4 > self.slots.len() * 3 {
            self.grow();
        }
        let mut i = self.slot_of(key);
        loop {
            let v = self.slots[i];
            if v == key {
                return false;
            }
            if v == EMPTY {
                self.slots[i] = key;
                self.len += 1;
                return true;
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Removes `key`; returns `true` if it was present. Uses backward-shift
    /// deletion, so the table never accumulates tombstones.
    pub fn remove(&mut self, key: u64) -> bool {
        let key = Self::remap(key);
        let mut i = self.slot_of(key);
        loop {
            let v = self.slots[i];
            if v == EMPTY {
                return false;
            }
            if v == key {
                break;
            }
            i = (i + 1) & self.mask;
        }
        self.len -= 1;
        // Backward-shift: walk the probe chain after `i`, moving back any
        // entry whose home slot precedes the hole (cyclically).
        let mut hole = i;
        let mut j = (i + 1) & self.mask;
        loop {
            let v = self.slots[j];
            if v == EMPTY {
                break;
            }
            let home = self.slot_of(v);
            // `v` may move into the hole iff the hole lies cyclically
            // between its home slot and its current slot.
            let between = if hole <= j {
                home <= hole || home > j
            } else {
                home <= hole && home > j
            };
            if between {
                self.slots[hole] = v;
                hole = j;
            }
            j = (j + 1) & self.mask;
        }
        self.slots[hole] = EMPTY;
        true
    }

    fn grow(&mut self) {
        let doubled = self.slots.len() * 2;
        let old = std::mem::replace(&mut self.slots, vec![EMPTY; doubled]);
        self.mask = self.slots.len() - 1;
        self.len = 0;
        for v in old {
            if v != EMPTY {
                self.insert(v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::PathSet;
    use std::collections::HashSet;

    /// Deterministic pseudo-random stream for the mirror test.
    fn rng_stream(seed: u64, n: usize) -> Vec<u64> {
        let mut z = seed;
        (0..n)
            .map(|_| {
                z = z
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                // Keep the key space small so collisions/removals actually
                // exercise probe chains.
                z >> 56
            })
            .collect()
    }

    #[test]
    fn insert_contains_remove_roundtrip() {
        let mut s = PathSet::new();
        assert!(s.is_empty());
        assert!(s.insert(42));
        assert!(!s.insert(42), "double insert reports already-present");
        assert!(s.contains(42));
        assert!(!s.contains(43));
        assert!(s.remove(42));
        assert!(!s.remove(42), "double remove reports absent");
        assert!(!s.contains(42));
        assert!(s.is_empty());
    }

    #[test]
    fn zero_hash_is_a_first_class_member() {
        let mut s = PathSet::new();
        assert!(!s.contains(0));
        assert!(s.insert(0));
        assert!(s.contains(0));
        assert!(!s.insert(0));
        assert_eq!(s.len(), 1);
        assert!(s.remove(0));
        assert!(!s.contains(0));
    }

    #[test]
    fn grows_past_initial_capacity() {
        let mut s = PathSet::new();
        for k in 1..=10_000u64 {
            assert!(s.insert(k));
        }
        assert_eq!(s.len(), 10_000);
        for k in 1..=10_000u64 {
            assert!(s.contains(k), "{k} lost in growth");
        }
        for k in (1..=10_000u64).step_by(2) {
            assert!(s.remove(k));
        }
        for k in 1..=10_000u64 {
            assert_eq!(s.contains(k), k % 2 == 0);
        }
    }

    #[test]
    fn mirrors_a_hashset_under_random_workload() {
        let mut s = PathSet::new();
        let mut model = HashSet::new();
        for (i, k) in rng_stream(0xDEAD_BEEF, 40_000).into_iter().enumerate() {
            match i % 3 {
                0 | 1 => assert_eq!(s.insert(k), model.insert(k), "insert {k} at step {i}"),
                _ => assert_eq!(s.remove(k), model.remove(&k), "remove {k} at step {i}"),
            }
            assert_eq!(s.len(), model.len(), "len diverged at step {i}");
        }
        for k in 0..256u64 {
            assert_eq!(s.contains(k), model.contains(&k), "final contains {k}");
        }
    }

    #[test]
    fn stack_discipline_like_the_dfs_path() {
        // The explorer pushes on descent and pops on return; removal must
        // leave earlier path entries findable even with probe collisions.
        let mut s = PathSet::new();
        let keys = rng_stream(7, 512);
        for &key in &keys {
            s.insert(key);
        }
        // Pop in reverse, checking all remaining survivors at each step.
        let mut live: Vec<u64> = {
            let mut seen = HashSet::new();
            keys.iter().copied().filter(|k| seen.insert(*k)).collect()
        };
        while let Some(k) = live.pop() {
            assert!(s.remove(k), "pop {k}");
            for other in &live {
                assert!(s.contains(*other), "{other} lost after removing {k}");
            }
        }
        assert!(s.is_empty());
    }
}
