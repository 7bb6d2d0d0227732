//! Load/store queue (64 entries in Table 1): program-order tracking of
//! in-flight memory operations, store-to-load forwarding and conservative
//! same-word conflict detection.
//!
//! Because the workload is trace-like, every memory operation's effective
//! address is known at dispatch; the timing consequences of dependences
//! remain (a load behind an unexecuted same-word store must wait for it).
//!
//! Lookups cost events, not occupancy: a per-bucket count of in-flight
//! stores answers "no store to this word" without touching the queue,
//! and entries are found by sequence number (the queue is in program
//! order), so only a load that may conflict scans — and then only the
//! entries older than itself.

use std::collections::VecDeque;

use crate::rob::InstId;

/// What a load should do about older stores in the queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadDisposition {
    /// No older store overlaps: access the D-cache.
    AccessCache,
    /// An older store to the same word has executed: forward from the LSQ.
    Forward,
    /// An older store to the same word has not yet executed: the load must
    /// wait (re-attempt selection in a later cycle).
    WaitForStore(InstId),
}

#[derive(Debug, Clone, Copy)]
struct LsqEntry {
    id: InstId,
    is_store: bool,
    /// 8-byte-aligned word address (conflicts detected at word granularity).
    word: u64,
    executed: bool,
}

/// Store-word buckets per queue entry: enough that unrelated words rarely
/// share a bucket, so a zero count is the common answer.
const BUCKETS_PER_ENTRY: usize = 16;

/// The load/store queue.
///
/// # Example
///
/// ```
/// use dcg_isa::{Inst, MemRef};
/// use dcg_sim::{LoadDisposition, Lsq, Rob};
///
/// let mut rob = Rob::new(8);
/// let mut lsq = Lsq::new(8);
/// let st = rob.push(Inst::store(0, MemRef::new(0x100, 8))).unwrap();
/// let ld = rob.push(Inst::load(4, MemRef::new(0x100, 8))).unwrap();
/// lsq.push(st, true, 0x100);
/// lsq.push(ld, false, 0x100);
/// // The load must wait until the same-word store executes, then forward.
/// assert_eq!(lsq.load_disposition(ld, 0x100), LoadDisposition::WaitForStore(st));
/// lsq.mark_executed(st);
/// assert_eq!(lsq.load_disposition(ld, 0x100), LoadDisposition::Forward);
/// ```
#[derive(Debug)]
pub struct Lsq {
    entries: VecDeque<LsqEntry>,
    capacity: usize,
    /// In-flight stores per word bucket (`word & (len - 1)`). Exact per
    /// bucket, so a zero proves no in-flight store targets any word in
    /// it; a non-zero count only means "scan".
    store_words: Vec<u32>,
}

impl Lsq {
    /// An empty queue with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Lsq {
        assert!(capacity > 0, "LSQ capacity must be positive");
        Lsq {
            entries: VecDeque::with_capacity(capacity),
            capacity,
            store_words: vec![0; (capacity * BUCKETS_PER_ENTRY).next_power_of_two()],
        }
    }

    /// Occupied entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no memory operation is in flight.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// `true` when no slot is free.
    pub fn is_full(&self) -> bool {
        self.entries.len() == self.capacity
    }

    /// Total capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    fn bucket(&self, word: u64) -> usize {
        (word as usize) & (self.store_words.len() - 1)
    }

    /// Position of `id` in the queue, if it is in flight. Commit and
    /// store drain mostly remove the oldest entry, so that is tried first.
    fn position(&self, id: InstId) -> Option<usize> {
        if self.entries.front().is_some_and(|e| e.id == id) {
            return Some(0);
        }
        self.entries
            .binary_search_by_key(&id.seq(), |e| e.id.seq())
            .ok()
    }

    /// Append a memory operation at dispatch (program order).
    ///
    /// Returns `false` when full.
    pub fn push(&mut self, id: InstId, is_store: bool, addr: u64) -> bool {
        if self.is_full() {
            return false;
        }
        let word = addr >> 3;
        if is_store {
            let b = self.bucket(word);
            self.store_words[b] += 1;
        }
        self.entries.push_back(LsqEntry {
            id,
            is_store,
            word,
            executed: false,
        });
        true
    }

    /// Decide how the load `id` (at `addr`) interacts with older stores.
    pub fn load_disposition(&self, id: InstId, addr: u64) -> LoadDisposition {
        let word = addr >> 3;
        if self.store_words[self.bucket(word)] == 0 {
            return LoadDisposition::AccessCache;
        }
        // Newest older store to the same word wins.
        let older = self.entries.partition_point(|e| e.id.seq() < id.seq());
        self.entries
            .range(..older)
            .rev()
            .find(|e| e.is_store && e.word == word)
            .map_or(LoadDisposition::AccessCache, |e| {
                if e.executed {
                    LoadDisposition::Forward
                } else {
                    LoadDisposition::WaitForStore(e.id)
                }
            })
    }

    /// Mark a memory operation as executed (address generated, store data
    /// available for forwarding).
    pub fn mark_executed(&mut self, id: InstId) {
        if let Some(pos) = self.position(id) {
            self.entries[pos].executed = true;
        }
    }

    /// Remove a memory operation (at commit).
    pub fn remove(&mut self, id: InstId) {
        let Some(pos) = self.position(id) else {
            return;
        };
        let e = self.entries.remove(pos).expect("position is in range");
        if e.is_store {
            let b = self.bucket(e.word);
            self.store_words[b] -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rob::Rob;
    use dcg_isa::{Inst, MemRef};
    use dcg_testkit::prop;

    /// The queue as it was before its store-word index and sequence-number
    /// lookups: a linear scan per query. The reference the property below
    /// checks every answer against.
    struct LinearLsq {
        entries: VecDeque<LsqEntry>,
        capacity: usize,
    }

    impl LinearLsq {
        fn push(&mut self, id: InstId, is_store: bool, addr: u64) -> bool {
            if self.entries.len() == self.capacity {
                return false;
            }
            self.entries.push_back(LsqEntry {
                id,
                is_store,
                word: addr >> 3,
                executed: false,
            });
            true
        }

        fn load_disposition(&self, id: InstId, addr: u64) -> LoadDisposition {
            let word = addr >> 3;
            let mut result = LoadDisposition::AccessCache;
            for e in &self.entries {
                if e.id.seq() >= id.seq() {
                    break;
                }
                if e.is_store && e.word == word {
                    result = if e.executed {
                        LoadDisposition::Forward
                    } else {
                        LoadDisposition::WaitForStore(e.id)
                    };
                }
            }
            result
        }

        fn mark_executed(&mut self, id: InstId) {
            if let Some(e) = self.entries.iter_mut().find(|e| e.id == id) {
                e.executed = true;
            }
        }

        fn remove(&mut self, id: InstId) {
            if let Some(pos) = self.entries.iter().position(|e| e.id == id) {
                self.entries.remove(pos);
            }
        }
    }

    #[test]
    fn lookups_match_the_linear_scan() {
        // (kind, a, b): push / execute / remove / query, on three words
        // that also alias in the store-word buckets.
        let ops = prop::vec(
            prop::tuple((0u8..8, prop::any_u64(), prop::any_u64())),
            0usize..=160,
        );
        prop::check(
            "lsq_matches_linear_scan",
            prop::tuple((1usize..=12, ops)),
            |(cap, ops)| {
                let addr_of = |a: u64, b: u64| ((a >> 1) % 3) * 8 + b % 8 + (((b >> 3) % 3) << 23);
                let mut rob = Rob::new(ops.len().max(1));
                let mut fast = Lsq::new(cap);
                let mut slow = LinearLsq {
                    entries: VecDeque::new(),
                    capacity: cap,
                };
                for (kind, a, b) in ops {
                    let live = slow.entries.len();
                    match kind {
                        0..=2 => {
                            let id = rob.push(Inst::load(0, MemRef::new(0, 8))).unwrap();
                            let (is_store, addr) = (a & 1 == 1, addr_of(a, b));
                            assert_eq!(
                                fast.push(id, is_store, addr),
                                slow.push(id, is_store, addr)
                            );
                        }
                        3 | 4 if live > 0 => {
                            let id = slow.entries[a as usize % live].id;
                            fast.mark_executed(id);
                            slow.mark_executed(id);
                        }
                        5 if live > 0 => {
                            let id = slow.entries[a as usize % live].id;
                            fast.remove(id);
                            slow.remove(id);
                        }
                        6 | 7 if live > 0 => {
                            let e = slow.entries[a as usize % live];
                            let addr = if b & 1 == 0 {
                                e.word << 3
                            } else {
                                addr_of(b >> 1, a)
                            };
                            assert_eq!(
                                fast.load_disposition(e.id, addr),
                                slow.load_disposition(e.id, addr),
                                "query seq {} at {addr:#x}",
                                e.id.seq()
                            );
                        }
                        _ => {}
                    }
                    assert_eq!(fast.len(), slow.entries.len());
                }
            },
        );
    }

    fn mem_ids(n: usize) -> (Rob, Vec<InstId>) {
        let mut rob = Rob::new(n.max(1));
        let v = (0..n)
            .map(|k| {
                rob.push(Inst::load(k as u64 * 4, MemRef::new(0x100, 8)))
                    .unwrap()
            })
            .collect();
        (rob, v)
    }

    #[test]
    fn capacity_enforced() {
        let (_rob, ids) = mem_ids(3);
        let mut lsq = Lsq::new(2);
        assert!(lsq.push(ids[0], false, 0x100));
        assert!(lsq.push(ids[1], true, 0x108));
        assert!(lsq.is_full());
        assert!(!lsq.push(ids[2], false, 0x110));
    }

    #[test]
    fn load_with_no_older_store_accesses_cache() {
        let (_rob, ids) = mem_ids(2);
        let mut lsq = Lsq::new(8);
        lsq.push(ids[0], false, 0x100);
        lsq.push(ids[1], false, 0x100);
        assert_eq!(
            lsq.load_disposition(ids[1], 0x100),
            LoadDisposition::AccessCache
        );
    }

    #[test]
    fn load_waits_for_unexecuted_same_word_store() {
        let (_rob, ids) = mem_ids(2);
        let mut lsq = Lsq::new(8);
        lsq.push(ids[0], true, 0x200);
        lsq.push(ids[1], false, 0x204); // same 8-byte word as 0x200
        assert_eq!(
            lsq.load_disposition(ids[1], 0x204),
            LoadDisposition::WaitForStore(ids[0])
        );
        lsq.mark_executed(ids[0]);
        assert_eq!(
            lsq.load_disposition(ids[1], 0x204),
            LoadDisposition::Forward
        );
    }

    #[test]
    fn different_word_store_does_not_block() {
        let (_rob, ids) = mem_ids(2);
        let mut lsq = Lsq::new(8);
        lsq.push(ids[0], true, 0x200);
        lsq.push(ids[1], false, 0x208);
        assert_eq!(
            lsq.load_disposition(ids[1], 0x208),
            LoadDisposition::AccessCache
        );
    }

    #[test]
    fn newest_older_store_wins() {
        let (_rob, ids) = mem_ids(3);
        let mut lsq = Lsq::new(8);
        lsq.push(ids[0], true, 0x300);
        lsq.push(ids[1], true, 0x300);
        lsq.push(ids[2], false, 0x300);
        lsq.mark_executed(ids[0]);
        // The *newest* older store (ids[1]) is unexecuted, so wait on it.
        assert_eq!(
            lsq.load_disposition(ids[2], 0x300),
            LoadDisposition::WaitForStore(ids[1])
        );
    }

    #[test]
    fn younger_stores_are_ignored() {
        let (_rob, ids) = mem_ids(2);
        let mut lsq = Lsq::new(8);
        lsq.push(ids[0], false, 0x400); // load (older)
        lsq.push(ids[1], true, 0x400); // store (younger)
        assert_eq!(
            lsq.load_disposition(ids[0], 0x400),
            LoadDisposition::AccessCache
        );
    }

    #[test]
    fn remove_frees_space() {
        let (_rob, ids) = mem_ids(2);
        let mut lsq = Lsq::new(1);
        lsq.push(ids[0], true, 0x100);
        assert!(lsq.is_full());
        lsq.remove(ids[0]);
        assert!(lsq.is_empty());
        assert!(lsq.push(ids[1], false, 0x108));
    }
}
