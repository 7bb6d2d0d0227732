//! Issue queue: an age-ordered window whose entries carry their
//! operand-ready cycle.
//!
//! An issue GRANT fixes an instruction's result-ready cycle (paper §3), so
//! readiness need not be re-derived from the producers every cycle. Each
//! entry records the latest result-ready cycle among producers that have
//! already issued, plus a count of producers that have not; a producer
//! announces its cycle once, through [`IssueQueue::wake`], and from then
//! on the entry is tested with a compare. The queue is otherwise
//! policy-free: the pipeline walks it oldest-first and decides, per ready
//! entry, whether a unit, port and bus are free (issue-width and PLB
//! constraints included). This is the structure whose GRANT outputs the
//! paper taps for DCG (§3.1).

use crate::rob::InstId;

#[derive(Debug, Clone, Copy)]
struct Entry {
    id: InstId,
    /// Latest result-ready cycle among the producers that have announced.
    ready_at: u64,
    /// Producers that have not yet announced their result-ready cycle.
    waiting: u32,
}

/// Age-ordered issue queue of in-flight instruction handles.
///
/// # Example
///
/// ```
/// use dcg_isa::{Inst, OpClass};
/// use dcg_sim::{IssueQueue, Rob};
///
/// let mut rob = Rob::new(8);
/// let mut iq = IssueQueue::new(8, rob.capacity());
/// let producer = rob.push(Inst::alu(0, OpClass::IntMul)).unwrap();
/// let consumer = rob.push(Inst::alu(4, OpClass::IntAlu)).unwrap();
/// iq.push(producer, 0, [None, None]);
/// iq.push(consumer, 0, [Some(producer), None]);
/// // The producer is ready now; its consumer waits for an announcement.
/// assert_eq!(iq.entry(0, 1), (producer, true));
/// assert_eq!(iq.entry(1, 1), (consumer, false));
/// // Granting the producer at cycle 1 fixes its result for cycle 4.
/// assert_eq!(iq.remove(0), producer);
/// iq.wake(producer, 4);
/// assert_eq!(iq.entry(0, 3), (consumer, false));
/// assert_eq!(iq.entry(0, 4), (consumer, true));
/// ```
#[derive(Debug)]
pub struct IssueQueue {
    entries: Vec<Entry>,
    capacity: usize,
    /// Queued consumers waiting on each producer, indexed by the
    /// producer's reorder-buffer slot. A list is drained when its
    /// producer announces, which happens at the latest when it commits,
    /// so a recycled slot always starts with an empty list.
    consumers: Vec<Vec<InstId>>,
}

impl IssueQueue {
    /// An empty queue holding at most `capacity` instructions whose
    /// producers occupy a reorder buffer of `window` slots.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize, window: usize) -> IssueQueue {
        assert!(capacity > 0, "issue queue capacity must be positive");
        IssueQueue {
            entries: Vec::with_capacity(capacity),
            capacity,
            consumers: (0..window).map(|_| Vec::new()).collect(),
        }
    }

    /// Entries currently waiting.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no instruction is waiting.
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

    /// Insert a dispatched instruction (callers dispatch in program order,
    /// so the queue stays age-ordered). `ready_at` is the latest
    /// result-ready cycle among its producers that have already
    /// announced one; each producer in `waiting_on` has not, and wakes
    /// the entry with [`IssueQueue::wake`]. Returns `false` when full.
    pub fn push(&mut self, id: InstId, ready_at: u64, waiting_on: [Option<InstId>; 2]) -> bool {
        if self.is_full() {
            return false;
        }
        let mut waiting = 0;
        for p in waiting_on.into_iter().flatten() {
            self.consumers[p.slot()].push(id);
            waiting += 1;
        }
        self.entries.push(Entry {
            id,
            ready_at,
            waiting,
        });
        true
    }

    /// The `k`-th oldest entry and whether its operands are ready at
    /// `now`.
    ///
    /// # Panics
    ///
    /// Panics if `k >= len()`.
    pub fn entry(&self, k: usize, now: u64) -> (InstId, bool) {
        let e = &self.entries[k];
        (e.id, e.waiting == 0 && e.ready_at <= now)
    }

    /// Remove the `k`-th oldest entry (it was granted) and return it.
    ///
    /// # Panics
    ///
    /// Panics if `k >= len()`.
    pub fn remove(&mut self, k: usize) -> InstId {
        self.entries.remove(k).id
    }

    /// `producer`'s result is ready at `ready_at`: fold that cycle into
    /// every queued consumer still waiting on it. Called when a producer
    /// issues with a result-ready cycle, and again when it commits (which
    /// releases consumers of a producer that never announced one).
    pub fn wake(&mut self, producer: InstId, ready_at: u64) {
        let IssueQueue {
            entries, consumers, ..
        } = self;
        for c in consumers[producer.slot()].drain(..) {
            let k = entries
                .binary_search_by_key(&c.seq(), |e| e.id.seq())
                .expect("a waiting consumer is still queued");
            let e = &mut entries[k];
            e.ready_at = e.ready_at.max(ready_at);
            e.waiting -= 1;
        }
    }

    /// Iterate waiting entries oldest-first.
    pub fn iter(&self) -> impl Iterator<Item = InstId> + '_ {
        self.entries.iter().map(|e| e.id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rob::Rob;
    use dcg_isa::{Inst, OpClass};

    fn ids(n: usize) -> (Rob, Vec<InstId>) {
        let mut rob = Rob::new(n.max(1));
        let v = (0..n)
            .map(|k| rob.push(Inst::alu(k as u64 * 4, OpClass::IntAlu)).unwrap())
            .collect();
        (rob, v)
    }

    fn seqs(iq: &IssueQueue) -> Vec<u64> {
        iq.iter().map(|g| g.seq()).collect()
    }

    #[test]
    fn push_respects_capacity() {
        let (_rob, handles) = ids(3);
        let mut iq = IssueQueue::new(2, 3);
        assert!(iq.push(handles[0], 0, [None, None]));
        assert!(iq.push(handles[1], 0, [None, None]));
        assert!(iq.is_full());
        assert!(!iq.push(handles[2], 0, [Some(handles[0]), None]));
        assert_eq!(iq.len(), 2);
        // The refused push registered no wakeup.
        iq.wake(handles[0], 1);
    }

    #[test]
    fn remove_keeps_age_order() {
        let (_rob, handles) = ids(4);
        let mut iq = IssueQueue::new(8, 4);
        for &h in &handles {
            iq.push(h, 0, [None, None]);
        }
        assert_eq!(iq.remove(1).seq(), 1);
        assert_eq!(seqs(&iq), vec![0, 2, 3]);
        assert_eq!(iq.remove(0).seq(), 0);
        assert_eq!(seqs(&iq), vec![2, 3]);
    }

    #[test]
    fn known_ready_cycle_is_a_compare() {
        let (_rob, handles) = ids(1);
        let mut iq = IssueQueue::new(4, 1);
        iq.push(handles[0], 7, [None, None]);
        assert!(!iq.entry(0, 6).1);
        assert!(iq.entry(0, 7).1);
    }

    #[test]
    fn entry_waits_for_every_producer_and_takes_the_latest_cycle() {
        let (_rob, handles) = ids(3);
        let (a, b, c) = (handles[0], handles[1], handles[2]);
        let mut iq = IssueQueue::new(4, 3);
        iq.push(c, 2, [Some(a), Some(b)]);
        iq.wake(b, 9);
        assert!(!iq.entry(0, 100).1, "still waiting on a");
        iq.wake(a, 5);
        assert!(!iq.entry(0, 8).1);
        assert!(iq.entry(0, 9).1);
    }

    #[test]
    fn wake_is_one_shot_per_producer() {
        let (_rob, handles) = ids(3);
        let mut iq = IssueQueue::new(4, 3);
        iq.push(handles[1], 0, [Some(handles[0]), None]);
        iq.push(handles[2], 0, [Some(handles[0]), Some(handles[0])]);
        iq.wake(handles[0], 3);
        assert!(iq.entry(0, 3).1);
        assert!(iq.entry(1, 3).1, "both operands of one producer woken");
        // A second announcement (the producer's commit) finds no one.
        iq.wake(handles[0], 50);
        assert!(iq.entry(1, 3).1);
    }
}
