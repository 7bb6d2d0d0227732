//! Where per-cycle activity comes from: a live simulation or a recorded
//! trace.
//!
//! Passive gating policies cannot perturb timing, so the activity stream
//! of one simulation is valid input for *any* set of passive consumers.
//! [`ActivitySource`] abstracts over the two producers:
//!
//! * a live [`Processor`] — steps the timing simulation one cycle at a
//!   time (required for active policies, which constrain resources);
//! * a [`ReplaySource`] — decodes a previously recorded activity trace,
//!   skipping the timing simulation entirely (the "simulate once"
//!   architecture).

use std::fmt;

use dcg_sim::{ActivityBlock, CycleActivity, Processor, ResourceConstraints};
use dcg_trace::ActivityTraceReader;
use dcg_workloads::InstStream;

use crate::error::DcgError;

/// A producer of one [`CycleActivity`] record per simulated cycle.
///
/// The contract mirrors [`Processor::step`]: each call to
/// [`ActivitySource::next_cycle`] advances exactly one cycle and returns
/// that cycle's complete activity; [`ActivitySource::committed`] and
/// [`ActivitySource::cycle`] report running totals *after* the last
/// produced cycle.
pub trait ActivitySource {
    /// Produce the next cycle's activity.
    ///
    /// # Errors
    ///
    /// Live simulations are infallible; a replayed trace fails with
    /// [`DcgError::ReplayExhausted`] when the recording ends before the
    /// run does, or [`DcgError::ReplayCorrupt`] when a record fails to
    /// decode mid-stream.
    fn next_cycle(&mut self) -> Result<&CycleActivity, DcgError>;

    /// Instructions committed so far.
    fn committed(&self) -> u64;

    /// Cycles produced so far.
    fn cycle(&self) -> u64;

    /// `true` if this source can honor [`ResourceConstraints`] (only live
    /// simulations can; replays are immutable history).
    fn supports_constraints(&self) -> bool;

    /// Apply resource constraints to the upcoming cycle.
    ///
    /// # Panics
    ///
    /// Panics if the source does not support constraints (see
    /// [`ActivitySource::supports_constraints`]).
    fn apply_constraints(&mut self, constraints: ResourceConstraints);

    /// `true` if this source can hand out whole decoded
    /// [`ActivityBlock`]s (the struct-of-arrays hot path). Sources that
    /// produce cycles one at a time (live simulations) report `false`
    /// and are driven through the per-cycle shim instead.
    fn supports_blocks(&self) -> bool {
        false
    }

    /// Produce the next block of consecutive cycles (up to
    /// [`dcg_sim::BLOCK_CYCLES`]).
    ///
    /// # Errors
    ///
    /// Same failure modes as [`ActivitySource::next_cycle`].
    ///
    /// # Panics
    ///
    /// Panics if the source does not support blocks (see
    /// [`ActivitySource::supports_blocks`]).
    fn next_block(&mut self) -> Result<&ActivityBlock, DcgError> {
        panic!("this activity source does not produce blocks");
    }
}

impl<S: InstStream> ActivitySource for Processor<S> {
    fn next_cycle(&mut self) -> Result<&CycleActivity, DcgError> {
        Ok(self.step())
    }

    fn committed(&self) -> u64 {
        Processor::committed(self)
    }

    fn cycle(&self) -> u64 {
        Processor::cycle(self)
    }

    fn supports_constraints(&self) -> bool {
        true
    }

    fn apply_constraints(&mut self, constraints: ResourceConstraints) {
        self.set_constraints(constraints);
    }
}

/// Replays a recorded activity trace as an [`ActivitySource`].
///
/// Replay is only valid for **passive** consumption: the recorded stream
/// is immutable history, so any attempt to constrain resources (an active
/// policy such as PLB) panics.
///
/// The trace decodes a block at a time; [`ActivitySource::next_cycle`]
/// serves single cycles out of the block it holds. A run draws either
/// cycles or blocks, never both ([`crate::drive`] picks one route up
/// front).
pub struct ReplaySource {
    reader: ActivityTraceReader,
    block: Box<ActivityBlock>,
    /// Index of the next cycle of `block` to serve (`block.len()` once
    /// served whole).
    next: usize,
    act: CycleActivity,
    cycles: u64,
    committed: u64,
}

impl ReplaySource {
    /// Wrap an open activity-trace reader, rewound to the first record.
    pub fn new(mut reader: ActivityTraceReader) -> ReplaySource {
        reader.rewind();
        let groups = reader.header().groups as usize;
        ReplaySource {
            reader,
            block: Box::new(ActivityBlock::new(groups)),
            next: 0,
            act: CycleActivity::default(),
            cycles: 0,
            committed: 0,
        }
    }

    /// Decode the next block into `self.block`.
    fn fill(&mut self) -> Result<(), DcgError> {
        let read = self.reader.read_block(&mut self.block);
        let h = self.reader.header();
        match read {
            Ok(true) => {
                self.next = 0;
                Ok(())
            }
            Ok(false) => Err(DcgError::ReplayExhausted {
                name: h.name.clone(),
                cycles: self.reader.cycles_read(),
                committed: self.reader.committed(),
                wanted: h.warmup_insts + h.measure_insts,
            }),
            Err(e) => Err(DcgError::ReplayCorrupt {
                name: h.name.clone(),
                cycle: self.reader.cycles_read() + 1,
                source: e,
            }),
        }
    }

    /// The `(cycles, committed)` totals the drive loop would measure over
    /// `length`, computed from the trace's verified per-block subheaders
    /// plus a decode of the (at most two) boundary blocks — see
    /// [`ActivityTraceReader::measured_window`]. `Ok(None)` means the
    /// trace cannot answer from its index (unverified or short); fall
    /// back to a full replay.
    ///
    /// # Errors
    ///
    /// [`DcgError::ReplayCorrupt`] when the subheader chain or a boundary
    /// block is corrupt — the same entry a full replay would fault on.
    pub fn measured_window(
        &self,
        length: crate::RunLength,
    ) -> Result<Option<(u64, u64)>, DcgError> {
        self.reader
            .measured_window(length.warmup_insts, length.measure_insts)
            .map_err(|e| DcgError::ReplayCorrupt {
                name: self.reader.header().name.clone(),
                cycle: self.reader.cycles_read() + 1,
                source: e,
            })
    }
}

impl fmt::Debug for ReplaySource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ReplaySource")
            .field("header", self.reader.header())
            .field("cycles", &self.cycles)
            .field("committed", &self.committed)
            .finish()
    }
}

impl ActivitySource for ReplaySource {
    fn next_cycle(&mut self) -> Result<&CycleActivity, DcgError> {
        if self.next == self.block.len() {
            self.fill()?;
        }
        self.block.extract(self.next, &mut self.act);
        self.next += 1;
        self.cycles += 1;
        self.committed += u64::from(self.act.committed);
        Ok(&self.act)
    }

    fn committed(&self) -> u64 {
        self.committed
    }

    fn cycle(&self) -> u64 {
        self.cycles
    }

    fn supports_constraints(&self) -> bool {
        false
    }

    fn apply_constraints(&mut self, _constraints: ResourceConstraints) {
        panic!(
            "replayed activity cannot honor resource constraints; \
             active policies need a live simulation run"
        );
    }

    fn supports_blocks(&self) -> bool {
        true
    }

    fn next_block(&mut self) -> Result<&ActivityBlock, DcgError> {
        self.fill()?;
        self.next = self.block.len();
        self.cycles = self.reader.cycles_read();
        self.committed = self.reader.committed();
        Ok(&self.block)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcg_sim::SimConfig;
    use dcg_trace::{ActivityHeader, ActivityTraceWriter};
    use dcg_workloads::{Spec2000, SyntheticWorkload};

    fn recorded(cycles: usize) -> Vec<u8> {
        let cfg = SimConfig::baseline_8wide();
        let mut cpu = Processor::new(
            cfg.clone(),
            SyntheticWorkload::new(Spec2000::by_name("gzip").unwrap(), 3),
        );
        let groups = cpu.latch_groups().len();
        let header =
            ActivityHeader::new("gzip", cfg.digest(), 3, 0, 1_000, groups).expect("header");
        let mut w = ActivityTraceWriter::new(Vec::new(), &header).expect("writer");
        for _ in 0..cycles {
            w.write_cycle(cpu.step()).expect("record");
        }
        w.finish().expect("finish")
    }

    #[test]
    fn replay_matches_live_cycles() {
        let bytes = recorded(200);
        let cfg = SimConfig::baseline_8wide();
        let mut live = Processor::new(
            cfg.clone(),
            SyntheticWorkload::new(Spec2000::by_name("gzip").unwrap(), 3),
        );
        let mut replay = ReplaySource::new(ActivityTraceReader::new(&bytes[..]).expect("reader"));
        assert!(!replay.supports_constraints());
        for _ in 0..200 {
            let a = live.step().clone();
            let b = replay.next_cycle().expect("within recorded length");
            assert_eq!(&a, b);
        }
        assert_eq!(ActivitySource::committed(&live), replay.committed());
        assert_eq!(ActivitySource::cycle(&live), replay.cycle());
    }

    #[test]
    fn replay_past_end_errors_with_exhausted() {
        let bytes = recorded(5);
        let mut replay = ReplaySource::new(ActivityTraceReader::new(&bytes[..]).expect("reader"));
        for _ in 0..5 {
            replay.next_cycle().expect("recorded cycle");
        }
        match replay.next_cycle() {
            Err(DcgError::ReplayExhausted { name, cycles, .. }) => {
                assert_eq!(name, "gzip");
                assert_eq!(cycles, 5);
            }
            other => panic!("expected ReplayExhausted, got {other:?}"),
        }
    }

    #[test]
    fn replay_blocks_match_scalar_replay() {
        let bytes = recorded(150);
        let mut scalar = ReplaySource::new(ActivityTraceReader::new(&bytes[..]).expect("reader"));
        let mut blocked = ReplaySource::new(ActivityTraceReader::new(&bytes[..]).expect("reader"));
        assert!(blocked.supports_blocks());
        assert!(scalar.next_cycle().is_ok());
        let mut scalar = ReplaySource::new(ActivityTraceReader::new(&bytes[..]).expect("reader"));
        let mut got = CycleActivity::default();
        let mut seen = 0usize;
        while seen < 150 {
            let block = blocked.next_block().expect("block").clone();
            for i in 0..block.len() {
                let want = scalar.next_cycle().expect("cycle").clone();
                block.extract(i, &mut got);
                assert_eq!(got, want, "cycle {}", want.cycle);
                seen += 1;
            }
        }
        assert_eq!(seen, 150);
        assert_eq!(blocked.committed(), scalar.committed());
        assert!(matches!(
            blocked.next_block(),
            Err(DcgError::ReplayExhausted { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "cannot honor resource constraints")]
    fn replay_rejects_constraints() {
        let bytes = recorded(1);
        let cfg = SimConfig::baseline_8wide();
        let mut replay = ReplaySource::new(ActivityTraceReader::new(&bytes[..]).expect("reader"));
        replay.apply_constraints(ResourceConstraints::unrestricted(&cfg));
    }
}
