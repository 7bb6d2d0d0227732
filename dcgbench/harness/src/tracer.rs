//! In-memory span recorder and the timing wrappers the traced run puts
//! around each layer's public trait objects.
//!
//! A *span* times one call (start, end, parent, task). A call made once
//! per cycle or per instruction is too frequent to keep a record each,
//! so its wrapper sums the time of every call into an *aggregate*
//! record (total nanoseconds plus call or cycle count) whose parent is
//! the span the calls happened in. Self time of any record is its
//! duration minus the durations of its children (`stats.py`).

use std::hint::black_box;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use dcg_core::{ActivitySink, ActivitySource, DcgError, GatingPolicy};
use dcg_isa::Inst;
use dcg_power::{GateState, PowerModel};
use dcg_sim::{ActivityBlock, CycleActivity, LatchGroups, ResourceConstraints, SimConfig};
use dcg_trace::ActivityTraceWriter;
use dcg_workloads::InstStream;

/// Nanoseconds elapsed since `t`.
pub fn ns_since(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

enum Rec {
    Span {
        id: u64,
        parent: u64,
        task: u64,
        name: &'static str,
        t0: u64,
        t1: u64,
    },
    Agg {
        id: u64,
        parent: u64,
        task: u64,
        name: &'static str,
        ns: u64,
        n: u64,
    },
    Count {
        task: u64,
        name: &'static str,
        v: f64,
    },
}

/// Span, aggregate and count records of one traced run. Ids start at 1;
/// parent 0 is the root.
pub struct Tracer {
    epoch: Instant,
    next: AtomicU64,
    recs: Mutex<Vec<Rec>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            next: AtomicU64::new(1),
            recs: Mutex::new(Vec::new()),
        }
    }

    fn push(&self, rec: Rec) {
        self.recs.lock().expect("tracer lock poisoned").push(rec);
    }

    fn id(&self) -> u64 {
        self.next.fetch_add(1, Ordering::Relaxed)
    }

    /// Time `f` as span `name`; `f` receives the span's id for its
    /// children.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: u64,
        task: u64,
        f: impl FnOnce(u64) -> T,
    ) -> T {
        let id = self.id();
        let t0 = ns_since(self.epoch);
        let out = f(id);
        let t1 = ns_since(self.epoch);
        self.push(Rec::Span {
            id,
            parent,
            task,
            name,
            t0,
            t1,
        });
        out
    }

    /// Record an aggregate; returns its id so nested aggregates can name
    /// it as their parent.
    pub fn agg(&self, name: &'static str, parent: u64, task: u64, acc: Acc) -> u64 {
        let id = self.id();
        self.push(Rec::Agg {
            id,
            parent,
            task,
            name,
            ns: acc.ns,
            n: acc.n,
        });
        id
    }

    pub fn count(&self, name: &'static str, task: u64, v: f64) {
        self.push(Rec::Count { task, name, v });
    }

    /// Write every record as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let recs = self.recs.lock().expect("tracer lock poisoned");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for r in recs.iter() {
            match r {
                Rec::Span {
                    id,
                    parent,
                    task,
                    name,
                    t0,
                    t1,
                } => writeln!(
                    out,
                    "{{\"k\":\"span\",\"id\":{id},\"parent\":{parent},\"task\":{task},\"name\":\"{name}\",\"t0\":{t0},\"t1\":{t1}}}"
                )?,
                Rec::Agg {
                    id,
                    parent,
                    task,
                    name,
                    ns,
                    n,
                } => writeln!(
                    out,
                    "{{\"k\":\"agg\",\"id\":{id},\"parent\":{parent},\"task\":{task},\"name\":\"{name}\",\"ns\":{ns},\"n\":{n}}}"
                )?,
                Rec::Count { task, name, v } => writeln!(
                    out,
                    "{{\"k\":\"count\",\"task\":{task},\"name\":\"{name}\",\"v\":{v}}}"
                )?,
            }
        }
        out.flush()
    }
}

/// Summed time and count of many calls.
#[derive(Debug, Clone, Copy, Default)]
pub struct Acc {
    pub ns: u64,
    pub n: u64,
}

impl Acc {
    fn add(&mut self, t: Instant, n: u64) {
        self.ns += ns_since(t);
        self.n += n;
    }
}

/// Times `InstStream::next_inst` (the `workloads` layer).
pub struct TimedStream<S> {
    inner: S,
    pub acc: Acc,
}

impl<S> TimedStream<S> {
    pub fn new(inner: S) -> TimedStream<S> {
        TimedStream {
            inner,
            acc: Acc::default(),
        }
    }
}

impl<S: InstStream> InstStream for TimedStream<S> {
    fn next_inst(&mut self) -> Inst {
        let t = Instant::now();
        let inst = self.inner.next_inst();
        self.acc.add(t, 1);
        inst
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// Times `ActivitySource::next_cycle` / `next_block`: the pipeline step
/// of a live simulation, or the block decode of a replay. `acc.n`
/// counts cycles produced.
pub struct TimedSource<'a, S: ActivitySource> {
    inner: &'a mut S,
    pub acc: Acc,
}

impl<'a, S: ActivitySource> TimedSource<'a, S> {
    pub fn new(inner: &'a mut S) -> TimedSource<'a, S> {
        TimedSource {
            inner,
            acc: Acc::default(),
        }
    }
}

impl<S: ActivitySource> ActivitySource for TimedSource<'_, S> {
    fn next_cycle(&mut self) -> Result<&CycleActivity, DcgError> {
        let t = Instant::now();
        let out = self.inner.next_cycle();
        self.acc.add(t, 1);
        out
    }

    fn committed(&self) -> u64 {
        self.inner.committed()
    }

    fn cycle(&self) -> u64 {
        self.inner.cycle()
    }

    fn supports_constraints(&self) -> bool {
        self.inner.supports_constraints()
    }

    fn apply_constraints(&mut self, constraints: ResourceConstraints) {
        self.inner.apply_constraints(constraints);
    }

    fn supports_blocks(&self) -> bool {
        self.inner.supports_blocks()
    }

    fn next_block(&mut self) -> Result<&ActivityBlock, DcgError> {
        let t = Instant::now();
        let out = self.inner.next_block();
        let cycles = out.as_ref().map_or(0, |b| b.len() as u64);
        self.acc.ns += ns_since(t);
        self.acc.n += cycles;
        out
    }
}

/// Times `GatingPolicy::gate_into` and `observe` (the `core::dcg` and
/// `core::plb` layers). `acc.n` counts gated cycles.
pub struct TimedPolicy<P> {
    inner: P,
    pub acc: Acc,
}

impl<P> TimedPolicy<P> {
    pub fn new(inner: P) -> TimedPolicy<P> {
        TimedPolicy {
            inner,
            acc: Acc::default(),
        }
    }
}

impl<P: GatingPolicy> GatingPolicy for TimedPolicy<P> {
    fn gate_for(&mut self, cycle: u64) -> GateState {
        let t = Instant::now();
        let g = self.inner.gate_for(cycle);
        self.acc.add(t, 1);
        g
    }

    fn gate_into(&mut self, cycle: u64, out: &mut GateState) {
        let t = Instant::now();
        self.inner.gate_into(cycle, out);
        self.acc.add(t, 1);
    }

    fn constraints(&self) -> ResourceConstraints {
        self.inner.constraints()
    }

    fn observe(&mut self, activity: &CycleActivity) {
        let t = Instant::now();
        self.inner.observe(activity);
        self.acc.add(t, 0);
    }

    fn is_passive(&self) -> bool {
        self.inner.is_passive()
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// Times every call into a sink (the `core::sinks` layer). `acc.n`
/// counts observed cycles.
pub struct TimedSink<S> {
    pub inner: S,
    pub acc: Acc,
}

impl<S> TimedSink<S> {
    pub fn new(inner: S) -> TimedSink<S> {
        TimedSink {
            inner,
            acc: Acc::default(),
        }
    }
}

impl<S: ActivitySink> ActivitySink for TimedSink<S> {
    fn warmup_cycle(&mut self, act: &CycleActivity) {
        let t = Instant::now();
        self.inner.warmup_cycle(act);
        self.acc.add(t, 1);
    }

    fn begin_measure(&mut self) {
        let t = Instant::now();
        self.inner.begin_measure();
        self.acc.add(t, 0);
    }

    fn measure_cycle(&mut self, act: &CycleActivity) {
        let t = Instant::now();
        self.inner.measure_cycle(act);
        self.acc.add(t, 1);
    }

    fn constraints(&self) -> Option<ResourceConstraints> {
        self.inner.constraints()
    }

    fn warmup_span(&mut self, block: &ActivityBlock, from: usize, to: usize) {
        let t = Instant::now();
        self.inner.warmup_span(block, from, to);
        self.acc.add(t, (to - from) as u64);
    }

    fn measure_span(&mut self, block: &ActivityBlock, from: usize, to: usize) {
        let t = Instant::now();
        self.inner.measure_span(block, from, to);
        self.acc.add(t, (to - from) as u64);
    }
}

/// Extra sink of the traced run: folds every measured cycle through
/// `PowerModel::cycle_energy` under the ungated state, timing only that
/// call (`fold`). `total` times the whole sink, so the per-cycle
/// extraction it needs on the block path stays out of `drive`'s self
/// time.
pub struct FoldProbe {
    model: PowerModel,
    gate: GateState,
    scratch: CycleActivity,
    pub fold: Acc,
    pub total: Acc,
}

impl FoldProbe {
    pub fn new(config: &SimConfig, groups: &LatchGroups) -> FoldProbe {
        FoldProbe {
            model: PowerModel::new(config, groups),
            gate: GateState::ungated(config, groups),
            scratch: CycleActivity::default(),
            fold: Acc::default(),
            total: Acc::default(),
        }
    }

    fn fold_one(&mut self, act: &CycleActivity) {
        let t = Instant::now();
        black_box(self.model.cycle_energy(act, &self.gate).total());
        self.fold.add(t, 1);
    }
}

impl ActivitySink for FoldProbe {
    fn measure_cycle(&mut self, act: &CycleActivity) {
        let t = Instant::now();
        self.fold_one(act);
        self.total.add(t, 1);
    }

    fn measure_span(&mut self, block: &ActivityBlock, from: usize, to: usize) {
        let t = Instant::now();
        let mut act = std::mem::take(&mut self.scratch);
        for i in from..to {
            block.extract(i, &mut act);
            self.fold_one(&act);
        }
        self.scratch = act;
        self.total.add(t, (to - from) as u64);
    }
}

/// The recording sink of a cache miss, rebuilt from the public trace
/// writer: every cycle, warm-up included, goes through
/// `ActivityTraceWriter::write_cycle` (the `trace` encode layer).
pub struct RecorderProbe {
    writer: Option<ActivityTraceWriter<Vec<u8>>>,
    failed: bool,
    pub acc: Acc,
}

impl RecorderProbe {
    pub fn new(writer: ActivityTraceWriter<Vec<u8>>) -> RecorderProbe {
        RecorderProbe {
            writer: Some(writer),
            failed: false,
            acc: Acc::default(),
        }
    }

    fn write(&mut self, act: &CycleActivity) {
        let t = Instant::now();
        if let Some(w) = &mut self.writer {
            self.failed |= w.write_cycle(act).is_err();
        }
        self.acc.add(t, 1);
    }

    /// Finish the trace; `None` if any write failed.
    pub fn finish(&mut self) -> Option<Vec<u8>> {
        let out = self.writer.take()?.finish().ok();
        if self.failed {
            None
        } else {
            out
        }
    }
}

impl ActivitySink for RecorderProbe {
    fn warmup_cycle(&mut self, act: &CycleActivity) {
        self.write(act);
    }

    fn measure_cycle(&mut self, act: &CycleActivity) {
        self.write(act);
    }
}
