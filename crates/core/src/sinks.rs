//! Consumers of the per-cycle activity stream.
//!
//! One [`drive`](crate::drive) pass fans each cycle's
//! [`CycleActivity`] out to any number of sinks: policy evaluation with
//! energy accounting and the gating audit, clairvoyant (Wattch/oracle)
//! reference accounting, cycle-level metrics and statistics. Because
//! every sink takes the activity by reference, adding consumers never
//! adds simulation passes — the "simulate once" architecture.

use std::cell::Cell;

use dcg_isa::FuClass;
use dcg_power::{GateState, PowerModel, PowerReport};
use dcg_sim::{
    ActivityBlock, CycleActivity, LatchGroups, ResourceConstraints, SimConfig, SimStats,
};

use crate::metrics::{
    fu_class_label, ComponentMetrics, GateDisagreement, Histogram, MetricsConfig, MetricsReport,
    WindowSample,
};
use crate::policy::GatingPolicy;
use crate::runner::{GatingAudit, PolicyOutcome, WattchStyles};
use crate::safety::GatingSafetyChecker;

/// A consumer of per-cycle activity.
///
/// [`drive`](crate::drive) calls [`ActivitySink::warmup_cycle`] for every
/// cycle before the measurement window opens,
/// [`ActivitySink::begin_measure`] exactly once at the window boundary,
/// and [`ActivitySink::measure_cycle`] for every measured cycle.
/// [`ActivitySink::constraints`] is polled before each cycle; a sink
/// wrapping an active policy returns its resource limits there (which
/// only a live simulation source can honor).
pub trait ActivitySink {
    /// Observe a warm-up cycle (nothing should be recorded).
    fn warmup_cycle(&mut self, _act: &CycleActivity) {}

    /// The measurement window opens; the next cycle is measured.
    fn begin_measure(&mut self) {}

    /// Observe and account one measured cycle.
    fn measure_cycle(&mut self, act: &CycleActivity);

    /// Resource constraints to apply to the upcoming cycle, if any.
    fn constraints(&self) -> Option<ResourceConstraints> {
        None
    }

    /// Observe warm-up cycles `from..to` of a decoded block.
    ///
    /// The default is the per-cycle compatibility shim: extract each
    /// column and forward it to
    /// [`warmup_cycle`](ActivitySink::warmup_cycle), preserving the exact
    /// scalar call sequence. Sinks with a vectorized fold (or nothing to
    /// do during warm-up) override this.
    fn warmup_span(&mut self, block: &ActivityBlock, from: usize, to: usize) {
        each_cycle(block, from, to, |act| self.warmup_cycle(act));
    }

    /// Observe and account measured cycles `from..to` of a decoded block.
    ///
    /// Same shim contract as [`warmup_span`](ActivitySink::warmup_span):
    /// the default forwards column-by-column to
    /// [`measure_cycle`](ActivitySink::measure_cycle), so any sink is
    /// automatically block-capable and bit-identical to the scalar path.
    fn measure_span(&mut self, block: &ActivityBlock, from: usize, to: usize) {
        each_cycle(block, from, to, |act| self.measure_cycle(act));
    }
}

thread_local! {
    /// The per-cycle shim's record, reused across spans so extraction
    /// allocates once per thread rather than once per block. A nested
    /// shim finds it taken and starts from an empty record.
    static SHIM_RECORD: Cell<CycleActivity> = Cell::new(CycleActivity::default());
}

/// Extract cycles `from..to` of `block` one at a time and hand each to
/// `observe` (every field of the record is rewritten per cycle).
fn each_cycle(
    block: &ActivityBlock,
    from: usize,
    to: usize,
    mut observe: impl FnMut(&CycleActivity),
) {
    let mut act = SHIM_RECORD.take();
    for i in from..to {
        block.extract(i, &mut act);
        observe(&act);
    }
    SHIM_RECORD.set(act);
}

/// Evaluates one gating policy: per-cycle gate state, safety audit and
/// energy accounting.
pub(crate) struct PolicySink<'a> {
    policy: &'a mut dyn GatingPolicy,
    model: &'a PowerModel,
    config: &'a SimConfig,
    groups: &'a LatchGroups,
    /// Strict policies (DCG's determinism guarantee) run behind the
    /// safety checker: a gated-but-used block becomes a recorded hazard
    /// and the class fails open. Active policies (PLB) are predictive by
    /// design and carry no checker — their misses are lost opportunity,
    /// not safety violations.
    safety: Option<GatingSafetyChecker>,
    /// Forward the policy's resource constraints to the source (active
    /// runs only; passive policies never constrain).
    constrain: bool,
    report: PowerReport,
    audit: GatingAudit,
    /// Scratch gate state reused across cycles (see
    /// [`GatingPolicy::gate_into`]).
    gate: GateState,
}

impl<'a> PolicySink<'a> {
    pub(crate) fn new(
        policy: &'a mut dyn GatingPolicy,
        model: &'a PowerModel,
        config: &'a SimConfig,
        groups: &'a LatchGroups,
        strict: bool,
        constrain: bool,
    ) -> PolicySink<'a> {
        let gate = GateState::ungated(config, groups);
        PolicySink {
            policy,
            model,
            config,
            groups,
            safety: strict.then(|| GatingSafetyChecker::new(config, groups)),
            constrain,
            report: PowerReport::new(),
            audit: GatingAudit::default(),
            gate,
        }
    }

    pub(crate) fn into_outcome(self) -> PolicyOutcome {
        PolicyOutcome {
            name: self.policy.name().to_string(),
            report: self.report,
            audit: self.audit,
            safety: self
                .safety
                .map(GatingSafetyChecker::into_report)
                .unwrap_or_default(),
        }
    }
}

impl ActivitySink for PolicySink<'_> {
    fn warmup_cycle(&mut self, act: &CycleActivity) {
        // Keep the policy's pipelined control state primed, but record
        // nothing. The safety checker still screens warm-up cycles: a
        // hazard is a hazard whenever it strikes, and backoff state must
        // be continuous across the measurement boundary.
        self.policy.gate_into(act.cycle, &mut self.gate);
        if let Some(chk) = &mut self.safety {
            chk.screen(&mut self.gate, act);
        }
        self.policy.observe(act);
    }

    fn measure_cycle(&mut self, act: &CycleActivity) {
        self.policy.gate_into(act.cycle, &mut self.gate);
        debug_assert!(self.gate.validate(self.config, self.groups).is_ok());
        if let Some(chk) = &mut self.safety {
            // Screen (and fail open) *before* the audit and the energy
            // accounting: downstream consumers see only safe gates.
            chk.screen(&mut self.gate, act);
        }
        self.audit.check(&self.gate, act);
        self.report
            .record(&self.model.cycle_energy(act, &self.gate), act.committed);
        self.policy.observe(act);
    }

    fn constraints(&self) -> Option<ResourceConstraints> {
        self.constrain.then(|| self.policy.constraints())
    }

    // Gating decisions, the safety screen and the energy fold are stateful
    // and order-sensitive (f64 accumulation), so block spans take the
    // per-cycle shim: the win is the shared block decode, not a reordered
    // fold.
}

/// Clairvoyant reference accounting: Wattch's `cc0`/`cc1`/`cc2` styles
/// from one pass (see [`WattchStyles`]).
///
/// The `cc2` gate — every gateable block powered exactly in the cycles
/// it is used, decided with same-cycle knowledge — is also the oracle
/// bound DCG is compared against ([`WattchStyles::oracle`]). It reads
/// only activity, so it rides any passive pass, live or replayed, as an
/// extra sink of [`crate::run_passive_with_sinks`].
#[derive(Debug)]
pub struct ClairvoyantSink<'a> {
    model: PowerModel,
    groups: &'a LatchGroups,
    ungated: GateState,
    full: PowerReport,
    cc1: PowerReport,
    cc2: PowerReport,
}

impl<'a> ClairvoyantSink<'a> {
    /// A sink accounting `config`'s machine.
    pub fn new(config: &SimConfig, groups: &'a LatchGroups) -> ClairvoyantSink<'a> {
        ClairvoyantSink {
            model: PowerModel::new(config, groups),
            groups,
            ungated: GateState::ungated(config, groups),
            full: PowerReport::new(),
            cc1: PowerReport::new(),
            cc2: PowerReport::new(),
        }
    }

    /// The three accounting styles over the measured window.
    pub fn into_styles(self) -> WattchStyles {
        WattchStyles {
            full: self.full,
            cc1: self.cc1,
            cc2: self.cc2,
        }
    }
}

impl ActivitySink for ClairvoyantSink<'_> {
    fn measure_cycle(&mut self, act: &CycleActivity) {
        // cc2: exact per-instance usage.
        let mut g2 = self.ungated.clone();
        for c in FuClass::ALL {
            g2.fu_powered[c.index()] = act.fu_active[c.index()];
        }
        g2.dcache_ports_powered = act.dcache_port_mask;
        g2.result_buses_powered = act.result_bus_used;
        g2.latch_slots = self
            .groups
            .specs()
            .iter()
            .zip(&act.latch_occupancy)
            .map(|(s, occ)| if s.gated { Some(*occ) } else { None })
            .collect();

        // cc1: all instances of a class powered if any is used.
        let mut g1 = self.ungated.clone();
        for c in FuClass::ALL {
            if act.fu_active[c.index()] == 0 {
                g1.fu_powered[c.index()] = 0;
            }
        }
        if act.dcache_port_mask == 0 {
            g1.dcache_ports_powered = 0;
        }
        if act.result_bus_used == 0 {
            g1.result_buses_powered = 0;
        }
        g1.latch_slots = self
            .groups
            .specs()
            .iter()
            .zip(&act.latch_occupancy)
            .map(|(s, occ)| if s.gated && *occ == 0 { Some(0) } else { None })
            .collect();

        self.full
            .record(&self.model.cycle_energy(act, &self.ungated), act.committed);
        self.cc1
            .record(&self.model.cycle_energy(act, &g1), act.committed);
        self.cc2
            .record(&self.model.cycle_energy(act, &g2), act.committed);
    }

    // Nothing accumulates during warm-up, so skip the shim's extraction.
    fn warmup_span(&mut self, _block: &ActivityBlock, _from: usize, _to: usize) {}
}

/// FU classes whose power is accounted per instance (memory ports are
/// accounted as D-cache ports instead, mirroring [`GatingAudit::check`]).
const UNIT_CLASSES: [FuClass; 4] = [
    FuClass::IntAlu,
    FuClass::IntMulDiv,
    FuClass::FpAlu,
    FuClass::FpMulDiv,
];

/// Index of the `dcache-ports` entry in [`MetricsReport::components`].
const COMP_PORTS: usize = UNIT_CLASSES.len();
/// Index of the `result-buses` entry.
const COMP_BUSES: usize = COMP_PORTS + 1;
/// Index of the `pipeline-latches` entry.
const COMP_LATCHES: usize = COMP_BUSES + 1;

/// Cycle-level observability sink: per-component counters, occupancy
/// histograms, a windowed utilization time series, and the
/// gating-decision audit trail (see [`crate::metrics`]).
///
/// The sink evaluates its own (passive) policy instance per cycle —
/// passive policies are deterministic pure functions of the activity
/// stream, so a second instance reproduces exactly the gate decisions of
/// the [`PolicySink`] riding the same pass, live or replayed.
pub struct MetricsSink<'a> {
    policy: &'a mut dyn GatingPolicy,
    groups: &'a LatchGroups,
    /// Scratch gate state reused across cycles.
    gate: GateState,
    metrics_config: MetricsConfig,
    /// Slots per latch group (an ungated or `None` entry powers this many).
    issue_width: u32,
    report: MetricsReport,
    /// The currently accumulating (not yet flushed) window.
    win: WindowSample,
}

impl<'a> MetricsSink<'a> {
    /// A sink observing `policy` with the default [`MetricsConfig`].
    pub fn new(
        policy: &'a mut dyn GatingPolicy,
        config: &SimConfig,
        groups: &'a LatchGroups,
    ) -> MetricsSink<'a> {
        MetricsSink::with_config(policy, config, groups, MetricsConfig::default())
    }

    /// A sink observing `policy` with explicit metrics tuning.
    ///
    /// # Panics
    ///
    /// Panics if `policy` is active or `metrics_config.window` is zero.
    pub fn with_config(
        policy: &'a mut dyn GatingPolicy,
        config: &SimConfig,
        groups: &'a LatchGroups,
        metrics_config: MetricsConfig,
    ) -> MetricsSink<'a> {
        assert!(
            policy.is_passive(),
            "MetricsSink re-evaluates its policy from the activity stream, \
             which only works for passive policies; {} is active",
            policy.name()
        );
        assert!(metrics_config.window > 0, "metrics window must be non-zero");
        let issue_width = config.issue_width as u32;
        let mut components: Vec<ComponentMetrics> = UNIT_CLASSES
            .iter()
            .map(|c| ComponentMetrics::new(fu_class_label(*c), config.fu_count(*c) as u32))
            .collect();
        components.push(ComponentMetrics::new(
            "dcache-ports",
            config.mem_ports as u32,
        ));
        components.push(ComponentMetrics::new(
            "result-buses",
            config.result_buses as u32,
        ));
        components.push(ComponentMetrics::new(
            "pipeline-latches",
            groups.gated_count() as u32 * issue_width,
        ));
        let report = MetricsReport {
            policy: policy.name().to_string(),
            window: metrics_config.window,
            cycles: 0,
            committed: 0,
            components,
            fu_occupancy: FuClass::ALL
                .iter()
                .map(|c| Histogram::new(config.fu_count(*c) as u32))
                .collect(),
            iq_fill: Histogram::new(config.iq_entries as u32),
            rob_fill: Histogram::new(config.rob_entries as u32),
            lsq_fill: Histogram::new(config.lsq_entries as u32),
            windows: Vec::new(),
            audit: Vec::new(),
            audit_dropped: 0,
        };
        let gate = GateState::ungated(config, groups);
        MetricsSink {
            policy,
            groups,
            gate,
            metrics_config,
            issue_width,
            report,
            win: WindowSample::empty(0),
        }
    }

    fn disagree(&mut self, cycle: u64, component: &str, claimed: u32, actual: u32) {
        if self.report.audit.len() < self.metrics_config.audit_capacity {
            self.report.audit.push(GateDisagreement {
                cycle,
                component: component.to_string(),
                claimed_powered: claimed,
                actual_used: actual,
            });
        } else {
            self.report.audit_dropped += 1;
        }
    }

    /// Finish the report (flushes the partial final window).
    pub fn into_report(mut self) -> MetricsReport {
        if self.win.cycles > 0 {
            self.report.windows.push(self.win);
        }
        self.report
    }
}

impl std::fmt::Debug for MetricsSink<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsSink")
            .field("policy", &self.report.policy)
            .field("cycles", &self.report.cycles)
            .field("windows", &self.report.windows.len())
            .finish_non_exhaustive()
    }
}

impl ActivitySink for MetricsSink<'_> {
    fn warmup_cycle(&mut self, act: &CycleActivity) {
        // Keep the policy's pipelined control state primed, but record
        // nothing.
        self.policy.gate_into(act.cycle, &mut self.gate);
        self.policy.observe(act);
    }

    fn measure_cycle(&mut self, act: &CycleActivity) {
        self.policy.gate_into(act.cycle, &mut self.gate);

        self.report.cycles += 1;
        self.report.committed += u64::from(act.committed);
        if self.win.cycles == 0 {
            self.win.start_cycle = act.cycle;
        }
        self.win.cycles += 1;
        self.win.committed += u64::from(act.committed);
        self.win.issued += u64::from(act.issued);

        for c in FuClass::ALL {
            self.report.fu_occupancy[c.index()].record(act.fu_active[c.index()].count_ones());
        }
        self.report.iq_fill.record(act.iq_occupancy);
        self.report.rob_fill.record(act.rob_occupancy);
        self.report.lsq_fill.record(act.lsq_occupancy);

        for (i, c) in UNIT_CLASSES.iter().enumerate() {
            let used_mask = act.fu_active[c.index()];
            let powered_mask = self.gate.fu_powered[c.index()];
            let comp = &mut self.report.components[i];
            let cap = u64::from(comp.instances);
            let used = u64::from(used_mask.count_ones());
            let powered = u64::from(powered_mask.count_ones());
            comp.used_instance_cycles += used;
            comp.powered_instance_cycles += powered;
            comp.gated_instance_cycles += cap - powered;
            comp.idle_instance_cycles += cap - used;
            self.win.unit_used += used;
            self.win.unit_gated += cap - powered;
            if used_mask != powered_mask {
                comp.disagreement_cycles += 1;
                self.disagree(act.cycle, fu_class_label(*c), powered_mask, used_mask);
            }
        }

        {
            let used_mask = act.dcache_port_mask;
            let powered_mask = self.gate.dcache_ports_powered;
            let comp = &mut self.report.components[COMP_PORTS];
            let cap = u64::from(comp.instances);
            let used = u64::from(used_mask.count_ones());
            let powered = u64::from(powered_mask.count_ones());
            comp.used_instance_cycles += used;
            comp.powered_instance_cycles += powered;
            comp.gated_instance_cycles += cap - powered;
            comp.idle_instance_cycles += cap - used;
            self.win.port_used += used;
            self.win.port_gated += cap - powered;
            if used_mask != powered_mask {
                comp.disagreement_cycles += 1;
                self.disagree(act.cycle, "dcache-ports", powered_mask, used_mask);
            }
        }

        {
            let used = act.result_bus_used;
            let powered = self.gate.result_buses_powered;
            let comp = &mut self.report.components[COMP_BUSES];
            let cap = u64::from(comp.instances);
            comp.used_instance_cycles += u64::from(used);
            comp.powered_instance_cycles += u64::from(powered);
            comp.gated_instance_cycles += cap - u64::from(powered);
            comp.idle_instance_cycles += cap - u64::from(used);
            self.win.bus_used += u64::from(used);
            self.win.bus_gated += cap - u64::from(powered);
            if used != powered {
                comp.disagreement_cycles += 1;
                self.disagree(act.cycle, "result-buses", powered, used);
            }
        }

        {
            let mut used_total = 0u64;
            let mut powered_total = 0u64;
            let mut group_disagreed = false;
            for ((spec, slots), occ) in self
                .groups
                .specs()
                .iter()
                .zip(&self.gate.latch_slots)
                .zip(&act.latch_occupancy)
            {
                if !spec.gated {
                    continue;
                }
                let powered = slots.unwrap_or(self.issue_width).min(self.issue_width);
                used_total += u64::from(*occ);
                powered_total += u64::from(powered);
                if powered != *occ {
                    group_disagreed = true;
                    if self.report.audit.len() < self.metrics_config.audit_capacity {
                        self.report.audit.push(GateDisagreement {
                            cycle: act.cycle,
                            component: spec.name.clone(),
                            claimed_powered: powered,
                            actual_used: *occ,
                        });
                    } else {
                        self.report.audit_dropped += 1;
                    }
                }
            }
            let comp = &mut self.report.components[COMP_LATCHES];
            let cap = u64::from(comp.instances);
            comp.used_instance_cycles += used_total;
            comp.powered_instance_cycles += powered_total;
            comp.gated_instance_cycles += cap - powered_total;
            comp.idle_instance_cycles += cap - used_total;
            comp.disagreement_cycles += u64::from(group_disagreed);
            self.win.latch_used += used_total;
            self.win.latch_gated += cap - powered_total;
        }

        if self.win.cycles == self.metrics_config.window {
            let next = WindowSample::empty(0);
            self.report
                .windows
                .push(std::mem::replace(&mut self.win, next));
        }

        self.policy.observe(act);
    }

    // Histogram updates, window flushes and the disagreement audit are
    // order-sensitive, so block spans take the per-cycle shim.
}

/// Accumulates [`SimStats`] over the measured window.
///
/// Statistics are a pure fold over the activity stream
/// ([`SimStats::record`]), so a replayed trace reconstructs them
/// bit-identically to the live simulation's own counters.
#[derive(Debug, Default)]
pub(crate) struct StatsSink {
    stats: SimStats,
}

impl StatsSink {
    pub(crate) fn new() -> StatsSink {
        StatsSink::default()
    }

    pub(crate) fn into_stats(self) -> SimStats {
        self.stats
    }
}

impl ActivitySink for StatsSink {
    fn measure_cycle(&mut self, act: &CycleActivity) {
        self.stats.record(act);
    }

    // Statistics are integer folds, so the column-wise block fold is
    // exactly the scalar fold — no per-cycle extraction needed.
    fn warmup_span(&mut self, _block: &ActivityBlock, _from: usize, _to: usize) {}

    fn measure_span(&mut self, block: &ActivityBlock, from: usize, to: usize) {
        self.stats.record_block(block, from, to);
    }
}
