//! Bit-identity of the struct-of-arrays block path against the scalar
//! per-cycle path, across 2 workload profiles × 2 pipeline depths.
//!
//! Both routes of [`dcg_core::drive`] consume the same recorded activity
//! trace:
//!
//! 1. the scalar loop (forced through a wrapper that hides block support),
//! 2. the block loop (`drive` routes a replay there automatically),
//!
//! and a batch of sweep lanes is just one `drive` over every lane's
//! sinks. All must produce byte-identical policy outcomes, metrics
//! reports and simulator statistics — the equivalence the warm-cache
//! sweep speedup rests on.

use dcg_core::{
    drive, run_passive_with_sinks, ActivitySource, Dcg, DcgError, MetricsSink, NoGating,
    PassiveRun, ReplaySource, RunLength,
};
use dcg_sim::{
    CycleActivity, LatchGroups, PipelineDepth, Processor, ResourceConstraints, SimConfig,
};
use dcg_trace::{ActivityHeader, ActivityTraceReader, ActivityTraceWriter};
use dcg_workloads::{Spec2000, SyntheticWorkload};

const SEED: u64 = 11;

fn length() -> RunLength {
    RunLength {
        warmup_insts: 700,
        measure_insts: 2_300,
    }
}

/// Record `name` on `cfg` into an in-memory activity trace covering the
/// whole warm-up + measure window.
fn record(cfg: &SimConfig, name: &str) -> Vec<u8> {
    let profile = Spec2000::by_name(name).expect("known benchmark");
    let mut cpu = Processor::new(cfg.clone(), SyntheticWorkload::new(profile, SEED));
    let groups = cpu.latch_groups().len();
    let l = length();
    let header = ActivityHeader::new(
        name,
        cfg.digest(),
        SEED,
        l.warmup_insts,
        l.measure_insts,
        groups,
    )
    .expect("valid header");
    let mut w = ActivityTraceWriter::new(Vec::new(), &header).expect("in-memory writer");
    let target = l.warmup_insts + l.measure_insts;
    while ActivitySource::committed(&cpu) < target {
        w.write_cycle(cpu.step()).expect("record cycle");
    }
    w.finish().expect("finish trace")
}

/// Hides block support so [`dcg_core::drive`] takes the scalar loop.
struct ScalarOnly(ReplaySource);

impl ActivitySource for ScalarOnly {
    fn next_cycle(&mut self) -> Result<&CycleActivity, DcgError> {
        self.0.next_cycle()
    }
    fn committed(&self) -> u64 {
        self.0.committed()
    }
    fn cycle(&self) -> u64 {
        self.0.cycle()
    }
    fn supports_constraints(&self) -> bool {
        false
    }
    fn apply_constraints(&mut self, _constraints: ResourceConstraints) {
        panic!("replayed activity cannot honor resource constraints");
    }
}

fn replay(bytes: &[u8]) -> ReplaySource {
    ReplaySource::new(ActivityTraceReader::new(bytes).expect("open trace"))
}

/// Run the standard passive fan-out (NoGating + DCG, with a MetricsSink
/// on DCG) over `source`; return the run plus the metrics report.
fn passive_run(
    cfg: &SimConfig,
    source: &mut dyn ActivitySource,
) -> (PassiveRun, dcg_core::MetricsReport) {
    let groups = LatchGroups::new(&cfg.depth);
    let mut base = NoGating::new(cfg, &groups);
    let mut dcg = Dcg::new(cfg, &groups);
    let mut observed = Dcg::new(cfg, &groups);
    let mut metrics = MetricsSink::new(&mut observed, cfg, &groups);
    let run = run_passive_with_sinks(
        cfg,
        source,
        length(),
        &mut [&mut base, &mut dcg],
        &mut [&mut metrics],
    )
    .expect("replay covers the recorded window");
    (run, metrics.into_report())
}

/// Exact-bit fingerprint of a run: Debug formatting covers every counter,
/// and the f64 energy totals are compared through `to_bits`.
fn fingerprint(run: &PassiveRun) -> String {
    let energy_bits: Vec<(u64, u64)> = run
        .outcomes
        .iter()
        .map(|o| {
            (
                o.report.total_pj().to_bits(),
                o.report.energy_per_inst_pj().to_bits(),
            )
        })
        .collect();
    format!("{run:?}|{energy_bits:?}")
}

#[test]
fn block_path_matches_scalar_path_bit_for_bit() {
    for depth in [PipelineDepth::stages8(), PipelineDepth::stages20()] {
        for name in ["gzip", "swim"] {
            let cfg = SimConfig {
                depth,
                ..SimConfig::baseline_8wide()
            };
            let bytes = record(&cfg, name);

            let mut scalar_src = ScalarOnly(replay(&bytes));
            let (scalar_run, scalar_metrics) = passive_run(&cfg, &mut scalar_src);

            let mut block_src = replay(&bytes);
            assert!(block_src.supports_blocks());
            let (block_run, block_metrics) = passive_run(&cfg, &mut block_src);

            assert_eq!(
                fingerprint(&scalar_run),
                fingerprint(&block_run),
                "{name}/{depth:?}: block drive must equal scalar drive"
            );
            assert_eq!(
                scalar_metrics, block_metrics,
                "{name}/{depth:?}: metrics must be identical"
            );

            // Stats-only fold over blocks equals the full run's stats.
            let stats =
                run_passive_with_sinks(&cfg, &mut replay(&bytes), length(), &mut [], &mut [])
                    .expect("replay covers the recorded window")
                    .stats;
            assert_eq!(
                format!("{:?}", scalar_run.stats),
                format!("{stats:?}"),
                "{name}/{depth:?}: blockwise stats fold must equal scalar stats"
            );
        }
    }
}

#[test]
fn one_drive_over_all_lanes_sinks_equals_individual_drives() {
    let cfg = SimConfig::baseline_8wide();
    let groups = LatchGroups::new(&cfg.depth);
    let bytes = record(&cfg, "gzip");

    // Two lanes sharing one decode: each lane re-evaluates DCG through a
    // MetricsSink (the public block-aware sink).
    let mut p0 = Dcg::new(&cfg, &groups);
    let mut p1 = Dcg::new(&cfg, &groups);
    let mut lane0 = MetricsSink::new(&mut p0, &cfg, &groups);
    let mut lane1 = MetricsSink::new(&mut p1, &cfg, &groups);
    drive(&mut replay(&bytes), &mut [&mut lane0, &mut lane1], length())
        .expect("replay covers the recorded window");
    let batch0 = lane0.into_report();
    let batch1 = lane1.into_report();

    // Reference: drive each lane alone, scalar and blocked.
    let (_, solo_block) = passive_run(&cfg, &mut replay(&bytes));
    let (_, solo_scalar) = passive_run(&cfg, &mut ScalarOnly(replay(&bytes)));

    assert_eq!(batch0, batch1, "lockstep lanes must agree with each other");
    assert_eq!(batch0, solo_block, "batched lane must equal solo block run");
    assert_eq!(
        batch0, solo_scalar,
        "batched lane must equal solo scalar run"
    );
}
