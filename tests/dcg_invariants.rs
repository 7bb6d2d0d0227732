//! The paper's two headline guarantees, verified end-to-end:
//!
//! 1. **No performance loss** — DCG never changes timing: the gated run is
//!    cycle-identical to the ungated baseline.
//! 2. **No lost opportunity** — on the deterministically-gated blocks
//!    (execution units, D-cache decoders, result buses), DCG powers a
//!    block *exactly* when it is used: zero violations AND zero
//!    powered-but-idle cycles.

use dcg_repro::core::{run_passive, Dcg, NoGating, RunLength};
use dcg_repro::sim::{LatchGroups, SimConfig};
use dcg_repro::workloads::{Spec2000, SyntheticWorkload};

fn run(bench: &str, cfg: &SimConfig) -> dcg_repro::core::PassiveRun {
    let groups = LatchGroups::new(&cfg.depth);
    let mut baseline = NoGating::new(cfg, &groups);
    let mut dcg = Dcg::new(cfg, &groups);
    run_passive(
        cfg,
        SyntheticWorkload::new(Spec2000::by_name(bench).expect("known"), 11),
        RunLength::quick(),
        &mut [&mut baseline, &mut dcg],
    )
}

#[test]
fn dcg_never_gates_a_used_block_on_any_benchmark() {
    let cfg = SimConfig::baseline_8wide();
    for p in Spec2000::all() {
        let groups = LatchGroups::new(&cfg.depth);
        let mut baseline = NoGating::new(&cfg, &groups);
        let mut dcg = Dcg::new(&cfg, &groups);
        // run_passive panics internally on any strict-audit violation.
        let r = run_passive(
            &cfg,
            SyntheticWorkload::new(p, 3),
            RunLength {
                warmup_insts: 2_000,
                measure_insts: 10_000,
            },
            &mut [&mut baseline, &mut dcg],
        );
        assert_eq!(r.outcomes[1].audit.violations, 0, "{}", p.name);
    }
}

#[test]
fn dcg_is_cycle_identical_to_baseline() {
    let cfg = SimConfig::baseline_8wide();
    let r = run("bzip2", &cfg);
    assert_eq!(r.outcomes[0].report.cycles(), r.outcomes[1].report.cycles());
    assert_eq!(
        r.outcomes[0].report.committed(),
        r.outcomes[1].report.committed()
    );
}

#[test]
fn dcg_has_zero_lost_opportunity_on_deterministic_blocks() {
    // Paper §1: "DCG guarantees no performance loss and no lost
    // opportunity for the blocks whose usage can be known in advance."
    let cfg = SimConfig::baseline_8wide();
    for bench in ["gzip", "mcf", "swim", "mesa"] {
        let r = run(bench, &cfg);
        let audit = &r.outcomes[1].audit;
        assert_eq!(audit.violations, 0, "{bench}");
        assert_eq!(
            audit.idle_enabled_unit_cycles, 0,
            "{bench}: a unit was powered while idle"
        );
        assert_eq!(
            audit.idle_enabled_port_cycles, 0,
            "{bench}: a decoder was powered while idle"
        );
        assert_eq!(
            audit.idle_enabled_bus_cycles, 0,
            "{bench}: a bus was powered while idle"
        );
    }
}

#[test]
fn dcg_invariants_hold_on_the_deep_pipeline_too() {
    let cfg = SimConfig::deep_pipeline_20();
    let r = run("applu", &cfg);
    let audit = &r.outcomes[1].audit;
    assert_eq!(audit.violations, 0);
    assert_eq!(audit.idle_enabled_unit_cycles, 0);
    assert_eq!(audit.idle_enabled_bus_cycles, 0);
    assert!(r.outcomes[1].report.power_saving_vs(&r.outcomes[0].report) > 0.1);
}

#[test]
fn energy_accounting_is_an_exact_identity() {
    use dcg_repro::power::Component;
    let cfg = SimConfig::baseline_8wide();
    let r = run("apsi", &cfg);
    let base = &r.outcomes[0].report;
    let dcg = &r.outcomes[1].report;

    // The breakdown is additive: component deltas sum exactly to the
    // total delta (no hidden energy).
    let total_delta = base.total_pj() - dcg.total_pj();
    let component_delta: f64 = Component::ALL
        .iter()
        .map(|c| base.component_pj(*c) - dcg.component_pj(*c))
        .sum();
    assert!(
        (total_delta - component_delta).abs() < 1e-6 * base.total_pj(),
        "bookkeeping identity violated"
    );

    // Only the paper's gated components (plus DCG's control) may differ.
    for c in Component::ALL {
        let differs =
            (base.component_pj(c) - dcg.component_pj(c)).abs() > 1e-9 * base.total_pj().max(1.0);
        let gateable = matches!(
            c,
            Component::IntUnits
                | Component::FpUnits
                | Component::PipelineLatch
                | Component::DcacheDecoder
                | Component::ResultBus
                | Component::GatingControl
        );
        assert!(
            !differs || gateable,
            "{}: changed under DCG but is not a gated component",
            c.label()
        );
    }
}

#[test]
fn dcg_tracks_the_clairvoyant_oracle() {
    use dcg_repro::core::{run_passive_with_sinks, ClairvoyantSink};
    use dcg_repro::sim::Processor;

    // The oracle rides the same pass as the baseline and DCG.
    let cfg = SimConfig::baseline_8wide();
    let groups = LatchGroups::new(&cfg.depth);
    let mut baseline = NoGating::new(&cfg, &groups);
    let mut dcg = Dcg::new(&cfg, &groups);
    let mut clairvoyant = ClairvoyantSink::new(&cfg, &groups);
    let mut cpu = Processor::new(
        cfg.clone(),
        SyntheticWorkload::new(Spec2000::by_name("gzip").unwrap(), 11),
    );
    let r = run_passive_with_sinks(
        &cfg,
        &mut cpu,
        RunLength::quick(),
        &mut [&mut baseline, &mut dcg],
        &mut [&mut clairvoyant],
    )
    .expect("a live simulation source cannot fail");
    let base = &r.outcomes[0].report;
    let dcg_saving = r.outcomes[1].report.power_saving_vs(base);

    let oracle = clairvoyant.into_styles().oracle();
    let oracle_saving = oracle.report.power_saving_vs(base);
    assert!(
        oracle_saving >= dcg_saving - 1e-9,
        "no realizable policy may beat the oracle: {dcg_saving:.4} vs {oracle_saving:.4}"
    );
    assert!(
        oracle_saving - dcg_saving < 0.03,
        "DCG must sit within 3 points of the oracle: {dcg_saving:.4} vs {oracle_saving:.4}"
    );
}

#[test]
fn dcg_saving_includes_control_overhead() {
    use dcg_repro::power::Component;
    let cfg = SimConfig::baseline_8wide();
    let r = run("vortex", &cfg);
    let dcg = &r.outcomes[1].report;
    let base = &r.outcomes[0].report;
    // The DCG run pays for its control latches; the baseline does not.
    assert!(dcg.component_pj(Component::GatingControl) > 0.0);
    assert_eq!(base.component_pj(Component::GatingControl), 0.0);
    // Overhead is small: paper says ~1 % of latch power.
    let overhead = dcg.component_pj(Component::GatingControl);
    let latch_base = base.component_pj(Component::PipelineLatch);
    let ratio = overhead / latch_base;
    assert!(
        ratio < 0.03,
        "control overhead should be a few percent of latch power: {ratio:.4}"
    );
}
