//! DCG versus the clairvoyant gating oracle.
//!
//! The oracle powers every gateable block exactly in the cycles it is used
//! — perfect same-cycle knowledge, physically unimplementable (gate
//! enables need set-up time; it is the limit of Wattch's `cc3` style).
//! DCG's claim is that *realizable* advance knowledge captures essentially
//! all of that headroom; this bench quantifies the gap.

use dcg_core::{run_passive_with_sinks, ClairvoyantSink, Dcg, NoGating, RunLength};
use dcg_experiments::FigureTable;
use dcg_sim::{LatchGroups, Processor, SimConfig};
use dcg_workloads::{Spec2000, SyntheticWorkload};

fn main() {
    let cfg = SimConfig::baseline_8wide();
    let groups = LatchGroups::new(&cfg.depth);
    let length = RunLength::standard();
    let mut t = FigureTable::new(
        "oracle-comparison",
        "Total power saving (%): DCG vs the clairvoyant cc3-style oracle",
        vec!["dcg".into(), "oracle".into(), "gap".into()],
    );
    for bench in ["gzip", "bzip2", "mcf", "mesa", "lucas", "swim"] {
        let profile = Spec2000::by_name(bench).expect("known");
        let mut baseline = NoGating::new(&cfg, &groups);
        let mut dcg = Dcg::new(&cfg, &groups);
        let mut clairvoyant = ClairvoyantSink::new(&cfg, &groups);
        let mut cpu = Processor::new(cfg.clone(), SyntheticWorkload::new(profile, 42));
        let run = run_passive_with_sinks(
            &cfg,
            &mut cpu,
            length,
            &mut [&mut baseline, &mut dcg],
            &mut [&mut clairvoyant],
        )
        .expect("a live simulation source cannot fail");
        let base = &run.outcomes[0].report;
        let dcg_saving = 100.0 * run.outcomes[1].report.power_saving_vs(base);

        let oracle = clairvoyant.into_styles().oracle();
        let oracle_saving = 100.0 * oracle.report.power_saving_vs(base);
        t.push_row(
            bench,
            vec![dcg_saving, oracle_saving, oracle_saving - dcg_saving],
        );
    }
    t.note("the oracle has no control overhead and perfect latch knowledge;");
    t.note("DCG's gap should be well under 2 points of total power");
    dcg_bench::emit(&t);
}
