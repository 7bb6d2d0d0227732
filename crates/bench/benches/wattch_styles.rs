//! DCG versus Wattch's own idealized conditional-clocking styles
//! (cc1/cc2/cc3), which use *same-cycle* knowledge and are therefore upper
//! bounds no realizable controller can reach. DCG — a realizable,
//! advance-knowledge controller — should land between cc1 and cc2 and
//! above cc3's conventional 10 %-floor variant.

use dcg_core::{run_passive_with_sinks, ClairvoyantSink, Dcg, NoGating, RunLength};
use dcg_experiments::FigureTable;
use dcg_sim::{LatchGroups, Processor, SimConfig};
use dcg_workloads::{Spec2000, SyntheticWorkload};

fn main() {
    let cfg = SimConfig::baseline_8wide();
    let groups = LatchGroups::new(&cfg.depth);
    let length = RunLength::standard();
    let mut t = FigureTable::new(
        "wattch-styles",
        "Total power saving (%): DCG vs Wattch cc1/cc2/cc3 accounting styles",
        vec!["dcg".into(), "cc1".into(), "cc2".into(), "cc3".into()],
    );
    for bench in ["gzip", "bzip2", "mcf", "mesa", "swim"] {
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
        let dcg_saving = 100.0
            * run.outcomes[1]
                .report
                .power_saving_vs(&run.outcomes[0].report);
        let styles = clairvoyant.into_styles();
        t.push_row(
            bench,
            vec![
                dcg_saving,
                100.0 * styles.cc1_saving(),
                100.0 * styles.cc2_saving(),
                100.0 * styles.cc3_saving(0.10),
            ],
        );
    }
    t.note("cc1/cc2/cc3 are Wattch's idealized accounting modes (same-cycle");
    t.note("knowledge); DCG is a realizable controller that nearly matches cc2");
    dcg_bench::emit(&t);
}
