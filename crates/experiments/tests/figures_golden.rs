//! Byte-identity of every static figure, pinned.
//!
//! Each row is the SHA-1 of `DataTable::to_csv()` for one static table at
//! the quick profile ([`Options::quick`]). The static side is the paper's
//! spec and every figure's input, so a refactor of the walks, the child
//! rules or the sampler must leave this table unedited; a deliberate
//! change of a figure re-pins its row (the failure message prints the
//! observed table in source form).
//!
//! The dynamic-simulation tables (`resilience`, `churn`, `loss`,
//! `multigroup`) are pinned by `reactor_parity` and the chaos
//! fingerprints, not here.

use cam_core::cam_chord::ChildSelection;
use cam_core::CamChord;
use cam_experiments::runner::sample_trees;
use cam_experiments::{ext, fig10, fig11, fig6, fig7, fig8, fig9, Options};
use cam_metrics::{DataSeries, DataTable};
use cam_ring::sha1::Sha1;
use cam_workload::Scenario;

/// `name digest`, one row per static table.
const GOLDEN: [&str; 14] = [
    "fig6 509eb24cddaebc93648f03460d679b2e0eedbc4a",
    "fig7 77fabeda0685973007dc36e3247e947912b81c65",
    "fig8 7d13ae0aa736b38ac152654fe2ff4ad480653068",
    "fig9 717b348b67d2fb79643bd755d69c0719f81af587",
    "fig10 6bd875494ed2b5c788c0099c2375407375eb5a29",
    "fig11 2f1ad3e065a0de8bfd31904674e9d3ee08753d5d",
    "overhead 5bdeb211209dc8d7b85941f671ff024986ba666c",
    "ablation 6b3988dcb6c016408ebbd7547c04db9faafc15d7",
    "lookup caef7e530441240eae6453cbeb0d7fb185cdcbe8",
    "load 249f9fef4dce157ed9d2a1a5db3103b76d2ea53b",
    "theory 4d6c6f3c569672c941a29445e2a7e55fb15bab28",
    "heterogeneity b3eb104ddacbbb690c0f4abe2f9ac09606bddbe0",
    "stability 1edd1db3e16a53e7967dd364e8db5fd760f9d542",
    "proximity 91a3d7bbb11ae4c85e934fde1d0403d91e10f9bb",
];

fn figure(name: &str, opts: &Options) -> DataTable {
    match name {
        "fig6" => fig6::run(opts),
        "fig7" => fig7::run(opts),
        "fig8" => fig8::run(opts),
        "fig9" => fig9::run(opts),
        "fig10" => fig10::run(opts),
        "fig11" => fig11::run(opts),
        "overhead" => ext::overhead(opts),
        "ablation" => ext::ablation(opts),
        "lookup" => ext::lookup_hops(opts),
        "load" => ext::load_balance(opts),
        "theory" => ext::theory(opts),
        "heterogeneity" => ext::heterogeneity(opts),
        "stability" => ext::tree_stability(opts),
        "proximity" => ext::proximity(opts),
        other => panic!("no static table named {other}"),
    }
}

fn digest(table: &DataTable) -> String {
    Sha1::to_hex(&Sha1::digest(table.to_csv().as_bytes()))
}

#[test]
fn static_figures_match_golden_digests() {
    let opts = Options::quick();
    let observed: Vec<String> = GOLDEN
        .iter()
        .map(|row| {
            let name = row.split(' ').next().expect("row is `name digest`");
            format!("{name} {}", digest(&figure(name, &opts)))
        })
        .collect();
    let diverged: Vec<&String> = observed
        .iter()
        .zip(GOLDEN)
        .filter(|(seen, pinned)| seen != pinned)
        .map(|(seen, _)| seen)
        .collect();
    assert!(
        diverged.is_empty(),
        "{diverged:?} diverged from GOLDEN. If the figure change is deliberate, re-pin GOLDEN to \
         the observed table:\n{}",
        observed
            .iter()
            .map(|row| format!("    {row:?},\n"))
            .collect::<String>()
    );
}

/// The fingerprint must not go blind: the same sampler over the same
/// group with the other child-selection rounding digests differently.
#[test]
fn digest_sees_a_child_selection_change() {
    let opts = Options::quick();
    let group = Scenario::paper_default(opts.sub_seed(7))
        .with_n(opts.n)
        .members();
    let table_for = |selection: ChildSelection| {
        let overlay = CamChord::new(group.clone()).with_selection(selection);
        let agg = sample_trees(&overlay, opts.sources, opts.sub_seed(1));
        let mut series = DataSeries::new("avg_path_len");
        series.push(0.0, agg.avg_path_len.mean());
        let mut table = DataTable::new("sensitivity", "variant");
        table.push(series);
        table
    };
    assert_ne!(
        digest(&table_for(ChildSelection::Ceil)),
        digest(&table_for(ChildSelection::Floor))
    );
}
