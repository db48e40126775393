//! Extension: per-receiver fairness behind Figure 2's averages.
//!
//! The paper reports throughput *averaged over all receivers*. An average
//! can hide starving receivers; this experiment breaks delivery down per
//! receiver and reports the tail (10th percentile) and Jain's fairness
//! index for each variant. Expectation: link-quality metrics help the tail
//! *more* than the mean — the baseline's worst receivers are exactly the
//! ones stuck behind lossy links.

use experiments::cli::CliArgs;
use experiments::runner::paper_variants;
use experiments::scenario::MeshScenario;
use experiments::stats::{jain_fairness, percentile, render_table};
use experiments::WorkloadScenario;
use odmrp::{MulticastApp, Variant};

/// Per-receiver delivery ratios for one run.
fn receiver_ratios(cell: &WorkloadScenario, variant: Variant, seed: u64) -> Vec<f64> {
    let layout = cell.layout(seed);
    let (_, sim) = cell.run_with(variant, seed, |_| {});
    let nodes = sim.protocols();
    let mut out = Vec::new();
    for g in &layout.groups {
        let sent: u64 = g
            .sources
            .iter()
            .map(|s| {
                nodes[s.index()]
                    .node_stats()
                    .sent
                    .get(&g.group)
                    .copied()
                    .unwrap_or(0)
            })
            .sum();
        if sent == 0 {
            continue;
        }
        for m in &g.members {
            let got: u64 = g
                .sources
                .iter()
                .map(|s| {
                    nodes[m.index()]
                        .node_stats()
                        .delivered
                        .get(&(g.group, *s))
                        .map(|d| d.count)
                        .unwrap_or(0)
                })
                .sum();
            out.push(got as f64 / sent as f64);
        }
    }
    out
}

fn main() {
    let args = CliArgs::from_env();
    let cell = WorkloadScenario::from_mesh(
        "receiver-fairness",
        if args.quick {
            MeshScenario::quick()
        } else {
            MeshScenario::paper_default()
        },
    );
    let seeds = args.seeds(5);
    println!(
        "== extension: per-receiver fairness ({} topologies) ==\n",
        seeds.len()
    );

    let mut rows = Vec::new();
    for v in paper_variants() {
        let mut ratios = Vec::new();
        for &s in &seeds {
            ratios.extend(receiver_ratios(&cell, v, s));
        }
        let mean = ratios.iter().sum::<f64>() / ratios.len().max(1) as f64;
        let p10 = percentile(&ratios, 0.10).unwrap_or(0.0);
        let worst = percentile(&ratios, 0.0).unwrap_or(0.0);
        let fairness = jain_fairness(&ratios).unwrap_or(0.0);
        rows.push(vec![
            v.label(),
            format!("{mean:.3}"),
            format!("{p10:.3}"),
            format!("{worst:.3}"),
            format!("{fairness:.3}"),
        ]);
        eprintln!("  {v} done ({} receiver samples)", ratios.len());
    }
    println!(
        "{}",
        render_table(
            &["variant", "mean PDR", "p10 PDR", "worst PDR", "Jain index"],
            &rows
        )
    );
    println!(
        "Link-quality routing should lift the p10/worst receivers and the Jain \
         index relative to ODMRP — the averages of Fig. 2 understate the benefit \
         for tail receivers."
    );
}
