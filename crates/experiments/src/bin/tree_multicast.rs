//! §4.3's first argument: high-throughput metrics "continue to be effective
//! in multicast protocols that are tree-based such as MAODV" even where
//! ODMRP's per-group mesh redundancy dilutes them.
//!
//! Runs the SPP metric against the first-arrival baseline under *both*
//! protocols, single-source and multi-source, and compares the relative
//! gains: ODMRP's should shrink with extra sources, the tree protocol's
//! should persist.

use experiments::cli::CliArgs;
use experiments::runner::{run_matrix, run_tree_once, summarize};
use experiments::scenario::MeshScenario;
use experiments::stats::render_table;
use experiments::WorkloadScenario;
use mcast_metrics::MetricKind;
use odmrp::Variant;

fn gain(
    seeds: &[u64],
    runner: &(dyn Fn(Variant, u64) -> experiments::RunMeasurement + Sync),
) -> f64 {
    let metric = Variant::Metric(MetricKind::Spp);
    let results = run_matrix(&[Variant::Original, metric], seeds, runner);
    let summ = summarize(&results, Variant::Original);
    summ.iter()
        .find(|s| s.variant == metric)
        .map(|s| s.normalized_throughput.mean)
        .unwrap_or(f64::NAN)
}

fn main() {
    let args = CliArgs::from_env();
    let seeds = args.seeds(5);
    let mut single = if args.quick {
        MeshScenario::quick()
    } else {
        MeshScenario::paper_default()
    };
    single.sources_per_group = 1;
    // Fewer members per group than Fig. 2's setup: each member's branch is
    // what the metric improves, and with 10 members the union of branches
    // itself becomes a redundant mesh (see EXPERIMENTS.md).
    single.members_per_group = 5;
    let mut multi = single.clone();
    multi.sources_per_group = 2;

    println!("== §4.3: metric gains on mesh-based (ODMRP) vs tree-based (MAODV-style) ==");
    println!(
        "(SPP vs first-arrival baseline, {} topologies)\n",
        seeds.len()
    );

    let mut rows = Vec::new();
    eprintln!("  ODMRP single-source...");
    let odmrp_single = WorkloadScenario::from_mesh("single-source", single.clone());
    let odmrp_1 = gain(&seeds, &|v, s| odmrp_single.run_once(v, s));
    eprintln!("  ODMRP multi-source...");
    let odmrp_multi = WorkloadScenario::from_mesh("multi-source", multi.clone());
    let odmrp_2 = gain(&seeds, &|v, s| odmrp_multi.run_once(v, s));
    eprintln!("  tree single-source...");
    let tree_1 = gain(&seeds, &|v, s| run_tree_once(&single, v, s));
    eprintln!("  tree multi-source...");
    let tree_2 = gain(&seeds, &|v, s| run_tree_once(&multi, v, s));

    rows.push(vec![
        "ODMRP (mesh)".to_string(),
        format!("{odmrp_1:.3}"),
        format!("{odmrp_2:.3}"),
        format!("{:+.0}%", retained(odmrp_1, odmrp_2)),
    ]);
    rows.push(vec![
        "MAODV-style (tree)".to_string(),
        format!("{tree_1:.3}"),
        format!("{tree_2:.3}"),
        format!("{:+.0}%", retained(tree_1, tree_2)),
    ]);
    println!(
        "{}",
        render_table(
            &[
                "protocol",
                "gain (1 src/group)",
                "gain (2 src/group)",
                "gain retained"
            ],
            &rows
        )
    );

    let odmrp_retained = retained(odmrp_1, odmrp_2);
    let tree_retained = retained(tree_1, tree_2);
    println!("paper: mesh redundancy shrinks ODMRP's gains; tree-based protocols keep them.");
    if tree_retained > odmrp_retained {
        println!(
            "observation: tree retains {tree_retained:.0}% of its gain vs ODMRP's {odmrp_retained:.0}% — \
             consistent with §4.3"
        );
    } else {
        println!(
            "observation: tree retained {tree_retained:.0}% vs mesh {odmrp_retained:.0}% — at this \
             density, broadcast overhearing gives even tree protocols redundancy \
             (recorded as a deviation in EXPERIMENTS.md)"
        );
    }
}

/// Percentage of the single-source gain retained in the multi-source run.
fn retained(g1: f64, g2: f64) -> f64 {
    if g1 > 1.0 {
        100.0 * (g2 - 1.0) / (g1 - 1.0)
    } else {
        0.0
    }
}
