//! §4.3: multiple sources per group. ODMRP's forwarding group is
//! per-*group*, so extra sources create path redundancy that masks bad
//! route choices; the paper reports the relative gains shrinking by
//! ≈10–15 % compared to the single-source case.

use experiments::cli::CliArgs;
use experiments::runner::{paper_variants, run_matrix, summarize};
use experiments::scenario::MeshScenario;
use experiments::stats::render_table;
use experiments::WorkloadScenario;
use mcast_metrics::MetricKind;
use odmrp::Variant;

fn main() {
    let args = CliArgs::from_env();
    let seeds = args.seeds(10);

    let mut single = if args.quick {
        MeshScenario::quick()
    } else {
        MeshScenario::paper_default()
    };
    single.sources_per_group = 1;
    let mut multi = single.clone();
    multi.sources_per_group = 2;

    eprintln!(
        "multi-source: 1 vs {} sources/group, {} topologies",
        multi.sources_per_group,
        seeds.len()
    );
    let single = WorkloadScenario::from_mesh("single-source", single);
    let multi = WorkloadScenario::from_mesh("multi-source", multi);
    let res_single = run_matrix(&paper_variants(), &seeds, |v, s| single.run_once(v, s));
    eprintln!("  single-source matrix done");
    let res_multi = run_matrix(&paper_variants(), &seeds, |v, s| multi.run_once(v, s));
    eprintln!("  multi-source matrix done");

    let sum_single = summarize(&res_single, Variant::Original);
    let sum_multi = summarize(&res_multi, Variant::Original);

    println!("== §4.3: relative gains with 1 vs 3 sources per group ==");
    let mut rows = Vec::new();
    let mut shrink_count = 0;
    for kind in MetricKind::PAPER_SET {
        let g1 = sum_single
            .iter()
            .find(|s| s.variant == Variant::Metric(kind))
            .map(|s| s.normalized_throughput.mean)
            .unwrap_or(f64::NAN);
        let g3 = sum_multi
            .iter()
            .find(|s| s.variant == Variant::Metric(kind))
            .map(|s| s.normalized_throughput.mean)
            .unwrap_or(f64::NAN);
        // "Gain" = normalized throughput - 1.
        let reduction_pct = if g1 > 1.0 {
            100.0 * ((g1 - 1.0) - (g3 - 1.0)) / (g1 - 1.0)
        } else {
            0.0
        };
        if g3 - 1.0 < g1 - 1.0 {
            shrink_count += 1;
        }
        rows.push(vec![
            kind.name().to_string(),
            format!("{:.3}", g1),
            format!("{:.3}", g3),
            format!("{reduction_pct:+.0}%"),
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "metric",
                "1 source/group",
                "2 sources/group",
                "gain reduction"
            ],
            &rows
        )
    );
    println!("paper: relative throughput gain reduced by ~10-15% with multiple sources");
    if shrink_count >= 3 {
        println!("reproduced: gains shrink for {shrink_count}/5 metrics under source redundancy");
    } else {
        println!("NOT reproduced: gains shrank for only {shrink_count}/5 metrics");
        std::process::exit(1);
    }
}
