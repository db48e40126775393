//! Ablation: the δ (member wait) and α (duplicate-forwarding window) knobs.
//!
//! §4.1 of the paper notes that "using much higher values of α and δ can
//! yield an additional 3-4% throughput improvement" (at the price of query
//! overhead and join latency). This sweep quantifies that trade-off for one
//! metric: δ/α control how much path *diversity* a member sees before
//! committing.

use experiments::cli::CliArgs;
use experiments::runner::{run_matrix, summarize};
use experiments::scenario::MeshScenario;
use experiments::stats::render_table;
use experiments::WorkloadScenario;
use mcast_metrics::MetricKind;
use mesh_sim::time::SimDuration;
use odmrp::Variant;

fn main() {
    let args = CliArgs::from_env();
    let seeds = args.seeds(5);
    // (delta_ms, alpha_ms): the paper's default is (30, 20).
    let settings = [(0u64, 0u64), (10, 5), (30, 20), (100, 60), (300, 200)];
    let metric = Variant::Metric(MetricKind::Spp);

    println!("== ablation: member wait δ and duplicate window α (ODMRP_SPP) ==");
    let mut rows = Vec::new();
    for (delta_ms, alpha_ms) in settings {
        let mut scenario = if args.quick {
            MeshScenario::quick()
        } else {
            MeshScenario::paper_default()
        };
        scenario.delta = SimDuration::from_millis(delta_ms);
        scenario.alpha = SimDuration::from_millis(alpha_ms);
        let cell = WorkloadScenario::from_mesh("ablation-delta-alpha", scenario);
        let results = run_matrix(&[Variant::Original, metric], &seeds, |v, s| {
            cell.run_once(v, s)
        });
        let summ = summarize(&results, Variant::Original);
        let s = summ
            .iter()
            .find(|s| s.variant == metric)
            .expect("metric summary");
        let queries: f64 = results
            .iter()
            .filter(|m| m.variant == metric)
            .map(|m| m.counters.tx_data[odmrp::messages::class::CONTROL as usize].frames as f64)
            .sum::<f64>()
            / seeds.len() as f64;
        rows.push(vec![
            format!("{delta_ms}/{alpha_ms}"),
            format!("{:.3}", s.normalized_throughput.mean),
            format!("{:.3}", s.normalized_delay.mean),
            format!("{queries:.0}"),
        ]);
        eprintln!("  δ={delta_ms}ms α={alpha_ms}ms done");
    }
    println!(
        "{}",
        render_table(
            &[
                "δ/α (ms)",
                "norm. throughput",
                "norm. delay",
                "control frames"
            ],
            &rows
        )
    );
    println!(
        "paper default is 30/20; §4.1 reports ~+3-4% more throughput from much \
         larger values, with overhead the limiting factor."
    );
}
