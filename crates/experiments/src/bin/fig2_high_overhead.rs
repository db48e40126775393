//! Figure 2, column "Throughput-high overhead": the same simulation matrix
//! with the probing rate multiplied by 5. The paper reports every metric's
//! gain dropping by about 2 % — probes interfere with data.

use experiments::cli::CliArgs;
use experiments::runner::{comparison_variants, run_matrix, summarize};
use experiments::scenario::MeshScenario;
use experiments::{paper, report, WorkloadScenario};
use odmrp::Variant;

fn main() {
    let args = CliArgs::from_env();
    let mut scenario = if args.quick {
        MeshScenario::quick()
    } else {
        MeshScenario::paper_default()
    };
    scenario.probe_rate = args.probe_rate.unwrap_or(5.0);
    let seeds = args.seeds(10);
    eprintln!(
        "fig2 (high overhead): probe rate x{}, {} topologies",
        scenario.probe_rate,
        seeds.len()
    );
    let cell = WorkloadScenario::from_mesh("fig2-high-overhead", scenario.clone());
    let results = run_matrix(&comparison_variants(), &seeds, |v, s| cell.run_once(v, s));
    let summaries = summarize(&results, Variant::Original);

    println!(
        "== Figure 2, column \"Throughput-high overhead\" (probe rate x{}) ==",
        scenario.probe_rate
    );
    println!(
        "{}",
        report::throughput_table(&summaries, &paper::FIG2_THROUGHPUT_HIGH_OVERHEAD)
    );
    println!("== probing overhead at this rate ==");
    println!("{}", report::overhead_table(&summaries));
}
