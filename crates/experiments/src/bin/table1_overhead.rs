//! Table 1: probing overhead of each metric as a percentage of the data
//! bytes received, on the paper's 50-node simulation setup.

use experiments::cli::CliArgs;
use experiments::runner::{comparison_variants, run_matrix, summarize};
use experiments::scenario::MeshScenario;
use experiments::{report, WorkloadScenario};
use odmrp::Variant;

fn main() {
    let args = CliArgs::from_env();
    let mut scenario = if args.quick {
        MeshScenario::quick()
    } else {
        MeshScenario::paper_default()
    };
    if let Some(r) = args.probe_rate {
        scenario.probe_rate = r;
    }
    let seeds = args.seeds(10);
    eprintln!("table1: {} topologies", seeds.len());
    let cell = WorkloadScenario::from_mesh("table1", scenario);
    let results = run_matrix(&comparison_variants(), &seeds, |v, s| cell.run_once(v, s));
    let summaries = summarize(&results, Variant::Original);

    println!("== Table 1: comparative percentage overhead ==");
    println!("{}", report::overhead_table(&summaries));

    let fails = report::overhead_shape_failures(&summaries);
    if fails.is_empty() {
        println!("shape checks: all passed (pair probing costs several times single probing)");
    } else {
        println!("shape checks FAILED:");
        for f in &fails {
            println!("  - {f}");
        }
        std::process::exit(1);
    }
}
