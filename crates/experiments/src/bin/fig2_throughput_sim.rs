//! Figure 2, columns "Throughput-simulations" and "Delay": normalized
//! throughput and end-to-end delay of ODMRP with each link-quality metric on
//! the 50-node random mesh, averaged over random topologies.

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
    if let Some(r) = args.probe_rate {
        scenario.probe_rate = r;
    }
    let seeds = args.seeds(10);
    eprintln!(
        "fig2 (simulations): {} nodes, {} topologies, data {}..{}",
        scenario.nodes,
        seeds.len(),
        scenario.data_start,
        scenario.data_stop
    );
    let cell = WorkloadScenario::from_mesh("fig2", scenario);
    let t0 = std::time::Instant::now();
    let results = run_matrix(&comparison_variants(), &seeds, |v, s| {
        let m = cell.run_once(v, s);
        eprintln!(
            "  {} seed={} pdr={:.3} delay={:.1}ms overhead={:.2}% ({:.1}s elapsed)",
            m.variant,
            s,
            m.pdr(),
            m.mean_delay_s * 1e3,
            m.probe_overhead_pct,
            t0.elapsed().as_secs_f64()
        );
        m
    });
    let summaries = summarize(&results, Variant::Original);

    println!("== Figure 2, column \"Throughput-simulations\" ==");
    println!(
        "{}",
        report::throughput_table(&summaries, &paper::FIG2_THROUGHPUT_SIM)
    );
    println!(
        "{}",
        report::throughput_bars(&summaries, &paper::FIG2_THROUGHPUT_SIM)
    );
    println!("== Figure 2, column \"Delay\" ==");
    println!("{}", report::delay_table(&summaries));

    let fails = report::throughput_shape_failures(&summaries);
    if fails.is_empty() {
        println!("shape checks: all passed");
    } else {
        println!("shape checks FAILED:");
        for f in &fails {
            println!("  - {f}");
        }
        std::process::exit(1);
    }
}
