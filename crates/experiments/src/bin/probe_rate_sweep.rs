//! §4.2.2's probing-rate sensitivity: throughput gains at 0.1×, 1× and 5×
//! the default probing rate. The paper reports ≈+3 % gain at the low rate
//! and ≈−2 % at the high rate, with PP/ETT the most sensitive.

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
    let rates = [0.1, 1.0, 5.0];
    eprintln!(
        "probe-rate sweep: rates {rates:?}, {} topologies each",
        seeds.len()
    );

    let mut per_rate = Vec::new();
    for &rate in &rates {
        let mut scenario = if args.quick {
            MeshScenario::quick()
        } else {
            MeshScenario::paper_default()
        };
        scenario.probe_rate = rate;
        let cell = WorkloadScenario::from_mesh("probe-rate-sweep", scenario);
        let results = run_matrix(&paper_variants(), &seeds, |v, s| cell.run_once(v, s));
        per_rate.push(summarize(&results, Variant::Original));
        eprintln!("  rate x{rate} done");
    }

    println!("== probing-rate sensitivity (normalized throughput vs ODMRP) ==");
    let mut rows = Vec::new();
    for kind in MetricKind::PAPER_SET {
        let mut row = vec![kind.name().to_string()];
        for summ in &per_rate {
            let v = summ
                .iter()
                .find(|s| s.variant == Variant::Metric(kind))
                .map(|s| s.normalized_throughput.mean)
                .unwrap_or(f64::NAN);
            row.push(format!("{v:.3}"));
        }
        rows.push(row);
    }
    println!(
        "{}",
        render_table(&["metric", "x0.1 (low)", "x1 (paper)", "x5 (high)"], &rows)
    );
    println!("paper: low rate ≈ +3% over default; high rate ≈ -2%; PP/ETT most sensitive.");
}
