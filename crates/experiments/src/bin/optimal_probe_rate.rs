//! Future-work study (§6): "we plan to investigate more about the optimal
//! probing rate."
//!
//! Sweeps the probe-rate factor across two orders of magnitude for a cheap
//! (SPP) and an expensive (PP) metric, exposing the paper's hypothesized
//! trade-off: too slow ⇒ stale link estimates, too fast ⇒ probes interfere
//! with data. Prints the sweet spot per metric.

use experiments::cli::CliArgs;
use experiments::runner::{run_matrix, summarize};
use experiments::scenario::MeshScenario;
use experiments::stats::render_table;
use experiments::WorkloadScenario;
use mcast_metrics::MetricKind;
use odmrp::Variant;

fn main() {
    let args = CliArgs::from_env();
    let seeds = args.seeds(5);
    let rates = [0.05, 0.2, 1.0, 3.0, 10.0];
    let metrics = [MetricKind::Spp, MetricKind::Pp];

    println!("== future work: probing-rate optimization ==");
    println!("(normalized throughput vs ODMRP at each probe-rate factor)\n");
    let mut rows = Vec::new();
    let mut best: Vec<(MetricKind, f64, f64)> = Vec::new();
    for kind in metrics {
        let mut row = vec![kind.name().to_string()];
        let mut best_rate = (1.0, f64::MIN);
        for &rate in &rates {
            let mut scenario = if args.quick {
                MeshScenario::quick()
            } else {
                MeshScenario::paper_default()
            };
            scenario.probe_rate = rate;
            let cell = WorkloadScenario::from_mesh("optimal-probe-rate", scenario);
            let results = run_matrix(
                &[Variant::Original, Variant::Metric(kind)],
                &seeds,
                |v, s| cell.run_once(v, s),
            );
            let summ = summarize(&results, Variant::Original);
            let tp = summ
                .iter()
                .find(|s| s.variant == Variant::Metric(kind))
                .map(|s| s.normalized_throughput.mean)
                .unwrap_or(f64::NAN);
            row.push(format!("{tp:.3}"));
            if tp > best_rate.1 {
                best_rate = (rate, tp);
            }
            eprintln!("  {kind} @ x{rate} -> {tp:.3}");
        }
        best.push((kind, best_rate.0, best_rate.1));
        rows.push(row);
    }
    let headers: Vec<String> = std::iter::once("metric".to_string())
        .chain(rates.iter().map(|r| format!("x{r}")))
        .collect();
    let hdr_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    println!("{}", render_table(&hdr_refs, &rows));
    for (kind, rate, tp) in best {
        println!("{kind}: best observed rate factor x{rate} (normalized throughput {tp:.3})");
    }
    println!(
        "\nExpected shape: an interior optimum — gains fall at both extremes, and \
         the pair-probing metric (PP) suffers more at high rates than SPP."
    );
}
