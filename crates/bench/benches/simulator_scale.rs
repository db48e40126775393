//! Scalability benchmark: how the simulator behaves as the network grows,
//! with the spatially-indexed medium fan-out on vs off.
//!
//! `sim_scale/*` runs a short slice of a full ODMRP run on the large-N
//! `MeshScenario::scale` configurations, so MAC/event-queue costs are
//! included and the medium speedup is seen in context. The raw fan-out
//! numbers (naive vs indexed vs incremental) are `bench_fanout`'s, recorded
//! in `results/BENCH_fanout.json`.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use experiments::scenario::MeshScenario;
use experiments::WorkloadScenario;
use mesh_sim::time::SimTime;
use odmrp::Variant;

fn bench_sim_scale(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim_scale");
    group.sample_size(2);
    for &nodes in &[50usize, 200] {
        let mut scenario = MeshScenario::scale(nodes);
        // A thin slice: probing is active from t=0, so five sim-seconds
        // already exercise the medium heavily without CBR data.
        scenario.data_start = SimTime::from_secs(4);
        scenario.data_stop = SimTime::from_secs(5);
        for indexed in [false, true] {
            scenario.indexed_medium = indexed;
            let id = BenchmarkId::new(
                format!("n{nodes}"),
                if indexed { "indexed" } else { "naive" },
            );
            let s = WorkloadScenario::from_mesh("sim-scale", scenario.clone());
            group.bench_function(id, move |b| {
                b.iter(|| black_box(s.run_once(Variant::Original, 1).delivered))
            });
        }
    }
    group.finish();
}

fn tuned() -> Criterion {
    Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(2))
        .sample_size(10)
}

criterion_group! {
    name = benches;
    config = tuned();
    targets =
    bench_sim_scale
}
criterion_main!(benches);
