//! Differential compile-equivalence: the headline contract of the scenario
//! compiler. Every TOML twin in `scenarios/` must compile to a struct
//! **equal** to its hand-built Rust constructor — and, because everything a
//! [`WorkloadScenario`] produces is a pure function of the struct plus
//! `(variant, seed)`, the compiled scenario must *run* bit-identically:
//! same `schedule_hash` (the FNV fold over every dequeued event), same
//! counters, same delivery numbers.
//!
//! A proptest then closes the loop from the other side: randomized
//! scenarios round-trip through `to_toml` → `parse` → `compile` unchanged.

use experiments::scenario::MeshScenario;
use experiments::scenario_compiler::{
    compile, to_toml, ChurnSpec, CompiledScenario, FaultSpec, FaultWindow, MobilitySpec, SweepSpec,
    TrafficMix, WorkloadScenario,
};
use mesh_sim::time::{SimDuration, SimTime};
use odmrp::Variant;
use proptest::prelude::*;

/// Compile one of the checked-in scenario files.
fn twin(file: &str) -> CompiledScenario {
    let path = format!("{}/../../scenarios/{file}", env!("CARGO_MANIFEST_DIR"));
    let src = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    compile(&src).unwrap_or_else(|e| panic!("{file} failed to compile: {e}"))
}

/// Assert a TOML twin equals its constructor, field for field.
fn assert_twin(file: &str, built: WorkloadScenario) -> CompiledScenario {
    let c = twin(file);
    assert_eq!(
        c.scenario, built,
        "{file} compiled to a different scenario than its Rust constructor"
    );
    c
}

#[test]
fn every_toml_twin_compiles_to_its_constructor_struct() {
    assert_twin("fig2.toml", WorkloadScenario::fig2());
    assert_twin("fig2-quick.toml", WorkloadScenario::fig2_quick());
    assert_twin(
        "table1-high-overhead.toml",
        WorkloadScenario::table1_high_overhead(),
    );
    assert_twin("metro.toml", WorkloadScenario::metro_default());
    assert_twin("mobile.toml", WorkloadScenario::mobile());
    let c = assert_twin("city-churn.toml", WorkloadScenario::city_churn());
    // The flagship file also carries the 100-run sweep: 2 group counts x
    // 2 churn rates x 5 variants x 5 seeds, capped at 120.
    assert_eq!(c.sweep.seeds, 5);
    assert_eq!(c.sweep.limit, Some(120));
    assert_eq!(c.sweep.variants.len(), 5);
    assert_eq!(
        c.sweep.axes,
        vec![
            ("groups.count".to_string(), vec![6.0, 12.0]),
            ("churn.per_group".to_string(), vec![2.0, 4.0]),
        ]
    );
    assert_eq!(experiments::scenario_compiler::job_count(&c.sweep), 100);
}

/// Run the compiled and the hand-built scenario (after the same shrink, so
/// tests stay fast) and demand identical replay fingerprints.
fn assert_runs_bit_identical(
    file: &str,
    built: WorkloadScenario,
    shrink: impl Fn(&mut WorkloadScenario),
    variant: Variant,
    seed: u64,
) {
    let mut compiled = twin(file).scenario;
    let mut built = built;
    shrink(&mut compiled);
    shrink(&mut built);
    assert_eq!(compiled, built, "{file}: shrink must preserve equality");
    let a = compiled.validated().run_once(variant, seed);
    let b = built.validated().run_once(variant, seed);
    assert_eq!(
        a.schedule_hash, b.schedule_hash,
        "{file}: compiled TOML and Rust constructor diverged in replay"
    );
    assert_eq!(a.counters, b.counters, "{file}: counters diverged");
    assert_eq!(
        (a.sent, a.expected, a.delivered),
        (b.sent, b.expected, b.delivered)
    );
    assert!(a.sent > 0, "{file}: shrunk run sent no data");
}

#[test]
fn fig2_quick_twin_replays_bit_identically() {
    let shrink = |w: &mut WorkloadScenario| {
        w.mesh.data_stop = SimTime::from_secs(45);
    };
    assert_runs_bit_identical(
        "fig2-quick.toml",
        WorkloadScenario::fig2_quick(),
        shrink,
        Variant::Original,
        1,
    );
    assert_runs_bit_identical(
        "fig2-quick.toml",
        WorkloadScenario::fig2_quick(),
        shrink,
        Variant::Metric(mcast_metrics::MetricKind::Spp),
        2,
    );
}

#[test]
fn city_churn_twin_replays_bit_identically_with_churn_active() {
    // Shrink to a 15 s data window on a 60-node metro square; the churn
    // overlay stays active (two churners per group inside the window).
    let shrink = |w: &mut WorkloadScenario| {
        w.mesh.nodes = 60;
        w.mesh.area_side = experiments::scenario_compiler::metro_side(60, 450.0);
        w.mesh.groups = 3;
        w.mesh.data_stop = SimTime::from_secs(45);
        let churn = w.churn.as_mut().expect("city-churn has churn");
        churn.end = SimTime::from_secs(44);
        churn.dwell = SimDuration::from_secs(5);
    };
    let built = WorkloadScenario::city_churn();
    let mut check = built.clone();
    shrink(&mut check);
    let layout = check.clone().validated().layout(3);
    assert!(
        layout.groups.iter().all(|g| g.churners.len() == 2),
        "shrunk city-churn must still attach 2 churners per group"
    );
    assert_runs_bit_identical(
        "city-churn.toml",
        built,
        shrink,
        Variant::Metric(mcast_metrics::MetricKind::Ett),
        3,
    );
}

#[test]
fn wrapped_mesh_replays_bit_identically_to_the_plain_scenario() {
    // The wrapper is the only way to run a plain MeshScenario, so it is
    // pinned to the event stream the plain-mesh runner produced before
    // the two paths were merged: same `schedule_hash`, event count and
    // deliveries, cell for cell.
    let mesh = MeshScenario {
        nodes: 14,
        area_side: 500.0,
        groups: 1,
        members_per_group: 3,
        data_start: SimTime::from_secs(10),
        data_stop: SimTime::from_secs(40),
        ..MeshScenario::paper_default()
    };
    for (variant, seed, hash, events, delivered) in [
        (Variant::Original, 7, 0x2044_5d0f_d7e0_be37, 35_786, 1_479),
        (
            Variant::Metric(mcast_metrics::MetricKind::Etx),
            8,
            0xac11_09f3_ee7d_fa84,
            132_462,
            1_617,
        ),
    ] {
        let wrapped = WorkloadScenario::from_mesh("wrap", mesh.clone())
            .validated()
            .run_once(variant, seed);
        assert_eq!(wrapped.schedule_hash, hash, "{variant:?} seed {seed}");
        assert_eq!(wrapped.counters.events, events, "{variant:?} seed {seed}");
        assert_eq!(wrapped.delivered, delivered, "{variant:?} seed {seed}");
    }
}

/// Build a canonical scenario from sampled knobs. Bounds are chosen so
/// every combination passes `validate()` (roles never exceed nodes).
#[allow(clippy::too_many_arguments)]
fn sampled_scenario(
    family: usize,
    nodes: usize,
    groups: usize,
    members: usize,
    probe_rate: f64,
    bursty: bool,
    churn_per_group: usize,
    mobility: bool,
    faults: usize,
) -> WorkloadScenario {
    let base = MeshScenario {
        groups,
        members_per_group: members,
        sources_per_group: 1,
        data_start: SimTime::from_secs(20),
        data_stop: SimTime::from_secs(80),
        probe_rate,
        ..MeshScenario::paper_default()
    };
    let mut w = match family {
        0 => WorkloadScenario::from_mesh(
            "prop",
            MeshScenario {
                nodes,
                area_side: 900.0,
                ..base
            },
        ),
        1 => WorkloadScenario::grid("prop", 6, 6, 150.0, base),
        _ => WorkloadScenario::metro("prop", nodes, 800.0, base),
    };
    if bursty {
        w.traffic = TrafficMix::Bursty {
            on: SimDuration::from_secs(3),
            off: SimDuration::from_millis(1500),
        };
    }
    if churn_per_group > 0 {
        w.churn = Some(ChurnSpec {
            per_group: churn_per_group,
            start: SimTime::from_secs(25),
            end: SimTime::from_secs(75),
            dwell: SimDuration::from_secs(10),
            stagger: SimDuration::from_secs(2),
            flash: false,
            explicit: Vec::new(),
        });
    }
    if mobility {
        w.mobility = Some(MobilitySpec {
            min_speed: 0.5,
            max_speed: 2.5,
            pause: SimDuration::from_secs(1),
        });
    }
    w.faults = match faults {
        0 => FaultSpec::None,
        1 => FaultSpec::Random { intensity: 0.4 },
        _ => FaultSpec::Windows(vec![FaultWindow::Crash {
            node: 1,
            from: SimTime::from_secs(40),
            to: SimTime::from_secs(60),
        }]),
    };
    w.validated()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Round-trip: serialize → parse → compile reproduces the exact struct,
    /// sweep spec included.
    #[test]
    fn random_scenarios_round_trip_through_toml(
        family in 0usize..3,
        nodes in 36usize..60,
        groups in 1usize..4,
        members in 1usize..5,
        probe_rate in 1u32..5,
        bursty in 0usize..2,
        churn_per_group in 0usize..3,
        mobility in 0usize..2,
        faults in 0usize..3,
        seeds in 1u64..6,
        base_seed in 1u64..100,
    ) {
        let w = sampled_scenario(
            family, nodes, groups, members, f64::from(probe_rate), bursty == 1,
            churn_per_group, mobility == 1, faults,
        );
        let spec = SweepSpec {
            seeds,
            base_seed,
            retries: 1,
            variants: vec![Variant::Original, Variant::Metric(mcast_metrics::MetricKind::Ett)],
            limit: Some(64),
            axes: vec![("protocol.probe_rate".to_string(), vec![1.0, 2.0])],
        };
        let src = to_toml(&w, Some(&spec));
        let back = compile(&src)
            .unwrap_or_else(|e| panic!("canonical TOML failed to compile: {e}\n{src}"));
        prop_assert_eq!(&back.scenario, &w, "scenario drifted:\n{}", src);
        prop_assert_eq!(&back.sweep, &spec, "sweep spec drifted:\n{}", src);
        // Idempotence: serializing the compiled struct reproduces the text.
        let again = to_toml(&back.scenario, Some(&back.sweep));
        prop_assert_eq!(src, again, "serialization is not a fixed point");
    }
}
