//! Compile-equivalence pins: the headline contract of the scenario
//! compiler. The decks in `scenarios/` are the only written form of the
//! scenarios this repository reproduces, so each one is pinned to golden
//! values instead of to a second copy:
//!
//! * every deck (and every fixture deck under `tests/fixtures/decks/`)
//!   compiles to a struct with a pinned [`WorkloadScenario::fingerprint`],
//!   an FNV fold over the struct's full `Debug` form, so an equal pin means
//!   an equal struct, field for field;
//! * because everything a scenario produces is a pure function of the
//!   struct plus `(variant, seed)`, shrunk replays of selected decks are
//!   pinned by `schedule_hash` (the FNV fold over every dequeued event),
//!   event count and deliveries.
//!
//! The pins were captured from the hand-built Rust constructors the decks
//! replaced, so they certify that the decks still mean exactly what those
//! constructors built. TESTING.md describes how to re-capture them after a
//! deliberate change.

use experiments::runner::paper_variants;
use experiments::scenario::MeshScenario;
use experiments::scenario_compiler::{
    compile, job_count, CompiledScenario, SweepSpec, WorkloadScenario,
};
use mcast_metrics::MetricKind;
use mesh_sim::time::{SimDuration, SimTime};
use odmrp::Variant;

/// `scenarios/<file>` → `compile(deck).scenario.fingerprint(Variant::Original, 1)`.
const DECK_PINS: &[(&str, u64)] = &[
    ("city-churn.toml", 0xe150_136c_4eb5_fce5),
    ("fig2-quick.toml", 0x707a_ddfe_6b1f_e649),
    ("fig2.toml", 0x520d_5b5a_a00c_bd7a),
    ("metro.toml", 0x8da1_0b85_29e3_efb5),
    ("mobile.toml", 0xd38a_e5f2_91e9_fbfe),
    ("table1-high-overhead.toml", 0xda73_694b_a3b4_f783),
];

/// `crates/experiments/tests/fixtures/decks/<file>`, same fingerprint.
const FIXTURE_PINS: &[(&str, u64)] = &[
    ("fault-windows.toml", 0xd3a2_2095_013b_e8b3),
    ("full-featured.toml", 0xfec4_eca4_f280_ad8d),
];

fn deck_dir() -> String {
    format!("{}/../../scenarios", env!("CARGO_MANIFEST_DIR"))
}

fn fixture_dir() -> String {
    format!("{}/tests/fixtures/decks", env!("CARGO_MANIFEST_DIR"))
}

fn load(dir: &str, file: &str) -> CompiledScenario {
    let path = format!("{dir}/{file}");
    let src = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    compile(&src).unwrap_or_else(|e| panic!("{file} failed to compile: {e}"))
}

fn fingerprint(c: &CompiledScenario) -> u64 {
    c.scenario.fingerprint(Variant::Original, 1)
}

#[test]
fn every_deck_compiles_to_its_pinned_fingerprint() {
    for (dir, pins) in [(deck_dir(), DECK_PINS), (fixture_dir(), FIXTURE_PINS)] {
        for &(file, pin) in pins {
            let got = fingerprint(&load(&dir, file));
            assert_eq!(
                got, pin,
                "{dir}/{file} compiled to {got:#018x}, pinned {pin:#018x}: the deck no longer \
                 means what it did (re-capture only for a deliberate change, see TESTING.md)"
            );
        }
    }
}

#[test]
fn every_deck_on_disk_has_a_pin() {
    for (dir, pins) in [(deck_dir(), DECK_PINS), (fixture_dir(), FIXTURE_PINS)] {
        let mut on_disk: Vec<String> = std::fs::read_dir(&dir)
            .unwrap_or_else(|e| panic!("read {dir}: {e}"))
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|n| n.ends_with(".toml"))
            .collect();
        on_disk.sort();
        let pinned: Vec<String> = pins.iter().map(|(f, _)| f.to_string()).collect();
        assert_eq!(
            on_disk, pinned,
            "{dir}: deck files and fingerprint pins must match one-to-one"
        );
    }
}

#[test]
fn sweep_specs_compile_exactly() {
    // The flagship deck carries the 100-run sweep: 2 group counts x 2 churn
    // rates x 5 variants x 5 seeds, capped at 120.
    let c = load(&deck_dir(), "city-churn.toml");
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
    assert_eq!(job_count(&c.sweep), 100);

    let c = load(&fixture_dir(), "fault-windows.toml");
    assert_eq!(
        c.sweep,
        SweepSpec {
            seeds: 3,
            base_seed: 11,
            retries: 2,
            variants: paper_variants(),
            limit: Some(40),
            axes: vec![("topology.spacing".to_string(), vec![150.0, 200.0])],
        }
    );
}

/// Run a compiled deck (shrunk by the caller, so tests stay fast) and
/// demand the pinned replay: `schedule_hash`, dispatched events and
/// deliveries.
fn assert_replays(
    file: &str,
    scenario: WorkloadScenario,
    (variant, seed): (Variant, u64),
    (hash, events, delivered): (u64, u64, u64),
) {
    let m = scenario.validated().run_once(variant, seed);
    assert!(m.sent > 0, "{file}: shrunk run sent no data");
    assert_eq!(
        (m.schedule_hash, m.counters.events, m.delivered),
        (hash, events, delivered),
        "{file} {variant:?} seed {seed}: replay drifted from its pin"
    );
}

#[test]
fn fig2_quick_replays_to_its_pins() {
    let mut w = load(&deck_dir(), "fig2-quick.toml").scenario;
    w.mesh.data_stop = SimTime::from_secs(45);
    assert_replays(
        "fig2-quick.toml",
        w.clone(),
        (Variant::Original, 1),
        (0xffe7_844e_d381_724a, 349_537, 4_701),
    );
    assert_replays(
        "fig2-quick.toml",
        w,
        (Variant::Metric(MetricKind::Spp), 2),
        (0xfeb8_8c7a_b726_a36a, 321_960, 4_352),
    );
}

#[test]
fn city_churn_replays_to_its_pins_with_churn_active() {
    // Shrink to a 15 s data window on a 60-node metro square; the churn
    // overlay stays active (two churners per group inside the window).
    let mut w = load(&deck_dir(), "city-churn.toml").scenario;
    w.mesh.nodes = 60;
    w.topology.rederive(&mut w.mesh).unwrap();
    w.mesh.groups = 3;
    w.mesh.data_stop = SimTime::from_secs(45);
    let churn = w.churn.as_mut().expect("city-churn has churn");
    churn.end = SimTime::from_secs(44);
    churn.dwell = SimDuration::from_secs(5);
    let layout = w.clone().validated().layout(3);
    assert!(
        layout.groups.iter().all(|g| g.churners.len() == 2),
        "shrunk city-churn must still attach 2 churners per group"
    );
    assert_replays(
        "city-churn.toml",
        w,
        (Variant::Metric(MetricKind::Ett), 3),
        (0x417b_94ad_a53c_470f, 523_580, 2_341),
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
