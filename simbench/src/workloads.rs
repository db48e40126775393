//! The three benchmark cells and how a simulator is assembled for them.

use std::rc::Rc;
use std::time::Instant;

use experiments::scenario_compiler::workload::{FaultSpec, MobilitySpec};
use experiments::{GroupSpec, MeshScenario, WorkloadScenario};
use mcast_metrics::MetricKind;
use mesh_sim::geometry::Area;
use mesh_sim::mac::MacParams;
use mesh_sim::medium::{Medium, PhysicalMedium};
use mesh_sim::mobility::RandomWaypoint;
use mesh_sim::propagation::{FadingModel, PathLossModel, PhyParams};
use mesh_sim::protocol::Protocol;
use mesh_sim::simulator::Simulator;
use mesh_sim::time::{SimDuration, SimTime};
use mesh_sim::world::WorldConfig;
use odmrp::{OdmrpNode, Variant};

use crate::timed::{now, Tally, TimedMedium, TimedNode};

/// The topology (node placement, group roles, fault plan) every run of a
/// workload uses: the default seed's. `--seed` drives the world's random
/// stream (fading, MAC backoff, mobility) on top of it, so the work in a
/// cell stays comparable across seeds.
pub const TOPOLOGY_SEED: u64 = 1;

/// The seed whose results are pinned in [`Workload::pin`].
pub const DEFAULT_SEED: u64 = 1;

/// Values pinned at [`DEFAULT_SEED`] from `WorkloadScenario::run_once`.
#[derive(Debug, Clone, Copy)]
pub struct Pin {
    /// `Simulator::schedule_hash` at the horizon.
    pub schedule_hash: u64,
    /// Data packets delivered to member applications.
    pub delivered: u64,
    /// `Counters::events` at the horizon.
    pub events: u64,
}

/// One benchmark workload: a cell plus how often a pass repeats it.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// The scenario the cell runs.
    pub scenario: WorkloadScenario,
    /// The routing variant.
    pub variant: Variant,
    /// Distinct world seeds in one pass. Where the work of a cell swings
    /// with its world seed (mobility; marginal SPP routes at N = 500), a
    /// pass runs several cells and reports their mean.
    pub cells_per_pass: usize,
    /// Results of the first cell at [`DEFAULT_SEED`].
    pub pin: Pin,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub fn all() -> Vec<Workload> {
        let spp = Variant::Metric(MetricKind::Spp);
        let mut mobile =
            WorkloadScenario::from_mesh("mobile-n200-odmrp-faults", MeshScenario::scale(200));
        mobile.mobility = Some(MobilitySpec {
            min_speed: 5.0,
            max_speed: 15.0,
            pause: SimDuration::ZERO,
        });
        mobile.faults = FaultSpec::Random { intensity: 0.3 };
        vec![
            Workload {
                name: "paper-n50-spp",
                scenario: WorkloadScenario::from_mesh(
                    "paper-n50-spp",
                    MeshScenario::paper_default(),
                ),
                variant: spp,
                cells_per_pass: 1,
                pin: Pin {
                    schedule_hash: 0x63ff_a52f_3efb_d535,
                    delivered: 99_682,
                    events: 15_730_657,
                },
            },
            Workload {
                name: "scale-n500-spp",
                scenario: WorkloadScenario::from_mesh("scale-n500-spp", MeshScenario::scale(500)),
                variant: spp,
                cells_per_pass: 8,
                pin: Pin {
                    schedule_hash: 0x66be_f98b_d97c_8324,
                    delivered: 4_954,
                    events: 8_730_499,
                },
            },
            Workload {
                name: "mobile-n200-odmrp-faults",
                scenario: mobile.validated(),
                variant: Variant::Original,
                cells_per_pass: 32,
                pin: Pin {
                    schedule_hash: 0x7ee1_e575_2f9d_130d,
                    delivered: 7_967,
                    events: 3_513_136,
                },
            },
        ]
    }

    /// The workload called `name`.
    pub fn by_name(name: &str) -> Option<Workload> {
        Workload::all().into_iter().find(|w| w.name == name)
    }

    /// End of the cell.
    pub fn horizon(&self) -> SimTime {
        self.scenario.run_until()
    }

    /// Simulated width of one timed slice of `run_until`: one JOIN QUERY
    /// refresh round, so every data-window slice holds the same share of
    /// flood, data and probe work.
    pub fn slice(&self) -> SimDuration {
        self.scenario
            .mesh
            .odmrp_config(self.variant)
            .refresh_interval
    }

    /// The window whose slices feed `slice_ms`.
    pub fn data_window(&self) -> (SimTime, SimTime) {
        (self.scenario.mesh.data_start, self.scenario.mesh.data_stop)
    }

    /// World seed of cell `k` of a pass for run seed `seed`.
    pub fn cell_seed(&self, seed: u64, k: usize) -> u64 {
        seed.wrapping_add(10_007 * k as u64)
    }

    /// Snapshot-header fingerprint of one cell.
    pub fn fingerprint(&self, topology_seed: u64, world_seed: u64) -> u64 {
        self.scenario.fingerprint(self.variant, world_seed) ^ topology_seed.rotate_left(32)
    }
}

/// Host time spent assembling one simulator.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTime {
    /// `WorkloadScenario::layout`: placement and roles.
    pub layout_s: f64,
    /// Everything after the layout: nodes, medium, world, mobility, faults.
    pub build_s: f64,
}

impl SetupTime {
    /// Layout plus build.
    pub fn total_s(&self) -> f64 {
        self.layout_s + self.build_s
    }
}

/// A simulator ready to run, with what measurement needs.
pub struct Assembled<P: Protocol> {
    /// The simulator at `t = 0`.
    pub sim: Simulator<P>,
    /// Group membership, for `RunMeasurement::from_sim`.
    pub groups: Vec<GroupSpec>,
    /// How long assembly took.
    pub setup: SetupTime,
}

/// Assemble the workload's simulator from the public parts of the
/// production path (`WorkloadScenario::build`): the scenario layout, its
/// ODMRP config, the scenario's Rayleigh/two-ray PHY with its indexing
/// setting, random-waypoint mobility and the fault plan. Unlike the
/// production path it takes the topology and world seeds apart, and it
/// lets the caller wrap the medium and each node.
pub fn assemble<P: Protocol>(
    w: &Workload,
    topology_seed: u64,
    world_seed: u64,
    wrap_medium: impl FnOnce(PhysicalMedium) -> Box<dyn Medium>,
    wrap_node: impl Fn(OdmrpNode) -> P,
) -> Assembled<P> {
    let sc = &w.scenario;
    let t0 = now();
    let layout = sc.layout(topology_seed);
    let t1 = now();
    let cfg = sc.mesh.odmrp_config(w.variant);
    let groups = layout.groups;
    let nodes: Vec<P> = layout
        .roles
        .into_iter()
        .map(|role| wrap_node(OdmrpNode::new(cfg.clone(), role)))
        .collect();
    let phy = PhyParams {
        fading: if sc.mesh.fading {
            FadingModel::Rayleigh
        } else {
            FadingModel::None
        },
        path_loss: PathLossModel::TwoRayGround,
        ..PhyParams::default()
    };
    let medium = wrap_medium(PhysicalMedium::new(phy).with_indexing(sc.mesh.indexed_medium));
    let world = WorldConfig {
        mac: MacParams::default(),
        seed: world_seed,
    };
    let mut sim = Simulator::new(layout.positions, medium, world, nodes);
    if let Some(m) = &sc.mobility {
        sim.set_mobility(Box::new(RandomWaypoint::new(
            Area::square(sc.mesh.area_side),
            m.min_speed,
            m.max_speed,
            m.pause,
        )));
    }
    if let Some(plan) = sc.fault_plan(topology_seed) {
        sim.set_fault_plan(plan);
    }
    let t2 = now();
    Assembled {
        sim,
        groups,
        setup: SetupTime {
            layout_s: secs(t0, t1),
            build_s: secs(t1, t2),
        },
    }
}

/// The plain simulator: production types, no wrappers.
pub fn assemble_plain(w: &Workload, topology_seed: u64, world_seed: u64) -> Assembled<OdmrpNode> {
    assemble(w, topology_seed, world_seed, |m| Box::new(m), |n| n)
}

/// The traced simulator: medium and nodes wrapped, reporting into `tally`.
pub fn assemble_timed(
    w: &Workload,
    topology_seed: u64,
    world_seed: u64,
    tally: &Rc<Tally>,
) -> Assembled<TimedNode> {
    assemble(
        w,
        topology_seed,
        world_seed,
        |m| Box::new(TimedMedium::new(m, Rc::clone(tally))),
        |n| TimedNode::new(n, Rc::clone(tally)),
    )
}

/// Seconds between two instants.
pub fn secs(from: Instant, to: Instant) -> f64 {
    to.duration_since(from).as_secs_f64()
}
