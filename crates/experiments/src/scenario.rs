//! Scenario construction: the paper's simulation and testbed setups.

use mcast_metrics::EstimatorConfig;
use mesh_sim::geometry::Area;
use mesh_sim::ids::{GroupId, NodeId};
use mesh_sim::mac::MacParams;
use mesh_sim::medium::{Medium, PhysicalMedium};
use mesh_sim::propagation::{FadingModel, PathLossModel, PhyParams};
use mesh_sim::rng::SimRng;
use mesh_sim::simulator::Simulator;
use mesh_sim::time::{SimDuration, SimTime};
use mesh_sim::topology;
use mesh_sim::world::WorldConfig;
use odmrp::{CbrSource, NodeRole, OdmrpConfig, OdmrpNode, Variant};
use testbed::TestbedMedium;

/// The 50-node random-mesh scenario of §4.1. Wrap it with
/// [`WorkloadScenario::from_mesh`](crate::WorkloadScenario::from_mesh) to
/// build and run ODMRP cells.
#[derive(Debug, Clone, PartialEq)]
pub struct MeshScenario {
    /// Number of nodes (paper: 50).
    pub nodes: usize,
    /// Square deployment area side in meters (paper: 1000).
    pub area_side: f64,
    /// Nominal radio range used for the connectivity check (paper: 250).
    pub range: f64,
    /// Number of multicast groups (paper: 2).
    pub groups: usize,
    /// Receiving members per group (paper: 10).
    pub members_per_group: usize,
    /// Sources per group (paper: 1; §4.3 uses more).
    pub sources_per_group: usize,
    /// CBR starts here (probing warms up before).
    pub data_start: SimTime,
    /// CBR stops here.
    pub data_stop: SimTime,
    /// Probe-rate factor (1.0 = paper default; 5.0 = "high overhead").
    pub probe_rate: f64,
    /// δ — member reply delay (paper: 30 ms).
    pub delta: SimDuration,
    /// α — duplicate-forwarding window (paper: 20 ms).
    pub alpha: SimDuration,
    /// Rayleigh fading on/off (paper: on).
    pub fading: bool,
    /// Use the spatially-indexed fan-out in [`PhysicalMedium`] (default: on).
    /// Results are bit-identical either way; this knob exists for equivalence
    /// tests and for benchmarking the index against the naive full scan.
    pub indexed_medium: bool,
    /// Enable degraded-mode resilience (staleness quarantine, refresh
    /// backoff, min-hop fallback) in the protocol configs. Default off, so
    /// baseline sweeps and their replay hashes are untouched.
    pub degraded: bool,
}

impl MeshScenario {
    /// The paper's configuration: 50 nodes, 1000 m², 2 groups × 10 members,
    /// single source per group, 20 pkt/s × 512 B for 360 s of a 400 s run.
    pub fn paper_default() -> Self {
        MeshScenario {
            nodes: 50,
            area_side: 1000.0,
            range: 250.0,
            groups: 2,
            members_per_group: 10,
            sources_per_group: 1,
            data_start: SimTime::from_secs(30),
            data_stop: SimTime::from_secs(390),
            probe_rate: 1.0,
            delta: SimDuration::from_millis(30),
            alpha: SimDuration::from_millis(20),
            fading: true,
            indexed_medium: true,
            degraded: false,
        }
    }

    /// A reduced configuration for CI/bench runs: fewer nodes, shorter run.
    pub fn quick() -> Self {
        MeshScenario {
            nodes: 30,
            area_side: 800.0,
            data_stop: SimTime::from_secs(150),
            ..MeshScenario::paper_default()
        }
    }

    /// A large-N scalability configuration: `nodes` nodes at the paper's
    /// node density (the area grows with `sqrt(nodes / 50)` so each node
    /// keeps the same expected neighborhood), with a shortened 60 s data
    /// window so runs at N=1000 stay tractable.
    pub fn scale(nodes: usize) -> Self {
        MeshScenario {
            nodes,
            area_side: 1000.0 * (nodes as f64 / 50.0).sqrt(),
            data_start: SimTime::from_secs(30),
            data_stop: SimTime::from_secs(90),
            ..MeshScenario::paper_default()
        }
    }

    /// When the whole run (including trailing delivery) ends.
    pub fn run_until(&self) -> SimTime {
        self.data_stop + SimDuration::from_secs(2)
    }

    /// Total data packets each source will originate.
    pub fn packets_per_source(&self) -> u64 {
        let span = self.data_stop.saturating_since(self.data_start);
        span.as_nanos() / SimDuration::from_millis(50).as_nanos()
    }

    /// Derive the node roles for topology `seed`: positions, sources and
    /// members are a pure function of the seed, so every variant runs on the
    /// identical layout.
    pub fn layout(&self, seed: u64) -> ScenarioLayout {
        self.layout_with_spare(seed).0
    }

    /// Like [`layout`](Self::layout), additionally returning the shuffled
    /// node ids that received no role — churn-enabled workloads (see
    /// `scenario_compiler`) draw their windowed receivers from these so the
    /// base layout stays bit-identical with churn off.
    pub fn layout_with_spare(&self, seed: u64) -> (ScenarioLayout, Vec<usize>) {
        let mut rng = SimRng::seed_from(seed ^ 0xC0FF_EE00);
        let positions = topology::random_connected(
            self.nodes,
            Area::square(self.area_side),
            self.range,
            &mut rng,
            10_000,
        );
        draw_layout(
            positions,
            &mut rng,
            self.groups,
            self.members_per_group,
            self.sources_per_group,
            self.data_start,
            self.data_stop,
        )
    }

    /// The paper's physical medium for this scenario (fading + two-ray
    /// ground, spatial indexing per `indexed_medium`).
    pub(crate) fn phy_medium(&self) -> Box<PhysicalMedium> {
        let phy = PhyParams {
            fading: if self.fading {
                FadingModel::Rayleigh
            } else {
                FadingModel::None
            },
            path_loss: PathLossModel::TwoRayGround,
            ..PhyParams::default()
        };
        Box::new(PhysicalMedium::new(phy).with_indexing(self.indexed_medium))
    }

    /// Build a simulator running the **tree-based** protocol (`maodv`) for
    /// `variant` on topology `seed` — the §4.3 comparison point.
    pub fn build_tree(&self, variant: Variant, seed: u64) -> Simulator<maodv::MaodvNode> {
        let layout = self.layout(seed);
        let medium = self.phy_medium();
        let cfg = maodv::MaodvConfig {
            variant,
            probe_rate: self.probe_rate,
            delta: self.delta,
            alpha: self.alpha,
            estimator: EstimatorConfig::default(),
            degraded: odmrp::DegradedModeConfig {
                enabled: self.degraded,
                ..odmrp::DegradedModeConfig::default()
            },
            ..maodv::MaodvConfig::default()
        };
        let nodes: Vec<maodv::MaodvNode> = layout
            .roles
            .into_iter()
            .map(|r| maodv::MaodvNode::new(cfg.clone(), r))
            .collect();
        Simulator::new(
            layout.positions,
            medium,
            WorldConfig {
                mac: MacParams::default(),
                seed,
            },
            nodes,
        )
    }

    /// The protocol configuration used for `variant`.
    pub fn odmrp_config(&self, variant: Variant) -> OdmrpConfig {
        OdmrpConfig {
            variant,
            probe_rate: self.probe_rate,
            delta: self.delta,
            alpha: self.alpha,
            estimator: EstimatorConfig::default(),
            degraded: odmrp::DegradedModeConfig {
                enabled: self.degraded,
                ..odmrp::DegradedModeConfig::default()
            },
            ..OdmrpConfig::default()
        }
    }
}

/// The testbed scenario of §5: Figure-4 floorplan, two groups.
#[derive(Debug, Clone)]
pub struct TestbedScenario {
    /// CBR start (probing warms up before).
    pub data_start: SimTime,
    /// CBR stop (paper: 400 s runs).
    pub data_stop: SimTime,
    /// Probe-rate factor.
    pub probe_rate: f64,
    /// δ.
    pub delta: SimDuration,
    /// α.
    pub alpha: SimDuration,
}

impl TestbedScenario {
    /// The paper's testbed runs: 400 s of CBR at 20 pkt/s × 512 B.
    pub fn paper_default() -> Self {
        TestbedScenario {
            data_start: SimTime::from_secs(30),
            data_stop: SimTime::from_secs(430),
            probe_rate: 1.0,
            delta: SimDuration::from_millis(30),
            alpha: SimDuration::from_millis(20),
        }
    }

    /// Shorter variant for CI/bench runs.
    pub fn quick() -> Self {
        TestbedScenario {
            data_stop: SimTime::from_secs(150),
            ..TestbedScenario::paper_default()
        }
    }

    /// End of the run.
    pub fn run_until(&self) -> SimTime {
        self.data_stop + SimDuration::from_secs(2)
    }

    /// Node roles per Figure 4 / §5.3.
    pub fn layout(&self) -> ScenarioLayout {
        let mut roles = vec![NodeRole::forwarder(); 8];
        let mut groups = Vec::new();
        for (g, (src, members)) in testbed::paper_groups().into_iter().enumerate() {
            let gid = GroupId(g as u32);
            let sid = testbed::id_of(src);
            roles[sid.index()].sources.push(CbrSource::paper_default(
                gid,
                self.data_start,
                self.data_stop,
            ));
            let mut mlist = Vec::new();
            for m in members {
                let mid = testbed::id_of(m);
                roles[mid.index()].member_of.push(gid);
                mlist.push(mid);
            }
            groups.push(GroupSpec {
                group: gid,
                sources: vec![sid],
                members: mlist,
                churners: Vec::new(),
            });
        }
        ScenarioLayout {
            positions: testbed::floorplan::positions(),
            roles,
            groups,
        }
    }

    /// Build a ready-to-run simulator for `variant`; `seed` drives the
    /// link-loss random walk (the paper repeats each run five times).
    pub fn build(&self, variant: Variant, seed: u64) -> Simulator<OdmrpNode> {
        let layout = self.layout();
        let mut medium_rng = SimRng::seed_from(seed ^ 0x7E57_BED0);
        let medium = Box::new(TestbedMedium::new(&mut medium_rng));
        let cfg = OdmrpConfig {
            variant,
            probe_rate: self.probe_rate,
            delta: self.delta,
            alpha: self.alpha,
            ..OdmrpConfig::default()
        };
        build_simulator(layout, medium, cfg, seed)
    }
}

/// A concrete layout: who sits where, who sources, who listens.
#[derive(Debug, Clone)]
pub struct ScenarioLayout {
    /// Node positions.
    pub positions: Vec<mesh_sim::geometry::Pos>,
    /// Per-node roles.
    pub roles: Vec<NodeRole>,
    /// Group membership summary for measurement.
    pub groups: Vec<GroupSpec>,
}

/// Sources and members of one group.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupSpec {
    /// Group id.
    pub group: GroupId,
    /// Source node(s).
    pub sources: Vec<NodeId>,
    /// Member (receiver) nodes (whole-run membership).
    pub members: Vec<NodeId>,
    /// Churning receivers: `(node, expected packets)` pairs where the
    /// expectation counts the source departures inside the node's
    /// membership window. Empty for non-churn scenarios, so measurement is
    /// unchanged there.
    pub churners: Vec<(NodeId, u64)>,
}

/// Draw sources and members for each group without replacement over a
/// Fisher-Yates shuffle of the node ids, continuing `rng`'s stream (the one
/// that placed the nodes). Returns the layout plus the shuffled ids that
/// received no role — one semantics for every topology family and for the
/// churn overlay, which consumes the spare ids.
///
/// # Panics
///
/// Panics if the groups need more distinct roles than there are nodes.
pub(crate) fn draw_layout(
    positions: Vec<mesh_sim::geometry::Pos>,
    rng: &mut SimRng,
    n_groups: usize,
    members_per_group: usize,
    sources_per_group: usize,
    data_start: SimTime,
    data_stop: SimTime,
) -> (ScenarioLayout, Vec<usize>) {
    let nodes = positions.len();
    let needed = n_groups * (members_per_group + sources_per_group);
    assert!(
        needed <= nodes,
        "scenario needs {needed} distinct roles but has {nodes} nodes"
    );
    let mut ids: Vec<usize> = (0..nodes).collect();
    // Fisher-Yates shuffle driven by the scenario RNG.
    for i in (1..ids.len()).rev() {
        let j = rng.uniform_u32(i as u32 + 1) as usize;
        ids.swap(i, j);
    }
    let mut roles = vec![NodeRole::forwarder(); nodes];
    let mut take = ids.into_iter();
    let mut groups = Vec::new();
    for g in 0..n_groups {
        let gid = GroupId(g as u32);
        let mut sources = Vec::new();
        let mut members = Vec::new();
        for _ in 0..sources_per_group {
            let id = take.next().expect("enough nodes");
            roles[id]
                .sources
                .push(CbrSource::paper_default(gid, data_start, data_stop));
            sources.push(NodeId::new(id as u32));
        }
        for _ in 0..members_per_group {
            let id = take.next().expect("enough nodes");
            roles[id].member_of.push(gid);
            members.push(NodeId::new(id as u32));
        }
        groups.push(GroupSpec {
            group: gid,
            sources,
            members,
            churners: Vec::new(),
        });
    }
    let spare: Vec<usize> = take.collect();
    (
        ScenarioLayout {
            positions,
            roles,
            groups,
        },
        spare,
    )
}

pub(crate) fn build_simulator(
    layout: ScenarioLayout,
    medium: Box<dyn Medium>,
    cfg: OdmrpConfig,
    seed: u64,
) -> Simulator<OdmrpNode> {
    let nodes: Vec<OdmrpNode> = layout
        .roles
        .into_iter()
        .map(|r| OdmrpNode::new(cfg.clone(), r))
        .collect();
    Simulator::new(
        layout.positions,
        medium,
        WorldConfig {
            mac: MacParams::default(),
            seed,
        },
        nodes,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_section_4_1() {
        let s = MeshScenario::paper_default();
        assert_eq!(s.nodes, 50);
        assert_eq!(s.area_side, 1000.0);
        assert_eq!(s.groups, 2);
        assert_eq!(s.members_per_group, 10);
        assert_eq!(s.sources_per_group, 1);
        assert_eq!(s.packets_per_source(), 7200); // 360s at 20 pkt/s
    }

    #[test]
    fn layout_is_deterministic_and_disjoint() {
        let s = MeshScenario::quick();
        let a = s.layout(3);
        let b = s.layout(3);
        assert_eq!(a.positions, b.positions);
        assert_eq!(a.groups, b.groups);
        // Sources and members are all distinct nodes.
        let mut seen = std::collections::HashSet::new();
        for g in &a.groups {
            for n in g.sources.iter().chain(g.members.iter()) {
                assert!(seen.insert(*n), "node {n} has two roles");
            }
        }
    }

    #[test]
    fn different_seeds_different_topologies() {
        let s = MeshScenario::quick();
        assert_ne!(s.layout(1).positions, s.layout(2).positions);
    }

    #[test]
    fn testbed_layout_matches_paper() {
        let t = TestbedScenario::paper_default();
        let l = t.layout();
        assert_eq!(l.positions.len(), 8);
        assert_eq!(l.groups.len(), 2);
        assert_eq!(l.groups[0].sources, vec![testbed::id_of(2)]);
        assert_eq!(
            l.groups[0].members,
            vec![testbed::id_of(3), testbed::id_of(5)]
        );
        assert_eq!(l.groups[1].sources, vec![testbed::id_of(4)]);
    }

    #[test]
    fn builds_simulators_for_all_variants() {
        let s = MeshScenario::quick();
        for v in [
            Variant::Original,
            Variant::Metric(mcast_metrics::MetricKind::Spp),
        ] {
            let sim = crate::WorkloadScenario::from_mesh("quick", s.clone()).build(v, 1);
            assert_eq!(sim.protocols().len(), s.nodes);
        }
    }
}
