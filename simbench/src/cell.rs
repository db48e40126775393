//! Running one cell in fixed simulated slices, with checkpoints, and
//! resuming it from its half-horizon checkpoint.

use std::rc::Rc;
use std::time::Instant;

use experiments::RunMeasurement;
use mesh_sim::protocol::Protocol;
use mesh_sim::snapshot::{Snap, SnapshotState};
use mesh_sim::time::{SimDuration, SimTime};
use odmrp::MulticastApp;

use crate::timed::{now, Agg, Span, Tally};
use crate::workloads::{secs, Assembled, SetupTime, Workload};

/// Simulated spacing of the frames-in-flight samples in traced runs.
const FLIGHT_SAMPLE: SimDuration = SimDuration::from_millis(10);

/// The results a cell is checked on: equal inputs must give equal values.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// `Simulator::schedule_hash` at the horizon.
    pub schedule_hash: u64,
    /// Data packets delivered to member applications.
    pub delivered: u64,
    /// Packet delivery ratio, for the record.
    pub pdr: f64,
    /// Every world counter at the horizon.
    pub counters: mesh_sim::counters::Counters,
}

impl Outcome {
    fn of(m: &RunMeasurement) -> Outcome {
        Outcome {
            schedule_hash: m.schedule_hash,
            delivered: m.delivered,
            pdr: m.pdr(),
            counters: m.counters.clone(),
        }
    }

    /// Why `self` (the run under test) differs from `reference`, if it does.
    pub fn diff(&self, reference: &Outcome) -> Option<String> {
        if self.schedule_hash != reference.schedule_hash {
            Some(format!(
                "schedule_hash {:016x} != {:016x}",
                self.schedule_hash, reference.schedule_hash
            ))
        } else if self.delivered != reference.delivered {
            Some(format!(
                "delivered {} != {}",
                self.delivered, reference.delivered
            ))
        } else if self.counters != reference.counters {
            Some("world counters differ".to_string())
        } else {
            None
        }
    }
}

/// One slice of `run_until`, with each child layer aggregated inside it.
#[derive(Debug, Clone)]
pub struct SliceSpan {
    /// Simulated start and end of the slice, nanoseconds.
    pub sim_ns: (u64, u64),
    /// Host start and end, nanoseconds since the cell started running.
    pub wall_ns: (u64, u64),
    /// Per child span kind ([`Span::ALL`] order): calls and time inside
    /// this slice.
    pub children: [Agg; Span::ALL.len()],
}

impl SliceSpan {
    /// The world's self time in this slice: the slice minus its children.
    pub fn self_ns(&self) -> u64 {
        let child: u64 = self.children.iter().map(|a| a.ns).sum();
        (self.wall_ns.1 - self.wall_ns.0).saturating_sub(child)
    }
}

/// One checkpoint taken between slices.
#[derive(Debug, Clone)]
pub struct SnapSpan {
    /// Simulated time of the checkpoint, nanoseconds.
    pub sim_ns: u64,
    /// Host start and end of `Simulator::snapshot`, nanoseconds since the
    /// cell started running.
    pub wall_ns: (u64, u64),
    /// Checkpoint size.
    pub bytes: usize,
}

/// Everything measured on one cell run from `t = 0` to the horizon.
#[derive(Debug, Clone)]
pub struct CellRun {
    /// World seed of the cell.
    pub world_seed: u64,
    /// Assembly time.
    pub setup: SetupTime,
    /// Host seconds from `t = 0` to the horizon, checkpoints included.
    pub cell_s: f64,
    /// Host milliseconds of each slice inside the data window.
    pub window_slice_ms: Vec<f64>,
    /// The checked results.
    pub outcome: Outcome,
    /// Most frames on the medium at any sample point (traced runs only).
    pub frames_in_flight_peak: usize,
    /// Spatial-index statistics at the horizon.
    pub index: Option<mesh_sim::medium::IndexStats>,
    /// The checkpoints taken, in time order.
    pub snaps: Vec<SnapSpan>,
    /// The checkpoint taken at half the horizon.
    pub half: Vec<u8>,
    /// Per-slice spans (traced runs only; empty otherwise).
    pub spans: Vec<SliceSpan>,
}

fn ns(from: Instant, to: Instant) -> u64 {
    to.duration_since(from).as_nanos() as u64
}

/// Run `asm` to the workload's horizon in slices of [`Workload::slice`],
/// taking a checkpoint at the first slice end at or after each quarter of
/// the horizon (the cadence `sweep` uses).
/// With `tally`, per-slice child spans are recorded from it.
pub fn run_cell<P>(
    w: &Workload,
    world_seed: u64,
    fingerprint: u64,
    asm: Assembled<P>,
    tally: Option<&Rc<Tally>>,
) -> CellRun
where
    P: Protocol + SnapshotState + MulticastApp,
    P::Msg: Snap,
{
    let Assembled {
        mut sim,
        groups,
        setup,
    } = asm;
    let horizon = w.horizon().as_nanos();
    let quarter = horizon / 4;
    let slice = w.slice().as_nanos();
    let mut checkpoint_due = quarter;
    let (win_lo, win_hi) = w.data_window();
    let mut window_slice_ms = Vec::new();
    let mut frames_in_flight_peak = 0;
    let mut snaps = Vec::new();
    let mut half = Vec::new();
    let mut spans = Vec::new();
    let mut last = tally.map(|t| t.totals());
    let start = now();
    let mut t = 0u64;
    while t < horizon {
        let next = (t + slice).min(horizon);
        let s0 = now();
        if tally.is_some() {
            // Traced runs also sample the frames on the medium, which a
            // slice end (usually a quiet instant) would miss.
            let mut u = t;
            while u < next {
                u = (u + FLIGHT_SAMPLE.as_nanos()).min(next);
                sim.run_until(SimTime::from_nanos(u));
                frames_in_flight_peak = frames_in_flight_peak.max(sim.world().frames_in_flight());
            }
        } else {
            sim.run_until(SimTime::from_nanos(next));
        }
        let s1 = now();
        if let (Some(tally), Some(prev)) = (tally, last.as_mut()) {
            let cur = tally.totals();
            let mut children = [Agg::default(); Span::ALL.len()];
            for (i, c) in children.iter_mut().enumerate() {
                *c = cur[i].since(prev[i]);
            }
            *prev = cur;
            spans.push(SliceSpan {
                sim_ns: (t, next),
                wall_ns: (ns(start, s0), ns(start, s1)),
                children,
            });
        }
        if t >= win_lo.as_nanos() && next <= win_hi.as_nanos() {
            window_slice_ms.push(secs(s0, s1) * 1e3);
        }
        if next >= checkpoint_due && next < horizon {
            checkpoint_due += quarter;
            let e0 = now();
            let bytes = sim.snapshot(fingerprint);
            let e1 = now();
            snaps.push(SnapSpan {
                sim_ns: next,
                wall_ns: (ns(start, e0), ns(start, e1)),
                bytes: bytes.len(),
            });
            if snaps.len() == 2 {
                half = bytes;
            }
        }
        t = next;
    }
    let cell_s = secs(start, now());
    CellRun {
        world_seed,
        setup,
        cell_s,
        window_slice_ms,
        outcome: Outcome::of(&RunMeasurement::from_sim(&sim, &groups, world_seed)),
        frames_in_flight_peak,
        index: sim.world().index_stats(),
        snaps,
        half,
        spans,
    }
}

/// A simulator resumed from a checkpoint.
pub struct Resumed<P: Protocol> {
    /// Host seconds from checkpoint bytes to a ready simulator (fresh
    /// assembly plus `restore`).
    pub resume_s: f64,
    /// Host seconds inside `Simulator::restore` alone.
    pub decode_s: f64,
    /// The resumed simulator, if the restore succeeded.
    pub asm: Result<Assembled<P>, String>,
}

/// Assemble a fresh simulator with `build` and restore `bytes` into it.
pub fn resume<P>(bytes: &[u8], fingerprint: u64, build: impl FnOnce() -> Assembled<P>) -> Resumed<P>
where
    P: Protocol + SnapshotState,
    P::Msg: Snap,
{
    let t0 = now();
    let mut asm = build();
    let t1 = now();
    let restored = asm.sim.restore(bytes, fingerprint);
    let t2 = now();
    Resumed {
        resume_s: secs(t0, t2),
        decode_s: secs(t1, t2),
        asm: restored
            .map(|()| asm)
            .map_err(|e| format!("restore failed: {e:?}")),
    }
}

/// Check a resumed simulator: its state must re-encode to the checkpoint it
/// came from, and with `to_end` it must finish with `reference`'s results.
pub fn check_resumed<P>(
    w: &Workload,
    world_seed: u64,
    fingerprint: u64,
    bytes: &[u8],
    asm: Assembled<P>,
    to_end: Option<&Outcome>,
) -> Result<(), String>
where
    P: Protocol + SnapshotState + MulticastApp,
    P::Msg: Snap,
{
    let Assembled {
        mut sim, groups, ..
    } = asm;
    if sim.snapshot(fingerprint) != bytes {
        return Err("resumed state does not re-encode to its checkpoint".to_string());
    }
    if let Some(reference) = to_end {
        sim.run_until(w.horizon());
        let m = RunMeasurement::from_sim(&sim, &groups, world_seed);
        if let Some(d) = Outcome::of(&m).diff(reference) {
            return Err(format!("resumed run differs from uninterrupted: {d}"));
        }
    }
    Ok(())
}

/// Run `asm` straight to the horizon (no slices, no checkpoints).
pub fn run_straight<P>(w: &Workload, world_seed: u64, asm: Assembled<P>) -> Outcome
where
    P: Protocol + MulticastApp,
{
    let Assembled {
        mut sim, groups, ..
    } = asm;
    sim.run_until(w.horizon());
    Outcome::of(&RunMeasurement::from_sim(&sim, &groups, world_seed))
}

/// The results of `WorkloadScenario::run_once`, the production path.
pub fn run_production(w: &Workload, seed: u64) -> Outcome {
    Outcome::of(&w.scenario.run_once(w.variant, seed))
}
