//! Layer timing from outside the layers.
//!
//! [`TimedMedium`] wraps any [`Medium`] and [`TimedNode`] wraps an
//! [`OdmrpNode`]; both forward every trait method unchanged and add the
//! wall time and call count of the layer's work to a shared [`Tally`]. The
//! simulator never sees a clock: it only calls the public `Medium` and
//! `Protocol` traits, so a wrapped run dispatches exactly the same events
//! as a plain one (the benchmark checks this on every traced run).

use std::cell::Cell;
use std::rc::Rc;
use std::time::Instant;

use mesh_sim::geometry::Pos;
use mesh_sim::ids::{NodeId, TimerId, TxHandle};
use mesh_sim::medium::{IndexStats, LinkEffect, Medium, PositionDelta, RxPlan};
use mesh_sim::propagation::PhyParams;
use mesh_sim::protocol::{Protocol, RxMeta, TxOutcome};
use mesh_sim::rng::SimRng;
use mesh_sim::snapshot::{SnapError, SnapReader, SnapWriter, SnapshotState};
use mesh_sim::time::SimTime;
use mesh_sim::world::Ctx;
use odmrp::{MulticastApp, NodeStats, OdmrpMsg, OdmrpNode, Variant};

/// The one wall-clock read of the benchmark; every timing goes through it.
pub fn now() -> Instant {
    // mesh-lint: allow(R2, "benchmark harness: elapsed host time is the measurement")
    Instant::now()
}

/// A child span kind: one layer entry point timed from outside.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Span {
    /// `Medium::fan_out`: plan the receivers of one frame.
    FanOut,
    /// `Medium::positions_changed`: index upkeep after a mobility tick.
    PositionsChanged,
    /// `Protocol::handle_message` with a JOIN QUERY.
    Query,
    /// `Protocol::handle_message` with a JOIN REPLY.
    Reply,
    /// `Protocol::handle_message` with a data packet.
    Data,
    /// `Protocol::handle_message` with a link probe.
    Probe,
    /// `Protocol::handle_timer`.
    Timer,
    /// `Protocol::handle_tx_complete`.
    TxComplete,
    /// `Protocol::start` and `Protocol::handle_restart`.
    Lifecycle,
}

impl Span {
    /// Every span kind, in report order.
    pub const ALL: [Span; 9] = [
        Span::FanOut,
        Span::PositionsChanged,
        Span::Query,
        Span::Reply,
        Span::Data,
        Span::Probe,
        Span::Timer,
        Span::TxComplete,
        Span::Lifecycle,
    ];

    /// The ODMRP handler kinds (the `odmrp::node` layer).
    pub const ODMRP: [Span; 7] = [
        Span::Query,
        Span::Reply,
        Span::Data,
        Span::Probe,
        Span::Timer,
        Span::TxComplete,
        Span::Lifecycle,
    ];

    /// Metric-name stem of this span.
    pub fn name(self) -> &'static str {
        match self {
            Span::FanOut => "medium.fan_out",
            Span::PositionsChanged => "medium.positions_changed",
            Span::Query => "odmrp.query",
            Span::Reply => "odmrp.reply",
            Span::Data => "odmrp.data",
            Span::Probe => "odmrp.probe",
            Span::Timer => "odmrp.timer",
            Span::TxComplete => "odmrp.tx_complete",
            Span::Lifecycle => "odmrp.lifecycle",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Count plus total nanoseconds of one span kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Agg {
    /// Calls made.
    pub calls: u64,
    /// Wall time inside those calls, nanoseconds.
    pub ns: u64,
}

impl Agg {
    /// `self - earlier`, for per-slice deltas of running totals.
    pub fn since(self, earlier: Agg) -> Agg {
        Agg {
            calls: self.calls - earlier.calls,
            ns: self.ns - earlier.ns,
        }
    }
}

/// Running totals shared by every wrapper of one simulator. Single-threaded
/// by construction (the simulator is not `Send` with these inside).
#[derive(Debug, Default)]
pub struct Tally {
    calls: [Cell<u64>; Span::ALL.len()],
    ns: [Cell<u64>; Span::ALL.len()],
    /// Receivers planned by `fan_out` (entries appended to its output).
    receivers: Cell<u64>,
}

impl Tally {
    fn add(&self, span: Span, started: Instant) {
        let ns = started.elapsed().as_nanos() as u64;
        let i = span.index();
        self.calls[i].set(self.calls[i].get() + 1);
        self.ns[i].set(self.ns[i].get() + ns);
    }

    /// Totals of one span kind so far.
    pub fn get(&self, span: Span) -> Agg {
        let i = span.index();
        Agg {
            calls: self.calls[i].get(),
            ns: self.ns[i].get(),
        }
    }

    /// Totals of every span kind so far, in [`Span::ALL`] order.
    pub fn totals(&self) -> [Agg; Span::ALL.len()] {
        Span::ALL.map(|s| self.get(s))
    }

    /// Receivers planned by `fan_out` so far.
    pub fn receivers(&self) -> u64 {
        self.receivers.get()
    }
}

/// A [`Medium`] that times `fan_out` and `positions_changed` of `inner`.
#[derive(Debug)]
pub struct TimedMedium<M> {
    inner: M,
    tally: Rc<Tally>,
}

impl<M> TimedMedium<M> {
    /// Wrap `inner`, reporting into `tally`.
    pub fn new(inner: M, tally: Rc<Tally>) -> Self {
        TimedMedium { inner, tally }
    }
}

impl<M: Medium> Medium for TimedMedium<M> {
    fn fan_out(
        &mut self,
        tx: NodeId,
        positions: &[Pos],
        now_sim: SimTime,
        rng: &mut SimRng,
        out: &mut Vec<RxPlan>,
    ) {
        let before = out.len();
        let t = now();
        self.inner.fan_out(tx, positions, now_sim, rng, out);
        self.tally.add(Span::FanOut, t);
        let planned = (out.len() - before) as u64;
        self.tally
            .receivers
            .set(self.tally.receivers.get() + planned);
    }

    fn phy(&self) -> &PhyParams {
        self.inner.phy()
    }

    fn invalidate_positions(&mut self) {
        self.inner.invalidate_positions();
    }

    fn positions_changed(&mut self, moves: &[PositionDelta], positions: &[Pos]) {
        let t = now();
        self.inner.positions_changed(moves, positions);
        self.tally.add(Span::PositionsChanged, t);
    }

    fn index_stats(&self) -> Option<IndexStats> {
        self.inner.index_stats()
    }

    fn set_link_fault(&mut self, from: NodeId, to: NodeId, effect: LinkEffect) {
        self.inner.set_link_fault(from, to, effect);
    }

    fn clear_link_fault(&mut self, from: NodeId, to: NodeId) {
        self.inner.clear_link_fault(from, to);
    }

    fn snapshot_state(&self, w: &mut SnapWriter) {
        self.inner.snapshot_state(w);
    }

    fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.inner.restore_state(r)
    }
}

/// An [`OdmrpNode`] whose protocol callbacks are timed by kind. The spans
/// include the `Ctx` sends the handler makes into the MAC queue.
#[derive(Debug)]
pub struct TimedNode {
    inner: OdmrpNode,
    tally: Rc<Tally>,
}

impl TimedNode {
    /// Wrap `inner`, reporting into `tally`.
    pub fn new(inner: OdmrpNode, tally: Rc<Tally>) -> Self {
        TimedNode { inner, tally }
    }
}

impl Protocol for TimedNode {
    type Msg = OdmrpMsg;

    fn start(&mut self, ctx: &mut Ctx<'_, OdmrpMsg>) {
        let t = now();
        self.inner.start(ctx);
        self.tally.add(Span::Lifecycle, t);
    }

    fn handle_message(
        &mut self,
        ctx: &mut Ctx<'_, OdmrpMsg>,
        src: NodeId,
        msg: &OdmrpMsg,
        meta: RxMeta,
    ) {
        let span = match msg {
            OdmrpMsg::JoinQuery(_) => Span::Query,
            OdmrpMsg::JoinReply(_) => Span::Reply,
            OdmrpMsg::Data(_) => Span::Data,
            OdmrpMsg::Probe(_) => Span::Probe,
        };
        let t = now();
        self.inner.handle_message(ctx, src, msg, meta);
        self.tally.add(span, t);
    }

    fn handle_timer(&mut self, ctx: &mut Ctx<'_, OdmrpMsg>, timer: TimerId, kind: u64) {
        let t = now();
        self.inner.handle_timer(ctx, timer, kind);
        self.tally.add(Span::Timer, t);
    }

    fn handle_tx_complete(
        &mut self,
        ctx: &mut Ctx<'_, OdmrpMsg>,
        handle: TxHandle,
        outcome: TxOutcome,
    ) {
        let t = now();
        self.inner.handle_tx_complete(ctx, handle, outcome);
        self.tally.add(Span::TxComplete, t);
    }

    fn handle_restart(&mut self, ctx: &mut Ctx<'_, OdmrpMsg>) {
        let t = now();
        self.inner.handle_restart(ctx);
        self.tally.add(Span::Lifecycle, t);
    }
}

impl SnapshotState for TimedNode {
    fn snapshot_state(&self, w: &mut SnapWriter) {
        self.inner.snapshot_state(w);
    }

    fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.inner.restore_state(r)
    }
}

impl MulticastApp for TimedNode {
    fn node_stats(&self) -> &NodeStats {
        self.inner.node_stats()
    }

    fn variant(&self) -> Variant {
        self.inner.variant()
    }
}
