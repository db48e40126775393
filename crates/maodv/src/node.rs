//! The tree-multicast node.
//!
//! Route discovery mirrors metric-enhanced ODMRP (cost-accumulating floods,
//! α-bounded improving duplicates, δ-delayed best-route selection) so that
//! the *only* structural difference from ODMRP is what §4.3 isolates: state
//! is kept **per source** and activated hop-by-hop with **unicast grafts**,
//! producing a tree with no mesh redundancy.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use mcast_metrics::{
    AnyMetric, Freshness, LinkObservation, Metric, NeighborTable, PathCost, Prober,
};
use mesh_sim::ids::{GroupId, NodeId, TimerId, TxHandle};
use mesh_sim::protocol::{Protocol, RxMeta, TxOutcome};
use mesh_sim::snapshot::{Snap, SnapError, SnapReader, SnapWriter, SnapshotState};
use mesh_sim::time::{SimDuration, SimTime};
use mesh_sim::trace::Decision;
use mesh_sim::world::Ctx;
use odmrp::messages::{class, DataPacket};
use odmrp::{MulticastApp, NodeRole, NodeStats, Variant};

use crate::config::MaodvConfig;
use crate::messages::{Graft, MaodvMsg, RouteRequest};

const DATA_CACHE_CAP: usize = 50_000;
const GRAFT_RETRIES: u32 = 2;

#[derive(Debug)]
enum TimerPayload {
    Probe,
    Cbr(usize),
    Refresh(usize),
    /// δ expired for `(source, seq)`: graft toward the best upstream.
    Delta(NodeId, u32),
    /// Jittered rebroadcast of the route request for `(source, seq)`.
    ForwardRequest(NodeId, u32),
    /// Retry a failed graft transmission.
    GraftRetry(Graft, u32),
}

#[derive(Debug)]
struct RequestState {
    group: GroupId,
    best_cost: PathCost,
    upstream: NodeId,
    hop_count: u8,
    alpha_deadline: SimTime,
    best_forwarded: Option<PathCost>,
    forward_pending: bool,
}

impl Snap for TimerPayload {
    fn snap(&self, w: &mut SnapWriter) {
        match self {
            TimerPayload::Probe => w.put_u8(0),
            TimerPayload::Cbr(i) => {
                w.put_u8(1);
                w.put_usize(*i);
            }
            TimerPayload::Refresh(i) => {
                w.put_u8(2);
                w.put_usize(*i);
            }
            TimerPayload::Delta(n, s) => {
                w.put_u8(3);
                n.snap(w);
                w.put_u32(*s);
            }
            TimerPayload::ForwardRequest(n, s) => {
                w.put_u8(4);
                n.snap(w);
                w.put_u32(*s);
            }
            TimerPayload::GraftRetry(g, attempt) => {
                w.put_u8(5);
                g.snap(w);
                w.put_u32(*attempt);
            }
        }
    }

    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(match r.u8()? {
            0 => TimerPayload::Probe,
            1 => TimerPayload::Cbr(r.usize()?),
            2 => TimerPayload::Refresh(r.usize()?),
            3 => TimerPayload::Delta(Snap::unsnap(r)?, r.u32()?),
            4 => TimerPayload::ForwardRequest(Snap::unsnap(r)?, r.u32()?),
            5 => TimerPayload::GraftRetry(Snap::unsnap(r)?, r.u32()?),
            t => return Err(SnapError::BadTag(t as u32)),
        })
    }
}

mesh_sim::snap_struct! {
    RequestState {
        group, best_cost, upstream, hop_count, alpha_deadline, best_forwarded, forward_pending,
    }
}

/// Per-`(group, source)` tree membership.
#[derive(Debug, Default)]
struct TreeState {
    /// Downstream tree neighbors and their expiry.
    // Iterated (live_children): BTreeMap so traversal is key-ordered,
    // never hash-ordered (mesh-lint rule R1).
    children: BTreeMap<NodeId, SimTime>,
}

impl TreeState {
    fn live_children(&self, now: SimTime) -> usize {
        self.children.values().filter(|&&t| t > now).count()
    }
}

mesh_sim::snap_struct! { TreeState { children } }

/// A tree-based multicast protocol instance (MAODV-style).
#[derive(Debug)]
pub struct MaodvNode {
    cfg: MaodvConfig,
    role: NodeRole,
    metric: Option<AnyMetric>,
    prober: Option<Prober>,
    table: NeighborTable,
    me: NodeId,

    // BTree containers throughout: checkpointing serializes them in
    // iteration order, which must be key order, never hash order
    // (mesh-lint rule R1).
    timers: BTreeMap<u64, TimerPayload>,
    timer_token: u64,

    requests: BTreeMap<(NodeId, u32), RequestState>,
    trees: BTreeMap<(GroupId, NodeId), TreeState>,
    /// Rounds for which this node already sent its own graft upstream.
    grafted: BTreeSet<(NodeId, u32)>,
    delta_scheduled: BTreeSet<(NodeId, u32)>,
    /// Outstanding graft transmissions by MAC handle, for retry on failure.
    pending_grafts: BTreeMap<TxHandle, (Graft, u32)>,

    data_seen: BTreeSet<(NodeId, u32)>,
    data_seen_order: VecDeque<(NodeId, u32)>,
    data_seq: u32,
    refresh_seq: u32,

    /// Per-source refresh-backoff exponent (degraded mode; 0 = nominal).
    backoff_exp: Vec<u32>,
    /// Per-source refresh seq of the most recent request round we flooded.
    last_round: Vec<Option<u32>>,
    /// Per-source token of the pending `Refresh` timer, so a revival can
    /// cancel a backed-off timer and refresh immediately.
    refresh_token: Vec<Option<u64>>,
    /// Request rounds (ours, as source) whose graft chain reached us.
    /// Keyed access only.
    elected_rounds: BTreeSet<u32>,
    /// Currently routing on the min-hop fallback (no usable estimates).
    fallback_active: bool,

    stats: NodeStats,
}

impl MaodvNode {
    /// Create a node with the given configuration and role.
    pub fn new(cfg: MaodvConfig, role: NodeRole) -> Self {
        let metric = cfg
            .variant
            .metric_kind()
            .map(|k| k.build_with_rate(cfg.probe_rate));
        let prober = metric
            .as_ref()
            .map(|m| Prober::new(m.probe_plan()))
            .filter(|p| !matches!(p.plan(), mcast_metrics::ProbePlan::None));
        let table = NeighborTable::new(cfg.estimator.clone());
        let n_sources = role.sources.len();
        MaodvNode {
            cfg,
            role,
            metric,
            prober,
            table,
            me: NodeId::new(0),
            timers: BTreeMap::new(),
            timer_token: 0,
            requests: BTreeMap::new(),
            trees: BTreeMap::new(),
            grafted: BTreeSet::new(),
            delta_scheduled: BTreeSet::new(),
            pending_grafts: BTreeMap::new(),
            data_seen: BTreeSet::new(),
            data_seen_order: VecDeque::new(),
            data_seq: 0,
            refresh_seq: 0,
            backoff_exp: vec![0; n_sources],
            last_round: vec![None; n_sources],
            refresh_token: vec![None; n_sources],
            elected_rounds: BTreeSet::new(),
            fallback_active: false,
            stats: NodeStats::default(),
        }
    }

    /// Statistics collected so far.
    pub fn stats(&self) -> &NodeStats {
        &self.stats
    }

    /// Whether this node currently forwards for the tree of `(group, source)`.
    pub fn is_tree_forwarder(&self, group: GroupId, source: NodeId, now: SimTime) -> bool {
        self.trees
            .get(&(group, source))
            .is_some_and(|t| t.live_children(now) > 0)
    }

    /// Number of distinct `(group, source)` trees this node has children in.
    pub fn tree_count(&self, now: SimTime) -> usize {
        self.trees
            .values()
            .filter(|t| t.live_children(now) > 0)
            .count()
    }

    fn arm(
        &mut self,
        ctx: &mut Ctx<'_, MaodvMsg>,
        delay: SimDuration,
        payload: TimerPayload,
    ) -> u64 {
        self.timer_token += 1;
        let token = self.timer_token;
        self.timers.insert(token, payload);
        ctx.set_timer(delay, token);
        token
    }

    fn jitter(&self, ctx: &mut Ctx<'_, MaodvMsg>) -> SimDuration {
        let max = self.cfg.control_jitter.as_nanos();
        SimDuration::from_nanos((ctx.rng().uniform() * max as f64) as u64)
    }

    fn send_probe_round(&mut self, ctx: &mut Ctx<'_, MaodvMsg>) {
        if self.prober.is_none() {
            return;
        }
        if self.cfg.degraded.enabled {
            // Trace staleness transitions into quarantine.
            let mut revived = false;
            for (peer, f) in self.table.sweep_freshness(ctx.now()) {
                match f {
                    Freshness::Quarantined => {
                        self.stats.quarantines += 1;
                        ctx.trace_decision(Decision::MetricQuarantine { peer });
                    }
                    Freshness::Fresh => revived = true,
                    Freshness::Suspect => {}
                }
            }
            // A neighbor coming back fresh: backed-off sources re-request
            // immediately instead of waiting out a timer armed during the
            // outage (same policy as ODMRP's revival reset).
            if revived {
                for idx in 0..self.backoff_exp.len() {
                    if self.backoff_exp[idx] == 0 {
                        continue;
                    }
                    self.backoff_exp[idx] = 0;
                    self.last_round[idx] = None;
                    if let Some(token) = self.refresh_token[idx].take() {
                        self.timers.remove(&token);
                    }
                    ctx.trace_decision(Decision::RefreshBackoff { factor: 1 });
                    let delay = self.jitter(ctx);
                    let token = self.arm(ctx, delay, TimerPayload::Refresh(idx));
                    self.refresh_token[idx] = Some(token);
                }
            }
        }
        let Some(prober) = self.prober.as_mut() else {
            return;
        };
        for (msg, bytes) in prober.next_round(Vec::new()) {
            if ctx
                .send_broadcast(MaodvMsg::Probe(msg), bytes, class::PROBE)
                .is_ok()
            {
                self.stats.probes_sent += 1;
            }
        }
        if let Some(interval) = self.prober.as_ref().and_then(|p| p.plan().interval()) {
            let f = 0.9 + 0.2 * ctx.rng().uniform();
            self.arm(ctx, interval.mul_f64(f), TimerPayload::Probe);
        }
    }

    fn send_cbr(&mut self, ctx: &mut Ctx<'_, MaodvMsg>, idx: usize) {
        let spec = self.role.sources[idx];
        if ctx.now() >= spec.stop {
            return;
        }
        self.data_seq += 1;
        let pkt = DataPacket {
            group: spec.group,
            source: self.me,
            seq: self.data_seq,
            sent_at: ctx.now(),
            bytes: spec.bytes,
        };
        *self.stats.sent.entry(spec.group).or_insert(0) += 1;
        let _ = ctx.send_broadcast(MaodvMsg::Data(pkt), spec.bytes, class::DATA);
        self.arm(ctx, spec.interval, TimerPayload::Cbr(idx));
    }

    fn send_refresh(&mut self, ctx: &mut Ctx<'_, MaodvMsg>, idx: usize) {
        let spec = self.role.sources[idx];
        if ctx.now() >= spec.stop {
            return;
        }
        if self.cfg.degraded.enabled {
            // A previous round with no graft back to us doubles the refresh
            // interval (bounded); any election resets the cadence.
            if let Some(prev) = self.last_round[idx] {
                if self.elected_rounds.remove(&prev) {
                    self.backoff_exp[idx] = 0;
                } else {
                    self.backoff_exp[idx] =
                        (self.backoff_exp[idx] + 1).min(self.cfg.degraded.max_backoff_exp);
                    self.stats.refresh_backoffs += 1;
                    ctx.trace_decision(Decision::RefreshBackoff {
                        factor: 1u32 << self.backoff_exp[idx],
                    });
                }
            }
        }
        self.refresh_seq += 1;
        let identity = self.metric.as_ref().map_or(0.0, |m| m.identity().value());
        let rq = RouteRequest {
            group: spec.group,
            source: self.me,
            seq: self.refresh_seq,
            prev_hop: self.me,
            hop_count: 0,
            cost: identity,
        };
        if ctx
            .send_broadcast(
                MaodvMsg::RouteRequest(rq),
                RouteRequest::BYTES,
                class::CONTROL,
            )
            .is_ok()
        {
            self.stats.queries_sent += 1;
        }
        self.last_round[idx] = Some(self.refresh_seq);
        let exp = self.backoff_exp[idx];
        let interval = if exp == 0 {
            self.cfg.refresh_interval
        } else {
            SimDuration::from_nanos(self.cfg.refresh_interval.as_nanos() << exp)
        };
        let token = self.arm(ctx, interval, TimerPayload::Refresh(idx));
        self.refresh_token[idx] = Some(token);
    }

    fn handle_request(&mut self, ctx: &mut Ctx<'_, MaodvMsg>, from: NodeId, rq: &RouteRequest) {
        if rq.source == self.me || rq.hop_count >= self.cfg.max_hops {
            return;
        }
        let now = ctx.now();
        let key = (rq.source, rq.seq);
        let is_member = self.role.is_member(rq.group, now);

        let (new_cost, better) = match self.metric.clone() {
            None => {
                // First-arrival baseline.
                if self.requests.contains_key(&key) {
                    return;
                }
                (PathCost::new(rq.hop_count as f64 + 1.0), false)
            }
            Some(metric) => {
                let (obs, fresh) = self.table.classified_observe(from, now);
                let substitute = self.cfg.degraded.enabled && fresh == Some(Freshness::Quarantined);
                let obs = if substitute {
                    self.stats.quarantine_substitutions += 1;
                    LinkObservation::unknown(self.table.config())
                } else {
                    obs
                };
                if self.cfg.degraded.enabled {
                    let fallback = !self.table.has_usable_estimate(now);
                    if fallback && !self.fallback_active {
                        self.stats.fallback_activations += 1;
                        ctx.trace_decision(Decision::FallbackActivated);
                    }
                    self.fallback_active = fallback;
                }
                let link = metric.link_cost(&obs);
                let cost = metric.accumulate(PathCost::new(rq.cost), link);
                let better = self
                    .requests
                    .get(&key)
                    .is_some_and(|st| metric.better(cost, st.best_cost));
                (cost, better)
            }
        };

        match self.requests.get_mut(&key) {
            None => {
                self.requests.insert(
                    key,
                    RequestState {
                        group: rq.group,
                        best_cost: new_cost,
                        upstream: from,
                        hop_count: rq.hop_count + 1,
                        alpha_deadline: now + self.cfg.alpha,
                        best_forwarded: None,
                        forward_pending: true,
                    },
                );
                let j = self.jitter(ctx);
                self.arm(ctx, j, TimerPayload::ForwardRequest(rq.source, rq.seq));
                if is_member && self.delta_scheduled.insert(key) {
                    let delay = if self.metric.is_some() {
                        self.cfg.delta
                    } else {
                        self.jitter(ctx)
                    };
                    self.arm(ctx, delay, TimerPayload::Delta(rq.source, rq.seq));
                }
            }
            Some(st) if better => {
                st.best_cost = new_cost;
                st.upstream = from;
                st.hop_count = rq.hop_count + 1;
                let improves = st
                    .best_forwarded
                    .is_none_or(|f| match self.metric.as_ref() {
                        Some(m) => m.better(new_cost, f),
                        None => false,
                    });
                if now <= st.alpha_deadline && improves && !st.forward_pending {
                    st.forward_pending = true;
                    let j = self.jitter(ctx);
                    self.arm(ctx, j, TimerPayload::ForwardRequest(rq.source, rq.seq));
                }
            }
            Some(_) => {}
        }
    }

    fn forward_request(&mut self, ctx: &mut Ctx<'_, MaodvMsg>, source: NodeId, seq: u32) {
        let Some(st) = self.requests.get_mut(&(source, seq)) else {
            return;
        };
        st.forward_pending = false;
        if st.hop_count >= self.cfg.max_hops {
            return;
        }
        if let (Some(metric), Some(fwd)) = (self.metric.as_ref(), st.best_forwarded) {
            if !metric.better(st.best_cost, fwd) {
                return;
            }
        } else if self.metric.is_none() && st.best_forwarded.is_some() {
            return;
        }
        st.best_forwarded = Some(st.best_cost);
        let rq = RouteRequest {
            group: st.group,
            source,
            seq,
            prev_hop: self.me,
            hop_count: st.hop_count,
            cost: st.best_cost.value(),
        };
        if ctx
            .send_broadcast(
                MaodvMsg::RouteRequest(rq),
                RouteRequest::BYTES,
                class::CONTROL,
            )
            .is_ok()
        {
            self.stats.queries_forwarded += 1;
        }
    }

    /// Send (or re-send) a graft unicast to our upstream for its round.
    fn send_graft(&mut self, ctx: &mut Ctx<'_, MaodvMsg>, graft: Graft, attempt: u32) {
        let Some(st) = self.requests.get(&(graft.source, graft.seq)) else {
            return;
        };
        let upstream = st.upstream;
        match ctx.send_unicast(
            upstream,
            MaodvMsg::Graft(graft),
            Graft::BYTES,
            class::CONTROL,
        ) {
            Ok(handle) => {
                self.pending_grafts.insert(handle, (graft, attempt));
                self.stats.replies_sent += 1;
                *self
                    .stats
                    .tree_edges
                    .entry((upstream, self.me))
                    .or_insert(0) += 1;
            }
            Err(_) => {
                // Queue full: try again shortly.
                if attempt < GRAFT_RETRIES {
                    self.arm(
                        ctx,
                        SimDuration::from_millis(20),
                        TimerPayload::GraftRetry(graft, attempt + 1),
                    );
                }
            }
        }
    }

    /// δ expired at a member: graft toward the best upstream of the round.
    fn begin_graft(&mut self, ctx: &mut Ctx<'_, MaodvMsg>, source: NodeId, seq: u32) {
        if source == self.me || !self.grafted.insert((source, seq)) {
            return;
        }
        let Some(st) = self.requests.get(&(source, seq)) else {
            return;
        };
        let graft = Graft {
            group: st.group,
            source,
            seq,
            origin: self.me,
        };
        self.send_graft(ctx, graft, 0);
    }

    fn handle_graft(&mut self, ctx: &mut Ctx<'_, MaodvMsg>, from: NodeId, g: &Graft) {
        let now = ctx.now();
        // The grafting neighbor becomes our child on this source's tree.
        let tree = self.trees.entry((g.group, g.source)).or_default();
        let expiry = now + self.cfg.tree_timeout;
        let slot = tree.children.entry(from).or_insert(expiry);
        *slot = (*slot).max(expiry);
        self.stats.fg_refreshes += 1;
        ctx.trace_decision(Decision::TreeJoin {
            group: g.group.0,
            child: from,
        });

        if g.source == self.me {
            // The branch reached the root: this round elected tree state,
            // so the refresh backoff resets.
            self.elected_rounds.insert(g.seq);
            return;
        }
        // Extend the branch toward the source once per round.
        if self.grafted.insert((g.source, g.seq)) {
            let graft = Graft {
                origin: self.me,
                ..*g
            };
            self.send_graft(ctx, graft, 0);
        }
    }

    fn handle_data(&mut self, ctx: &mut Ctx<'_, MaodvMsg>, from: NodeId, d: &DataPacket) {
        if d.source == self.me {
            return;
        }
        let key = (d.source, d.seq);
        if self.data_seen.contains(&key) {
            self.stats.duplicate_data += 1;
            ctx.trace_decision(Decision::SuppressDuplicate {
                group: d.group.0,
                source: d.source,
                pkt_seq: d.seq,
            });
            return;
        }
        self.data_seen.insert(key);
        self.data_seen_order.push_back(key);
        if self.data_seen_order.len() > DATA_CACHE_CAP {
            if let Some(old) = self.data_seen_order.pop_front() {
                self.data_seen.remove(&old);
            }
        }
        *self.stats.data_edges.entry((from, self.me)).or_insert(0) += 1;

        let now = ctx.now();
        if self.role.is_member(d.group, now) {
            let rec = self.stats.delivered.entry((d.group, d.source)).or_default();
            rec.count += 1;
            rec.delay_sum_s += now.saturating_since(d.sent_at).as_secs_f64();
            ctx.observe_delivery(now.saturating_since(d.sent_at));
        }
        if self.is_tree_forwarder(d.group, d.source, now)
            && ctx
                .send_broadcast(MaodvMsg::Data(d.clone()), d.bytes, class::DATA)
                .is_ok()
        {
            self.stats.data_forwards += 1;
            ctx.trace_decision(Decision::ForwardData {
                group: d.group.0,
                source: d.source,
                pkt_seq: d.seq,
            });
        }
    }
}

impl SnapshotState for MaodvNode {
    fn snapshot_state(&self, w: &mut SnapWriter) {
        // `cfg`, `role`, and `metric` are configuration: the restoring side
        // rebuilds them from the scenario (fingerprint-checked at the
        // header). Everything below is mutable run state — including `me`,
        // because `start()` never re-runs on a restored simulator.
        self.me.snap(w);
        self.timers.snap(w);
        w.put_u64(self.timer_token);
        self.requests.snap(w);
        self.trees.snap(w);
        self.grafted.snap(w);
        self.delta_scheduled.snap(w);
        self.pending_grafts.snap(w);
        self.data_seen.snap(w);
        self.data_seen_order.snap(w);
        w.put_u32(self.data_seq);
        w.put_u32(self.refresh_seq);
        self.backoff_exp.snap(w);
        self.last_round.snap(w);
        self.refresh_token.snap(w);
        self.elected_rounds.snap(w);
        w.put_bool(self.fallback_active);
        self.stats.snap(w);
        w.put_bool(self.prober.is_some());
        if let Some(p) = &self.prober {
            p.snapshot_state(w);
        }
        self.table.snapshot_state(w);
    }

    fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.me = Snap::unsnap(r)?;
        self.timers = Snap::unsnap(r)?;
        self.timer_token = r.u64()?;
        self.requests = Snap::unsnap(r)?;
        self.trees = Snap::unsnap(r)?;
        self.grafted = Snap::unsnap(r)?;
        self.delta_scheduled = Snap::unsnap(r)?;
        self.pending_grafts = Snap::unsnap(r)?;
        self.data_seen = Snap::unsnap(r)?;
        self.data_seen_order = Snap::unsnap(r)?;
        self.data_seq = r.u32()?;
        self.refresh_seq = r.u32()?;
        let backoff_exp: Vec<u32> = Snap::unsnap(r)?;
        if backoff_exp.len() != self.role.sources.len() {
            return Err(SnapError::StateMismatch("MAODV source count"));
        }
        self.backoff_exp = backoff_exp;
        self.last_round = Snap::unsnap(r)?;
        self.refresh_token = Snap::unsnap(r)?;
        if self.last_round.len() != self.backoff_exp.len()
            || self.refresh_token.len() != self.backoff_exp.len()
        {
            return Err(SnapError::StateMismatch("MAODV per-source state length"));
        }
        self.elected_rounds = Snap::unsnap(r)?;
        self.fallback_active = r.bool()?;
        self.stats = Snap::unsnap(r)?;
        let has_prober = r.bool()?;
        if has_prober != self.prober.is_some() {
            return Err(SnapError::StateMismatch("MAODV prober presence"));
        }
        if let Some(p) = &mut self.prober {
            p.restore_state(r)?;
        }
        self.table.restore_state(r)
    }
}

impl MulticastApp for MaodvNode {
    fn node_stats(&self) -> &NodeStats {
        &self.stats
    }
    fn variant(&self) -> Variant {
        self.cfg.variant
    }
}

impl Protocol for MaodvNode {
    type Msg = MaodvMsg;

    fn start(&mut self, ctx: &mut Ctx<'_, MaodvMsg>) {
        self.me = ctx.node();
        if let Some(interval) = self.prober.as_ref().and_then(|p| p.plan().interval()) {
            let phase = interval.mul_f64(ctx.rng().uniform());
            self.arm(ctx, phase, TimerPayload::Probe);
        }
        for i in 0..self.role.sources.len() {
            let spec = self.role.sources[i];
            let start = spec.start.saturating_since(SimTime::ZERO);
            let token = self.arm(ctx, start, TimerPayload::Refresh(i));
            self.refresh_token[i] = Some(token);
            self.arm(ctx, start, TimerPayload::Cbr(i));
        }
    }

    fn handle_message(
        &mut self,
        ctx: &mut Ctx<'_, MaodvMsg>,
        src: NodeId,
        msg: &MaodvMsg,
        _meta: RxMeta,
    ) {
        match msg {
            MaodvMsg::Probe(p) => {
                let now = ctx.now();
                self.table.handle_probe(src, p, self.me, now);
            }
            MaodvMsg::RouteRequest(rq) => self.handle_request(ctx, src, rq),
            MaodvMsg::Graft(g) => self.handle_graft(ctx, src, g),
            MaodvMsg::Data(d) => self.handle_data(ctx, src, d),
        }
    }

    fn handle_timer(&mut self, ctx: &mut Ctx<'_, MaodvMsg>, _timer: TimerId, kind: u64) {
        let Some(payload) = self.timers.remove(&kind) else {
            return;
        };
        match payload {
            TimerPayload::Probe => self.send_probe_round(ctx),
            TimerPayload::Cbr(i) => self.send_cbr(ctx, i),
            TimerPayload::Refresh(i) => self.send_refresh(ctx, i),
            TimerPayload::Delta(source, seq) => self.begin_graft(ctx, source, seq),
            TimerPayload::ForwardRequest(source, seq) => self.forward_request(ctx, source, seq),
            TimerPayload::GraftRetry(graft, attempt) => self.send_graft(ctx, graft, attempt),
        }
    }

    fn handle_tx_complete(
        &mut self,
        ctx: &mut Ctx<'_, MaodvMsg>,
        handle: TxHandle,
        outcome: TxOutcome,
    ) {
        if let Some((graft, attempt)) = self.pending_grafts.remove(&handle) {
            if !outcome.is_sent() && attempt < GRAFT_RETRIES {
                // The MAC exhausted its retries; try the graft again after a
                // short pause (the upstream may be temporarily drowned out).
                self.arm(
                    ctx,
                    SimDuration::from_millis(50),
                    TimerPayload::GraftRetry(graft, attempt + 1),
                );
            }
        }
    }

    fn handle_restart(&mut self, ctx: &mut Ctx<'_, MaodvMsg>) {
        // Mirror of ODMRP's reboot semantics: all soft state — request
        // cache, trees, grafts, duplicate cache, link estimates and the
        // degraded-mode quarantine/backoff state — is lost with the crash;
        // sequence counters and stats survive.
        self.timers.clear();
        self.requests.clear();
        self.trees.clear();
        self.grafted.clear();
        self.delta_scheduled.clear();
        self.pending_grafts.clear();
        self.data_seen.clear();
        self.data_seen_order.clear();
        self.table = NeighborTable::new(self.cfg.estimator.clone());
        self.backoff_exp.iter_mut().for_each(|e| *e = 0);
        self.last_round.iter_mut().for_each(|r| *r = None);
        self.refresh_token.iter_mut().for_each(|t| *t = None);
        self.elected_rounds.clear();
        self.fallback_active = false;
        self.stats.restarts += 1;

        if let Some(interval) = self.prober.as_ref().and_then(|p| p.plan().interval()) {
            let phase = interval.mul_f64(ctx.rng().uniform());
            self.arm(ctx, phase, TimerPayload::Probe);
        }
        let now = ctx.now();
        for i in 0..self.role.sources.len() {
            let spec = self.role.sources[i];
            if now >= spec.stop {
                continue;
            }
            let delay = spec.start.saturating_since(now);
            let token = self.arm(ctx, delay, TimerPayload::Refresh(i));
            self.refresh_token[i] = Some(token);
            self.arm(ctx, delay, TimerPayload::Cbr(i));
        }
    }
}
