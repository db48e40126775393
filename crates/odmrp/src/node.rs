//! The ODMRP node: one [`Protocol`] instance per simulated router.
//!
//! Implements original ODMRP (first-query route selection) and the
//! metric-enhanced protocol of §3.1: cost-accumulating `JOIN QUERY` floods,
//! bounded duplicate forwarding (α window + improvement rule), δ-delayed
//! best-query `JOIN REPLY` at members, forwarding-group maintenance with
//! soft-state timeouts, and flooding of data over the forwarding group.

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

use crate::config::{NodeRole, OdmrpConfig};
use crate::messages::{class, DataPacket, JoinQuery, JoinReply, JoinTableEntry, OdmrpMsg};
use crate::stats::NodeStats;

/// Bound on the network-layer duplicate cache (per node).
const DATA_CACHE_CAP: usize = 50_000;

#[derive(Debug)]
enum TimerPayload {
    /// Send the next probe round.
    Probe,
    /// Emit the next CBR packet of `role.sources[i]`.
    Cbr(usize),
    /// Flood the next `JOIN QUERY` for `role.sources[i]`.
    Refresh(usize),
    /// δ expired: answer the best query of `(source, seq)`.
    Delta(NodeId, u32),
    /// Jittered (re)broadcast of the query for `(source, seq)`.
    ForwardQuery(NodeId, u32),
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
            TimerPayload::ForwardQuery(n, s) => {
                w.put_u8(4);
                n.snap(w);
                w.put_u32(*s);
            }
        }
    }

    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(match r.u8()? {
            0 => TimerPayload::Probe,
            1 => TimerPayload::Cbr(r.usize()?),
            2 => TimerPayload::Refresh(r.usize()?),
            3 => TimerPayload::Delta(Snap::unsnap(r)?, r.u32()?),
            4 => TimerPayload::ForwardQuery(Snap::unsnap(r)?, r.u32()?),
            t => return Err(SnapError::BadTag(t as u32)),
        })
    }
}

/// Per-`(source, seq)` query round state (the message cache of §3.1).
#[derive(Debug)]
struct QueryState {
    group: GroupId,
    /// Best accumulated cost seen so far.
    best_cost: PathCost,
    /// Upstream neighbor of the best query.
    upstream: NodeId,
    /// Hop count of the best query (after our hop).
    hop_count: u8,
    /// Forwarding of improving duplicates allowed until here.
    alpha_deadline: SimTime,
    /// Cost at our last rebroadcast, if we rebroadcast already.
    best_forwarded: Option<PathCost>,
    /// A `ForwardQuery` timer is outstanding.
    forward_pending: bool,
    /// Audit bit: the currently-best upstream's cost was computed from a
    /// quarantined link estimate's measured values. Degraded mode must keep
    /// this false everywhere (the no-quarantined-route oracle checks).
    used_quarantined: bool,
}

mesh_sim::snap_struct! {
    QueryState {
        group, best_cost, upstream, hop_count, alpha_deadline, best_forwarded, forward_pending,
        used_quarantined,
    }
}

/// An ODMRP protocol instance.
///
/// Construct with [`OdmrpNode::new`], hand a `Vec` of them to
/// [`mesh_sim::simulator::Simulator`], and read [`OdmrpNode::stats`] after
/// the run. See the `experiments` crate for turnkey scenario runners.
#[derive(Debug)]
pub struct OdmrpNode {
    cfg: OdmrpConfig,
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

    query_state: BTreeMap<(NodeId, u32), QueryState>,
    /// Groups this node currently forwards for, with expiry.
    fg: BTreeMap<GroupId, SimTime>,
    /// (source, seq) reply rounds already forwarded upstream.
    forwarded_reply: BTreeSet<(NodeId, u32)>,
    /// (source, seq) delta timers already scheduled.
    delta_scheduled: BTreeSet<(NodeId, u32)>,

    data_seen: BTreeSet<(NodeId, u32)>,
    data_seen_order: VecDeque<(NodeId, u32)>,
    data_seq: u32,
    refresh_seq: u32,

    /// Per-source refresh-backoff exponent (degraded mode; 0 = nominal).
    backoff_exp: Vec<u32>,
    /// Per-source refresh seq of the most recent query round we flooded.
    last_round: Vec<Option<u32>>,
    /// Per-source token of the pending `Refresh` timer, so a revival can
    /// cancel a backed-off timer and refresh immediately.
    refresh_token: Vec<Option<u64>>,
    /// Refresh rounds (ours, as source) that elected at least one forwarder
    /// — a `JOIN REPLY` for the round reached us. Keyed access only.
    elected_rounds: BTreeSet<u32>,
    /// Currently routing on the min-hop fallback (no usable estimates).
    fallback_active: bool,
    /// EWMA of MAC transmit failures (unicast retry exhaustion), one input
    /// of the local congestion signal charged by load-aware metrics.
    tx_fail_ewma: f64,

    stats: NodeStats,
}

impl OdmrpNode {
    /// Create a node with the given configuration and role.
    pub fn new(cfg: OdmrpConfig, role: NodeRole) -> Self {
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
        OdmrpNode {
            cfg,
            role,
            metric,
            prober,
            table,
            me: NodeId::new(0),
            timers: BTreeMap::new(),
            timer_token: 0,
            query_state: BTreeMap::new(),
            fg: BTreeMap::new(),
            forwarded_reply: BTreeSet::new(),
            delta_scheduled: BTreeSet::new(),
            data_seen: BTreeSet::new(),
            data_seen_order: VecDeque::new(),
            data_seq: 0,
            refresh_seq: 0,
            backoff_exp: vec![0; n_sources],
            last_round: vec![None; n_sources],
            refresh_token: vec![None; n_sources],
            elected_rounds: BTreeSet::new(),
            fallback_active: false,
            tx_fail_ewma: 0.0,
            stats: NodeStats::default(),
        }
    }

    /// Local congestion in `[0, 1]`: the worse of MAC-queue occupancy and
    /// the unicast retry-failure EWMA. A node handling a `JOIN QUERY` is the
    /// prospective forwarder, so this is the load that load-aware metrics
    /// (WCETT-LB) charge into the accumulated path cost. Under ODMRP's
    /// pure-broadcast substrate the MAC never reports retry exhaustion
    /// (broadcasts are unacknowledged), so queue occupancy is the live
    /// signal; the retry term activates if a deployment adds unicast
    /// traffic.
    fn local_congestion(&self, ctx: &Ctx<'_, OdmrpMsg>) -> f64 {
        let occupancy = ctx.mac_queue_len() as f64 / ctx.mac_queue_cap().max(1) as f64;
        occupancy.clamp(0.0, 1.0).max(self.tx_fail_ewma)
    }

    /// The statistics collected so far.
    pub fn stats(&self) -> &NodeStats {
        &self.stats
    }

    /// The node's role (members/sources).
    pub fn role(&self) -> &NodeRole {
        &self.role
    }

    /// The node's configuration.
    pub fn config(&self) -> &OdmrpConfig {
        &self.cfg
    }

    /// The link-quality table (empty for the original variant).
    pub fn neighbor_table(&self) -> &NeighborTable {
        &self.table
    }

    /// Whether this node is currently a forwarding-group member of `group`.
    pub fn is_forwarding(&self, group: GroupId, now: SimTime) -> bool {
        self.fg.get(&group).is_some_and(|&t| t > now)
    }

    /// Groups this node has *ever* forwarded for (soft state ignored),
    /// ascending (`fg` is a `BTreeMap`).
    pub fn forwarding_groups(&self) -> Vec<GroupId> {
        self.fg.keys().copied().collect()
    }

    /// The upstream chosen for every `(source, seq)` query round this node
    /// has state for, sorted by key. The loop-freedom oracle chases these
    /// pointers across nodes: following upstreams of the same round must
    /// never revisit a node.
    pub fn query_upstreams(&self) -> Vec<((NodeId, u32), NodeId)> {
        self.query_state
            .iter()
            .map(|(&k, st)| (k, st.upstream))
            .collect()
    }

    /// Audit trail for the no-quarantined-route oracle: for every query
    /// round this node has state for, whether the currently-best upstream's
    /// cost consumed the measured values of a quarantined estimate. Sorted
    /// by key.
    pub fn query_audits(&self) -> Vec<((NodeId, u32), bool)> {
        self.query_state
            .iter()
            .map(|(&k, st)| (k, st.used_quarantined))
            .collect()
    }

    /// Current refresh-backoff exponent per source (degraded mode).
    pub fn backoff_exponents(&self) -> &[u32] {
        &self.backoff_exp
    }

    // ------------------------------------------------------------------

    fn arm(
        &mut self,
        ctx: &mut Ctx<'_, OdmrpMsg>,
        delay: SimDuration,
        payload: TimerPayload,
    ) -> u64 {
        self.timer_token += 1;
        let token = self.timer_token;
        self.timers.insert(token, payload);
        ctx.set_timer(delay, token);
        token
    }

    fn jitter(&self, ctx: &mut Ctx<'_, OdmrpMsg>) -> SimDuration {
        let max = self.cfg.control_jitter.as_nanos();
        SimDuration::from_nanos((ctx.rng().uniform() * max as f64) as u64)
    }

    fn send_probe_round(&mut self, ctx: &mut Ctx<'_, OdmrpMsg>) {
        if self.prober.is_none() {
            return;
        }
        if self.cfg.degraded.enabled {
            // Re-classify the table on the probe tick and trace transitions
            // into quarantine.
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
            // A neighbor coming back fresh is new routing evidence: a
            // backed-off source cancels its delayed refresh and floods at
            // the nominal cadence again, so recovery is never gated on a
            // backed-off timer armed during the outage.
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
        // Reverse reports are only consumed by the bidirectional-ETX
        // ablation; skip the bytes otherwise.
        let reverse = if matches!(
            self.metric.as_ref().map(|m| m.kind()),
            Some(mcast_metrics::MetricKind::UnicastEtx)
        ) {
            self.table.reverse_report(ctx.now())
        } else {
            Vec::new()
        };
        for (msg, bytes) in prober.next_round(reverse) {
            if ctx
                .send_broadcast(OdmrpMsg::Probe(msg), bytes, class::PROBE)
                .is_ok()
            {
                self.stats.probes_sent += 1;
            }
        }
        if let Some(interval) = self.prober.as_ref().and_then(|p| p.plan().interval()) {
            // ±10 % desynchronization so probes of different nodes do not
            // phase-lock.
            let f = 0.9 + 0.2 * ctx.rng().uniform();
            self.arm(ctx, interval.mul_f64(f), TimerPayload::Probe);
        }
    }

    fn send_cbr(&mut self, ctx: &mut Ctx<'_, OdmrpMsg>, idx: usize) {
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
        // Count as sent whether or not the MAC queue had room: the
        // application offered it (drop-tail loss is part of the protocol's
        // performance).
        *self.stats.sent.entry(spec.group).or_insert(0) += 1;
        let _ = ctx.send_broadcast(OdmrpMsg::Data(pkt), spec.bytes, class::DATA);
        self.arm(ctx, spec.interval, TimerPayload::Cbr(idx));
    }

    fn send_refresh(&mut self, ctx: &mut Ctx<'_, OdmrpMsg>, idx: usize) {
        let spec = self.role.sources[idx];
        if ctx.now() >= spec.stop {
            return;
        }
        if self.cfg.degraded.enabled {
            // Adapt to the outcome of the previous round: a round that
            // elected no forwarder doubles the refresh interval (bounded);
            // any election resets to the nominal cadence.
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
        let q = JoinQuery {
            group: spec.group,
            source: self.me,
            seq: self.refresh_seq,
            prev_hop: self.me,
            hop_count: 0,
            cost: identity,
        };
        if ctx
            .send_broadcast(OdmrpMsg::JoinQuery(q), JoinQuery::BYTES, class::CONTROL)
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

    fn handle_query(&mut self, ctx: &mut Ctx<'_, OdmrpMsg>, from: NodeId, q: &JoinQuery) {
        if q.source == self.me || q.hop_count >= self.cfg.max_hops {
            return;
        }
        let now = ctx.now();
        let key = (q.source, q.seq);
        let is_member = self.role.is_member(q.group, now);

        match self.metric.clone() {
            None => {
                // Original ODMRP: first copy only, reply immediately.
                if self.query_state.contains_key(&key) {
                    return;
                }
                self.query_state.insert(
                    key,
                    QueryState {
                        group: q.group,
                        best_cost: PathCost::new(q.hop_count as f64 + 1.0),
                        upstream: from,
                        hop_count: q.hop_count + 1,
                        alpha_deadline: now,
                        best_forwarded: None,
                        forward_pending: true,
                        used_quarantined: false,
                    },
                );
                let j = self.jitter(ctx);
                self.arm(ctx, j, TimerPayload::ForwardQuery(q.source, q.seq));
                if is_member && self.delta_scheduled.insert(key) {
                    let j = self.jitter(ctx);
                    self.arm(ctx, j, TimerPayload::Delta(q.source, q.seq));
                }
            }
            Some(metric) => {
                let (obs, fresh) = self.table.classified_observe(from, now);
                let degraded = self.cfg.degraded.enabled;
                // Degraded mode never feeds a quarantined estimate's
                // measured values to the metric: the no-history default is
                // substituted instead, which costs the link like an
                // unmeasured one (constant per-link cost = min-hop).
                let substitute = degraded && fresh == Some(Freshness::Quarantined);
                let (obs, used_measured) = if substitute {
                    self.stats.quarantine_substitutions += 1;
                    (LinkObservation::unknown(self.table.config()), false)
                } else {
                    (obs, fresh.is_some())
                };
                if degraded {
                    let fallback = !self.table.has_usable_estimate(now);
                    if fallback && !self.fallback_active {
                        self.stats.fallback_activations += 1;
                        ctx.trace_decision(Decision::FallbackActivated);
                    }
                    self.fallback_active = fallback;
                }
                let consumed_quarantined = used_measured && fresh == Some(Freshness::Quarantined);
                // We are the prospective forwarder of this query, so charge
                // our own congestion into the link cost. Congestion-blind
                // metrics ignore the field, leaving their costs (and
                // schedules) untouched.
                let mut obs = obs;
                obs.congestion = Some(self.local_congestion(ctx));
                let link = metric.link_cost(&obs);
                let new_cost = metric.accumulate(PathCost::new(q.cost), link);
                match self.query_state.get_mut(&key) {
                    None => {
                        self.query_state.insert(
                            key,
                            QueryState {
                                group: q.group,
                                best_cost: new_cost,
                                upstream: from,
                                hop_count: q.hop_count + 1,
                                alpha_deadline: now + self.cfg.alpha,
                                best_forwarded: None,
                                forward_pending: true,
                                used_quarantined: consumed_quarantined,
                            },
                        );
                        let j = self.jitter(ctx);
                        self.arm(ctx, j, TimerPayload::ForwardQuery(q.source, q.seq));
                        if is_member && self.delta_scheduled.insert(key) {
                            self.arm(ctx, self.cfg.delta, TimerPayload::Delta(q.source, q.seq));
                        }
                    }
                    Some(st) => {
                        if metric.better(new_cost, st.best_cost) {
                            st.best_cost = new_cost;
                            st.upstream = from;
                            st.hop_count = q.hop_count + 1;
                            st.used_quarantined = consumed_quarantined;
                            // Forward the improvement if the α window is
                            // still open and no forward is already pending.
                            let improves_forwarded =
                                st.best_forwarded.is_none_or(|f| metric.better(new_cost, f));
                            if now <= st.alpha_deadline && improves_forwarded && !st.forward_pending
                            {
                                st.forward_pending = true;
                                let j = self.jitter(ctx);
                                self.arm(ctx, j, TimerPayload::ForwardQuery(q.source, q.seq));
                            }
                        }
                    }
                }
            }
        }
    }

    fn forward_query(&mut self, ctx: &mut Ctx<'_, OdmrpMsg>, source: NodeId, seq: u32) {
        let Some(st) = self.query_state.get_mut(&(source, seq)) else {
            return;
        };
        st.forward_pending = false;
        if st.hop_count >= self.cfg.max_hops {
            return;
        }
        if let (Some(metric), Some(fwd)) = (self.metric.as_ref(), st.best_forwarded) {
            if !metric.better(st.best_cost, fwd) {
                return; // nothing new to say
            }
        } else if self.metric.is_none() && st.best_forwarded.is_some() {
            return; // original ODMRP forwards once
        }
        st.best_forwarded = Some(st.best_cost);
        let q = JoinQuery {
            group: st.group,
            source,
            seq,
            prev_hop: self.me,
            hop_count: st.hop_count,
            cost: st.best_cost.value(),
        };
        if ctx
            .send_broadcast(OdmrpMsg::JoinQuery(q), JoinQuery::BYTES, class::CONTROL)
            .is_ok()
        {
            self.stats.queries_forwarded += 1;
            ctx.trace_decision(Decision::ForwardQuery {
                source,
                pkt_seq: seq,
            });
        }
    }

    fn send_reply(&mut self, ctx: &mut Ctx<'_, OdmrpMsg>, source: NodeId, seq: u32) {
        let Some(st) = self.query_state.get(&(source, seq)) else {
            return;
        };
        let reply = JoinReply {
            group: st.group,
            sender: self.me,
            entries: vec![JoinTableEntry {
                source,
                seq,
                next_hop: st.upstream,
            }],
        };
        let bytes = reply.bytes();
        let upstream = st.upstream;
        if ctx
            .send_broadcast(OdmrpMsg::JoinReply(reply), bytes, class::CONTROL)
            .is_ok()
        {
            self.stats.replies_sent += 1;
            *self
                .stats
                .tree_edges
                .entry((upstream, self.me))
                .or_insert(0) += 1;
            ctx.trace_decision(Decision::SendReply {
                source,
                pkt_seq: seq,
            });
        }
    }

    fn handle_reply(&mut self, ctx: &mut Ctx<'_, OdmrpMsg>, r: &JoinReply) {
        let now = ctx.now();
        for e in &r.entries {
            if e.next_hop != self.me {
                continue;
            }
            // We were selected: join the forwarding group for this group.
            let expiry = now + self.cfg.fg_timeout;
            let slot = self.fg.entry(r.group).or_insert(expiry);
            *slot = (*slot).max(expiry);
            self.stats.fg_refreshes += 1;
            ctx.trace_decision(Decision::FgJoin { group: r.group.0 });
            let sel = self.stats.fg_selected.entry(r.group).or_insert(now);
            *sel = (*sel).max(now);

            if e.source == self.me {
                // The reply chain reached us: this refresh round elected a
                // forwarding group, so the refresh backoff resets.
                self.elected_rounds.insert(e.seq);
            }
            if e.source != self.me && self.forwarded_reply.insert((e.source, e.seq)) {
                self.send_reply(ctx, e.source, e.seq);
            }
        }
    }

    fn handle_data(&mut self, ctx: &mut Ctx<'_, OdmrpMsg>, from: NodeId, d: &DataPacket) {
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
        if self.is_forwarding(d.group, now)
            && ctx
                .send_broadcast(OdmrpMsg::Data(d.clone()), d.bytes, class::DATA)
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

impl SnapshotState for OdmrpNode {
    fn snapshot_state(&self, w: &mut SnapWriter) {
        // `cfg`, `role`, and `metric` are configuration: the restoring side
        // rebuilds them from the scenario (fingerprint-checked at the
        // header). Everything below is mutable run state — including `me`,
        // because `start()` never re-runs on a restored simulator.
        self.me.snap(w);
        self.timers.snap(w);
        w.put_u64(self.timer_token);
        self.query_state.snap(w);
        self.fg.snap(w);
        self.forwarded_reply.snap(w);
        self.delta_scheduled.snap(w);
        self.data_seen.snap(w);
        self.data_seen_order.snap(w);
        w.put_u32(self.data_seq);
        w.put_u32(self.refresh_seq);
        self.backoff_exp.snap(w);
        self.last_round.snap(w);
        self.refresh_token.snap(w);
        self.elected_rounds.snap(w);
        w.put_bool(self.fallback_active);
        w.put_f64(self.tx_fail_ewma);
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
        self.query_state = Snap::unsnap(r)?;
        self.fg = Snap::unsnap(r)?;
        self.forwarded_reply = Snap::unsnap(r)?;
        self.delta_scheduled = Snap::unsnap(r)?;
        self.data_seen = Snap::unsnap(r)?;
        self.data_seen_order = Snap::unsnap(r)?;
        self.data_seq = r.u32()?;
        self.refresh_seq = r.u32()?;
        let backoff_exp: Vec<u32> = Snap::unsnap(r)?;
        if backoff_exp.len() != self.role.sources.len() {
            return Err(SnapError::StateMismatch("ODMRP source count"));
        }
        self.backoff_exp = backoff_exp;
        self.last_round = Snap::unsnap(r)?;
        self.refresh_token = Snap::unsnap(r)?;
        if self.last_round.len() != self.backoff_exp.len()
            || self.refresh_token.len() != self.backoff_exp.len()
        {
            return Err(SnapError::StateMismatch("ODMRP per-source state length"));
        }
        self.elected_rounds = Snap::unsnap(r)?;
        self.fallback_active = r.bool()?;
        self.tx_fail_ewma = r.f64()?;
        self.stats = Snap::unsnap(r)?;
        let has_prober = r.bool()?;
        if has_prober != self.prober.is_some() {
            return Err(SnapError::StateMismatch("ODMRP prober presence"));
        }
        if let Some(p) = &mut self.prober {
            p.restore_state(r)?;
        }
        self.table.restore_state(r)
    }
}

impl crate::stats::MulticastApp for OdmrpNode {
    fn node_stats(&self) -> &NodeStats {
        &self.stats
    }
    fn variant(&self) -> crate::Variant {
        self.cfg.variant
    }
}

impl Protocol for OdmrpNode {
    type Msg = OdmrpMsg;

    fn start(&mut self, ctx: &mut Ctx<'_, OdmrpMsg>) {
        self.me = ctx.node();
        if let Some(interval) = self.prober.as_ref().and_then(|p| p.plan().interval()) {
            // First probe at a random phase within one interval.
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
        ctx: &mut Ctx<'_, OdmrpMsg>,
        src: NodeId,
        msg: &OdmrpMsg,
        _meta: RxMeta,
    ) {
        match msg {
            OdmrpMsg::Probe(p) => {
                let now = ctx.now();
                self.table.handle_probe(src, p, self.me, now);
            }
            OdmrpMsg::JoinQuery(q) => self.handle_query(ctx, src, q),
            OdmrpMsg::JoinReply(r) => self.handle_reply(ctx, r),
            OdmrpMsg::Data(d) => self.handle_data(ctx, src, d),
        }
    }

    fn handle_timer(&mut self, ctx: &mut Ctx<'_, OdmrpMsg>, _timer: TimerId, kind: u64) {
        let Some(payload) = self.timers.remove(&kind) else {
            return;
        };
        match payload {
            TimerPayload::Probe => self.send_probe_round(ctx),
            TimerPayload::Cbr(i) => self.send_cbr(ctx, i),
            TimerPayload::Refresh(i) => self.send_refresh(ctx, i),
            TimerPayload::Delta(source, seq) => self.send_reply(ctx, source, seq),
            TimerPayload::ForwardQuery(source, seq) => self.forward_query(ctx, source, seq),
        }
    }

    fn handle_tx_complete(
        &mut self,
        _ctx: &mut Ctx<'_, OdmrpMsg>,
        _handle: TxHandle,
        outcome: TxOutcome,
    ) {
        // Everything ODMRP itself sends is broadcast, which the MAC never
        // retries, so under this protocol `Failed` cannot occur and the
        // EWMA stays 0. Tracking the verdict anyway keeps the congestion
        // signal honest if a deployment routes unicast traffic through the
        // same MAC.
        let fail = if outcome.is_sent() { 0.0 } else { 1.0 };
        self.tx_fail_ewma = 0.9 * self.tx_fail_ewma + 0.1 * fail;
    }

    fn handle_restart(&mut self, ctx: &mut Ctx<'_, OdmrpMsg>) {
        // All soft state is volatile and lost with the crash. Sequence
        // numbers survive (monotone counters avoid post-reboot duplicate-key
        // collisions at nodes that cached our pre-crash packets), and stats
        // survive because they model the experimenter's notebook, not the
        // node's RAM.
        self.timers.clear();
        self.query_state.clear();
        self.fg.clear();
        self.forwarded_reply.clear();
        self.delta_scheduled.clear();
        self.data_seen.clear();
        self.data_seen_order.clear();
        self.table = NeighborTable::new(self.cfg.estimator.clone());
        // Degraded-mode soft state is flushed with the rest: the fresh
        // table has no quarantined entries, backoff restarts at nominal.
        self.backoff_exp.iter_mut().for_each(|e| *e = 0);
        self.last_round.iter_mut().for_each(|r| *r = None);
        self.refresh_token.iter_mut().for_each(|t| *t = None);
        self.elected_rounds.clear();
        self.fallback_active = false;
        self.tx_fail_ewma = 0.0;
        self.stats.restarts += 1;
        self.stats.fg_selected.clear();

        // Re-arm the periodic machinery exactly as `start` does, except
        // sources whose window already closed stay silent.
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
