//! The discrete-event queue.
//!
//! Events are ordered by `(time, sequence number)`: ties in simulated time
//! are broken by insertion order, which makes runs fully deterministic.

use std::cmp::Ordering;
use std::collections::binary_heap::PeekMut;
use std::collections::{BTreeMap, BinaryHeap};

use crate::ids::{FrameId, NodeId, TimerId};
use crate::medium::RxPlan;
use crate::snapshot::{Snap, SnapError, SnapReader, SnapWriter};
use crate::time::{SimDuration, SimTime};

/// The kinds of events the simulator processes.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum EventKind {
    /// A MAC state-machine timer (DIFS end, backoff end, CTS/ACK timeout).
    MacTimer { node: NodeId, gen: u64 },
    /// A pending SIFS-spaced control response (CTS or ACK) is due.
    CtrlTimer { node: NodeId, gen: u64 },
    /// A transmission by `node` finishes.
    TxEnd { node: NodeId, frame: FrameId },
    /// The first energy of `frame` arrives at `node`.
    RxStart {
        node: NodeId,
        frame: FrameId,
        power_w: f64,
    },
    /// The last energy of `frame` leaves `node`.
    RxEnd {
        node: NodeId,
        frame: FrameId,
        power_w: f64,
    },
    /// A protocol timer fires.
    ProtoTimer {
        node: NodeId,
        timer: TimerId,
        kind: u64,
    },
    /// The mobility model is due for a position update.
    MobilityTick,
    /// Entry `idx` of the attached fault plan fires.
    Fault { idx: usize },
}

/// One dequeued (or, in a snapshot, pending) event.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ScheduledEvent {
    pub time: SimTime,
    pub seq: u64,
    pub kind: EventKind,
}

/// Fold one dequeued event into a running FNV-1a schedule hash.
///
/// The hash commits to the exact dequeue order `(time, seq, kind)` of every
/// event the simulator processes, so two runs of the same
/// `(scenario, plan, seed)` agree on it iff their event schedules are
/// bit-identical. This is the runtime cross-check behind the static
/// determinism rules (mesh-lint R1–R5, DESIGN.md §10): counters can collide
/// by luck, the schedule hash cannot realistically do so.
pub(crate) fn fold_schedule_hash(h: &mut u64, ev: &ScheduledEvent) {
    fn fold(h: &mut u64, v: u64) {
        for byte in v.to_le_bytes() {
            *h ^= byte as u64;
            *h = h.wrapping_mul(0x0000_0100_0000_01B3); // FNV-1a prime
        }
    }
    fold(h, ev.time.as_nanos());
    fold(h, ev.seq);
    match ev.kind {
        EventKind::MacTimer { node, gen } => {
            fold(h, 1);
            fold(h, node.as_u32() as u64);
            fold(h, gen);
        }
        EventKind::CtrlTimer { node, gen } => {
            fold(h, 2);
            fold(h, node.as_u32() as u64);
            fold(h, gen);
        }
        EventKind::TxEnd { node, frame } => {
            fold(h, 3);
            fold(h, node.as_u32() as u64);
            fold(h, frame.as_u64());
        }
        EventKind::RxStart {
            node,
            frame,
            power_w,
        } => {
            fold(h, 4);
            fold(h, node.as_u32() as u64);
            fold(h, frame.as_u64());
            fold(h, power_w.to_bits());
        }
        EventKind::RxEnd {
            node,
            frame,
            power_w,
        } => {
            fold(h, 5);
            fold(h, node.as_u32() as u64);
            fold(h, frame.as_u64());
            fold(h, power_w.to_bits());
        }
        EventKind::ProtoTimer { node, timer, kind } => {
            fold(h, 6);
            fold(h, node.as_u32() as u64);
            fold(h, timer.0);
            fold(h, kind);
        }
        EventKind::MobilityTick => fold(h, 7),
        EventKind::Fault { idx } => {
            fold(h, 8);
            fold(h, idx as u64);
        }
    }
}

/// FNV-1a offset basis: the schedule hash of a run with zero events.
pub(crate) const SCHEDULE_HASH_SEED: u64 = 0xcbf2_9ce4_8422_2325;

// Wire tags match the schedule-hash kind tags (1–8) so the two encodings
// can never silently drift apart.
impl Snap for EventKind {
    fn snap(&self, w: &mut SnapWriter) {
        match *self {
            EventKind::MacTimer { node, gen } => {
                w.put_u8(1);
                node.snap(w);
                w.put_u64(gen);
            }
            EventKind::CtrlTimer { node, gen } => {
                w.put_u8(2);
                node.snap(w);
                w.put_u64(gen);
            }
            EventKind::TxEnd { node, frame } => {
                w.put_u8(3);
                node.snap(w);
                frame.snap(w);
            }
            EventKind::RxStart {
                node,
                frame,
                power_w,
            } => {
                w.put_u8(4);
                node.snap(w);
                frame.snap(w);
                w.put_f64(power_w);
            }
            EventKind::RxEnd {
                node,
                frame,
                power_w,
            } => {
                w.put_u8(5);
                node.snap(w);
                frame.snap(w);
                w.put_f64(power_w);
            }
            EventKind::ProtoTimer { node, timer, kind } => {
                w.put_u8(6);
                node.snap(w);
                timer.snap(w);
                w.put_u64(kind);
            }
            EventKind::MobilityTick => w.put_u8(7),
            EventKind::Fault { idx } => {
                w.put_u8(8);
                w.put_usize(idx);
            }
        }
    }

    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(match r.u8()? {
            1 => EventKind::MacTimer {
                node: NodeId::unsnap(r)?,
                gen: r.u64()?,
            },
            2 => EventKind::CtrlTimer {
                node: NodeId::unsnap(r)?,
                gen: r.u64()?,
            },
            3 => EventKind::TxEnd {
                node: NodeId::unsnap(r)?,
                frame: FrameId::unsnap(r)?,
            },
            4 => EventKind::RxStart {
                node: NodeId::unsnap(r)?,
                frame: FrameId::unsnap(r)?,
                power_w: r.f64()?,
            },
            5 => EventKind::RxEnd {
                node: NodeId::unsnap(r)?,
                frame: FrameId::unsnap(r)?,
                power_w: r.f64()?,
            },
            6 => EventKind::ProtoTimer {
                node: NodeId::unsnap(r)?,
                timer: TimerId::unsnap(r)?,
                kind: r.u64()?,
            },
            7 => EventKind::MobilityTick,
            8 => EventKind::Fault { idx: r.usize()? },
            t => return Err(SnapError::BadTag(t as u32)),
        })
    }
}

crate::snap_struct! { ScheduledEvent { time, seq, kind } }

/// The pending events of a queue in their unique `(time, seq)` dequeue
/// order: the canonical wire form of an [`EventQueue`].
///
/// A snapshot writes the queue as this flat list — arrival cursors
/// expanded back into their individual RxStart/RxEnd events — so the bytes
/// do not depend on how the live queue groups them. Restoring is two-step
/// because regrouping needs each frame's airtime, which is decoded after
/// the queue: [`Snap::unsnap`] reads the list, [`EventQueue::regroup`]
/// rebuilds the cursors.
#[derive(Debug)]
pub(crate) struct PendingEvents {
    pub events: Vec<ScheduledEvent>,
    /// The queue's next sequence number.
    pub seq: u64,
}

crate::snap_struct! { PendingEvents { events, seq } }

/// One receiver of a fanned-out frame: its RxStart is `(at, seq)` and its
/// RxEnd is `(at + air, seq + 1)`.
#[derive(Debug, Clone, Copy)]
struct Arrival {
    at: SimTime,
    seq: u64,
    node: NodeId,
    power_w: f64,
}

/// The not-yet-dequeued receptions of one frame.
///
/// `arrivals` is sorted by `(at, seq)`; because every RxEnd is its RxStart
/// shifted by the same airtime, the ends come due in that same order. So
/// the pending starts are `arrivals[next_start..]`, the pending ends are
/// `arrivals[next_end..]` (`next_end <= next_start`: an end never precedes
/// its own start), and the cursor's next event is the earlier of the two
/// heads.
#[derive(Debug)]
struct ArrivalCursor {
    frame: FrameId,
    air: SimDuration,
    arrivals: Vec<Arrival>,
    next_start: usize,
    next_end: usize,
}

impl ArrivalCursor {
    fn start_key(&self) -> Option<(SimTime, u64)> {
        self.arrivals.get(self.next_start).map(|a| (a.at, a.seq))
    }

    fn end_key(&self) -> Option<(SimTime, u64)> {
        self.arrivals
            .get(self.next_end)
            .map(|a| (a.at + self.air, a.seq + 1))
    }

    /// `(time, seq)` of the cursor's next event; `None` once drained.
    fn next_key(&self) -> Option<(SimTime, u64)> {
        match (self.start_key(), self.end_key()) {
            (Some(s), Some(e)) => Some(s.min(e)),
            (s, e) => s.or(e),
        }
    }

    /// Dequeue the event keyed `seq`, which must be the cursor's next one.
    fn take(&mut self, seq: u64) -> Option<EventKind> {
        let frame = self.frame;
        if let Some(a) = self.arrivals.get(self.next_start).filter(|a| a.seq == seq) {
            self.next_start += 1;
            return Some(EventKind::RxStart {
                node: a.node,
                frame,
                power_w: a.power_w,
            });
        }
        let a = self.arrivals.get(self.next_end)?;
        self.next_end += 1;
        Some(EventKind::RxEnd {
            node: a.node,
            frame,
            power_w: a.power_w,
        })
    }

    /// Append the cursor's pending events, as the flat queue held them.
    fn expand(&self, out: &mut Vec<ScheduledEvent>) {
        let frame = self.frame;
        for a in self.arrivals.iter().skip(self.next_start) {
            out.push(ScheduledEvent {
                time: a.at,
                seq: a.seq,
                kind: EventKind::RxStart {
                    node: a.node,
                    frame,
                    power_w: a.power_w,
                },
            });
        }
        for a in self.arrivals.iter().skip(self.next_end) {
            out.push(ScheduledEvent {
                time: a.at + self.air,
                seq: a.seq + 1,
                kind: EventKind::RxEnd {
                    node: a.node,
                    frame,
                    power_w: a.power_w,
                },
            });
        }
    }
}

/// What a heap entry stands for.
#[derive(Debug)]
enum Slot {
    /// A single event.
    Event(EventKind),
    /// Index of an [`ArrivalCursor`] in `EventQueue::cursors`.
    Cursor(u32),
}

/// A heap entry, keyed by the `(time, seq)` of the event it yields next.
#[derive(Debug)]
struct Entry {
    time: SimTime,
    seq: u64,
    slot: Slot,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Entry {}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: BinaryHeap is a max-heap, we want the earliest event first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Min-heap of scheduled events with deterministic tie-breaking.
///
/// A frame's receptions are not pushed one heap entry each: they share one
/// [`ArrivalCursor`], and the heap holds a single entry for it keyed by
/// the cursor's next `(time, seq)`. The sequence numbers are still
/// reserved at fan-out, two per receiver in plan order, so the dequeued
/// `(time, seq, kind)` stream is exactly the one a flat heap would yield.
/// Drained cursors and their arrival buffers are recycled, so steady state
/// allocates nothing.
#[derive(Debug, Default)]
pub(crate) struct EventQueue {
    heap: BinaryHeap<Entry>,
    cursors: Vec<ArrivalCursor>,
    /// Indices of drained cursors, ready for reuse.
    free: Vec<u32>,
    seq: u64,
    /// Pending events, counting every event a cursor still holds.
    pending: usize,
}

impl EventQueue {
    pub fn new() -> Self {
        EventQueue::default()
    }

    /// Schedule `kind` at absolute time `time`.
    pub fn push(&mut self, time: SimTime, kind: EventKind) {
        let seq = self.seq;
        self.seq += 1;
        self.pending += 1;
        self.heap.push(Entry {
            time,
            seq,
            slot: Slot::Event(kind),
        });
    }

    // mesh-lint: hot(event-queue)
    /// Schedule the RxStart (at `now + delay`) and RxEnd (`air` later) of
    /// every receiver in `plans` for `frame`. Sequence numbers are reserved
    /// as if each plan's start and end were pushed in turn, in plan order.
    pub fn push_arrivals(
        &mut self,
        now: SimTime,
        air: SimDuration,
        frame: FrameId,
        plans: &[RxPlan],
    ) {
        if plans.is_empty() {
            return;
        }
        let seq0 = self.seq;
        self.seq += 2 * plans.len() as u64;
        self.pending += 2 * plans.len();
        let idx = match self.free.pop() {
            Some(idx) => idx,
            None => {
                // The pool only grows to the peak number of frames in
                // flight; drained cursors are recycled through `free`.
                self.cursors.push(ArrivalCursor {
                    frame,
                    air,
                    // mesh-lint: allow(R8, "capacity-0 Vec::new() does not allocate; the buffer grows only while its pool slot first reaches the largest fan-out")
                    arrivals: Vec::new(),
                    next_start: 0,
                    next_end: 0,
                });
                (self.cursors.len() - 1) as u32
            }
        };
        // `idx` was just popped from the free list or pushed, so it is live.
        let cursor = &mut self.cursors[idx as usize];
        cursor.frame = frame;
        cursor.air = air;
        cursor.next_start = 0;
        cursor.next_end = 0;
        cursor.arrivals.clear();
        cursor.arrivals.extend(
            plans
                .iter()
                .zip((seq0..).step_by(2))
                .map(|(p, seq)| Arrival {
                    at: now + p.delay,
                    seq,
                    node: p.node,
                    power_w: p.power_w,
                }),
        );
        // Keys are unique (distinct seqs), so the unstable sort is exact.
        cursor.arrivals.sort_unstable_by_key(|a| (a.at, a.seq));
        if let Some((time, seq)) = cursor.start_key() {
            self.heap.push(Entry {
                time,
                seq,
                slot: Slot::Cursor(idx),
            });
        }
    }
    // mesh-lint: end-hot

    /// Pop the earliest event if it occurs at or before `limit`.
    pub fn pop_if_at_or_before(&mut self, limit: SimTime) -> Option<ScheduledEvent> {
        loop {
            let mut top = self.heap.peek_mut()?;
            if top.time > limit {
                return None;
            }
            let (time, seq) = (top.time, top.seq);
            let idx = match top.slot {
                Slot::Cursor(idx) => idx,
                Slot::Event(_) => {
                    self.pending -= 1;
                    let Slot::Event(kind) = PeekMut::pop(top).slot else {
                        return None;
                    };
                    return Some(ScheduledEvent { time, seq, kind });
                }
            };
            // mesh-lint: hot(event-queue)
            // Drain the cursor in place: re-key its entry (the heap sifts it
            // down when `top` drops) or, once empty, pop and recycle it.
            let Some(cursor) = self.cursors.get_mut(idx as usize) else {
                PeekMut::pop(top);
                continue;
            };
            let kind = cursor.take(seq);
            match cursor.next_key() {
                Some((t, s)) => {
                    top.time = t;
                    top.seq = s;
                }
                None => {
                    PeekMut::pop(top);
                    self.free.push(idx);
                }
            }
            // mesh-lint: end-hot
            if let Some(kind) = kind {
                self.pending -= 1;
                return Some(ScheduledEvent { time, seq, kind });
            }
        }
    }

    /// Time of the next event, if any.
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }

    pub fn len(&self) -> usize {
        self.pending
    }

    #[cfg_attr(not(test), allow(dead_code))]
    pub fn is_empty(&self) -> bool {
        self.pending == 0
    }

    /// The pending events, cursors expanded, in dequeue order.
    pub fn to_pending(&self) -> PendingEvents {
        let mut events = Vec::with_capacity(self.pending);
        for e in self.heap.iter() {
            match &e.slot {
                Slot::Event(kind) => events.push(ScheduledEvent {
                    time: e.time,
                    seq: e.seq,
                    kind: kind.clone(),
                }),
                Slot::Cursor(idx) => {
                    if let Some(cursor) = self.cursors.get(*idx as usize) {
                        cursor.expand(&mut events);
                    }
                }
            }
        }
        events.sort_by_key(|e| (e.time, e.seq));
        PendingEvents {
            events,
            seq: self.seq,
        }
    }

    /// Serialize as the flat [`PendingEvents`] list, so the bytes are
    /// those of a queue holding every reception as its own event.
    pub fn snap(&self, w: &mut SnapWriter) {
        self.to_pending().snap(w);
    }

    /// Rebuild a live queue from a decoded flat list, regrouping each
    /// frame's RxStart/RxEnd events into one cursor. `air_of` yields the
    /// airtime of an in-flight frame (`None` if it is not in flight).
    ///
    /// # Errors
    ///
    /// [`SnapError::StateMismatch`] if the receptions cannot be the pending
    /// rest of a fan-out: a frame that is not in flight, an RxEnd earlier
    /// than its frame's airtime, RxEnd seqs of mixed parity within a frame,
    /// or pending RxStarts that are not the tail of the pending RxEnds
    /// shifted back by the airtime.
    pub fn regroup(
        pending: PendingEvents,
        air_of: impl Fn(FrameId) -> Option<SimDuration>,
    ) -> Result<Self, SnapError> {
        struct Group {
            starts: Vec<ScheduledEvent>,
            ends: Vec<ScheduledEvent>,
        }
        let mut q = EventQueue {
            seq: pending.seq,
            pending: pending.events.len(),
            ..EventQueue::default()
        };
        let mut groups: BTreeMap<FrameId, Group> = BTreeMap::new();
        for ev in pending.events {
            let (frame, is_start) = match ev.kind {
                EventKind::RxStart { frame, .. } => (frame, true),
                EventKind::RxEnd { frame, .. } => (frame, false),
                kind => {
                    q.heap.push(Entry {
                        time: ev.time,
                        seq: ev.seq,
                        slot: Slot::Event(kind),
                    });
                    continue;
                }
            };
            let g = groups.entry(frame).or_insert_with(|| Group {
                starts: Vec::new(),
                ends: Vec::new(),
            });
            if is_start {
                g.starts.push(ev);
            } else {
                g.ends.push(ev);
            }
        }
        for (frame, mut g) in groups {
            let air = air_of(frame).ok_or(SnapError::StateMismatch(
                "queued reception of a frame that is not in flight",
            ))?;
            g.starts.sort_by_key(|e| (e.time, e.seq));
            g.ends.sort_by_key(|e| (e.time, e.seq));
            let parity = g.ends.first().map_or(0, |e| e.seq & 1);
            let mut arrivals = Vec::with_capacity(g.ends.len());
            for e in &g.ends {
                let (EventKind::RxEnd { node, power_w, .. }, Some(at_ns), Some(seq)) = (
                    &e.kind,
                    e.time.as_nanos().checked_sub(air.as_nanos()),
                    e.seq.checked_sub(1),
                ) else {
                    return Err(SnapError::StateMismatch(
                        "queued RxEnd earlier than its frame's airtime",
                    ));
                };
                if e.seq & 1 != parity {
                    return Err(SnapError::StateMismatch(
                        "queued RxEnd seqs of one frame differ in parity",
                    ));
                }
                arrivals.push(Arrival {
                    at: SimTime::from_nanos(at_ns),
                    seq,
                    node: *node,
                    power_w: *power_w,
                });
            }
            let next_start = arrivals.len().checked_sub(g.starts.len());
            let tail_matches = next_start
                .and_then(|k| arrivals.get(k..))
                .is_some_and(|tail| {
                    tail.iter().zip(&g.starts).all(|(a, s)| {
                        s.time == a.at
                            && s.seq == a.seq
                            && matches!(s.kind, EventKind::RxStart { node, power_w, .. }
                                if node == a.node && power_w.to_bits() == a.power_w.to_bits())
                    })
                });
            let (true, Some(next_start)) = (tail_matches, next_start) else {
                return Err(SnapError::StateMismatch(
                    "queued RxStarts are not the tail of their frame's RxEnds",
                ));
            };
            let cursor = ArrivalCursor {
                frame,
                air,
                arrivals,
                next_start,
                next_end: 0,
            };
            if let Some((time, seq)) = cursor.next_key() {
                let idx = q.cursors.len() as u32;
                q.cursors.push(cursor);
                q.heap.push(Entry {
                    time,
                    seq,
                    slot: Slot::Cursor(idx),
                });
            }
        }
        Ok(q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy(node: u32) -> EventKind {
        EventKind::MacTimer {
            node: NodeId::new(node),
            gen: 0,
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(30), dummy(3));
        q.push(SimTime::from_nanos(10), dummy(1));
        q.push(SimTime::from_nanos(20), dummy(2));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop_if_at_or_before(SimTime::MAX))
            .map(|e| e.time.as_nanos())
            .collect();
        assert_eq!(order, vec![10, 20, 30]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(5);
        q.push(t, dummy(1));
        q.push(t, dummy(2));
        q.push(t, dummy(3));
        let nodes: Vec<u32> = std::iter::from_fn(|| q.pop_if_at_or_before(SimTime::MAX))
            .map(|e| match e.kind {
                EventKind::MacTimer { node, .. } => node.as_u32(),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(nodes, vec![1, 2, 3]);
    }

    #[test]
    fn respects_limit() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(100), dummy(1));
        assert!(q.pop_if_at_or_before(SimTime::from_nanos(99)).is_none());
        assert!(q.pop_if_at_or_before(SimTime::from_nanos(100)).is_some());
        assert!(q.is_empty());
    }

    #[test]
    fn schedule_hash_commits_to_dequeue_order() {
        let drain = |pushes: &[(u64, u32)]| {
            let mut q = EventQueue::new();
            for &(t, n) in pushes {
                q.push(SimTime::from_nanos(t), dummy(n));
            }
            let mut h = SCHEDULE_HASH_SEED;
            while let Some(ev) = q.pop_if_at_or_before(SimTime::MAX) {
                fold_schedule_hash(&mut h, &ev);
            }
            h
        };
        let a = drain(&[(10, 1), (20, 2)]);
        let b = drain(&[(10, 1), (20, 2)]);
        let swapped = drain(&[(10, 2), (20, 1)]);
        assert_eq!(a, b, "identical schedules must hash identically");
        assert_ne!(a, swapped, "different event payloads must change the hash");
        assert_ne!(a, SCHEDULE_HASH_SEED, "events must perturb the seed value");
    }

    #[test]
    fn peek_time() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.push(SimTime::from_nanos(42), dummy(1));
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(42)));
        assert_eq!(q.len(), 1);
    }

    /// Test-only oracle: the flat queue the arrival cursors replaced, one
    /// heap entry per RxStart and per RxEnd.
    #[derive(Default)]
    struct FlatQueue {
        heap: BinaryHeap<Entry>,
        seq: u64,
    }

    impl FlatQueue {
        fn push(&mut self, time: SimTime, kind: EventKind) {
            let seq = self.seq;
            self.seq += 1;
            self.heap.push(Entry {
                time,
                seq,
                slot: Slot::Event(kind),
            });
        }

        fn push_arrivals(
            &mut self,
            now: SimTime,
            air: SimDuration,
            frame: FrameId,
            plans: &[RxPlan],
        ) {
            for plan in plans {
                self.push(
                    now + plan.delay,
                    EventKind::RxStart {
                        node: plan.node,
                        frame,
                        power_w: plan.power_w,
                    },
                );
                self.push(
                    now + plan.delay + air,
                    EventKind::RxEnd {
                        node: plan.node,
                        frame,
                        power_w: plan.power_w,
                    },
                );
            }
        }

        fn pop_if_at_or_before(&mut self, limit: SimTime) -> Option<ScheduledEvent> {
            if self.heap.peek()?.time > limit {
                return None;
            }
            let e = self.heap.pop()?;
            let Slot::Event(kind) = e.slot else {
                unreachable!("the flat queue holds no cursors")
            };
            Some(ScheduledEvent {
                time: e.time,
                seq: e.seq,
                kind,
            })
        }

        fn len(&self) -> usize {
            self.heap.len()
        }

        fn to_pending(&self) -> PendingEvents {
            let mut events: Vec<ScheduledEvent> = self
                .heap
                .iter()
                .map(|e| match &e.slot {
                    Slot::Event(kind) => ScheduledEvent {
                        time: e.time,
                        seq: e.seq,
                        kind: kind.clone(),
                    },
                    Slot::Cursor(_) => unreachable!("the flat queue holds no cursors"),
                })
                .collect();
            events.sort_by_key(|e| (e.time, e.seq));
            PendingEvents {
                events,
                seq: self.seq,
            }
        }
    }

    fn queue_bytes(q: &EventQueue) -> Vec<u8> {
        let mut w = SnapWriter::new();
        q.snap(&mut w);
        w.into_bytes()
    }

    fn pending_bytes(p: &PendingEvents) -> Vec<u8> {
        let mut w = SnapWriter::new();
        p.snap(&mut w);
        w.into_bytes()
    }

    /// Decode `bytes` and regroup them into a live queue.
    fn restore(
        bytes: &[u8],
        airs: &BTreeMap<FrameId, SimDuration>,
    ) -> Result<EventQueue, SnapError> {
        let mut r = SnapReader::new(bytes);
        let pending = PendingEvents::unsnap(&mut r)?;
        r.finish()?;
        EventQueue::regroup(pending, |f| airs.get(&f).copied())
    }

    fn plan(node: u32, delay_ns: u64, power_w: f64) -> RxPlan {
        RxPlan {
            node: NodeId::new(node),
            power_w,
            delay: SimDuration::from_nanos(delay_ns),
        }
    }

    /// One step of a random queue workload: `(op, a, b, plans)`.
    ///
    /// * op 0 — inline push `a` ns after the clock;
    /// * op 1 — fan out `plans` (node, delay, power) at the clock with
    ///   airtime `b`: nodes unsorted, delays tied, `b` often shorter than
    ///   the delay spread so starts and ends interleave, plans may be empty;
    /// * op 2 — drain up to `a` ns after the clock;
    /// * op 3 — as op 2, then replace the cursor queue by its own restored
    ///   snapshot (possibly mid-frame).
    type Op = (u8, u64, u64, Vec<(u32, u64, u8)>);

    fn ops() -> impl Strategy<Value = Vec<Op>> {
        prop::collection::vec(
            (
                0u8..4,
                0u64..40,
                0u64..12,
                prop::collection::vec((0u32..16, 0u64..8, 0u8..3), 0..10),
            ),
            1..80,
        )
    }

    use proptest::prelude::*;

    proptest! {
        /// The cursor queue is observably the flat queue: same dequeued
        /// `(time, seq, kind)` stream, same `len()`, same snapshot bytes at
        /// every drain point, same schedule hash — across restores too.
        #[test]
        fn cursor_queue_matches_flat_oracle(ops in ops()) {
            let mut q = EventQueue::new();
            let mut flat = FlatQueue::default();
            let mut airs = BTreeMap::new();
            let (mut h_q, mut h_flat) = (SCHEDULE_HASH_SEED, SCHEDULE_HASH_SEED);
            let mut clock = SimTime::ZERO;
            let mut frames = 0u64;
            let mut plans = Vec::new();
            for (op, a, b, raw) in ops.into_iter().chain([(2, u64::MAX, 0, Vec::new())]) {
                match op {
                    0 => {
                        let kind = dummy(a as u32);
                        q.push(clock + SimDuration::from_nanos(a), kind.clone());
                        flat.push(clock + SimDuration::from_nanos(a), kind);
                    }
                    1 => {
                        plans.clear();
                        plans.extend(raw.iter().map(|&(n, d, p)| plan(n, d, [1e-9, 2e-9, 0.5][p as usize])));
                        let air = SimDuration::from_nanos(b);
                        let frame = FrameId(frames);
                        frames += 1;
                        airs.insert(frame, air);
                        q.push_arrivals(clock, air, frame, &plans);
                        flat.push_arrivals(clock, air, frame, &plans);
                    }
                    _ => {
                        let limit = clock + SimDuration::from_nanos(a);
                        loop {
                            let got = q.pop_if_at_or_before(limit);
                            let want = flat.pop_if_at_or_before(limit);
                            prop_assert_eq!(&got, &want);
                            let Some(ev) = got else { break };
                            fold_schedule_hash(&mut h_q, &ev);
                            if let Some(want) = want {
                                fold_schedule_hash(&mut h_flat, &want);
                            }
                            prop_assert_eq!(q.len(), flat.len());
                        }
                        clock = limit.max(clock);
                        let bytes = queue_bytes(&q);
                        prop_assert_eq!(&bytes, &pending_bytes(&flat.to_pending()));
                        if op == 3 {
                            let restored = restore(&bytes, &airs);
                            prop_assert!(restored.is_ok(), "restore failed: {:?}", restored.err());
                            if let Ok(restored) = restored {
                                q = restored;
                            }
                            prop_assert_eq!(queue_bytes(&q), bytes);
                        }
                    }
                }
                prop_assert_eq!(q.len(), flat.len());
                prop_assert_eq!(q.is_empty(), flat.len() == 0);
                prop_assert_eq!(q.peek_time(), flat.heap.peek().map(|e| e.time));
            }
            prop_assert!(q.is_empty());
            prop_assert_eq!(h_q, h_flat);
        }

        /// Any single-field corruption of a mid-frame queue section decodes
        /// to `Ok` or a typed error, never a panic.
        #[test]
        fn corrupted_queue_section_never_panics(
            (pick, field, value) in (0usize..64, 0u8..5, any::<u64>()),
        ) {
            let (_, mut pending, airs) = partially_drained();
            let n = pending.events.len();
            let ev = &mut pending.events[pick % n];
            match (field, &mut ev.kind) {
                (0, _) => ev.time = SimTime::from_nanos(value % 256),
                (1, _) => ev.seq = value % 32,
                (2, EventKind::RxStart { frame, .. } | EventKind::RxEnd { frame, .. }) => {
                    *frame = FrameId(value % 3)
                }
                (3, EventKind::RxStart { node, .. } | EventKind::RxEnd { node, .. }) => {
                    *node = NodeId::new(value as u32 % 8)
                }
                _ => {
                    pending.events.remove(pick % n);
                }
            }
            let res = restore(&pending_bytes(&pending), &airs);
            prop_assert!(matches!(res, Ok(_) | Err(SnapError::StateMismatch(_))));
        }
    }

    /// One five-receiver frame (unsorted nodes, a tied delay, airtime 5 ns)
    /// drained mid-frame: three RxStarts and one RxEnd already dequeued,
    /// two RxStarts and four RxEnds pending, plus one unrelated timer.
    fn partially_drained() -> (EventQueue, PendingEvents, BTreeMap<FrameId, SimDuration>) {
        let frame = FrameId(1);
        let air = SimDuration::from_nanos(5);
        let mut q = EventQueue::new();
        let plans = [
            plan(4, 0, 1e-9),
            plan(2, 3, 2e-9),
            plan(9, 3, 3e-9),
            plan(1, 7, 4e-9),
            plan(6, 9, 5e-9),
        ];
        q.push_arrivals(SimTime::from_nanos(100), air, frame, &plans);
        q.push(SimTime::from_nanos(104), dummy(0));
        q.push(SimTime::from_nanos(200), dummy(1));
        let drained: Vec<ScheduledEvent> =
            std::iter::from_fn(|| q.pop_if_at_or_before(SimTime::from_nanos(106))).collect();
        assert_eq!(
            drained.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![0, 2, 4, 10, 1],
            "three starts, the timer, then the first end"
        );
        let pending = q.to_pending();
        let kinds = |start: bool| {
            pending
                .events
                .iter()
                .filter(|e| matches!(e.kind, EventKind::RxStart { .. }) == start)
                .filter(|e| !matches!(e.kind, EventKind::MacTimer { .. }))
                .count()
        };
        assert_eq!((kinds(true), kinds(false)), (2, 4));
        (q, pending, BTreeMap::from([(frame, air)]))
    }

    #[test]
    fn mid_frame_restore_reencodes_and_resumes_identically() {
        let (mut live, pending, airs) = partially_drained();
        let bytes = pending_bytes(&pending);
        let mut restored = restore(&bytes, &airs).expect("a live queue restores");
        assert_eq!(queue_bytes(&restored), bytes, "re-encoding drifted");
        assert_eq!(restored.len(), live.len());
        let drain = |q: &mut EventQueue| -> Vec<ScheduledEvent> {
            std::iter::from_fn(|| q.pop_if_at_or_before(SimTime::MAX)).collect()
        };
        assert_eq!(drain(&mut restored), drain(&mut live));
    }

    /// Each hostile edit of the queue section is a typed error.
    #[test]
    fn regroup_rejects_flat_lists_that_cannot_form_a_cursor() {
        fn is_end(e: &ScheduledEvent) -> bool {
            matches!(e.kind, EventKind::RxEnd { .. })
        }
        let first_end = |p: &PendingEvents| -> usize {
            p.events
                .iter()
                .position(is_end)
                .expect("an RxEnd is pending")
        };
        type Mutation = fn(&mut PendingEvents, usize);
        let cases: [(&str, Mutation); 5] = [
            ("RxEnd of a frame not in the slab", |p, i| {
                if let EventKind::RxEnd { frame, .. } = &mut p.events[i].kind {
                    *frame = FrameId(77);
                }
            }),
            ("RxEnd seq parity broken", |p, i| p.events[i].seq += 1),
            ("RxStarts not a suffix of the RxEnds", |p, _| {
                let last_end = p.events.iter().rposition(is_end).expect("an RxEnd");
                p.events.remove(last_end);
            }),
            ("more RxStarts than RxEnds", |p, _| {
                p.events.retain(|e| !is_end(e))
            }),
            ("RxEnd earlier than the airtime", |p, i| {
                p.events[i].time = SimTime::from_nanos(2)
            }),
        ];
        for (what, mutate) in cases {
            let (_, mut pending, airs) = partially_drained();
            let i = first_end(&pending);
            mutate(&mut pending, i);
            let res = restore(&pending_bytes(&pending), &airs);
            assert!(
                matches!(res, Err(SnapError::StateMismatch(_))),
                "{what}: expected a typed error, got {:?}",
                res.map(|q| q.len())
            );
        }
        // A start whose frame is gone is rejected the same way.
        let (_, pending, _) = partially_drained();
        let res = restore(&pending_bytes(&pending), &BTreeMap::new());
        assert!(matches!(res, Err(SnapError::StateMismatch(_))));
    }

    #[test]
    fn drained_cursors_are_recycled() {
        let mut q = EventQueue::new();
        let plans = [plan(1, 0, 1.0), plan(2, 1, 1.0)];
        for round in 0..4u64 {
            let now = SimTime::from_nanos(round * 100);
            q.push_arrivals(now, SimDuration::from_nanos(10), FrameId(round), &plans);
            while q.pop_if_at_or_before(SimTime::MAX).is_some() {}
        }
        assert_eq!(
            q.cursors.len(),
            1,
            "one cursor suffices for one frame at a time"
        );
        assert_eq!(q.free.len(), 1);
    }
}
