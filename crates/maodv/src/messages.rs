//! Tree-multicast wire messages.

use mcast_metrics::probe::ProbeMsg;
use mesh_sim::ids::{GroupId, NodeId};
use mesh_sim::snapshot::{Snap, SnapError, SnapReader, SnapWriter};
use odmrp::messages::DataPacket;

/// A route request flooded by a multicast source, accumulating the path
/// cost exactly like ODMRP's `JOIN QUERY`.
#[derive(Debug, Clone, PartialEq)]
pub struct RouteRequest {
    /// The multicast group being refreshed.
    pub group: GroupId,
    /// Source (tree root).
    pub source: NodeId,
    /// Refresh round.
    pub seq: u32,
    /// The node that rebroadcast this copy.
    pub prev_hop: NodeId,
    /// Hops traveled so far.
    pub hop_count: u8,
    /// Accumulated path cost from the source.
    pub cost: f64,
}

impl RouteRequest {
    /// On-air payload size in bytes.
    pub const BYTES: u32 = 52;
}

mesh_sim::snap_struct! { RouteRequest { group, source, seq, prev_hop, hop_count, cost } }

/// A graft (MAODV's `MACT`-style activation), **unicast** hop by hop from a
/// member toward the source. Each hop adds the sender as a tree child and
/// forwards the graft to its own upstream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Graft {
    /// The multicast group.
    pub group: GroupId,
    /// The tree root the branch attaches to.
    pub source: NodeId,
    /// Refresh round the graft answers.
    pub seq: u32,
    /// The member that initiated the branch (for tracing).
    pub origin: NodeId,
}

impl Graft {
    /// On-air payload size in bytes.
    pub const BYTES: u32 = 36;
}

mesh_sim::snap_struct! { Graft { group, source, seq, origin } }

/// Everything a tree-multicast node puts on the air.
#[derive(Debug, Clone, PartialEq)]
pub enum MaodvMsg {
    /// Tree-refresh flood.
    RouteRequest(RouteRequest),
    /// Branch activation (unicast).
    Graft(Graft),
    /// Multicast payload (broadcast, forwarded by tree nodes).
    Data(DataPacket),
    /// Link-quality probe.
    Probe(ProbeMsg),
}

impl Snap for MaodvMsg {
    fn snap(&self, w: &mut SnapWriter) {
        match self {
            MaodvMsg::RouteRequest(rq) => {
                w.put_u8(0);
                rq.snap(w);
            }
            MaodvMsg::Graft(g) => {
                w.put_u8(1);
                g.snap(w);
            }
            MaodvMsg::Data(d) => {
                w.put_u8(2);
                d.snap(w);
            }
            MaodvMsg::Probe(p) => {
                w.put_u8(3);
                p.snap(w);
            }
        }
    }

    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(match r.u8()? {
            0 => MaodvMsg::RouteRequest(Snap::unsnap(r)?),
            1 => MaodvMsg::Graft(Snap::unsnap(r)?),
            2 => MaodvMsg::Data(Snap::unsnap(r)?),
            3 => MaodvMsg::Probe(Snap::unsnap(r)?),
            t => return Err(SnapError::BadTag(t as u32)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_positive() {
        const { assert!(RouteRequest::BYTES > 0) };
        const { assert!(Graft::BYTES > 0) };
    }

    #[test]
    fn graft_is_copy() {
        let g = Graft {
            group: GroupId(0),
            source: NodeId::new(1),
            seq: 2,
            origin: NodeId::new(3),
        };
        let h = g;
        assert_eq!(g, h);
    }
}
