//! Per-node runtime metrics, served over the wire on request.
//!
//! Each node answers a metrics request with a [`NodeMetrics`] snapshot of
//! its *own* activity: messages it has sent per outgoing directed edge and
//! per kind, its current lease relationships, inbox gauge readings, and
//! combine bookkeeping. Cluster-wide views are client-side merges of these
//! per-node snapshots (see `Cluster::stats`).

use oat_core::message::MsgKind;
use oat_core::wire::{put_u32, put_u64, WireError, WireReader};

/// A snapshot of one node's runtime counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeMetrics {
    /// The reporting node's id.
    pub node: u32,
    /// Messages this node has *sent*, per kind ([`MsgKind::ALL`] order).
    pub sent_by_kind: [u64; 4],
    /// Network messages this node has *received* and processed.
    pub delivered: u64,
    /// Per outgoing directed edge: `(neighbour, counts per kind)`.
    pub edges: Vec<(u32, [u64; 4])>,
    /// Neighbours this node currently holds a lease from (`taken`).
    pub leases_taken: u32,
    /// Neighbours this node has granted a lease to (`granted`).
    pub leases_granted: u32,
    /// Envelopes currently queued on the node's inbox.
    pub queue_depth: u64,
    /// High-water mark of the inbox queue.
    pub queue_peak: u64,
    /// Combine requests parked awaiting responses.
    pub pending_combines: u64,
    /// Combine requests this node has answered.
    pub combines_served: u64,
    /// Edge connections re-established after a failure.
    pub reconnects: u64,
    /// Sequenced frames re-sent (RTO expiry or post-reconnect replay).
    pub retransmits: u64,
    /// Frames discarded by the edge sequencer (duplicates, out-of-window
    /// arrivals, undecodable payloads).
    pub dup_drops: u64,
    /// Retransmission-timer expirations that triggered a resend.
    pub timeouts: u64,
    /// Times this node's automaton crashed and was restarted.
    pub restarts: u64,
    /// Times client intake was parked because an edge retransmit buffer
    /// crossed the backpressure high watermark.
    pub backpressure_stalls: u64,
    /// Times this node was killed process-style (state dropped) and
    /// recovered from its durability backend.
    pub kill9s: u64,
    /// WAL records appended by the durability backend (0 for `Memory`).
    pub wal_records: u64,
    /// WAL group-commit fsync batches issued.
    pub wal_fsyncs: u64,
    /// WAL recovery replays performed (cold start or kill9 restart).
    pub wal_replays: u64,
    /// Bytes discarded from the WAL tail on recovery (torn writes).
    pub wal_torn_bytes: u64,
    /// Snapshots written by the durability backend.
    pub wal_snapshots: u64,
    /// Live edges on an in-memory pipe: the neighbour is served by the
    /// same reactor thread, so frames on the edge skip the kernel.
    pub mem_edges: u32,
    /// Largest `sntupdates` ledger tree 0's automaton has held since it
    /// last (re)started. Sequential runs keep it `O(degree)`; concurrent
    /// writes push it to tens or hundreds of tuples.
    pub ledger_peak: u64,
    /// Largest `Σ|uaw|` (unacknowledged updates over all neighbours) of
    /// the same automaton over the same span.
    pub uaw_peak: u64,
}

impl NodeMetrics {
    /// Wire encoding (field order as declared; edge list length-prefixed).
    pub fn encode(&self, out: &mut Vec<u8>) {
        put_u32(out, self.node);
        for c in self.sent_by_kind {
            put_u64(out, c);
        }
        put_u64(out, self.delivered);
        put_u32(out, self.edges.len() as u32);
        for (to, counts) in &self.edges {
            put_u32(out, *to);
            for c in counts {
                put_u64(out, *c);
            }
        }
        put_u32(out, self.leases_taken);
        put_u32(out, self.leases_granted);
        put_u64(out, self.queue_depth);
        put_u64(out, self.queue_peak);
        put_u64(out, self.pending_combines);
        put_u64(out, self.combines_served);
        put_u64(out, self.reconnects);
        put_u64(out, self.retransmits);
        put_u64(out, self.dup_drops);
        put_u64(out, self.timeouts);
        put_u64(out, self.restarts);
        put_u64(out, self.backpressure_stalls);
        put_u64(out, self.kill9s);
        put_u64(out, self.wal_records);
        put_u64(out, self.wal_fsyncs);
        put_u64(out, self.wal_replays);
        put_u64(out, self.wal_torn_bytes);
        put_u64(out, self.wal_snapshots);
        put_u32(out, self.mem_edges);
        put_u64(out, self.ledger_peak);
        put_u64(out, self.uaw_peak);
    }

    /// Decodes a snapshot, requiring full consumption of `buf`.
    pub fn decode(buf: &[u8]) -> Result<Self, WireError> {
        let mut r = WireReader::new(buf);
        let node = r.u32("metrics node")?;
        let mut sent_by_kind = [0u64; 4];
        for c in &mut sent_by_kind {
            *c = r.u64("metrics sent_by_kind")?;
        }
        let delivered = r.u64("metrics delivered")?;
        let n_edges = r.u32("metrics edge count")? as usize;
        let mut edges = Vec::with_capacity(n_edges.min(4096));
        for _ in 0..n_edges {
            let to = r.u32("metrics edge peer")?;
            let mut counts = [0u64; 4];
            for c in &mut counts {
                *c = r.u64("metrics edge counts")?;
            }
            edges.push((to, counts));
        }
        let metrics = NodeMetrics {
            node,
            sent_by_kind,
            delivered,
            edges,
            leases_taken: r.u32("metrics leases_taken")?,
            leases_granted: r.u32("metrics leases_granted")?,
            queue_depth: r.u64("metrics queue_depth")?,
            queue_peak: r.u64("metrics queue_peak")?,
            pending_combines: r.u64("metrics pending_combines")?,
            combines_served: r.u64("metrics combines_served")?,
            reconnects: r.u64("metrics reconnects")?,
            retransmits: r.u64("metrics retransmits")?,
            dup_drops: r.u64("metrics dup_drops")?,
            timeouts: r.u64("metrics timeouts")?,
            restarts: r.u64("metrics restarts")?,
            backpressure_stalls: r.u64("metrics backpressure_stalls")?,
            kill9s: r.u64("metrics kill9s")?,
            wal_records: r.u64("metrics wal_records")?,
            wal_fsyncs: r.u64("metrics wal_fsyncs")?,
            wal_replays: r.u64("metrics wal_replays")?,
            wal_torn_bytes: r.u64("metrics wal_torn_bytes")?,
            wal_snapshots: r.u64("metrics wal_snapshots")?,
            mem_edges: r.u32("metrics mem_edges")?,
            ledger_peak: r.u64("metrics ledger_peak")?,
            uaw_peak: r.u64("metrics uaw_peak")?,
        };
        r.finish("metrics trailing bytes")?;
        Ok(metrics)
    }

    /// Total messages this node has sent.
    pub fn sent_total(&self) -> u64 {
        self.sent_by_kind.iter().sum()
    }

    /// JSON rendering, deterministic field and edge order.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256 + 96 * self.edges.len());
        out.push_str(&format!(
            "{{\n  \"node\": {},\n  \"sent\": {{\"total\": {}",
            self.node,
            self.sent_total()
        ));
        for (kind, c) in MsgKind::ALL.iter().zip(self.sent_by_kind) {
            out.push_str(&format!(", \"{}\": {}", kind.name(), c));
        }
        out.push_str(&format!(
            "}},\n  \"delivered\": {},\n  \"edges\": [",
            self.delivered
        ));
        for (i, (to, counts)) in self.edges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    {{\"to\": {to}"));
            for (kind, c) in MsgKind::ALL.iter().zip(counts) {
                out.push_str(&format!(", \"{}\": {}", kind.name(), c));
            }
            out.push('}');
        }
        if !self.edges.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str(&format!(
            "],\n  \"leases\": {{\"taken\": {}, \"granted\": {}}},\n  \"queue\": {{\"depth\": {}, \"peak\": {}}},\n  \"combines\": {{\"pending\": {}, \"served\": {}}},\n  \"faults\": {{\"reconnects\": {}, \"retransmits\": {}, \"dup_drops\": {}, \"timeouts\": {}, \"restarts\": {}, \"kill9s\": {}, \"backpressure_stalls\": {}}},\n  \"wal\": {{\"records\": {}, \"fsyncs\": {}, \"replays\": {}, \"torn_bytes\": {}, \"snapshots\": {}}},\n  \"mem_edges\": {},\n  \"ledger\": {{\"peak\": {}, \"uaw_peak\": {}}}\n}}",
            self.leases_taken,
            self.leases_granted,
            self.queue_depth,
            self.queue_peak,
            self.pending_combines,
            self.combines_served,
            self.reconnects,
            self.retransmits,
            self.dup_drops,
            self.timeouts,
            self.restarts,
            self.kill9s,
            self.backpressure_stalls,
            self.wal_records,
            self.wal_fsyncs,
            self.wal_replays,
            self.wal_torn_bytes,
            self.wal_snapshots,
            self.mem_edges,
            self.ledger_peak,
            self.uaw_peak,
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> NodeMetrics {
        NodeMetrics {
            node: 3,
            sent_by_kind: [1, 2, 3, 4],
            delivered: 9,
            edges: vec![(0, [1, 0, 0, 0]), (7, [0, 2, 3, 4])],
            leases_taken: 2,
            leases_granted: 1,
            queue_depth: 0,
            queue_peak: 5,
            pending_combines: 0,
            combines_served: 6,
            reconnects: 1,
            retransmits: 2,
            dup_drops: 3,
            timeouts: 4,
            restarts: 5,
            backpressure_stalls: 6,
            kill9s: 7,
            wal_records: 80,
            wal_fsyncs: 9,
            wal_replays: 2,
            wal_torn_bytes: 11,
            wal_snapshots: 1,
            mem_edges: 2,
            ledger_peak: 21,
            uaw_peak: 29,
        }
    }

    #[test]
    fn wire_roundtrip() {
        let m = sample();
        let mut buf = Vec::new();
        m.encode(&mut buf);
        assert_eq!(NodeMetrics::decode(&buf).unwrap(), m);
        // Strictness: trailing garbage rejected.
        buf.push(0);
        assert!(NodeMetrics::decode(&buf).is_err());
    }

    #[test]
    fn json_shape() {
        let json = sample().to_json();
        assert!(json.contains("\"node\": 3"));
        assert!(json.contains("\"total\": 10"));
        assert!(json.contains("\"taken\": 2, \"granted\": 1"));
        assert!(json.contains("\"to\": 7, \"probe\": 0, \"response\": 2"));
        assert!(json.contains(
            "\"faults\": {\"reconnects\": 1, \"retransmits\": 2, \"dup_drops\": 3, \"timeouts\": 4, \"restarts\": 5, \"kill9s\": 7, \"backpressure_stalls\": 6}"
        ));
        assert!(json.contains(
            "\"wal\": {\"records\": 80, \"fsyncs\": 9, \"replays\": 2, \"torn_bytes\": 11, \"snapshots\": 1},\n  \"mem_edges\": 2,\n  \"ledger\": {\"peak\": 21, \"uaw_peak\": 29}\n}"
        ));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
