//! One tree node as reactor-owned, crash-restartable state.
//!
//! ## Ownership model
//!
//! A node is plain data — [`NodeRt`] — owned by exactly one reactor
//! thread (see [`crate::reactor`]): the [`MechNode`] automaton, the
//! per-edge [`EdgeLink`]s (sequencing + retransmit buffer + the live
//! connection), the client connections, the per-node [`MsgStats`], and
//! the parked combine waiters. There are no per-node threads, no inbox
//! channel, and no locks: every byte this node reads or writes moves
//! through its owning reactor's event loop, which calls the `on_*`
//! handlers below when a socket is ready and [`NodeRt::flush`] once per
//! loop iteration.
//!
//! Inbound bytes land in per-connection [`FrameDecoder`]s, so a frame
//! split across arbitrarily many TCP segments (or a client that stalls
//! mid-frame) consumes buffer space, never a thread — the decoder picks
//! up where the last segment left off. Outbound frames are queued on
//! per-connection [`WriteQueue`]s and leave in vectored writes at the
//! loop's flush point.
//!
//! ## The sequenced edge link
//!
//! The paper assumes reliable FIFO channels; a single TCP connection
//! provides that only while it lives. Every payload frame between
//! neighbours therefore carries a per-directed-edge sequence number
//! (`TAG_SEQ`), the receiver delivers exactly the next expected number
//! and discards everything else, and acknowledges cumulatively
//! (`TAG_ACK`) at flush boundaries. The sender keeps unacknowledged
//! frames in a retransmit buffer and re-sends them (go-back-N) on an
//! RTO tick or after a reconnect, resuming from the watermark the
//! peer's hello reported. Together: per-edge FIFO **exactly-once**
//! delivery that survives killed connections and injected
//! drop/duplicate faults.
//!
//! Exactly-once forbids dropping unacknowledged frames, so the
//! retransmit buffer is bounded by *backpressure* instead of eviction:
//! past [`RTX_DEFAULT_HIGH`] (configurable via `NetConfig`) the node
//! stops reading its **client** connections — the intake that generates
//! new work — until the buffer drains below the low watermark. Edge
//! connections are never stalled: acks and peer traffic must keep
//! flowing or the stall could never clear. Stall entries are counted in
//! [`NodeMetrics::backpressure_stalls`].
//!
//! Injected faults never touch the quiescence or message-count books:
//! stats and the in-flight gauge are recorded once, when a frame is
//! first buffered; retransmits and duplicates are not re-counted, and a
//! discarded duplicate decrements nothing. A fault-free run and a
//! faulty-but-recovered run have identical logical message counts.
//!
//! ## Crash-restart supervision and durability grades
//!
//! The automaton (mechanism + policy + waiters) is *volatile*: an
//! injected crash (or a caught panic — each dispatch runs under
//! `catch_unwind`) destroys it. The transport — edge links with their
//! sequence state and retransmit buffers, client connections — and the
//! node's last written `val` survive in [`NodeRt`]. On restart the node
//! rebuilds a fresh automaton, restores `val`, and the new run's first
//! act is a sequenced `RESET` on every edge; neighbours answer with the
//! mechanism's peer-reset transition and a revoke cascade tears down
//! every cached aggregate that included the crashed subtree. Clients
//! re-drive lost requests via timeout + retry.
//!
//! A process-grade kill (`kill9` in the fault grammar) destroys the
//! whole `NodeRt` — links, retransmit buffers, client connections, the
//! in-memory escrow itself. Recovery then runs through the node's
//! [`Durability`] backend: [`NodeRt::kill9_restart`] demolishes the
//! runtime state, replays the write-ahead log into fresh link
//! watermarks + retransmit buffers + durable value, bumps the
//! incarnation epoch, and broadcasts `RESET` exactly like an in-process
//! crash. The same replay path serves *cold start*: a node spawned over
//! an existing WAL directory rejoins with its history intact. With the
//! default `Memory` backend there is nothing to replay, so kill9
//! schedules are rejected at spawn.
//!
//! ## Quiescence accounting
//!
//! A cluster-wide counter ([`crate::reactor::InFlight`], an `AtomicI64`
//! plus a condvar notified at zero) counts undelivered work. Client requests
//! are counted at decode and settled when their dispatch ends. Edge
//! frames settle on *acknowledgement*: the sender increments when a
//! frame is assigned its sequence number and decrements once per frame
//! trimmed from the retransmit buffer (cumulative ack, reconnect-hello
//! watermark — each frame leaves exactly once). Outstanding edge debt
//! therefore always equals the total frames parked in retransmit
//! buffers, which is what makes kill9 accounting exact: demolishing a
//! node forgives its buffered frames, replaying the WAL re-charges the
//! recovered ones. Work spawned by a delivered frame is counted before
//! the ack that settles its parent can be flushed, so the counter never
//! dips to zero while logical work remains and `quiesce()` stays exact
//! under connection kills and process kills alike.

use std::collections::{HashMap, VecDeque};
use std::net::Shutdown;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::Sender;
use std::time::{Duration, Instant};

use oat_core::agg::AggOp;
use oat_core::fault::{EdgeFaults, FaultAction, FaultPlan, InjectedFaults};
use oat_core::ghost::GhostReq;
use oat_core::mechanism::{CombineOutcome, MechNode, Outbox};
use oat_core::message::Message;
use oat_core::policy::PolicySpec;
use oat_core::request::ReqOp;
use oat_core::tree::{NodeId, Tree};
use oat_core::wire::{put_u32, put_u64, WireReader, WireValue};
use oat_poll::{PollFd, POLLIN, POLLOUT};
use oat_sim::stats::MsgStats;
use std::os::unix::io::AsRawFd;

use crate::durability::{Durability, LinkState, WalState};
use crate::frame::{
    decode_batch, encode_batch, INNER_NET, INNER_NET_T, INNER_RESET, INNER_REVOKE, TAG_ACK,
    TAG_HELLO_CLIENT, TAG_HELLO_EDGE, TAG_PARTIAL, TAG_REQ_BATCH, TAG_REQ_COMBINE,
    TAG_REQ_COMBINE_T, TAG_REQ_METRICS, TAG_REQ_WRITE, TAG_REQ_WRITE_T, TAG_RESP_BATCH,
    TAG_RESP_COMBINE, TAG_RESP_METRICS, TAG_RESP_WRITE, TAG_SEQ, TAG_SUB,
};
use crate::metrics::NodeMetrics;
use crate::reactor::{Conn, InFlight, NodeSeed, Tok, WriteQueue};
use crate::transport::{Listener, MemHub, MemStream, NodeAddr, Stream};

/// Identifies one client connection to one node.
pub(crate) type ClientId = u64;

/// Retransmission-timer granularity: when unacknowledged frames exist,
/// the reactor wakes at this cadence and re-sends on edges whose ack
/// watermark made no progress since the previous tick.
pub(crate) const RTO: Duration = Duration::from_millis(30);

/// Reconnect backoff: first delay, doubled per failed attempt up to the
/// cap, with seeded jitter in `[0, delay)` added on top.
const RECONNECT_BASE_MS: u64 = 2;
const RECONNECT_CAP_MS: u64 = 200;

/// Default retransmit-buffer backpressure watermarks (frames per edge):
/// at the high mark the node parks its client intake, below the low
/// mark it resumes. Overridable per cluster via `NetConfig`.
pub(crate) const RTX_DEFAULT_HIGH: usize = 1 << 16;
pub(crate) const RTX_DEFAULT_LOW: usize = 1 << 12;

/// Work-queue gauge: messages decoded but not yet dispatched, plus the
/// high-water mark. With the reactor model decode and dispatch happen
/// in the same loop iteration, so `depth` returns to zero at every
/// flush boundary — `peak` records how deep one readiness event got.
///
/// Monitoring only; all operations are `Relaxed` (each counter is still
/// individually coherent, which is all the metrics report needs).
#[derive(Default)]
pub(crate) struct QueueGauge {
    depth: AtomicUsize,
    peak: AtomicUsize,
}

impl QueueGauge {
    pub(crate) fn on_enqueue(&self) {
        let now = self.depth.fetch_add(1, Ordering::Relaxed) + 1;
        self.peak.fetch_max(now, Ordering::Relaxed);
    }

    fn on_dequeue(&self) {
        self.depth.fetch_sub(1, Ordering::Relaxed);
    }

    fn read(&self) -> (u64, u64) {
        (
            self.depth.load(Ordering::Relaxed) as u64,
            self.peak.load(Ordering::Relaxed) as u64,
        )
    }
}

/// A node's final state, collected by `Cluster::shutdown`.
pub(crate) struct NodeReport<V> {
    /// Messages this node sent, per directed edge and kind.
    pub stats: MsgStats,
    /// `(node, value)` per combine answered here, local completion order.
    pub completions: Vec<(NodeId, V)>,
    /// Ghost write/combine log, when ghost tracking was enabled (final
    /// incarnation only — a crash discards the automaton's log).
    pub log: Option<Vec<GhostReq<V>>>,
    /// Network messages this node received and processed.
    pub delivered: u64,
    /// Combine waiters still parked at shutdown (possible when clients
    /// gave up under faults); they were dropped, not answered.
    pub abandoned: u64,
    /// Fault-recovery counters accumulated across all incarnations.
    pub faults: FaultCounters,
    /// Durability-backend counters (all zero for the Memory backend).
    pub wal: crate::durability::WalCounters,
}

/// Fault-recovery counters, accumulated across crash-restarts (and in
/// [`crate::ClusterReport`], summed over all nodes).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Edge connections re-established after a failure.
    pub reconnects: u64,
    /// Sequenced frames re-sent (RTO expiry or post-reconnect replay).
    pub retransmits: u64,
    /// Retransmission-timer expirations that triggered a resend.
    pub timeouts: u64,
    /// Automaton restarts performed by the supervisor — in-process
    /// crash-restarts plus process-grade kill9 recoveries.
    pub restarts: u64,
    /// Process-grade kills recovered through the durability backend
    /// (always counted in `restarts` too).
    pub kill9s: u64,
}

/// Settles one *client* work item's in-flight debt exactly once, when
/// dropped — at the end of its dispatch arm on the normal path, and
/// after the `catch_unwind` when a handler panics (the node restarts
/// the automaton, but a leaked increment would wedge `quiesce()`
/// forever). Edge frames are not guarded here: their debt belongs to
/// the sender and settles when the frame leaves its retransmit buffer.
struct InFlightGuard<'a>(&'a InFlight);

impl Drop for InFlightGuard<'_> {
    fn drop(&mut self) {
        self.0.sub(1);
    }
}

/// Cluster-shared context, borrowed by every handler. Immutable for the
/// cluster's lifetime.
pub(crate) struct Ctx<'a, S, A: AggOp> {
    pub tree: &'a Tree,
    pub addrs: &'a [NodeAddr],
    pub op: &'a A,
    pub spec: &'a S,
    pub ghost: bool,
    /// Cluster-wide undelivered-work counter.
    pub in_flight: &'a InFlight,
    /// Cluster-wide count of mechanism messages sent.
    pub total_sent: &'a AtomicU64,
    /// Cluster-wide ledger of injected fault events.
    pub ledger: &'a InjectedFaults,
    /// Retransmit-buffer backpressure watermarks.
    pub rtx_high: usize,
    pub rtx_low: usize,
    /// This reactor's memory-pipe switchboard (same-reactor edges).
    pub mem: &'a MemHub,
}

/// Send + receive state of one edge: the sequenced link, its live
/// connection (if any), and the redial timer. Survives both reconnects
/// and automaton crashes — the sequence space of an edge is continuous
/// across both.
struct EdgeLink {
    peer: NodeId,
    /// The live connection; `None` while down.
    conn: Option<Conn>,
    /// A dial in progress: connected, hello sent, awaiting the reply.
    pending_dial: Option<Conn>,
    /// When to attempt the next dial (dialer side, edge down).
    redial_at: Option<Instant>,
    backoff_ms: u64,
    /// splitmix64 state for reconnect jitter, seeded per directed edge.
    jitter_state: u64,
    /// Last sequence number assigned to an outgoing frame.
    tx_seq: u64,
    /// Highest sequence number the peer has acknowledged.
    acked: u64,
    /// `acked` as of the previous RTO tick (progress detection).
    acked_at_tick: u64,
    /// Unacknowledged frames: `(seq, inner tag, body, last transmit)`.
    /// The timestamp distinguishes a stalled peer from a frame sent just
    /// before an RTO tick — only frames at least one RTO old are
    /// eligible for go-back-N.
    rtx: VecDeque<(u64, u8, Vec<u8>, Instant)>,
    /// Highest in-order sequence number received from the peer.
    rx_seq: u64,
    /// Highest rx watermark we have acked back to the peer.
    rx_acked: u64,
    /// Re-send the cumulative ack at the next flush even though
    /// `rx_seq` did not advance: the peer retransmitted frames we
    /// already delivered, so our previous ack was evidently lost.
    reack: bool,
    /// Frames the sequencer discarded: duplicates, out-of-window
    /// futures (go-back-N re-delivers them in order), undecodables.
    dup_drops: u64,
    /// True when this endpoint owns redialing (lower id dials higher).
    dialer: bool,
    /// The edge was up at least once (distinguishes reconnects).
    ever_up: bool,
    /// Seeded fault-decision stream for this directed edge.
    faults: Option<EdgeFaults>,
}

impl EdgeLink {
    fn next_jitter(&mut self, bound: u64) -> u64 {
        self.jitter_state = self.jitter_state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.jitter_state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % bound.max(1)
    }
}

/// One unit of decoded work, dispatched in decode order.
enum Work<V> {
    /// A mechanism message from neighbour `from` — counted in the
    /// in-flight gauge by the *sender* before the bytes were buffered.
    Net { from: NodeId, msg: Message<V> },
    /// A mechanism message for forest tree `tree` (inner tag 3).
    /// Counted like [`Work::Net`]; tree 0 decodes to `Net` instead.
    NetT {
        from: NodeId,
        tree: u32,
        msg: Message<V>,
    },
    /// Neighbour `from`'s automaton crashed and restarted (sequenced
    /// `RESET` frame). Counted in flight like a mechanism message.
    Reset { from: NodeId },
    /// Cascaded involuntary lease teardown from `from` (sequenced
    /// `REVOKE` frame). Counted in flight like a mechanism message.
    Revoke { from: NodeId },
    /// Per-tree revoke for a forest tree (`REVOKE` with a 4-byte tree-id
    /// body). Counted like [`Work::Revoke`].
    RevokeT { from: NodeId, tree: u32 },
    /// A client request — counted in flight at decode.
    Client {
        conn: ClientId,
        req_id: u64,
        op: ReqOp<V>,
    },
    /// A tree-scoped client request (tags 13/14) for a forest tree.
    /// Counted like [`Work::Client`]; tree 0 decodes to `Client`.
    ClientT {
        conn: ClientId,
        req_id: u64,
        tree: u32,
        op: ReqOp<V>,
    },
    /// A continuous-query subscription (`TAG_SUB`) — counted in flight
    /// at decode (registering triggers a refresh combine).
    Sub {
        conn: ClientId,
        sub_id: u64,
        tree: u32,
    },
    /// A metrics request — not counted (it sends no mechanism messages).
    Metrics { conn: ClientId, req_id: u64 },
}

/// Accumulates responses for in-progress request batches.
///
/// A `TAG_REQ_BATCH` frame's members dispatch as ordinary
/// [`Work::Client`] items, so their responses arrive one at a time —
/// possibly much later (a parked combine), possibly after a crash
/// forced the client to re-drive members individually. The book routes
/// each `(client, req id)` response into its batch accumulator; at
/// every flush boundary the node *streams* whatever the accumulator
/// gathered as a `TAG_RESP_BATCH` frame, so completed members leave
/// immediately instead of waiting behind the roster's slowest member
/// (one request batch may be answered by several response frames whose
/// items concatenate to the full roster). A member is struck from the
/// index at its *first* response: an idempotent retry answered a
/// second time falls through to the direct path, where the client
/// discards unknown ids — never a duplicate item in a batch frame.
#[derive(Default)]
struct BatchBook {
    /// `(client, req id)` → batch key, while the member's answer is due.
    member: HashMap<(ClientId, u64), u64>,
    /// `(client, batch key)` → responses gathered since the last flush.
    accs: HashMap<(ClientId, u64), BatchAcc>,
    next_key: u64,
}

struct BatchAcc {
    /// Members that have not answered yet; the accumulator retires when
    /// this reaches zero *and* the gathered items have been streamed.
    remaining: usize,
    /// Responses gathered since the last flush-boundary emission.
    items: Vec<(u8, Vec<u8>)>,
}

impl BatchBook {
    /// Forgets everything owed to a departed client.
    fn purge(&mut self, cid: ClientId) {
        self.member.retain(|&(c, _), _| c != cid);
        self.accs.retain(|&(c, _), _| c != cid);
    }
}

/// A lazily created automaton instance serving one named tree of the
/// forest (tree ids ≥ 1, addressed by the `_T` frame variants). Tree 0
/// is the node's built-in instance (`NodeRt::mech`) and keeps the
/// legacy wire encodings byte-for-byte. Forest instances are
/// *volatile*: their writes are not WAL-logged, so a crash or kill9
/// loses them — the query engine owns re-driving them (its per-key
/// accumulators are absolute values, so a re-write heals the tree).
struct Inst<N: oat_core::policy::NodePolicy, A: AggOp> {
    mech: MechNode<N, A>,
    /// Parked tree-scoped combine requests.
    waiters: Vec<(ClientId, u64)>,
}

/// One continuous-query subscription: a client that asked to be pushed
/// `TAG_PARTIAL` refinements for a tree served at this node.
struct Sub {
    conn: ClientId,
    id: u64,
    /// The subscriber has been sent at least one partial (a fresh
    /// subscriber is primed with the current value even when it equals
    /// the last pushed one).
    primed: bool,
}

/// Per-tree subscription state. Lives *outside* the automaton
/// instances: subscriptions are transport-level state like client
/// connections, so an automaton crash-restart must not silently end a
/// continuous query (a kill9 severs the client sockets, which drops
/// the subscriptions with them — subscribers re-subscribe on
/// reconnect, exactly like they re-drive requests).
struct TreeSubs<V> {
    subs: Vec<Sub>,
    /// Monotone per-tree refinement counter stamped on pushed partials.
    push_seq: u64,
    /// Last pushed value: a refresh that reproduces it is not a
    /// refinement and is pushed only to unprimed subscribers.
    last_push: Option<V>,
}

impl<V> Default for TreeSubs<V> {
    fn default() -> Self {
        TreeSubs {
            subs: Vec::new(),
            push_seq: 0,
            last_push: None,
        }
    }
}

/// One tree node: automaton + transport, owned by a reactor thread.
pub(crate) struct NodeRt<S: PolicySpec, A: AggOp> {
    id: NodeId,
    degree: usize,
    listener: Listener,
    mech: MechNode<S::Node, A>,
    links: Vec<EdgeLink>,
    /// Accepted connections that have not yet sent their hello.
    pending: HashMap<u64, Conn>,
    next_pending: u64,
    clients: HashMap<ClientId, Conn>,
    next_client: ClientId,
    /// In-progress request batches awaiting their combined response.
    book: BatchBook,
    /// Parked combine requests, answered at the next completion.
    waiters: Vec<(ClientId, u64)>,
    /// Lazily created forest automaton instances (tree ids ≥ 1); the
    /// node's built-in instance (`mech`) serves tree 0.
    insts: HashMap<u32, Inst<S::Node, A>>,
    /// Continuous-query subscriptions, keyed by tree id.
    tree_subs: HashMap<u32, TreeSubs<A::Value>>,
    stats: MsgStats,
    completions: Vec<(NodeId, A::Value)>,
    delivered: u64,
    /// The node's last written value; restored into the fresh automaton
    /// on restart (writes are acknowledged durable).
    durable_val: A::Value,
    /// The durability backend: in-memory (no-op) or write-ahead log.
    backend: Box<dyn Durability>,
    /// Cached `backend.active()` — gates every logging hook so the
    /// Memory backend costs nothing on the hot path.
    durable: bool,
    /// Incarnation epoch: bumped on every restart (crash or kill9) and
    /// persisted through the backend so a recovered incarnation never
    /// reuses an epoch its predecessor already burned.
    epoch: u64,
    /// Last lease bits `(granted << 1) | taken` logged per neighbour
    /// index; transitions are WAL-logged as diffs against this cache.
    lease_bits: Vec<u8>,
    /// Injected crash trigger: crash after this many delivered messages
    /// (cumulative across restarts). Consumed when it fires.
    crash_at: Option<u64>,
    /// Injected process-kill trigger, same schedule semantics.
    kill9_at: Option<u64>,
    /// A kill9 fired during dispatch; the reactor demolishes and
    /// recovers the node at the next safe point (between dispatches).
    kill9_pending: bool,
    counters: FaultCounters,
    /// Times the node entered a client-intake stall (see module docs).
    backpressure_stalls: u64,
    stalled: bool,
    /// Edges currently up (for the ready signal).
    connected: usize,
    ready_sent: bool,
    ready_tx: Sender<()>,
    abandoned: u64,
    gauge: QueueGauge,
    /// Mechanism outbox scratch, drained after every handler call.
    out: Outbox<A::Value>,
    /// Neighbour indices whose connection failed mid-handler; settled
    /// (marked down) at the next `settle_downed`.
    downed: Vec<usize>,
}

impl<S, A> NodeRt<S, A>
where
    S: PolicySpec,
    S::Node: 'static,
    A: AggOp,
    A::Value: WireValue,
{
    pub(crate) fn new(
        seed: NodeSeed,
        ctx: &Ctx<'_, S, A>,
        plan: &FaultPlan,
        ready_tx: Sender<()>,
    ) -> NodeRt<S, A> {
        let NodeSeed {
            id,
            listener,
            backend,
        } = seed;
        let degree = ctx.tree.degree(id);
        let now = Instant::now();
        let links: Vec<EdgeLink> = ctx
            .tree
            .nbrs(id)
            .iter()
            .map(|&v| {
                let dialer = id.0 < v.0;
                EdgeLink {
                    peer: v,
                    conn: None,
                    pending_dial: None,
                    // Dialers attempt immediately at the first timer pass.
                    redial_at: dialer.then_some(now),
                    backoff_ms: RECONNECT_BASE_MS,
                    jitter_state: plan.jitter_seed(id, v),
                    tx_seq: 0,
                    acked: 0,
                    acked_at_tick: 0,
                    rtx: VecDeque::new(),
                    rx_seq: 0,
                    rx_acked: 0,
                    reack: false,
                    dup_drops: 0,
                    dialer,
                    ever_up: false,
                    faults: (!plan.is_empty()).then(|| plan.edge_stream(id, v)),
                }
            })
            .collect();
        let mech = MechNode::new(
            ctx.tree,
            id,
            ctx.op.clone(),
            ctx.spec.build(degree),
            ctx.ghost,
        );
        let ready_sent = degree == 0;
        if ready_sent {
            let _ = ready_tx.send(());
        }
        let durable = backend.active();
        let mut node = NodeRt {
            id,
            degree,
            listener,
            mech,
            links,
            pending: HashMap::new(),
            next_pending: 0,
            clients: HashMap::new(),
            next_client: 0,
            book: BatchBook::default(),
            waiters: Vec::new(),
            insts: HashMap::new(),
            tree_subs: HashMap::new(),
            stats: MsgStats::new(ctx.tree),
            completions: Vec::new(),
            delivered: 0,
            durable_val: ctx.op.identity(),
            backend,
            durable,
            epoch: 0,
            lease_bits: vec![0; degree],
            crash_at: plan.crash_after(id),
            kill9_at: plan.kill9_after(id),
            kill9_pending: false,
            counters: FaultCounters::default(),
            backpressure_stalls: 0,
            stalled: false,
            connected: 0,
            ready_sent,
            ready_tx,
            abandoned: 0,
            gauge: QueueGauge::default(),
            out: Vec::new(),
            downed: Vec::new(),
        };
        // Cold start: a durable backend with history means this node is
        // a new incarnation of a previous process — replay the WAL and
        // rejoin with watermarks, retransmit buffers, and value intact.
        if durable {
            if let Some(state) = node.backend.recover() {
                node.restore_from(state, ctx);
            }
        }
        node
    }

    pub(crate) fn id(&self) -> NodeId {
        self.id
    }

    /// True when an RTO tick could re-send something: an up edge holds
    /// unacknowledged frames.
    pub(crate) fn wants_rto_tick(&self) -> bool {
        self.links
            .iter()
            .any(|l| l.conn.is_some() && !l.rtx.is_empty())
    }

    /// Earliest pending redial timer, if any.
    pub(crate) fn next_redial(&self) -> Option<Instant> {
        self.links.iter().filter_map(|l| l.redial_at).min()
    }

    /// Appends this node's poll interest set: listener, pre-hello
    /// connections, edges (live + dialing), clients. A stalled node
    /// drops `POLLIN` interest on its clients only — the intake that
    /// creates new sequenced frames — never on edges. Memory pipes have
    /// no descriptor and stay out of the set (see [`NodeRt::on_mem_ready`]).
    pub(crate) fn register(&self, idx: usize, fds: &mut Vec<PollFd>, toks: &mut Vec<Tok>) {
        fds.push(PollFd::new(self.listener.as_raw_fd(), POLLIN));
        toks.push(Tok::Listener(idx));
        // POLLOUT interest is transport-gated: ring doorbells are almost
        // always writable, so arming POLLOUT on them would busy-spin. A
        // blocked ring write recovers via the peer's space-freed nudge
        // (POLLIN) plus the unconditional flush pass each iteration.
        let mut push = |conn: &Conn, ev: i16, tok: Tok| {
            let Some(fd) = conn.stream.fd() else {
                return;
            };
            let mut ev = ev;
            if !conn.out.is_empty() && conn.stream.wants_pollout() {
                ev |= POLLOUT;
            }
            if ev != 0 {
                fds.push(PollFd::new(fd, ev));
                toks.push(tok);
            }
        };
        for (&pid, conn) in &self.pending {
            push(conn, POLLIN, Tok::Pending(idx, pid));
        }
        for (wi, link) in self.links.iter().enumerate() {
            if let Some(conn) = &link.conn {
                push(conn, POLLIN, Tok::Edge(idx, wi));
            }
            if let Some(conn) = &link.pending_dial {
                push(conn, POLLIN, Tok::Dial(idx, wi));
            }
        }
        let client_ev = if self.stalled { 0 } else { POLLIN };
        for (&cid, conn) in &self.clients {
            push(conn, client_ev, Tok::Client(idx, cid));
        }
    }

    /// Accepts everything the listener has ready; connections park in
    /// `pending` until their hello classifies them.
    pub(crate) fn on_accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok(stream) => {
                    if let Ok(conn) = Conn::new(stream) {
                        self.pending.insert(self.next_pending, conn);
                        self.next_pending += 1;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
    }

    /// Adopts the accepting end of a memory pipe a neighbour on this
    /// reactor dialled; like an accepted socket, it waits in `pending`
    /// until its hello classifies it.
    pub(crate) fn adopt_mem(&mut self, stream: MemStream) {
        if let Ok(conn) = Conn::new(Stream::Mem(stream)) {
            self.pending.insert(self.next_pending, conn);
            self.next_pending += 1;
        }
    }

    /// Serves every memory pipe of this node that holds bytes or EOF,
    /// through the same handlers a readable socket gets. Returns `true`
    /// when input was left unread (a bounded read per pipe), so the
    /// reactor keeps the node on its ready list.
    pub(crate) fn on_mem_ready(&mut self, ctx: &Ctx<'_, S, A>, scratch: &mut [u8]) -> bool {
        let pids: Vec<u64> = self
            .pending
            .iter()
            .filter(|(_, c)| c.stream.mem_readable())
            .map(|(&pid, _)| pid)
            .collect();
        for pid in pids {
            self.on_pending_ready(pid, ctx, scratch);
        }
        let readable = |c: &Option<Conn>| c.as_ref().is_some_and(|c| c.stream.mem_readable());
        for wi in 0..self.links.len() {
            if readable(&self.links[wi].pending_dial) {
                self.on_dial_ready(wi, ctx, scratch);
            }
            if readable(&self.links[wi].conn) {
                self.on_edge_ready(wi, ctx, scratch);
            }
        }
        self.pending.values().any(|c| c.stream.mem_readable())
            || self
                .links
                .iter()
                .any(|l| readable(&l.pending_dial) || readable(&l.conn))
    }

    /// A pre-hello connection became readable: classify it by its first
    /// frame. Anything other than a well-formed hello is a stranger
    /// speaking the wrong protocol — dropped, never fatal.
    pub(crate) fn on_pending_ready(&mut self, pid: u64, ctx: &Ctx<'_, S, A>, scratch: &mut [u8]) {
        let Some(conn) = self.pending.get_mut(&pid) else {
            return;
        };
        let closed = conn.read_ready(scratch);
        match conn.dec.try_frame() {
            Ok(Some((TAG_HELLO_EDGE, payload))) => {
                let conn = self.pending.remove(&pid).expect("present above");
                let mut r = WireReader::new(&payload);
                let parsed = r.u32("hello node id").and_then(|id| {
                    Ok((
                        NodeId(id),
                        r.u64("hello rx watermark")?,
                        r.u64("hello ack watermark")?,
                    ))
                });
                if let Ok((peer, peer_rx, peer_acked)) = parsed {
                    if let Some(wi) = self.install_edge(peer, conn, peer_rx, peer_acked, true, ctx)
                    {
                        // The dialer may have pipelined nothing (it waits
                        // for our reply), but a *reconnecting* peer's
                        // replay can already sit behind the hello.
                        self.drain_edge(wi, ctx);
                    }
                }
            }
            Ok(Some((TAG_HELLO_CLIENT, _))) => {
                let conn = self.pending.remove(&pid).expect("present above");
                let cid = self.next_client;
                self.next_client += 1;
                self.clients.insert(cid, conn);
                // Clients may pipeline requests behind the hello in one
                // segment; serve whatever already decoded.
                self.on_client_ready(cid, ctx, &mut []);
            }
            Ok(Some(_)) | Err(_) => {
                self.pending.remove(&pid);
            }
            Ok(None) => {
                if closed {
                    self.pending.remove(&pid);
                }
            }
        }
    }

    /// A dial-in-progress connection became readable: expect the hello
    /// reply carrying the peer's receive watermark, then promote it to
    /// the live edge connection.
    pub(crate) fn on_dial_ready(&mut self, wi: usize, ctx: &Ctx<'_, S, A>, scratch: &mut [u8]) {
        let link = &mut self.links[wi];
        let Some(conn) = link.pending_dial.as_mut() else {
            return;
        };
        let closed = conn.read_ready(scratch);
        match conn.dec.try_frame() {
            Ok(Some((TAG_HELLO_EDGE, payload))) => {
                let peer = link.peer;
                let conn = link.pending_dial.take().expect("present above");
                let mut r = WireReader::new(&payload);
                let parsed = r
                    .u32("hello reply id")
                    .and_then(|id| Ok((id, r.u64("hello reply rx")?, r.u64("hello reply acked")?)));
                match parsed {
                    Ok((id, peer_rx, peer_acked)) if id == peer.0 => {
                        if let Some(wi) =
                            self.install_edge(peer, conn, peer_rx, peer_acked, false, ctx)
                        {
                            // The peer's replay may ride the same segment
                            // as its hello reply; deliver it now.
                            self.drain_edge(wi, ctx);
                        }
                    }
                    _ => self.schedule_redial(wi),
                }
            }
            Ok(Some(_)) | Err(_) => {
                self.links[wi].pending_dial = None;
                self.schedule_redial(wi);
            }
            Ok(None) => {
                if closed {
                    self.links[wi].pending_dial = None;
                    self.schedule_redial(wi);
                }
            }
        }
    }

    /// A live edge connection became readable.
    pub(crate) fn on_edge_ready(&mut self, wi: usize, ctx: &Ctx<'_, S, A>, scratch: &mut [u8]) {
        let Some(conn) = self.links[wi].conn.as_mut() else {
            return;
        };
        let closed = conn.read_ready(scratch);
        // Frames decoded before EOF/corruption are valid: drain first.
        let ok = self.drain_edge(wi, ctx);
        if closed || !ok {
            self.downed.push(wi);
            self.settle_downed();
        }
    }

    /// Decodes and dispatches everything buffered on edge `wi`'s live
    /// connection. Returns `false` when the stream is corrupt (bad
    /// frame length) and must be torn down.
    fn drain_edge(&mut self, wi: usize, ctx: &Ctx<'_, S, A>) -> bool {
        let mut work: Vec<Work<A::Value>> = Vec::new();
        let mut ok = true;
        let rx_before = self.links[wi].rx_seq;
        let acked_before = self.links[wi].acked;
        {
            let link = &mut self.links[wi];
            let Some(conn) = link.conn.as_mut() else {
                return true;
            };
            loop {
                match conn.dec.try_frame() {
                    Ok(None) => break,
                    Err(_) => {
                        ok = false;
                        break;
                    }
                    Ok(Some((TAG_SEQ, payload))) => {
                        if payload.len() < 9 {
                            link.dup_drops += 1;
                            continue;
                        }
                        let seq = u64::from_le_bytes(payload[..8].try_into().expect("8 bytes"));
                        let inner = payload[8];
                        let body = &payload[9..];
                        if seq != link.rx_seq + 1 {
                            // A duplicate (below the window) or a future
                            // frame (something below it was lost — go-
                            // back-N re-delivers in order). Discard; the
                            // sender settles the logical frame's in-
                            // flight debt when it is acked, so copies
                            // are free.
                            link.dup_drops += 1;
                            if seq <= link.rx_seq {
                                // Already-delivered frames coming back
                                // mean the peer never saw our cumulative
                                // ack; repeat it even though rx_seq is
                                // not advancing.
                                link.reack = true;
                            }
                            continue;
                        }
                        link.rx_seq = seq;
                        oat_obs::trace_event!(
                            oat_obs::EventKind::FrameRx,
                            self.id.0,
                            link.peer.0,
                            (seq << 8) | u64::from(inner)
                        );
                        match inner {
                            INNER_NET => match Message::<A::Value>::decode_wire(body) {
                                Ok(msg) => {
                                    self.gauge.on_enqueue();
                                    work.push(Work::Net {
                                        from: link.peer,
                                        msg,
                                    });
                                }
                                Err(_) => {
                                    // Undecodable mechanism payload:
                                    // degrade, do not panic. The cumulative
                                    // ack below settles the sender's
                                    // account like any delivered frame.
                                    link.dup_drops += 1;
                                }
                            },
                            INNER_NET_T => {
                                // A forest-tree mechanism message: u32
                                // tree id, then the ordinary encoding.
                                if body.len() < 4 {
                                    link.dup_drops += 1;
                                    continue;
                                }
                                let tree =
                                    u32::from_le_bytes(body[..4].try_into().expect("4 bytes"));
                                match Message::<A::Value>::decode_wire(&body[4..]) {
                                    Ok(msg) if tree != 0 => {
                                        self.gauge.on_enqueue();
                                        work.push(Work::NetT {
                                            from: link.peer,
                                            tree,
                                            msg,
                                        });
                                    }
                                    Ok(msg) => {
                                        self.gauge.on_enqueue();
                                        work.push(Work::Net {
                                            from: link.peer,
                                            msg,
                                        });
                                    }
                                    Err(_) => {
                                        link.dup_drops += 1;
                                    }
                                }
                            }
                            INNER_RESET => {
                                self.gauge.on_enqueue();
                                work.push(Work::Reset { from: link.peer });
                            }
                            INNER_REVOKE => {
                                // An empty body is the legacy tree-0
                                // revoke; a 4-byte body names a forest
                                // tree.
                                if body.is_empty() {
                                    self.gauge.on_enqueue();
                                    work.push(Work::Revoke { from: link.peer });
                                } else if body.len() == 4 {
                                    let tree =
                                        u32::from_le_bytes(body.try_into().expect("4 bytes"));
                                    self.gauge.on_enqueue();
                                    work.push(Work::RevokeT {
                                        from: link.peer,
                                        tree,
                                    });
                                } else {
                                    link.dup_drops += 1;
                                }
                            }
                            _ => {
                                link.dup_drops += 1;
                            }
                        }
                    }
                    Ok(Some((TAG_ACK, payload))) => {
                        let mut r = WireReader::new(&payload);
                        if let Ok(upto) = r.u64("ack watermark") {
                            if upto > link.acked {
                                link.acked = upto;
                            }
                            // Each trimmed frame settles its in-flight
                            // debt — the one and only settle for an edge
                            // frame (trims are the only rtx removals).
                            let mut settled = 0;
                            while link.rtx.front().is_some_and(|(s, ..)| *s <= link.acked) {
                                link.rtx.pop_front();
                                settled += 1;
                            }
                            if settled > 0 {
                                ctx.in_flight.sub(settled);
                            }
                        } else {
                            link.dup_drops += 1;
                        }
                    }
                    // Unknown frame on an authenticated edge: count, skip.
                    Ok(Some(_)) => {
                        link.dup_drops += 1;
                    }
                }
            }
        }
        if self.durable {
            // One watermark record per drain, not per frame: the WAL
            // needs the high-water marks, not the arrival history. Rx is
            // logged before dispatch so the delivered frames' own log
            // records (sends they trigger) sort after their cause.
            let link = &self.links[wi];
            if link.rx_seq > rx_before {
                self.backend.log_rx(link.peer.0, link.rx_seq);
            }
            if link.acked > acked_before {
                self.backend.log_ack(link.peer.0, link.acked);
            }
        }
        for w in work {
            self.dispatch(w, ctx);
        }
        ok
    }

    /// A client connection became readable. Pass an empty scratch to
    /// serve only already-buffered frames (hello promotion path).
    pub(crate) fn on_client_ready(
        &mut self,
        cid: ClientId,
        ctx: &Ctx<'_, S, A>,
        scratch: &mut [u8],
    ) {
        let Some(conn) = self.clients.get_mut(&cid) else {
            return;
        };
        let closed = !scratch.is_empty() && conn.read_ready(scratch);
        let keep = self.drain_client(cid, ctx);
        if closed || !keep {
            // Reaching EOF after a full drain means every request was
            // served (per-connection bytes are FIFO); stream gathered
            // batch responses and flush queued frames best-effort, then
            // retire the connection.
            self.stream_batches();
            if let Some(mut conn) = self.clients.remove(&cid) {
                let _ = conn.flush();
            }
            self.book.purge(cid);
            self.purge_subs(cid);
        }
    }

    /// Drops every subscription held by a departed client. The per-tree
    /// refinement counter survives — a reconnecting subscriber resumes
    /// on a monotone seq.
    fn purge_subs(&mut self, cid: ClientId) {
        for ts in self.tree_subs.values_mut() {
            ts.subs.retain(|s| s.conn != cid);
        }
    }

    /// Emits every non-empty batch accumulator as a `TAG_RESP_BATCH`
    /// frame and retires accumulators whose roster is exhausted. Runs at
    /// each flush boundary, so members completed during this loop
    /// iteration leave now — one request batch streams out as several
    /// response frames whose items concatenate to the full roster.
    fn stream_batches(&mut self) {
        if self.book.accs.is_empty() {
            return;
        }
        let clients = &mut self.clients;
        self.book.accs.retain(|&(cid, _), acc| {
            if !acc.items.is_empty() {
                let frame = encode_batch(&acc.items);
                acc.items.clear();
                if let Some(c) = clients.get_mut(&cid) {
                    c.out.frame(TAG_RESP_BATCH, &frame);
                }
            }
            acc.remaining > 0
        });
    }

    /// Decodes and dispatches everything buffered on client `cid`.
    /// Returns `false` on a protocol violation (drop the connection —
    /// clients are untrusted; requests already decoded still complete).
    fn drain_client(&mut self, cid: ClientId, ctx: &Ctx<'_, S, A>) -> bool {
        let mut work: Vec<Work<A::Value>> = Vec::new();
        let mut keep = true;
        {
            let Some(conn) = self.clients.get_mut(&cid) else {
                return false;
            };
            loop {
                match conn.dec.try_frame() {
                    Ok(None) => break,
                    Err(_) => {
                        keep = false;
                        break;
                    }
                    Ok(Some((TAG_REQ_COMBINE, payload))) => {
                        let mut r = WireReader::new(&payload);
                        let Ok(req_id) = r.u64("combine req id") else {
                            keep = false;
                            break;
                        };
                        ctx.in_flight.add(1);
                        self.gauge.on_enqueue();
                        oat_obs::trace_event!(
                            oat_obs::EventKind::ReqRecv,
                            self.id.0,
                            cid as u32,
                            req_id
                        );
                        work.push(Work::Client {
                            conn: cid,
                            req_id,
                            op: ReqOp::Combine,
                        });
                    }
                    Ok(Some((TAG_REQ_WRITE, payload))) => {
                        let mut r = WireReader::new(&payload);
                        let parsed = r.u64("write req id").and_then(|id| {
                            let arg = A::Value::decode(&mut r)?;
                            r.finish("write request trailing bytes")?;
                            Ok((id, arg))
                        });
                        let Ok((req_id, arg)) = parsed else {
                            keep = false;
                            break;
                        };
                        ctx.in_flight.add(1);
                        self.gauge.on_enqueue();
                        oat_obs::trace_event!(
                            oat_obs::EventKind::ReqRecv,
                            self.id.0,
                            cid as u32,
                            req_id
                        );
                        work.push(Work::Client {
                            conn: cid,
                            req_id,
                            op: ReqOp::Write(arg),
                        });
                    }
                    Ok(Some((TAG_REQ_COMBINE_T, payload))) => {
                        let mut r = WireReader::new(&payload);
                        let parsed = r.u64("tree combine req id").and_then(|id| {
                            let tree = r.u32("tree combine tree id")?;
                            r.finish("tree combine trailing bytes")?;
                            Ok((id, tree))
                        });
                        let Ok((req_id, tree)) = parsed else {
                            keep = false;
                            break;
                        };
                        ctx.in_flight.add(1);
                        self.gauge.on_enqueue();
                        oat_obs::trace_event!(
                            oat_obs::EventKind::ReqRecv,
                            self.id.0,
                            cid as u32,
                            req_id
                        );
                        // Tree 0 is the built-in instance: route through
                        // the legacy work item so its combines stay on
                        // the sim-parity path.
                        work.push(if tree == 0 {
                            Work::Client {
                                conn: cid,
                                req_id,
                                op: ReqOp::Combine,
                            }
                        } else {
                            Work::ClientT {
                                conn: cid,
                                req_id,
                                tree,
                                op: ReqOp::Combine,
                            }
                        });
                    }
                    Ok(Some((TAG_REQ_WRITE_T, payload))) => {
                        let mut r = WireReader::new(&payload);
                        let parsed = r.u64("tree write req id").and_then(|id| {
                            let tree = r.u32("tree write tree id")?;
                            let arg = A::Value::decode(&mut r)?;
                            r.finish("tree write trailing bytes")?;
                            Ok((id, tree, arg))
                        });
                        let Ok((req_id, tree, arg)) = parsed else {
                            keep = false;
                            break;
                        };
                        ctx.in_flight.add(1);
                        self.gauge.on_enqueue();
                        oat_obs::trace_event!(
                            oat_obs::EventKind::ReqRecv,
                            self.id.0,
                            cid as u32,
                            req_id
                        );
                        work.push(if tree == 0 {
                            Work::Client {
                                conn: cid,
                                req_id,
                                op: ReqOp::Write(arg),
                            }
                        } else {
                            Work::ClientT {
                                conn: cid,
                                req_id,
                                tree,
                                op: ReqOp::Write(arg),
                            }
                        });
                    }
                    Ok(Some((TAG_SUB, payload))) => {
                        let mut r = WireReader::new(&payload);
                        let parsed = r.u64("sub id").and_then(|id| {
                            let tree = r.u32("sub tree id")?;
                            r.finish("sub trailing bytes")?;
                            Ok((id, tree))
                        });
                        let Ok((sub_id, tree)) = parsed else {
                            keep = false;
                            break;
                        };
                        // Counted like a client request: registering
                        // triggers a refresh combine whose messages must
                        // be charged before this item settles.
                        ctx.in_flight.add(1);
                        self.gauge.on_enqueue();
                        work.push(Work::Sub {
                            conn: cid,
                            sub_id,
                            tree,
                        });
                    }
                    Ok(Some((TAG_REQ_METRICS, payload))) => {
                        let mut r = WireReader::new(&payload);
                        let Ok(req_id) = r.u64("metrics req id") else {
                            keep = false;
                            break;
                        };
                        self.gauge.on_enqueue();
                        work.push(Work::Metrics { conn: cid, req_id });
                    }
                    Ok(Some((TAG_REQ_BATCH, payload))) => {
                        // All-or-nothing: every item must parse as a
                        // combine or write with a unique req id before
                        // anything is admitted, so a malformed batch
                        // can't half-execute.
                        let Ok(items) = decode_batch(&payload) else {
                            keep = false;
                            break;
                        };
                        let mut parsed: Vec<(u64, u32, ReqOp<A::Value>)> =
                            Vec::with_capacity(items.len());
                        let mut bad = items.is_empty();
                        for (tag, p) in &items {
                            let mut r = WireReader::new(p);
                            let item = match *tag {
                                TAG_REQ_COMBINE => r
                                    .u64("batched combine req id")
                                    .map(|id| (id, 0, ReqOp::Combine)),
                                TAG_REQ_WRITE => r.u64("batched write req id").and_then(|id| {
                                    let arg = A::Value::decode(&mut r)?;
                                    r.finish("batched write trailing bytes")?;
                                    Ok((id, 0, ReqOp::Write(arg)))
                                }),
                                TAG_REQ_COMBINE_T => {
                                    r.u64("batched tree combine req id").and_then(|id| {
                                        let tree = r.u32("batched tree combine tree id")?;
                                        r.finish("batched tree combine trailing bytes")?;
                                        Ok((id, tree, ReqOp::Combine))
                                    })
                                }
                                TAG_REQ_WRITE_T => {
                                    r.u64("batched tree write req id").and_then(|id| {
                                        let tree = r.u32("batched tree write tree id")?;
                                        let arg = A::Value::decode(&mut r)?;
                                        r.finish("batched tree write trailing bytes")?;
                                        Ok((id, tree, ReqOp::Write(arg)))
                                    })
                                }
                                _ => {
                                    bad = true;
                                    break;
                                }
                            };
                            match item {
                                Ok(it) => parsed.push(it),
                                Err(_) => {
                                    bad = true;
                                    break;
                                }
                            }
                        }
                        if !bad {
                            let mut ids: Vec<u64> = parsed.iter().map(|(id, ..)| *id).collect();
                            ids.sort_unstable();
                            ids.dedup();
                            bad = ids.len() != parsed.len();
                        }
                        if bad {
                            keep = false;
                            break;
                        }
                        let key = self.book.next_key;
                        self.book.next_key += 1;
                        self.book.accs.insert(
                            (cid, key),
                            BatchAcc {
                                remaining: parsed.len(),
                                items: Vec::with_capacity(parsed.len()),
                            },
                        );
                        for (req_id, tree, op) in parsed {
                            self.book.member.insert((cid, req_id), key);
                            ctx.in_flight.add(1);
                            self.gauge.on_enqueue();
                            oat_obs::trace_event!(
                                oat_obs::EventKind::ReqRecv,
                                self.id.0,
                                cid as u32,
                                req_id
                            );
                            work.push(if tree == 0 {
                                Work::Client {
                                    conn: cid,
                                    req_id,
                                    op,
                                }
                            } else {
                                Work::ClientT {
                                    conn: cid,
                                    req_id,
                                    tree,
                                    op,
                                }
                            });
                        }
                    }
                    Ok(Some(_)) => {
                        keep = false;
                        break;
                    }
                }
            }
        }
        for w in work {
            self.dispatch(w, ctx);
        }
        keep
    }

    /// Runs one work item through the automaton. Handler panics are
    /// caught and converted into a crash-restart; the in-flight debt
    /// settles either way.
    fn dispatch(&mut self, work: Work<A::Value>, ctx: &Ctx<'_, S, A>) {
        self.gauge.on_dequeue();
        match work {
            Work::Net { from, msg } => {
                self.delivered += 1;
                let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let completed = self.mech.handle_message(from, msg, &mut self.out);
                    self.send_outbox(ctx);
                    if let Some(v) = completed {
                        self.answer_waiters(v);
                    }
                }));
                if run.is_err() {
                    self.crash_restart(ctx);
                } else if self.crash_at == Some(self.delivered) {
                    // Injected crash, at a clean point: the message is
                    // fully processed and accounted. Fires once.
                    self.crash_at = None;
                    ctx.ledger.crashes.fetch_add(1, Ordering::Relaxed);
                    self.crash_restart(ctx);
                } else if self.kill9_at == Some(self.delivered) {
                    // Injected process kill. Unlike a crash this cannot
                    // run inline — it demolishes the very state the
                    // enclosing drain loop is iterating — so it is
                    // flagged and the reactor performs the teardown
                    // between dispatch passes.
                    self.kill9_at = None;
                    self.kill9_pending = true;
                }
            }
            Work::NetT { from, tree, msg } => {
                self.delivered += 1;
                let mut inst = self.take_inst(tree, ctx);
                let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let completed = inst.mech.handle_message(from, msg, &mut self.out);
                    self.send_outbox_t(tree, ctx);
                    completed
                }));
                match run {
                    Ok(completed) => {
                        if let Some(v) = &completed {
                            self.answer_tree_waiters(&mut inst, v);
                        }
                        self.insts.insert(tree, inst);
                        match completed {
                            Some(v) => self.push_partial(tree, &v),
                            // Propagated updates/invalidates refresh any
                            // subscribers served at this node.
                            None => self.refresh_tree(tree, ctx),
                        }
                    }
                    Err(_) => self.crash_restart(ctx),
                }
                // Forest traffic advances the same injected-fault
                // schedules as tree 0: triggers count delivered
                // messages, whatever tree carried them.
                if self.crash_at == Some(self.delivered) {
                    self.crash_at = None;
                    ctx.ledger.crashes.fetch_add(1, Ordering::Relaxed);
                    self.crash_restart(ctx);
                } else if self.kill9_at == Some(self.delivered) {
                    self.kill9_at = None;
                    self.kill9_pending = true;
                }
            }
            Work::Reset { from } => {
                let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    // The peer's automaton restarted: run the mechanism's
                    // peer-reset transition (re-probes land in the outbox)
                    // and start the revoke cascade toward unsound grants.
                    let revokes = self.mech.handle_peer_reset(from, &mut self.out);
                    self.send_outbox(ctx);
                    for t in revokes {
                        let wi = self.mech.nbr_index(t);
                        if send_seq(
                            self.id,
                            &mut self.links[wi],
                            &mut *self.backend,
                            INNER_REVOKE,
                            &[],
                            ctx,
                        ) {
                            self.downed.push(wi);
                        }
                    }
                }));
                if run.is_err() {
                    self.crash_restart(ctx);
                } else {
                    // The peer's whole automaton restarted, which took
                    // every forest instance it hosted with it: run the
                    // peer-reset transition on each of ours and cascade
                    // per-tree revokes the same way.
                    self.forest_peer_reset(from, ctx);
                }
            }
            Work::Revoke { from } => {
                let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let next_hops = self.mech.handle_revoke(from, &mut self.out);
                    self.send_outbox(ctx);
                    for t in next_hops {
                        let wi = self.mech.nbr_index(t);
                        if send_seq(
                            self.id,
                            &mut self.links[wi],
                            &mut *self.backend,
                            INNER_REVOKE,
                            &[],
                            ctx,
                        ) {
                            self.downed.push(wi);
                        }
                    }
                }));
                if run.is_err() {
                    self.crash_restart(ctx);
                }
            }
            Work::RevokeT { from, tree } => {
                // A revoke for a tree this node never instantiated has
                // nothing to tear down (and must not instantiate one).
                if self.insts.contains_key(&tree) {
                    let mut inst = self.take_inst(tree, ctx);
                    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        let next_hops = inst.mech.handle_revoke(from, &mut self.out);
                        self.send_outbox_t(tree, ctx);
                        next_hops
                    }));
                    match run {
                        Ok(next_hops) => {
                            self.insts.insert(tree, inst);
                            for t in next_hops {
                                self.send_revoke_t(tree, t, ctx);
                            }
                            self.refresh_tree(tree, ctx);
                        }
                        Err(_) => self.crash_restart(ctx),
                    }
                }
            }
            Work::Client { conn, req_id, op } => {
                let _done = InFlightGuard(ctx.in_flight);
                let t0 = oat_obs::now_ns();
                let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match op {
                    ReqOp::Write(arg) => {
                        if self.durable {
                            // Logged (and fsynced — Write records force
                            // a sync) before the ack below can flush:
                            // an acknowledged write survives any kill.
                            let mut bytes = Vec::with_capacity(16);
                            arg.encode(&mut bytes);
                            self.backend.log_write(&bytes);
                        }
                        self.durable_val = arg.clone();
                        self.mech.handle_write(arg, &mut self.out);
                        self.send_outbox(ctx);
                        let mut payload = Vec::with_capacity(8);
                        put_u64(&mut payload, req_id);
                        respond(
                            &mut self.clients,
                            &mut self.book,
                            conn,
                            TAG_RESP_WRITE,
                            &payload,
                        );
                        oat_obs::trace_event!(
                            oat_obs::EventKind::RespTx,
                            self.id.0,
                            conn as u32,
                            req_id
                        );
                    }
                    ReqOp::Combine => {
                        let outcome = self.mech.handle_combine(&mut self.out);
                        self.send_outbox(ctx);
                        match outcome {
                            CombineOutcome::Done(v) => {
                                let mut payload = Vec::with_capacity(16);
                                put_u64(&mut payload, req_id);
                                v.encode(&mut payload);
                                respond(
                                    &mut self.clients,
                                    &mut self.book,
                                    conn,
                                    TAG_RESP_COMBINE,
                                    &payload,
                                );
                                oat_obs::trace_event!(
                                    oat_obs::EventKind::RespTx,
                                    self.id.0,
                                    conn as u32,
                                    req_id
                                );
                                self.completions.push((self.id, v));
                            }
                            CombineOutcome::Pending | CombineOutcome::Coalesced => {
                                // A retried request must not park a second
                                // waiter (one response per (conn, req-id)).
                                if !self.waiters.contains(&(conn, req_id)) {
                                    self.waiters.push((conn, req_id));
                                }
                            }
                        }
                    }
                }));
                oat_obs::trace_span!(
                    oat_obs::EventKind::ReqServe,
                    t0,
                    self.id.0,
                    conn as u32,
                    req_id
                );
                if run.is_err() {
                    self.crash_restart(ctx);
                }
            }
            Work::ClientT {
                conn,
                req_id,
                tree,
                op,
            } => {
                let _done = InFlightGuard(ctx.in_flight);
                let t0 = oat_obs::now_ns();
                let mut inst = self.take_inst(tree, ctx);
                // Forest writes are *volatile* (not WAL-logged): the
                // query engine owns healing them after a kill9, so the
                // durable-value hook is deliberately absent here.
                let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match op {
                    ReqOp::Write(arg) => {
                        inst.mech.handle_write(arg, &mut self.out);
                        self.send_outbox_t(tree, ctx);
                        let mut payload = Vec::with_capacity(8);
                        put_u64(&mut payload, req_id);
                        respond(
                            &mut self.clients,
                            &mut self.book,
                            conn,
                            TAG_RESP_WRITE,
                            &payload,
                        );
                        oat_obs::trace_event!(
                            oat_obs::EventKind::RespTx,
                            self.id.0,
                            conn as u32,
                            req_id
                        );
                        None
                    }
                    ReqOp::Combine => {
                        let outcome = inst.mech.handle_combine(&mut self.out);
                        self.send_outbox_t(tree, ctx);
                        match outcome {
                            CombineOutcome::Done(v) => {
                                let mut payload = Vec::with_capacity(16);
                                put_u64(&mut payload, req_id);
                                v.encode(&mut payload);
                                respond(
                                    &mut self.clients,
                                    &mut self.book,
                                    conn,
                                    TAG_RESP_COMBINE,
                                    &payload,
                                );
                                oat_obs::trace_event!(
                                    oat_obs::EventKind::RespTx,
                                    self.id.0,
                                    conn as u32,
                                    req_id
                                );
                                Some(v)
                            }
                            CombineOutcome::Pending | CombineOutcome::Coalesced => {
                                if !inst.waiters.contains(&(conn, req_id)) {
                                    inst.waiters.push((conn, req_id));
                                }
                                None
                            }
                        }
                    }
                }));
                oat_obs::trace_span!(
                    oat_obs::EventKind::ReqServe,
                    t0,
                    self.id.0,
                    conn as u32,
                    req_id
                );
                match run {
                    Ok(done) => {
                        self.insts.insert(tree, inst);
                        match done {
                            Some(v) => self.push_partial(tree, &v),
                            // A write (or a parked combine) may have
                            // changed what subscribers here should see.
                            None => self.refresh_tree(tree, ctx),
                        }
                    }
                    Err(_) => self.crash_restart(ctx),
                }
            }
            Work::Sub { conn, sub_id, tree } => {
                let _done = InFlightGuard(ctx.in_flight);
                let subs = self.tree_subs.entry(tree).or_default();
                // Idempotent per (conn, sub id): a retried subscribe
                // must not register twice.
                if !subs.subs.iter().any(|s| s.conn == conn && s.id == sub_id) {
                    subs.subs.push(Sub {
                        conn,
                        id: sub_id,
                        primed: false,
                    });
                }
                oat_obs::trace_event!(oat_obs::EventKind::SubStart, self.id.0, conn as u32, sub_id);
                // Prime the subscriber with the current value right away
                // rather than waiting for the next write to touch the
                // tree.
                self.refresh_tree(tree, ctx);
            }
            Work::Metrics { conn, req_id } => {
                let metrics = self.snapshot_metrics(ctx);
                let mut payload = Vec::with_capacity(64);
                put_u64(&mut payload, req_id);
                metrics.encode(&mut payload);
                respond(
                    &mut self.clients,
                    &mut self.book,
                    conn,
                    TAG_RESP_METRICS,
                    &payload,
                );
            }
        }
        self.settle_downed();
        if self.durable {
            self.sync_leases();
        }
    }

    /// Logs every lease transition since the last call as a diff against
    /// the cached bits. Called after each dispatch when durable.
    fn sync_leases(&mut self) {
        for vi in 0..self.degree {
            let bits = (u8::from(self.mech.granted(vi)) << 1) | u8::from(self.mech.taken(vi));
            if bits != self.lease_bits[vi] {
                self.lease_bits[vi] = bits;
                self.backend.log_lease(self.links[vi].peer.0, bits);
            }
        }
    }

    /// Buffers everything in the mechanism outbox onto the sequenced
    /// links, recording stats and in-flight accounting per frame.
    fn send_outbox(&mut self, ctx: &Ctx<'_, S, A>) {
        let mut payload = Vec::with_capacity(32);
        let out = std::mem::take(&mut self.out);
        for (to, msg) in out {
            self.stats
                .record(ctx.tree.dir_edge_index(self.id, to), msg.kind());
            // Relaxed is sufficient: every read that must observe
            // `total_sent` happens after `quiesce()` saw `in_flight == 0`,
            // and the SeqCst decrement concluding each handler is
            // sequenced after this increment in the same thread.
            ctx.total_sent.fetch_add(1, Ordering::Relaxed);
            payload.clear();
            msg.encode_wire(&mut payload);
            let wi = self.mech.nbr_index(to);
            if send_seq(
                self.id,
                &mut self.links[wi],
                &mut *self.backend,
                INNER_NET,
                &payload,
                ctx,
            ) {
                self.downed.push(wi);
            }
        }
    }

    /// Answers every parked combine waiter with the completed value.
    fn answer_waiters(&mut self, v: A::Value) {
        for (conn, req_id) in std::mem::take(&mut self.waiters) {
            let mut payload = Vec::with_capacity(16);
            put_u64(&mut payload, req_id);
            v.encode(&mut payload);
            respond(
                &mut self.clients,
                &mut self.book,
                conn,
                TAG_RESP_COMBINE,
                &payload,
            );
            oat_obs::trace_event!(oat_obs::EventKind::RespTx, self.id.0, conn as u32, req_id);
            self.completions.push((self.id, v.clone()));
        }
    }

    /// Takes the forest instance for `tree` out of the map — creating it
    /// lazily at the current incarnation epoch — so a handler can run
    /// against it while the rest of the node stays borrowable. The
    /// caller reinserts it on success; on a panic it is dropped and the
    /// node-level crash-restart clears the whole forest.
    fn take_inst(&mut self, tree: u32, ctx: &Ctx<'_, S, A>) -> Inst<S::Node, A> {
        self.insts.remove(&tree).unwrap_or_else(|| {
            let mut mech = MechNode::new(
                ctx.tree,
                self.id,
                ctx.op.clone(),
                ctx.spec.build(self.degree),
                false,
            );
            mech.set_epoch(self.epoch);
            Inst {
                mech,
                waiters: Vec::new(),
            }
        })
    }

    /// Drains the mechanism outbox for a forest tree: like
    /// [`NodeRt::send_outbox`] but frames ride `INNER_NET_T` with the
    /// tree id prefixed. Completions are *not* recorded — the completion
    /// log is a tree-0 sim-parity artifact.
    fn send_outbox_t(&mut self, tree: u32, ctx: &Ctx<'_, S, A>) {
        let mut payload = Vec::with_capacity(36);
        let out = std::mem::take(&mut self.out);
        for (to, msg) in out {
            self.stats
                .record(ctx.tree.dir_edge_index(self.id, to), msg.kind());
            ctx.total_sent.fetch_add(1, Ordering::Relaxed);
            payload.clear();
            put_u32(&mut payload, tree);
            msg.encode_wire(&mut payload);
            // Every forest tree shares the base tree's topology, so the
            // built-in instance's neighbour table routes for all of them.
            let wi = self.mech.nbr_index(to);
            if send_seq(
                self.id,
                &mut self.links[wi],
                &mut *self.backend,
                INNER_NET_T,
                &payload,
                ctx,
            ) {
                self.downed.push(wi);
            }
        }
    }

    /// Queues a per-tree revoke (4-byte tree-id body) toward `to`.
    fn send_revoke_t(&mut self, tree: u32, to: NodeId, ctx: &Ctx<'_, S, A>) {
        let mut body = Vec::with_capacity(4);
        put_u32(&mut body, tree);
        let wi = self.mech.nbr_index(to);
        if send_seq(
            self.id,
            &mut self.links[wi],
            &mut *self.backend,
            INNER_REVOKE,
            &body,
            ctx,
        ) {
            self.downed.push(wi);
        }
    }

    /// Answers every waiter parked on a forest instance.
    fn answer_tree_waiters(&mut self, inst: &mut Inst<S::Node, A>, v: &A::Value) {
        for (conn, req_id) in std::mem::take(&mut inst.waiters) {
            let mut payload = Vec::with_capacity(16);
            put_u64(&mut payload, req_id);
            v.encode(&mut payload);
            respond(
                &mut self.clients,
                &mut self.book,
                conn,
                TAG_RESP_COMBINE,
                &payload,
            );
            oat_obs::trace_event!(oat_obs::EventKind::RespTx, self.id.0, conn as u32, req_id);
        }
    }

    /// Pushes a `TAG_PARTIAL` refinement to every subscriber of `tree`.
    /// A value equal to the last push is not a refinement — it goes only
    /// to subscribers that were never primed, under the unchanged seq.
    fn push_partial(&mut self, tree: u32, v: &A::Value) {
        let Some(ts) = self.tree_subs.get_mut(&tree) else {
            return;
        };
        if ts.subs.is_empty() {
            return;
        }
        let changed = ts.last_push.as_ref() != Some(v);
        if changed {
            ts.push_seq += 1;
            ts.last_push = Some(v.clone());
        }
        for s in &mut ts.subs {
            if !changed && s.primed {
                continue;
            }
            s.primed = true;
            let mut p = Vec::with_capacity(28);
            put_u64(&mut p, s.id);
            put_u32(&mut p, tree);
            put_u64(&mut p, ts.push_seq);
            v.encode(&mut p);
            if let Some(c) = self.clients.get_mut(&s.conn) {
                c.out.frame(TAG_PARTIAL, &p);
            }
            oat_obs::trace_event!(
                oat_obs::EventKind::PartialTx,
                self.id.0,
                s.conn as u32,
                ts.push_seq
            );
        }
    }

    /// Re-runs the combine for a subscribed tree and pushes the result
    /// as a partial. Called whenever work touched `tree` at a node that
    /// holds subscriptions: a `Done` pushes immediately; a `Pending`
    /// probe's completion pushes from the `NetT` path when it lands.
    /// No-op on trees without subscribers, so non-serving nodes never
    /// issue extra combines.
    fn refresh_tree(&mut self, tree: u32, ctx: &Ctx<'_, S, A>) {
        if self
            .tree_subs
            .get(&tree)
            .is_none_or(|ts| ts.subs.is_empty())
        {
            return;
        }
        let mut inst = self.take_inst(tree, ctx);
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let outcome = inst.mech.handle_combine(&mut self.out);
            self.send_outbox_t(tree, ctx);
            outcome
        }));
        match run {
            Ok(outcome) => {
                self.insts.insert(tree, inst);
                if let CombineOutcome::Done(v) = outcome {
                    self.push_partial(tree, &v);
                }
            }
            Err(_) => self.crash_restart(ctx),
        }
    }

    /// Runs the peer-reset transition on every forest instance after a
    /// neighbour's automaton restart, cascading per-tree revokes.
    fn forest_peer_reset(&mut self, from: NodeId, ctx: &Ctx<'_, S, A>) {
        let trees: Vec<u32> = self.insts.keys().copied().collect();
        for tree in trees {
            let mut inst = self.take_inst(tree, ctx);
            let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let revokes = inst.mech.handle_peer_reset(from, &mut self.out);
                self.send_outbox_t(tree, ctx);
                revokes
            }));
            match run {
                Ok(revokes) => {
                    self.insts.insert(tree, inst);
                    for t in revokes {
                        self.send_revoke_t(tree, t, ctx);
                    }
                    self.refresh_tree(tree, ctx);
                }
                Err(_) => {
                    self.crash_restart(ctx);
                    break;
                }
            }
        }
    }

    /// Destroys and rebuilds the automaton after a crash (injected or
    /// panicked). The transport and the durable value survive; waiters
    /// are dropped (clients recover via timeout + retry), and the fresh
    /// automaton's first act is a sequenced `RESET` on every edge — down
    /// edges queue it in the retransmit buffer, so the peer learns of
    /// the restart in FIFO position even across a connection failure.
    fn crash_restart(&mut self, ctx: &Ctx<'_, S, A>) {
        oat_obs::trace_event!(oat_obs::EventKind::Crash, self.id.0, 0, 0);
        self.counters.restarts += 1;
        self.waiters.clear();
        // The crash takes the whole forest with it (forest instances are
        // volatile). Subscriptions are transport state and survive, but
        // fresh instances may regress below the last pushed value, so
        // subscribers are re-primed at the next refresh; the refinement
        // seq itself stays monotone across the restart.
        self.abandoned += self
            .insts
            .values()
            .map(|i| i.waiters.len() as u64)
            .sum::<u64>();
        self.insts.clear();
        for ts in self.tree_subs.values_mut() {
            ts.last_push = None;
            for s in &mut ts.subs {
                s.primed = false;
            }
        }
        self.out.clear();
        self.mech = MechNode::new(
            ctx.tree,
            self.id,
            ctx.op.clone(),
            ctx.spec.build(self.degree),
            ctx.ghost,
        );
        // The replacement automaton's incarnation number lets it discard
        // responses addressed to the incarnation that just died (see the
        // epoch guard in `MechNode::handle_message`).
        self.epoch += 1;
        self.mech.set_epoch(self.epoch);
        if self.durable {
            self.backend.log_epoch(self.epoch);
        }
        oat_obs::trace_event!(oat_obs::EventKind::Restart, self.id.0, 0, self.epoch);
        // Restore the durable value. The fresh node holds no grants, so
        // this emits nothing.
        let mut sink = Vec::new();
        self.mech.handle_write(self.durable_val.clone(), &mut sink);
        debug_assert!(sink.is_empty());
        for wi in 0..self.links.len() {
            if send_seq(
                self.id,
                &mut self.links[wi],
                &mut *self.backend,
                INNER_RESET,
                &[],
                ctx,
            ) {
                self.downed.push(wi);
            }
        }
        self.settle_downed();
        if self.durable {
            self.sync_leases();
        }
    }

    /// Whether a kill9 fired during the last dispatch pass; consumes the
    /// flag. The reactor calls [`NodeRt::kill9_restart`] when true.
    pub(crate) fn take_kill9(&mut self) -> bool {
        std::mem::take(&mut self.kill9_pending)
    }

    /// Process-grade kill + recovery: demolish everything a SIGKILL
    /// would take — links, retransmit buffers, client connections, the
    /// automaton, the in-memory value — then rebuild the node from its
    /// durability backend as a cold-starting incarnation. The listener
    /// survives (the "new process" inherits the node's address) as do
    /// the pure observability accumulators (stats, counters, completion
    /// log), which belong to the harness, not the process.
    pub(crate) fn kill9_restart(&mut self, ctx: &Ctx<'_, S, A>) {
        oat_obs::trace_event!(oat_obs::EventKind::Crash, self.id.0, 1, 0);
        ctx.ledger.kill9s.fetch_add(1, Ordering::Relaxed);
        self.counters.restarts += 1;
        self.counters.kill9s += 1;
        // Sever every connection the dead process held.
        for (_, conn) in self.pending.drain() {
            let _ = conn.stream.shutdown(Shutdown::Both);
        }
        for (_, conn) in self.clients.drain() {
            let _ = conn.stream.shutdown(Shutdown::Both);
        }
        self.book = BatchBook::default();
        self.abandoned += self.waiters.len() as u64;
        self.waiters.clear();
        // A process kill severs every client socket, and subscriptions
        // die with their connections — subscribers re-subscribe on
        // reconnect. The forest itself is volatile and vanishes.
        self.abandoned += self
            .insts
            .values()
            .map(|i| i.waiters.len() as u64)
            .sum::<u64>();
        self.insts.clear();
        self.tree_subs.clear();
        self.out.clear();
        self.downed.clear();
        self.stalled = false;
        // Forgive the dead incarnation's buffered frames: outstanding
        // edge debt equals Σ rtx lengths, so this is exact. Recovery
        // below re-charges whatever the WAL preserved.
        let mut forgiven = 0;
        for link in &mut self.links {
            if let Some(conn) = link.conn.take() {
                let _ = conn.stream.shutdown(Shutdown::Both);
            }
            if let Some(conn) = link.pending_dial.take() {
                let _ = conn.stream.shutdown(Shutdown::Both);
            }
            forgiven += link.rtx.len() as i64;
            link.rtx.clear();
            link.tx_seq = 0;
            link.acked = 0;
            link.acked_at_tick = 0;
            link.rx_seq = 0;
            link.rx_acked = 0;
            link.reack = false;
            link.redial_at = None;
        }
        if forgiven > 0 {
            ctx.in_flight.sub(forgiven);
        }
        self.connected = 0;
        self.durable_val = ctx.op.identity();
        self.lease_bits.iter_mut().for_each(|b| *b = 0);
        // Rebuild from the log, exactly like a cold start...
        let state = self.backend.recover().unwrap_or_default();
        self.restore_from(state, ctx);
        // ...and start redialing immediately on edges we own.
        let now = Instant::now();
        for link in &mut self.links {
            if link.dialer {
                link.backoff_ms = RECONNECT_BASE_MS;
                link.redial_at = Some(now);
            }
        }
    }

    /// Rebuilds the automaton + transport state from recovered durable
    /// state: the cold-start path, shared by spawn-over-existing-WAL and
    /// [`NodeRt::kill9_restart`]. Expects link sequence state to be at
    /// its zero value on entry.
    fn restore_from(&mut self, state: WalState, ctx: &Ctx<'_, S, A>) {
        // Restore the durable value (identity when nothing was written).
        if let Some(bytes) = &state.val {
            let mut r = WireReader::new(bytes);
            if let Ok(v) = A::Value::decode(&mut r) {
                self.durable_val = v;
            }
        }
        // Restore per-edge sequence state and re-charge the recovered
        // retransmit buffers into the in-flight gauge.
        let now = Instant::now();
        let mut recharged = 0;
        for ls in &state.links {
            let Some(wi) = self.links.iter().position(|l| l.peer.0 == ls.peer) else {
                continue;
            };
            let link = &mut self.links[wi];
            link.tx_seq = ls.tx_seq;
            link.acked = ls.acked;
            link.acked_at_tick = ls.acked;
            link.rx_seq = ls.rx_seq;
            link.rx_acked = ls.rx_seq;
            link.rtx = ls
                .rtx
                .iter()
                .map(|(seq, inner, body)| (*seq, *inner, body.clone(), now))
                .collect();
            recharged += link.rtx.len() as i64;
            self.lease_bits[wi] = ls.lease;
        }
        if recharged > 0 {
            ctx.in_flight.add(recharged);
        }
        // A fresh automaton at a strictly newer epoch than any the dead
        // incarnation could have used, persisted before anything else so
        // the *next* incarnation moves past it even on a torn tail.
        self.mech = MechNode::new(
            ctx.tree,
            self.id,
            ctx.op.clone(),
            ctx.spec.build(self.degree),
            ctx.ghost,
        );
        self.epoch = self.epoch.max(state.epoch) + 1;
        self.backend.log_epoch(self.epoch);
        self.mech.set_epoch(self.epoch);
        oat_obs::trace_event!(oat_obs::EventKind::Restart, self.id.0, 1, self.epoch);
        let mut sink = Vec::new();
        self.mech.handle_write(self.durable_val.clone(), &mut sink);
        debug_assert!(sink.is_empty());
        // Announce the new incarnation in FIFO position on every edge.
        for wi in 0..self.links.len() {
            if send_seq(
                self.id,
                &mut self.links[wi],
                &mut *self.backend,
                INNER_RESET,
                &[],
                ctx,
            ) {
                self.downed.push(wi);
            }
        }
        self.settle_downed();
        // The fresh mechanism holds no leases; log the zeroing of any
        // recovered lease bits so the WAL tracks the truth.
        self.sync_leases();
    }

    /// Marks every queued-down edge as down exactly once and arms the
    /// redial timer when this endpoint owns the edge's dialing.
    fn settle_downed(&mut self) {
        while let Some(wi) = self.downed.pop() {
            let link = &mut self.links[wi];
            let Some(conn) = link.conn.take() else {
                continue;
            };
            let _ = conn.stream.shutdown(Shutdown::Both);
            self.connected -= 1;
            if link.dialer && link.pending_dial.is_none() {
                link.backoff_ms = RECONNECT_BASE_MS;
                link.redial_at = Some(Instant::now());
            }
        }
    }

    /// Fires due redial timers: a blocking `connect` to a pre-bound
    /// loopback listener completes (or fails) immediately, then the
    /// hello waits for its reply under poll like any other read.
    pub(crate) fn run_dial_timers(&mut self, ctx: &Ctx<'_, S, A>, now: Instant) {
        for wi in 0..self.links.len() {
            let link = &mut self.links[wi];
            if link.conn.is_some() || link.pending_dial.is_some() {
                link.redial_at = None;
                continue;
            }
            match link.redial_at {
                Some(at) if at <= now => {
                    link.redial_at = None;
                    self.try_dial(wi, ctx);
                }
                _ => {}
            }
        }
    }

    /// Dials neighbour `wi`: over a memory pipe when this reactor also
    /// owns the peer (the cluster places node `u` on reactor
    /// `u % pool`), else over the cluster transport.
    fn try_dial(&mut self, wi: usize, ctx: &Ctx<'_, S, A>) {
        let link = &mut self.links[wi];
        let stream = match ctx.mem.connect(self.id, link.peer) {
            Some(pipe) => Ok(Stream::Mem(pipe)),
            None => Stream::connect(&ctx.addrs[link.peer.idx()]),
        };
        let attempt = stream.and_then(Conn::new);
        match attempt {
            Ok(mut conn) => {
                let mut hello = Vec::with_capacity(20);
                put_u32(&mut hello, self.id.0);
                put_u64(&mut hello, link.rx_seq);
                put_u64(&mut hello, link.acked);
                conn.out.frame(TAG_HELLO_EDGE, &hello);
                link.pending_dial = Some(conn);
            }
            Err(_) => self.schedule_redial(wi),
        }
    }

    fn schedule_redial(&mut self, wi: usize) {
        let link = &mut self.links[wi];
        let backoff = link.backoff_ms;
        let jitter = link.next_jitter(backoff);
        link.redial_at = Some(Instant::now() + Duration::from_millis(backoff + jitter));
        link.backoff_ms = (backoff * 2).min(RECONNECT_CAP_MS);
    }

    /// Go-back-N on every up edge whose ack watermark stalled since the
    /// previous tick. A stalled watermark alone is not evidence of loss
    /// — the oldest unacked frame must also be at least one RTO old.
    pub(crate) fn rto_tick(&mut self) {
        let id = self.id;
        for link in self.links.iter_mut() {
            let stale = link
                .rtx
                .front()
                .is_some_and(|(_, _, _, sent)| sent.elapsed() >= RTO);
            if stale && link.acked == link.acked_at_tick {
                if let Some(conn) = link.conn.as_mut() {
                    self.counters.timeouts += 1;
                    self.counters.retransmits += link.rtx.len() as u64;
                    oat_obs::trace_event!(oat_obs::EventKind::RtoExpire, id.0, link.peer.0, 0);
                    oat_obs::trace_event!(
                        oat_obs::EventKind::Retransmit,
                        id.0,
                        link.peer.0,
                        link.rtx.len() as u64
                    );
                    let now = Instant::now();
                    for (seq, inner, body, sent) in link.rtx.iter_mut() {
                        queue_seq(&mut conn.out, *seq, *inner, body);
                        *sent = now;
                    }
                }
            }
            link.acked_at_tick = link.acked;
        }
    }

    /// The per-iteration flush: piggy-back a cumulative ack on every
    /// edge whose receive watermark advanced, push every write queue
    /// into its socket (edges before clients, so a flushed client
    /// response always trails the mechanism messages of the request
    /// that produced it), and update the backpressure stall state.
    pub(crate) fn flush(&mut self, ctx: &Ctx<'_, S, A>) {
        for (wi, link) in self.links.iter_mut().enumerate() {
            if let Some(conn) = link.pending_dial.as_mut() {
                if !conn.out.is_empty() && conn.flush().is_err() {
                    link.pending_dial = None;
                    let backoff = link.backoff_ms;
                    let jitter = link.next_jitter(backoff);
                    link.redial_at = Some(Instant::now() + Duration::from_millis(backoff + jitter));
                    link.backoff_ms = (backoff * 2).min(RECONNECT_CAP_MS);
                }
            }
            if let Some(conn) = link.conn.as_mut() {
                if link.rx_seq > link.rx_acked || link.reack {
                    let mut p = Vec::with_capacity(8);
                    put_u64(&mut p, link.rx_seq);
                    conn.out.frame(TAG_ACK, &p);
                    link.rx_acked = link.rx_seq;
                    link.reack = false;
                }
                if !conn.out.is_empty() && conn.flush().is_err() {
                    self.downed.push(wi);
                }
            }
        }
        self.settle_downed();
        // Stream whatever each in-progress batch gathered since the last
        // boundary, before the client write queues flush below.
        self.stream_batches();
        let mut dropped: Vec<ClientId> = Vec::new();
        self.clients.retain(|&cid, conn| {
            let keep = conn.out.is_empty() || conn.flush().is_ok();
            if !keep {
                dropped.push(cid);
            }
            keep
        });
        for cid in dropped {
            self.book.purge(cid);
            self.purge_subs(cid);
        }
        // Backpressure: enter a stall at the high watermark, leave only
        // once *every* edge drained below the low one (hysteresis).
        if !self.stalled {
            if self.links.iter().any(|l| l.rtx.len() >= ctx.rtx_high) {
                self.stalled = true;
                self.backpressure_stalls += 1;
            }
        } else if self.links.iter().all(|l| l.rtx.len() <= ctx.rtx_low) {
            self.stalled = false;
        }
        // Fold the log into a snapshot once enough has accumulated —
        // at the flush boundary the node's state is self-consistent.
        if self.durable && self.backend.wants_snapshot() {
            let state = self.wal_state();
            self.backend.snapshot(&state);
        }
    }

    /// Folds the node's durable state into a snapshot image.
    fn wal_state(&self) -> WalState {
        let mut val = Vec::with_capacity(16);
        self.durable_val.encode(&mut val);
        WalState {
            epoch: self.epoch,
            val: Some(val),
            links: self
                .links
                .iter()
                .enumerate()
                .map(|(vi, l)| LinkState {
                    peer: l.peer.0,
                    tx_seq: l.tx_seq,
                    acked: l.acked,
                    rx_seq: l.rx_seq,
                    lease: self.lease_bits[vi],
                    rtx: l
                        .rtx
                        .iter()
                        .map(|(seq, inner, body, _)| (*seq, *inner, body.clone()))
                        .collect(),
                })
                .collect(),
        }
    }

    fn snapshot_metrics(&self, ctx: &Ctx<'_, S, A>) -> NodeMetrics {
        let mut leases_taken = 0;
        let mut leases_granted = 0;
        let mut edges = Vec::with_capacity(self.mech.nbrs().len());
        let mut dup_drops = 0;
        for (vi, &v) in self.mech.nbrs().iter().enumerate() {
            if self.mech.taken(vi) {
                leases_taken += 1;
            }
            if self.mech.granted(vi) {
                leases_granted += 1;
            }
            edges.push((
                v.0,
                self.stats.per_edge_counts()[ctx.tree.dir_edge_index(self.id, v)],
            ));
            dup_drops += self.links[vi].dup_drops;
        }
        let (queue_depth, queue_peak) = self.gauge.read();
        let wal = self.backend.counters();
        NodeMetrics {
            node: self.id.0,
            sent_by_kind: self.stats.kind_totals(),
            delivered: self.delivered,
            edges,
            leases_taken,
            leases_granted,
            queue_depth,
            queue_peak,
            pending_combines: self.waiters.len() as u64,
            combines_served: self.completions.len() as u64,
            reconnects: self.counters.reconnects,
            retransmits: self.counters.retransmits,
            dup_drops,
            timeouts: self.counters.timeouts,
            restarts: self.counters.restarts,
            kill9s: self.counters.kill9s,
            backpressure_stalls: self.backpressure_stalls,
            wal_records: wal.records,
            wal_fsyncs: wal.fsyncs,
            wal_replays: wal.replays,
            wal_torn_bytes: wal.torn_bytes,
            wal_snapshots: wal.snapshots,
            mem_edges: self
                .links
                .iter()
                .filter(|l| l.conn.as_ref().is_some_and(|c| c.stream.is_mem()))
                .count() as u32,
            ledger_peak: self.mech.ledger_peak() as u64,
            uaw_peak: self.mech.uaw_peak() as u64,
        }
    }

    /// Installs a freshly connected edge stream: replies to the hello
    /// when we are the accepting side, replaces any previous connection,
    /// and replays every unacknowledged frame past the peer's receive
    /// watermark. Returns the neighbour index on success.
    ///
    /// The peer's two hello watermarks also *heal* this side after a
    /// torn-tail recovery, where our own log may understate what the
    /// wire already saw: `peer_rx` (what the peer delivered from us)
    /// fast-forwards our `tx_seq` so no sequence number is ever reused,
    /// and `peer_acked` (the highest of the peer's own frames that a
    /// previous incarnation of this node acknowledged) fast-forwards our
    /// receive watermark so the peer never waits for an ack of frames it
    /// already trimmed. Both are monotone maxes — no-ops on every
    /// non-torn reconnect.
    fn install_edge(
        &mut self,
        peer: NodeId,
        mut conn: Conn,
        peer_rx: u64,
        peer_acked: u64,
        accepted: bool,
        ctx: &Ctx<'_, S, A>,
    ) -> Option<usize> {
        // An unknown peer id is a protocol violation from an untrusted
        // connection: drop it.
        let wi = ctx.tree.nbrs(self.id).iter().position(|&v| v == peer)?;
        let rx_before = self.links[wi].rx_seq;
        {
            // Apply the peer's watermarks *before* composing our reply,
            // so an accepting side's hello already reflects them.
            let link = &mut self.links[wi];
            if peer_acked > link.rx_seq {
                link.rx_seq = peer_acked;
            }
            if peer_acked > link.rx_acked {
                link.rx_acked = peer_acked;
            }
            if peer_rx > link.tx_seq {
                link.tx_seq = peer_rx;
            }
        }
        if accepted {
            // Reply with our id + watermarks so the dialer knows where
            // to resume. Queued first, so it precedes the replay.
            let link = &self.links[wi];
            let mut hello = Vec::with_capacity(20);
            put_u32(&mut hello, self.id.0);
            put_u64(&mut hello, link.rx_seq);
            put_u64(&mut hello, link.acked);
            conn.out.frame(TAG_HELLO_EDGE, &hello);
        }
        let link = &mut self.links[wi];
        let was_up = link.conn.is_some();
        if let Some(old) = link.conn.take() {
            // Sever the replaced connection. Frames still buffered in its
            // decoder or queues are dropped — the sequenced replay below
            // (and the peer's own) re-delivers everything unacknowledged.
            let _ = old.stream.shutdown(Shutdown::Both);
        }
        link.conn = Some(conn);
        link.pending_dial = None;
        link.redial_at = None;
        link.backoff_ms = RECONNECT_BASE_MS;
        if link.ever_up {
            self.counters.reconnects += 1;
            oat_obs::trace_event!(oat_obs::EventKind::Reconnect, self.id.0, peer.0, 0);
        }
        link.ever_up = true;
        // Resume the sequenced stream: everything the peer already has
        // is acknowledged by its hello watermark; replay the rest in
        // order (no fault actions — replays are recovery traffic). Each
        // trimmed frame settles its in-flight debt here, its only exit.
        let acked_before = link.acked;
        if peer_rx > link.acked {
            link.acked = peer_rx;
        }
        let mut settled = 0;
        while link.rtx.front().is_some_and(|(s, ..)| *s <= link.acked) {
            link.rtx.pop_front();
            settled += 1;
        }
        if settled > 0 {
            ctx.in_flight.sub(settled);
        }
        if self.durable {
            // Persist any watermark moves the hello produced.
            let (rx_now, acked_now) = (self.links[wi].rx_seq, self.links[wi].acked);
            if rx_now > rx_before {
                self.backend.log_rx(peer.0, rx_now);
            }
            if acked_now > acked_before {
                self.backend.log_ack(peer.0, acked_now);
            }
        }
        let link = &mut self.links[wi];
        if !link.rtx.is_empty() {
            self.counters.retransmits += link.rtx.len() as u64;
            oat_obs::trace_event!(
                oat_obs::EventKind::Retransmit,
                self.id.0,
                peer.0,
                link.rtx.len() as u64
            );
            let out = &mut link.conn.as_mut().expect("just installed").out;
            let now = Instant::now();
            for (seq, inner, body, sent) in link.rtx.iter_mut() {
                queue_seq(out, *seq, *inner, body);
                *sent = now;
            }
        }
        if !was_up {
            self.connected += 1;
            if self.connected == self.degree && !self.ready_sent {
                self.ready_sent = true;
                let _ = self.ready_tx.send(());
            }
        }
        Some(wi)
    }

    /// Orderly end of the node: record what the automaton still held.
    pub(crate) fn finish(mut self) -> NodeReport<A::Value> {
        // Under faults a client may have given up on a combine; dropping
        // the waiter lets shutdown proceed and the count surfaces here.
        self.abandoned += self.waiters.len() as u64;
        self.abandoned += self
            .insts
            .values()
            .map(|i| i.waiters.len() as u64)
            .sum::<u64>();
        NodeReport {
            stats: self.stats,
            completions: self.completions,
            log: self.mech.ghost().map(|g| g.log.clone()),
            delivered: self.delivered,
            abandoned: self.abandoned,
            faults: self.counters,
            wal: self.backend.counters(),
        }
    }
}

/// Encodes one sequenced frame onto a write queue.
fn queue_seq(out: &mut WriteQueue, seq: u64, inner: u8, body: &[u8]) {
    let mut payload = Vec::with_capacity(9 + body.len());
    put_u64(&mut payload, seq);
    payload.push(inner);
    payload.extend_from_slice(body);
    out.frame(TAG_SEQ, &payload);
}

/// Assigns the next sequence number on `link`, logs the send to the
/// durability backend, appends the frame to the retransmit buffer
/// (in-flight accounting happens here, exactly once per logical frame —
/// the debt settles when the frame is trimmed after acknowledgement),
/// and attempts first transmission — subject to the edge's
/// fault-decision stream and kill schedule. Returns `true` when the
/// connection must be marked down.
fn send_seq<S, A: AggOp>(
    from: NodeId,
    link: &mut EdgeLink,
    dur: &mut dyn Durability,
    inner: u8,
    body: &[u8],
    ctx: &Ctx<'_, S, A>,
) -> bool {
    ctx.in_flight.add(1);
    link.tx_seq += 1;
    let seq = link.tx_seq;
    dur.log_send(link.peer.0, seq, inner, body);
    oat_obs::trace_event!(
        oat_obs::EventKind::FrameTx,
        from.0,
        link.peer.0,
        (seq << 8) | u64::from(inner)
    );
    link.rtx
        .push_back((seq, inner, body.to_vec(), Instant::now()));
    let Some(conn) = link.conn.as_mut() else {
        // Edge down: the frame waits in the retransmit buffer and is
        // replayed when the connection comes back.
        return false;
    };
    let action = link
        .faults
        .as_mut()
        .map(|f| f.next_action())
        .unwrap_or(FaultAction::Deliver);
    match action {
        FaultAction::Deliver => queue_seq(&mut conn.out, seq, inner, body),
        FaultAction::Drop => {
            // First transmission suppressed; the RTO resend recovers it.
            ctx.ledger.drops.fetch_add(1, Ordering::Relaxed);
        }
        FaultAction::Delay => {
            // Modeled as a suppressed first transmission too — the frame
            // arrives late, via the retransmission path, preserving
            // per-edge FIFO (a true in-stream delay would reorder).
            ctx.ledger.delays.fetch_add(1, Ordering::Relaxed);
        }
        FaultAction::Duplicate => {
            queue_seq(&mut conn.out, seq, inner, body);
            queue_seq(&mut conn.out, seq, inner, body);
            ctx.ledger.dups.fetch_add(1, Ordering::Relaxed);
        }
    }
    if let Some(f) = link.faults.as_mut() {
        if f.on_frame_carried() {
            // Scheduled connection kill: sever the socket with frames
            // potentially still in userspace/kernel buffers — they are
            // genuinely lost and must come back via reconnect replay.
            ctx.ledger.conns_killed.fetch_add(1, Ordering::Relaxed);
            let _ = conn.stream.shutdown(Shutdown::Both);
            return true;
        }
    }
    false
}

/// Queues one response frame for a client connection. A missing writer
/// means the client vanished; its responses are dropped — clients are
/// untrusted peers, their disappearance must not kill a node.
///
/// Responses owed to an in-progress batch are routed into its
/// accumulator instead; the gathered items *stream* out as
/// `TAG_RESP_BATCH` frames at flush boundaries (see [`BatchBook`] and
/// [`NodeRt::stream_batches`]), so a completed member never waits
/// behind the roster's slowest one.
fn respond(
    clients: &mut HashMap<ClientId, Conn>,
    book: &mut BatchBook,
    conn: ClientId,
    tag: u8,
    payload: &[u8],
) {
    if payload.len() >= 8 {
        let req_id = u64::from_le_bytes(payload[..8].try_into().expect("8 bytes"));
        if let Some(key) = book.member.remove(&(conn, req_id)) {
            let acc = book.accs.get_mut(&(conn, key)).expect("member implies acc");
            acc.items.push((tag, payload.to_vec()));
            acc.remaining -= 1;
            return;
        }
    }
    if let Some(c) = clients.get_mut(&conn) {
        c.out.frame(tag, payload);
    }
}
