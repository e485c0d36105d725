//! The poll-based reactor runtime: event-loop threads driving
//! non-blocking sockets.
//!
//! ## Thread model
//!
//! A cluster runs a small fixed pool of reactor threads (default
//! `min(cores, 4)`), each owning the shard of nodes with
//! `node_id % pool == shard`. *All* of a node's I/O — its listener, its
//! edge connections, its client connections, its redial timers — is
//! served by its owning reactor thread, so every per-node structure
//! (automaton, sequenced links, waiters, stats) is plain single-owner
//! state with no locks, no inbox channel, and no reader threads. The
//! previous runtime spawned ~3 blocking threads per node; this one
//! spawns exactly `pool` threads regardless of tree size (the figure
//! `ClusterReport::threads_spawned` records).
//!
//! ## The readiness loop
//!
//! Each iteration: fire due timers (redial attempts, the retransmission
//! tick), flush every connection's [`WriteQueue`] with `write_vectored`
//! (a `WouldBlock` leaves the remainder queued and arms `POLLOUT`),
//! rebuild the interest set, and block in `poll(2)` until a socket is
//! ready, a timer is due, or the cluster's waker nudges the loop (the
//! only cross-thread signal — used for shutdown). Ready sockets are
//! read in bounded chunks into per-connection [`FrameDecoder`]s
//! (`poll` is level-triggered, so leftovers re-report next iteration)
//! and every complete frame is dispatched inline on the owning node.
//!
//! ## Same-reactor edges
//!
//! An edge whose two nodes share this reactor runs over an in-memory
//! pipe ([`crate::transport::MemStream`]) instead of a socket: the
//! dialler gets one end, the other waits in the reactor's [`MemHub`]
//! until the peer adopts it as a pre-hello connection. A pipe has no
//! descriptor. Writing to it puts the peer on the hub's ready list, and
//! right after the flush pass [`pump_mem`] runs each ready node's pipe
//! handlers and flushes that node at once, so a chain of same-thread
//! hops advances without a single syscall. Frames to a node on another
//! reactor, and all client traffic, still cross a socket and wake the
//! peer's `poll`. Sequencing, acks, retransmission, fault injection and
//! quiescence are per-node state transitions above the byte pipe, so
//! they behave the same on both (see [`crate::node`]).

use std::collections::VecDeque;
use std::io::{self, IoSlice, Read, Write};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use oat_core::agg::AggOp;
use oat_core::fault::{FaultPlan, InjectedFaults};
use oat_core::policy::PolicySpec;
use oat_core::tree::{NodeId, Tree};
use oat_core::wire::WireValue;
use oat_poll::{PollFd, Poller, POLLIN};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;

use crate::frame::{write_frame, FrameDecoder};
use crate::node::{Ctx, NodeReport, NodeRt, RTO};
use crate::transport::{Listener, MemHub, NodeAddr, Stream};

/// Cluster-wide in-flight work counter with event-driven quiescence.
///
/// Client requests and unacked edge frames each hold one unit of debt;
/// [`InFlight::wait_zero`] parks on a condvar that [`InFlight::sub`]
/// notifies exactly when the count hits zero — replacing the
/// sleep-polling loop that used to dominate the sequential path.
pub(crate) struct InFlight {
    n: AtomicI64,
    mu: Mutex<()>,
    cv: Condvar,
}

impl InFlight {
    pub(crate) fn new() -> InFlight {
        InFlight {
            n: AtomicI64::new(0),
            mu: Mutex::new(()),
            cv: Condvar::new(),
        }
    }

    pub(crate) fn add(&self, d: i64) {
        self.n.fetch_add(d, Ordering::SeqCst);
    }

    pub(crate) fn sub(&self, d: i64) {
        if self.n.fetch_sub(d, Ordering::SeqCst) - d == 0 {
            // Take the lock before notifying so a waiter that observed a
            // non-zero count cannot park between our decrement and this
            // notification (it re-checks the count under the lock).
            let _g = self.mu.lock().unwrap();
            self.cv.notify_all();
        }
    }

    pub(crate) fn load(&self) -> i64 {
        self.n.load(Ordering::SeqCst)
    }

    /// Blocks until the count reaches zero. With a deadline, returns
    /// `false` if it expires first. The 50 ms cap on each park is a
    /// safety net against a lost wakeup, not the detection mechanism.
    pub(crate) fn wait_zero(&self, deadline: Option<Instant>) -> bool {
        loop {
            if self.load() == 0 {
                return true;
            }
            let guard = self.mu.lock().unwrap();
            if self.load() == 0 {
                return true;
            }
            let mut wait = Duration::from_millis(50);
            if let Some(d) = deadline {
                let left = d.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    return false;
                }
                wait = wait.min(left);
            }
            let _ = self.cv.wait_timeout(guard, wait).unwrap();
        }
    }
}

/// Target size for coalescing small frames into one owned chunk, and
/// therefore one `iovec` of the vectored write.
const COALESCE: usize = 8 * 1024;

/// Max `iovec`s per `write_vectored` call.
const MAX_IOVECS: usize = 32;

/// Bytes read per `read` call on a ready socket.
pub(crate) const READ_CHUNK: usize = 16 * 1024;

/// Reads issued per readiness event before yielding back to the loop
/// (level-triggered `poll` re-reports anything left in the kernel).
const READS_PER_EVENT: usize = 4;

/// Memory-pipe rounds served back to back before the reactor polls its
/// sockets again. One round serves every node with a readable pipe, so
/// a chain of same-reactor hops advances one hop per round; the bound
/// keeps sockets and timers from starving under sustained local load.
const MEM_ROUNDS: usize = 16;

/// Outbound byte queue of one connection: whole frames, coalesced into
/// chunks, drained with `write_vectored` and `WouldBlock` requeueing.
#[derive(Default)]
pub(crate) struct WriteQueue {
    chunks: VecDeque<Vec<u8>>,
    /// Bytes of `chunks[0]` already written (a partial vectored write).
    offset: usize,
}

impl WriteQueue {
    pub(crate) fn is_empty(&self) -> bool {
        self.chunks.is_empty()
    }

    /// Encodes one frame onto the queue. Small frames append to the
    /// tail chunk (one future iovec); a frame arriving at a full tail
    /// starts a new chunk. Infallible: the queue is memory, and every
    /// frame the runtime produces is well under `MAX_FRAME`.
    pub(crate) fn frame(&mut self, tag: u8, payload: &[u8]) {
        match self.chunks.back_mut() {
            Some(tail) if tail.len() < COALESCE => {
                write_frame(tail, tag, payload).expect("runtime frames are bounded");
            }
            _ => {
                let mut chunk = Vec::with_capacity((5 + payload.len()).max(64));
                write_frame(&mut chunk, tag, payload).expect("runtime frames are bounded");
                self.chunks.push_back(chunk);
            }
        }
    }

    /// Writes as much as the socket accepts. `Ok(true)` means drained,
    /// `Ok(false)` means `WouldBlock` with bytes still queued (the
    /// caller arms `POLLOUT`), `Err` means the connection is dead.
    pub(crate) fn flush(&mut self, stream: &mut Stream) -> io::Result<bool> {
        loop {
            if self.chunks.is_empty() {
                return Ok(true);
            }
            let mut iovecs: Vec<IoSlice<'_>> =
                Vec::with_capacity(MAX_IOVECS.min(self.chunks.len()));
            for (i, chunk) in self.chunks.iter().take(MAX_IOVECS).enumerate() {
                let slice = if i == 0 {
                    &chunk[self.offset..]
                } else {
                    &chunk[..]
                };
                iovecs.push(IoSlice::new(slice));
            }
            match stream.write_vectored(&iovecs) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "socket accepted zero bytes",
                    ))
                }
                Ok(mut n) => {
                    while n > 0 {
                        let front_left = self.chunks[0].len() - self.offset;
                        if n >= front_left {
                            n -= front_left;
                            self.chunks.pop_front();
                            self.offset = 0;
                        } else {
                            self.offset += n;
                            n = 0;
                        }
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }
}

/// One non-blocking connection: the stream plus its incremental frame
/// decoder (read side) and write queue (write side).
pub(crate) struct Conn {
    pub(crate) stream: Stream,
    pub(crate) dec: FrameDecoder,
    pub(crate) out: WriteQueue,
}

impl Conn {
    /// Adopts a freshly accepted/connected stream into reactor mode.
    pub(crate) fn new(stream: Stream) -> io::Result<Conn> {
        stream.prepare()?;
        Ok(Conn {
            stream,
            dec: FrameDecoder::new(),
            out: WriteQueue::default(),
        })
    }

    /// Reads a bounded amount of whatever is available into the
    /// decoder. Returns `true` when the connection is dead (EOF or a
    /// hard error) — already-decoded bytes remain valid and must be
    /// drained by the caller before tearing the connection down.
    pub(crate) fn read_ready(&mut self, scratch: &mut [u8]) -> bool {
        let mut reads = 0;
        loop {
            match self.stream.read(scratch) {
                Ok(0) => return true,
                Ok(n) => {
                    self.dec.extend(&scratch[..n]);
                    reads += 1;
                    if n < scratch.len() || reads >= READS_PER_EVENT {
                        return false;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return false,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return true,
            }
        }
    }

    /// Flushes the write queue; see [`WriteQueue::flush`].
    pub(crate) fn flush(&mut self) -> io::Result<bool> {
        self.out.flush(&mut self.stream)
    }
}

/// Cross-thread nudge for a reactor parked in `poll`: one byte down a
/// socketpair whose read half sits in the reactor's interest set.
pub(crate) struct Waker {
    tx: UnixStream,
}

impl Waker {
    pub(crate) fn wake(&self) {
        // A full pipe already guarantees a pending wakeup; errors are
        // irrelevant.
        let _ = (&self.tx).write(&[1]);
    }
}

/// Creates a waker and the read half the reactor polls.
pub(crate) fn waker_pair() -> io::Result<(Waker, UnixStream)> {
    let (tx, rx) = UnixStream::pair()?;
    tx.set_nonblocking(true)?;
    rx.set_nonblocking(true)?;
    Ok((Waker { tx }, rx))
}

/// Everything one reactor thread needs: its shard of nodes plus the
/// cluster-shared handles.
pub(crate) struct ReactorCfg<S, A: AggOp> {
    /// This reactor's index in the pool (the `shard` word of its
    /// `poll_wake`/`dispatch` trace spans).
    pub shard: u32,
    pub shard_nodes: Vec<NodeSeed>,
    pub tree: Tree,
    pub addrs: Vec<NodeAddr>,
    pub op: A,
    pub spec: S,
    pub ghost: bool,
    pub in_flight: Arc<InFlight>,
    pub total_sent: Arc<AtomicU64>,
    pub shutting_down: Arc<AtomicBool>,
    pub plan: Arc<FaultPlan>,
    pub ledger: Arc<InjectedFaults>,
    pub ready_tx: Sender<()>,
    pub waker_rx: UnixStream,
    pub rtx_high: usize,
    pub rtx_low: usize,
}

/// One node assigned to a reactor: its pre-bound (non-blocking)
/// listener and its durability backend (opened by the cluster on the
/// main thread, where open errors can still fail the spawn).
pub(crate) struct NodeSeed {
    pub id: NodeId,
    pub listener: Listener,
    pub backend: Box<dyn crate::durability::Durability>,
}

/// What one ready poll entry refers to.
#[derive(Clone, Copy)]
pub(crate) enum Tok {
    /// The reactor's waker read-half.
    Waker,
    /// Node `i`'s listener.
    Listener(usize),
    /// Node `i`'s pending (pre-hello) connection `pid`.
    Pending(usize, u64),
    /// Node `i`'s live edge connection to neighbour index `wi`.
    Edge(usize, usize),
    /// Node `i`'s dial-in-progress connection on neighbour index `wi`.
    Dial(usize, usize),
    /// Node `i`'s client connection `cid`.
    Client(usize, u64),
}

/// The reactor thread body: serves its shard until cluster shutdown,
/// then returns every owned node's final report.
pub(crate) fn reactor_main<S, A>(cfg: ReactorCfg<S, A>) -> Vec<(NodeId, NodeReport<A::Value>)>
where
    S: PolicySpec,
    S::Node: 'static,
    A: AggOp,
    A::Value: WireValue,
{
    let ReactorCfg {
        shard,
        shard_nodes,
        tree,
        addrs,
        op,
        spec,
        ghost,
        in_flight,
        total_sent,
        shutting_down,
        plan,
        ledger,
        ready_tx,
        waker_rx,
        rtx_high,
        rtx_low,
    } = cfg;
    let ids: Vec<NodeId> = shard_nodes.iter().map(|seed| seed.id).collect();
    let mem = MemHub::new(tree.len(), &ids);
    let ctx = Ctx {
        tree: &tree,
        addrs: &addrs,
        op: &op,
        spec: &spec,
        ghost,
        in_flight: &in_flight,
        total_sent: &total_sent,
        ledger: &ledger,
        rtx_high,
        rtx_low,
        mem: &mem,
    };
    let mut nodes: Vec<NodeRt<S, A>> = shard_nodes
        .into_iter()
        .map(|seed| NodeRt::new(seed, &ctx, &plan, ready_tx.clone()))
        .collect();
    let mut scratch = vec![0u8; READ_CHUNK];
    let mut mem_ready: Vec<usize> = Vec::new();
    let mut fds: Vec<PollFd> = Vec::new();
    let mut toks: Vec<Tok> = Vec::new();
    // With the `epoll` feature this holds a persistent epoll instance
    // (interest diffed per iteration); without it, a stateless shim
    // over poll(2).
    let mut poller = Poller::new().expect("create poller");
    let mut last_tick = Instant::now();
    loop {
        // Timers first: retransmission tick at RTO cadence, redials due.
        let now = Instant::now();
        if now.duration_since(last_tick) >= RTO {
            for node in nodes.iter_mut() {
                node.rto_tick();
            }
            last_tick = now;
        }
        for node in nodes.iter_mut() {
            node.run_dial_timers(&ctx, now);
        }
        // Flush every queue before sleeping: dispatches below only ever
        // *queue* bytes, this is the single point where they hit sockets.
        for node in nodes.iter_mut() {
            node.flush(&ctx);
        }
        pump_mem(shard, &mut nodes, &ctx, &mut scratch, &mut mem_ready);

        // Sleep bound: the next RTO tick if anyone has unacked frames,
        // the earliest redial timer, else block until a socket or the
        // waker fires.
        let now = Instant::now();
        let mut timeout: Option<Duration> = None;
        let mut consider = |d: Duration| {
            timeout = Some(match timeout {
                Some(t) if t <= d => t,
                _ => d,
            });
        };
        if mem.has_work() {
            // The pump stopped at its round bound with pipes still
            // readable: look at the sockets, but do not sleep.
            consider(Duration::ZERO);
        }
        for node in &nodes {
            if node.wants_rto_tick() {
                consider((last_tick + RTO).saturating_duration_since(now));
            }
            if let Some(at) = node.next_redial() {
                consider(at.saturating_duration_since(now));
            }
        }

        fds.clear();
        toks.clear();
        fds.push(PollFd::new(waker_rx.as_raw_fd(), POLLIN));
        toks.push(Tok::Waker);
        for (i, node) in nodes.iter().enumerate() {
            node.register(i, &mut fds, &mut toks);
        }
        // Poll errors (EBADF from a racing close) surface as an
        // immediate retry; the per-connection handlers below discover
        // and retire any genuinely dead socket.
        let t_poll = oat_obs::now_ns();
        let _ = poller.wait(&mut fds, timeout);
        if t_poll != 0 {
            let ready = fds.iter().filter(|fd| fd.revents != 0).count() as u32;
            oat_obs::trace_span!(oat_obs::EventKind::PollWake, t_poll, shard, ready, 0);
        }

        if shutting_down.load(Ordering::SeqCst) {
            return nodes
                .into_iter()
                .map(|mut node| {
                    node.flush(&ctx);
                    (node.id(), node.finish())
                })
                .collect();
        }

        let t_dispatch = oat_obs::now_ns();
        let mut handled: u32 = 0;
        for (fd, tok) in fds.iter().zip(&toks) {
            if fd.revents == 0 {
                continue;
            }
            handled += 1;
            match *tok {
                Tok::Waker => {
                    // Drain the nudge bytes; the flag check above is the
                    // actual signal.
                    let mut byte = [0u8; 64];
                    while matches!((&waker_rx).read(&mut byte), Ok(n) if n > 0) {}
                }
                Tok::Listener(i) => nodes[i].on_accept_ready(),
                Tok::Pending(i, pid) => {
                    if fd.readable() {
                        nodes[i].on_pending_ready(pid, &ctx, &mut scratch);
                    }
                }
                Tok::Dial(i, wi) => {
                    if fd.readable() {
                        nodes[i].on_dial_ready(wi, &ctx, &mut scratch);
                    }
                }
                Tok::Edge(i, wi) => {
                    if fd.readable() {
                        nodes[i].on_edge_ready(wi, &ctx, &mut scratch);
                    }
                }
                Tok::Client(i, cid) => {
                    if fd.readable() {
                        nodes[i].on_client_ready(cid, &ctx, &mut scratch);
                    }
                } // A pure POLLOUT wakeup needs no handler: the flush pass
                  // at the top of the next iteration makes the progress.
            }
        }
        // A kill9 scheduled mid-dispatch demolishes the node's state, so
        // it runs here, after the token loop is done touching it.
        for node in nodes.iter_mut() {
            if node.take_kill9() {
                node.kill9_restart(&ctx);
            }
        }
        if handled > 0 {
            oat_obs::trace_span!(oat_obs::EventKind::Dispatch, t_dispatch, shard, handled, 0);
        }
    }
}

/// Serves same-reactor memory pipes without a syscall: adopts dialled
/// pipe ends, then runs every node whose pipes hold bytes or EOF and
/// flushes it at once, so its output lands in the next node's pipe
/// within the same call. Repeats until no pipe is readable or
/// [`MEM_ROUNDS`] rounds ran; the caller then polls with a zero timeout
/// if work remains.
fn pump_mem<S, A>(
    shard: u32,
    nodes: &mut [NodeRt<S, A>],
    ctx: &Ctx<'_, S, A>,
    scratch: &mut [u8],
    ready: &mut Vec<usize>,
) where
    S: PolicySpec,
    S::Node: 'static,
    A: AggOp,
    A::Value: WireValue,
{
    for _ in 0..MEM_ROUNDS {
        for (slot, stream) in ctx.mem.take_accepts() {
            nodes[slot].adopt_mem(stream);
        }
        ctx.mem.take_ready(ready);
        if ready.is_empty() {
            return;
        }
        let t_dispatch = oat_obs::now_ns();
        for &i in ready.iter() {
            let node = &mut nodes[i];
            if node.on_mem_ready(ctx, scratch) {
                ctx.mem.mark(i);
            }
            if node.take_kill9() {
                node.kill9_restart(ctx);
            }
            node.flush(ctx);
        }
        oat_obs::trace_span!(
            oat_obs::EventKind::Dispatch,
            t_dispatch,
            shard,
            ready.len() as u32,
            1
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    fn loopback_pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let a = TcpStream::connect(addr).unwrap();
        let (b, _) = listener.accept().unwrap();
        (a, b)
    }

    #[test]
    fn write_queue_coalesces_and_survives_partial_drains() {
        let (a, mut b) = loopback_pair();
        let mut conn = Conn::new(Stream::Tcp(a)).unwrap();
        let mut expected = Vec::new();
        for i in 0..100u8 {
            let payload = vec![i; 1 + (i as usize % 300)];
            conn.out.frame(i, &payload);
            write_frame(&mut expected, i, &payload).unwrap();
        }
        // Small frames coalesce: far fewer chunks than frames.
        assert!(conn.out.chunks.len() < 20, "got {}", conn.out.chunks.len());
        while !conn.flush().unwrap() {}
        b.set_nonblocking(true).unwrap();
        let mut got = Vec::new();
        let mut buf = [0u8; 4096];
        loop {
            match b.read(&mut buf) {
                Ok(0) => break,
                Ok(n) => got.extend_from_slice(&buf[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if got.len() >= expected.len() {
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(e) => panic!("{e}"),
            }
        }
        assert_eq!(got, expected, "byte-exact across vectored flushes");
    }

    #[test]
    fn write_queue_requeues_on_wouldblock_and_finishes_later() {
        let (a, mut b) = loopback_pair();
        let mut conn = Conn::new(Stream::Tcp(a)).unwrap();
        // Enough data to overwhelm the kernel buffers of an unread peer.
        let big = vec![0xAB; 256 * 1024];
        for _ in 0..32 {
            conn.out.frame(9, &big);
        }
        let drained = conn.flush().unwrap();
        assert!(!drained, "unread peer must WouldBlock eventually");
        assert!(!conn.out.is_empty());
        // Drain the peer concurrently, then finish the flush.
        let reader = std::thread::spawn(move || {
            let mut buf = vec![0u8; 64 * 1024];
            let mut total = 0usize;
            loop {
                match b.read(&mut buf) {
                    Ok(0) => break total,
                    Ok(n) => total += n,
                    Err(e) => panic!("{e}"),
                }
            }
        });
        let deadline = Instant::now() + Duration::from_secs(10);
        while !conn.flush().unwrap() {
            assert!(Instant::now() < deadline, "flush never completed");
            std::thread::sleep(Duration::from_millis(1));
        }
        drop(conn);
        let total = reader.join().unwrap();
        assert_eq!(total, 32 * (5 + big.len()));
    }

    #[test]
    fn waker_unblocks_a_poll() {
        let (waker, rx) = waker_pair().unwrap();
        let h = std::thread::spawn(move || {
            let mut fds = [PollFd::new(rx.as_raw_fd(), POLLIN)];
            let mut poller = Poller::new().unwrap();
            poller
                .wait(&mut fds, Some(Duration::from_secs(10)))
                .unwrap()
        });
        std::thread::sleep(Duration::from_millis(10));
        waker.wake();
        assert_eq!(h.join().unwrap(), 1);
    }
}
