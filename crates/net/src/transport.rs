//! Pluggable connection transports: TCP, Unix-domain sockets, and
//! in-process SPSC byte rings.
//!
//! Every transport presents the same byte-stream surface to the reactor
//! (non-blocking `read` / `write_vectored` / `shutdown` plus a pollable
//! fd) and to the blocking client (`ClientStream`), so framing,
//! sequencing, retransmit, and fault injection are transport-agnostic.
//!
//! The ring transport is a pair of lock-free single-producer /
//! single-consumer byte rings (one per direction) with a socketpair
//! "doorbell": each successful write nudges one byte into the writer's
//! half so the peer's poll loop (or blocking read) wakes up. Rings are
//! level-triggered from the reactor's point of view because doorbell
//! bytes are only drained once the ring itself is empty.
//!
//! Whatever the configured transport, an edge between two nodes served
//! by the same reactor thread uses a [`MemStream`]: a pair of plain
//! in-memory buffers with no descriptor, served from the reactor's
//! [`MemHub`] ready list instead of the poller.

use std::cell::{Cell, RefCell};
use std::collections::{HashMap, VecDeque};
use std::io::{self, IoSlice, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

use oat_core::tree::NodeId;

/// Which connection transport a cluster uses for edges and clients.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TransportKind {
    /// Loopback TCP sockets (the portable default).
    #[default]
    Tcp,
    /// Unix-domain stream sockets under a per-cluster temp directory.
    Uds,
    /// In-process SPSC byte rings with a socketpair doorbell.
    Ring,
}

impl TransportKind {
    /// Stable lower-case name, used in bench JSON and CLI flags.
    pub fn name(self) -> &'static str {
        match self {
            TransportKind::Tcp => "tcp",
            TransportKind::Uds => "uds",
            TransportKind::Ring => "ring",
        }
    }

    /// Parse a CLI spelling (`tcp`, `uds`, `ring`).
    pub fn parse(s: &str) -> Option<TransportKind> {
        match s {
            "tcp" => Some(TransportKind::Tcp),
            "uds" | "unix" => Some(TransportKind::Uds),
            "ring" | "spsc" => Some(TransportKind::Ring),
            _ => None,
        }
    }
}

/// A node's listen address under some transport.
#[derive(Clone, Debug)]
pub enum NodeAddr {
    /// TCP socket address.
    Tcp(SocketAddr),
    /// Unix-domain socket path.
    Uds(PathBuf),
    /// Ring-registry listener id.
    Ring(u64),
}

impl From<SocketAddr> for NodeAddr {
    fn from(a: SocketAddr) -> NodeAddr {
        NodeAddr::Tcp(a)
    }
}

impl std::fmt::Display for NodeAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NodeAddr::Tcp(a) => write!(f, "{a}"),
            NodeAddr::Uds(p) => write!(f, "{}", p.display()),
            NodeAddr::Ring(id) => write!(f, "ring:{id}"),
        }
    }
}

// ---------------------------------------------------------------------------
// SPSC byte ring
// ---------------------------------------------------------------------------

/// Bytes per ring direction. Power of two.
const RING_CAP: usize = 1 << 18;

/// Doorbell drain scratch size. Nudges are 1 byte each; draining in
/// chunks keeps the syscall count low when many writes coalesced.
const NUDGE_CHUNK: usize = 64;

/// Lock-free single-producer single-consumer byte ring.
///
/// `head` (consumer) and `tail` (producer) are monotone byte counters;
/// the index into `buf` is `pos & mask`. Head/tail use SeqCst at the
/// push/pop boundaries — the stall handshake in [`RingStream`] relies
/// on the SeqCst total order (a Dekker-style flag), not just
/// acquire/release. Individual byte cells are Relaxed; the SeqCst
/// tail store / head load pair carries the happens-before edge.
struct SpscRing {
    buf: Box<[AtomicU8]>,
    mask: usize,
    head: AtomicUsize,
    tail: AtomicUsize,
    closed: AtomicBool,
}

impl SpscRing {
    fn new(cap: usize) -> SpscRing {
        assert!(cap.is_power_of_two());
        let buf: Vec<AtomicU8> = (0..cap).map(|_| AtomicU8::new(0)).collect();
        SpscRing {
            buf: buf.into_boxed_slice(),
            mask: cap - 1,
            head: AtomicUsize::new(0),
            tail: AtomicUsize::new(0),
            closed: AtomicBool::new(false),
        }
    }

    fn cap(&self) -> usize {
        self.mask + 1
    }

    /// Producer side: append as much of `src` as fits. Returns bytes
    /// written (0 = ring full).
    fn push(&self, src: &[u8]) -> usize {
        if src.is_empty() {
            return 0;
        }
        let head = self.head.load(Ordering::SeqCst);
        let tail = self.tail.load(Ordering::SeqCst);
        let space = self.cap() - tail.wrapping_sub(head);
        let n = src.len().min(space);
        if n == 0 {
            return 0;
        }
        for (i, &b) in src[..n].iter().enumerate() {
            self.buf[tail.wrapping_add(i) & self.mask].store(b, Ordering::Relaxed);
        }
        self.tail.store(tail.wrapping_add(n), Ordering::SeqCst);
        n
    }

    /// Consumer side: take as much as available into `dst`. Returns
    /// bytes read (0 = ring empty).
    fn pop(&self, dst: &mut [u8]) -> usize {
        if dst.is_empty() {
            return 0;
        }
        let head = self.head.load(Ordering::SeqCst);
        let tail = self.tail.load(Ordering::SeqCst);
        let avail = tail.wrapping_sub(head);
        let n = dst.len().min(avail);
        if n == 0 {
            return 0;
        }
        for (i, slot) in dst[..n].iter_mut().enumerate() {
            *slot = self.buf[head.wrapping_add(i) & self.mask].load(Ordering::Relaxed);
        }
        self.head.store(head.wrapping_add(n), Ordering::SeqCst);
        n
    }
}

/// Shared state of one ring connection: a ring per direction plus a
/// per-writer "stalled on full ring" flag for the space-freed wakeup.
struct RingShared {
    a2b: SpscRing,
    b2a: SpscRing,
    a_stalled: AtomicBool,
    b_stalled: AtomicBool,
}

impl RingShared {
    fn new() -> RingShared {
        RingShared {
            a2b: SpscRing::new(RING_CAP),
            b2a: SpscRing::new(RING_CAP),
            a_stalled: AtomicBool::new(false),
            b_stalled: AtomicBool::new(false),
        }
    }
}

/// One endpoint of a ring connection. Endpoint `a` writes `a2b` and
/// reads `b2a`; endpoint `b` the reverse. `sock` is this endpoint's
/// half of a socketpair: writing it wakes the peer, reading it
/// receives the peer's nudges (and EOF after the peer shuts down).
pub(crate) struct RingStream {
    shared: Arc<RingShared>,
    is_a: bool,
    sock: UnixStream,
}

impl RingStream {
    /// Build a connected pair; `.0` is endpoint `a`.
    fn pair() -> io::Result<(RingStream, RingStream)> {
        let shared = Arc::new(RingShared::new());
        let (sa, sb) = UnixStream::pair()?;
        Ok((
            RingStream {
                shared: shared.clone(),
                is_a: true,
                sock: sa,
            },
            RingStream {
                shared,
                is_a: false,
                sock: sb,
            },
        ))
    }

    fn tx(&self) -> &SpscRing {
        if self.is_a {
            &self.shared.a2b
        } else {
            &self.shared.b2a
        }
    }

    fn rx(&self) -> &SpscRing {
        if self.is_a {
            &self.shared.b2a
        } else {
            &self.shared.a2b
        }
    }

    fn my_stalled(&self) -> &AtomicBool {
        if self.is_a {
            &self.shared.a_stalled
        } else {
            &self.shared.b_stalled
        }
    }

    fn peer_stalled(&self) -> &AtomicBool {
        if self.is_a {
            &self.shared.b_stalled
        } else {
            &self.shared.a_stalled
        }
    }

    /// Ring the peer's doorbell. A full socketpair buffer already
    /// guarantees the peer is readable, so WouldBlock is ignored.
    fn nudge(&self) {
        let _ = (&self.sock).write(&[1u8]);
    }

    /// Consumer saw data: if the peer writer had stalled on a full
    /// ring, wake it now that space is freed.
    fn wake_stalled_peer(&self) {
        if self.peer_stalled().swap(false, Ordering::SeqCst) {
            self.nudge();
        }
    }

    /// Unified read for both the non-blocking reactor and the blocking
    /// client — only the socket's blocking mode differs.
    ///
    /// Pops the ring first; doorbell bytes are drained only once the
    /// ring is empty, which keeps the fd level-triggered while data
    /// remains. `Ok(0)` means the peer closed; `WouldBlock`/`TimedOut`
    /// surface exactly like a socket (nothing ready / read timeout).
    pub(crate) fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        let mut scratch = [0u8; NUDGE_CHUNK];
        loop {
            let n = self.rx().pop(out);
            if n > 0 {
                self.wake_stalled_peer();
                return Ok(n);
            }
            if self.rx().closed.load(Ordering::SeqCst) {
                return Ok(0);
            }
            match (&self.sock).read(&mut scratch) {
                Ok(0) => {
                    // Peer shut down; anything published before the
                    // close is still deliverable.
                    let n = self.rx().pop(out);
                    if n > 0 {
                        self.wake_stalled_peer();
                        return Ok(n);
                    }
                    return Ok(0);
                }
                Ok(_) => continue,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    // Re-check once: the nudge for freshly published
                    // data may have raced past us.
                    let n = self.rx().pop(out);
                    if n > 0 {
                        self.wake_stalled_peer();
                        return Ok(n);
                    }
                    return Err(e);
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Non-blocking vectored write. Never returns `Ok(0)` for
    /// non-empty input: a full ring is `WouldBlock` (after arming the
    /// stall flag so the consumer's next pop nudges us awake).
    pub(crate) fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
        if self.tx().closed.load(Ordering::SeqCst) {
            return Err(io::Error::new(io::ErrorKind::BrokenPipe, "ring closed"));
        }
        if bufs.iter().all(|b| b.is_empty()) {
            return Ok(0);
        }
        let mut total = 0;
        for b in bufs {
            let n = self.tx().push(b);
            total += n;
            if n < b.len() {
                break;
            }
        }
        if total > 0 {
            self.nudge();
            return Ok(total);
        }
        // Ring full. Dekker handshake: publish the stall flag, then
        // retry once. SeqCst total order guarantees either this retry
        // sees the consumer's freed space, or the consumer's flag swap
        // sees the stall and nudges our doorbell.
        self.my_stalled().store(true, Ordering::SeqCst);
        let first = bufs
            .iter()
            .find(|b| !b.is_empty())
            .expect("non-empty checked");
        let n = self.tx().push(first);
        if n > 0 {
            self.my_stalled().store(false, Ordering::SeqCst);
            self.nudge();
            return Ok(n);
        }
        Err(io::ErrorKind::WouldBlock.into())
    }

    /// Blocking write for the client side: parks on the doorbell
    /// socket when the ring is full. Consuming response nudges here is
    /// safe — `read` always pops the ring before touching the socket,
    /// so a consumed nudge's data is still found.
    pub(crate) fn write_all(&mut self, mut buf: &[u8]) -> io::Result<()> {
        let mut scratch = [0u8; NUDGE_CHUNK];
        while !buf.is_empty() {
            match self.write_vectored(&[IoSlice::new(buf)]) {
                Ok(n) => buf = &buf[n..],
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    match (&self.sock).read(&mut scratch) {
                        Ok(0) => {
                            return Err(io::Error::new(
                                io::ErrorKind::BrokenPipe,
                                "peer closed while ring full",
                            ))
                        }
                        Ok(_) => {}
                        Err(e)
                            if e.kind() == io::ErrorKind::WouldBlock
                                || e.kind() == io::ErrorKind::TimedOut
                                || e.kind() == io::ErrorKind::Interrupted => {}
                        Err(e) => return Err(e),
                    }
                }
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Close both directions and the doorbell. Idempotent; the peer
    /// observes EOF on its socket and `closed` on its rx ring.
    pub(crate) fn shutdown(&self) {
        self.shared.a2b.closed.store(true, Ordering::SeqCst);
        self.shared.b2a.closed.store(true, Ordering::SeqCst);
        let _ = self.sock.shutdown(Shutdown::Both);
    }
}

impl Drop for RingStream {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl AsRawFd for RingStream {
    fn as_raw_fd(&self) -> RawFd {
        self.sock.as_raw_fd()
    }
}

// ---------------------------------------------------------------------------
// Ring listener registry
// ---------------------------------------------------------------------------

struct RingListenerShared {
    inbox: Mutex<VecDeque<RingStream>>,
    /// Write half of the accept-notification socketpair (non-blocking).
    notify: UnixStream,
}

/// In-process "listener": accepts ring connections dialed by id via
/// the global registry. `rx` is the pollable read half of the
/// notification socketpair.
pub(crate) struct RingListener {
    id: u64,
    shared: Arc<RingListenerShared>,
    rx: UnixStream,
}

static RING_REGISTRY: OnceLock<Mutex<HashMap<u64, Arc<RingListenerShared>>>> = OnceLock::new();
static NEXT_RING_ID: AtomicU64 = AtomicU64::new(1);

fn registry() -> &'static Mutex<HashMap<u64, Arc<RingListenerShared>>> {
    RING_REGISTRY.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Create a ring listener and register it under a fresh id.
pub(crate) fn ring_listen() -> io::Result<RingListener> {
    let (rx, notify) = UnixStream::pair()?;
    rx.set_nonblocking(true)?;
    notify.set_nonblocking(true)?;
    let id = NEXT_RING_ID.fetch_add(1, Ordering::Relaxed);
    let shared = Arc::new(RingListenerShared {
        inbox: Mutex::new(VecDeque::new()),
        notify,
    });
    registry().lock().unwrap().insert(id, shared.clone());
    Ok(RingListener { id, shared, rx })
}

/// Dial a ring listener by registry id. Absent id maps to
/// ConnectionRefused so redial logic treats it like a downed node.
fn ring_connect(id: u64) -> io::Result<RingStream> {
    let shared = registry()
        .lock()
        .unwrap()
        .get(&id)
        .cloned()
        .ok_or_else(|| io::Error::new(io::ErrorKind::ConnectionRefused, "no ring listener"))?;
    let (client, server) = RingStream::pair()?;
    server.sock.set_nonblocking(true)?;
    shared.inbox.lock().unwrap().push_back(server);
    // Nudge the acceptor; a full notify buffer already implies readability.
    let _ = (&shared.notify).write(&[1u8]);
    Ok(client)
}

impl RingListener {
    pub(crate) fn id(&self) -> u64 {
        self.id
    }

    /// Non-blocking accept. The byte↔item correspondence on the
    /// notification pipe is loose; callers loop until WouldBlock.
    fn accept(&self) -> io::Result<RingStream> {
        if let Some(s) = self.shared.inbox.lock().unwrap().pop_front() {
            return Ok(s);
        }
        let mut scratch = [0u8; NUDGE_CHUNK];
        loop {
            match (&self.rx).read(&mut scratch) {
                Ok(0) => return Err(io::ErrorKind::WouldBlock.into()),
                Ok(_) => {
                    if let Some(s) = self.shared.inbox.lock().unwrap().pop_front() {
                        return Ok(s);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }
}

impl Drop for RingListener {
    fn drop(&mut self) {
        registry().lock().unwrap().remove(&self.id);
    }
}

impl AsRawFd for RingListener {
    fn as_raw_fd(&self) -> RawFd {
        self.rx.as_raw_fd()
    }
}

// ---------------------------------------------------------------------------
// Same-reactor memory pipe
// ---------------------------------------------------------------------------

/// Local nodes (indices into one reactor's node vector) whose memory
/// pipes hold bytes or EOF, each listed once until taken.
struct MemReady {
    list: RefCell<Vec<usize>>,
    marked: RefCell<Vec<bool>>,
}

impl MemReady {
    fn mark(&self, slot: usize) {
        let mut marked = self.marked.borrow_mut();
        if !marked[slot] {
            marked[slot] = true;
            self.list.borrow_mut().push(slot);
        }
    }
}

/// Shared state of one memory pipe: a byte buffer per direction (`buf[e]`
/// is read by end `e`), one close flag for both directions, and the
/// local slot of each end's owning node.
struct MemPipe {
    buf: [RefCell<MemBuf>; 2],
    closed: Cell<bool>,
    slot: [usize; 2],
    ready: Rc<MemReady>,
}

/// An unbounded byte FIFO: appends at the back, reads advance `head`.
#[derive(Default)]
struct MemBuf {
    bytes: Vec<u8>,
    head: usize,
}

impl MemBuf {
    fn is_empty(&self) -> bool {
        self.head == self.bytes.len()
    }

    fn pop(&mut self, out: &mut [u8]) -> usize {
        let n = out.len().min(self.bytes.len() - self.head);
        out[..n].copy_from_slice(&self.bytes[self.head..self.head + n]);
        self.head += n;
        if self.is_empty() {
            self.bytes.clear();
            self.head = 0;
        }
        n
    }

    fn push(&mut self, src: &[u8]) {
        if self.head > 0 && self.head >= self.bytes.len() / 2 {
            // Reclaim the consumed prefix before growing.
            self.bytes.drain(..self.head);
            self.head = 0;
        }
        self.bytes.extend_from_slice(src);
    }
}

/// One end of an in-memory duplex byte pipe between two nodes owned by
/// the same reactor thread. A write appends to the peer's buffer and
/// puts the peer on its reactor's ready list; it never blocks and never
/// touches the kernel. `shutdown` (or drop) closes both directions: the
/// peer reads what was already written, then EOF, and any later write
/// fails with `BrokenPipe`. The `Rc` ends are `!Send`, so a pipe cannot
/// leave the thread that made it.
pub(crate) struct MemStream {
    pipe: Rc<MemPipe>,
    end: usize,
}

impl MemStream {
    /// Non-blocking read: `WouldBlock` when empty, `Ok(0)` at EOF.
    pub(crate) fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        let n = self.pipe.buf[self.end].borrow_mut().pop(out);
        if n > 0 || self.pipe.closed.get() {
            return Ok(n);
        }
        Err(io::ErrorKind::WouldBlock.into())
    }

    /// Appends every byte; the pipe is unbounded, so this never returns
    /// a short count.
    pub(crate) fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
        if self.pipe.closed.get() {
            return Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "memory pipe closed",
            ));
        }
        let peer = 1 - self.end;
        let mut total = 0;
        {
            let mut buf = self.pipe.buf[peer].borrow_mut();
            for b in bufs {
                buf.push(b);
                total += b.len();
            }
        }
        if total > 0 {
            self.pipe.ready.mark(self.pipe.slot[peer]);
        }
        Ok(total)
    }

    /// Closes both directions and wakes the peer to read its EOF.
    /// Idempotent.
    pub(crate) fn shutdown(&self) {
        if !self.pipe.closed.replace(true) {
            self.pipe.ready.mark(self.pipe.slot[1 - self.end]);
        }
    }

    /// Bytes or EOF are waiting to be read.
    pub(crate) fn readable(&self) -> bool {
        self.pipe.closed.get() || !self.pipe.buf[self.end].borrow().is_empty()
    }
}

impl Drop for MemStream {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One reactor's memory-pipe switchboard: which nodes it owns, which of
/// their pipes are readable, and dialled pipe ends awaiting adoption by
/// the accepting node (the in-memory counterpart of a listen backlog).
pub(crate) struct MemHub {
    /// Local slot of each node this reactor owns, by node index.
    slots: Vec<Option<usize>>,
    ready: Rc<MemReady>,
    accepts: RefCell<Vec<(usize, MemStream)>>,
}

impl MemHub {
    /// A hub for a reactor owning `local` (slot `i` is `local[i]`) in a
    /// cluster of `n` nodes.
    pub(crate) fn new(n: usize, local: &[NodeId]) -> MemHub {
        let mut slots = vec![None; n];
        for (slot, id) in local.iter().enumerate() {
            slots[id.idx()] = Some(slot);
        }
        MemHub {
            slots,
            ready: Rc::new(MemReady {
                list: RefCell::default(),
                marked: RefCell::new(vec![false; local.len()]),
            }),
            accepts: RefCell::default(),
        }
    }

    /// Dials `to` from `from` over a memory pipe when this reactor owns
    /// both, returning the dialler's end; the accepting end waits in the
    /// hub until [`MemHub::take_accepts`]. `None` means `to` lives on
    /// another reactor and needs a socket.
    pub(crate) fn connect(&self, from: NodeId, to: NodeId) -> Option<MemStream> {
        let (a, b) = (self.slots[from.idx()]?, self.slots[to.idx()]?);
        let pipe = Rc::new(MemPipe {
            buf: Default::default(),
            closed: Cell::new(false),
            slot: [a, b],
            ready: Rc::clone(&self.ready),
        });
        let accept = MemStream {
            pipe: Rc::clone(&pipe),
            end: 1,
        };
        self.accepts.borrow_mut().push((b, accept));
        Some(MemStream { pipe, end: 0 })
    }

    /// True while a pipe holds bytes or EOF, or a dialled end awaits
    /// adoption.
    pub(crate) fn has_work(&self) -> bool {
        !self.ready.list.borrow().is_empty() || !self.accepts.borrow().is_empty()
    }

    /// Dialled ends to adopt, as `(accepting slot, stream)`.
    pub(crate) fn take_accepts(&self) -> Vec<(usize, MemStream)> {
        std::mem::take(&mut *self.accepts.borrow_mut())
    }

    /// Moves the ready list into `into` (cleared first) and unmarks it.
    pub(crate) fn take_ready(&self, into: &mut Vec<usize>) {
        into.clear();
        std::mem::swap(&mut *self.ready.list.borrow_mut(), into);
        let mut marked = self.ready.marked.borrow_mut();
        for &slot in into.iter() {
            marked[slot] = false;
        }
    }

    /// Puts `slot` back on the ready list (input was left unread).
    pub(crate) fn mark(&self, slot: usize) {
        self.ready.mark(slot);
    }
}

// ---------------------------------------------------------------------------
// UDS temp-dir guard
// ---------------------------------------------------------------------------

static NEXT_UDS_DIR: AtomicU64 = AtomicU64::new(0);

/// Owns the per-cluster socket directory; removed on drop.
pub(crate) struct UdsDir {
    path: PathBuf,
}

impl UdsDir {
    pub(crate) fn new() -> io::Result<UdsDir> {
        let n = NEXT_UDS_DIR.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!("oat-uds-{}-{}", std::process::id(), n));
        std::fs::create_dir_all(&path)?;
        Ok(UdsDir { path })
    }

    pub(crate) fn sock_path(&self, idx: usize) -> PathBuf {
        self.path.join(format!("node-{idx}.sock"))
    }
}

impl Drop for UdsDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

// ---------------------------------------------------------------------------
// Reactor-side stream / listener
// ---------------------------------------------------------------------------

/// A non-blocking reactor-side connection over any transport, or an
/// in-memory pipe to a node on the same reactor thread.
pub(crate) enum Stream {
    Tcp(TcpStream),
    Uds(UnixStream),
    Ring(RingStream),
    Mem(MemStream),
}

impl Stream {
    /// Dial `addr` and prepare the result for the reactor.
    pub(crate) fn connect(addr: &NodeAddr) -> io::Result<Stream> {
        let s = match addr {
            NodeAddr::Tcp(a) => Stream::Tcp(TcpStream::connect(a)?),
            NodeAddr::Uds(p) => Stream::Uds(UnixStream::connect(p)?),
            NodeAddr::Ring(id) => Stream::Ring(ring_connect(*id)?),
        };
        s.prepare()?;
        Ok(s)
    }

    /// Set per-transport socket options for reactor use
    /// (non-blocking; TCP_NODELAY where it applies).
    pub(crate) fn prepare(&self) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => {
                s.set_nodelay(true)?;
                s.set_nonblocking(true)
            }
            Stream::Uds(s) => s.set_nonblocking(true),
            Stream::Ring(s) => s.sock.set_nonblocking(true),
            Stream::Mem(_) => Ok(()),
        }
    }

    pub(crate) fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            Stream::Uds(s) => s.read(buf),
            Stream::Ring(s) => s.read(buf),
            Stream::Mem(s) => s.read(buf),
        }
    }

    pub(crate) fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write_vectored(bufs),
            Stream::Uds(s) => s.write_vectored(bufs),
            Stream::Ring(s) => s.write_vectored(bufs),
            Stream::Mem(s) => s.write_vectored(bufs),
        }
    }

    pub(crate) fn shutdown(&self, how: Shutdown) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.shutdown(how),
            Stream::Uds(s) => s.shutdown(how),
            Stream::Ring(s) => {
                s.shutdown();
                Ok(())
            }
            Stream::Mem(s) => {
                s.shutdown();
                Ok(())
            }
        }
    }

    /// Whether POLLOUT is meaningful for this transport. Ring
    /// doorbells are almost always writable, so polling them for
    /// write-readiness would busy-spin; blocked ring writes recover
    /// via the peer's space-freed nudge (POLLIN) instead.
    pub(crate) fn wants_pollout(&self) -> bool {
        matches!(self, Stream::Tcp(_) | Stream::Uds(_))
    }

    /// The descriptor to poll, or `None` for a memory pipe, which the
    /// reactor serves from its ready list instead.
    pub(crate) fn fd(&self) -> Option<RawFd> {
        match self {
            Stream::Tcp(s) => Some(s.as_raw_fd()),
            Stream::Uds(s) => Some(s.as_raw_fd()),
            Stream::Ring(s) => Some(s.as_raw_fd()),
            Stream::Mem(_) => None,
        }
    }

    /// The memory pipe holds bytes or EOF (always false for sockets,
    /// whose readiness comes from the poller).
    pub(crate) fn mem_readable(&self) -> bool {
        matches!(self, Stream::Mem(s) if s.readable())
    }

    pub(crate) fn is_mem(&self) -> bool {
        matches!(self, Stream::Mem(_))
    }
}

impl Drop for Stream {
    fn drop(&mut self) {
        // The epoll poller diffs a persistent interest set; it must
        // learn about closed descriptors before their numbers are
        // reused (no-op under the poll(2) backend). Memory pipes were
        // never in the set.
        if let Some(fd) = self.fd() {
            oat_poll::note_closed(fd);
        }
    }
}

/// A node's listener over any transport.
pub(crate) enum Listener {
    Tcp(TcpListener),
    Uds(UnixListener),
    Ring(RingListener),
}

impl Listener {
    /// Non-blocking accept, returning a reactor-prepared [`Stream`].
    pub(crate) fn accept(&self) -> io::Result<Stream> {
        let s = match self {
            Listener::Tcp(l) => Stream::Tcp(l.accept()?.0),
            Listener::Uds(l) => Stream::Uds(l.accept()?.0),
            Listener::Ring(l) => Stream::Ring(l.accept()?),
        };
        s.prepare()?;
        Ok(s)
    }
}

impl AsRawFd for Listener {
    fn as_raw_fd(&self) -> RawFd {
        match self {
            Listener::Tcp(l) => l.as_raw_fd(),
            Listener::Uds(l) => l.as_raw_fd(),
            Listener::Ring(l) => l.as_raw_fd(),
        }
    }
}

// ---------------------------------------------------------------------------
// Blocking client stream
// ---------------------------------------------------------------------------

/// Blocking client-side connection over any transport.
pub(crate) enum ClientStream {
    Tcp(TcpStream),
    Uds(UnixStream),
    Ring(RingStream),
}

impl ClientStream {
    pub(crate) fn connect(addr: &NodeAddr) -> io::Result<ClientStream> {
        match addr {
            NodeAddr::Tcp(a) => {
                let s = TcpStream::connect(a)?;
                s.set_nodelay(true)?;
                Ok(ClientStream::Tcp(s))
            }
            NodeAddr::Uds(p) => Ok(ClientStream::Uds(UnixStream::connect(p)?)),
            NodeAddr::Ring(id) => {
                let s = ring_connect(*id)?;
                s.sock.set_nonblocking(false)?;
                Ok(ClientStream::Ring(s))
            }
        }
    }

    /// Read timeout; for rings it applies to the doorbell socket and
    /// surfaces as WouldBlock/TimedOut exactly like a socket.
    pub(crate) fn set_read_timeout(&self, d: Option<Duration>) -> io::Result<()> {
        match self {
            ClientStream::Tcp(s) => s.set_read_timeout(d),
            ClientStream::Uds(s) => s.set_read_timeout(d),
            ClientStream::Ring(s) => s.sock.set_read_timeout(d),
        }
    }

    pub(crate) fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            ClientStream::Tcp(s) => s.read(buf),
            ClientStream::Uds(s) => s.read(buf),
            ClientStream::Ring(s) => s.read(buf),
        }
    }

    pub(crate) fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        match self {
            ClientStream::Tcp(s) => s.write_all(buf),
            ClientStream::Uds(s) => s.write_all(buf),
            ClientStream::Ring(s) => s.write_all(buf),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn spsc_ring_roundtrip_wraps() {
        let r = SpscRing::new(16);
        let mut out = [0u8; 16];
        for round in 0..10u8 {
            let msg = [round; 11];
            assert_eq!(r.push(&msg), 11);
            assert_eq!(r.pop(&mut out), 11);
            assert_eq!(&out[..11], &msg);
        }
        assert_eq!(r.pop(&mut out), 0);
    }

    #[test]
    fn spsc_ring_partial_push_when_nearly_full() {
        let r = SpscRing::new(8);
        assert_eq!(r.push(&[1; 6]), 6);
        assert_eq!(r.push(&[2; 6]), 2);
        assert_eq!(r.push(&[3; 1]), 0);
        let mut out = [0u8; 8];
        assert_eq!(r.pop(&mut out), 8);
        assert_eq!(&out[..6], &[1; 6]);
        assert_eq!(&out[6..8], &[2; 2]);
    }

    #[test]
    fn ring_stream_blocking_roundtrip() {
        let (mut a, mut b) = RingStream::pair().unwrap();
        a.write_all(b"hello ring").unwrap();
        let mut buf = [0u8; 32];
        let n = b.read(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"hello ring");
        b.write_all(b"pong").unwrap();
        let n = a.read(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"pong");
    }

    #[test]
    fn ring_stream_full_ring_blocking_writer_unblocks() {
        let (mut a, mut b) = RingStream::pair().unwrap();
        let total = RING_CAP * 3 + 12345;
        let w = thread::spawn(move || {
            let chunk = vec![7u8; 4096];
            let mut left = total;
            while left > 0 {
                let n = left.min(chunk.len());
                a.write_all(&chunk[..n]).unwrap();
                left -= n;
            }
            a // keep alive until the reader is done
        });
        let mut got = 0usize;
        let mut buf = vec![0u8; 8192];
        while got < total {
            let n = b.read(&mut buf).unwrap();
            assert!(n > 0);
            assert!(buf[..n].iter().all(|&x| x == 7));
            got += n;
        }
        drop(w.join().unwrap());
        assert_eq!(got, total);
    }

    #[test]
    fn ring_stream_eof_after_shutdown() {
        let (mut a, b) = RingStream::pair().unwrap();
        b.write_all_probe(b"tail");
        b.shutdown();
        // Published-before-close bytes still deliverable, then EOF.
        let mut buf = [0u8; 16];
        let n = a.read(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"tail");
        assert_eq!(a.read(&mut buf).unwrap(), 0);
        assert_eq!(a.read(&mut buf).unwrap(), 0);
    }

    impl RingStream {
        /// Test helper: push bytes without needing `&mut`.
        fn write_all_probe(&self, buf: &[u8]) {
            assert_eq!(self.tx().push(buf), buf.len());
            self.nudge();
        }
    }

    #[test]
    fn ring_write_after_shutdown_is_broken_pipe() {
        let (mut a, b) = RingStream::pair().unwrap();
        b.shutdown();
        let err = a.write_vectored(&[IoSlice::new(b"x")]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
    }

    #[test]
    fn ring_listener_connect_and_refused() {
        let l = ring_listen().unwrap();
        let id = l.id();
        let mut client = ring_connect(id).unwrap();
        let mut server = l.accept().unwrap();
        client.sock.set_nonblocking(false).unwrap();
        client.write_all(b"hi").unwrap();
        let mut buf = [0u8; 8];
        // Server side is non-blocking; data is already in the ring.
        let n = server.read(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"hi");
        drop(l);
        let err = ring_connect(id).err().expect("deregistered listener");
        assert_eq!(err.kind(), io::ErrorKind::ConnectionRefused);
    }

    /// A hub owning nodes 0 and 2 of a 3-node cluster (slots 0 and 1),
    /// and a pipe dialled from node 0 to node 2: `(hub, dialler end,
    /// accepting end)`.
    fn mem_pair() -> (MemHub, Stream, Stream) {
        let hub = MemHub::new(3, &[NodeId(0), NodeId(2)]);
        let a = hub.connect(NodeId(0), NodeId(2)).expect("both local");
        let mut accepts = hub.take_accepts();
        assert_eq!(accepts.len(), 1);
        let (slot, b) = accepts.pop().unwrap();
        assert_eq!(slot, 1, "accepting end belongs to node 2's slot");
        (hub, Stream::Mem(a), Stream::Mem(b))
    }

    fn ready(hub: &MemHub) -> Vec<usize> {
        let mut v = Vec::new();
        hub.take_ready(&mut v);
        v
    }

    #[test]
    fn mem_connect_only_between_local_nodes() {
        let hub = MemHub::new(3, &[NodeId(0), NodeId(2)]);
        assert!(hub.connect(NodeId(0), NodeId(1)).is_none());
        assert!(!hub.has_work());
        let _a = hub.connect(NodeId(2), NodeId(0)).unwrap();
        assert!(hub.has_work(), "the accepting end waits for adoption");
        assert_eq!(hub.take_accepts()[0].0, 0);
    }

    #[test]
    fn mem_write_marks_the_peer_and_partial_reads_drain_in_order() {
        let (hub, mut a, mut b) = mem_pair();
        assert!(!hub.has_work());
        let mut buf = [0u8; 4];
        assert_eq!(
            b.read(&mut buf).unwrap_err().kind(),
            io::ErrorKind::WouldBlock
        );
        let n = a
            .write_vectored(&[IoSlice::new(b"hello "), IoSlice::new(b"pipe")])
            .unwrap();
        assert_eq!(n, 10, "a memory pipe never writes short");
        assert_eq!(ready(&hub), vec![1], "the reader's node is ready once");
        assert!(b.mem_readable() && !a.mem_readable());
        let mut got = Vec::new();
        while let Ok(n) = b.read(&mut buf) {
            assert!(n > 0 && n <= buf.len());
            got.extend_from_slice(&buf[..n]);
        }
        assert_eq!(got, b"hello pipe");
        assert!(!b.mem_readable());
        // The other direction marks the dialler's slot.
        b.write_vectored(&[IoSlice::new(b"ok")]).unwrap();
        assert_eq!(ready(&hub), vec![0]);
        assert_eq!(a.read(&mut buf).unwrap(), 2);
        assert!(a.fd().is_none() && !a.wants_pollout());
    }

    #[test]
    fn mem_eof_after_shutdown_delivers_written_bytes_first() {
        let (hub, mut a, mut b) = mem_pair();
        a.write_vectored(&[IoSlice::new(b"tail")]).unwrap();
        a.shutdown(Shutdown::Both).unwrap();
        assert_eq!(ready(&hub), vec![1]);
        let mut buf = [0u8; 16];
        assert_eq!(b.read(&mut buf).unwrap(), 4);
        assert_eq!(&buf[..4], b"tail");
        assert!(b.mem_readable(), "EOF is still readable");
        assert_eq!(b.read(&mut buf).unwrap(), 0);
        assert_eq!(b.read(&mut buf).unwrap(), 0);
    }

    #[test]
    fn mem_write_after_close_is_broken_pipe() {
        let (hub, mut a, b) = mem_pair();
        drop(b);
        assert_eq!(ready(&hub), vec![0], "dropping an end wakes the peer");
        let err = a.write_vectored(&[IoSlice::new(b"x")]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
        let mut buf = [0u8; 4];
        assert_eq!(a.read(&mut buf).unwrap(), 0);
        // Closing twice wakes the peer once.
        a.shutdown(Shutdown::Both).unwrap();
        assert!(ready(&hub).is_empty());
    }

    #[test]
    fn mem_buffer_reclaims_consumed_bytes() {
        let mut buf = MemBuf::default();
        let mut out = [0u8; 3];
        buf.push(b"abcdef");
        assert_eq!(buf.pop(&mut out), 3);
        buf.push(b"gh");
        assert_eq!(buf.head, 0, "the read half was compacted away");
        let mut rest = [0u8; 8];
        assert_eq!(buf.pop(&mut rest), 5);
        assert_eq!(&rest[..5], b"defgh");
        assert!(buf.is_empty() && buf.bytes.is_empty());
    }

    #[test]
    fn uds_dir_cleanup_on_drop() {
        let d = UdsDir::new().unwrap();
        let p = d.path.clone();
        std::fs::write(d.sock_path(0), b"x").unwrap();
        assert!(p.exists());
        drop(d);
        assert!(!p.exists());
    }

    #[test]
    fn transport_kind_names_roundtrip() {
        for k in [TransportKind::Tcp, TransportKind::Uds, TransportKind::Ring] {
            assert_eq!(TransportKind::parse(k.name()), Some(k));
        }
        assert_eq!(TransportKind::parse("carrier-pigeon"), None);
    }
}
