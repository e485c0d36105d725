//! The four closed-loop workloads, each driven from this process against
//! an in-process cluster and checked against an oracle.
//!
//! A pass runs a workload in rounds. Every round boots a fresh cluster
//! (timed as set-up), drives load until the round's time is up, drains
//! what is still outstanding, quiesces, checks its gates and shuts the
//! cluster down. Fresh clusters keep rounds independent, so the medians
//! over rounds are not at the mercy of one round's lease history.

use std::io;
use std::time::{Duration, Instant};

use oat_core::agg::SumI64;
use oat_core::fault::FaultPlan;
use oat_core::policy::rww::RwwSpec;
use oat_core::request::ReqOp;
use oat_core::tree::{NodeId, Tree};
use oat_net::{Cluster, ClusterClient, NetConfig, Response, TransportKind};
use oat_query::QuerySpec;
use oat_sim::{Engine, Schedule};
use oat_workloads::facts::{zipf_facts, Fact};

use crate::stats::{Hist, Rng};
use crate::sys;
use crate::trace::Tracer;

/// The two opposite leaves of `kary:31:2` the request workloads run at:
/// 15 and 30 are eight hops apart through the root.
pub const ORIGINS: [NodeId; 2] = [NodeId(15), NodeId(30)];
/// Requests per `submit_batch` in `batch-read`.
pub const BATCH: usize = 64;
/// Sliding window per connection in `pipe-write`.
const WINDOW: usize = 16;
/// The progressive query `query-zipf` runs.
const QUERY: &str = "sum group by key window tumbling(100ms)";
const QUERY_KEYS: u32 = 8;
const QUERY_ZIPF_S: f64 = 1.2;
const QUERY_GAP_MS: u64 = 4;
/// Requests still unanswered this long after a round's load stops
/// count as failed.
const DRAIN_GRACE: Duration = Duration::from_secs(5);
/// Client read timeout: how often a blocked read wakes to look at the
/// round deadline. Retries stay disarmed; nothing is re-sent.
const READ_SLICE: Duration = Duration::from_millis(100);
/// Boots per pass that only set up and shut down, so `setup_s` is a
/// median over many boots rather than over the few measured rounds.
const SETUP_REPS: u64 = 16;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    SeqLeaves,
    BatchRead,
    PipeWrite,
    QueryZipf,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::SeqLeaves,
        Kind::BatchRead,
        Kind::PipeWrite,
        Kind::QueryZipf,
    ];

    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::SeqLeaves => "seq-leaves",
            Kind::BatchRead => "batch-read",
            Kind::PipeWrite => "pipe-write",
            Kind::QueryZipf => "query-zipf",
        }
    }

    pub fn transport(self) -> TransportKind {
        match self {
            Kind::BatchRead => TransportKind::Ring,
            _ => TransportKind::Tcp,
        }
    }

    pub fn tree(self) -> Tree {
        match self {
            Kind::QueryZipf => Tree::kary(7, 2),
            _ => Tree::kary(31, 2),
        }
    }

    /// Stream label, so each workload draws its own inputs from a seed.
    fn label(self) -> u64 {
        self as u64 + 1
    }
}

/// Run-wide settings.
pub struct Ctx {
    pub seed: u64,
    /// Self-test sizes: every code path, a fraction of the work.
    pub tiny: bool,
    /// No round or drain waits past this instant.
    pub hard_deadline: Instant,
}

impl Ctx {
    fn facts_per_query(&self) -> usize {
        if self.tiny {
            40
        } else {
            150
        }
    }
}

/// Counters summed from every node's `NodeMetrics` at the end of each
/// round (traced passes only).
#[derive(Default, Clone)]
pub struct NodeTotals {
    pub delivered: u64,
    pub sent_by_kind: [u64; 4],
    pub leases_taken: u64,
    pub queue_peak: u64,
    pub retries: u64,
}

/// What a pass measured.
pub struct Pass {
    pub setup_s: Vec<f64>,
    /// One summary per measured round.
    pub rounds: Vec<Round>,
    /// Every round's latency samples pooled, for the sample counts.
    pub pooled: Lat,
    pub ops: u64,
    pub msgs: u64,
    pub attempted: u64,
    pub failed: u64,
    pub gate_failures: Vec<String>,
    pub nodes: NodeTotals,
    /// `(round, requests)` of every seq-leaves round, for the sim replay.
    pub seq_rounds: Vec<(u64, u64)>,
    pub query: QueryTotals,
    pub peak_rss_mb: f64,
    pub threads_spawned: usize,
    /// `/proc/stat` steal ticks at the end of the previous round.
    steal_mark: u64,
    /// Process CPU ticks when the current round's load started.
    cpu_mark: u64,
}

/// What one round measured. Tails in ns; `*_pct` is the percentile the
/// tail was taken at.
pub struct Round {
    pub rate: f64,
    pub msgs_per_op: f64,
    pub ops: u64,
    /// Process CPU ticks while the round's load ran (all threads:
    /// cluster and generators). Steal is not charged to the process.
    pub cpu_ticks: u64,
    pub lat: Lat,
    pub read_tail: f64,
    pub read_pct: f64,
    pub write_tail: f64,
    pub write_pct: f64,
    /// Host CPU steal ticks (1/100 s, all CPUs) since the previous round
    /// ended: time the hypervisor ran someone else on our CPUs.
    pub steal: u64,
}

/// Latency samples (ns). Read side: combines, or the gaps between a
/// key's partials. Write side: write acks, or the time until 95% of a
/// query's facts were acknowledged.
#[derive(Clone)]
pub struct Lat {
    pub read: Hist,
    pub write: Hist,
}

impl Lat {
    pub fn new() -> Lat {
        Lat {
            read: Hist::new(),
            write: Hist::new(),
        }
    }

    fn merge(&mut self, other: &Lat) {
        self.read.merge(&other.read);
        self.write.merge(&other.write);
    }
}

/// Query-layer counts summed over a pass's query runs.
#[derive(Default, Clone)]
pub struct QueryTotals {
    pub facts: u64,
    pub pushes: u64,
    pub partials: u64,
    pub msgs: u64,
    pub oracle_ns: u64,
    pub runs: u64,
    /// Per query run: median over keys of the time to the key's first
    /// partial.
    pub first_partial_ms: Vec<f64>,
    /// Per query run: time until 95% of the facts were acknowledged.
    pub t95_ms: Vec<f64>,
}

impl Pass {
    pub fn new() -> Pass {
        Pass {
            setup_s: Vec::new(),
            rounds: Vec::new(),
            pooled: Lat::new(),
            ops: 0,
            msgs: 0,
            attempted: 0,
            failed: 0,
            gate_failures: Vec::new(),
            nodes: NodeTotals::default(),
            seq_rounds: Vec::new(),
            query: QueryTotals::default(),
            peak_rss_mb: 0.0,
            threads_spawned: 0,
            steal_mark: sys::steal_ticks(),
            cpu_mark: 0,
        }
    }

    /// The least-disturbed half of the rounds: ranked by host CPU steal,
    /// ties in round order. Steal is time the hypervisor gave our CPUs
    /// to another guest; it comes in bursts, and a round it hits slows
    /// for reasons outside the program. Which rounds are chosen depends
    /// only on the host, never on what a round measured.
    pub fn quiet_rounds(&self) -> Vec<&Round> {
        let mut order: Vec<&Round> = self.rounds.iter().collect();
        order.sort_by_key(|r| r.steal);
        order.truncate(self.rounds.len().div_ceil(2));
        order
    }

    /// Process CPU µs per operation over the quiet rounds: their CPU
    /// ticks summed over their operations summed, since a single round
    /// may use only a few 10 ms ticks.
    pub fn quiet_cpu_us_per_op(&self) -> f64 {
        let quiet = self.quiet_rounds();
        let ticks: u64 = quiet.iter().map(|r| r.cpu_ticks).sum();
        let ops: u64 = quiet.iter().map(|r| r.ops).sum();
        ticks as f64 * 1e6 / sys::TICKS_PER_S / ops.max(1) as f64
    }

    /// Every sample of the quiet rounds.
    pub fn quiet_lat(&self) -> Lat {
        let mut all = Lat::new();
        for r in self.quiet_rounds() {
            all.merge(&r.lat);
        }
        all
    }

    /// Median over the quiet rounds of one field, skipping rounds that
    /// had no samples for it.
    pub fn quiet_median(&self, field: impl Fn(&Round) -> f64) -> f64 {
        let xs: Vec<f64> = self
            .quiet_rounds()
            .into_iter()
            .map(field)
            .filter(|x| *x > 0.0)
            .collect();
        crate::stats::median(&xs)
    }

    fn gate(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            self.gate_failures.push(what());
        }
    }
}

/// Runs `kind` for about `seconds` of load.
pub fn run_pass(ctx: &Ctx, kind: Kind, seconds: f64, tr: &mut Tracer) -> Pass {
    let mut pass = Pass::new();
    let start = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    for rep in 0..if ctx.tiny { 2 } else { SETUP_REPS } {
        let booted = match kind {
            Kind::QueryZipf => setup(kind, &mut pass, tr, rep, |_| Ok(())).map(|b| b.0),
            _ => setup(kind, &mut pass, tr, rep, connect_origins).map(|b| b.0),
        };
        match booted {
            Ok(cluster) => drop(cluster.shutdown()),
            Err(e) => pass.gate(false, || format!("set-up {rep}: {e}")),
        }
    }
    match kind {
        Kind::QueryZipf => {
            // Fixed-size query runs, as many as fit, at least three.
            let mut round = 0;
            while round < 3 || start.elapsed() < budget {
                if Instant::now() >= ctx.hard_deadline {
                    break;
                }
                query_round(ctx, round, &mut pass, tr);
                round += 1;
            }
        }
        _ => {
            // Rounds of about half a second: the medians over many short
            // rounds ride out slow rounds better than few long ones.
            let rounds = ((seconds * 2.0).round() as u32).max(2);
            let per_round = budget / rounds;
            for round in 0..rounds as u64 {
                let r = tr.begin("round", round);
                match kind {
                    Kind::SeqLeaves => seq_round(ctx, round, per_round, &mut pass, tr),
                    _ => concurrent_round(ctx, kind, round, per_round, &mut pass, tr),
                }
                tr.end(r);
            }
        }
    }
    if kind == Kind::SeqLeaves {
        sim_gate(ctx, &mut pass);
    }
    pass
}

/// Boots the workload's cluster, timed into `pass.setup_s` together
/// with the client connects that `connect` performs.
fn setup<T>(
    kind: Kind,
    pass: &mut Pass,
    tr: &mut Tracer,
    round: u64,
    connect: impl FnOnce(&Cluster<SumI64>) -> io::Result<T>,
) -> io::Result<(Cluster<SumI64>, T)> {
    let t0 = Instant::now();
    let cluster = tr.span("cluster.spawn", round, || {
        Cluster::spawn_with(
            &kind.tree(),
            SumI64,
            &RwwSpec,
            false,
            FaultPlan::default(),
            NetConfig {
                transport: kind.transport(),
                ..NetConfig::default()
            },
        )
    })?;
    let clients = tr.span("client.connect", round, || connect(&cluster))?;
    pass.setup_s.push(t0.elapsed().as_secs_f64());
    pass.threads_spawned = cluster.threads_spawned();
    Ok((cluster, clients))
}

fn connect_origins(cluster: &Cluster<SumI64>) -> io::Result<Vec<ClusterClient<i64>>> {
    ORIGINS
        .iter()
        .map(|&o| {
            let mut c = cluster.client(o)?;
            c.set_timeout(Some(READ_SLICE), 0)?;
            Ok(c)
        })
        .collect()
}

/// Next response, or `None` once `until` passes with nothing arrived.
fn next_by(c: &mut ClusterClient<i64>, until: Instant) -> io::Result<Option<(u64, Response<i64>)>> {
    loop {
        match c.next_response() {
            Ok(r) => return Ok(Some(r)),
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if Instant::now() >= until {
                    return Ok(None);
                }
            }
            Err(e) => return Err(e),
        }
    }
}

/// One seq-leaves request: which origin, and the write argument if it
/// is a write.
fn seq_op(rng: &mut Rng) -> (usize, Option<i64>) {
    let origin = (rng.next() % 2) as usize;
    let write = rng.chance(0.5).then(|| rng.value());
    (origin, write)
}

fn seq_rng(ctx: &Ctx, round: u64) -> Rng {
    Rng::new(ctx.seed, &[Kind::SeqLeaves.label(), round])
}

/// The paper's sequential execution: one request at a time at a random
/// origin, awaited, then the whole cluster quiesced.
fn seq_round(ctx: &Ctx, round: u64, dur: Duration, pass: &mut Pass, tr: &mut Tracer) {
    let (cluster, mut clients) = match setup(Kind::SeqLeaves, pass, tr, round, connect_origins) {
        Ok(x) => x,
        Err(e) => return pass.gate(false, || format!("round {round} set-up: {e}")),
    };
    let mut rng = seq_rng(ctx, round);
    let mut last = [0i64; 2];
    let mut lat = Lat::new();
    pass.cpu_mark = sys::cpu_ticks();
    let start = Instant::now();
    let stop = (start + dur).min(ctx.hard_deadline);
    let drain = (stop + DRAIN_GRACE).min(ctx.hard_deadline);
    let mut done = 0u64;
    while Instant::now() < stop {
        let (o, write) = seq_op(&mut rng);
        let req = pass.attempted;
        pass.attempted += 1;
        let c = &mut clients[o];
        let t0 = Instant::now();
        let s = tr.begin("client.submit", req);
        let id = match write {
            Some(v) => c.submit_write(v),
            None => c.submit_combine(),
        };
        tr.end(s);
        let s = tr.begin("client.flush", req);
        let flushed = c.flush();
        tr.end(s);
        let s = tr.begin("client.wait", req);
        let got = id.and_then(|id| flushed.and_then(|_| next_by(c, drain).map(|r| (id, r))));
        tr.end(s);
        let ns = t0.elapsed().as_nanos() as u64;
        match got {
            Ok((id, Some((rid, resp)))) if rid == id => match (write, resp) {
                (Some(v), Response::Write) => {
                    lat.write.record(ns);
                    last[o] = v;
                }
                (None, Response::Combine(v)) => {
                    lat.read.record(ns);
                    let want = last[0] + last[1];
                    pass.gate(v == want, || {
                        format!("round {round} request {done}: combine {v}, oracle {want}")
                    });
                }
                (_, resp) => {
                    return pass.gate(false, || format!("round {round}: wrong reply {resp:?}"))
                }
            },
            Ok((_, None)) => {
                return pass.gate(false, || {
                    format!("round {round}: request {done} unanswered")
                })
            }
            Ok((id, Some((rid, _)))) => {
                return pass.gate(false, || format!("round {round}: reply {rid} for {id}"))
            }
            Err(e) => return pass.gate(false, || format!("round {round}: {e}")),
        }
        let s = tr.begin("cluster.quiesce", req);
        let quiet = cluster.quiesce_for(drain.saturating_duration_since(Instant::now()));
        tr.end(s);
        if !quiet {
            return pass.gate(false, || format!("round {round}: no quiescence"));
        }
        done += 1;
    }
    let wall = start.elapsed().as_secs_f64();
    finish_round(pass, tr, &cluster, round, done, wall, &lat);
    pass.seq_rounds.push((round, done));
    cluster.shutdown();
}

/// Shared end of a quiesced round: its summary, node counters, RSS. Returns the messages the round sent.
fn finish_round(
    pass: &mut Pass,
    tr: &Tracer,
    cluster: &Cluster<SumI64>,
    round: u64,
    ops: u64,
    wall: f64,
    lat: &Lat,
) -> u64 {
    let msgs = cluster.total_messages();
    let (read_tail, read_pct) = lat.read.tail();
    let (write_tail, write_pct) = lat.write.tail();
    let steal = sys::steal_ticks();
    let cpu = sys::cpu_ticks().saturating_sub(pass.cpu_mark);
    pass.rounds.push(Round {
        rate: ops as f64 / wall.max(1e-9),
        msgs_per_op: msgs as f64 / ops.max(1) as f64,
        ops,
        cpu_ticks: cpu,
        lat: lat.clone(),
        read_tail,
        read_pct,
        write_tail,
        write_pct,
        steal: steal.saturating_sub(pass.steal_mark),
    });
    pass.steal_mark = steal;
    pass.pooled.merge(lat);
    pass.peak_rss_mb = pass.peak_rss_mb.max(sys::peak_rss_mb());
    pass.ops += ops;
    pass.msgs += msgs;
    pass.gate(ops > 0, || format!("round {round} completed nothing"));
    if tr.on() {
        match node_totals(cluster) {
            Ok(t) => {
                let n = &mut pass.nodes;
                n.delivered += t.delivered;
                for (a, b) in n.sent_by_kind.iter_mut().zip(t.sent_by_kind) {
                    *a += b;
                }
                n.leases_taken += t.leases_taken;
                n.queue_peak = n.queue_peak.max(t.queue_peak);
                n.retries += t.retries;
            }
            Err(e) => pass.gate(false, || format!("round {round} metrics: {e}")),
        }
    }
    msgs
}

fn node_totals(cluster: &Cluster<SumI64>) -> io::Result<NodeTotals> {
    let mut t = NodeTotals::default();
    for u in cluster.tree().nodes() {
        let m = cluster.node_metrics(u)?;
        t.delivered += m.delivered;
        for (a, b) in t.sent_by_kind.iter_mut().zip(m.sent_by_kind) {
            *a += b;
        }
        t.leases_taken += u64::from(m.leases_taken);
        t.queue_peak = t.queue_peak.max(m.queue_peak);
        t.retries +=
            m.reconnects + m.retransmits + m.timeouts + m.dup_drops + m.backpressure_stalls;
    }
    Ok(t)
}

/// Replays every seq-leaves round's request sequence through the
/// simulator: each combine must return the oracle value the cluster
/// was checked against, and the simulator must send exactly the
/// messages the cluster sent. Returns the simulator's time per request.
pub fn sim_replay(ctx: &Ctx, rounds: &[(u64, u64)]) -> (f64, u64, Vec<String>) {
    let mut problems = Vec::new();
    let mut msgs = 0;
    let mut ns = 0u128;
    let mut reqs = 0u64;
    for &(round, n) in rounds {
        let mut rng = seq_rng(ctx, round);
        let ops: Vec<(usize, Option<i64>)> = (0..n).map(|_| seq_op(&mut rng)).collect();
        let mut eng = Engine::new(
            Kind::SeqLeaves.tree(),
            SumI64,
            &RwwSpec,
            Schedule::Fifo,
            false,
        );
        let mut last = [0i64; 2];
        let t0 = Instant::now();
        for (i, &(o, write)) in ops.iter().enumerate() {
            let origin = ORIGINS[o];
            match write {
                Some(v) => {
                    eng.initiate_write(origin, v);
                    eng.run_to_quiescence();
                    last[o] = v;
                }
                None => {
                    let got = match eng.initiate_combine(origin) {
                        oat_core::CombineOutcome::Done(v) => Some(v),
                        _ => eng
                            .run_to_quiescence()
                            .into_iter()
                            .find(|&(u, _)| u == origin)
                            .map(|(_, v)| v),
                    };
                    let want = last[0] + last[1];
                    if got != Some(want) {
                        problems.push(format!(
                            "sim round {round} request {i}: combine {got:?}, oracle {want}"
                        ));
                    }
                }
            }
        }
        ns += t0.elapsed().as_nanos();
        reqs += n;
        msgs += eng.stats().total();
    }
    (ns as f64 / reqs.max(1) as f64, msgs, problems)
}

fn sim_gate(ctx: &Ctx, pass: &mut Pass) {
    let (_, sim_msgs, problems) = sim_replay(ctx, &pass.seq_rounds);
    for p in problems {
        pass.gate(false, || p);
    }
    let net = pass.msgs;
    pass.gate(sim_msgs == net, || {
        format!("cluster sent {net} messages, simulator {sim_msgs}")
    });
}

/// Per-origin op stream of the concurrent workloads.
fn concurrent_op(kind: Kind, rng: &mut Rng) -> ReqOp<i64> {
    let write = match kind {
        Kind::BatchRead => rng.chance(0.1),
        _ => rng.chance(0.9),
    };
    if write {
        ReqOp::Write(rng.value())
    } else {
        ReqOp::Combine
    }
}

/// What one generator thread of a concurrent round reports.
struct ThreadOut {
    lat: Lat,
    done: u64,
    attempted: u64,
    failed: u64,
    /// Last write submitted per origin this thread drives.
    last: Vec<(usize, i64)>,
    errors: Vec<String>,
    tracer: Tracer,
}

/// `batch-read` and `pipe-write`: one generator thread per origin (at
/// most `nproc` threads; with fewer cores a thread drives several
/// origins), all against one cluster at once.
fn concurrent_round(
    ctx: &Ctx,
    kind: Kind,
    round: u64,
    dur: Duration,
    pass: &mut Pass,
    tr: &mut Tracer,
) {
    let (cluster, clients) = match setup(kind, pass, tr, round, connect_origins) {
        Ok(x) => x,
        Err(e) => return pass.gate(false, || format!("round {round} set-up: {e}")),
    };
    let threads = sys::nproc().clamp(1, ORIGINS.len());
    let mut shares: Vec<Vec<(usize, ClusterClient<i64>)>> = (0..threads).map(|_| vec![]).collect();
    for (o, c) in clients.into_iter().enumerate() {
        shares[o % threads].push((o, c));
    }
    pass.cpu_mark = sys::cpu_ticks();
    let start = Instant::now();
    let stop = (start + dur).min(ctx.hard_deadline);
    let drain = (stop + DRAIN_GRACE).min(ctx.hard_deadline);
    let outs: Vec<ThreadOut> = std::thread::scope(|s| {
        let handles: Vec<_> = shares
            .into_iter()
            .map(|share| {
                let mut ttr = tr.fork();
                let seed = ctx.seed;
                s.spawn(move || {
                    let mut out = ThreadOut {
                        lat: Lat::new(),
                        done: 0,
                        attempted: 0,
                        failed: 0,
                        last: Vec::new(),
                        errors: Vec::new(),
                        tracer: Tracer::new(false, Instant::now()),
                    };
                    let mut conns: Vec<Conn> = share
                        .into_iter()
                        .map(|(o, c)| Conn {
                            origin: o,
                            client: c,
                            rng: Rng::new(seed, &[kind.label(), round, o as u64]),
                            inflight: Vec::new(),
                            last: None,
                            dead: false,
                        })
                        .collect();
                    match kind {
                        Kind::BatchRead => {
                            drive_batches(&mut conns, stop, drain, &mut out, &mut ttr)
                        }
                        _ => drive_window(&mut conns, stop, drain, &mut out, &mut ttr),
                    }
                    out.last = conns
                        .iter()
                        .filter_map(|c| c.last.map(|v| (c.origin, v)))
                        .collect();
                    out.tracer = ttr;
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect()
    });
    let wall = start.elapsed().as_secs_f64();
    let mut last = [0i64; 2];
    let mut done = 0;
    let mut lat = Lat::new();
    for out in outs {
        lat.merge(&out.lat);
        pass.attempted += out.attempted;
        pass.failed += out.failed;
        pass.gate_failures.extend(out.errors);
        done += out.done;
        for (o, v) in out.last {
            last[o] = v;
        }
        tr.absorb(out.tracer);
    }
    let s = tr.begin("cluster.quiesce", round);
    let quiet = cluster.quiesce_for(drain.saturating_duration_since(Instant::now()));
    tr.end(s);
    pass.gate(quiet, || format!("round {round}: no quiescence"));
    // Count the round before the check combines below, which are not
    // load.
    finish_round(pass, tr, &cluster, round, done, wall, &lat);
    // The cluster's final answer at each origin must be the sum of the
    // last values written there.
    let want = last[0] + last[1];
    let until = (Instant::now() + DRAIN_GRACE).min(ctx.hard_deadline);
    for &o in &ORIGINS {
        let got = check_combine(&cluster, o, until);
        pass.gate(matches!(got, Ok(Some(v)) if v == want), || {
            format!(
                "round {round}: final combine at {} = {got:?}, oracle {want}",
                o.0
            )
        });
    }
    cluster.shutdown();
}

/// A combine at `origin` on a fresh connection, or `None` if no answer
/// arrives by `until`.
fn check_combine(
    cluster: &Cluster<SumI64>,
    origin: NodeId,
    until: Instant,
) -> io::Result<Option<i64>> {
    let mut c = cluster.client(origin)?;
    c.set_timeout(Some(READ_SLICE), 0)?;
    let id = c.submit_combine()?;
    match next_by(&mut c, until)? {
        Some((rid, Response::Combine(v))) if rid == id => Ok(Some(v)),
        Some((_, r)) => Err(io::Error::other(format!("unexpected reply {r:?}"))),
        None => Ok(None),
    }
}

/// One generator connection of a concurrent round.
struct Conn {
    origin: usize,
    client: ClusterClient<i64>,
    rng: Rng,
    /// `(id, submitted at, is write)` of requests awaiting a reply.
    inflight: Vec<(u64, Instant, bool)>,
    /// Last write submitted on this connection.
    last: Option<i64>,
    dead: bool,
}

impl Conn {
    fn fail(&mut self, out: &mut ThreadOut, what: String) {
        out.failed += self.inflight.len() as u64;
        self.inflight.clear();
        out.errors.push(what);
        self.dead = true;
    }

    /// Waits for one reply and records its latency.
    fn take_one(&mut self, drain: Instant, out: &mut ThreadOut, tr: &mut Tracer) {
        let s = tr.begin("client.wait", out.done);
        let got = next_by(&mut self.client, drain);
        tr.end(s);
        match got {
            Ok(Some((id, resp))) => {
                let Some(pos) = self.inflight.iter().position(|r| r.0 == id) else {
                    return self.fail(out, format!("reply to unknown request {id}"));
                };
                let (_, t0, is_write) = self.inflight.swap_remove(pos);
                let lat = t0.elapsed().as_nanos() as u64;
                match (is_write, resp) {
                    (true, Response::Write) => out.lat.write.record(lat),
                    (false, Response::Combine(_)) => out.lat.read.record(lat),
                    (_, r) => return self.fail(out, format!("wrong reply {r:?} to {id}")),
                }
                out.done += 1;
            }
            Ok(None) => {
                let n = self.inflight.len();
                self.fail(out, format!("{n} requests unanswered at the deadline"));
            }
            Err(e) => self.fail(out, format!("origin {}: {e}", self.origin)),
        }
    }

    fn submit(&mut self, op: ReqOp<i64>, out: &mut ThreadOut) -> io::Result<()> {
        out.attempted += 1;
        let t0 = Instant::now();
        let (id, is_write) = match op {
            ReqOp::Write(v) => {
                self.last = Some(v);
                (self.client.submit_write(v)?, true)
            }
            ReqOp::Combine => (self.client.submit_combine()?, false),
        };
        self.inflight.push((id, t0, is_write));
        Ok(())
    }
}

/// `pipe-write`: keep `WINDOW` single-frame requests in flight per
/// connection.
fn drive_window(
    conns: &mut [Conn],
    stop: Instant,
    drain: Instant,
    out: &mut ThreadOut,
    tr: &mut Tracer,
) {
    loop {
        let open = Instant::now() < stop;
        let mut busy = false;
        for c in conns.iter_mut().filter(|c| !c.dead) {
            if open && c.inflight.len() < WINDOW {
                let s = tr.begin("client.submit", out.attempted);
                let mut res = Ok(());
                while res.is_ok() && c.inflight.len() < WINDOW {
                    let op = concurrent_op(Kind::PipeWrite, &mut c.rng);
                    res = c.submit(op, out);
                }
                tr.end(s);
                let s = tr.begin("client.flush", out.attempted);
                let res = res.and_then(|_| c.client.flush());
                tr.end(s);
                if let Err(e) = res {
                    c.fail(out, format!("origin {}: {e}", c.origin));
                    continue;
                }
            }
            if !c.inflight.is_empty() {
                busy = true;
                c.take_one(drain, out, tr);
            }
        }
        if !open && !busy {
            return;
        }
    }
}

/// `batch-read`: keep one `BATCH`-request `REQ_BATCH` frame in flight
/// per connection.
fn drive_batches(
    conns: &mut [Conn],
    stop: Instant,
    drain: Instant,
    out: &mut ThreadOut,
    tr: &mut Tracer,
) {
    let mut ops = Vec::with_capacity(BATCH);
    while Instant::now() < stop && conns.iter().any(|c| !c.dead) {
        for c in conns.iter_mut().filter(|c| !c.dead) {
            ops.clear();
            ops.extend((0..BATCH).map(|_| concurrent_op(Kind::BatchRead, &mut c.rng)));
            let s = tr.begin("client.submit", out.attempted);
            let t0 = Instant::now();
            let res = c.client.submit_batch(&ops);
            tr.end(s);
            out.attempted += BATCH as u64;
            match res {
                Ok(ids) => {
                    for (id, op) in ids.into_iter().zip(&ops) {
                        let is_write = matches!(op, ReqOp::Write(_));
                        if let ReqOp::Write(v) = op {
                            c.last = Some(*v);
                        }
                        c.inflight.push((id, t0, is_write));
                    }
                }
                Err(e) => {
                    out.failed += BATCH as u64;
                    c.fail(out, format!("origin {}: {e}", c.origin));
                    continue;
                }
            }
            let s = tr.begin("client.flush", out.attempted);
            let res = c.client.flush();
            tr.end(s);
            if let Err(e) = res {
                c.fail(out, format!("origin {}: {e}", c.origin));
            }
        }
        for c in conns.iter_mut() {
            while !c.dead && !c.inflight.is_empty() {
                c.take_one(drain, out, tr);
            }
        }
    }
}

/// The facts of one `query-zipf` run.
fn query_facts(ctx: &Ctx, round: u64, n: usize) -> Vec<Fact> {
    let seed = Rng::new(ctx.seed, &[Kind::QueryZipf.label(), round]).next();
    zipf_facts(n, QUERY_KEYS, QUERY_ZIPF_S, QUERY_GAP_MS, seed)
}

/// One progressive query over a fresh `kary:7:2` cluster.
pub fn query_round(ctx: &Ctx, round: u64, pass: &mut Pass, tr: &mut Tracer) {
    let facts = query_facts(ctx, round, ctx.facts_per_query());
    let spec: QuerySpec = QUERY.parse().expect("the benchmark's query parses");
    pass.attempted += facts.len() as u64;
    // The engine opens its own connections inside `run`: set-up is the
    // spawn alone.
    let (cluster, ()) = match setup(Kind::QueryZipf, pass, tr, round, |_| Ok(())) {
        Ok(x) => x,
        Err(e) => {
            pass.failed += facts.len() as u64;
            pass.gate_failures
                .push(format!("query {round} set-up: {e}"));
            return;
        }
    };
    pass.cpu_mark = sys::cpu_ticks();
    let t0 = Instant::now();
    let run = tr.span("query.run", round, || {
        oat_query::run(&cluster, &spec, &facts)
    });
    let wall = t0.elapsed().as_secs_f64();
    let run = match run {
        Ok(r) => r,
        Err(e) => {
            pass.failed += facts.len() as u64;
            pass.gate_failures.push(format!("query {round}: {e}"));
            return;
        }
    };
    let t1 = Instant::now();
    let oracle_ok = run.matches_oracle(&facts);
    pass.query.oracle_ns += t1.elapsed().as_nanos() as u64;
    let verdicts = [
        ("matches_oracle", oracle_ok),
        ("coverage_monotone", run.coverage_monotone()),
        ("refine_seq_monotone", run.refine_seq_monotone()),
    ];
    let bad: Vec<&str> = verdicts.iter().filter(|v| !v.1).map(|v| v.0).collect();
    if !bad.is_empty() {
        pass.failed += facts.len() as u64;
        pass.gate_failures
            .push(format!("query {round}: {} failed", bad.join(", ")));
    }
    // Read side: how long a watcher of a key waits for its next
    // refinement (the gap between consecutive partials of one key).
    // Write side: time until 95% of the facts were acknowledged.
    let mut lat = Lat::new();
    let mut prev = std::collections::BTreeMap::new();
    for p in &run.partials {
        if let Some(before) = prev.insert(p.key, p.wall_ms) {
            lat.read.record(((p.wall_ms - before) * 1e6) as u64);
        }
    }
    pass.query
        .first_partial_ms
        .push(run.stats.first_partial_p50_ms);
    match run.stats.t95_coverage_ms {
        Some(ms) => {
            lat.write.record((ms * 1e6) as u64);
            pass.query.t95_ms.push(ms);
        }
        None => pass.gate(false, || {
            format!("query {round}: coverage never reached 95%")
        }),
    }
    let s = tr.begin("cluster.quiesce", round);
    cluster.quiesce();
    tr.end(s);
    let msgs = finish_round(pass, tr, &cluster, round, facts.len() as u64, wall, &lat);
    cluster.shutdown();
    let q = &mut pass.query;
    q.facts += facts.len() as u64;
    q.pushes += run.stats.pushes_rx;
    q.partials += run.stats.partials_total;
    q.msgs += msgs;
    q.runs += 1;
}
