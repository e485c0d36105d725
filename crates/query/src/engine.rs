//! The continuous-query engine: progressive refinement over a forest.
//!
//! ## Execution model
//!
//! The fact stream is pre-generated, so its total length is known up
//! front and **coverage** — the fraction of facts whose writes the
//! cluster has acknowledged — is monotone by construction. Each group
//! key owns one lazily-instantiated forest tree (`tree = key + 1`;
//! tree 0 stays the sim-parity built-in), multiplexed over the same
//! nodes and connections as everything else.
//!
//! Facts are **sharded** round-robin across nodes. The engine keeps an
//! absolute per-`(key, shard)` accumulator and writes the accumulator
//! value — not the delta — on every fact. Absolute writes make the
//! protocol self-healing: forest values are volatile (not WAL-logged),
//! so after a crash or `kill9` the engine simply re-writes every
//! accumulator during [`run`]'s settlement phase and the tree recovers
//! exactly.
//!
//! ## Refinement sources
//!
//! Partials are emitted from three places, all stamped with an
//! engine-assigned per-key `refine_seq`, the ack high-water mark, the
//! outstanding-write staleness bound, and coverage:
//!
//! 1. **Pushed refinements** — the engine subscribes to each key's tree
//!    at node 0; the node pushes `TAG_PARTIAL` whenever the tree's
//!    aggregate changes (plus one priming push at subscribe time).
//! 2. **Window finals** — a tumbling window is finalized when the
//!    group's first fact of a later window arrives: outstanding writes
//!    for the group are drained, the cluster is quiesced (an ack only
//!    means the write ran at its shard node; its updates toward node 0
//!    may still be in flight), a synchronous combine reads the exact
//!    window value, and the group's shards reset to identity.
//! 3. **Settlement** — after the stream ends: one pre-final snapshot
//!    per key, then heal (re-write all accumulators), drain, quiesce,
//!    and one exact final combine per key.
//!
//! Every key therefore emits at least three partials (priming push,
//! pre-final snapshot, final), and finals equal the sequential oracle
//! exactly ([`QueryRun::matches_oracle`]).

use crate::oracle::{oracle_finals, Final};
use crate::spec::{QuerySpec, WindowSpec};
use oat_core::agg::AggOp;
use oat_core::tree::NodeId;
use oat_net::{Cluster, ClusterClient, Response};
use oat_workloads::facts::Fact;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
use std::io;
use std::time::{Duration, Instant};

/// One emitted partial: a progressively refined answer plus the
/// freshness metadata needed to interpret it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PartialRecord {
    /// Group key (`0` when the query has no `group by`).
    pub key: u32,
    /// Window index the value refers to (`at_ms / T` for tumbling,
    /// else `0`).
    pub window: u64,
    /// Engine-assigned per-key refinement sequence, strictly
    /// increasing.
    pub refine_seq: u64,
    /// The current aggregate as reported by the cluster.
    pub value: i64,
    /// Fraction of the total fact stream already acknowledged —
    /// monotone across the whole emission sequence.
    pub coverage: f64,
    /// Count of acknowledged fact writes when this partial was emitted
    /// (the "last applied write" high-water mark).
    pub last_write_seq: u64,
    /// Staleness bound: fact writes submitted but not yet acknowledged.
    pub staleness: u64,
    /// Fact-stream time high-water mark (ms) at emission.
    pub at_ms: u64,
    /// Wall-clock ms since the query started.
    pub wall_ms: f64,
    /// True for exact finals (window finalization or settlement).
    pub is_final: bool,
}

/// Refinement-latency statistics for one query run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RefineStats {
    /// Total wall-clock ms from first fact to last final.
    pub elapsed_ms: f64,
    /// p50 across keys of the time to each key's first partial (ms).
    pub first_partial_p50_ms: f64,
    /// p99 across keys of the time to each key's first partial (ms).
    pub first_partial_p99_ms: f64,
    /// Wall-clock ms until coverage first reached 0.95 (`None` when
    /// the stream was empty or coverage jumped straight past it before
    /// any ack was observed).
    pub t95_coverage_ms: Option<f64>,
    /// Partials emitted in total (including finals).
    pub partials_total: u64,
    /// `TAG_PARTIAL` push frames received from the cluster.
    pub pushes_rx: u64,
}

/// The full result of one query run.
#[derive(Clone, Debug)]
pub struct QueryRun {
    /// The spec the run executed.
    pub spec: QuerySpec,
    /// Every emitted partial, in emission order.
    pub partials: Vec<PartialRecord>,
    /// Exact finals, one per `(key, window)` that saw facts.
    pub finals: Vec<Final>,
    /// Refinement-latency statistics.
    pub stats: RefineStats,
}

impl QueryRun {
    /// Coverage never decreases across the emission sequence.
    pub fn coverage_monotone(&self) -> bool {
        self.partials
            .windows(2)
            .all(|w| w[0].coverage <= w[1].coverage + 1e-12)
    }

    /// Per-key refinement sequences are strictly increasing.
    pub fn refine_seq_monotone(&self) -> bool {
        let mut last: HashMap<u32, u64> = HashMap::new();
        self.partials.iter().all(|p| {
            let prev = last.insert(p.key, p.refine_seq);
            prev.is_none_or(|s| p.refine_seq > s)
        })
    }

    /// Minimum number of partials any key emitted (0 when no facts).
    pub fn min_partials_per_key(&self) -> u64 {
        let mut per_key: HashMap<u32, u64> = HashMap::new();
        for p in &self.partials {
            *per_key.entry(p.key).or_insert(0) += 1;
        }
        per_key.values().copied().min().unwrap_or(0)
    }

    /// Engine finals equal the sequential oracle exactly.
    pub fn matches_oracle(&self, facts: &[Fact]) -> bool {
        let want = oracle_finals(&self.spec, facts);
        let mut got = self.finals.clone();
        got.sort_by_key(|f| (f.key, f.window));
        got == want
    }
}

/// What an unacknowledged write was for, so acks can settle coverage
/// and the per-key staleness bound.
#[derive(Clone, Copy)]
struct PendTag {
    key: u32,
    /// True for the one write that carries a fact's contribution;
    /// false for refolds, window resets, and heal re-writes.
    is_fact: bool,
}

struct Driver<'a> {
    spec: &'a QuerySpec,
    n: usize,
    total: u64,
    start: Instant,
    sub: ClusterClient<i64>,
    writers: Vec<ClusterClient<i64>>,
    pending: Vec<HashMap<u64, PendTag>>,
    outstanding_by_key: HashMap<u32, u64>,
    /// Absolute per-(key, shard) accumulators — the engine-side truth
    /// the forest is healed from.
    accs: BTreeMap<(u32, usize), i64>,
    /// Shards written in the current window, per key (tumbling reset
    /// set).
    touched: HashMap<u32, BTreeSet<usize>>,
    /// Sliding-window rings: the last N `(mapped value, shard)` per
    /// key.
    rings: HashMap<u32, VecDeque<(i64, usize)>>,
    cur_window: HashMap<u32, u64>,
    key_count: BTreeMap<u32, u64>,
    subscribed: HashSet<u32>,
    submitted: u64,
    acked: u64,
    at_hw: u64,
    refine_seq: HashMap<u32, u64>,
    t95_ms: Option<f64>,
    first_partial_ms: BTreeMap<u32, f64>,
    pushes_rx: u64,
    partials: Vec<PartialRecord>,
    finals: Vec<Final>,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Per-read timeout armed on every engine connection: under injected
/// faults (kill9 severing a node) the retry policy redials and re-sends
/// rather than blocking forever.
const CLIENT_TIMEOUT: Duration = Duration::from_millis(500);
const CLIENT_RETRIES: u32 = 120;

impl<'a> Driver<'a> {
    fn new<A>(cluster: &Cluster<A>, spec: &'a QuerySpec, total: usize) -> io::Result<Driver<'a>>
    where
        A: AggOp<Value = i64>,
    {
        let n = cluster.tree().len();
        let mut sub = cluster.client(NodeId(0))?;
        sub.set_timeout(Some(CLIENT_TIMEOUT), CLIENT_RETRIES)?;
        let mut writers = Vec::with_capacity(n);
        for i in 0..n {
            let mut c = cluster.client(NodeId(i as u32))?;
            c.set_timeout(Some(CLIENT_TIMEOUT), CLIENT_RETRIES)?;
            writers.push(c);
        }
        Ok(Driver {
            spec,
            n,
            total: total as u64,
            start: Instant::now(),
            sub,
            writers,
            pending: (0..n).map(|_| HashMap::new()).collect(),
            outstanding_by_key: HashMap::new(),
            accs: BTreeMap::new(),
            touched: HashMap::new(),
            rings: HashMap::new(),
            cur_window: HashMap::new(),
            key_count: BTreeMap::new(),
            subscribed: HashSet::new(),
            submitted: 0,
            acked: 0,
            at_hw: 0,
            refine_seq: HashMap::new(),
            t95_ms: None,
            first_partial_ms: BTreeMap::new(),
            pushes_rx: 0,
            partials: Vec::new(),
            finals: Vec::new(),
        })
    }

    fn tree_of(key: u32) -> u32 {
        key + 1
    }

    fn emit(&mut self, key: u32, window: u64, value: i64, is_final: bool) {
        let seq = {
            let e = self.refine_seq.entry(key).or_insert(0);
            *e += 1;
            *e
        };
        let wall = ms(self.start.elapsed());
        self.first_partial_ms.entry(key).or_insert(wall);
        let coverage = if self.total == 0 {
            1.0
        } else {
            self.acked as f64 / self.total as f64
        };
        oat_obs::trace_event!(oat_obs::EventKind::QueryEmit, key, window as u32, seq);
        self.partials.push(PartialRecord {
            key,
            window,
            refine_seq: seq,
            value,
            coverage,
            last_write_seq: self.acked,
            staleness: self.submitted - self.acked,
            at_ms: self.at_hw,
            wall_ms: wall,
            is_final,
        });
    }

    fn record_ack(&mut self, tag: PendTag) {
        if let Some(c) = self.outstanding_by_key.get_mut(&tag.key) {
            *c = c.saturating_sub(1);
        }
        if tag.is_fact {
            self.acked += 1;
            if self.t95_ms.is_none()
                && self.total > 0
                && self.acked as f64 / self.total as f64 >= 0.95
            {
                self.t95_ms = Some(ms(self.start.elapsed()));
            }
        }
    }

    /// Blocks until writer `i` has at most `down_to` unacked writes.
    fn drain_writer(&mut self, i: usize, down_to: usize) -> io::Result<()> {
        while self.pending[i].len() > down_to {
            let (id, _resp) = self.writers[i].next_response()?;
            if let Some(tag) = self.pending[i].remove(&id) {
                self.record_ack(tag);
            }
        }
        Ok(())
    }

    /// Blocks until no writer holds an unacked write touching `key`.
    fn drain_key(&mut self, key: u32) -> io::Result<()> {
        for i in 0..self.n {
            while self.pending[i].values().any(|t| t.key == key) {
                let (id, _resp) = self.writers[i].next_response()?;
                if let Some(tag) = self.pending[i].remove(&id) {
                    self.record_ack(tag);
                }
            }
        }
        Ok(())
    }

    /// Submits one absolute-value write on writer `shard` and applies
    /// light backpressure so unacked writes stay bounded.
    fn submit(&mut self, shard: usize, key: u32, value: i64, is_fact: bool) -> io::Result<()> {
        let id = self.writers[shard].submit_write_tree(Self::tree_of(key), value)?;
        self.writers[shard].flush_retry()?;
        self.pending[shard].insert(id, PendTag { key, is_fact });
        *self.outstanding_by_key.entry(key).or_insert(0) += 1;
        if is_fact {
            self.submitted += 1;
        }
        // Keep at most one write in flight per writer: acks settle
        // promptly (coverage tracks the stream closely) while writes
        // still pipeline across the round-robin shards.
        if self.pending[shard].len() >= 2 {
            self.drain_writer(shard, 1)?;
        }
        Ok(())
    }

    /// Drains pushed refinements, emitting one partial per push.
    fn poll_sub(&mut self, wait: Duration) -> io::Result<()> {
        while let Some((_sid, resp)) = self.sub.try_next_response(wait)? {
            if let Response::Partial { tree, value, .. } = resp {
                self.pushes_rx += 1;
                let key = tree - 1;
                let w = self.cur_window.get(&key).copied().unwrap_or(0);
                self.emit(key, w, value, false);
            }
        }
        Ok(())
    }

    /// Finalizes tumbling window `w` of `key` exactly: drain the key's
    /// outstanding writes, wait until the updates they set off have
    /// reached every node, read the window value synchronously, emit it
    /// as a final, and reset the key's shards to identity for the next
    /// window.
    fn finalize_window<A>(&mut self, cluster: &Cluster<A>, key: u32, w: u64) -> io::Result<()>
    where
        A: AggOp<Value = i64>,
    {
        self.drain_key(key)?;
        cluster.quiesce();
        let v = self.sub.combine_tree(Self::tree_of(key))?;
        self.emit(key, w, v, true);
        self.finals.push(Final {
            key,
            window: w,
            value: v,
        });
        let ident = self.spec.op.identity();
        let shards: Vec<usize> = self
            .touched
            .remove(&key)
            .map(|s| s.into_iter().collect())
            .unwrap_or_default();
        for s in shards {
            self.accs.insert((key, s), ident);
            self.submit(s, key, ident, false)?;
        }
        Ok(())
    }

    fn process_fact<A>(&mut self, cluster: &Cluster<A>, f: &Fact) -> io::Result<()>
    where
        A: AggOp<Value = i64>,
    {
        let key = if self.spec.group_by_key { f.key } else { 0 };
        if let WindowSpec::Tumbling(width) = self.spec.window {
            let w = f.at_ms / width;
            let cur = *self.cur_window.entry(key).or_insert(w);
            if w > cur {
                self.finalize_window(cluster, key, cur)?;
                self.cur_window.insert(key, w);
            }
        }
        if self.subscribed.insert(key) {
            self.sub.subscribe(Self::tree_of(key))?;
        }
        let cnt = self.key_count.entry(key).or_insert(0);
        let shard = ((u64::from(key) + *cnt) % self.n as u64) as usize;
        *cnt += 1;
        let op = self.spec.op;
        let mv = op.map_val(f.val);
        let mut retired: Option<(usize, i64)> = None;
        match self.spec.window {
            WindowSpec::LastN(cap) => {
                let ring = self.rings.entry(key).or_default();
                ring.push_back((mv, shard));
                if ring.len() > cap {
                    // Retire-on-expiry: refold every shard the eviction
                    // touched from the surviving ring contents.
                    let (_, evicted_shard) = ring.pop_front().expect("ring non-empty");
                    let refold = |s: usize, ring: &VecDeque<(i64, usize)>| {
                        ring.iter()
                            .filter(|&&(_, rs)| rs == s)
                            .fold(op.identity(), |a, &(v, _)| op.combine(a, v))
                    };
                    let nv = refold(shard, ring);
                    if evicted_shard != shard {
                        let ev = refold(evicted_shard, ring);
                        retired = Some((evicted_shard, ev));
                    }
                    self.accs.insert((key, shard), nv);
                    if let Some((s, v)) = retired {
                        self.accs.insert((key, s), v);
                    }
                } else {
                    let e = self
                        .accs
                        .entry((key, shard))
                        .or_insert_with(|| op.identity());
                    *e = op.combine(*e, mv);
                }
            }
            _ => {
                let e = self
                    .accs
                    .entry((key, shard))
                    .or_insert_with(|| op.identity());
                *e = op.combine(*e, mv);
            }
        }
        self.at_hw = f.at_ms;
        let marks = self.touched.entry(key).or_default();
        marks.insert(shard);
        if let Some((s, v)) = retired {
            marks.insert(s);
            self.submit(s, key, v, false)?;
        }
        let v = self.accs[&(key, shard)];
        self.submit(shard, key, v, true)?;
        // One bounded poll per fact: collect pushed refinements as they
        // arrive and pace the stream.
        self.poll_sub(Duration::from_millis(1))
    }
}

/// Runs `spec` over `facts` against `cluster`, blocking until the
/// stream is fully applied and the finals are exact.
///
/// The cluster's operator must implement the same monoid over `i64` as
/// `spec.op` (`sum`/`count` → `SumI64`, `min` → `MinI64`, `max` →
/// `MaxI64`); the engine folds its shard accumulators with `spec.op`
/// and the nodes fold shard values with the cluster's operator, so a
/// mismatch silently corrupts finals.
pub fn run<A>(cluster: &Cluster<A>, spec: &QuerySpec, facts: &[Fact]) -> io::Result<QueryRun>
where
    A: AggOp<Value = i64>,
{
    let mut d = Driver::new(cluster, spec, facts.len())?;
    for f in facts {
        d.process_fact(cluster, f)?;
    }

    // ---- Settlement ------------------------------------------------
    let keys: Vec<u32> = d.key_count.keys().copied().collect();
    // Pre-final snapshots: one last in-flight refinement per key before
    // the heal, so consumers see where the answer stood at stream end.
    for &key in &keys {
        let v = d.sub.combine_tree(Driver::tree_of(key))?;
        let w = d.cur_window.get(&key).copied().unwrap_or(0);
        d.emit(key, w, v, false);
    }
    // Heal: forest values are volatile, so a crash or kill9 during the
    // stream may have zeroed node-local state. Re-writing every
    // absolute accumulator restores it exactly; with no faults these
    // writes are no-op overwrites.
    let heal: Vec<((u32, usize), i64)> = d.accs.iter().map(|(&k, &v)| (k, v)).collect();
    for ((key, shard), v) in heal {
        d.submit(shard, key, v, false)?;
    }
    for i in 0..d.n {
        d.drain_writer(i, 0)?;
    }
    cluster.quiesce();
    // Late pushes (including any parked during sync combines).
    d.poll_sub(Duration::from_millis(5))?;
    // Exact finals: every fact write is acked and the cluster is quiet,
    // so the synchronous combine equals the sequential oracle.
    for &key in &keys {
        let v = d.sub.combine_tree(Driver::tree_of(key))?;
        let w = d.cur_window.get(&key).copied().unwrap_or(0);
        d.emit(key, w, v, true);
        d.finals.push(Final {
            key,
            window: w,
            value: v,
        });
    }

    let elapsed_ms = ms(d.start.elapsed());
    let mut firsts: Vec<f64> = d.first_partial_ms.values().copied().collect();
    firsts.sort_by(|a, b| a.partial_cmp(b).expect("no NaN latencies"));
    let pct = |q: f64| -> f64 {
        if firsts.is_empty() {
            0.0
        } else {
            firsts[((firsts.len() - 1) as f64 * q).round() as usize]
        }
    };
    let stats = RefineStats {
        elapsed_ms,
        first_partial_p50_ms: pct(0.50),
        first_partial_p99_ms: pct(0.99),
        t95_coverage_ms: d.t95_ms,
        partials_total: d.partials.len() as u64,
        pushes_rx: d.pushes_rx,
    };
    Ok(QueryRun {
        spec: spec.clone(),
        partials: d.partials,
        finals: d.finals,
        stats,
    })
}
