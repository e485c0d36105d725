//! Mechanism handler cost against the update backlog: one `T5` (update
//! received, forwarded, ledger pruned) on a `MechNode` whose
//! `sntupdates` ledger and `uaw` sets were pre-grown to a fixed size.
//!
//! The node is the centre of a 4-leaf star with leases warmed both ways,
//! so every update it receives is forwarded to the three other leaves
//! and recorded in the ledger; feeding `backlog` updates round-robin
//! from the leaves leaves `backlog` ledger tuples and `backlog / 4`
//! unacknowledged ids in each `uaw` set. Concurrent writes hold the
//! ledger at tens to hundreds of tuples, so the per-update time should
//! grow linearly with the backlog.
//!
//! A clone's vectors have no spare capacity, so the first push after
//! cloning reallocates (and, on fresh heap pages, page-faults). Setup
//! therefore clones a node grown to `backlog - 1` and applies one
//! update itself; the timed update then runs at exactly `backlog` on
//! vectors with room to grow, as on a live node.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion, Throughput};
use oat_core::agg::SumI64;
use oat_core::mechanism::MechNode;
use oat_core::message::Message;
use oat_core::policy::rww::{RwwNode, RwwSpec};
use oat_core::policy::PolicySpec;
use oat_core::tree::{NodeId, Tree};

/// Pre-grown nodes timed per iteration (one update each).
const NODES_PER_ITER: usize = 16;
const LEAVES: u32 = 4;

fn update(id: u64) -> Message<i64> {
    Message::Update {
        x: id as i64,
        id,
        wlog: None,
    }
}

/// The leaf and update id of the `i`-th round-robin update (from 0).
fn nth(i: u64) -> (NodeId, Message<i64>) {
    let leaves = u64::from(LEAVES);
    (NodeId(1 + (i % leaves) as u32), update(1 + i / leaves))
}

/// The star centre after `backlog` round-robin updates from its leaves.
fn grown(tree: &Tree, backlog: u64) -> MechNode<RwwNode, SumI64> {
    let centre = NodeId(0);
    let mut m = MechNode::new(
        tree,
        centre,
        SumI64,
        RwwSpec.build(tree.degree(centre)),
        false,
    );
    m.prewarm_leases();
    let mut out = Vec::new();
    for i in 0..backlog {
        let (leaf, msg) = nth(i);
        m.handle_message(leaf, msg, &mut out);
        out.clear();
    }
    m
}

/// `base` (grown to `backlog - 1`) cloned and given the `backlog`-th
/// update, outside the timed region.
fn ready(base: &MechNode<RwwNode, SumI64>, backlog: u64) -> MechNode<RwwNode, SumI64> {
    let mut m = base.clone();
    let (leaf, msg) = nth(backlog - 1);
    m.handle_message(leaf, msg, &mut Vec::new());
    let uaw: usize = (0..LEAVES as usize).map(|vi| m.uaw(vi).len()).sum();
    assert_eq!(
        (m.sntupdates_len(), uaw),
        (backlog as usize, backlog as usize)
    );
    m
}

fn bench_update_vs_backlog(c: &mut Criterion) {
    let mut g = c.benchmark_group("mechanism/update-by-backlog");
    let tree = Tree::star(LEAVES as usize + 1);
    for backlog in [8u64, 32, 128] {
        let base = grown(&tree, backlog - 1);
        let (leaf, next) = nth(backlog);
        g.throughput(Throughput::Elements(NODES_PER_ITER as u64));
        g.bench_with_input(BenchmarkId::from_parameter(backlog), &backlog, |b, _| {
            b.iter_batched(
                || {
                    (0..NODES_PER_ITER)
                        .map(|_| ready(&base, backlog))
                        .collect::<Vec<_>>()
                },
                |mut nodes| {
                    let mut out = Vec::new();
                    for m in &mut nodes {
                        m.handle_message(leaf, next.clone(), &mut out);
                        out.clear();
                    }
                    nodes
                },
                BatchSize::SmallInput,
            )
        });
    }
    g.finish();
}

criterion_group!(benches, bench_update_vs_backlog);
criterion_main!(benches);
