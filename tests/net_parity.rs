//! Simulator ↔ TCP-cluster parity (the oat-net headline property).
//!
//! Sequential executions of lease-based algorithms are confluent: the
//! returned combine values *and* the per-edge, per-kind message counts are
//! independent of the (FIFO) delivery schedule. The deterministic
//! simulator and the real TCP cluster are therefore required to agree
//! *exactly* — not approximately — on every seeded workload, as long as
//! each request runs to quiescence before the next starts.
//!
//! These tests replay identical seeded request sequences through
//! `oat_sim::run_sequential` and `oat_net::Cluster::replay_sequential`
//! and assert equality of:
//!
//! * every combine result,
//! * the per-request message counts,
//! * the per-kind message totals (probe / response / update / release),
//! * the full per-directed-edge, per-kind count matrix.

use oat::core::agg::SumI64;
use oat::core::fault::FaultPlan;
use oat::core::policy::baseline::NeverLeaseSpec;
use oat::core::policy::rww::RwwSpec;
use oat::core::policy::PolicySpec;
use oat::core::request::{ReqOp, Request};
use oat::core::tree::{NodeId, Tree};
use oat::net::{Cluster, ClusterClient, NetConfig, Response, TransportKind};
use oat::sim::{run_sequential, Schedule};
use oat::workloads::{hotspot, uniform};

/// Every transport backend the cluster can run on. Parity is a property
/// of the protocol, not the byte pipe, so each one must pass unchanged.
const TRANSPORTS: [TransportKind; 3] =
    [TransportKind::Tcp, TransportKind::Uds, TransportKind::Ring];

/// The default config on the given transport backend.
fn on(transport: TransportKind) -> NetConfig {
    NetConfig {
        transport,
        ..NetConfig::default()
    }
}

/// Spawns a fault-free cluster with the given config.
fn spawn_on<S: PolicySpec>(
    tree: &Tree,
    spec: &S,
    cfg: NetConfig,
) -> std::io::Result<Cluster<SumI64>>
where
    S::Node: 'static,
{
    Cluster::spawn_with(tree, SumI64, spec, false, FaultPlan::default(), cfg)
}

/// Replays `seq` through both runtimes and asserts exact agreement.
fn assert_parity<S: PolicySpec>(label: &str, tree: &Tree, spec: &S, seq: &[Request<i64>])
where
    S::Node: 'static,
{
    assert_parity_on(label, tree, spec, seq, on(TransportKind::Tcp));
}

/// The config-parameterized body of [`assert_parity`]. Also checks the
/// placement rule: an edge runs on an in-memory pipe exactly when both
/// endpoints share a reactor (`node % pool`). Returns the number of
/// in-memory edges.
fn assert_parity_on<S: PolicySpec>(
    label: &str,
    tree: &Tree,
    spec: &S,
    seq: &[Request<i64>],
    cfg: NetConfig,
) -> u32
where
    S::Node: 'static,
{
    let sim = run_sequential(tree, SumI64, spec, Schedule::Fifo, seq, false);

    let cluster =
        spawn_on(tree, spec, cfg).unwrap_or_else(|e| panic!("{label}: cluster spawn failed: {e}"));
    let net = cluster
        .replay_sequential(seq)
        .unwrap_or_else(|e| panic!("{label}: replay failed: {e}"));

    assert_eq!(net.combines, sim.combines, "{label}: combine values differ");
    assert_eq!(
        net.per_request_msgs, sim.per_request_msgs,
        "{label}: per-request message counts differ"
    );

    // Cluster-wide stats, reassembled from the nodes' TCP metrics
    // snapshots while the cluster is still alive…
    let live = cluster.stats().unwrap();
    let reference = sim.engine.stats();
    assert_eq!(
        live.kind_totals(),
        reference.kind_totals(),
        "{label}: per-kind totals differ (live metrics)"
    );
    assert_eq!(
        live.per_edge_counts(),
        reference.per_edge_counts(),
        "{label}: per-edge counts differ (live metrics)"
    );
    assert_eq!(
        live.to_json(tree),
        reference.to_json(tree),
        "{label}: stats JSON differs"
    );
    let pool = cluster.threads_spawned();
    let mut mem_ends = 0;
    for u in tree.nodes() {
        let want = tree
            .nbrs(u)
            .iter()
            .filter(|v| v.idx() % pool == u.idx() % pool)
            .count() as u32;
        let m = cluster.node_metrics(u).unwrap();
        assert_eq!(m.mem_edges, want, "{label}: node {} memory edges", u.0);
        mem_ends += m.mem_edges;
        // In a sequential execution every update reaches a node in the
        // quiescent state the previous request left, so the ledger
        // high-water marks match the simulator's node for node.
        let reference = sim.engine.node(u);
        assert_eq!(
            (m.ledger_peak, m.uaw_peak),
            (reference.ledger_peak() as u64, reference.uaw_peak() as u64),
            "{label}: node {} ledger/uaw peaks",
            u.0
        );
    }

    // …and again from the authoritative per-node reports after shutdown.
    let report = cluster.shutdown();
    assert_eq!(
        report.stats.per_edge_counts(),
        reference.per_edge_counts(),
        "{label}: per-edge counts differ (shutdown report)"
    );
    assert_eq!(
        report.stats.total(),
        reference.total(),
        "{label}: totals differ"
    );
    mem_ends / 2
}

fn topologies() -> Vec<(&'static str, Tree)> {
    vec![
        ("path(7)", Tree::path(7)),
        ("star(8)", Tree::star(8)),
        ("kary(10,3)", Tree::kary(10, 3)),
    ]
}

#[test]
fn uniform_workload_matches_under_rww() {
    for (name, tree) in topologies() {
        let seq = uniform(&tree, 60, 0.5, 0xA11CE);
        assert_parity(&format!("uniform/rww/{name}"), &tree, &RwwSpec, &seq);
    }
}

#[test]
fn write_heavy_workload_matches_under_rww() {
    for (name, tree) in topologies() {
        let seq = uniform(&tree, 60, 0.9, 0xB0B0);
        assert_parity(&format!("write-heavy/rww/{name}"), &tree, &RwwSpec, &seq);
    }
}

#[test]
fn hotspot_workload_matches_under_rww() {
    for (name, tree) in topologies() {
        let seq = hotspot(&tree, 60, 0.4, 2, 2, 0xC0FFEE);
        assert_parity(&format!("hotspot/rww/{name}"), &tree, &RwwSpec, &seq);
    }
}

#[test]
fn workloads_match_under_never_lease() {
    // NeverLease keeps the system pull-only; parity must hold for the
    // degenerate policy too (probe/response floods, zero updates).
    for (name, tree) in topologies() {
        let seq = uniform(&tree, 40, 0.5, 0xDEAD);
        assert_parity(
            &format!("uniform/never/{name}"),
            &tree,
            &NeverLeaseSpec,
            &seq,
        );
        let seq = hotspot(&tree, 40, 0.6, 1, 3, 0xF00D);
        assert_parity(
            &format!("hotspot/never/{name}"),
            &tree,
            &NeverLeaseSpec,
            &seq,
        );
    }
}

#[test]
fn concurrent_pipelined_combines_match_the_sequential_oracle() {
    // The batching/pipelining parity test: after a quiesced write phase,
    // concurrent combines are write-determined — every one must return
    // the global oracle value — and when they all target the same node,
    // the message counts are deterministic too: the first combine pays
    // for the lease-building probe/response traffic (or nothing, if the
    // writes left leases in place) and every later one is answered
    // locally or coalesced onto the pending one. So the TCP cluster,
    // driven by several clients each keeping a window of combines in
    // flight, must reproduce the sequential simulator's per-edge counts
    // for "the writes, then the combines at node 0" *exactly* — batching
    // and coalescing may merge syscalls, never messages.
    for (name, tree) in topologies() {
        let writes: Vec<Request<i64>> = uniform(&tree, 40, 1.0, 0x5EED)
            .into_iter()
            .filter(|q| !q.op.is_combine())
            .collect();
        // A write *sets* its node's local value, so the global aggregate
        // is the sum of each node's most recent write.
        let mut last = vec![0i64; tree.len()];
        for q in &writes {
            match &q.op {
                ReqOp::Write(v) => last[q.node.idx()] = *v,
                ReqOp::Combine => unreachable!(),
            }
        }
        let oracle: i64 = last.iter().sum();

        const CLIENTS: usize = 4;
        const PER_CLIENT: usize = 12;
        const DEPTH: usize = 8;

        // Sequential reference: the writes, then all combines at node 0.
        let mut seq = writes.clone();
        seq.extend((0..CLIENTS * PER_CLIENT).map(|_| Request::combine(NodeId(0))));
        let sim = run_sequential(&tree, SumI64, &RwwSpec, Schedule::Fifo, &seq, false);

        let cluster = Cluster::spawn(&tree, SumI64, &RwwSpec, false).unwrap();
        let net_writes = cluster.replay_sequential(&writes).unwrap();
        assert!(net_writes.combines.is_empty());

        // Concurrent phase: CLIENTS connections to node 0, each keeping
        // up to DEPTH combines in flight.
        std::thread::scope(|scope| {
            for c in 0..CLIENTS {
                let cluster = &cluster;
                scope.spawn(move || {
                    let mut client: ClusterClient<i64> = cluster.client(NodeId(0)).unwrap();
                    let mut submitted = 0usize;
                    let mut received = 0usize;
                    while received < PER_CLIENT {
                        while submitted < PER_CLIENT && submitted - received < DEPTH {
                            client.submit_combine().unwrap();
                            submitted += 1;
                        }
                        let (_, resp) = client.next_response().unwrap();
                        match resp {
                            Response::Combine(v) => {
                                assert_eq!(v, oracle, "client {c}: combine diverged from oracle")
                            }
                            other => panic!("client {c}: unexpected response {other:?}"),
                        }
                        received += 1;
                    }
                });
            }
        });
        cluster.quiesce();

        let live = cluster.stats().unwrap();
        let reference = sim.engine.stats();
        assert_eq!(
            live.per_edge_counts(),
            reference.per_edge_counts(),
            "{name}: pipelined combines changed the per-edge message counts"
        );
        let report = cluster.shutdown();
        assert_eq!(report.stats.total(), reference.total(), "{name}: totals");
        assert_eq!(
            report.delivered,
            reference.total(),
            "{name}: every sent message must be delivered exactly once"
        );
    }
}

#[test]
fn replay_pipelined_is_internally_consistent() {
    // A mixed workload under the multi-client pipelined driver: combine
    // values are schedule-dependent here, so no oracle comparison — but
    // every request must be answered, every sent message delivered, and
    // per-node submission order preserved (each node's subsequence runs
    // FIFO on one connection).
    let tree = Tree::kary(10, 3);
    let seq = uniform(&tree, 120, 0.5, 0x9A9A);
    let expected_combines = seq.iter().filter(|q| q.op.is_combine()).count();

    let cluster = Cluster::spawn(&tree, SumI64, &RwwSpec, false).unwrap();
    let pipe = cluster.replay_pipelined(&seq, 8).unwrap();
    cluster.quiesce();

    assert_eq!(pipe.combines.len(), expected_combines);
    // Indices are unique, sorted, and refer to combine requests.
    for w in pipe.combines.windows(2) {
        assert!(w[0].0 < w[1].0, "combine indices must be strictly sorted");
    }
    for (i, _) in &pipe.combines {
        assert!(seq[*i].op.is_combine());
    }
    assert_eq!(pipe.latencies.len(), seq.len());

    let report = cluster.shutdown();
    assert_eq!(
        report.delivered,
        report.stats.total(),
        "sent and delivered message counts must agree at quiescence"
    );
}

#[test]
fn byte_parity_holds_on_every_transport() {
    // The full byte-for-byte parity check — combine values, per-request
    // message counts, per-kind totals, the complete per-directed-edge
    // count matrix — repeated over every transport backend. The SPSC
    // ring, the Unix socket, and TCP must be indistinguishable above
    // the framing layer.
    let tree = Tree::kary(10, 3);
    for transport in TRANSPORTS {
        let seq = uniform(&tree, 60, 0.5, 0xA11CE);
        assert_parity_on(
            &format!("uniform/rww/kary(10,3)/{}", transport.name()),
            &tree,
            &RwwSpec,
            &seq,
            on(transport),
        );
        let seq = hotspot(&tree, 40, 0.4, 2, 2, 0xC0FFEE);
        assert_parity_on(
            &format!("hotspot/rww/kary(10,3)/{}", transport.name()),
            &tree,
            &RwwSpec,
            &seq,
            on(transport),
        );
    }
}

#[test]
fn memory_pipes_and_sockets_give_identical_parity() {
    // One reactor owns every node, so every edge is an in-memory pipe;
    // one reactor per node, so none is. Both must reproduce the
    // simulator's values and per-edge message counts exactly, on every
    // transport (clients keep the configured transport either way).
    let tree = Tree::kary(10, 3);
    let edges = tree.len() as u32 - 1;
    for transport in TRANSPORTS {
        for (threads, want_mem) in [(1, edges), (tree.len(), 0)] {
            for (kind, seq) in [
                ("uniform", uniform(&tree, 60, 0.5, 0xA11CE)),
                ("hotspot", hotspot(&tree, 40, 0.4, 2, 2, 0xC0FFEE)),
            ] {
                let label = format!("{kind}/threads={threads}/{}", transport.name());
                let cfg = NetConfig {
                    threads: Some(threads),
                    ..on(transport)
                };
                let mem = assert_parity_on(&label, &tree, &RwwSpec, &seq, cfg);
                assert_eq!(mem, want_mem, "{label}: in-memory edges");
            }
        }
    }
}

#[test]
fn batched_replay_matches_the_oracle_on_every_transport() {
    // The batch protocol's parity claim: after a quiesced write phase,
    // combines are write-determined, so every combine carried inside a
    // TAG_REQ_BATCH frame must return exactly the oracle value — on
    // every transport. Batching merges frames, never messages, so the
    // per-edge counts must also match the sequential simulator's run of
    // "the writes, then the combines at node 0".
    for transport in TRANSPORTS {
        let name = transport.name();
        let tree = Tree::kary(10, 3);
        let writes: Vec<Request<i64>> = uniform(&tree, 40, 1.0, 0x5EED)
            .into_iter()
            .filter(|q| !q.op.is_combine())
            .collect();
        let mut last = vec![0i64; tree.len()];
        for q in &writes {
            match &q.op {
                ReqOp::Write(v) => last[q.node.idx()] = *v,
                ReqOp::Combine => unreachable!(),
            }
        }
        let oracle: i64 = last.iter().sum();

        const COMBINES: usize = 48;
        const BATCH: usize = 8;
        let combines: Vec<Request<i64>> =
            (0..COMBINES).map(|_| Request::combine(NodeId(0))).collect();

        // Sequential reference for the message-count comparison.
        let mut seq = writes.clone();
        seq.extend(combines.iter().cloned());
        let sim = run_sequential(&tree, SumI64, &RwwSpec, Schedule::Fifo, &seq, false);

        let cluster = spawn_on(&tree, &RwwSpec, on(transport))
            .unwrap_or_else(|e| panic!("{name}: spawn failed: {e}"));
        let net_writes = cluster.replay_sequential(&writes).unwrap();
        assert!(net_writes.combines.is_empty());

        let batched = cluster
            .replay_batched(&combines, BATCH)
            .unwrap_or_else(|e| panic!("{name}: batched replay failed: {e}"));
        cluster.quiesce();

        assert_eq!(
            batched.combines.len(),
            COMBINES,
            "{name}: every batched combine must be answered"
        );
        for (i, v) in &batched.combines {
            assert_eq!(*v, oracle, "{name}: batched combine {i} diverged");
        }
        assert_eq!(batched.latencies.len(), COMBINES);

        let live = cluster.stats().unwrap();
        let reference = sim.engine.stats();
        assert_eq!(
            live.per_edge_counts(),
            reference.per_edge_counts(),
            "{name}: batched combines changed the per-edge message counts"
        );
        let report = cluster.shutdown();
        assert_eq!(report.stats.total(), reference.total(), "{name}: totals");
        assert_eq!(
            report.delivered,
            reference.total(),
            "{name}: every sent message must be delivered exactly once"
        );
    }
}

#[test]
fn batched_mixed_workload_is_internally_consistent() {
    // A mixed read/write workload under the batch driver: values are
    // schedule-dependent (batch members at one node run FIFO, cross-node
    // order is free), so no oracle — but every request must be answered
    // exactly once, indices must come back sorted and unique, and the
    // message ledger must balance.
    let tree = Tree::kary(10, 3);
    let seq = uniform(&tree, 120, 0.5, 0x9A9A);
    let expected_combines = seq.iter().filter(|q| q.op.is_combine()).count();

    let cluster = Cluster::spawn(&tree, SumI64, &RwwSpec, false).unwrap();
    let batched = cluster.replay_batched(&seq, 16).unwrap();
    cluster.quiesce();

    assert_eq!(batched.combines.len(), expected_combines);
    for w in batched.combines.windows(2) {
        assert!(w[0].0 < w[1].0, "combine indices must be strictly sorted");
    }
    for (i, _) in &batched.combines {
        assert!(seq[*i].op.is_combine());
    }
    assert_eq!(batched.latencies.len(), seq.len());

    let report = cluster.shutdown();
    assert_eq!(
        report.delivered,
        report.stats.total(),
        "sent and delivered message counts must agree at quiescence"
    );
}
