//! Mechanism edge cases: degenerate topologies, extreme degrees and
//! depths, long-running state health, and liveness under message loss.

use oat::prelude::*;
use oat::sim::{invariants, run_sequential, Engine, Schedule};
use oat_core::mechanism::CombineOutcome;
use oat_core::request::Request;

fn n(i: u32) -> NodeId {
    NodeId(i)
}

#[test]
fn single_node_tree_everything_is_local() {
    let tree = Tree::from_edges(1, &[]).unwrap();
    let seq = vec![
        Request::combine(n(0)),
        Request::write(n(0), 5),
        Request::combine(n(0)),
        Request::write(n(0), 7),
        Request::write(n(0), 9),
        Request::combine(n(0)),
    ];
    let res = run_sequential(&tree, SumI64, &RwwSpec, Schedule::Fifo, &seq, false);
    assert_eq!(res.total_msgs(), 0);
    assert_eq!(res.combines, vec![(0, 0), (2, 5), (5, 9)]);
    assert_eq!(res.per_request_latency, vec![0; 6]);
}

#[test]
fn degree_200_star_behaves() {
    let tree = Tree::star(201);
    let mut eng: Engine<RwwSpec, SumI64> =
        Engine::new(tree.clone(), SumI64, &RwwSpec, Schedule::Fifo, false);
    // One write per leaf, then a combine at a leaf: 2·200 messages.
    for i in 1..201u32 {
        eng.initiate_write(n(i), 1);
        eng.run_to_quiescence();
    }
    assert_eq!(eng.stats().total(), 0);
    eng.initiate_combine(n(1));
    let done = eng.run_to_quiescence();
    assert_eq!(done, vec![(n(1), 200)]);
    assert_eq!(eng.stats().total(), 400);
    invariants::check_all(&eng, &SumI64).unwrap();
    invariants::check_rww_i4(&eng).unwrap();
}

#[test]
fn depth_300_path_no_stack_issues() {
    let tree = Tree::path(300);
    let mut eng: Engine<RwwSpec, SumI64> =
        Engine::new(tree.clone(), SumI64, &RwwSpec, Schedule::Fifo, false);
    eng.initiate_write(n(299), 42);
    eng.run_to_quiescence();
    eng.initiate_combine(n(0));
    let done = eng.run_to_quiescence();
    assert_eq!(done, vec![(n(0), 42)]);
    assert_eq!(eng.stats().total(), 2 * 299);
    // Update cascades the full depth on the next write.
    eng.initiate_write(n(299), 43);
    eng.run_to_quiescence();
    invariants::check_all(&eng, &SumI64).unwrap();
}

#[test]
fn long_run_state_stays_bounded_and_healthy() {
    // 4000 requests on one engine: uaw sets stay ≤ 2 (I4), pndg/snt
    // clear at every quiescent point, and invariants hold at the end.
    let tree = oat::workloads::random_tree(20, 9);
    let mut eng: Engine<RwwSpec, SumI64> =
        Engine::new(tree.clone(), SumI64, &RwwSpec, Schedule::Fifo, false);
    let seq = oat::workloads::uniform(&tree, 4000, 0.5, 77);
    let chunk = oat::sim::sequential::run_sequential_on(&mut eng, &seq, 0);
    assert!(chunk.combines.len() > 1000);
    // I4 bounds |uaw| ≤ 2 only in the lone-grant case; with multiple
    // grants it can transiently exceed 2 (releases re-truncate it), but
    // it must never grow with the run length. In this sequential run the
    // mechanism's state is O(degree), not O(history); concurrent writes
    // keep more updates in flight and hold uaw and the ledger at tens to
    // hundreds of entries (DESIGN §7), still independent of run length.
    for u in tree.nodes() {
        for vi in 0..tree.degree(u) {
            let len = eng.node(u).uaw(vi).len();
            assert!(len <= 4, "uaw unexpectedly large ({len}) at {u}");
            let grants_elsewhere =
                (0..tree.degree(u)).any(|wi| wi != vi && eng.node(u).granted(wi));
            if eng.node(u).taken(vi) && !grants_elsewhere {
                assert!(len <= 2, "I4 lone-grant bound violated at {u}");
            }
        }
    }
    invariants::check_all(&eng, &SumI64).unwrap();
    invariants::check_rww_i4(&eng).unwrap();
    // The forwarded-updates ledger must not grow with history: in a
    // sequential execution the watermark pruning keeps it O(degree).
    for u in tree.nodes() {
        let len = eng.node(u).sntupdates_len();
        assert!(
            len <= 4 * tree.degree(u).max(1),
            "sntupdates ledger leaked at {u}: {len} entries after 4000 requests"
        );
    }
}

#[test]
fn dropped_probe_stalls_the_combine_but_nothing_else() {
    // Liveness needs reliability too: lose a probe and the combine never
    // completes — but the network still drains and later requests work.
    let tree = Tree::path(3);
    let mut eng: Engine<RwwSpec, SumI64> =
        Engine::new(tree.clone(), SumI64, &RwwSpec, Schedule::Fifo, false);
    assert!(matches!(
        eng.initiate_combine(n(0)),
        CombineOutcome::Pending
    ));
    // Lose the probe n0 -> n1.
    assert_eq!(
        eng.drop_one(n(0), n(1)),
        Some(oat::core::message::MsgKind::Probe)
    );
    let done = eng.run_to_quiescence();
    assert!(done.is_empty(), "the combine can never complete");
    assert!(eng.is_quiescent());
    // The node still has the request pending — visible state, no panic.
    assert_eq!(eng.node(n(0)).pndg(), &[n(0)]);
    // Other nodes keep working.
    eng.initiate_write(n(2), 9);
    eng.run_to_quiescence();
    assert_eq!(eng.global_oracle(), 9);
}

#[test]
fn interleaved_writes_from_all_nodes_converge() {
    // Every node writes in round-robin with leases fully warmed: all
    // caches converge to the true aggregate after each quiescence.
    let tree = Tree::kary(7, 2);
    let mut eng: Engine<RwwSpec, SumI64> =
        Engine::new(tree.clone(), SumI64, &RwwSpec, Schedule::Fifo, false);
    eng.prewarm_leases();
    for round in 0..3i64 {
        for i in 0..7u32 {
            eng.initiate_write(n(i), round * 10 + i as i64);
            eng.run_to_quiescence();
        }
        // A combine at every node agrees with the oracle — whether
        // leases survived (prewarm start) or broke along the way.
        let oracle = eng.global_oracle();
        for i in 0..7u32 {
            let v = match eng.initiate_combine(n(i)) {
                CombineOutcome::Done(v) => v,
                CombineOutcome::Pending => {
                    let done = eng.run_to_quiescence();
                    done.into_iter().find(|(u, _)| *u == n(i)).unwrap().1
                }
                CombineOutcome::Coalesced => unreachable!(),
            };
            assert_eq!(v, oracle, "node {i} round {round}");
        }
    }
    invariants::check_all(&eng, &SumI64).unwrap();
}

#[test]
fn ab_policy_with_large_a_churns_on_alternating_workloads() {
    // (5, 1): leases need five consecutive combines in σ(u,v). Writes
    // interleave globally, but for a *quiet leaf* v the pair (v, centre)
    // sees long combine runs from other nodes — so leases do form, and
    // with b = 1 they break on the next write: pure churn.
    let tree = Tree::star(6);
    let mut seq = Vec::new();
    for i in 0..40u32 {
        seq.push(Request::combine(n(i % 6)));
        seq.push(Request::write(n((i + 1) % 6), i as i64));
    }
    let ab = run_sequential(
        &tree,
        SumI64,
        &AbSpec::new(5, 1),
        Schedule::Fifo,
        &seq,
        false,
    );
    let never = run_sequential(&tree, SumI64, &NeverLeaseSpec, Schedule::Fifo, &seq, false);
    // Same strictly-consistent answers either way…
    assert_eq!(ab.combines, never.combines);
    // …but (5,1) is not "almost NeverLease": leaf-to-centre leases still
    // form (five consecutive *other-node* combines probe through a quiet
    // leaf), and with b = 1 they churn — costing MORE than never leasing.
    // An instructive pathology: long-a policies pay grant/release churn
    // without reaping push savings.
    assert!(
        ab.total_msgs() > never.total_msgs(),
        "(5,1) churn: {} vs {}",
        ab.total_msgs(),
        never.total_msgs()
    );
}

#[test]
fn min_operator_with_rewrites_tracks_current_values_not_history() {
    // MIN over *current local values*: when the minimal node overwrites
    // itself upward, the aggregate rises — unlike a historical min.
    let mut sys = AggregationSystem::new(Tree::path(3), MinI64, RwwSpec);
    sys.write(n(0), 10);
    sys.write(n(1), 5);
    sys.write(n(2), 20);
    assert_eq!(sys.read(n(2)), 5);
    sys.write(n(1), 50); // the old minimum is gone
    assert_eq!(sys.read(n(2)), 10);
}
