//! Layer probes for the traced run: each times calls into one layer's
//! public functions in isolation, so the per-layer costs can be set
//! against the end-to-end numbers.

use std::hint::black_box;
use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

use oat_core::agg::SumI64;
use oat_core::fault::FaultPlan;
use oat_core::message::Message;
use oat_core::policy::rww::RwwSpec;
use oat_core::tree::NodeId;
use oat_net::frame::{
    decode_batch, encode_batch, write_frame, FrameDecoder, TAG_REQ_COMBINE, TAG_REQ_WRITE,
    TAG_RESP_COMBINE, TAG_RESP_WRITE,
};
use oat_net::{Cluster, DurabilityMode, NetConfig, TransportKind, WalConfig};
use oat_wal::{Record, Wal, WalOptions};

use crate::stats::{median, Rng};
use crate::trace::Tracer;
use crate::workload::{Ctx, Kind, BATCH, ORIGINS};

/// Named per-layer values collected by the probes.
pub type Metrics = Vec<(&'static str, f64)>;

fn ns_per(t0: Instant, n: u64) -> f64 {
    t0.elapsed().as_nanos() as f64 / n.max(1) as f64
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Scale factor for probe loop counts.
fn reps(ctx: &Ctx, full: u64) -> u64 {
    if ctx.tiny {
        (full / 20).max(4)
    } else {
        full
    }
}

/// `core.wire`: `Message::encode_wire`/`decode_wire` over the four
/// message kinds.
pub fn wire(ctx: &Ctx, out: &mut Metrics) {
    let msgs: [Message<i64>; 4] = [
        Message::Probe { epoch: 1 },
        Message::Response {
            x: 1234,
            flag: true,
            epoch: 1,
            wlog: None,
        },
        Message::Update {
            x: -45,
            id: 77,
            wlog: None,
        },
        Message::Release { ids: vec![77] },
    ];
    let n = reps(ctx, 250_000);
    let mut buf = Vec::with_capacity(64);
    let t0 = Instant::now();
    for i in 0..n {
        buf.clear();
        black_box(&msgs[(i % 4) as usize]).encode_wire(&mut buf);
        black_box(&buf);
    }
    out.push(("wire.msg_encode_ns", ns_per(t0, n)));
    let encoded: Vec<Vec<u8>> = msgs
        .iter()
        .map(|m| {
            let mut b = Vec::new();
            m.encode_wire(&mut b);
            b
        })
        .collect();
    let t0 = Instant::now();
    for i in 0..n {
        let m = Message::<i64>::decode_wire(black_box(&encoded[(i % 4) as usize]));
        black_box(m.expect("probe messages decode"));
    }
    out.push(("wire.msg_decode_ns", ns_per(t0, n)));
}

/// `net.frame`: one request and its response through `write_frame` and
/// `FrameDecoder`, and `encode_batch`/`decode_batch` of a full batch.
pub fn frame(ctx: &Ctx, kind: Kind, out: &mut Metrics) {
    let n = reps(ctx, 200_000);
    let mut wire = Vec::with_capacity(64);
    let mut dec = FrameDecoder::new();
    let mut bytes = 0u64;
    let t0 = Instant::now();
    for i in 0..n {
        let (req_tag, resp_tag, req, resp) = if i % 2 == 0 {
            (TAG_REQ_COMBINE, TAG_RESP_COMBINE, 8, 16)
        } else {
            (TAG_REQ_WRITE, TAG_RESP_WRITE, 16, 8)
        };
        let body = [i as u8; 16];
        for (tag, len) in [(req_tag, req), (resp_tag, resp)] {
            wire.clear();
            write_frame(&mut wire, tag, &body[..len]).expect("in-memory write");
            bytes += wire.len() as u64;
            dec.extend(&wire);
            black_box(dec.try_frame().expect("well-formed frame"));
        }
    }
    out.push(("frame.req_ns", ns_per(t0, n)));
    let items: Vec<(u8, Vec<u8>)> = (0..BATCH as u64)
        .map(|id| (TAG_REQ_COMBINE, id.to_le_bytes().to_vec()))
        .collect();
    let batches = (n / BATCH as u64).max(1);
    let t0 = Instant::now();
    for _ in 0..batches {
        let payload = encode_batch(black_box(&items));
        black_box(decode_batch(&payload).expect("well-formed batch"));
    }
    out.push((
        "frame.batch_ns_per_member",
        ns_per(t0, batches * BATCH as u64),
    ));
    // Bytes a request and its response put on the wire, framed the way
    // this workload sends them.
    let per_req = if kind == Kind::BatchRead {
        let resp: Vec<(u8, Vec<u8>)> = (0..BATCH as u64)
            .map(|id| (TAG_RESP_COMBINE, [id.to_le_bytes(), [0; 8]].concat()))
            .collect();
        (2 * 5 + encode_batch(&items).len() + encode_batch(&resp).len()) as f64 / BATCH as f64
    } else {
        bytes as f64 / n as f64
    };
    out.push(("frame.bytes_per_req", per_req));
}

fn spawn(
    transport: TransportKind,
    durability: DurabilityMode,
    tree: &oat_core::tree::Tree,
) -> io::Result<Cluster<SumI64>> {
    Cluster::spawn_with(
        tree,
        SumI64,
        &RwwSpec,
        false,
        FaultPlan::default(),
        NetConfig {
            transport,
            durability,
            ..NetConfig::default()
        },
    )
}

/// `net.client` and the `net` runtime on one `kary:31:2` cluster:
/// leased local combines (answered at the origin, no messages) and
/// probing combines that cross all eight hops to the far origin.
/// Returns `(local rtt us, hop us, submit ns, wait us)`.
pub fn rtt(ctx: &Ctx, transport: TransportKind) -> io::Result<(f64, f64, f64, f64)> {
    let cluster = spawn(transport, DurabilityMode::Memory, &Kind::SeqLeaves.tree())?;
    let mut near = cluster.client(ORIGINS[0])?;
    let mut far = cluster.client(ORIGINS[1])?;
    near.combine()?;
    cluster.quiesce();
    let n = reps(ctx, 3000);
    let before = cluster.total_messages();
    let (mut local, mut submit, mut wait) = (Vec::new(), 0.0, 0.0);
    for _ in 0..n {
        let t0 = Instant::now();
        let id = near.submit_combine()?;
        let t1 = Instant::now();
        let (got, _) = near.next_response()?;
        let t2 = Instant::now();
        if got != id {
            return Err(io::Error::other("probe reply answers another request"));
        }
        local.push(us(t2 - t0));
        submit += (t1 - t0).as_nanos() as f64;
        wait += us(t2 - t1);
    }
    cluster.quiesce();
    if cluster.total_messages() != before {
        return Err(io::Error::other("leased combines sent messages"));
    }
    // Two writes at the far origin with no read between break its
    // leases (RWW), so the next near combine probes across the tree.
    let mut probing = Vec::new();
    let mut v = 0;
    for _ in 0..reps(ctx, 300) {
        v += 1;
        far.write(v)?;
        far.write(v + 1)?;
        cluster.quiesce();
        let before = cluster.total_messages();
        let t0 = Instant::now();
        let got = near.combine()?;
        let dt = us(t0.elapsed());
        cluster.quiesce();
        if got != v + 1 {
            return Err(io::Error::other("probing combine returned a stale value"));
        }
        if cluster.total_messages() - before >= 16 {
            probing.push(dt);
        }
    }
    cluster.shutdown();
    if probing.is_empty() {
        return Err(io::Error::other("no combine probed across the tree"));
    }
    let local_p50 = median(&local);
    let hop = (median(&probing) - local_p50) / 16.0;
    Ok((local_p50, hop, submit / n as f64, wait / n as f64))
}

/// `net.client` (forest): the idle poll and tree-routed write/combine
/// round trips the query engine is built from, on `kary:7:2`.
pub fn forest(ctx: &Ctx, out: &mut Metrics) -> io::Result<()> {
    let cluster = spawn(
        TransportKind::Tcp,
        DurabilityMode::Memory,
        &Kind::QueryZipf.tree(),
    )?;
    let mut c = cluster.client(NodeId(3))?;
    let mut idle = Vec::new();
    for _ in 0..reps(ctx, 200) {
        let t0 = Instant::now();
        if c.try_next_response(Duration::from_millis(1))?.is_some() {
            return Err(io::Error::other("idle client received a reply"));
        }
        idle.push(us(t0.elapsed()));
    }
    out.push(("client.idle_poll_us", median(&idle)));
    let (mut writes, mut combines) = (Vec::new(), Vec::new());
    for i in 0..reps(ctx, 1000) as i64 {
        let t0 = Instant::now();
        c.write_tree(1, i)?;
        writes.push(us(t0.elapsed()));
        let t0 = Instant::now();
        let got = c.combine_tree(1)?;
        combines.push(us(t0.elapsed()));
        if got != i {
            return Err(io::Error::other("forest combine disagrees with its write"));
        }
    }
    cluster.shutdown();
    out.push(("client.write_tree_rtt_us", median(&writes)));
    out.push(("client.combine_tree_rtt_us", median(&combines)));
    Ok(())
}

/// One ladder rung: a fixed seq-leaves sequence on one substrate, in
/// µs per request with the quiesce after each. Returns the rung time and
/// the cluster's WAL counters per write.
fn rung(
    ctx: &Ctx,
    transport: TransportKind,
    durability: DurabilityMode,
) -> io::Result<(f64, f64, f64)> {
    let cluster = spawn(transport, durability, &Kind::SeqLeaves.tree())?;
    let mut clients = [cluster.client(ORIGINS[0])?, cluster.client(ORIGINS[1])?];
    let mut rng = Rng::new(ctx.seed, &[0x1ADD]);
    let n = reps(ctx, 400);
    let mut writes = 0;
    let t0 = Instant::now();
    for _ in 0..n {
        let c = &mut clients[(rng.next() % 2) as usize];
        if rng.chance(0.5) {
            c.write(rng.value())?;
            writes += 1;
        } else {
            c.combine()?;
        }
        cluster.quiesce();
    }
    let per_req = us(t0.elapsed()) / n as f64;
    drop(clients);
    let report = cluster.shutdown();
    let w = writes.max(1) as f64;
    Ok((
        per_req,
        report.wal.records as f64 / w,
        report.wal.fsyncs as f64 / w,
    ))
}

/// The substrate ladder: the same sequence on ring, uds, tcp and tcp
/// with a WAL syncing every eight records.
pub fn ladder(ctx: &Ctx, scratch: &Path, out: &mut Metrics) -> io::Result<()> {
    for (name, t) in [
        ("ladder.ring_us_per_req", TransportKind::Ring),
        ("ladder.uds_us_per_req", TransportKind::Uds),
        ("ladder.tcp_us_per_req", TransportKind::Tcp),
    ] {
        out.push((name, rung(ctx, t, DurabilityMode::Memory)?.0));
    }
    let dir = scratch.join("ladder-wal");
    let _ = std::fs::remove_dir_all(&dir);
    let mut cfg = WalConfig::new(&dir);
    cfg.fsync_every = 8;
    let res = rung(ctx, TransportKind::Tcp, DurabilityMode::Wal(cfg));
    let _ = std::fs::remove_dir_all(&dir);
    let (per_req, records, fsyncs) = res?;
    out.push(("ladder.wal8_us_per_req", per_req));
    out.push(("wal.records_per_write", records));
    out.push(("wal.fsyncs_per_write", fsyncs));
    Ok(())
}

/// `oat_wal::Wal` on its own: append, group-commit sync, recovery.
pub fn wal(ctx: &Ctx, scratch: &Path, out: &mut Metrics) -> io::Result<()> {
    let dir = scratch.join("wal-probe");
    let _ = std::fs::remove_dir_all(&dir);
    let res = wal_in(ctx, &dir, out);
    let _ = std::fs::remove_dir_all(&dir);
    res
}

fn wal_in(ctx: &Ctx, dir: &Path, out: &mut Metrics) -> io::Result<()> {
    let opts = WalOptions {
        fsync_every: u64::MAX,
        snapshot_every: 0,
        ..WalOptions::default()
    };
    let mut wal = Wal::open(dir, opts.clone())?;
    let rec = |seq| Record::Send {
        peer: 1,
        seq,
        inner: 0,
        body: vec![7; 16],
    };
    let n = reps(ctx, 5000);
    let t0 = Instant::now();
    for seq in 0..n {
        wal.append(&rec(seq))?;
    }
    out.push(("wal.append_ns", ns_per(t0, n)));
    let mut syncs = Vec::new();
    for i in 0..reps(ctx, 60) {
        for j in 0..8 {
            wal.append(&rec(n + i * 8 + j))?;
        }
        let t0 = Instant::now();
        wal.sync()?;
        syncs.push(us(t0.elapsed()));
    }
    out.push(("wal.fsync_us", median(&syncs)));
    drop(wal);
    let mut wal = Wal::open(dir, opts)?;
    let t0 = Instant::now();
    wal.recover()?;
    out.push(("wal.recover_ms", t0.elapsed().as_secs_f64() * 1e3));
    Ok(())
}

/// Runs every probe, each inside its own span.
pub fn all(ctx: &Ctx, kind: Kind, scratch: &Path, tr: &mut Tracer) -> io::Result<Metrics> {
    let mut out = Metrics::new();
    tr.span("probe.wire", 0, || wire(ctx, &mut out));
    tr.span("probe.frame", 0, || frame(ctx, kind, &mut out));
    let (local, hop, submit, wait) =
        tr.span("probe.rtt.tcp", 0, || rtt(ctx, TransportKind::Tcp))?;
    out.push(("client.local_rtt_us", local));
    out.push(("net.hop_us", hop));
    if kind == Kind::QueryZipf {
        // The query engine's own client calls cannot be timed from
        // outside `oat_query::run`; these stand in for them.
        out.push(("client.submit_ns", submit));
        out.push(("client.wait_us", wait));
    }
    let (local, hop, _, _) = tr.span("probe.rtt.ring", 0, || rtt(ctx, TransportKind::Ring))?;
    out.push(("client.local_rtt_ring_us", local));
    out.push(("net.hop_ring_us", hop));
    tr.span("probe.forest", 0, || forest(ctx, &mut out))?;
    tr.span("probe.ladder", 0, || ladder(ctx, scratch, &mut out))?;
    tr.span("probe.wal", 0, || wal(ctx, scratch, &mut out))?;
    Ok(out)
}
