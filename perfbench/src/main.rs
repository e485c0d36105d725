//! Repository benchmark for online aggregation over trees.
//!
//! ```text
//! oat-perfbench --workload <seq-leaves|batch-read|pipe-write|query-zipf>
//!               --seed <n> --seconds <s> --trace <0|1> [--tiny]
//! ```
//!
//! `--trace 0` drives the workload untraced and prints the end-to-end
//! metrics; `--trace 1` repeats it with span recording plus the layer
//! probes and prints the per-layer metrics. The last stdout line is the
//! result: `{"correct", "attempted", "failed", "metrics"}`. Any failed
//! correctness gate makes `correct` false and the exit code nonzero.
//! Box metadata, gate failures and (traced) spans go to `.bench_out/`.

mod probes;
mod stats;
mod sys;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use stats::median;
use trace::Tracer;
use workload::{run_pass, Ctx, Kind, Pass};

/// Where results, spans and probe scratch files go, relative to the
/// checkout root the benchmark runs from.
const OUT_DIR: &str = ".bench_out";
/// Waits inside the run end by this long after start.
const SOFT_BUDGET: Duration = Duration::from_secs(130);
/// After this long the watchdog reports failure and exits.
const HARD_BUDGET: Duration = Duration::from_secs(160);

/// `(name, unit)` of every end-to-end metric, in print order.
pub const END_TO_END: [(&str, &str); 7] = [
    ("ops_per_s", "1/s"),
    ("read_iqm_us", "us"),
    ("write_iqm_us", "us"),
    ("cpu_us_per_op", "us"),
    ("msgs_per_op", "msgs/op"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// `(name, unit)` of every per-layer metric, in print order.
pub const PER_LAYER: [(&str, &str); 49] = [
    ("lat.read_tail_us", "us"),
    ("lat.write_tail_us", "us"),
    ("sim.ns_per_req", "ns"),
    ("sim.msgs_per_req", "msgs/req"),
    ("wire.msg_encode_ns", "ns"),
    ("wire.msg_decode_ns", "ns"),
    ("frame.req_ns", "ns"),
    ("frame.batch_ns_per_member", "ns"),
    ("frame.bytes_per_req", "B"),
    ("client.submit_ns", "ns"),
    ("client.wait_us", "us"),
    ("client.local_rtt_us", "us"),
    ("client.local_rtt_ring_us", "us"),
    ("client.idle_poll_us", "us"),
    ("client.write_tree_rtt_us", "us"),
    ("client.combine_tree_rtt_us", "us"),
    ("net.hop_us", "us"),
    ("net.hop_ring_us", "us"),
    ("net.quiesce_us", "us"),
    ("net.msgs_per_req", "msgs/req"),
    ("net.delivered_per_req", "msgs/req"),
    ("net.probe_per_req", "msgs/req"),
    ("net.response_per_req", "msgs/req"),
    ("net.update_per_req", "msgs/req"),
    ("net.release_per_req", "msgs/req"),
    ("net.leases_taken", "count"),
    ("net.queue_peak", "count"),
    ("net.retries", "count"),
    ("ladder.ring_us_per_req", "us"),
    ("ladder.uds_us_per_req", "us"),
    ("ladder.tcp_us_per_req", "us"),
    ("ladder.wal8_us_per_req", "us"),
    ("wal.append_ns", "ns"),
    ("wal.fsync_us", "us"),
    ("wal.recover_ms", "ms"),
    ("wal.records_per_write", "count"),
    ("wal.fsyncs_per_write", "count"),
    ("query.pushes_per_fact", "count"),
    ("query.partials_per_fact", "count"),
    ("query.msgs_per_fact", "msgs/fact"),
    ("query.oracle_ms", "ms"),
    ("query.first_partial_ms", "ms"),
    ("query.t95_coverage_ms", "ms"),
    ("trace.overhead_frac", "frac"),
    ("trace.spans", "count"),
    ("batch.ops_per_s", "1/s"),
    ("batch.read_iqm_us", "us"),
    ("batch.write_iqm_us", "us"),
    ("batch.msgs_per_op", "msgs/op"),
];

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let name = get("--workload")?;
    let kind = Kind::parse(name).ok_or(format!("unknown workload `{name}`"))?;
    let seed = get("--seed")?.parse().map_err(|_| "bad --seed")?;
    let seconds: f64 = get("--seconds")?.parse().map_err(|_| "bad --seconds")?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        _ => return Err("--trace must be 0 or 1".into()),
    };
    Ok(Args {
        kind,
        seed,
        seconds,
        trace,
        tiny: argv.iter().any(|a| a == "--tiny"),
    })
}

/// The outcome printed as the last stdout line.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, &'static str, f64)>,
}

fn result_line(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|(n, u, v)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                sys::json_str(n),
                num(*v),
                sys::json_str(u)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct,
        o.attempted.max(1),
        o.failed,
        metrics.join(", ")
    )
}

/// A JSON number with every digit Rust's shortest round-trip form has.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn named(
    table: &[(&'static str, &'static str)],
    get: impl Fn(&str) -> Option<f64>,
) -> Result<Vec<(&'static str, &'static str, f64)>, String> {
    table
        .iter()
        .map(|&(n, u)| {
            get(n)
                .map(|v| (n, u, v))
                .ok_or(format!("metric {n} missing"))
        })
        .collect()
}

/// End-to-end metrics of an untraced pass: medians over the quiet half
/// of the rounds (see `Pass::quiet_rounds`) of each round's rate and
/// message cost, their CPU time per operation, and the interquartile mean
/// latency of all their samples;
/// set-up is the median over every cluster boot of the pass. The latency tails are too sensitive to the host to
/// gate on; they are printed with the summary and reported per layer.
fn end_to_end(p: &Pass) -> Vec<(&'static str, f64)> {
    let quiet = p.quiet_lat();
    vec![
        ("ops_per_s", p.quiet_median(|r| r.rate)),
        ("read_iqm_us", quiet.read.iqm() / 1e3),
        ("write_iqm_us", quiet.write.iqm() / 1e3),
        ("cpu_us_per_op", p.quiet_cpu_us_per_op()),
        ("msgs_per_op", p.quiet_median(|r| r.msgs_per_op)),
        ("setup_s", median(&p.setup_s)),
        ("peak_rss_mb", p.peak_rss_mb),
    ]
}

/// Per-layer metrics of a traced run: the traced pass supplies the
/// workload-dependent ones, the probes the rest.
fn per_layer(
    ctx: &Ctx,
    kind: Kind,
    plain: &Pass,
    traced: &Pass,
    tr: &mut Tracer,
    gates: &mut Vec<String>,
) -> Result<Vec<(&'static str, f64)>, String> {
    let ops = traced.ops.max(1) as f64;
    // The workload's own spans, before the probes add theirs.
    let [submit_ns, wait_ns, quiesce_ns] =
        ["client.submit", "client.wait", "cluster.quiesce"].map(|n| tr.totals(n).2 as f64);
    let mut m: Vec<(&'static str, f64)> = vec![
        (
            "lat.read_tail_us",
            traced.quiet_median(|r| r.read_tail) / 1e3,
        ),
        (
            "lat.write_tail_us",
            traced.quiet_median(|r| r.write_tail) / 1e3,
        ),
    ];

    // Simulator: the seq-leaves sequence the traced pass executed, or a
    // fixed-length one for the other workloads.
    let rounds = match kind {
        Kind::SeqLeaves => traced.seq_rounds.clone(),
        _ => vec![(1000, if ctx.tiny { 500 } else { 20_000 })],
    };
    let (sim_ns, sim_msgs, problems) =
        tr.span("probe.sim", 0, || workload::sim_replay(ctx, &rounds));
    gates.extend(problems);
    let sim_reqs: u64 = rounds.iter().map(|r| r.1).sum();
    m.push(("sim.ns_per_req", sim_ns));
    m.push(("sim.msgs_per_req", sim_msgs as f64 / sim_reqs.max(1) as f64));

    let scratch = Path::new(OUT_DIR).join(format!("scratch-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).map_err(|e| format!("scratch dir: {e}"))?;
    let probes = probes::all(ctx, kind, &scratch, tr);
    let _ = std::fs::remove_dir_all(&scratch);
    let probes = probes.map_err(|e| format!("layer probe: {e}"))?;
    m.extend(probes);
    if kind != Kind::QueryZipf {
        // On query-zipf the engine's client calls happen inside
        // `oat_query::run`, so the tcp rtt probe supplies these.
        m.push((
            "client.submit_ns",
            submit_ns / traced.attempted.max(1) as f64,
        ));
        m.push(("client.wait_us", wait_ns / ops / 1e3));
    }
    m.push(("net.quiesce_us", quiesce_ns / ops / 1e3));
    m.push(("net.msgs_per_req", traced.msgs as f64 / ops));
    let n = &traced.nodes;
    m.push(("net.delivered_per_req", n.delivered as f64 / ops));
    for (name, count) in [
        "net.probe_per_req",
        "net.response_per_req",
        "net.update_per_req",
        "net.release_per_req",
    ]
    .into_iter()
    .zip(n.sent_by_kind)
    {
        m.push((name, count as f64 / ops));
    }
    let rounds = traced.rounds.len().max(1) as f64;
    m.push(("net.leases_taken", n.leases_taken as f64 / rounds));
    m.push(("net.queue_peak", n.queue_peak as f64));
    m.push(("net.retries", n.retries as f64));

    // Query layer: the traced pass itself on query-zipf, a short query
    // run on the other workloads.
    let q = if kind == Kind::QueryZipf {
        traced.query.clone()
    } else {
        let mut probe_pass = Pass::new();
        let s = tr.begin("probe.query", 0);
        workload::query_round(ctx, 1000, &mut probe_pass, tr);
        tr.end(s);
        gates.extend(probe_pass.gate_failures.iter().cloned());
        probe_pass.query
    };
    let facts = q.facts.max(1) as f64;
    m.push(("query.pushes_per_fact", q.pushes as f64 / facts));
    m.push(("query.partials_per_fact", q.partials as f64 / facts));
    m.push(("query.msgs_per_fact", q.msgs as f64 / facts));
    m.push((
        "query.oracle_ms",
        q.oracle_ns as f64 / q.runs.max(1) as f64 / 1e6,
    ));
    m.push(("query.first_partial_ms", median(&q.first_partial_ms)));
    m.push(("query.t95_coverage_ms", median(&q.t95_ms)));

    let base = plain.quiet_median(|r| r.rate);
    m.push((
        "trace.overhead_frac",
        1.0 - traced.quiet_median(|r| r.rate) / base.max(1e-9),
    ));
    // The batch-read load (ring transport, REQ_BATCH) as a probe: its
    // combine latency swings too far with host steal to gate on, but
    // the batch path stays measured end to end.
    let s = tr.begin("probe.batch", 0);
    let batch = run_pass(ctx, Kind::BatchRead, if ctx.tiny { 0.5 } else { 2.0 }, tr);
    tr.end(s);
    gates.extend(batch.gate_failures.iter().cloned());
    let lat = batch.quiet_lat();
    m.push(("batch.ops_per_s", batch.quiet_median(|r| r.rate)));
    m.push(("batch.read_iqm_us", lat.read.iqm() / 1e3));
    m.push(("batch.write_iqm_us", lat.write.iqm() / 1e3));
    m.push(("batch.msgs_per_op", batch.quiet_median(|r| r.msgs_per_op)));
    m.push(("trace.spans", tr.recorded() as f64));
    Ok(m)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let start = Instant::now();
    let out_dir = PathBuf::from(OUT_DIR);
    if let Err(e) = std::fs::create_dir_all(out_dir.join("tmp")) {
        eprintln!("perfbench: cannot create {OUT_DIR}: {e}");
        return ExitCode::from(2);
    }
    // Unix-socket clusters put their sockets under the temp dir: keep
    // them inside the checkout (a relative path keeps them short).
    std::env::set_var("TMPDIR", out_dir.join("tmp"));
    spawn_watchdog(&args, start + HARD_BUDGET);

    let ctx = Ctx {
        seed: args.seed,
        tiny: args.tiny,
        hard_deadline: start + SOFT_BUDGET,
    };
    let steal0 = sys::steal_ticks();
    // Gate failures found outside the measured pass (layer probes, the
    // simulator replay, the untraced half of a traced run).
    let mut gates = Vec::new();
    let (mut pass, metrics, spans) = if args.trace {
        let mut quiet = Tracer::new(false, start);
        let plain = run_pass(&ctx, args.kind, args.seconds / 2.0, &mut quiet);
        let mut tr = Tracer::new(true, Instant::now());
        let mut traced = run_pass(&ctx, args.kind, args.seconds / 2.0, &mut tr);
        let layer = per_layer(&ctx, args.kind, &plain, &traced, &mut tr, &mut gates)
            .unwrap_or_else(|e| {
                gates.push(e);
                Vec::new()
            });
        traced.attempted += plain.attempted;
        traced.failed += plain.failed;
        traced.gate_failures.extend(plain.gate_failures);
        let metrics = named(&PER_LAYER, |n| layer.iter().find(|m| m.0 == n).map(|m| m.1));
        (traced, metrics, Some(tr))
    } else {
        let mut quiet = Tracer::new(false, start);
        let pass = run_pass(&ctx, args.kind, args.seconds, &mut quiet);
        let e2e = end_to_end(&pass);
        let metrics = named(&END_TO_END, |n| e2e.iter().find(|m| m.0 == n).map(|m| m.1));
        (pass, metrics, None)
    };
    let metrics = metrics.unwrap_or_else(|e| {
        gates.push(e);
        Vec::new()
    });
    let failed = pass.failed + gates.len() as u64;
    gates.append(&mut pass.gate_failures);
    let outcome = Outcome {
        correct: gates.is_empty() && failed == 0,
        attempted: pass.attempted,
        failed,
        metrics,
    };
    let steal = sys::steal_ticks().saturating_sub(steal0);
    let tag = format!(
        "{}-seed{}-trace{}",
        args.kind.name(),
        args.seed,
        u8::from(args.trace)
    );
    let record = record_json(&args, &pass, &outcome, &gates, steal, start.elapsed());
    let result = result_line(&outcome);
    let _ = std::fs::write(
        out_dir.join(format!("{tag}.json")),
        format!("{{\"record\": {record}, \"result\": {result}}}\n"),
    );
    if let Some(tr) = spans {
        let _ = tr.write_csv(&out_dir.join(format!("{tag}-spans.csv")));
    }
    print_summary(&args, &pass, &outcome, &gates);
    println!("# record {record}");
    println!("{result}");
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Box metadata and run details, kept with every result.
fn record_json(
    args: &Args,
    p: &Pass,
    o: &Outcome,
    gates: &[String],
    steal: u64,
    wall: Duration,
) -> String {
    let gates: Vec<String> = gates.iter().take(20).map(|g| sys::json_str(g)).collect();
    let rates: Vec<String> = p.rounds.iter().map(|r| format!("{:.1}", r.rate)).collect();
    let steals: Vec<String> = p.rounds.iter().map(|r| r.steal.to_string()).collect();
    format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"transport\": {}, \
         \"threads_spawned\": {}, {}, \"steal_ticks\": {}, \"wall_s\": {}, \
         \"failed_frac\": {}, \"rounds\": {}, \"quiet_rounds\": {}, \"round_rates\": [{}], \
         \"round_steal\": [{}], \"read_samples\": {}, \"read_p50_us\": {}, \
         \"read_tail_pct\": {}, \"read_tail_us\": {}, \"write_samples\": {}, \
         \"write_p50_us\": {}, \"write_tail_pct\": {}, \"write_tail_us\": {}, \
         \"gate_failures\": [{}]}}",
        sys::json_str(args.kind.name()),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        sys::json_str(&format!("{:?}", args.kind.transport()).to_lowercase()),
        p.threads_spawned,
        sys::box_json(),
        steal,
        num(wall.as_secs_f64()),
        num(o.failed as f64 / o.attempted.max(1) as f64),
        p.rounds.len(),
        p.quiet_rounds().len(),
        rates.join(", "),
        steals.join(", "),
        p.pooled.read.count(),
        num(p.pooled.read.p50() / 1e3),
        num(p.quiet_median(|r| r.read_pct)),
        num(p.quiet_median(|r| r.read_tail) / 1e3),
        p.pooled.write.count(),
        num(p.pooled.write.p50() / 1e3),
        num(p.quiet_median(|r| r.write_pct)),
        num(p.quiet_median(|r| r.write_tail) / 1e3),
        gates.join(", ")
    )
}

fn print_summary(args: &Args, p: &Pass, o: &Outcome, gates: &[String]) {
    println!(
        "# {} seed={} seconds={} trace={} rounds={} ops={} attempted={} failed={} failed_frac={}",
        args.kind.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        p.rounds.len(),
        p.ops,
        o.attempted,
        o.failed,
        num(o.failed as f64 / o.attempted.max(1) as f64)
    );
    for (n, u, v) in &o.metrics {
        println!("#   {n:<28} {v:>14.3} {u}");
    }
    if !args.trace {
        println!(
            "#   read: p50 {:.3} us over {} samples, tail p{:.2} {:.3} us; write: p50 {:.3} us \
             over {} samples, tail p{:.2} {:.3} us; medians over the {} least-stolen of {} rounds",
            p.pooled.read.p50() / 1e3,
            p.pooled.read.count(),
            p.quiet_median(|r| r.read_pct),
            p.quiet_median(|r| r.read_tail) / 1e3,
            p.pooled.write.p50() / 1e3,
            p.pooled.write.count(),
            p.quiet_median(|r| r.write_pct),
            p.quiet_median(|r| r.write_tail) / 1e3,
            p.quiet_rounds().len(),
            p.rounds.len()
        );
    }
    for g in gates.iter().take(20) {
        println!("# GATE FAILED: {g}");
    }
}

/// Reports failure and exits if the run overstays its budget: a wedged
/// cluster must not hang the benchmark.
fn spawn_watchdog(args: &Args, at: Instant) {
    let table: &'static [(&'static str, &'static str)] =
        if args.trace { &PER_LAYER } else { &END_TO_END };
    std::thread::spawn(move || {
        std::thread::sleep(at.saturating_duration_since(Instant::now()));
        println!("# GATE FAILED: run exceeded its wall budget");
        println!(
            "{}",
            result_line(&Outcome {
                correct: false,
                attempted: 1,
                failed: 1,
                metrics: table.iter().map(|&(n, u)| (n, u, 0.0)).collect(),
            })
        );
        std::process::exit(3);
    });
}
