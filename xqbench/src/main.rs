//! `xqbench` — one run of one workload against the release
//! `xqview-server` binary, started as a child process on a fresh catalog
//! directory. Normally started by `run.py`, which builds the server and
//! this binary first:
//!
//! ```text
//! xqbench --workload NAME --seed N --seconds S --trace 0|1 --server EXE
//!         --server-opt-level L --server-debug-assertions B --commit ID --work DIR
//! ```
//!
//! With `--trace 0` the last stdout line carries the end-to-end metrics;
//! with `--trace 1` the same run is followed by an in-process replay of
//! the request stream whose spans give the per-layer metrics. Every run
//! ends with the correctness gate (see `README.md`).

mod drive;
mod server;
mod stats;
mod trace;
mod workload;

use client::Client;
use drive::{Tally, Writer};
use server::{Launch, ServerProc};
use stats::{mean, median, median_f64, ms, tail, Metrics};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;
use workload::{Workload, COMMIT_TAIL_PCT, READ_VIEW};

/// Independent set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Graceful shutdown + restart cycles per run; `restart_s` is their median.
const RESTARTS: usize = 5;
/// The timed phases run as this many rounds of open loop, capacity and
/// read phases, so every metric samples the whole run rather than one
/// stretch of it (the host's speed drifts over seconds).
const ROUNDS: usize = 10;
/// Unmeasured closed-loop requests per writer before any clock starts.
const WARMUP_PER_WRITER: usize = 6;
/// An open-loop run is invalid when the generator sent its tail later
/// than this share of the gap between a writer's arrivals, or when commit
/// p50 in the last third of the phase exceeds the first third's by
/// `BACKLOG_LIMIT` (a growing backlog). A tenth of the gap (20 ms at
/// 5/s) is some 40 times the late tail seen on the seed, and a send that
/// late still lands far from the next arrival's slot.
const GEN_LATE_SHARE: f64 = 0.1;
const BACKLOG_LIMIT: f64 = 2.0;
/// The closed-loop commits per second one writer connection is assumed
/// never to exceed: before each capacity phase every writer builds this
/// rate's worth of requests for the phase's whole length. A closed-loop
/// commit waits for at least one WAL fsync (≥ 0.27 ms on the host the
/// baseline was taken on) and two round trips (≈ 0.04 ms each), which
/// caps a writer near 2900/s. A run whose writer still runs out is
/// refused, naming this ceiling, rather than counted as failed requests.
const MAX_COMMITS_PER_S_PER_WRITER: f64 = 4000.0;
/// Requests past the replayed ones the store-write probe applies.
const PROBE_PER_WRITER: usize = 9;

pub const END_TO_END: [&str; 10] = [
    "setup_s",
    "commit_p50_ms",
    "commit_tail_ms",
    "commits_per_s",
    "query_p50_ms",
    "query_tail_ms",
    "queries_per_s",
    "restart_s",
    "server_rss_mb",
    "disk_amp",
];

pub const PER_LAYER: [&str; 36] = [
    "xmlstore.children_root_us",
    "xmlstore.write_pinned_us",
    "xmlstore.write_unpinned_us",
    "xmlstore.nodes_start",
    "xmlstore.nodes_end",
    "core.resolve_us",
    "core.validate_us",
    "core.propagate_us",
    "core.apply_us",
    "catalog.apply_us",
    "catalog.apply_self_us",
    "core.routed_frac",
    "core.maint_vs_recompute",
    "catalog.register_ms",
    "wal.append_us",
    "wal.sync_us",
    "wal.bytes_per_commit",
    "ckpt.snapshot_ms",
    "recovery.open_ms",
    "epoch.publish_us",
    "epoch.pin_after_write_us",
    "epoch.pin_idle_us",
    "epoch.extent_bytes_us",
    "proto.submit_codec_us",
    "proto.extent_codec_us",
    "proto.extent_kb",
    "front.stats_rtt_us",
    "front.residual_ms",
    "hub.ops_per_round",
    "wal.fsyncs_per_commit",
    "epoch.publishes_per_commit",
    "server.cpu_ms_per_req",
    "server.peak_rss_mb",
    "gen.late_tail_ms",
    "gen.backlog_growth",
    "trace.overhead_pct",
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    server: PathBuf,
    server_opt_level: String,
    server_debug_assertions: String,
    commit: String,
    work: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut kv = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let key = flag.strip_prefix("--").ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        kv.insert(key.to_string(), value);
    }
    let mut take = |k: &str| kv.remove(k).ok_or_else(|| format!("--{k} is required"));
    let name = take("workload")?;
    let args = Args {
        workload: Workload::parse(&name).ok_or_else(|| format!("unknown workload {name:?}"))?,
        seed: take("seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: take("seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?,
        trace: match take("trace")?.as_str() {
            "0" => false,
            "1" => true,
            t => return Err(format!("--trace must be 0 or 1, not {t:?}")),
        },
        server: take("server")?.into(),
        server_opt_level: take("server-opt-level")?,
        server_debug_assertions: take("server-debug-assertions")?,
        commit: take("commit")?,
        work: take("work")?.into(),
    };
    if let Some(k) = kv.keys().next() {
        return Err(format!("unknown flag --{k}"));
    }
    if !(args.seconds >= 1.0 && args.seconds <= 600.0) {
        return Err("--seconds must be between 1 and 600".to_string());
    }
    // Timings of an unoptimised server say nothing about the system.
    if args.server_opt_level != "3" || args.server_debug_assertions != "false" {
        return Err(format!(
            "refusing a non-release server build (opt-level {}, debug-assertions {})",
            args.server_opt_level, args.server_debug_assertions
        ));
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("xqbench: {e}");
            std::process::exit(2);
        }
    };
    let work =
        args.work.join(format!("{}-s{}-p{}", args.workload.name(), args.seed, std::process::id()));
    let result = std::fs::create_dir_all(&work)
        .map_err(|e| format!("creating {}: {e}", work.display()))
        .and_then(|_| run(&args, &work));
    let _ = std::fs::remove_dir_all(&work);
    match result {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("xqbench: {e}");
            std::process::exit(1);
        }
    }
}

/// The generated documents of one run, and the requests each writer
/// sends in the open-loop phases.
struct Inputs {
    docs: Vec<(&'static str, String)>,
    n_open: usize,
}

/// Phase lengths of one round, in seconds: open loop, capacity,
/// read-alone.
struct Phases {
    open: f64,
    capacity: f64,
    read: f64,
}

fn run(args: &Args, work: &Path) -> Result<String, String> {
    let w = args.workload;
    let spec = w.spec();
    let s = args.seconds / ROUNDS as f64;
    let phases = if spec.concurrent_reader {
        Phases { open: 0.7 * s, capacity: 0.3 * s, read: 0.0 }
    } else {
        Phases { open: 0.6 * s, capacity: 0.2 * s, read: 0.2 * s }
    };

    // ── Inputs, built before any clock starts; each writer builds its
    // requests between phases (`Writer::prepare`).
    let (bib, prices) = w.data(args.seed);
    let n_open = (spec.rate_per_writer * phases.open).round() as usize * ROUNDS;
    let inputs = Inputs { docs: vec![("bib.xml", bib), ("prices.xml", prices)], n_open };
    let mut loads = Vec::new();
    for (name, xml) in &inputs.docs {
        let path = work.join(name);
        std::fs::write(&path, xml).map_err(|e| format!("writing {}: {e}", path.display()))?;
        loads.push((name.to_string(), path));
    }
    let launch = Launch { exe: args.server.clone(), loads, log: work.join("server.log") };

    let mut m = Metrics::default();
    let mut tally = Tally::default();
    let mut bad = Vec::new();
    if let Err(e) = end_to_end(args, work, &launch, &inputs, &phases, &mut m, &mut tally, &mut bad)
    {
        if let Ok(log) = std::fs::read_to_string(&launch.log) {
            eprintln!("xqbench: server log:\n{log}");
        }
        return Err(e);
    }
    if args.trace {
        traced(args, work, &inputs, &mut m, &mut bad)?;
    }

    let names: &[&str] = if args.trace { &PER_LAYER } else { &END_TO_END };
    eprintln!("xqbench: {} seed {} ({} s measured)", w.name(), args.seed, args.seconds);
    for (name, v, unit) in &m.0 {
        eprintln!("  {name:<28} {v:>14.4} {unit}");
    }
    for e in &tally.errors {
        eprintln!("xqbench: failed request: {e}");
    }
    for b in &bad {
        eprintln!("xqbench: INCORRECT: {b}");
    }
    println!("{}", env_line(args, &m));
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        bad.is_empty(),
        tally.attempted.max(1),
        tally.failed,
        m.json(names)?
    ))
}

/// The environment record printed with every result: cores, `exec`
/// pool lanes, source revision, server build profile, and the sample
/// counts and percentiles behind the metrics.
fn env_line(args: &Args, m: &Metrics) -> String {
    let env = vpa_bench::env_header_json().replace('\n', " ");
    let spec = args.workload.spec();
    let count = |n: &str| m.get(n).unwrap_or(0.0);
    format!(
        "{{\"env\": {{{env}, \"commit\": \"{}\", \"server_profile\": {{\"opt_level\": \"{}\", \
         \"debug_assertions\": {}}}, \"workload\": \"{}\", \"seed\": {}, \"seconds\": {}}}, \
         \"samples\": {{\"setup_s\": {SETUPS}, \"commits\": {}, \"capacity_commits\": {}, \
         \"queries\": {}, \"restart_s\": {RESTARTS}}}, \"tails\": {{\"commit_tail_ms\": \"p{}\", \
         \"query_tail_ms\": \"p{}\"}}}}",
        args.commit.escape_default(),
        args.server_opt_level.escape_default(),
        args.server_debug_assertions.escape_default(),
        args.workload.name(),
        args.seed,
        args.seconds,
        count("samples.commits"),
        count("samples.capacity_commits"),
        count("samples.queries"),
        COMMIT_TAIL_PCT,
        spec.query_tail_pct,
    )
}

fn connect(addr: &str, name: &str) -> Result<Client, String> {
    Client::connect(addr, name).map_err(|e| format!("connecting to {addr}: {e}"))
}

/// Wall time of `f`, in seconds.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// One counter of the server's metrics dump.
fn counter(json: &str, name: &str) -> Result<f64, String> {
    let key = format!("\"{name}\": ");
    let at = json.find(&key).ok_or_else(|| format!("metrics dump lacks {name}"))? + key.len();
    let digits: String = json[at..].chars().take_while(char::is_ascii_digit).collect();
    digits.parse().map_err(|e| format!("metrics dump {name}: {e}"))
}

/// The client-observed run: set-up, timed phases, then the correctness
/// gate (fetch every view, graceful shutdown, restart with byte-identical
/// answers, in-process recovery of a copy passing `verify_all`).
#[allow(clippy::too_many_arguments)]
fn end_to_end(
    args: &Args,
    work: &Path,
    launch: &Launch,
    inputs: &Inputs,
    phases: &Phases,
    m: &mut Metrics,
    tally: &mut Tally,
    bad: &mut Vec<String>,
) -> Result<(), String> {
    let spec = args.workload.spec();
    let views = args.workload.views();
    let err = |what: &'static str| move |e: client::ClientError| format!("{what}: {e}");

    // ── Set-up: spawn → listening → views registered → first answer.
    let mut setups = Vec::new();
    let mut live = None;
    for k in 0..SETUPS {
        let dir = work.join(format!("catalog-{k}"));
        let t = Instant::now();
        let proc = ServerProc::spawn(launch, &dir)?;
        let mut c = connect(&proc.addr, "xqbench-0")?;
        for (name, q) in &views {
            c.register_view(name, q).map_err(err("registering a view"))?;
        }
        c.query_view_bytes(READ_VIEW).map_err(err("first query"))?;
        setups.push(t.elapsed().as_secs_f64());
        if k + 1 < SETUPS {
            drop((c, proc));
            let _ = std::fs::remove_dir_all(&dir);
        } else {
            live = Some((proc, c, dir));
        }
    }
    m.put("setup_s", median_f64(setups), "s");
    let (proc, c0, dir) = live.ok_or("no set-up ran")?;
    let mut clients = vec![c0];
    if spec.writers > 1 || spec.concurrent_reader {
        clients.push(connect(&proc.addr, "xqbench-1")?);
    }
    let (wc, rc) = clients.split_at_mut(spec.writers);
    let mut writers: Vec<Writer> = wc
        .iter_mut()
        .enumerate()
        .map(|(conn, client)| Writer::new(client, args.workload.requests(args.seed, conn)))
        .collect();
    drive::warm_up(&mut writers, WARMUP_PER_WRITER, tally);

    // ── Timed phases.
    let dump0 = writers[0].client.metrics_json().map_err(err("metrics dump"))?;
    for w in &mut writers {
        w.take_ops_sent();
    }
    let cap_ready = (MAX_COMMITS_PER_S_PER_WRITER * phases.capacity).ceil() as usize;
    let cpu0 = proc.cpu_ticks();
    let mut arrivals = Vec::new();
    let (mut reads, mut read_secs) = (Vec::new(), 0.0);
    let mut cap = drive::CapacityOut { commits: 0, secs: 0.0, reads: 0 };
    for _ in 0..ROUNDS {
        let reader = rc.first_mut();
        let open = drive::open_phase(
            &mut writers,
            spec.rate_per_writer,
            phases.open,
            reader.map(|c| (&mut *c, READ_VIEW)),
            tally,
        );
        arrivals.extend(open.arrivals);
        if spec.concurrent_reader {
            reads.extend(open.reads);
            read_secs += open.secs;
        }
        let reader = rc.first_mut().map(|c| (c, READ_VIEW));
        let c = drive::capacity_phase(&mut writers, phases.capacity, cap_ready, reader, tally);
        cap.commits += c.commits;
        cap.secs += c.secs;
        cap.reads += c.reads;
        if !spec.concurrent_reader {
            let (r, secs) = drive::read_phase(writers[0].client, READ_VIEW, phases.read, tally);
            reads.extend(r);
            read_secs += secs;
        }
    }
    if tally.exhausted {
        return Err(format!(
            "invalid run: a writer used up the requests built for a capacity phase, which \
             assume at most {MAX_COMMITS_PER_S_PER_WRITER} closed-loop commits/s per writer \
             (MAX_COMMITS_PER_S_PER_WRITER)"
        ));
    }
    let cpu1 = proc.cpu_ticks();
    let dump1 = writers[0].client.metrics_json().map_err(err("metrics dump"))?;

    // ── End-to-end metrics.
    let mut lat: Vec<u64> = arrivals.iter().map(|a| a.lat_ns).collect();
    let mut late: Vec<u64> = arrivals.iter().map(|a| a.late_ns).collect();
    lat.sort_unstable();
    late.sort_unstable();
    let few =
        |what: &str, n: usize| format!("{what}: {n} samples leave fewer than 10 beyond the tail");
    m.put("commit_p50_ms", ms(median(&lat)), "ms");
    let t = tail(&lat, COMMIT_TAIL_PCT).ok_or_else(|| few("commits", lat.len()))?;
    m.put("commit_tail_ms", ms(t), "ms");
    m.put("commits_per_s", cap.commits as f64 / cap.secs, "1/s");
    let mut q = reads;
    q.sort_unstable();
    m.put("query_p50_ms", ms(median(&q)), "ms");
    let t = tail(&q, spec.query_tail_pct).ok_or_else(|| few("queries", q.len()))?;
    m.put("query_tail_ms", ms(t), "ms");
    m.put("queries_per_s", q.len() as f64 / read_secs, "1/s");

    for (what, v) in
        [("commit latency", &lat), ("query latency", &q), ("generator lateness", &late)]
    {
        let at =
            |p: f64| v.get(((p * v.len() as f64).ceil() as usize).clamp(1, v.len().max(1)) - 1);
        let row: Vec<String> = [0.5, 0.75, 0.9, 0.95, 0.99, 1.0]
            .iter()
            .map(|&p| format!("p{}={:.3}", p * 100.0, at(p).map_or(0.0, |&x| ms(x))))
            .collect();
        eprintln!("xqbench: {what} (ms, n={}): {}", v.len(), row.join(" "));
    }

    // Generator validity: a late generator or a growing backlog makes
    // the open-loop figures meaningless, so the run is refused.
    let late_tail = ms(tail(&late, COMMIT_TAIL_PCT).ok_or_else(|| few("arrivals", late.len()))?);
    // Backlog growth within an open phase: arrivals due in its last third
    // against those due in its first third, pooled over the rounds.
    let third_ns = phases.open * 1e9 / 3.0;
    let p50_where = |keep: &dyn Fn(f64) -> bool| {
        let mut v: Vec<u64> =
            arrivals.iter().filter(|a| keep(a.due_ns as f64)).map(|a| a.lat_ns).collect();
        v.sort_unstable();
        median(&v) as f64
    };
    let growth = p50_where(&|d| d >= 2.0 * third_ns) / p50_where(&|d| d < third_ns);
    m.put("gen.late_tail_ms", late_tail, "ms");
    m.put("gen.backlog_growth", growth, "ratio");
    let late_limit = GEN_LATE_SHARE * 1e3 / spec.rate_per_writer;
    if late_tail > late_limit || growth > BACKLOG_LIMIT {
        return Err(format!(
            "invalid run: generator late tail {late_tail:.1} ms (limit {late_limit:.1}), \
             backlog growth {growth:.2} (limit {BACKLOG_LIMIT})"
        ));
    }

    // Layer counts from the server's own metrics, over the timed phases.
    let commits = (arrivals.len() as u64 + cap.commits) as f64;
    let sent_ops: usize = writers.iter_mut().map(Writer::take_ops_sent).sum();
    let delta = |n: &str| -> Result<f64, String> { Ok(counter(&dump1, n)? - counter(&dump0, n)?) };
    m.put("hub.ops_per_round", sent_ops as f64 / delta("hub/rounds")?.max(1.0), "count");
    m.put("wal.fsyncs_per_commit", delta("wal/fsyncs")? / commits, "count");
    m.put("epoch.publishes_per_commit", delta("epoch/publishes")? / commits, "count");
    let requests = commits + (q.len() as u64 + cap.reads) as f64;
    // /proc/<pid>/stat counts in clock ticks of 10 ms.
    let cpu_ms = cpu0.zip(cpu1).map_or(0.0, |(a, b)| (b - a) as f64 * 10.0);
    m.put("server.cpu_ms_per_req", cpu_ms / requests, "ms");
    m.put("samples.commits", lat.len() as f64, "count");
    m.put("samples.capacity_commits", cap.commits as f64, "count");
    m.put("samples.queries", q.len() as f64, "count");
    let mut rtt: Vec<u64> = Vec::new();
    for _ in 0..31 {
        let (r, secs) = timed(|| writers[0].client.stats());
        r.map_err(err("stats"))?;
        rtt.push((secs * 1e9) as u64);
    }
    rtt.sort_unstable();
    m.put("front.stats_rtt_us", median(&rtt) as f64 / 1e3, "us");

    // ── Correctness gate.
    let mut before = BTreeMap::new();
    for (name, _) in &views {
        let bytes = writers[0].client.query_view_bytes(name).map_err(err("final query"))?;
        before.insert(name.clone(), bytes);
    }
    let peak = proc.status_kb("VmHWM").ok_or("no VmHWM for the server")?;
    m.put("server.peak_rss_mb", peak as f64 / 1024.0, "MB");
    writers[0].client.shutdown_server().map_err(err("shutdown"))?;
    drop(writers);
    drop(clients);
    proc.wait_exit()?;
    let source_bytes: usize = inputs.docs.iter().map(|(_, x)| x.len()).sum();
    m.put("disk_amp", server::dir_bytes(&dir) as f64 / source_bytes as f64, "ratio");

    let (mut restarts, mut rss_kb) = (Vec::new(), Vec::new());
    for _ in 0..RESTARTS {
        let t = Instant::now();
        let proc = ServerProc::spawn(launch, &dir)?;
        let mut c = connect(&proc.addr, "xqbench-restart")?;
        let first = c.query_view_bytes(READ_VIEW).map_err(err("query after restart"))?;
        restarts.push(t.elapsed().as_secs_f64());
        rss_kb.push(proc.status_kb("VmRSS").ok_or("no VmRSS for the server")?);
        if before.get(READ_VIEW) != Some(&first) {
            bad.push(format!("{} differs after restart", READ_VIEW));
        }
        for (name, bytes) in &before {
            if &c.query_view_bytes(name).map_err(err("query after restart"))? != bytes {
                bad.push(format!("view {name} differs after restart"));
            }
        }
        c.shutdown_server().map_err(err("shutdown after restart"))?;
        drop(c);
        proc.wait_exit()?;
    }
    m.put("restart_s", median_f64(restarts), "s");
    rss_kb.sort_unstable();
    m.put("server_rss_mb", median(&rss_kb) as f64 / 1024.0, "MB");

    let copy = work.join("catalog-copy");
    server::copy_dir(&dir, &copy).map_err(|e| format!("copying the catalog: {e}"))?;
    let (dc, secs) = timed(|| viewsrv::DurableCatalog::open(&copy));
    let mut dc = dc.map_err(|e| format!("opening the catalog copy: {e}"))?;
    m.put("recovery.open_ms", secs * 1e3, "ms");
    if let Err(e) = dc.verify_all() {
        bad.push(format!("recovered catalog fails verify_all: {e}"));
    }
    for (name, bytes) in &before {
        if dc.extent_bytes(name).ok().as_ref() != Some(bytes) {
            bad.push(format!("view {name} differs in the recovered catalog"));
        }
    }
    let (r, secs) = timed(|| dc.snapshot());
    r.map_err(|e| format!("snapshot of the recovered catalog: {e}"))?;
    m.put("ckpt.snapshot_ms", secs * 1e3, "ms");
    Ok(())
}

/// The traced run: replay the writers' warm-up and open-phase streams
/// in-process and derive the per-layer metrics.
fn traced(
    args: &Args,
    work: &Path,
    inputs: &Inputs,
    m: &mut Metrics,
    bad: &mut Vec<String>,
) -> Result<(), String> {
    let w = args.workload;
    let spec = w.spec();
    let played = WARMUP_PER_WRITER + inputs.n_open;
    let streams: Vec<_> =
        (0..spec.writers).map(|c| w.stream(args.seed, c, played + PROBE_PER_WRITER)).collect();
    let interleave = |from: usize, to: usize| -> Vec<&xquery_lang::UpdateBatch> {
        (from..to).flat_map(|i| streams.iter().map(move |s| &s[i])).collect()
    };
    let requests = interleave(0, played);
    let probe: Vec<_> =
        interleave(played, played + PROBE_PER_WRITER).into_iter().cloned().collect();
    // A reader beside the writers reads after every write; otherwise the
    // last writes are followed by reads only to time the read path.
    let n = requests.len();
    let reads_after = move |i: usize| match spec.concurrent_reader {
        true => 4,
        false if i + 16 >= n => 2,
        false => 0,
    };
    let docs: Vec<(&str, &str)> = inputs.docs.iter().map(|(n, x)| (*n, x.as_str())).collect();
    let r = trace::replay(w, &docs, &requests, &reads_after, READ_VIEW, work)?;
    m.put("trace.overhead_pct", r.overhead * 100.0, "%");

    let window = spec.writers * spec.max_outstanding * r.unit_nodes;
    if r.nodes_end < r.nodes_start || r.nodes_end > r.nodes_start + window {
        bad.push(format!(
            "store not stationary: {} nodes at the start, {} at the end (window {window})",
            r.nodes_start, r.nodes_end
        ));
    }
    let (ok, verify_s) = timed(|| r.catalog.verify_all());
    if let Err(e) = ok {
        bad.push(format!("replayed catalog fails verify_all: {e}"));
    }
    let l = &r.layers;
    let (unpinned, pinned) = trace::store_writes(r.catalog.store(), &probe)?;
    m.put("xmlstore.children_root_us", trace::children_root_us(r.catalog.store(), 21)?, "us");
    m.put("xmlstore.write_pinned_us", pinned, "us");
    m.put("xmlstore.write_unpinned_us", unpinned, "us");
    m.put("xmlstore.nodes_start", r.nodes_start as f64, "count");
    m.put("xmlstore.nodes_end", r.nodes_end as f64, "count");
    m.put("core.resolve_us", l.wall_us("core.resolve"), "us");
    m.put("core.validate_us", l.wall_us("core.validate"), "us");
    m.put("core.propagate_us", l.wall_us("core.propagate"), "us");
    m.put("core.apply_us", l.wall_us("core.apply"), "us");
    m.put("catalog.apply_us", l.wall_us("catalog.apply"), "us");
    m.put("catalog.apply_self_us", l.self_us("catalog.apply"), "us");
    let routed = r.stats.views_routed as f64;
    m.put("core.routed_frac", routed / (routed + r.stats.views_skipped as f64).max(1.0), "ratio");
    m.put("core.maint_vs_recompute", verify_s * 1e6 / l.wall_us("catalog.apply"), "ratio");
    m.put("catalog.register_ms", mean(&r.register_ms), "ms");
    m.put("wal.append_us", l.wall_us("wal.append"), "us");
    m.put("wal.sync_us", l.wall_us("wal.sync"), "us");
    m.put("wal.bytes_per_commit", r.wal_bytes_per_commit, "B");
    m.put("epoch.publish_us", l.wall_us("epoch.publish"), "us");
    m.put("epoch.pin_after_write_us", l.wall_us("epoch.pin_after_write"), "us");
    m.put("epoch.pin_idle_us", l.wall_us("epoch.pin_idle"), "us");
    m.put("epoch.extent_bytes_us", l.wall_us("epoch.extent_bytes"), "us");
    m.put("proto.submit_codec_us", l.wall_us("proto.submit_codec"), "us");
    m.put("proto.extent_codec_us", l.wall_us("proto.extent_codec"), "us");
    m.put("proto.extent_kb", r.extent_bytes as f64 / 1024.0, "KB");

    // Conservation: a median replayed request's write-path self times plus
    // what the replay cannot see (sockets, hub queueing, scheduling) make
    // up the client-observed commit median.
    let p50 = m.get("commit_p50_ms").ok_or("commit_p50_ms missing")?;
    let layers = trace::median_write_path(&r.spans);
    let sum: f64 = layers.iter().map(|(_, v)| v).sum();
    m.put("front.residual_ms", p50 - sum, "ms");
    eprintln!("xqbench: conservation per commit ({}, median request, self ms):", w.name());
    for (name, v) in &layers {
        eprintln!("  {name:<24} {v:>10.4}");
    }
    eprintln!("  {:<24} {:>10.4}", "front.residual_ms", p50 - sum);
    eprintln!("  {:<24} {:>10.4}  (client-observed, = the lines above)", "commit_p50_ms", p50);

    let spans_dir = args.work.join("spans");
    std::fs::create_dir_all(&spans_dir)
        .map_err(|e| format!("creating {}: {e}", spans_dir.display()))?;
    let path = spans_dir.join(format!("{}-s{}.tsv", w.name(), args.seed));
    trace::write_spans(&path, &r.spans).map_err(|e| format!("writing {}: {e}", path.display()))?;
    eprintln!("xqbench: {} spans written to {}", r.spans.len(), path.display());
    Ok(())
}
