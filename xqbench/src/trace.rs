//! The traced run: replay the seeded request stream in-process, in the
//! server's order of layers, timing each call into a layer's public
//! functions from here. Spans stay in memory and are written out once
//! the run ends. Tracing is on for every other round of requests, so the
//! untraced rounds of the same replay give the tracing overhead.

use crate::stats::{mean, median};
use crate::workload::Workload;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;
use viewsrv::{DurableMarks, EpochPublisher, ServiceStats, ViewCatalog, Wal};
use xmlstore::Store;
use xquery_lang::UpdateBatch;

/// One timed call: `parent` indexes the enclosing span; spans of one
/// request share `req`.
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub req: usize,
}

struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span (a plain call when tracing is off).
    fn span<T>(&mut self, name: &'static str, req: usize, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            req,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now();
        out
    }

    /// Record phases a layer reports as durations (not timestamps) as
    /// children of the open span, laid end to end from its start.
    fn phases(&mut self, req: usize, phases: &[(&'static str, std::time::Duration)]) {
        let Some(&parent) = self.open.last().filter(|_| self.on) else { return };
        let mut at = self.spans[parent].start_ns;
        for &(name, d) in phases {
            let end_ns = at + d.as_nanos() as u64;
            self.spans.push(Span { name, start_ns: at, end_ns, parent: Some(parent), req });
            at = end_ns;
        }
    }
}

/// Per span name: each span's duration and self time (duration minus
/// the time its children cover), in ns.
pub struct Layers(BTreeMap<&'static str, (Vec<f64>, Vec<f64>)>);

/// Each span's self time: its duration minus what its children cover.
fn self_ns(spans: &[Span]) -> Vec<u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    spans.iter().zip(child_ns).map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(c)).collect()
}

impl Layers {
    fn of(spans: &[Span]) -> Layers {
        let mut m: BTreeMap<&'static str, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
        for (s, own) in spans.iter().zip(self_ns(spans)) {
            let e = m.entry(s.name).or_default();
            e.0.push((s.end_ns - s.start_ns) as f64);
            e.1.push(own as f64);
        }
        Layers(m)
    }

    /// Mean duration of the named spans, µs.
    pub fn wall_us(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |(d, _)| mean(d) / 1e3)
    }

    /// Mean self time of the named spans, µs.
    pub fn self_us(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |(_, s)| mean(s) / 1e3)
    }
}

/// The layers a commit passes through in the server, in order; their
/// self times partition the replayed write request.
pub const WRITE_PATH: [&str; 10] = [
    "request",
    "proto.submit_codec",
    "core.resolve",
    "wal.append",
    "catalog.apply",
    "core.validate",
    "core.propagate",
    "core.apply",
    "wal.sync",
    "epoch.publish",
];

/// The write path of a median request: each `WRITE_PATH` layer's self
/// time (ms), averaged over the traced requests whose total lies in the
/// middle fifth. The layers sum to about the replay's median request,
/// the figure the client-observed median is compared with.
pub fn median_write_path(spans: &[Span]) -> Vec<(&'static str, f64)> {
    let mut totals: Vec<(u64, usize)> = spans
        .iter()
        .filter(|s| s.name == "request")
        .map(|s| (s.end_ns - s.start_ns, s.req))
        .collect();
    totals.sort_unstable();
    let n = totals.len();
    let band: Vec<usize> = totals[n * 2 / 5..(n * 3 / 5).max(n * 2 / 5 + 1).min(n)]
        .iter()
        .map(|&(_, req)| req)
        .collect();
    let own = self_ns(spans);
    WRITE_PATH
        .iter()
        .map(|&name| {
            let sum: u64 = spans
                .iter()
                .zip(&own)
                .filter(|(s, _)| s.name == name && band.contains(&s.req))
                .map(|(_, &o)| o)
                .sum();
            (name, sum as f64 / band.len().max(1) as f64 / 1e6)
        })
        .collect()
}

pub struct Replay {
    pub spans: Vec<Span>,
    pub layers: Layers,
    /// Mean wall time of a traced request over an untraced one, minus 1.
    pub overhead: f64,
    pub catalog: ViewCatalog,
    pub nodes_start: usize,
    pub nodes_end: usize,
    /// Nodes one writer's first request added: the size of an inserted unit.
    pub unit_nodes: usize,
    pub register_ms: Vec<f64>,
    pub wal_bytes_per_commit: f64,
    pub stats: ServiceStats,
    pub extent_bytes: usize,
}

/// Replay `requests` (the writers' streams interleaved) against a fresh
/// in-process catalog over the same documents and views: per write, the
/// server's layers in its order; after write `i`, `reads_after(i)`
/// reads of `view`. A reader that does not read keeps the epoch it first
/// saw, as an idle connection in the server does. Spans are recorded for
/// even rounds (one request per writer) only.
pub fn replay(
    w: Workload,
    docs: &[(&str, &str)],
    requests: &[&UpdateBatch],
    reads_after: &dyn Fn(usize) -> usize,
    view: &str,
    scratch: &Path,
) -> Result<Replay, String> {
    let mut store = Store::new();
    for (name, xml) in docs {
        store.load_doc(name, xml).map_err(|e| format!("loading {name}: {e}"))?;
    }
    let mut cat = ViewCatalog::new(store);
    let mut register_ms = Vec::new();
    for (name, q) in w.views() {
        let t = Instant::now();
        cat.register(&name, &q).map_err(|e| format!("registering {name}: {e}"))?;
        register_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let wal_path = scratch.join("replay.wal");
    let mut wal = Wal::create(&wal_path).map_err(|e| format!("creating the replay WAL: {e}"))?;
    let publisher = EpochPublisher::start(cat.metrics_registry(), &cat, DurableMarks::default());
    let mut reader = publisher.subscribe();
    let nodes_start = cat.store().total_nodes();
    let mut unit_nodes = 0;
    let mut stats = ServiceStats::default();
    let mut extent_bytes = 0;
    let mut tr = Tracer { on: true, t0: Instant::now(), spans: Vec::new(), open: Vec::new() };
    let writers = w.spec().writers;
    let (mut traced_ns, mut plain_ns) = (Vec::new(), Vec::new());

    for (i, batch) in requests.iter().enumerate() {
        tr.on = (i / writers).is_multiple_of(2);
        let t = Instant::now();
        let frame = proto::Request::Submit((*batch).clone());
        let s = tr.span("request", i, |tr| -> Result<ServiceStats, String> {
            let batch = tr.span("proto.submit_codec", i, |_| decode_submit(&frame))?;
            let resolved = tr.span("core.resolve", i, |_| {
                vpa_core::resolve_batch(cat.store(), &batch).map_err(|e| e.to_string())
            })?;
            tr.span("wal.append", i, |_| wal.append(&batch).map_err(|e| e.to_string()))?;
            let s = tr.span("catalog.apply", i, |tr| {
                let s = cat.apply_resolved(resolved).map_err(|e| e.to_string())?;
                tr.phases(
                    i,
                    &[
                        ("core.validate", s.validate),
                        ("core.propagate", s.propagate),
                        ("core.apply", s.apply),
                    ],
                );
                Ok::<_, String>(s)
            })?;
            tr.span("wal.sync", i, |_| wal.sync().map_err(|e| e.to_string()))?;
            tr.span("epoch.publish", i, |_| publisher.publish(&cat, DurableMarks::default()));
            Ok(s)
        })?;
        stats.merge(&s);
        if i + 1 == writers {
            unit_nodes = (cat.store().total_nodes() - nodes_start) / writers;
        }
        for r in 0..reads_after(i) {
            let pin = if r == 0 { "epoch.pin_after_write" } else { "epoch.pin_idle" };
            extent_bytes = tr.span("read", i, |tr| -> Result<usize, String> {
                let epoch = tr.span(pin, i, |_| reader.pin());
                let bytes = tr.span("epoch.extent_bytes", i, |_| {
                    epoch.extent_bytes(view).map_err(|e| e.to_string())
                })?;
                tr.span("proto.extent_codec", i, |_| extent_codec(view, bytes))
            })?;
        }
        let ns = t.elapsed().as_nanos() as f64;
        if tr.on {
            traced_ns.push(ns)
        } else {
            plain_ns.push(ns)
        }
    }

    let wal_bytes_per_commit = wal.bytes() as f64 / requests.len().max(1) as f64;
    drop(wal);
    let _ = std::fs::remove_file(&wal_path);
    Ok(Replay {
        layers: Layers::of(&tr.spans),
        spans: tr.spans,
        overhead: mean(&traced_ns) / mean(&plain_ns) - 1.0,
        nodes_start,
        nodes_end: cat.store().total_nodes(),
        unit_nodes,
        catalog: cat,
        register_ms,
        wal_bytes_per_commit,
        stats,
        extent_bytes,
    })
}

/// The server's decode of a `Submit` frame, after the client's encode.
fn decode_submit(frame: &proto::Request) -> Result<UpdateBatch, String> {
    let mut buf = Vec::new();
    proto::send(&mut buf, frame).map_err(|e| e.to_string())?;
    match proto::recv(&mut buf.as_slice(), proto::DEFAULT_MAX_FRAME) {
        Ok(proto::Request::Submit(b)) => Ok(b),
        Ok(other) => Err(format!("Submit decoded as {other:?}")),
        Err(e) => Err(format!("Submit frame: {e}")),
    }
}

/// The server's encode of an `Extent` response and the client's decode;
/// returns the extent's size in bytes.
fn extent_codec(view: &str, bytes: Vec<u8>) -> Result<usize, String> {
    let len = bytes.len();
    let resp = proto::Response::Extent { name: view.to_string(), bytes, epoch: 0, watermark: 0 };
    let mut buf = Vec::new();
    proto::send(&mut buf, &resp).map_err(|e| e.to_string())?;
    match proto::recv(&mut buf.as_slice(), proto::DEFAULT_MAX_FRAME) {
        Ok(proto::Response::Extent { bytes, .. }) if bytes.len() == len => Ok(len),
        Ok(other) => Err(format!("Extent decoded as {other:?}")),
        Err(e) => Err(format!("Extent frame: {e}")),
    }
}

/// `Store::children` of the bib.xml root, median over `n` calls, µs.
pub fn children_root_us(store: &Store, n: usize) -> Result<f64, String> {
    let root = store.doc_root("bib.xml").ok_or("bib.xml has no root")?;
    let mut t: Vec<u64> = (0..n)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(store.children(&root));
            t.elapsed().as_nanos() as u64
        })
        .collect();
    t.sort_unstable();
    Ok(median(&t) as f64 / 1e3)
}

/// `vpa_core::apply_to_store` on a copy of `store`, alternating between
/// no other holder of its node maps and a held `Store::frozen()` copy
/// (as a published epoch holds them). Returns mean (unpinned, pinned)
/// µs per request. The first request only unshares the copy from
/// `store` and is not timed.
pub fn store_writes(store: &Store, requests: &[UpdateBatch]) -> Result<(f64, f64), String> {
    let mut s = store.frozen();
    let (mut unpinned, mut pinned) = (Vec::new(), Vec::new());
    for (k, batch) in requests.iter().enumerate() {
        let resolved = vpa_core::resolve_batch(&s, batch).map_err(|e| e.to_string())?;
        let hold = (k % 2 == 0).then(|| s.frozen());
        let t = Instant::now();
        for u in &resolved {
            vpa_core::apply_to_store(&mut s, u).map_err(|e| e.to_string())?;
        }
        let us = t.elapsed().as_secs_f64() * 1e6;
        drop(hold);
        match k {
            0 => {}
            _ if k % 2 == 0 => pinned.push(us),
            _ => unpinned.push(us),
        }
    }
    Ok((mean(&unpinned), mean(&pinned)))
}

/// Write the spans as tab-separated rows with a header line.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(f, "id\tname\tstart_ns\tend_ns\tparent\treq")?;
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
        writeln!(f, "{id}\t{}\t{}\t{}\t{parent}\t{}", s.name, s.start_ns, s.end_ns, s.req)?;
    }
    f.flush()
}
