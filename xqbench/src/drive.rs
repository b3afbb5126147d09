//! The load generator: open-loop and closed-loop phases over
//! `client::Client`, one thread per connection.

use crate::workload::Requests;
use client::Client;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};
use xquery_lang::UpdateBatch;

/// Requests attempted and failed (errors and refusals, `QueueFull`
/// included), with the first few failure messages.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// A writer used up the requests built for its phase. That is no
    /// failure of the server: the run is refused instead.
    pub exhausted: bool,
}

impl Tally {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(what);
        }
    }

    pub fn absorb(&mut self, o: Tally) {
        self.attempted += o.attempted;
        for e in o.errors {
            if self.errors.len() < 5 {
                self.errors.push(e);
            }
        }
        self.failed += o.failed;
        self.exhausted |= o.exhausted;
    }
}

/// A writer connection and the requests built for its next phase.
pub struct Writer<'a> {
    pub client: &'a mut Client,
    requests: Requests,
    ready: VecDeque<UpdateBatch>,
    /// Ops of the requests sent since the last `take_ops_sent`.
    ops_sent: usize,
}

impl<'a> Writer<'a> {
    pub fn new(client: &'a mut Client, requests: Requests) -> Self {
        Writer { client, requests, ready: VecDeque::new(), ops_sent: 0 }
    }

    /// Build requests until `n` are ready. Called between phases, so no
    /// request is built while a clock runs.
    pub fn prepare(&mut self, n: usize) {
        let short = n.saturating_sub(self.ready.len());
        self.ready.extend(self.requests.by_ref().take(short));
    }

    pub fn take_ops_sent(&mut self) -> usize {
        std::mem::take(&mut self.ops_sent)
    }
}

/// One open-loop commit: when it was due (from the phase start), how late
/// the generator sent it, and its latency from the due time. Lateness
/// counts from when the request was both due and its connection free, so
/// it measures the generator alone: a slow server delays the next send
/// but shows in the latency and the backlog, not here.
#[derive(Clone, Copy)]
pub struct Arrival {
    pub due_ns: u64,
    pub late_ns: u64,
    pub lat_ns: u64,
}

/// One request of a write connection: submit the batch, commit it.
fn write_once(w: &mut Writer<'_>, tally: &mut Tally) -> bool {
    let Some(batch) = w.ready.pop_front() else {
        tally.exhausted = true;
        return false;
    };
    w.ops_sent += batch.len();
    tally.attempted += 1;
    let r = w.client.submit(&batch).and_then(|_| w.client.commit());
    match r {
        // Every generated op targets exactly one node.
        Ok(r) if r.batches_submitted == 1 && r.ops == batch.len() as u64 && r.resolved == r.ops => {
            true
        }
        Ok(r) => {
            tally.fail(format!("commit receipt {r:?} does not match the batch sent"));
            true
        }
        Err(e) => {
            tally.fail(format!("write: {e}"));
            false
        }
    }
}

/// Closed-loop `QueryView` until `stop`; returns each latency in ns.
fn read_loop(c: &mut Client, view: &str, stop: &AtomicBool, tally: &mut Tally) -> Vec<u64> {
    let mut lat = Vec::new();
    while !stop.load(Ordering::Relaxed) {
        tally.attempted += 1;
        let t = Instant::now();
        match c.query_view_bytes(view) {
            Ok(bytes) if !bytes.is_empty() => lat.push(t.elapsed().as_nanos() as u64),
            Ok(_) => tally.fail(format!("empty extent for {view}")),
            Err(e) => {
                tally.fail(format!("query {view}: {e}"));
                break;
            }
        }
    }
    lat
}

/// Closed-loop writes, not measured: lets lazy set-up finish before any
/// clock starts.
pub fn warm_up(writers: &mut [Writer<'_>], per_writer: usize, tally: &mut Tally) {
    for w in writers.iter_mut() {
        w.prepare(per_writer);
        for _ in 0..per_writer {
            if !write_once(w, tally) {
                return;
            }
        }
    }
}

pub struct OpenOut {
    pub arrivals: Vec<Arrival>,
    pub reads: Vec<u64>,
    pub secs: f64,
}

/// Open loop: each writer sends `rate × secs` requests on a fixed
/// schedule, staggered across writers. An optional reader runs a closed
/// loop beside them until the last writer finishes.
pub fn open_phase(
    writers: &mut [Writer<'_>],
    rate: f64,
    secs: f64,
    reader: Option<(&mut Client, &str)>,
    tally: &mut Tally,
) -> OpenOut {
    let n = (rate * secs).round() as usize;
    for w in writers.iter_mut() {
        w.prepare(n);
    }
    let stagger = 1.0 / (rate * writers.len() as f64);
    let start = Instant::now() + Duration::from_millis(20);
    let stop = AtomicBool::new(false);
    let mut out = OpenOut { arrivals: Vec::new(), reads: Vec::new(), secs: 0.0 };
    std::thread::scope(|s| {
        let stop = &stop;
        let reader = reader.map(|(c, view)| {
            s.spawn(move || {
                let mut t = Tally::default();
                (read_loop(c, view, stop, &mut t), t)
            })
        });
        let joins: Vec<_> = writers
            .iter_mut()
            .enumerate()
            .map(|(k, w)| {
                s.spawn(move || {
                    let mut t = Tally::default();
                    let mut arrivals = Vec::with_capacity(n);
                    let mut free = Duration::ZERO;
                    for i in 0..n {
                        let due = Duration::from_secs_f64(k as f64 * stagger + i as f64 / rate);
                        let now = since(start);
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        let sent = since(start);
                        if !write_once(w, &mut t) {
                            break;
                        }
                        let done = since(start);
                        arrivals.push(Arrival {
                            due_ns: due.as_nanos() as u64,
                            late_ns: sent.saturating_sub(due.max(free)).as_nanos() as u64,
                            lat_ns: done.saturating_sub(due).as_nanos() as u64,
                        });
                        free = done;
                    }
                    (arrivals, t)
                })
            })
            .collect();
        for j in joins {
            let (a, t) = j.join().expect("writer thread panicked");
            out.arrivals.extend(a);
            tally.absorb(t);
        }
        stop.store(true, Ordering::Relaxed);
        out.secs = since(start).as_secs_f64();
        if let Some(r) = reader {
            let (reads, t) = r.join().expect("reader thread panicked");
            out.reads = reads;
            tally.absorb(t);
        }
    });
    out.arrivals.sort_by_key(|a| a.due_ns);
    out
}

pub struct CapacityOut {
    pub commits: u64,
    pub secs: f64,
    /// Queries the optional reader completed meanwhile.
    pub reads: u64,
}

/// Closed loop: every writer commits back to back for `secs`, from
/// `ready` requests built beforehand; an optional reader runs beside them.
pub fn capacity_phase(
    writers: &mut [Writer<'_>],
    secs: f64,
    ready: usize,
    reader: Option<(&mut Client, &str)>,
    tally: &mut Tally,
) -> CapacityOut {
    for w in writers.iter_mut() {
        w.prepare(ready);
    }
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(secs);
    let stop = AtomicBool::new(false);
    let mut out = CapacityOut { commits: 0, secs: 0.0, reads: 0 };
    std::thread::scope(|s| {
        let stop = &stop;
        let reader = reader.map(|(c, view)| {
            s.spawn(move || {
                let mut t = Tally::default();
                let n = read_loop(c, view, stop, &mut t).len() as u64;
                (n, t)
            })
        });
        let joins: Vec<_> = writers
            .iter_mut()
            .map(|w| {
                s.spawn(move || {
                    let mut t = Tally::default();
                    let mut done = 0u64;
                    while Instant::now() < deadline && write_once(w, &mut t) {
                        done += 1;
                    }
                    (done, t)
                })
            })
            .collect();
        for j in joins {
            let (done, t) = j.join().expect("writer thread panicked");
            out.commits += done;
            tally.absorb(t);
        }
        out.secs = since(start).as_secs_f64();
        stop.store(true, Ordering::Relaxed);
        if let Some(r) = reader {
            let (n, t) = r.join().expect("reader thread panicked");
            out.reads = n;
            tally.absorb(t);
        }
    });
    out
}

/// A closed-loop reader alone for `secs`; returns latencies (ns) and the
/// phase length in seconds.
pub fn read_phase(c: &mut Client, view: &str, secs: f64, tally: &mut Tally) -> (Vec<u64>, f64) {
    let stop = AtomicBool::new(false);
    let t0 = Instant::now();
    let lat = std::thread::scope(|s| {
        let stop = &stop;
        let h = s.spawn(move || {
            let mut t = Tally::default();
            (read_loop(c, view, stop, &mut t), t)
        });
        std::thread::sleep(Duration::from_secs_f64(secs));
        stop.store(true, Ordering::Relaxed);
        let (lat, t) = h.join().expect("reader thread panicked");
        tally.absorb(t);
        lat
    });
    (lat, t0.elapsed().as_secs_f64())
}

/// Time since `t`, or zero while `t` is still in the future.
fn since(t: Instant) -> Duration {
    Instant::now().saturating_duration_since(t)
}
