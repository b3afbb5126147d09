//! The three workloads: their data, views, load shape and seeded
//! request streams. Everything here is built before any clock starts;
//! the server only ever receives the generated XML and typed batches.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xquery_lang::{CmpOp, InsertPosition, QueryParseError, UpdateBatch, UpdateOp};

/// The year every churn insert carries: `hot` selects it, `cold` does not.
/// It lies inside the generated data's year domain (1900..1910), so `hot`
/// holds a tenth of the document and reading it moves real bytes.
pub const HOT_YEAR: usize = 1902;
const COLD_YEAR: usize = 1901;

/// The view every reader queries, in every workload.
pub const READ_VIEW: &str = "hot";

/// Percentile reported as `commit_tail_ms` (and as `gen.late_tail_ms`) in
/// every workload; a run checks that at least ten samples lie beyond it.
pub const COMMIT_TAIL_PCT: f64 = 90.0;

/// A churn connection deletes the book it inserted this many requests
/// earlier, so the document size stays stationary.
const CHURN_LAG: usize = 4;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    BigdocChurn,
    ViewsMix,
    ReadUnderWrite,
}

/// The load shape of one workload.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    /// Books in the generated bib.xml.
    pub books: usize,
    /// Writer connections (open loop, then closed loop for capacity).
    pub writers: usize,
    /// Open-loop arrivals per second per writer connection.
    pub rate_per_writer: f64,
    /// True: one reader runs beside the writers on its own connection.
    /// False: connection 0 reads alone in a read phase after the writes.
    pub concurrent_reader: bool,
    /// Inserted units (a book, or a book and its price entry) a writer
    /// can have outstanding at once: the stationarity window.
    pub max_outstanding: usize,
    /// Percentile reported as `query_tail_ms`, with the rule of
    /// [`COMMIT_TAIL_PCT`].
    pub query_tail_pct: f64,
}

impl Workload {
    pub const ALL: [Workload; 3] =
        [Workload::BigdocChurn, Workload::ViewsMix, Workload::ReadUnderWrite];

    pub fn name(self) -> &'static str {
        match self {
            Workload::BigdocChurn => "bigdoc_churn",
            Workload::ViewsMix => "views_mix",
            Workload::ReadUnderWrite => "read_under_write",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn spec(self) -> Spec {
        match self {
            Workload::BigdocChurn => Spec {
                books: 3200,
                writers: 2,
                rate_per_writer: 5.0,
                concurrent_reader: false,
                max_outstanding: CHURN_LAG,
                query_tail_pct: 95.0,
            },
            Workload::ViewsMix => Spec {
                books: 400,
                writers: 2,
                rate_per_writer: 3.0,
                concurrent_reader: false,
                max_outstanding: 2,
                query_tail_pct: 95.0,
            },
            Workload::ReadUnderWrite => Spec {
                books: 3200,
                writers: 1,
                rate_per_writer: 5.0,
                concurrent_reader: true,
                max_outstanding: CHURN_LAG,
                query_tail_pct: 99.5,
            },
        }
    }

    /// The generated `(bib.xml, prices.xml)` pair: `vpa_bench::bib_config`
    /// at this workload's size, seeded by the run's seed.
    pub fn data(self, seed: u64) -> (String, String) {
        let mut cfg = vpa_bench::bib_config(self.spec().books);
        cfg.seed = seed;
        (datagen::bib_xml(&cfg), datagen::prices_xml(&cfg))
    }

    /// The registered views, in registration order.
    pub fn views(self) -> Vec<(String, String)> {
        let mut views = vec![(READ_VIEW.to_string(), year_view(HOT_YEAR))];
        match self {
            Workload::BigdocChurn | Workload::ReadUnderWrite => {
                views.push(("cold".to_string(), year_view(COLD_YEAR)));
            }
            Workload::ViewsMix => views.extend(vpa_bench::multiview_queries(8, 10)),
        }
        views
    }

    /// The first `len` requests of writer connection `conn`.
    pub fn stream(self, seed: u64, conn: usize, len: usize) -> Vec<UpdateBatch> {
        self.requests(seed, conn).take(len).collect()
    }

    /// The endless request stream of writer connection `conn`. Streams
    /// of different connections touch disjoint titles, so any
    /// interleaving of them is valid.
    pub fn requests(self, seed: u64, conn: usize) -> Requests {
        let rng = StdRng::seed_from_u64(seed ^ (conn as u64 + 1).wrapping_mul(0x9e37_79b9));
        Requests { workload: self, seed, conn, rng, next: 0 }
    }
}

/// A writer connection's seeded request stream, generated on demand.
pub struct Requests {
    workload: Workload,
    seed: u64,
    conn: usize,
    rng: StdRng,
    next: usize,
}

impl Requests {
    fn title(&self, j: usize) -> String {
        format!("Bench {:x} c{} n{j:06}", self.seed, self.conn)
    }
}

impl Iterator for Requests {
    type Item = UpdateBatch;

    fn next(&mut self) -> Option<UpdateBatch> {
        let j = self.next;
        self.next += 1;
        let mut b = UpdateBatch::new();
        match self.workload {
            // Insert the next book and delete the one inserted LAG
            // requests earlier: every request has the same shape, and
            // after the first LAG the document size never changes.
            Workload::BigdocChurn | Workload::ReadUnderWrite => {
                if j >= CHURN_LAG {
                    delete_book(&mut b, &self.title(j - CHURN_LAG), false);
                }
                insert_book(&mut b, &self.title(j), HOT_YEAR, &mut self.rng, None);
            }
            // Insert a book and its price entry, re-price the previous
            // request's entry, delete the pair inserted two requests
            // earlier: an insert/modify/delete mix in every request that
            // restores what it changes.
            Workload::ViewsMix => {
                if j >= 2 {
                    delete_book(&mut b, &self.title(j - 2), true);
                }
                if j >= 1 {
                    let p = price(&mut self.rng);
                    let op = UpdateOp::replace_text("prices.xml", "/prices/entry", "price", &p);
                    b.push(with_filter(op, "b-title", &self.title(j - 1)));
                }
                let year = 1900 + self.rng.gen_range(0..10usize);
                let p = price(&mut self.rng);
                insert_book(&mut b, &self.title(j), year, &mut self.rng, Some(&p));
            }
        }
        Some(b)
    }
}

fn year_view(year: usize) -> String {
    format!(
        r#"<result>{{
  for $b in doc("bib.xml")/bib/book
  where $b/@year = "{year}"
  return <hit>{{$b/title}}</hit>
}}</result>"#
    )
}

fn price(rng: &mut StdRng) -> String {
    format!("{:.2}", 10.0 + rng.gen_range(0..9000u32) as f64 / 100.0)
}

/// Generated ops come from fixed templates: one that does not parse is a
/// bug in this file.
fn parsed(op: Result<UpdateOp, QueryParseError>) -> UpdateOp {
    op.expect("generated ops parse")
}

fn with_filter(op: Result<UpdateOp, QueryParseError>, path: &str, value: &str) -> UpdateOp {
    parsed(parsed(op).filter(path, CmpOp::Eq, value))
}

const LAST: &[&str] = &["Gray", "Codd", "Widom", "Ullman", "Suciu", "Chen"];
const FIRST: &[&str] = &["Jim", "Edgar", "Jennifer", "Jeffrey", "Dan", "Peter"];

fn insert_book(
    b: &mut UpdateBatch,
    title: &str,
    year: usize,
    rng: &mut StdRng,
    price: Option<&str>,
) {
    let last = LAST[rng.gen_range(0..LAST.len())];
    let first = FIRST[rng.gen_range(0..FIRST.len())];
    let book = format!(
        "<book year=\"{year}\"><title>{title}</title>\
         <author><last>{last}</last><first>{first}</first></author></book>"
    );
    b.push(parsed(UpdateOp::insert("bib.xml", "/bib", InsertPosition::Into, &book)));
    if let Some(p) = price {
        let entry = format!("<entry><price>{p}</price><b-title>{title}</b-title></entry>");
        b.push(parsed(UpdateOp::insert("prices.xml", "/prices", InsertPosition::Into, &entry)));
    }
}

fn delete_book(b: &mut UpdateBatch, title: &str, with_entry: bool) {
    b.push(with_filter(UpdateOp::delete("bib.xml", "/bib/book"), "title", title));
    if with_entry {
        b.push(with_filter(UpdateOp::delete("prices.xml", "/prices/entry"), "b-title", title));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encoded(w: Workload, seed: u64) -> Vec<Vec<u8>> {
        let (bib, prices) = w.data(seed);
        let mut out = vec![bib.into_bytes(), prices.into_bytes()];
        for conn in 0..w.spec().writers {
            out.extend(w.stream(seed, conn, 60).iter().map(wire::to_vec));
        }
        out
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        for w in Workload::ALL {
            assert_eq!(encoded(w, 7), encoded(w, 7), "{}: seed 7 must repeat", w.name());
            let (a, b) = (encoded(w, 7), encoded(w, 8));
            assert_ne!(a[0], b[0], "{}: the data must depend on the seed", w.name());
            assert_ne!(a[2..], b[2..], "{}: the requests must depend on the seed", w.name());
        }
    }

    #[test]
    fn connections_get_distinct_streams() {
        for w in [Workload::BigdocChurn, Workload::ViewsMix] {
            assert_ne!(w.stream(3, 0, 10), w.stream(3, 1, 10), "{}", w.name());
        }
    }

    /// Applying any prefix of the streams keeps the store within the
    /// churn window of its starting size, so per-request cost cannot
    /// drift with run length; and every view stays correct.
    #[test]
    fn streams_are_stationary() {
        for w in Workload::ALL {
            let spec = w.spec();
            let mut cfg = vpa_bench::bib_config(60);
            cfg.seed = 5;
            let mut store = xmlstore::Store::new();
            store.load_doc("bib.xml", &datagen::bib_xml(&cfg)).unwrap();
            store.load_doc("prices.xml", &datagen::prices_xml(&cfg)).unwrap();
            let mut cat = viewsrv::ViewCatalog::new(store);
            for (name, q) in w.views() {
                cat.register(&name, &q).unwrap();
            }
            let start = cat.store().total_nodes();
            let streams: Vec<_> = (0..spec.writers).map(|c| w.stream(5, c, 90)).collect();
            let mut unit = 0;
            let mut hi = start;
            for i in 0..90 {
                for s in &streams {
                    let r = cat.apply_batch(&s[i]).unwrap();
                    assert_eq!(r.resolved, s[i].len(), "{}: request {i} missed a target", w.name());
                }
                if i == 0 {
                    unit = (cat.store().total_nodes() - start) / spec.writers;
                }
                hi = hi.max(cat.store().total_nodes());
            }
            let window = spec.writers * spec.max_outstanding * unit;
            assert!(
                unit > 0 && hi - start <= window,
                "{}: grew {} > {window}",
                w.name(),
                hi - start
            );
            cat.verify_all().unwrap();
        }
    }
}
