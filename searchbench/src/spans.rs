//! In-memory span log for the traced run.
//!
//! Spans are recorded from the benchmark's own code, around the public
//! calls into each layer: name, start, end, parent, and the candidate's
//! `cache_key` as the id that ties one evaluation's spans together.
//! Nothing is written until the run ends.

use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use rt::json::Json;

/// One closed span. Times are nanoseconds since the log was created.
struct Record {
    id: u64,
    name: &'static str,
    parent: Option<u64>,
    key: Option<u64>,
    start_ns: u64,
    end_ns: u64,
}

/// A span that has been opened but not yet closed.
pub struct Open {
    id: u64,
    name: &'static str,
    parent: Option<u64>,
    key: Option<u64>,
    start: Instant,
}

impl Open {
    /// The id children pass as their parent.
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// Thread-safe collector of closed spans.
pub struct SpanLog {
    epoch: Instant,
    next_id: AtomicU64,
    records: Mutex<Vec<Record>>,
}

impl SpanLog {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            records: Mutex::new(Vec::new()),
        }
    }

    pub fn open(&self, name: &'static str, parent: Option<u64>, key: Option<u64>) -> Open {
        Open {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            name,
            parent,
            key,
            start: Instant::now(),
        }
    }

    /// Closes `span` now.
    pub fn close(&self, span: Open) {
        let end = Instant::now();
        let ns = |t: Instant| t.duration_since(self.epoch).as_nanos() as u64;
        let record = Record {
            id: span.id,
            name: span.name,
            parent: span.parent,
            key: span.key,
            start_ns: ns(span.start),
            end_ns: ns(end),
        };
        self.records
            .lock()
            .expect("span log poisoned by a panicking recorder")
            .push(record);
    }

    /// Durations in seconds of every closed span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.records
            .lock()
            .expect("span log poisoned by a panicking recorder")
            .iter()
            .filter(|r| r.name == name)
            .map(|r| (r.end_ns - r.start_ns) as f64 / 1e9)
            .collect()
    }

    /// Writes one JSON object per span, in close order.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let records = self
            .records
            .lock()
            .expect("span log poisoned by a panicking recorder");
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for r in records.iter() {
            let opt = |v: Option<u64>| v.map_or(Json::Null, |v| Json::String(format!("{v:016x}")));
            let line = Json::object()
                .insert("id", r.id)
                .insert("name", r.name)
                .insert(
                    "parent",
                    r.parent.map_or(Json::Null, |p| Json::Number(p as f64)),
                )
                .insert("cache_key", opt(r.key))
                .insert("start_ns", r.start_ns)
                .insert("end_ns", r.end_ns);
            writeln!(out, "{line}")?;
        }
        out.flush()
    }
}
