//! In-memory span recorder for the traced run, and the JSONL file it
//! writes at exit and the per-layer table is computed from.
//!
//! A span wraps one call the benchmark makes into a layer's public API:
//! name, start, end, parent span and job id, plus the work it covered
//! (commits, cycles, accesses, ...). Count records carry the exact
//! simulated counters of a job's measurement window.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span or count, as written to and read from the file.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Record {
    /// `"span"` or `"count"`.
    pub kind_of: String,
    /// Span id (spans only).
    pub id: u64,
    /// Enclosing span id, if any.
    pub parent: Option<u64>,
    /// Job the span belongs to, if any.
    pub job: Option<u64>,
    /// Layer call or counter name, e.g. `sim.run` or `core.queue.issued_uops`.
    pub name: String,
    /// Scheduler label or input label the span ran under (may be empty).
    pub label: String,
    /// Start, in ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, in ns since the tracer's epoch.
    pub end_ns: u64,
    /// Work units the span covered (commits, accesses, groups, ...).
    pub work: u64,
    /// Simulated cycles the span covered, where that applies.
    pub cycles: u64,
    /// Counter value (counts only).
    pub value: u64,
}

impl Record {
    /// Span duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle to an open span.
#[derive(Debug, Clone, Copy)]
pub struct Open {
    idx: Option<usize>,
}

/// The span recorder. Disabled, every call is a no-op.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    records: Vec<Record>,
    stack: Vec<u64>,
    next_id: u64,
}

impl Tracer {
    /// A recorder that records only when `on`.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            records: Vec::new(),
            stack: Vec::new(),
            next_id: 1,
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; it becomes the parent of spans opened before its
    /// [`Tracer::close`].
    pub fn open(&mut self, name: &str, job: Option<u64>, label: &str) -> Open {
        if !self.on {
            return Open { idx: None };
        }
        let id = self.next_id;
        self.next_id += 1;
        self.records.push(Record {
            kind_of: "span".into(),
            id,
            parent: self.stack.last().copied(),
            job,
            name: name.into(),
            label: label.into(),
            start_ns: self.now_ns(),
            ..Record::default()
        });
        self.stack.push(id);
        Open {
            idx: Some(self.records.len() - 1),
        }
    }

    /// Close `open`, recording the work and simulated cycles it covered.
    pub fn close(&mut self, open: Open, work: u64, cycles: u64) {
        let Some(idx) = open.idx else { return };
        let end = self.now_ns();
        let r = &mut self.records[idx];
        r.end_ns = end;
        r.work = work;
        r.cycles = cycles;
        self.stack.pop();
    }

    /// Record an exact counter for `job`.
    pub fn count(&mut self, job: Option<u64>, name: &str, label: &str, value: u64) {
        if self.on {
            self.records.push(Record {
                kind_of: "count".into(),
                job,
                name: name.into(),
                label: label.into(),
                value,
                ..Record::default()
            });
        }
    }

    /// All records so far, as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for r in &self.records {
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |x| x.to_string());
            let _ = writeln!(
                out,
                "{{\"type\":\"{}\",\"id\":{},\"parent\":{},\"job\":{},\"name\":\"{}\",\"label\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"work\":{},\"cycles\":{},\"value\":{}}}",
                r.kind_of,
                r.id,
                opt(r.parent),
                opt(r.job),
                r.name,
                r.label,
                r.start_ns,
                r.end_ns,
                r.work,
                r.cycles,
                r.value
            );
        }
        out
    }
}

/// Parse the file [`Tracer::to_jsonl`] writes. Only that flat shape is
/// accepted: one object per line, string or integer or `null` values,
/// no escapes.
///
/// # Errors
///
/// Returns the 1-based line number and a reason for a malformed line.
pub fn parse_jsonl(text: &str) -> Result<Vec<Record>, String> {
    let mut out = Vec::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let bad = |why: &str| format!("line {}: {why}", n + 1);
        let body = line
            .trim()
            .strip_prefix('{')
            .and_then(|l| l.strip_suffix('}'))
            .ok_or_else(|| bad("not an object"))?;
        let mut r = Record::default();
        for field in body.split(',') {
            let (k, v) = field
                .split_once(':')
                .ok_or_else(|| bad("field without `:`"))?;
            let key = k.trim().trim_matches('"');
            let v = v.trim();
            let text = v.strip_prefix('"').and_then(|s| s.strip_suffix('"'));
            let num = || {
                v.parse::<u64>()
                    .map_err(|_| bad(&format!("`{key}` is not an integer")))
            };
            match key {
                "type" => r.kind_of = text.ok_or_else(|| bad("type"))?.to_string(),
                "name" => r.name = text.ok_or_else(|| bad("name"))?.to_string(),
                "label" => r.label = text.ok_or_else(|| bad("label"))?.to_string(),
                "parent" => r.parent = if v == "null" { None } else { Some(num()?) },
                "job" => r.job = if v == "null" { None } else { Some(num()?) },
                "id" => r.id = num()?,
                "start_ns" => r.start_ns = num()?,
                "end_ns" => r.end_ns = num()?,
                "work" => r.work = num()?,
                "cycles" => r.cycles = num()?,
                "value" => r.value = num()?,
                _ => return Err(bad(&format!("unknown key `{key}`"))),
            }
        }
        out.push(r);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_roundtrip() {
        let mut t = Tracer::new(true);
        let outer = t.open("job", Some(1), "gzip");
        let inner = t.open("sim.run", Some(1), "base");
        t.close(inner, 5000, 1900);
        t.close(outer, 0, 0);
        t.count(Some(1), "core.queue.issued_uops", "", 42);
        let recs = parse_jsonl(&t.to_jsonl()).expect("own output parses");
        assert_eq!(recs.len(), 3);
        assert_eq!(recs[1].parent, Some(recs[0].id));
        assert_eq!((recs[1].work, recs[1].cycles), (5000, 1900));
        assert!(recs[0].end_ns >= recs[1].end_ns);
        assert_eq!(recs[2].value, 42);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let s = t.open("x", None, "");
        t.close(s, 1, 1);
        t.count(None, "c", "", 1);
        assert!(t.to_jsonl().is_empty());
    }
}
