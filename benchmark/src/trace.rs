//! Bench-side spans: recorded by the benchmark's own threads around their
//! calls into the program, kept in per-thread memory, written out as a
//! chrome-trace file when a traced run ends. (Stamps inside the program are
//! a later change — ROADMAP item 1.)

use crate::json;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::OnceLock;
use std::time::Instant;

/// Nanoseconds since the first call in this process; the one timeline all
/// driver threads stamp against.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

#[derive(Debug, Clone, Copy)]
pub struct SpanRec {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the causing span in the same thread's list.
    pub parent: Option<u32>,
    /// Shared by all spans of one request (the op's sequence number).
    pub request: u64,
}

/// One thread's span list. Not shared: each driver thread owns its own.
#[derive(Debug, Default)]
pub struct Tracer {
    pub thread: String,
    pub spans: Vec<SpanRec>,
}

impl Tracer {
    pub fn new(thread: &str) -> Self {
        Tracer {
            thread: thread.to_string(),
            spans: Vec::new(),
        }
    }

    /// Start a span now; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, request: u64, parent: Option<u32>) -> u32 {
        self.open_at(name, request, parent, now_ns())
    }

    pub fn open_at(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<u32>,
        start_ns: u64,
    ) -> u32 {
        self.spans.push(SpanRec {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        (self.spans.len() - 1) as u32
    }

    pub fn close(&mut self, idx: u32) {
        self.close_at(idx, now_ns());
    }

    pub fn close_at(&mut self, idx: u32, end_ns: u64) {
        self.spans[idx as usize].end_ns = end_ns;
    }
}

/// Totals per span name over any number of threads.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Agg {
    pub count: u64,
    pub total_ns: u64,
    /// Duration minus the part its child spans cover.
    pub self_ns: u64,
}

pub fn aggregate(tracers: &[Tracer]) -> BTreeMap<&'static str, Agg> {
    let mut out: BTreeMap<&'static str, Agg> = BTreeMap::new();
    for t in tracers {
        let mut child_ns = vec![0u64; t.spans.len()];
        for s in &t.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        for (s, children) in t.spans.iter().zip(&child_ns) {
            let dur = s.end_ns - s.start_ns;
            let a = out.entry(s.name).or_default();
            a.count += 1;
            a.total_ns += dur;
            a.self_ns += dur.saturating_sub(*children);
        }
    }
    out
}

/// Spans written per thread; the aggregates always cover all of them.
const FILE_SPANS_PER_THREAD: usize = 50_000;

/// Write the chrome://tracing (Trace Event Format) file.
pub fn write_chrome(path: &std::path::Path, tracers: &[Tracer]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    w.write_all(b"{\"traceEvents\":[\n")?;
    let mut first = true;
    for (tid, t) in tracers.iter().enumerate() {
        let meta = format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"args\":{{\"name\":{}}}}}",
            json::quote(&t.thread)
        );
        w.write_all(if first { b"" } else { b",\n" })?;
        first = false;
        w.write_all(meta.as_bytes())?;
        for (i, s) in t.spans.iter().take(FILE_SPANS_PER_THREAD).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            write!(
                w,
                ",\n{{\"name\":{},\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"span\":{i},\"parent\":{parent},\"request\":{}}}}}",
                json::quote(s.name),
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.request
            )?;
        }
    }
    w.write_all(b"\n]}\n")?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut t = Tracer::new("t");
        let root = t.open_at("bench.op", 7, None, 100);
        let a = t.open_at("core.get", 7, Some(root), 110);
        t.close_at(a, 150);
        let b = t.open_at("core.put", 7, Some(root), 150);
        t.close_at(b, 180);
        t.close_at(root, 200);
        let agg = aggregate(&[t]);
        assert_eq!(
            agg["bench.op"],
            Agg {
                count: 1,
                total_ns: 100,
                self_ns: 30
            }
        );
        assert_eq!(agg["core.get"].self_ns, 40);
        assert_eq!(agg["core.put"].total_ns, 30);
    }

    #[test]
    fn chrome_file_parses_as_json() {
        let mut t = Tracer::new("bench-drv");
        let root = t.open("bench.op", 1, None);
        let child = t.open("core.get", 1, Some(root));
        t.close(child);
        t.close(root);
        let dir = crate::out_dir();
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("selftest-trace.json");
        write_chrome(&path, &[t]).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let v = json::parse(&text).unwrap();
        let json::Value::Arr(events) = v.get("traceEvents").unwrap() else {
            panic!("traceEvents is not an array");
        };
        assert_eq!(events.len(), 3);
    }
}
