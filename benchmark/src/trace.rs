//! Spans recorded from the benchmark's own files around every call into
//! a layer. Each rank owns a pre-sized buffer, so recording a span is two
//! clock reads and a push; everything is written out after the pass.

use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

use crate::json::escape;

/// `parent` of a span that has none.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer call, e.g. `plan.start`.
    pub name: &'static str,
    /// Index of the span that caused this one, or [`NO_PARENT`].
    pub parent: u32,
    /// Operation the span belongs to; spans of one operation share it
    /// across ranks.
    pub op: u32,
    /// Bytes the call handled (0 where it has no payload of its own).
    pub bytes: u64,
    /// Start and end, ns since the trace epoch.
    pub start_ns: u64,
    /// See `start_ns`.
    pub end_ns: u64,
}

impl Span {
    /// Length of the span in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle of an open span; `None` when the buffer was full and the span
/// was dropped.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<u32>);

impl SpanId {
    /// The span's index, to name it as a parent.
    pub fn as_parent(self) -> u32 {
        self.0.unwrap_or(NO_PARENT)
    }
}

/// One thread's span buffer.
pub struct RankTrace {
    epoch: Instant,
    /// Thread id in the written trace (the rank).
    pub tid: u32,
    /// Recorded spans, in start order.
    pub spans: Vec<Span>,
    /// Spans not recorded because the buffer was full.
    pub dropped: u64,
}

impl RankTrace {
    /// A buffer for at most `capacity` spans, timed against `epoch`.
    pub fn with_capacity(epoch: Instant, tid: u32, capacity: usize) -> Self {
        RankTrace {
            epoch,
            tid,
            spans: Vec::with_capacity(capacity),
            dropped: 0,
        }
    }

    /// The instant the buffer's timestamps count from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Record a span that was timed elsewhere against [`Self::epoch`].
    pub fn record(&mut self, span: Span) {
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
        } else {
            self.spans.push(span);
        }
    }

    /// Open a span now.
    pub fn begin(&mut self, name: &'static str, op: u32, parent: u32, bytes: u64) -> SpanId {
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return SpanId(None);
        }
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            parent,
            op,
            bytes,
            start_ns,
            end_ns: start_ns,
        });
        SpanId(Some(self.spans.len() as u32 - 1))
    }

    /// Close a span now.
    pub fn end(&mut self, id: SpanId) {
        if let Some(i) = id.0 {
            self.spans[i as usize].end_ns = self.epoch.elapsed().as_nanos() as u64;
        }
    }
}

/// Self time of every span: its length minus the part of its interval
/// that its child spans cover. Children are clipped to the parent and
/// overlapping children are counted once.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = spans.get(s.parent as usize) {
            let (a, b) = (s.start_ns.max(p.start_ns), s.end_ns.min(p.end_ns));
            if b > a {
                children[s.parent as usize].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                if b > reach {
                    covered += b - a.max(reach);
                    reach = b;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Per span name: `(name, count, total ns, self ns)`, in first-seen order.
pub fn summarize(traces: &[RankTrace]) -> Vec<(&'static str, u64, u64, u64)> {
    let mut rows: Vec<(&'static str, u64, u64, u64)> = Vec::new();
    for t in traces {
        let selfs = self_times_ns(&t.spans);
        for (s, own) in t.spans.iter().zip(selfs) {
            let row = match rows.iter_mut().find(|r| r.0 == s.name) {
                Some(r) => r,
                None => {
                    rows.push((s.name, 0, 0, 0));
                    rows.last_mut().expect("just pushed")
                }
            };
            row.1 += 1;
            row.2 += s.dur_ns();
            row.3 += own;
        }
    }
    rows
}

/// Durations in ns of every span called `name`.
pub fn durations_ns(traces: &[RankTrace], name: &str) -> Vec<f64> {
    traces
        .iter()
        .flat_map(|t| t.spans.iter())
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64)
        .collect()
}

/// Write the spans as Chrome trace-event JSON (`chrome://tracing`,
/// Perfetto): complete events, one thread per rank.
pub fn write_chrome(path: &Path, traces: &[RankTrace]) -> io::Result<()> {
    let mut w = BufWriter::new(std::fs::File::create(path)?);
    w.write_all(b"{\"traceEvents\":[\n")?;
    let mut first = true;
    for t in traces {
        for s in &t.spans {
            if !first {
                w.write_all(b",\n")?;
            }
            first = false;
            write!(
                w,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"op\":{},\"bytes\":{}}}}}",
                escape(s.name),
                t.tid,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.op,
                s.bytes
            )?;
        }
    }
    w.write_all(b"\n]}\n")?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            op: 0,
            bytes: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_with_nested_children() {
        // op [0,100) > start [10,30) > inner [15,20); op > complete [50,90).
        let spans = [
            span("op", NO_PARENT, 0, 100),
            span("start", 0, 10, 30),
            span("inner", 1, 15, 20),
            span("complete", 0, 50, 90),
        ];
        assert_eq!(self_times_ns(&spans), vec![40, 15, 5, 40]);
    }

    #[test]
    fn overlapping_children_are_covered_once_and_clipped() {
        // Children [10,40) and [30,60) overlap by 10; [90,120) sticks out
        // of the parent by 20; [200,300) lies outside it entirely.
        let spans = [
            span("op", NO_PARENT, 0, 100),
            span("a", 0, 10, 40),
            span("b", 0, 30, 60),
            span("c", 0, 90, 120),
            span("d", 0, 200, 300),
        ];
        // Covered: [10,60) = 50 and [90,100) = 10.
        assert_eq!(self_times_ns(&spans)[0], 40);
        // A child inside another child's interval adds nothing.
        let spans = [
            span("op", NO_PARENT, 0, 100),
            span("a", 0, 10, 80),
            span("b", 0, 20, 30),
        ];
        assert_eq!(self_times_ns(&spans)[0], 30);
    }

    #[test]
    fn a_full_buffer_counts_drops_instead_of_growing() {
        let mut t = RankTrace::with_capacity(Instant::now(), 0, 2);
        let a = t.begin("op", 1, NO_PARENT, 0);
        let b = t.begin("x", 1, a.as_parent(), 8);
        let c = t.begin("y", 1, a.as_parent(), 0);
        t.end(c);
        t.end(b);
        t.end(a);
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.dropped, 1);
        assert_eq!(c.as_parent(), NO_PARENT);
        assert_eq!(t.spans[1].parent, 0);
        assert!(t.spans[0].end_ns >= t.spans[1].end_ns);
        let rows = summarize(&[t]);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].0, "op");
        assert_eq!(rows[0].2 - rows[0].3, rows[1].2);
    }
}
