//! In-memory span recorder.
//!
//! A [`Recorder`] belongs to one thread. Every span records its name, start,
//! end, parent and request id; spans stay in memory until the run ends and
//! are then written out as JSON lines. Per-layer numbers are *self* times: a
//! span's duration minus the time its direct children cover. Children on one
//! thread never overlap, so the self times of a span tree add up exactly to
//! the root span's duration.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer name, e.g. `gpu.driver_passes`.
    pub name: &'static str,
    /// Start, in ns since the epoch.
    pub start_ns: u64,
    /// End, in ns since the epoch.
    pub end_ns: u64,
    /// Index of the enclosing span in the same recorder, if any.
    pub parent: Option<usize>,
    /// The request (or shader) the span belongs to.
    pub request: u64,
}

impl Span {
    /// The span's duration in ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle to a span opened with [`Recorder::begin`].
#[derive(Debug)]
#[must_use = "a span must be closed with Recorder::end"]
pub struct Open(usize);

/// Records spans for one thread.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    request: u64,
}

impl Recorder {
    /// A recorder whose timestamps count from `epoch` (share one epoch
    /// between threads so their spans line up).
    pub fn new(epoch: Instant) -> Recorder {
        Recorder {
            epoch,
            spans: Vec::new(),
            stack: Vec::new(),
            request: 0,
        }
    }

    /// Sets the request id stamped on spans opened from now on.
    pub fn set_request(&mut self, request: u64) {
        self.request = request;
    }

    /// Opens a span; its name is given when it closes, so a caller can name
    /// it after what the call turned out to do.
    pub fn begin(&mut self) -> Open {
        let index = self.spans.len();
        self.spans.push(Span {
            name: "",
            start_ns: 0,
            end_ns: 0,
            parent: self.stack.last().copied(),
            request: self.request,
        });
        self.stack.push(index);
        // Stamp last, so the bookkeeping above is not inside the span.
        self.spans[index].start_ns = self.now_ns();
        Open(index)
    }

    /// Closes the innermost open span under `name`.
    ///
    /// # Panics
    ///
    /// If `open` is not the innermost open span.
    pub fn end(&mut self, open: Open, name: &'static str) {
        let end_ns = self.now_ns();
        assert_eq!(
            self.stack.pop(),
            Some(open.0),
            "spans must close innermost first"
        );
        let span = &mut self.spans[open.0];
        span.end_ns = end_ns;
        span.name = name;
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> R) -> R {
        let open = self.begin();
        let result = f(self);
        self.end(open, name);
        result
    }

    /// Consumes the recorder, returning its spans.
    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.stack.is_empty(), "recorder dropped with open spans");
        self.spans
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

/// Self time per span name, in ns: each span's duration minus the durations
/// of its direct children, summed by name. `spans` must come from one
/// recorder (parents are indices into it).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            child_ns[parent] += span.duration_ns();
        }
    }
    let mut totals = BTreeMap::new();
    for (span, children) in spans.iter().zip(child_ns) {
        *totals.entry(span.name).or_insert(0) += span.duration_ns() - children;
    }
    totals
}

/// Durations in ns of every span called `name`, unsorted.
pub fn durations(spans: &[Span], name: &str) -> Vec<u64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::duration_ns)
        .collect()
}

/// Writes spans as JSON lines, one object per span, each tagged with the
/// thread (recorder) it came from.
pub fn write_jsonl(out: &mut impl Write, thread: usize, spans: &[Span]) -> std::io::Result<()> {
    for span in spans {
        let parent = span
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"thread\":{thread},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
            span.name, span.start_ns, span.end_ns, span.request
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_partition_the_root() {
        let mut rec = Recorder::new(Instant::now());
        rec.span("root", |rec| {
            rec.span("a", |rec| {
                rec.span("b", |_| std::hint::black_box((0..1000).sum::<u64>()));
            });
            rec.set_request(7);
            rec.span("a", |_| ());
        });
        let spans = rec.into_spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[3].request, 7);
        let totals = self_times(&spans);
        let sum: u64 = totals.values().sum();
        assert_eq!(sum, spans[0].duration_ns());
        assert_eq!(durations(&spans, "a").len(), 2);
    }

    #[test]
    fn late_naming_names_the_span() {
        let mut rec = Recorder::new(Instant::now());
        let open = rec.begin();
        rec.end(open, "serve.memo");
        let spans = rec.into_spans();
        assert_eq!(spans[0].name, "serve.memo");
        let mut out = Vec::new();
        write_jsonl(&mut out, 0, &spans).unwrap();
        let line = String::from_utf8(out).unwrap();
        assert!(line.contains("\"name\":\"serve.memo\""), "{line}");
        assert!(line.contains("\"parent\":null"), "{line}");
    }
}
