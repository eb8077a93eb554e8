//! In-memory span recording for the traced run.
//!
//! Each load thread owns a [`Recorder`]. A span is opened around every
//! layer call the benchmark makes and closed when the call returns; spans
//! nest strictly on their thread, so a span's self time is its duration
//! minus the durations of its child spans and of the algorithm's decide
//! calls made inside it. The spans of one request share a request id.
//! Aggregates are folded online per span name; the first [`RAW_SPAN_CAP`]
//! spans of each thread are kept verbatim and written out when the run
//! ends.
//!
//! Decide calls take a few nanoseconds, less than a clock read, so timing
//! each one would mostly time the clock. One call in [`DECIDE_SAMPLE`] is
//! timed instead; every call is counted against its span, and the decide
//! cost is the sampled mean minus the calibrated cost of a clock read
//! (both means trimmed at their 99th percentile).

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::OnceLock;
use std::time::Instant;

use crate::stats;

/// Raw spans kept per thread for the written trace.
pub const RAW_SPAN_CAP: usize = 20_000;

/// Span names whose self time is nobody's layer: the benchmark's own root
/// spans (request bookkeeping and answer checks).
pub const ROOT_PREFIX: &str = "root.";

/// One decide call in this many is timed.
pub const DECIDE_SAMPLE: u64 = 64;

/// One closed span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `graph.freeze`.
    pub name: &'static str,
    /// Start, ns since the process-wide trace origin.
    pub start: u64,
    /// End, ns since the trace origin.
    pub end: u64,
    /// Index of the parent span in the raw list, if kept.
    pub parent: Option<usize>,
    /// Request the span belongs to (shared by a root and its children).
    pub request: u64,
}

/// Per-name aggregate of closed spans.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NameStats {
    /// Spans closed.
    pub count: u64,
    /// Sum of span durations, ns.
    pub total_ns: u64,
    /// Sum of span self times, ns.
    pub self_ns: u64,
    /// Sum of the units of work the spans declared (bytes, nodes, arcs…).
    pub units: u64,
    /// Decide calls made directly inside these spans (not in children).
    pub decides: u64,
    /// Every duration, ns, for percentiles.
    pub durations: Vec<u64>,
}

#[derive(Debug)]
struct Open {
    name: &'static str,
    start: u64,
    covered: u64,
    units: u64,
    decides: u64,
    raw: Option<usize>,
}

/// One thread's span recorder.
#[derive(Debug, Default)]
pub struct Recorder {
    stack: Vec<Open>,
    next_request: u64,
    request: u64,
    /// Closed-span aggregates by name.
    pub stats: BTreeMap<&'static str, NameStats>,
    /// Decide calls made inside any span.
    pub decide_calls: u64,
    /// Durations of the sampled decide calls, clock read included, ns.
    pub decide_samples: Vec<u64>,
    /// The first spans opened on this thread, in opening order.
    pub raw: Vec<Span>,
}

impl Recorder {
    /// A recorder for load thread `thread`; request ids are made unique
    /// across threads by reserving the high bits for the thread.
    #[must_use]
    pub fn new(thread: u64) -> Recorder {
        Recorder { next_request: thread << 40, ..Recorder::default() }
    }

    /// Opens a span at `now`. A span opened with no span open is a root and
    /// starts a new request.
    pub fn open(&mut self, name: &'static str, units: u64, now: u64) {
        if self.stack.is_empty() {
            self.next_request += 1;
            self.request = self.next_request;
        }
        let raw = (self.raw.len() < RAW_SPAN_CAP).then(|| {
            let parent = self.stack.last().and_then(|o| o.raw);
            self.raw.push(Span { name, start: now, end: now, parent, request: self.request });
            self.raw.len() - 1
        });
        self.stack.push(Open { name, start: now, covered: 0, units, decides: 0, raw });
    }

    /// Adds units of work to the innermost open span (for sizes known only
    /// after the call, such as encoded bytes).
    pub fn add_units(&mut self, units: u64) {
        if let Some(open) = self.stack.last_mut() {
            open.units += units;
        }
    }

    /// Closes the innermost span at `now` and returns its self time.
    ///
    /// # Panics
    ///
    /// Panics when no span is open — a bug in the benchmark's nesting.
    pub fn close(&mut self, now: u64) -> u64 {
        let open = self.stack.pop().expect("close without a matching open");
        let duration = now.saturating_sub(open.start);
        let own = duration.saturating_sub(open.covered);
        if let Some(i) = open.raw {
            self.raw[i].end = now;
        }
        if let Some(parent) = self.stack.last_mut() {
            parent.covered += duration;
        }
        let entry = self.stats.entry(open.name).or_default();
        entry.count += 1;
        entry.total_ns += duration;
        entry.self_ns += own;
        entry.units += open.units;
        entry.decides += open.decides;
        entry.durations.push(duration);
        own
    }

    /// Counts one decide call against the innermost open span, with its
    /// duration when it was a timed sample. Ignored when no span is open.
    pub fn add_decide(&mut self, sample: Option<u64>) {
        let Some(open) = self.stack.last_mut() else {
            return;
        };
        open.decides += 1;
        self.decide_calls += 1;
        self.decide_samples.extend(sample);
    }

    /// Estimated cost of one decide call, ns: the trimmed mean sampled
    /// duration minus the cost of the clock read inside it (`timer_ns`),
    /// never below zero. 0 when nothing was sampled.
    #[must_use]
    pub fn decide_ns(&self, timer_ns: f64) -> f64 {
        if self.decide_samples.is_empty() {
            return 0.0;
        }
        (stats::trimmed_mean(&self.decide_samples, 990) - timer_ns).max(0.0)
    }

    /// Folds another thread's aggregates and raw spans into this one.
    pub fn merge(&mut self, other: Recorder) {
        for (name, s) in other.stats {
            let entry = self.stats.entry(name).or_default();
            entry.count += s.count;
            entry.total_ns += s.total_ns;
            entry.self_ns += s.self_ns;
            entry.units += s.units;
            entry.decides += s.decides;
            entry.durations.extend(s.durations);
        }
        self.decide_calls += other.decide_calls;
        self.decide_samples.extend(other.decide_samples);
        let offset = self.raw.len();
        self.raw.extend(
            other.raw.into_iter().map(|s| Span { parent: s.parent.map(|p| p + offset), ..s }),
        );
    }

    /// The aggregate for `name` (empty when no such span closed).
    #[must_use]
    pub fn get(&self, name: &str) -> NameStats {
        self.stats.get(name).cloned().unwrap_or_default()
    }

    /// Whether any span named `name` closed.
    #[must_use]
    pub fn has(&self, name: &str) -> bool {
        self.stats.get(name).is_some_and(|s| s.count > 0)
    }

    /// Self time by layer (the name's prefix before the first `.`; root
    /// spans report as `unattributed`) and the wall time they partition:
    /// the summed duration of every root span. Each span's decide calls,
    /// at `decide_ns` each, move from its layer to `algorithms`.
    #[must_use]
    pub fn layer_self_times(&self, decide_ns: f64) -> (BTreeMap<&'static str, u64>, u64) {
        let mut by_layer = BTreeMap::new();
        let mut wall = 0;
        for (name, s) in &self.stats {
            let layer = if name.starts_with(ROOT_PREFIX) {
                wall += s.total_ns;
                "unattributed"
            } else {
                name.split('.').next().unwrap_or(name)
            };
            let deciding = ((s.decides as f64 * decide_ns).round() as u64).min(s.self_ns);
            *by_layer.entry(layer).or_insert(0) += s.self_ns - deciding;
            *by_layer.entry("algorithms").or_insert(0) += deciding;
        }
        (by_layer, wall)
    }

    /// Writes the raw spans as tab-separated lines.
    ///
    /// # Errors
    ///
    /// Propagates file-system errors.
    pub fn write_raw(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "thread\tname\tstart_ns\tend_ns\tparent\trequest")?;
        for span in &self.raw {
            let parent = span.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                span.request >> 40,
                span.name,
                span.start,
                span.end,
                parent,
                span.request
            )?;
        }
        out.flush()
    }
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
    static DECIDE_TICK: Cell<u64> = const { Cell::new(0) };
}

fn origin() -> Instant {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    *ORIGIN.get_or_init(Instant::now)
}

/// Nanoseconds since the process-wide trace origin.
#[must_use]
pub fn now_ns() -> u64 {
    u64::try_from(origin().elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Starts recording on the current thread.
pub fn install(thread: u64) {
    let _ = origin();
    RECORDER.with(|r| *r.borrow_mut() = Some(Recorder::new(thread)));
}

/// Stops recording on the current thread and returns what it recorded.
#[must_use]
pub fn take() -> Option<Recorder> {
    RECORDER.with(|r| r.borrow_mut().take())
}

/// Whether the current thread records spans.
#[must_use]
pub fn enabled() -> bool {
    RECORDER.with(|r| r.borrow().is_some())
}

/// Runs `f` inside a span named `name` declaring `units` of work. Without
/// an installed recorder this is a plain call.
pub fn span<T>(name: &'static str, units: u64, f: impl FnOnce() -> T) -> T {
    if !enabled() {
        return f();
    }
    RECORDER.with(|r| r.borrow_mut().as_mut().map(|rec| rec.open(name, units, now_ns())));
    let out = f();
    RECORDER.with(|r| r.borrow_mut().as_mut().map(|rec| rec.close(now_ns())));
    out
}

/// Adds units of work to the innermost open span of this thread.
pub fn add_units(units: u64) {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.add_units(units);
        }
    });
}

/// Runs one decide call `f`, counting it against the innermost open span
/// and timing one call in [`DECIDE_SAMPLE`]. Without an installed
/// recorder this is a plain call.
pub fn decide<T>(f: impl FnOnce() -> T) -> T {
    if !enabled() {
        return f();
    }
    let tick = DECIDE_TICK.with(|t| {
        let v = t.get();
        t.set(v + 1);
        v
    });
    let (out, sample) = if tick.is_multiple_of(DECIDE_SAMPLE) {
        let start = Instant::now();
        let out = f();
        (out, Some(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)))
    } else {
        (f(), None)
    };
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.add_decide(sample);
        }
    });
    out
}

/// The cost of reading the clock around a timed call, ns: the trimmed mean
/// of back-to-back reads, measured once per process.
#[must_use]
pub fn timer_ns() -> f64 {
    static TIMER: OnceLock<f64> = OnceLock::new();
    *TIMER.get_or_init(|| {
        let reads: Vec<u64> = (0..10_001)
            .map(|_| {
                let start = Instant::now();
                u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
            })
            .collect();
        stats::trimmed_mean(&reads, 990)
    })
}

/// p50 of a name's span durations, ns.
#[must_use]
pub fn p50(stats: &NameStats) -> u64 {
    stats::percentile(&stats.durations, 500)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_and_remainder_partition_the_root() {
        let mut rec = Recorder::new(0);
        rec.open("root.request", 0, 0);
        rec.open("service.batch", 0, 10);
        rec.open("runtime.batch", 100, 20);
        rec.add_decide(Some(25));
        rec.add_decide(None);
        rec.add_decide(Some(15));
        assert_eq!(rec.close(80), 60); // 60 long, deciding not yet known
        assert_eq!(rec.close(90), 20); // 80 long, 60 in its child
        rec.open("core.estimate", 0, 95);
        assert_eq!(rec.close(99), 4);
        assert_eq!(rec.close(100), 16);
        // Mean sample 20 ns minus a 10 ns clock read: 10 ns per call.
        assert_eq!(rec.decide_ns(10.0), 10.0);
        assert_eq!(rec.decide_calls, 3);
        let (layers, wall) = rec.layer_self_times(10.0);
        assert_eq!(wall, 100);
        assert_eq!(layers.values().sum::<u64>(), wall);
        assert_eq!(layers["runtime"], 30);
        assert_eq!(layers["algorithms"], 30);
        assert_eq!(layers["service"], 20);
        assert_eq!(layers["core"], 4);
        assert_eq!(layers["unattributed"], 16);
        assert_eq!(rec.get("runtime.batch").units, 100);
        assert_eq!(rec.raw[1].parent, Some(0));
        assert_eq!(rec.raw[1].request, rec.raw[0].request);
    }

    #[test]
    fn roots_start_new_requests_and_merge_adds_up() {
        let mut a = Recorder::new(1);
        a.open("root.row", 0, 0);
        a.close(5);
        a.open("root.row", 0, 6);
        a.add_units(3);
        a.close(8);
        assert_ne!(a.raw[0].request, a.raw[1].request);
        let mut b = Recorder::new(2);
        b.open("root.row", 0, 0);
        b.close(10);
        assert_ne!(a.raw[0].request, b.raw[0].request);
        a.merge(b);
        let row = a.get("root.row");
        assert_eq!((row.count, row.total_ns, row.units), (3, 17, 3));
        assert!(!a.has("graph.build"));
        assert_eq!(p50(&row), 5);
    }

    #[test]
    fn decide_calls_without_an_open_span_are_ignored() {
        let mut rec = Recorder::new(0);
        rec.add_decide(Some(50));
        assert_eq!((rec.decide_calls, rec.decide_ns(0.0)), (0, 0.0));
    }
}
