//! Low-overhead instrumentation for the reversible-fault-tolerance
//! workspace.
//!
//! The crate exposes one handle, [`Collector`], carrying three kinds of
//! observables drawn from a fixed catalog (see [`Metric`], [`Gauge`],
//! [`Hist`]):
//!
//! * **counters** — monotonically increasing `u64`s, one relaxed atomic
//!   add per bump;
//! * **gauges** — last-write-wins `f64`s (stored as bit patterns);
//! * **histograms** — power-of-two-bucketed `u64` distributions;
//! * **spans** — RAII guards timing a region on the monotonic clock,
//!   recorded with the worker thread that ran them; a collector built
//!   by [`Collector::tracing`] keeps them, exportable as
//!   Chrome-trace-event JSON ([`Collector::trace_json`]).
//!
//! [`Collector::disabled`] is the no-op handle: each operation is then one
//! `Option` check. The `obs_overhead` benchmark compares an instrumented
//! estimate against a disabled one in a single binary.
//!
//! The design contract, enforced by the golden-report tests in
//! `rft-bench`: instrumentation never touches an RNG stream and never
//! influences a scheduling decision, so every report stays byte-identical
//! whether collection is on or off.

mod catalog;

pub use catalog::{Gauge, Hist, Metric};

mod real {
    use super::{Gauge, Hist, Metric};
    use std::cell::Cell;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Arc, Mutex};
    use std::time::Instant;

    /// Histogram bucket count: bucket 0 holds zeros, bucket `i` holds
    /// values whose bit length is `i` (i.e. `2^(i-1) <= v < 2^i`).
    pub const HIST_BUCKETS: usize = 65;

    static NEXT_TID: AtomicU64 = AtomicU64::new(1);

    thread_local! {
        static TID: Cell<u64> = const { Cell::new(0) };
    }

    /// Process-wide id of the calling thread, assigned lazily on first
    /// use, starting at 1. Stable across a run: the main thread gets the
    /// first id it asks for and keeps it.
    pub fn current_tid() -> u64 {
        TID.with(|c| {
            let mut t = c.get();
            if t == 0 {
                t = NEXT_TID.fetch_add(1, Ordering::Relaxed);
                c.set(t);
            }
            t
        })
    }

    struct HistCell {
        count: AtomicU64,
        sum: AtomicU64,
        buckets: [AtomicU64; HIST_BUCKETS],
    }

    impl HistCell {
        fn new() -> Self {
            HistCell {
                count: AtomicU64::new(0),
                sum: AtomicU64::new(0),
                buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            }
        }

        fn observe(&self, v: u64) {
            self.count.fetch_add(1, Ordering::Relaxed);
            self.sum.fetch_add(v, Ordering::Relaxed);
            self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Bucket index for a histogram observation: 0 for 0, else the bit
    /// length of the value (1..=64).
    pub fn bucket_index(v: u64) -> usize {
        (64 - v.leading_zeros()) as usize
    }

    /// Inclusive upper bound of a bucket, used when rendering.
    pub fn bucket_upper_bound(index: usize) -> u64 {
        if index == 0 {
            0
        } else if index >= 64 {
            u64::MAX
        } else {
            (1u64 << index) - 1
        }
    }

    /// One completed span, in nanoseconds since the sink epoch.
    #[derive(Debug, Clone)]
    pub struct SpanEvent {
        /// Static span name (e.g. `"engine.estimate"`).
        pub name: &'static str,
        /// Optional dynamic label (e.g. the experiment id).
        pub label: Option<String>,
        /// Start offset from the collector epoch, nanoseconds.
        pub ts_ns: u64,
        /// Duration, nanoseconds.
        pub dur_ns: u64,
        /// Process-wide thread id (see [`current_tid`]).
        pub tid: u64,
    }

    struct SpanSink {
        epoch: Instant,
        /// Every closed span, kept only by a [`Collector::tracing`] root.
        events: Option<Mutex<Vec<SpanEvent>>>,
    }

    struct Inner {
        counters: [AtomicU64; Metric::COUNT],
        gauges: [AtomicU64; Gauge::COUNT],
        hists: [HistCell; Hist::COUNT],
        sink: Arc<SpanSink>,
        parent: Option<Arc<Inner>>,
    }

    impl Inner {
        fn root(retain_events: bool) -> Arc<Inner> {
            Arc::new(Inner {
                counters: std::array::from_fn(|_| AtomicU64::new(0)),
                gauges: std::array::from_fn(|_| AtomicU64::new(0f64.to_bits())),
                hists: std::array::from_fn(|_| HistCell::new()),
                sink: Arc::new(SpanSink {
                    epoch: Instant::now(),
                    events: retain_events.then(|| Mutex::new(Vec::new())),
                }),
                parent: None,
            })
        }

        fn child_of(parent: &Arc<Inner>) -> Arc<Inner> {
            Arc::new(Inner {
                counters: std::array::from_fn(|_| AtomicU64::new(0)),
                gauges: std::array::from_fn(|_| AtomicU64::new(0f64.to_bits())),
                hists: std::array::from_fn(|_| HistCell::new()),
                sink: Arc::clone(&parent.sink),
                parent: Some(Arc::clone(parent)),
            })
        }

        fn add(&self, m: Metric, v: u64) {
            self.counters[m as usize].fetch_add(v, Ordering::Relaxed);
            let mut up = self.parent.as_deref();
            while let Some(p) = up {
                p.counters[m as usize].fetch_add(v, Ordering::Relaxed);
                up = p.parent.as_deref();
            }
        }

        fn set_gauge(&self, g: Gauge, v: f64) {
            self.gauges[g as usize].store(v.to_bits(), Ordering::Relaxed);
            let mut up = self.parent.as_deref();
            while let Some(p) = up {
                p.gauges[g as usize].store(v.to_bits(), Ordering::Relaxed);
                up = p.parent.as_deref();
            }
        }

        fn observe(&self, h: Hist, v: u64) {
            self.hists[h as usize].observe(v);
            let mut up = self.parent.as_deref();
            while let Some(p) = up {
                p.hists[h as usize].observe(v);
                up = p.parent.as_deref();
            }
        }
    }

    /// Handle to an instrumentation sink. Cheap to clone (one `Arc`
    /// bump); clones share all state. See the crate docs for the cost
    /// model of [`Collector::disabled`] versus the feature-off build.
    #[derive(Clone)]
    pub struct Collector {
        inner: Option<Arc<Inner>>,
    }

    impl std::fmt::Debug for Collector {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.debug_struct("Collector")
                .field("enabled", &self.is_enabled())
                .finish()
        }
    }

    impl Default for Collector {
        fn default() -> Self {
            Collector::new()
        }
    }

    impl Collector {
        /// A live collector with its own counters, gauges and
        /// histograms. A span adds its duration to its metric when it
        /// closes, and is then dropped: the collector's memory does not
        /// grow with the spans it sees.
        pub fn new() -> Collector {
            Collector {
                inner: Some(Inner::root(false)),
            }
        }

        /// A live collector that also keeps every closed span, for
        /// [`Collector::span_events`] and [`Collector::trace_json`]. Its
        /// memory grows with every span; the monotonic epoch for span
        /// timestamps is `now`.
        pub fn tracing() -> Collector {
            Collector {
                inner: Some(Inner::root(true)),
            }
        }

        /// A runtime no-op handle: every operation is one `Option`
        /// check, nothing is recorded.
        pub fn disabled() -> Collector {
            Collector { inner: None }
        }

        /// Whether this handle records anything.
        pub fn is_enabled(&self) -> bool {
            self.inner.is_some()
        }

        /// A child collector: fresh counters/gauges/histograms whose
        /// updates also propagate into this collector, and a *shared*
        /// span sink and epoch. Children give per-experiment attribution
        /// while the parent keeps the global aggregate and the unified
        /// trace timeline.
        pub fn child(&self) -> Collector {
            Collector {
                inner: self.inner.as_ref().map(Inner::child_of),
            }
        }

        /// Add `v` to a counter.
        #[inline]
        pub fn add(&self, m: Metric, v: u64) {
            if let Some(inner) = &self.inner {
                inner.add(m, v);
            }
        }

        /// Add 1 to a counter.
        #[inline]
        pub fn incr(&self, m: Metric) {
            self.add(m, 1);
        }

        /// Current value of a counter (0 when disabled).
        pub fn get(&self, m: Metric) -> u64 {
            match &self.inner {
                Some(inner) => inner.counters[m as usize].load(Ordering::Relaxed),
                None => 0,
            }
        }

        /// Set a gauge to `v`.
        #[inline]
        pub fn set_gauge(&self, g: Gauge, v: f64) {
            if let Some(inner) = &self.inner {
                inner.set_gauge(g, v);
            }
        }

        /// Current value of a gauge (0.0 when disabled).
        pub fn gauge(&self, g: Gauge) -> f64 {
            match &self.inner {
                Some(inner) => f64::from_bits(inner.gauges[g as usize].load(Ordering::Relaxed)),
                None => 0.0,
            }
        }

        /// Record one observation into a histogram.
        #[inline]
        pub fn observe(&self, h: Hist, v: u64) {
            if let Some(inner) = &self.inner {
                inner.observe(h, v);
            }
        }

        /// Start a span; it ends (and is recorded) when the returned
        /// guard drops.
        #[inline]
        pub fn span(&self, name: &'static str) -> Span<'_> {
            self.span_inner(name, None, None)
        }

        /// Start a span that also adds its duration (ns) into `m` when
        /// it ends.
        #[inline]
        pub fn span_metric(&self, name: &'static str, m: Metric) -> Span<'_> {
            self.span_inner(name, None, Some(m))
        }

        /// Start a span with a dynamic label. The closure only runs when
        /// the collector is live, so building the label costs nothing on
        /// the disabled path.
        #[inline]
        pub fn labeled_span(&self, name: &'static str, label: impl FnOnce() -> String) -> Span<'_> {
            let label = self.inner.as_ref().map(|_| label());
            self.span_inner(name, label, None)
        }

        /// [`Collector::labeled_span`] that also adds its duration (ns)
        /// into `m` when it ends.
        #[inline]
        pub fn labeled_span_metric(
            &self,
            name: &'static str,
            m: Metric,
            label: impl FnOnce() -> String,
        ) -> Span<'_> {
            let label = self.inner.as_ref().map(|_| label());
            self.span_inner(name, label, Some(m))
        }

        fn span_inner(
            &self,
            name: &'static str,
            label: Option<String>,
            metric: Option<Metric>,
        ) -> Span<'_> {
            match &self.inner {
                Some(inner) => Span {
                    owner: Some(SpanOwner {
                        inner,
                        name,
                        label,
                        metric,
                        start: Instant::now(),
                    }),
                },
                None => Span { owner: None },
            }
        }

        /// A point-in-time copy of all counters, gauges and histograms.
        pub fn snapshot(&self) -> Snapshot {
            match &self.inner {
                Some(inner) => Snapshot {
                    counters: std::array::from_fn(|i| inner.counters[i].load(Ordering::Relaxed)),
                    gauges: std::array::from_fn(|i| {
                        f64::from_bits(inner.gauges[i].load(Ordering::Relaxed))
                    }),
                    hists: std::array::from_fn(|i| {
                        let cell = &inner.hists[i];
                        HistSnapshot {
                            count: cell.count.load(Ordering::Relaxed),
                            sum: cell.sum.load(Ordering::Relaxed),
                            buckets: std::array::from_fn(|b| {
                                cell.buckets[b].load(Ordering::Relaxed)
                            }),
                        }
                    }),
                },
                None => Snapshot::empty(),
            }
        }

        /// All completed spans so far, unsorted (none unless the root
        /// was built by [`Collector::tracing`]).
        pub fn span_events(&self) -> Vec<SpanEvent> {
            match self
                .inner
                .as_ref()
                .and_then(|inner| inner.sink.events.as_ref())
            {
                Some(events) => events.lock().unwrap().clone(),
                None => Vec::new(),
            }
        }

        /// Chrome-trace-event JSON (the `{"traceEvents": [...]}` shape
        /// Perfetto and `chrome://tracing` load). Spans become complete
        /// (`"ph":"X"`) events with microsecond timestamps attributed to
        /// their worker thread; a `thread_name` metadata record is
        /// emitted per thread. Events are sorted by start time so output
        /// for a single-threaded run is deterministic.
        pub fn trace_json(&self) -> String {
            let mut events = self.span_events();
            events.sort_by_key(|e| (e.ts_ns, e.tid, e.dur_ns));
            let mut tids: Vec<u64> = events.iter().map(|e| e.tid).collect();
            tids.sort_unstable();
            tids.dedup();

            let mut out = String::with_capacity(64 + events.len() * 96);
            out.push_str("{\"traceEvents\":[");
            let mut first = true;
            for tid in &tids {
                if !first {
                    out.push(',');
                }
                first = false;
                out.push_str(&format!(
                    "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":{tid},\
                     \"args\":{{\"name\":\"worker-{tid}\"}}}}"
                ));
            }
            for e in &events {
                if !first {
                    out.push(',');
                }
                first = false;
                out.push_str(&format!(
                    "{{\"name\":\"{}\",\"cat\":\"rft\",\"ph\":\"X\",\"ts\":{:.3},\
                     \"dur\":{:.3},\"pid\":1,\"tid\":{}",
                    escape_json(e.name),
                    e.ts_ns as f64 / 1000.0,
                    e.dur_ns as f64 / 1000.0,
                    e.tid,
                ));
                if let Some(label) = &e.label {
                    out.push_str(&format!(
                        ",\"args\":{{\"label\":\"{}\"}}",
                        escape_json(label)
                    ));
                }
                out.push('}');
            }
            out.push_str("]}");
            out
        }
    }

    fn escape_json(s: &str) -> String {
        let mut out = String::with_capacity(s.len());
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    out.push_str(&format!("\\u{:04x}", c as u32));
                }
                c => out.push(c),
            }
        }
        out
    }

    struct SpanOwner<'a> {
        inner: &'a Arc<Inner>,
        name: &'static str,
        label: Option<String>,
        metric: Option<Metric>,
        start: Instant,
    }

    /// RAII span guard; records the span into its collector on drop.
    #[must_use = "a span measures the region until it is dropped"]
    pub struct Span<'a> {
        owner: Option<SpanOwner<'a>>,
    }

    impl Drop for Span<'_> {
        fn drop(&mut self) {
            let Some(owner) = self.owner.take() else {
                return;
            };
            let dur_ns = owner.start.elapsed().as_nanos() as u64;
            if let Some(m) = owner.metric {
                owner.inner.add(m, dur_ns);
            }
            let sink = &owner.inner.sink;
            if let Some(events) = &sink.events {
                events.lock().unwrap().push(SpanEvent {
                    name: owner.name,
                    label: owner.label,
                    ts_ns: owner.start.duration_since(sink.epoch).as_nanos() as u64,
                    dur_ns,
                    tid: current_tid(),
                });
            }
        }
    }

    /// Point-in-time copy of one histogram.
    #[derive(Debug, Clone)]
    pub struct HistSnapshot {
        /// Number of observations.
        pub count: u64,
        /// Sum of observed values.
        pub sum: u64,
        /// Per-bucket counts; see [`bucket_index`].
        pub buckets: [u64; HIST_BUCKETS],
    }

    impl Default for HistSnapshot {
        fn default() -> Self {
            HistSnapshot {
                count: 0,
                sum: 0,
                buckets: [0; HIST_BUCKETS],
            }
        }
    }

    impl HistSnapshot {
        /// Mean observed value (0.0 when empty).
        pub fn mean(&self) -> f64 {
            if self.count == 0 {
                0.0
            } else {
                self.sum as f64 / self.count as f64
            }
        }

        /// Inclusive upper bound of the highest non-empty bucket.
        pub fn approx_max(&self) -> u64 {
            self.buckets
                .iter()
                .rposition(|&c| c > 0)
                .map(bucket_upper_bound)
                .unwrap_or(0)
        }
    }

    /// Point-in-time copy of a collector's counters, gauges and
    /// histograms.
    #[derive(Debug, Clone)]
    pub struct Snapshot {
        counters: [u64; Metric::COUNT],
        gauges: [f64; Gauge::COUNT],
        hists: [HistSnapshot; Hist::COUNT],
    }

    impl Default for Snapshot {
        fn default() -> Self {
            Snapshot::empty()
        }
    }

    impl Snapshot {
        /// An all-zero snapshot (what a disabled collector yields).
        pub fn empty() -> Snapshot {
            Snapshot {
                counters: [0; Metric::COUNT],
                gauges: [0.0; Gauge::COUNT],
                hists: std::array::from_fn(|_| HistSnapshot::default()),
            }
        }

        /// Counter value at snapshot time.
        pub fn counter(&self, m: Metric) -> u64 {
            self.counters[m as usize]
        }

        /// Gauge value at snapshot time.
        pub fn gauge(&self, g: Gauge) -> f64 {
            self.gauges[g as usize]
        }

        /// Histogram state at snapshot time.
        pub fn hist(&self, h: Hist) -> &HistSnapshot {
            &self.hists[h as usize]
        }

        /// Aligned human-readable table of every non-zero observable, in
        /// catalog order: counters, then gauges, then histogram
        /// summaries (count / mean / approximate max).
        pub fn render_table(&self) -> String {
            let mut rows: Vec<(String, String, &'static str, &'static str)> = Vec::new();
            for m in Metric::ALL {
                let v = self.counter(m);
                if v != 0 {
                    rows.push((m.name().to_string(), v.to_string(), m.unit(), m.subsystem()));
                }
            }
            for g in Gauge::ALL {
                let v = self.gauge(g);
                if v != 0.0 {
                    rows.push((
                        g.name().to_string(),
                        format!("{v:.6}"),
                        g.unit(),
                        g.subsystem(),
                    ));
                }
            }
            for h in Hist::ALL {
                let s = self.hist(h);
                if s.count != 0 {
                    rows.push((
                        h.name().to_string(),
                        format!("n={} mean={:.1} max<={}", s.count, s.mean(), s.approx_max()),
                        h.unit(),
                        h.subsystem(),
                    ));
                }
            }
            if rows.is_empty() {
                return "(no observations)\n".to_string();
            }
            let name_w = rows.iter().map(|r| r.0.len()).max().unwrap().max(6);
            let val_w = rows.iter().map(|r| r.1.len()).max().unwrap().max(5);
            let mut out = String::new();
            out.push_str(&format!(
                "{:<name_w$}  {:>val_w$}  {:<11}  {}\n",
                "metric", "value", "unit", "subsystem"
            ));
            for (name, value, unit, subsystem) in &rows {
                out.push_str(&format!(
                    "{name:<name_w$}  {value:>val_w$}  {unit:<11}  {subsystem}\n"
                ));
            }
            out
        }
    }
}

pub use real::{
    bucket_index, bucket_upper_bound, current_tid, Collector, HistSnapshot, Snapshot, Span,
    SpanEvent, HIST_BUCKETS,
};

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn catalog_names_are_unique_and_prefixed_by_subsystem() {
        let mut seen = HashSet::new();
        for m in Metric::ALL {
            assert!(seen.insert(m.name()), "duplicate metric name {}", m.name());
            assert!(
                m.name().starts_with(m.subsystem()),
                "{} not prefixed by {}",
                m.name(),
                m.subsystem()
            );
            assert!(!m.unit().is_empty());
        }
        for g in Gauge::ALL {
            assert!(seen.insert(g.name()), "duplicate gauge name {}", g.name());
            assert!(g.name().starts_with(g.subsystem()));
        }
        for h in Hist::ALL {
            assert!(seen.insert(h.name()), "duplicate hist name {}", h.name());
            assert!(h.name().starts_with(h.subsystem()));
        }
        assert_eq!(seen.len(), Metric::COUNT + Gauge::COUNT + Hist::COUNT);
    }

    #[test]
    fn counters_accumulate_and_propagate_to_parent() {
        let root = Collector::new();
        let child = root.child();
        child.add(Metric::ExecutedWords, 5);
        child.incr(Metric::CacheHits);
        root.add(Metric::ExecutedWords, 2);
        assert_eq!(child.get(Metric::ExecutedWords), 5);
        assert_eq!(child.get(Metric::CacheHits), 1);
        assert_eq!(root.get(Metric::ExecutedWords), 7);
        assert_eq!(root.get(Metric::CacheHits), 1);
    }

    #[test]
    fn gauges_last_write_wins_and_propagate() {
        let root = Collector::new();
        let child = root.child();
        child.set_gauge(Gauge::ElidedMass, 0.25);
        assert_eq!(child.gauge(Gauge::ElidedMass), 0.25);
        assert_eq!(root.gauge(Gauge::ElidedMass), 0.25);
        root.set_gauge(Gauge::ElidedMass, 0.5);
        assert_eq!(root.gauge(Gauge::ElidedMass), 0.5);
    }

    #[test]
    fn histogram_bucketing_is_power_of_two() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_upper_bound(0), 0);
        assert_eq!(bucket_upper_bound(2), 3);
        assert_eq!(bucket_upper_bound(64), u64::MAX);

        let c = Collector::new();
        c.observe(Hist::QueueDepth, 0);
        c.observe(Hist::QueueDepth, 3);
        c.observe(Hist::QueueDepth, 9);
        let snap = c.snapshot();
        let h = snap.hist(Hist::QueueDepth);
        assert_eq!(h.count, 3);
        assert_eq!(h.sum, 12);
        assert_eq!(h.mean(), 4.0);
        assert_eq!(h.buckets[0], 1);
        assert_eq!(h.buckets[2], 1);
        assert_eq!(h.buckets[4], 1);
        assert_eq!(h.approx_max(), 15);
    }

    #[test]
    fn disabled_collector_records_nothing() {
        let c = Collector::disabled();
        assert!(!c.is_enabled());
        c.add(Metric::ExecutedWords, 10);
        c.observe(Hist::QueueDepth, 3);
        c.set_gauge(Gauge::ElidedMass, 1.0);
        {
            let _s = c.span("dead");
        }
        assert_eq!(c.get(Metric::ExecutedWords), 0);
        assert_eq!(c.gauge(Gauge::ElidedMass), 0.0);
        assert!(c.span_events().is_empty());
        assert_eq!(c.trace_json(), "{\"traceEvents\":[]}");
    }

    #[test]
    fn spans_record_name_label_tid_and_metric() {
        let c = Collector::tracing();
        {
            let _outer = c.span_metric("outer", Metric::EstimateNanos);
            let _inner = c.labeled_span("inner", || "exp-\"x\"".to_string());
        }
        let events = c.span_events();
        assert_eq!(events.len(), 2);
        // Drop order is LIFO: inner first.
        assert_eq!(events[0].name, "inner");
        assert_eq!(events[0].label.as_deref(), Some("exp-\"x\""));
        assert_eq!(events[1].name, "outer");
        let tid = current_tid();
        assert!(events.iter().all(|e| e.tid == tid));
        // Inner is nested within outer on the timeline.
        assert!(events[0].ts_ns >= events[1].ts_ns);
        assert!(events[0].ts_ns + events[0].dur_ns <= events[1].ts_ns + events[1].dur_ns);
        assert!(c.get(Metric::EstimateNanos) >= events[1].dur_ns);
    }

    #[test]
    fn a_collector_that_keeps_no_events_still_records_span_metrics() {
        let c = Collector::new();
        let child = c.child();
        {
            let _s = child.labeled_span_metric("job", Metric::EstimateNanos, || "j".into());
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert!(c.get(Metric::EstimateNanos) >= 1_000_000);
        assert_eq!(
            child.get(Metric::EstimateNanos),
            c.get(Metric::EstimateNanos)
        );
        assert!(c.span_events().is_empty());
        assert!(child.span_events().is_empty());
        assert_eq!(c.trace_json(), "{\"traceEvents\":[]}");
    }

    #[test]
    fn trace_json_is_well_formed_and_escaped() {
        let c = Collector::tracing();
        {
            let _s = c.labeled_span("phase", || "a\\b\"c\nd".to_string());
        }
        let json = c.trace_json();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        // One metadata record for the thread plus the span itself.
        assert_eq!(json.matches("\"ph\":\"M\"").count(), 1);
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 1);
        assert!(json.contains("\"name\":\"thread_name\""));
        assert!(json.contains("\"name\":\"phase\""));
        // The label's backslash, quote and newline are escaped.
        assert!(json.contains("\"label\":\"a\\\\b\\\"c\\nd\""));
        // No raw control characters survive in the document.
        assert!(!json.chars().any(|ch| (ch as u32) < 0x20));
        // Braces balance (every event object is closed).
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn render_table_aligns_and_omits_zeros() {
        let c = Collector::new();
        c.add(Metric::ExecutedWords, 1234);
        c.incr(Metric::CacheHits);
        let table = c.snapshot().render_table();
        assert!(table.contains("engine.executed_words"));
        assert!(table.contains("1234"));
        assert!(table.contains("cache.hits"));
        assert!(!table.contains("engine.replayed_segments"));
        let header_cols = table.lines().next().unwrap();
        assert!(header_cols.contains("metric") && header_cols.contains("unit"));
    }

    #[test]
    fn snapshot_roundtrips_counters() {
        let c = Collector::new();
        for (i, m) in Metric::ALL.iter().enumerate() {
            c.add(*m, (i as u64 + 1) * 3);
        }
        let snap = c.snapshot();
        for (i, m) in Metric::ALL.iter().enumerate() {
            assert_eq!(snap.counter(*m), (i as u64 + 1) * 3);
        }
    }
}
