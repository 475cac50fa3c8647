//! Lightweight span tracing for the solve/serve pipeline.
//!
//! A [`Trace`] owns a clock anchor (one `Instant` captured at creation)
//! and a flat list of finished [`SpanRecord`]s; every timestamp is
//! monotonic nanoseconds since that anchor, so spans from different
//! threads of the same solve compare directly. [`Span`] is a guard that
//! reserves its record slot **at open** and stamps the end time **on
//! drop** — a panicking solve still finishes every span on the unwind
//! path, which is what makes the root span's presence a drop-safety
//! invariant rather than a convention. [`SpanHandle`] is a cheap
//! cloneable address of an open span, used to parent child spans across
//! the work-stealing fan-out without thread-locals.
//!
//! Trace ids are FNV-1a–derived 64-bit values ([`Trace::derive_id`]) and
//! render as 16 lowercase hex digits for the `X-Faircap-Trace-Id` header.
//! Per-trace span count is capped ([`MAX_SPANS`]); overflow increments a
//! `dropped` counter instead of growing without bound. Because slots are
//! claimed at open, ancestors (opened first) always keep theirs — an
//! estimate-heavy solve sheds excess *leaf* spans, never the root or the
//! step spans that close last.
//!
//! [`TraceRing`] is the bounded in-memory store behind `GET /v1/trace`:
//! a FIFO ring of recent traces plus a small "slowest" set that only a
//! slower trace can evict, so the traces worth diagnosing are always
//! still there when someone looks.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Per-trace span cap; spans opened past it are counted, not stored.
/// Slots are claimed at open, so ancestors survive and excess leaves are
/// what overflow sheds.
pub const MAX_SPANS: usize = 512;

/// Spans at this depth or shallower (root = 0) bypass [`MAX_SPANS`]: the
/// request/solve/step skeleton is structurally bounded to a handful of
/// spans per trace, so guaranteeing it slots keeps an estimate-heavy
/// solve's tree navigable — overflow sheds only deep per-estimate
/// leaves, never `step3_greedy` or `respond` just because they close
/// after a thousand estimates.
pub const RESERVED_DEPTH: u32 = 2;

/// FNV-1a 64-bit offset basis (kept local so the crate stays
/// dependency-free; the constants match `faircap_table::fnv`).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(bytes: &[u8], mut hash: u64) -> u64 {
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// One finished span: half-open interval `[start_ns, end_ns]` relative to
/// the trace's clock anchor, linked to its parent by id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Span id, unique within the trace (root is 0).
    pub id: u64,
    /// Parent span id; `None` for the root.
    pub parent: Option<u64>,
    /// Span name from the fixed taxonomy (`docs/observability.md`).
    pub name: String,
    /// Start, monotonic ns since the trace anchor.
    pub start_ns: u64,
    /// End, monotonic ns since the trace anchor (`>= start_ns`).
    pub end_ns: u64,
}

struct TraceInner {
    id: u64,
    origin: Instant,
    spans: Mutex<Vec<SpanRecord>>,
    next_span: AtomicU64,
    dropped: AtomicU64,
}

impl TraceInner {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span: claim the next id and, capacity permitting, a record
    /// slot holding `[start_ns, start_ns]` until the guard drops. Opens
    /// past [`MAX_SPANS`] get no slot and count as dropped — unless the
    /// span sits at [`RESERVED_DEPTH`] or shallower, where the skeleton
    /// guarantee applies.
    fn open_span(self: &Arc<Self>, parent: Option<u64>, depth: u32, name: String) -> Span {
        let id = self.next_span.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("trace span lock");
        let slot = if spans.len() >= MAX_SPANS && depth > RESERVED_DEPTH {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            None
        } else {
            spans.push(SpanRecord {
                id,
                parent,
                name,
                start_ns,
                end_ns: start_ns,
            });
            Some(spans.len() - 1)
        };
        drop(spans);
        Span {
            inner: Arc::clone(self),
            id,
            depth,
            slot,
            start_ns,
        }
    }

    /// Stamp a reserved slot's end time (slots are append-only, so the
    /// index stays valid for the trace's lifetime).
    fn close_span(&self, slot: usize, end_ns: u64) {
        let mut spans = self.spans.lock().expect("trace span lock");
        if let Some(record) = spans.get_mut(slot) {
            record.end_ns = end_ns;
        }
    }
}

/// One in-flight trace: the clock anchor and the growing span list.
///
/// Cloning is cheap (`Arc`); every clone appends to the same trace.
#[derive(Clone)]
pub struct Trace {
    inner: Arc<TraceInner>,
}

static TRACE_COUNTER: AtomicU64 = AtomicU64::new(0);

impl Trace {
    /// A new trace with an explicit 64-bit id (e.g. parsed from an
    /// `X-Faircap-Trace-Id` request header).
    pub fn with_id(id: u64) -> Trace {
        Trace {
            inner: Arc::new(TraceInner {
                id,
                origin: Instant::now(),
                spans: Mutex::new(Vec::new()),
                next_span: AtomicU64::new(0),
                dropped: AtomicU64::new(0),
            }),
        }
    }

    /// A new trace whose id is FNV-derived from `seed` (typically the
    /// session name) and a process-wide counter, so concurrent solves on
    /// the same session still get distinct ids.
    pub fn new(seed: &str) -> Trace {
        Trace::with_id(Trace::derive_id(seed))
    }

    /// Derive a 64-bit trace id: FNV-1a over `seed` mixed with a
    /// process-wide monotonic counter.
    pub fn derive_id(seed: &str) -> u64 {
        let n = TRACE_COUNTER.fetch_add(1, Ordering::Relaxed);
        fnv1a(&n.to_le_bytes(), fnv1a(seed.as_bytes(), FNV_OFFSET))
    }

    /// The trace id.
    pub fn id(&self) -> u64 {
        self.inner.id
    }

    /// The trace id as the 16-hex-digit wire form used in
    /// `X-Faircap-Trace-Id`.
    pub fn id_hex(&self) -> String {
        format!("{:016x}", self.inner.id)
    }

    /// Parse a 16-hex-digit trace id (the wire form); `None` on anything
    /// else.
    pub fn parse_id(hex: &str) -> Option<u64> {
        let hex = hex.trim();
        (hex.len() == 16)
            .then(|| u64::from_str_radix(hex, 16).ok())
            .flatten()
    }

    /// Open the root span. Call once per trace; the returned [`Span`]
    /// records on drop like any other.
    pub fn root(&self, name: impl Into<String>) -> Span {
        self.open(name.into(), None)
    }

    fn open(&self, name: String, parent: Option<u64>) -> Span {
        self.inner.open_span(parent, 0, name)
    }

    /// Spans recorded so far, ordered by start time. Call after the root
    /// span has finished to get the complete tree.
    pub fn records(&self) -> Vec<SpanRecord> {
        let mut spans = self.inner.spans.lock().expect("trace span lock").clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }

    /// Spans dropped past the [`MAX_SPANS`] cap.
    pub fn dropped(&self) -> u64 {
        self.inner.dropped.load(Ordering::Relaxed)
    }

    /// Package the finished trace for the [`TraceRing`]. The duration is
    /// the root span's when present, else the widest recorded extent.
    pub fn finish(&self, session: &str) -> FinishedTrace {
        let spans = self.records();
        let duration_ns = spans
            .iter()
            .find(|s| s.parent.is_none())
            .map(|s| s.end_ns - s.start_ns)
            .or_else(|| spans.iter().map(|s| s.end_ns).max())
            .unwrap_or(0);
        FinishedTrace {
            id: self.id(),
            session: session.to_owned(),
            duration_ns,
            dropped: self.dropped(),
            spans,
        }
    }
}

/// An open span: its record slot is reserved at open and its end time is
/// stamped when dropped (or via [`Span::finish`]). Children created
/// after a parent finishes are rejected at the type level — both
/// constructors need a live guard or handle.
pub struct Span {
    inner: Arc<TraceInner>,
    id: u64,
    /// Tree depth (root = 0); children inherit `depth + 1`, and depths
    /// at or below [`RESERVED_DEPTH`] bypass the span cap.
    depth: u32,
    /// Reserved index into the trace's span list; `None` when the span
    /// was opened past [`MAX_SPANS`] and only counts as dropped.
    slot: Option<usize>,
    start_ns: u64,
}

impl Span {
    /// Open a child span of this one.
    pub fn child(&self, name: impl Into<String>) -> Span {
        self.inner
            .open_span(Some(self.id), self.depth + 1, name.into())
    }

    /// A cheap cloneable address of this span for parenting children from
    /// other threads. The handle stays valid after the span finishes
    /// (late children simply parent to a closed interval).
    pub fn handle(&self) -> SpanHandle {
        SpanHandle {
            inner: Arc::clone(&self.inner),
            id: self.id,
            depth: self.depth,
        }
    }

    /// Close the span now (equivalent to dropping it).
    pub fn finish(self) {}

    /// Elapsed time since the span opened, in nanoseconds.
    pub fn elapsed_ns(&self) -> u64 {
        self.inner.now_ns().saturating_sub(self.start_ns)
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(slot) = self.slot {
            self.inner.close_span(slot, self.inner.now_ns());
        }
    }
}

/// A cloneable reference to an open span, used to parent children across
/// threads (the Step-2 work-stealing fan-out) without thread-locals.
#[derive(Clone)]
pub struct SpanHandle {
    inner: Arc<TraceInner>,
    id: u64,
    depth: u32,
}

impl SpanHandle {
    /// Open a child span under the referenced span.
    pub fn child(&self, name: impl Into<String>) -> Span {
        self.inner
            .open_span(Some(self.id), self.depth + 1, name.into())
    }
}

impl std::fmt::Debug for SpanHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "SpanHandle(trace={:016x}, span={})",
            self.inner.id, self.id
        )
    }
}

/// One completed trace as stored in the [`TraceRing`] and served from
/// `GET /v1/trace`.
#[derive(Debug, Clone)]
pub struct FinishedTrace {
    /// Trace id (wire form: 16 hex digits).
    pub id: u64,
    /// Session the solve ran against.
    pub session: String,
    /// Root span duration in nanoseconds.
    pub duration_ns: u64,
    /// Spans dropped past the per-trace cap.
    pub dropped: u64,
    /// The finished spans, ordered by start time.
    pub spans: Vec<SpanRecord>,
}

/// Bounded store of recent finished traces plus a sticky set of the
/// slowest ones, so a slow solve stays inspectable after the ring of
/// recent traces has turned over.
pub struct TraceRing {
    recent_cap: usize,
    slow_cap: usize,
    inner: Mutex<RingState>,
}

#[derive(Default)]
struct RingState {
    recent: std::collections::VecDeque<FinishedTrace>,
    slow: Vec<FinishedTrace>,
}

impl TraceRing {
    /// A ring keeping the last `recent_cap` traces and the `slow_cap`
    /// slowest ever pushed.
    pub fn new(recent_cap: usize, slow_cap: usize) -> TraceRing {
        TraceRing {
            recent_cap,
            slow_cap,
            inner: Mutex::new(RingState::default()),
        }
    }

    /// Store a finished trace.
    pub fn push(&self, trace: FinishedTrace) {
        let mut state = self.inner.lock().expect("trace ring lock");
        if self.slow_cap > 0 {
            let beats = state.slow.len() < self.slow_cap
                || state.slow.iter().any(|t| t.duration_ns < trace.duration_ns);
            if beats {
                state.slow.push(trace.clone());
                state.slow.sort_by_key(|t| std::cmp::Reverse(t.duration_ns));
                state.slow.truncate(self.slow_cap);
            }
        }
        state.recent.push_back(trace);
        while state.recent.len() > self.recent_cap {
            state.recent.pop_front();
        }
    }

    /// Stored traces matching the filters, newest-recent first, slowest
    /// appended (deduplicated by trace id). `min_duration_ns` keeps only
    /// traces at least that long; `session` keeps only that session's.
    pub fn snapshot(&self, session: Option<&str>, min_duration_ns: u64) -> Vec<FinishedTrace> {
        let state = self.inner.lock().expect("trace ring lock");
        let keep = |t: &&FinishedTrace| {
            t.duration_ns >= min_duration_ns && session.is_none_or(|s| t.session == s)
        };
        let mut out: Vec<FinishedTrace> = state.recent.iter().rev().filter(keep).cloned().collect();
        for t in state.slow.iter().filter(keep) {
            if !out.iter().any(|o| o.id == t.id) {
                out.push(t.clone());
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_record_on_drop() {
        let trace = Trace::new("test");
        {
            let root = trace.root("request");
            {
                let solve = root.child("solve");
                let _leaf = solve.child("step1");
            }
            root.finish();
        }
        let spans = trace.records();
        assert_eq!(spans.len(), 3);
        let root = spans.iter().find(|s| s.parent.is_none()).unwrap();
        assert_eq!(root.name, "request");
        for s in &spans {
            assert!(s.end_ns >= s.start_ns);
            if s.parent.is_some() {
                assert!(s.start_ns >= root.start_ns && s.end_ns <= root.end_ns);
            }
        }
        let mut ids: Vec<u64> = spans.iter().map(|s| s.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), spans.len(), "span ids must be unique");
    }

    #[test]
    fn panicking_scope_still_records_the_root() {
        let trace = Trace::new("panic");
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let root = trace.root("request");
            let _child = root.child("solve");
            panic!("solve blew up");
        }));
        assert!(result.is_err());
        let spans = trace.records();
        assert_eq!(spans.len(), 2, "unwind must finish every open span");
        assert!(spans.iter().any(|s| s.parent.is_none()));
    }

    #[test]
    fn span_cap_sheds_deep_leaves_only() {
        let trace = Trace::new("cap");
        {
            let root = trace.root("request");
            let solve = root.child("solve");
            let step2 = solve.child("step2");
            // Depth-3 leaves are subject to the cap...
            for i in 0..MAX_SPANS + 10 {
                step2.child(format!("estimate{i}"));
            }
            // ...but late skeleton spans (depth ≤ RESERVED_DEPTH) are not.
            solve.child("step3").finish();
            root.child("respond").finish();
        }
        let records = trace.records();
        // 3 skeleton spans opened pre-overflow + MAX_SPANS − 3 leaves
        // fill the cap; step3 and respond land past it via reservation.
        assert_eq!(records.len(), MAX_SPANS + 2);
        assert_eq!(trace.dropped(), 13);
        for name in ["request", "solve", "step2", "step3", "respond"] {
            assert!(
                records.iter().any(|s| s.name == name),
                "skeleton span `{name}` must survive overflow"
            );
        }
    }

    #[test]
    fn trace_ids_round_trip_and_differ() {
        let a = Trace::new("german");
        let b = Trace::new("german");
        assert_ne!(a.id(), b.id());
        assert_eq!(Trace::parse_id(&a.id_hex()), Some(a.id()));
        assert_eq!(Trace::parse_id("nope"), None);
        assert_eq!(Trace::parse_id(""), None);
    }

    #[test]
    fn ring_keeps_recent_and_slowest() {
        let ring = TraceRing::new(2, 1);
        let mk = |id: u64, dur: u64| FinishedTrace {
            id,
            session: "s".into(),
            duration_ns: dur,
            dropped: 0,
            spans: Vec::new(),
        };
        ring.push(mk(1, 1_000_000)); // the slow one
        ring.push(mk(2, 10));
        ring.push(mk(3, 20));
        ring.push(mk(4, 30));
        let all = ring.snapshot(None, 0);
        let ids: Vec<u64> = all.iter().map(|t| t.id).collect();
        assert_eq!(ids, vec![4, 3, 1], "recent newest-first, slow retained");
        let slow_only = ring.snapshot(None, 500_000);
        assert_eq!(slow_only.len(), 1);
        assert_eq!(slow_only[0].id, 1);
        assert!(ring.snapshot(Some("other"), 0).is_empty());
    }
}
