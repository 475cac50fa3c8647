//! The harness's own span tracer and the timing estimator wrapper.
//!
//! Spans are recorded only in traced runs, around the harness's calls into
//! the public functions of each layer. Each span has a name, start, end,
//! parent and the id of the operation (replayed solve, set-up rep) it
//! belongs to. Spans stay in memory and are written out when the run ends.

use crate::stats;
use faircap_causal::{Estimate, EstimateCtx, Estimator, EstimatorKind};
use faircap_core::Json;
use faircap_table::{DataFrame, Mask};
use std::cell::RefCell;
use std::collections::HashMap;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One finished span; times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub op: u64,
    pub start: u64,
    pub end: u64,
}

impl SpanRecord {
    pub fn duration(&self) -> u64 {
        self.end - self.start
    }
}

thread_local! {
    /// Open spans on this thread, innermost last: the implicit parent.
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// In-memory span recorder.
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<SpanRecord>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span whose parent is this thread's innermost open span.
    pub fn span(&self, name: &'static str, op: u64) -> SpanGuard<'_> {
        let parent = OPEN.with(|open| open.borrow().last().copied());
        self.span_under(name, op, parent)
    }

    /// Open a span under an explicit parent (a span opened on another
    /// thread, e.g. the fan-out step a worker's task belongs to).
    pub fn span_under(&self, name: &'static str, op: u64, parent: Option<u64>) -> SpanGuard<'_> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        OPEN.with(|open| open.borrow_mut().push(id));
        SpanGuard {
            tracer: self,
            id,
            parent,
            name,
            op,
            start: self.now(),
            _not_send: PhantomData,
        }
    }

    /// Every span finished so far, in finishing order.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.spans.lock().expect("span store lock").clone()
    }
}

/// An open span; records itself when dropped. Not `Send`: it must close on
/// the thread that opened it.
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    op: u64,
    start: u64,
    _not_send: PhantomData<*const ()>,
}

impl SpanGuard<'_> {
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let end = self.tracer.now();
        OPEN.with(|open| {
            let mut open = open.borrow_mut();
            if let Some(pos) = open.iter().rposition(|&id| id == self.id) {
                open.remove(pos);
            }
        });
        if let Ok(mut spans) = self.tracer.spans.lock() {
            spans.push(SpanRecord {
                id: self.id,
                parent: self.parent,
                name: self.name,
                op: self.op,
                start: self.start,
                end,
            });
        }
    }
}

/// Self time of every span (duration minus the union of its children's
/// intervals), by span id.
pub fn self_times(spans: &[SpanRecord]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start, s.end));
        }
    }
    spans
        .iter()
        .map(|s| {
            let kids = children.get(&s.id).map(Vec::as_slice).unwrap_or(&[]);
            (s.id, stats::self_time(s.start, s.end, kids))
        })
        .collect()
}

/// The spans as a JSON array (`id`, `parent`, `name`, `op`, `start_ns`,
/// `end_ns`, `self_ns`).
pub fn spans_json(spans: &[SpanRecord]) -> Json {
    let own = self_times(spans);
    Json::Arr(
        spans
            .iter()
            .map(|s| {
                Json::Obj(vec![
                    ("id".into(), Json::Num(s.id as f64)),
                    (
                        "parent".into(),
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("name".into(), Json::Str(s.name.into())),
                    ("op".into(), Json::Num(s.op as f64)),
                    ("start_ns".into(), Json::Num(s.start as f64)),
                    ("end_ns".into(), Json::Num(s.end as f64)),
                    ("self_ns".into(), Json::Num(own[&s.id] as f64)),
                ])
            })
            .collect(),
    )
}

/// An [`Estimator`] that times every estimation of the built-in estimator
/// it wraps. It keeps the inner estimator's [`name`](Estimator::name), so
/// it reads and writes the same cache entries, and it passes the engine's
/// context straight through, so estimates are unchanged. Each estimation
/// becomes an `estimate` span under the caller's innermost open span, and
/// the design-build / index-build nanoseconds the estimator reports are
/// summed.
pub struct TimingEstimator {
    inner: EstimatorKind,
    tracer: Arc<Tracer>,
    op: u64,
    build_ns: AtomicU64,
    index_ns: AtomicU64,
}

impl TimingEstimator {
    pub fn new(inner: EstimatorKind, tracer: Arc<Tracer>, op: u64) -> TimingEstimator {
        TimingEstimator {
            inner,
            tracer,
            op,
            build_ns: AtomicU64::new(0),
            index_ns: AtomicU64::new(0),
        }
    }

    /// Design-build nanoseconds summed over the wrapped estimations.
    pub fn build_ns(&self) -> u64 {
        self.build_ns.load(Ordering::Relaxed)
    }

    /// Index-build nanoseconds summed over the wrapped estimations.
    pub fn index_ns(&self) -> u64 {
        self.index_ns.load(Ordering::Relaxed)
    }
}

impl Estimator for TimingEstimator {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn estimate(
        &self,
        df: &DataFrame,
        group: &Mask,
        treated: &Mask,
        outcome: &str,
        adjustment: &[String],
    ) -> faircap_causal::Result<Estimate> {
        let _span = self.tracer.span("estimate", self.op);
        self.inner.estimate(df, group, treated, outcome, adjustment)
    }

    fn estimate_with_ctx(
        &self,
        ctx: &mut EstimateCtx<'_>,
        df: &DataFrame,
        group: &Mask,
        treated: &Mask,
        outcome: &str,
        adjustment: &[String],
    ) -> faircap_causal::Result<Estimate> {
        let (build0, index0) = (ctx.stats.build_ns, ctx.stats.index_ns);
        let result = {
            let _span = self.tracer.span("estimate", self.op);
            self.inner
                .estimate_with_ctx(ctx, df, group, treated, outcome, adjustment)
        };
        self.build_ns
            .fetch_add(ctx.stats.build_ns.saturating_sub(build0), Ordering::Relaxed);
        self.index_ns
            .fetch_add(ctx.stats.index_ns.saturating_sub(index0), Ordering::Relaxed);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faircap_causal::CateEngine;
    use faircap_table::Pattern;

    #[test]
    fn spans_nest_under_the_open_span_and_explicit_parents() {
        let tracer = Tracer::default();
        let (root_id, child_id) = {
            let root = tracer.span("root", 1);
            let child = tracer.span("child", 1);
            (root.id(), child.id())
        };
        let remote = tracer.span_under("remote", 2, Some(root_id));
        let remote_id = remote.id();
        drop(remote);
        let spans = tracer.spans();
        let by_id = |id| spans.iter().find(|s| s.id == id).unwrap();
        assert_eq!(by_id(root_id).parent, None);
        assert_eq!(by_id(child_id).parent, Some(root_id));
        assert_eq!(by_id(remote_id).parent, Some(root_id));
        let own = self_times(&spans);
        let root = by_id(root_id);
        assert!(own[&root_id] <= root.duration());
        assert_eq!(own[&child_id], by_id(child_id).duration());
    }

    /// The wrapper must be invisible to the engine: same estimates bit for
    /// bit, same cache hit/miss counts, one span per uncached estimation.
    #[test]
    fn timing_estimator_is_bit_identical_to_the_bare_estimator() {
        let ds = faircap_data::german::generate(400, 9);
        let df = Arc::new(ds.df.clone());
        let dag = Arc::new(ds.dag.clone());
        let bare = CateEngine::new(Arc::clone(&df), Arc::clone(&dag), &ds.outcome).unwrap();
        let timed = CateEngine::new(df, dag, &ds.outcome).unwrap();
        let tracer = Arc::new(Tracer::default());
        let wrapper = TimingEstimator::new(EstimatorKind::Linear, Arc::clone(&tracer), 7);
        assert_eq!(wrapper.name(), EstimatorKind::Linear.name());

        let all = Mask::ones(ds.df.n_rows());
        let protected = ds.protected.coverage(&ds.df).unwrap();
        let groups = [all.clone(), protected.clone(), all.andnot(&protected)];
        let items = faircap_mining::single_attribute_items(&ds.df, &ds.mutable, &all, 24).unwrap();
        let patterns: Vec<Pattern> = items
            .into_iter()
            .map(|(p, _)| Pattern::new(vec![p]))
            .take(12)
            .collect();
        assert!(!patterns.is_empty());
        let mut estimated = 0;
        for _round in 0..2 {
            for group in &groups {
                for p in &patterns {
                    let a = bare.cate(group, p, &EstimatorKind::Linear);
                    let b = timed.cate(group, p, &wrapper);
                    let bits = |e: Option<Estimate>| {
                        e.map(|e| {
                            (
                                e.cate.to_bits(),
                                e.std_err.to_bits(),
                                e.t_stat.to_bits(),
                                e.p_value.to_bits(),
                                e.n_treated,
                                e.n_control,
                            )
                        })
                    };
                    assert_eq!(bits(a), bits(b), "{p}");
                    estimated += usize::from(a.is_some());
                }
            }
        }
        assert!(estimated > 0, "the fixture must produce estimates");
        assert_eq!(bare.cache_stats(), timed.cache_stats());
        assert_eq!(
            bare.cache_stats_for("linear"),
            timed.cache_stats_for("linear")
        );
        let spans = tracer.spans();
        assert!(spans.iter().all(|s| s.name == "estimate" && s.op == 7));
        assert!(spans.len() as u64 <= timed.cache_stats().misses);
        assert!(!spans.is_empty());
    }
}
