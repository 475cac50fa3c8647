//! Traced replays of a solve through the public step functions of
//! `faircap_core::algorithm` — Step 1 grouping, Step 2 per-group
//! evaluation + filter, Step 3 greedy — with a span around each call. The
//! fan-out, caching and ordering mirror `PrescriptionSession::solve`, so a
//! replay returns the same ruleset bit for bit; the runner checks that.

use crate::trace::Tracer;
use faircap_causal::Estimator;
use faircap_core::algorithm::greedy::{greedy_select_with_stats, GreedyOutcome};
use faircap_core::algorithm::grouping::mine_grouping_patterns_with_stats;
use faircap_core::algorithm::intervention::{evaluate_group_interventions, rules_from_evaluation};
use faircap_core::{exec, GroupEvaluation, PrescriptionSession, SolveRequest};
use faircap_table::Pattern;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Per-group Step-2 evaluations kept across replays, playing the role of
/// the session's intervention cache (keyed by grouping pattern; one
/// estimator and lattice setting per run).
pub type Evaluations = Mutex<HashMap<Pattern, Arc<GroupEvaluation>>>;

/// What a replay produced.
pub struct Replayed {
    pub outcome: GreedyOutcome,
    /// Significant positive lattice nodes over the groups evaluated in
    /// this replay.
    pub useful_nodes: usize,
}

/// Replay `request` on `session`. With `evaluations`, groups already
/// evaluated are served from it and fresh evaluations are added to it
/// (a cached solve); without, every group is evaluated (an uncached
/// solve). With a `tracer`, every call runs under a span of operation
/// `op`; without, the replay records nothing (the untraced baseline of
/// the tracing overhead).
pub fn replay(
    session: &PrescriptionSession,
    request: &SolveRequest,
    evaluations: Option<&Evaluations>,
    tracer: Option<&Tracer>,
    op: u64,
) -> faircap_core::Result<Replayed> {
    let config = &request.config;
    let estimator: &dyn Estimator = request.estimator.as_deref().unwrap_or(&config.estimator);
    let query = session.engine().with_estimator(estimator);
    let protected = session.protected_mask();
    let _solve = tracer.map(|t| t.span("solve", op));

    let (groups, _) = {
        let _step1 = tracer.map(|t| t.span("step1", op));
        mine_grouping_patterns_with_stats(session.df(), session.immutable(), protected, config)?
    };

    let step2 = tracer.map(|t| t.span("step2", op));
    let step2_id = step2.as_ref().map(|s| s.id());
    let k = config.interventions_per_group.max(1);
    let per_group = |i: usize| {
        let g = &groups[i];
        let cached =
            evaluations.and_then(|m| m.lock().expect("evaluations lock").get(&g.pattern).cloned());
        let (evaluation, useful) = match cached {
            Some(hit) => (hit, 0),
            None => {
                let _span = tracer.map(|t| t.span_under("evaluate_group", op, step2_id));
                let (evaluation, _) = evaluate_group_interventions(
                    &query,
                    &g.support,
                    protected,
                    session.mutable(),
                    config.max_intervention_len,
                    config.alpha,
                );
                let evaluation = Arc::new(evaluation);
                if let Some(m) = evaluations {
                    m.lock()
                        .expect("evaluations lock")
                        .insert(g.pattern.clone(), Arc::clone(&evaluation));
                }
                let useful = evaluation.nodes.len();
                (evaluation, useful)
            }
        };
        let _span = tracer.map(|t| t.span_under("filter", op, step2_id));
        let rules =
            rules_from_evaluation(&evaluation, &g.pattern, &g.support, protected, config, k);
        (rules, useful)
    };
    let per_group: Vec<_> = if !config.parallel || groups.len() < 2 {
        (0..groups.len()).map(per_group).collect()
    } else {
        let workers = exec::resolve_workers(request.workers);
        exec::run_work_stealing(groups.len(), workers, per_group).0
    };
    drop(step2);
    let mut candidates = Vec::new();
    let mut useful_nodes = 0;
    for (rules, useful) in per_group {
        candidates.extend(rules);
        useful_nodes += useful;
    }

    let (outcome, _) = {
        let _step3 = tracer.map(|t| t.span("step3", op));
        greedy_select_with_stats(candidates, config, session.df().n_rows(), protected)
    };
    Ok(Replayed {
        outcome,
        useful_nodes,
    })
}
