//! In-flight solve coalescing: identical concurrent solve requests share
//! one underlying solve, and the single report fans out to every waiter.
//!
//! ## Key derivation
//!
//! Two requests coalesce when they target the same registered session
//! **and** their [`SolveRequest`]s render to the same strict canonical
//! JSON ([`faircap_core::wire::solve_request_to_canonical_json`]): every
//! field explicit, fixed key order, `f64`s in the bit-exact round-trip
//! encoding. The rendered string is FNV-64 hashed — cheap, and a collision
//! would require two *different* canonical renderings with equal hashes
//! targeting the same session inside the same in-flight window, at which
//! point the loser merely receives the winner's (valid, deterministically
//! produced) report for a request it did not send. Requests that override
//! the estimator with an in-process trait object have no canonical
//! rendering and are never coalesced.
//!
//! ## Cache-consistency argument
//!
//! Coalescing is sound because solves are deterministic given (session
//! state, request): the greedy selection is seeded, the CATE caches are
//! keyed on estimator+pattern and only ever *add* entries, and the report
//! a solve produces is a pure function of its inputs. Attaching a waiter
//! to a running solve therefore yields byte-for-byte the response a fresh
//! solve would have produced — this is checked end to end by the
//! bit-identity integration test.
//!
//! ## Threading
//!
//! `attach`, `abort`, and the admission decision all run on the single
//! reactor thread, so a leader's queue-full `abort` can never race a
//! follower's `attach`. Only [`Coalescer::take`] is called from solve
//! workers, under the same short mutex.

use faircap_core::session::SolveRequest;
use faircap_core::wire;
use faircap_table::fnv::FnvHasher;
use std::collections::HashMap;
use std::sync::Mutex;

/// Identity of one in-flight solve: registered session name plus the
/// FNV-64 of the request's canonical JSON.
pub type Key = (String, u64);

/// Fingerprint a solve request against a session, or `None` when the
/// request is not canonically renderable (in-process estimator override).
pub fn fingerprint(session: &str, request: &SolveRequest) -> Option<Key> {
    if request.estimator.is_some() {
        return None;
    }
    let canonical = wire::solve_request_to_canonical_json(request).render();
    let mut hasher = FnvHasher::new();
    hasher.write_str_stable(&canonical);
    Some((session.to_string(), hasher.finish64()))
}

/// Outcome of [`Coalescer::attach`].
#[derive(Debug, PartialEq, Eq)]
pub enum Attach {
    /// No identical solve is running: the caller must submit one (and
    /// [`Coalescer::abort`] on submission failure).
    Leader,
    /// An identical solve is already in flight; this waiter was added to
    /// its fan-out list.
    Attached,
}

/// Registry of in-flight solves keyed by [`Key`], each holding the waiter
/// ids to fan the finished report out to.
#[derive(Default)]
pub struct Coalescer {
    inflight: Mutex<HashMap<Key, Vec<u64>>>,
}

impl Coalescer {
    /// An empty coalescer.
    pub fn new() -> Coalescer {
        Coalescer::default()
    }

    /// Join `waiter` to the solve identified by `key`, becoming its leader
    /// if none is running.
    pub fn attach(&self, key: Key, waiter: u64) -> Attach {
        let mut inflight = self.inflight.lock().expect("coalescer lock");
        match inflight.entry(key) {
            std::collections::hash_map::Entry::Occupied(mut entry) => {
                entry.get_mut().push(waiter);
                Attach::Attached
            }
            std::collections::hash_map::Entry::Vacant(entry) => {
                entry.insert(vec![waiter]);
                Attach::Leader
            }
        }
    }

    /// Remove a key whose leader failed to submit the solve, returning the
    /// waiters collected so far (on the reactor thread this is always just
    /// the leader — no follower can attach between `attach` and `abort`).
    pub fn abort(&self, key: &Key) -> Vec<u64> {
        self.inflight
            .lock()
            .expect("coalescer lock")
            .remove(key)
            .unwrap_or_default()
    }

    /// Finish a solve: remove its key and return every waiter to fan the
    /// report out to. Later identical requests will start a fresh solve.
    pub fn take(&self, key: &Key) -> Vec<u64> {
        self.inflight
            .lock()
            .expect("coalescer lock")
            .remove(key)
            .unwrap_or_default()
    }

    /// Number of distinct solves currently in flight.
    pub fn in_flight(&self) -> usize {
        self.inflight.lock().expect("coalescer lock").len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leader_then_attached_then_taken() {
        let coalescer = Coalescer::new();
        let key: Key = ("german".into(), 42);
        assert_eq!(coalescer.attach(key.clone(), 1), Attach::Leader);
        assert_eq!(coalescer.attach(key.clone(), 2), Attach::Attached);
        assert_eq!(coalescer.attach(key.clone(), 3), Attach::Attached);
        assert_eq!(coalescer.in_flight(), 1);
        assert_eq!(coalescer.take(&key), vec![1, 2, 3]);
        assert_eq!(coalescer.in_flight(), 0);
        // After take, the same key starts fresh.
        assert_eq!(coalescer.attach(key.clone(), 9), Attach::Leader);
        assert_eq!(coalescer.abort(&key), vec![9]);
        assert!(coalescer.take(&key).is_empty());
    }

    #[test]
    fn distinct_keys_do_not_coalesce() {
        let coalescer = Coalescer::new();
        assert_eq!(coalescer.attach(("a".into(), 1), 1), Attach::Leader);
        assert_eq!(coalescer.attach(("a".into(), 2), 2), Attach::Leader);
        assert_eq!(coalescer.attach(("b".into(), 1), 3), Attach::Leader);
        assert_eq!(coalescer.in_flight(), 3);
    }

    #[test]
    fn fingerprint_normalizes_equivalent_requests() {
        let a = SolveRequest::default().max_rules(5);
        let b = SolveRequest::default().max_rules(5);
        let c = SolveRequest::default().max_rules(6);
        let fa = fingerprint("s", &a).unwrap();
        let fb = fingerprint("s", &b).unwrap();
        let fc = fingerprint("s", &c).unwrap();
        assert_eq!(fa, fb, "identical requests share a fingerprint");
        assert_ne!(fa, fc, "different max_rules must not coalesce");
        assert_ne!(
            fingerprint("other", &a).unwrap(),
            fa,
            "session name is part of the key"
        );
    }

    #[test]
    fn estimator_override_is_never_fingerprinted() {
        // A trait-object estimator has no canonical wire rendering, so the
        // request must bypass coalescing entirely.
        let request = SolveRequest::default()
            .estimator(std::sync::Arc::new(faircap_causal::EstimatorKind::Linear));
        assert!(fingerprint("s", &request).is_none());
    }
}
