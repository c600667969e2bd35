//! One `PolicyEngine` shared by several threads: its statistics and audit
//! trail stay exact, and an engine handed from thread to thread audits
//! exactly what a single-threaded engine does.

use polsec::policy::{
    AccessRequest, Action, ActionSet, AuditRecord, Condition, Effect, EntityId, EntityMatcher,
    EvalContext, Pattern, Policy, PolicyEngine, PolicySet, Rule,
};
use std::sync::Barrier;

const SUBJECTS: usize = 16;
const OBJECTS: usize = 8;
/// Subject 0's rule reads a rate, so its requests bypass the cache.
const RATE_SUBJECT: usize = 0;
/// Encodes the thread id into the low bits of every audit timestamp.
const THREAD_BITS: u64 = 4;

fn policy() -> PolicySet {
    let mut p = Policy::new("shared", 1);
    for s in 0..SUBJECTS {
        let mut rule = Rule::new(
            format!("r{s}"),
            if s.is_multiple_of(3) {
                Effect::Deny
            } else {
                Effect::Allow
            },
            ActionSet::of(&[Action::Read, Action::Write]),
            EntityMatcher::new("entry", Pattern::Exact(format!("client-{s}"))),
            EntityMatcher::new("asset", Pattern::Exact(format!("asset-{}", s % OBJECTS))),
        );
        if s == RATE_SUBJECT {
            rule = rule.when(Condition::RateAtMost {
                key: "burst".into(),
                max_per_sec: 1_000,
            });
        }
        p = p.add_rule(rule).expect("unique rule ids");
    }
    PolicySet::from_policy(p)
}

fn request(i: usize) -> AccessRequest {
    let s = i % SUBJECTS;
    AccessRequest::new(
        EntityId::new("entry", format!("client-{s}")),
        EntityId::new("asset", format!("asset-{}", (i / SUBJECTS) % (2 * OBJECTS))),
        if (i / 7).is_multiple_of(2) {
            Action::Read
        } else {
            Action::Write
        },
    )
}

#[test]
fn shared_engine_stats_and_audit_are_exact_under_threads() {
    const PER_THREAD: usize = 2_000;
    // Half the asset range has no rule, so the working set of cacheable
    // keys mixes allows, denies and defaults; each key repeats, so later
    // calls hit and first calls miss.
    let requests: Vec<AccessRequest> = (0..4 * SUBJECTS * OBJECTS).map(request).collect();
    let ctx = EvalContext::new().with_mode("normal");
    for threads in [2usize, 4, 8] {
        let engine = PolicyEngine::new(policy());
        let start = Barrier::new(threads);
        let cacheable: usize = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..threads)
                .map(|t| {
                    let (engine, requests, ctx, start) = (&engine, &requests, &ctx, &start);
                    scope.spawn(move || {
                        start.wait();
                        let mut cacheable = 0;
                        for i in 0..PER_THREAD {
                            let idx = (i * 5 + t * 11) % requests.len();
                            if idx % SUBJECTS == RATE_SUBJECT {
                                engine.observe_rate_event("burst", i as u64);
                            } else {
                                cacheable += 1;
                            }
                            let time_us = ((i as u64) << THREAD_BITS) | t as u64;
                            engine.decide_at(&requests[idx], ctx, time_us);
                        }
                        cacheable
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().expect("worker")).sum()
        });

        let total = (threads * PER_THREAD) as u64;
        let s = engine.stats();
        assert_eq!(s.decisions, total, "{threads} threads: decisions");
        assert_eq!(s.allows + s.denies, total, "{threads} threads: effects");
        assert_eq!(
            s.cache_hits + s.cache_misses,
            cacheable as u64,
            "{threads} threads"
        );
        assert!(s.cache_hits > 0 && s.cache_misses > 0 && cacheable < PER_THREAD * threads);
        assert!(
            s.allows > 0 && s.defaults > 0 && s.denies > s.defaults,
            "{s:?}"
        );
        engine.with_audit(|log| {
            assert_eq!(log.total(), total, "{threads} threads: audit total");
            assert_eq!(
                (log.allows(), log.denies(), log.defaults()),
                (s.allows, s.denies, s.defaults)
            );
            // Every decision is retained, numbered 0..total in order.
            let records: Vec<&AuditRecord> = log.records().collect();
            assert_eq!(records.len() as u64, total);
            assert!(records.iter().enumerate().all(|(i, r)| r.seq == i as u64));
            // Each thread's records keep its call order.
            for t in 0..threads as u64 {
                let calls: Vec<u64> = records
                    .iter()
                    .filter(|r| r.time_us & ((1 << THREAD_BITS) - 1) == t)
                    .map(|r| r.time_us >> THREAD_BITS)
                    .collect();
                assert_eq!(
                    calls,
                    (0..PER_THREAD as u64).collect::<Vec<_>>(),
                    "thread {t}"
                );
            }
        });
    }
}

/// Decides `calls` on `engine`, moving to a fresh thread every `k` calls.
fn decide_with_handoffs(engine: &PolicyEngine, calls: &[(AccessRequest, u64)], k: usize) {
    let ctx = EvalContext::new().with_mode("normal");
    for chunk in calls.chunks(k) {
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for (req, time_us) in chunk {
                    engine.decide_at(req, &ctx, *time_us);
                }
            });
        });
    }
}

#[test]
fn engine_handed_between_threads_audits_like_a_single_thread() {
    // The V2X ingest engines: one engine per vehicle, stepped by whichever
    // worker thread takes the vehicle in an epoch. Timestamps never
    // decrease; within an epoch several decisions share one, and the next
    // epoch starts later.
    for (k, compact) in [(1, true), (5, true), (64, true), (5, false), (300, false)] {
        let calls: Vec<(AccessRequest, u64)> = (0..1_000)
            .map(|i| (request(i * 3), (i / k) as u64 * 1_000 + (i % k / 4) as u64))
            .collect();
        let make = || {
            if compact {
                PolicyEngine::compact(policy())
            } else {
                PolicyEngine::new(policy())
            }
        };
        let single = make();
        decide_with_handoffs(&single, &calls, calls.len());
        let handed = make();
        decide_with_handoffs(&handed, &calls, k);

        let records =
            |e: &PolicyEngine| e.with_audit(|log| log.records().cloned().collect::<Vec<_>>());
        let want = records(&single);
        // The newest records, in call order, numbered up to the last call.
        let kept = if compact {
            PolicyEngine::COMPACT_AUDIT_CAPACITY
        } else {
            1_000
        };
        assert_eq!(want.len(), kept);
        assert!(want
            .iter()
            .zip(1_000 - kept..)
            .all(|(r, n)| r.seq == n as u64));
        assert!(want
            .iter()
            .zip(&calls[1_000 - kept..])
            .all(|(r, c)| r.request == c.0));
        let got = records(&handed);
        assert!(
            got == want,
            "handoff every {k} calls, compact={compact}: first difference at {:?}",
            got.iter().zip(&want).position(|(a, b)| a != b)
        );
        assert_eq!(handed.stats(), single.stats());
    }
}
