//! End-to-end serving-layer tests: session lifecycle (through expiry),
//! sharing, fairness, cancellation/deadline stops, metering conservation,
//! prefix-cache coherence under index maintenance, and a scheduling
//! golden.

use std::sync::Arc;

use rj_core::executor::RankJoinExecutor;
use rj_core::multiway::SpecExecutor;
use rj_core::oracle;
use rj_core::query::{JoinSide, RankJoinQuery};
use rj_core::score::ScoreFn;
use rj_serve::{
    BackendId, QueryPriority, RankJoinService, ServeConfig, ServeError, ServedBy, SessionId,
    SessionOutcome, SessionResult, SessionStatus, SubmitOptions, TenantId, FINISHED_GRACE_ROUNDS,
};
use rj_store::cluster::Cluster;
use rj_store::costmodel::CostModel;

/// A ~60-rows-per-side synthetic join (deterministic LCG scores, eight
/// join values) — big enough that a deep top-k query runs many ISL
/// batches.
fn fixture() -> (Cluster, RankJoinQuery) {
    let c = Cluster::new(3, CostModel::test());
    c.create_table("l", &["d"]).unwrap();
    c.create_table("r", &["d"]).unwrap();
    let client = c.client();
    let mut seed = 0x2545f4914f6cdd1du64;
    let mut next = move || {
        seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((seed >> 33) as f64) / (1u64 << 31) as f64
    };
    for (table, n) in [("l", 60usize), ("r", 64usize)] {
        for i in 0..n {
            let key = format!("{table}_{i:03}");
            let jv = vec![b'a' + (i % 8) as u8];
            let score = next();
            client
                .mutate_row(
                    table,
                    key.as_bytes(),
                    vec![
                        rj_store::cell::Mutation::put("d", b"jk", jv),
                        rj_store::cell::Mutation::put("d", b"score", score.to_be_bytes().to_vec()),
                    ],
                )
                .unwrap();
        }
    }
    let q = RankJoinQuery::new(
        JoinSide::new("l", "L", ("d", b"jk"), ("d", b"score")),
        JoinSide::new("r", "R", ("d", b"jk"), ("d", b"score")),
        3,
        ScoreFn::Sum,
    );
    (c, q)
}

/// An ISL-prepared executor over the fixture, small batches.
fn prepared_executor(c: &Cluster, q: &RankJoinQuery) -> RankJoinExecutor {
    let mut executor = RankJoinExecutor::new(c, q.clone());
    executor.isl_config = rj_core::isl::IslConfig::uniform(4);
    executor.prepare_isl().unwrap();
    executor
}

/// Service over the fixture with one registered backend.
fn serve_fixture(config: ServeConfig) -> (RankJoinService, BackendId, Cluster, RankJoinQuery) {
    let (c, q) = fixture();
    let executor = prepared_executor(&c, &q);
    let service = RankJoinService::new(config);
    let backend = service.register_backend(executor).unwrap();
    (service, backend, c, q)
}

fn test_config() -> ServeConfig {
    ServeConfig {
        round_width: 4,
        max_queue_per_tenant: 64,
        sharing: true,
        pool_threads: Some(2),
    }
}

fn done(service: &RankJoinService, id: SessionId) -> SessionResult {
    match service.poll(id).unwrap() {
        SessionStatus::Done(result) => result,
        other => panic!("session not done: {other:?}"),
    }
}

#[test]
fn single_session_matches_oracle_and_meters_exactly() {
    let (service, backend, c, q) = serve_fixture(test_config());
    let tenant = service.register_tenant("acme", 1.0).unwrap();
    let id = service
        .submit(tenant, backend, SubmitOptions::topk(3))
        .unwrap();
    assert!(matches!(service.poll(id).unwrap(), SessionStatus::Queued));
    service.run_until_idle().unwrap();
    let result = done(&service, id);
    assert_eq!(result.outcome, SessionOutcome::Complete);
    assert_eq!(result.served_by, ServedBy::Execution);
    assert_eq!(*result.results, oracle::topk(&c, &q.with_k(3)).unwrap());
    assert!(result.charged.kv_reads > 0);
    // The billing record and the tenant's fork ledger agree exactly.
    let usage = service.tenant_usage(tenant).unwrap();
    assert_eq!(result.charged.kv_reads, usage.kv_reads);
    assert_eq!(result.charged.sim_seconds, usage.sim_seconds);
}

#[test]
fn unknown_ids_are_rejected() {
    let (other_service, foreign_backend, _c, _q) = serve_fixture(test_config());
    let (full_service, backend, _c2, _q2) = serve_fixture(test_config());
    let empty = RankJoinService::new(test_config());
    let tenant = empty.register_tenant("acme", 1.0).unwrap();
    // No backend is registered on `empty`, so a foreign id misses.
    assert!(matches!(
        empty.submit(tenant, foreign_backend, SubmitOptions::topk(1)),
        Err(ServeError::UnknownBackend)
    ));
    let real = full_service.register_tenant("acme", 1.0).unwrap();
    let id = full_service
        .submit(real, backend, SubmitOptions::topk(1))
        .unwrap();
    assert!(matches!(empty.poll(id), Err(ServeError::UnknownSession)));
    assert!(matches!(
        empty.register_tenant("bad", f64::NAN),
        Err(ServeError::InvalidWeight(_))
    ));
    assert!(matches!(
        empty.register_tenant("bad", 0.0),
        Err(ServeError::InvalidWeight(_))
    ));
    drop(other_service);
}

#[test]
fn coalescing_serves_a_group_from_one_execution() {
    let (service, backend, c, q) = serve_fixture(test_config());
    let t1 = service.register_tenant("t1", 1.0).unwrap();
    let t2 = service.register_tenant("t2", 1.0).unwrap();
    let t3 = service.register_tenant("t3", 1.0).unwrap();
    let s1 = service.submit(t1, backend, SubmitOptions::topk(1)).unwrap();
    let s2 = service.submit(t2, backend, SubmitOptions::topk(4)).unwrap();
    let s3 = service.submit(t3, backend, SubmitOptions::topk(2)).unwrap();
    let report = service.run_round().unwrap();
    assert_eq!(report.dispatched, 3);
    assert_eq!(report.completed, 3);
    let counters = service.counters();
    assert_eq!(counters.executions, 1, "one execution serves the group");
    assert_eq!(counters.coalesced, 2);
    // Every session gets its own correct prefix.
    for (id, k) in [(s1, 1), (s2, 4), (s3, 2)] {
        let result = done(&service, id);
        assert_eq!(result.outcome, SessionOutcome::Complete);
        assert_eq!(*result.results, oracle::topk(&c, &q.with_k(k)).unwrap());
    }
    // Only the deepest session (the leader) paid; followers were free.
    assert!(service.tenant_usage(t2).unwrap().kv_reads > 0);
    assert_eq!(service.tenant_usage(t1).unwrap().kv_reads, 0);
    assert_eq!(service.tenant_usage(t3).unwrap().kv_reads, 0);
    assert_eq!(done(&service, s2).served_by, ServedBy::Execution);
    assert_eq!(done(&service, s1).served_by, ServedBy::SharedExecution);
    assert_eq!(done(&service, s3).served_by, ServedBy::SharedExecution);
}

#[test]
fn sharing_off_runs_every_session() {
    let mut config = test_config();
    config.sharing = false;
    let (service, backend, _c, _q) = serve_fixture(config);
    let t1 = service.register_tenant("t1", 1.0).unwrap();
    let t2 = service.register_tenant("t2", 1.0).unwrap();
    service.submit(t1, backend, SubmitOptions::topk(1)).unwrap();
    service.submit(t2, backend, SubmitOptions::topk(4)).unwrap();
    service.run_round().unwrap();
    let counters = service.counters();
    assert_eq!(counters.executions, 2);
    assert_eq!(counters.coalesced, 0);
    assert_eq!(counters.cache_hits, 0);
    assert!(service.tenant_usage(t1).unwrap().kv_reads > 0);
    assert!(service.tenant_usage(t2).unwrap().kv_reads > 0);
}

#[test]
fn prefix_cache_serves_shallower_later_queries_free() {
    let (service, backend, c, q) = serve_fixture(test_config());
    let tenant = service.register_tenant("acme", 1.0).unwrap();
    let deep = service
        .submit(tenant, backend, SubmitOptions::topk(5))
        .unwrap();
    service.run_until_idle().unwrap();
    assert_eq!(done(&service, deep).outcome, SessionOutcome::Complete);
    let paid = service.tenant_usage(tenant).unwrap().kv_reads;
    let shallow = service
        .submit(tenant, backend, SubmitOptions::topk(2))
        .unwrap();
    service.run_round().unwrap();
    let result = done(&service, shallow);
    assert_eq!(result.outcome, SessionOutcome::Complete);
    assert_eq!(result.served_by, ServedBy::PrefixCache);
    assert_eq!(result.charged.kv_reads, 0);
    assert_eq!(*result.results, oracle::topk(&c, &q.with_k(2)).unwrap());
    assert_eq!(service.counters().cache_hits, 1);
    assert_eq!(
        service.tenant_usage(tenant).unwrap().kv_reads,
        paid,
        "a cache hit reads nothing new"
    );
}

#[test]
fn cancelling_a_queued_session_is_free_and_immediate() {
    let (service, backend, _c, _q) = serve_fixture(test_config());
    let tenant = service.register_tenant("acme", 1.0).unwrap();
    let id = service
        .submit(tenant, backend, SubmitOptions::topk(3))
        .unwrap();
    service.cancel(id).unwrap();
    let result = done(&service, id);
    assert_eq!(result.outcome, SessionOutcome::Cancelled);
    assert_eq!(result.served_by, ServedBy::Unserved);
    assert_eq!(result.charged.kv_reads, 0);
    assert_eq!(service.tenant_usage(tenant).unwrap().kv_reads, 0);
    // The queue slot is released: the tenant can fill its queue again.
    for _ in 0..test_config().max_queue_per_tenant {
        service
            .submit(tenant, backend, SubmitOptions::topk(1))
            .unwrap();
    }
}

#[test]
fn mid_query_cancellation_charges_only_the_consumed_prefix() {
    let mut config = test_config();
    config.sharing = false; // the reference run must not serve the stopper
    let (service, backend, _c, _q) = serve_fixture(config);
    let full = service.register_tenant("full", 1.0).unwrap();
    let stopper = service.register_tenant("stopper", 1.0).unwrap();
    // Reference: the same deep query run to completion by another tenant.
    let ref_id = service
        .submit(full, backend, SubmitOptions::topk(50))
        .unwrap();
    service.run_until_idle().unwrap();
    assert_eq!(done(&service, ref_id).outcome, SessionOutcome::Complete);
    let full_cost = service.tenant_usage(full).unwrap();
    // The stopper cancels after 2 batches, mid-query.
    let mut opts = SubmitOptions::topk(50);
    opts.cancel_after_batches = Some(2);
    let id = service.submit(stopper, backend, opts).unwrap();
    service.run_round().unwrap();
    let result = done(&service, id);
    assert_eq!(result.outcome, SessionOutcome::Cancelled);
    let prefix_cost = service.tenant_usage(stopper).unwrap();
    assert!(prefix_cost.kv_reads > 0, "the consumed prefix is billed");
    assert!(
        prefix_cost.kv_reads < full_cost.kv_reads,
        "a cancelled query must charge less than a full one ({} vs {})",
        prefix_cost.kv_reads,
        full_cost.kv_reads
    );
    // Billing record == fork ledger, exactly.
    assert_eq!(result.charged.kv_reads, prefix_cost.kv_reads);
    assert_eq!(result.charged.sim_seconds, prefix_cost.sim_seconds);
    assert_eq!(service.counters().cancelled, 1);
}

#[test]
fn cancelled_runs_never_populate_the_prefix_cache() {
    let (service, backend, c, q) = serve_fixture(test_config());
    let tenant = service.register_tenant("acme", 1.0).unwrap();
    let mut opts = SubmitOptions::topk(50);
    opts.cancel_after_batches = Some(1);
    let id = service.submit(tenant, backend, opts).unwrap();
    service.run_round().unwrap();
    assert_eq!(done(&service, id).outcome, SessionOutcome::Cancelled);
    // A later shallow query must execute — the stopped run's unverified
    // candidates are not servable state.
    let shallow = service
        .submit(tenant, backend, SubmitOptions::topk(1))
        .unwrap();
    service.run_round().unwrap();
    let result = done(&service, shallow);
    assert_eq!(result.outcome, SessionOutcome::Complete);
    assert_eq!(result.served_by, ServedBy::Execution);
    assert_eq!(service.counters().cache_hits, 0);
    assert_eq!(*result.results, oracle::topk(&c, &q.with_k(1)).unwrap());
}

#[test]
fn deadline_expiry_stops_at_batch_boundary_and_bills_prefix() {
    let mut config = test_config();
    config.sharing = false;
    let (service, backend, _c, _q) = serve_fixture(config);
    let full = service.register_tenant("full", 1.0).unwrap();
    let bounded = service.register_tenant("bounded", 1.0).unwrap();
    let ref_id = service
        .submit(full, backend, SubmitOptions::topk(50))
        .unwrap();
    service.run_until_idle().unwrap();
    assert_eq!(done(&service, ref_id).outcome, SessionOutcome::Complete);
    let full_cost = service.tenant_usage(full).unwrap();
    let opts = SubmitOptions::topk(50).with_deadline(full_cost.sim_seconds / 2.0);
    let id = service.submit(bounded, backend, opts).unwrap();
    service.run_round().unwrap();
    let result = done(&service, id);
    assert_eq!(result.outcome, SessionOutcome::DeadlineExpired);
    let cost = service.tenant_usage(bounded).unwrap();
    assert!(cost.kv_reads > 0 && cost.kv_reads < full_cost.kv_reads);
    assert_eq!(result.charged.kv_reads, cost.kv_reads);
    assert_eq!(service.counters().deadline_expired, 1);
}

#[test]
fn stopped_leader_requeues_followers_who_then_complete() {
    let (service, backend, c, q) = serve_fixture(test_config());
    let t1 = service.register_tenant("t1", 1.0).unwrap();
    let t2 = service.register_tenant("t2", 1.0).unwrap();
    // The deepest session (the would-be leader) dies after one batch...
    let mut leader_opts = SubmitOptions::topk(50);
    leader_opts.cancel_after_batches = Some(1);
    let leader = service.submit(t1, backend, leader_opts).unwrap();
    let follower = service.submit(t2, backend, SubmitOptions::topk(2)).unwrap();
    let report = service.run_round().unwrap();
    assert_eq!(report.requeued, 1, "follower goes back to the queue");
    assert_eq!(done(&service, leader).outcome, SessionOutcome::Cancelled);
    assert!(matches!(
        service.poll(follower).unwrap(),
        SessionStatus::Queued
    ));
    // ...and the follower completes correctly on a later round.
    service.run_until_idle().unwrap();
    let result = done(&service, follower);
    assert_eq!(result.outcome, SessionOutcome::Complete);
    assert_eq!(*result.results, oracle::topk(&c, &q.with_k(2)).unwrap());
}

#[test]
fn priority_classes_are_strict() {
    let mut config = test_config();
    config.round_width = 1;
    let (service, backend, _c, _q) = serve_fixture(config);
    let tenant = service.register_tenant("acme", 1.0).unwrap();
    let bg = service
        .submit(
            tenant,
            backend,
            SubmitOptions::topk(2).with_priority(QueryPriority::Background),
        )
        .unwrap();
    let fg = service
        .submit(tenant, backend, SubmitOptions::topk(3))
        .unwrap();
    service.run_round().unwrap();
    assert!(
        matches!(service.poll(fg).unwrap(), SessionStatus::Done(_)),
        "the later interactive session is served first"
    );
    assert!(matches!(service.poll(bg).unwrap(), SessionStatus::Queued));
}

#[test]
fn admission_rejects_past_the_queue_bound() {
    let mut config = test_config();
    config.max_queue_per_tenant = 2;
    let (service, backend, _c, _q) = serve_fixture(config);
    let tenant = service.register_tenant("acme", 1.0).unwrap();
    service
        .submit(tenant, backend, SubmitOptions::topk(1))
        .unwrap();
    service
        .submit(tenant, backend, SubmitOptions::topk(1))
        .unwrap();
    match service.submit(tenant, backend, SubmitOptions::topk(1)) {
        Err(ServeError::QueueFull { tenant }) => assert_eq!(tenant, "acme"),
        other => panic!("expected QueueFull, got {other:?}"),
    }
    assert_eq!(service.counters().rejected, 1);
}

#[test]
fn weighted_fairness_serves_proportionally() {
    let mut config = test_config();
    config.round_width = 1;
    config.sharing = false; // every session must pay for fairness to bite
    let (service, backend, _c, _q) = serve_fixture(config);
    let heavy = service.register_tenant("heavy", 2.0).unwrap();
    let light = service.register_tenant("light", 1.0).unwrap();
    let per_tenant = 12;
    let mut heavy_ids = Vec::new();
    let mut light_ids = Vec::new();
    for _ in 0..per_tenant {
        heavy_ids.push(
            service
                .submit(heavy, backend, SubmitOptions::topk(3))
                .unwrap(),
        );
    }
    for _ in 0..per_tenant {
        light_ids.push(
            service
                .submit(light, backend, SubmitOptions::topk(3))
                .unwrap(),
        );
    }
    let completions = |ids: &[SessionId]| {
        ids.iter()
            .filter(|id| matches!(service.poll(**id).unwrap(), SessionStatus::Done(_)))
            .count()
    };
    // Run until the heavy tenant drains; the light tenant should have
    // received about half as much service by then (weight 2 vs 1).
    let mut rounds = 0;
    while completions(&heavy_ids) < per_tenant {
        service.run_round().unwrap();
        rounds += 1;
        assert!(rounds < 100, "fairness loop did not converge");
    }
    let light_done = completions(&light_ids) as i64;
    let expected = (per_tenant / 2) as i64;
    assert!(
        (light_done - expected).abs() <= 2,
        "weight-2 vs weight-1: light finished {light_done}, expected ~{expected}"
    );
}

#[test]
fn metered_work_is_conserved() {
    let (service, backend, _c, _q) = serve_fixture(test_config());
    let tenants: Vec<_> = (0..3)
        .map(|i| {
            service
                .register_tenant(&format!("t{i}"), 1.0 + i as f64)
                .unwrap()
        })
        .collect();
    for round in 0..4 {
        for (i, t) in tenants.iter().enumerate() {
            let mut opts = SubmitOptions::topk(1 + (round + i) % 5);
            if (round + i) % 3 == 0 {
                opts.cancel_after_batches = Some(1);
            }
            service.submit(*t, backend, opts).unwrap();
        }
        service.run_round().unwrap();
    }
    service.run_until_idle().unwrap();
    // Ledgers (ground truth) == billing records, per tenant and in total:
    // every read the cluster performed was billed to exactly one session.
    let mut ledger_sum = 0u64;
    for t in &tenants {
        let usage = service.tenant_usage(*t).unwrap();
        let charged = service.tenant_charged(*t).unwrap();
        assert_eq!(usage.kv_reads, charged.kv_reads);
        assert!((usage.sim_seconds - charged.sim_seconds).abs() < 1e-9);
        ledger_sum += usage.kv_reads;
    }
    let total = service.total_usage();
    let billed = service.charged_total();
    assert_eq!(total.kv_reads, ledger_sum);
    assert_eq!(total.kv_reads, billed.kv_reads);
    assert!((total.sim_seconds - billed.sim_seconds).abs() < 1e-9);
}

#[test]
fn rebuild_invalidates_the_prefix_cache_coherently() {
    let (service, backend, c, q) = serve_fixture(test_config());
    let tenant = service.register_tenant("acme", 1.0).unwrap();
    let deep = service
        .submit(tenant, backend, SubmitOptions::topk(5))
        .unwrap();
    service.run_until_idle().unwrap();
    assert_eq!(done(&service, deep).outcome, SessionOutcome::Complete);
    // Write new base data and rebuild the index in the maintenance batch.
    let client = c.client();
    client
        .mutate_row(
            "l",
            b"l_new",
            vec![
                rj_store::cell::Mutation::put("d", b"jk", b"a".to_vec()),
                rj_store::cell::Mutation::put("d", b"score", 0.99f64.to_be_bytes().to_vec()),
            ],
        )
        .unwrap();
    service.schedule_rebuild(backend).unwrap();
    service.run_round().unwrap();
    assert_eq!(service.counters().maintenance_runs, 1);
    // The old prefix MUST NOT serve: the answer changed.
    let fresh = service
        .submit(tenant, backend, SubmitOptions::topk(3))
        .unwrap();
    service.run_round().unwrap();
    let result = done(&service, fresh);
    assert_eq!(
        result.served_by,
        ServedBy::Execution,
        "stale prefix refused"
    );
    assert_eq!(service.counters().cache_hits, 0);
    assert_eq!(*result.results, oracle::topk(&c, &q.with_k(3)).unwrap());
}

#[test]
fn stats_version_bump_blocks_stale_prefix_service() {
    // The maintained-write path invalidates prefixes through the shared
    // statistics handle's version counter; simulate the bump directly.
    let (c, q) = fixture();
    let executor = prepared_executor(&c, &q);
    let stats = executor.stats_handle();
    let service = RankJoinService::new(test_config());
    let backend = service.register_backend(executor).unwrap();
    let tenant = service.register_tenant("acme", 1.0).unwrap();
    let deep = service
        .submit(tenant, backend, SubmitOptions::topk(5))
        .unwrap();
    service.run_until_idle().unwrap();
    assert_eq!(done(&service, deep).outcome, SessionOutcome::Complete);
    stats.invalidate(); // what any maintained write does, minus the write
    let shallow = service
        .submit(tenant, backend, SubmitOptions::topk(2))
        .unwrap();
    service.run_round().unwrap();
    assert_eq!(done(&service, shallow).served_by, ServedBy::Execution);
    assert_eq!(service.counters().cache_hits, 0);
}

#[test]
fn paged_session_pages_through_at_no_extra_total_cost() {
    let mut config = test_config();
    config.sharing = false; // isolate costs: no cache or warm-start reuse
    let (service, backend, c, q) = serve_fixture(config);
    let oneshot = service.register_tenant("oneshot", 1.0).unwrap();
    let pager = service.register_tenant("pager", 1.0).unwrap();
    // Reference: the same k=50 query run in one dispatch.
    let ref_id = service
        .submit(oneshot, backend, SubmitOptions::topk(50))
        .unwrap();
    service.run_until_idle().unwrap();
    assert_eq!(done(&service, ref_id).outcome, SessionOutcome::Complete);
    let full_cost = service.tenant_usage(oneshot).unwrap();

    // Page through the same query 10 ranks at a time.
    let id = service
        .submit(pager, backend, SubmitOptions::topk(50).with_page_size(10))
        .unwrap();
    service.run_round().unwrap();
    let mut pages = 1;
    let result = loop {
        match service.poll(id).unwrap() {
            SessionStatus::Paged(info) => {
                assert_eq!(info.results.len(), pages * 10, "page certifies 10 more");
                service.next_page(info.token).unwrap();
                pages += 1;
            }
            SessionStatus::Done(result) => break result,
            other => panic!("unexpected status {other:?}"),
        }
    };
    assert_eq!(result.outcome, SessionOutcome::Complete);
    assert_eq!(result.served_by, ServedBy::Execution);
    assert_eq!(*result.results, oracle::topk(&c, &q.with_k(50)).unwrap());
    assert_eq!(pages, 5, "50 ranks at 10 per page");
    assert_eq!(service.counters().pages_served, 5);
    // The acceptance bound: pausing and resuming never re-reads the
    // consumed prefix, so paging costs no more than the one-shot run.
    let paged_cost = service.tenant_usage(pager).unwrap();
    assert!(
        paged_cost.kv_reads <= full_cost.kv_reads,
        "paging k=50 read {} kv entries, one-shot read {}",
        paged_cost.kv_reads,
        full_cost.kv_reads
    );
    // Billing record == fork ledger, exactly, summed over all pages.
    assert_eq!(result.charged.kv_reads, paged_cost.kv_reads);
    assert!((result.charged.sim_seconds - paged_cost.sim_seconds).abs() < 1e-9);
}

#[test]
fn paged_session_can_be_cancelled_between_pages() {
    let (service, backend, _c, _q) = serve_fixture(test_config());
    let tenant = service.register_tenant("acme", 1.0).unwrap();
    let id = service
        .submit(tenant, backend, SubmitOptions::topk(40).with_page_size(5))
        .unwrap();
    service.run_round().unwrap();
    let SessionStatus::Paged(info) = service.poll(id).unwrap() else {
        panic!("session should be parked after its first page");
    };
    service.cancel(id).unwrap();
    let result = done(&service, id);
    assert_eq!(result.outcome, SessionOutcome::Cancelled);
    // Billed exactly the pages served; the certified prefix is kept.
    assert_eq!(result.results.len(), 5);
    assert!(result.charged.kv_reads > 0);
    assert_eq!(
        result.charged.kv_reads,
        service.tenant_usage(tenant).unwrap().kv_reads
    );
    // The old continuation is dead.
    assert!(matches!(
        service.next_page(info.token),
        Err(ServeError::InvalidContinuation)
    ));
}

#[test]
fn stale_continuation_is_refused_with_typed_error() {
    let (c, q) = fixture();
    let executor = prepared_executor(&c, &q);
    let stats = executor.stats_handle();
    let service = RankJoinService::new(test_config());
    let backend = service.register_backend(executor).unwrap();
    let tenant = service.register_tenant("acme", 1.0).unwrap();
    let id = service
        .submit(tenant, backend, SubmitOptions::topk(20).with_page_size(5))
        .unwrap();
    service.run_round().unwrap();
    let SessionStatus::Paged(info) = service.poll(id).unwrap() else {
        panic!("session should be parked after its first page");
    };
    // What any maintained write or rebuild does to the shared handle.
    stats.invalidate();
    match service.next_page(info.token) {
        Err(ServeError::StaleContinuation { expected, found }) => {
            assert!(found > expected, "version moved forward");
        }
        other => panic!("expected StaleContinuation, got {other:?}"),
    }
    // The session failed terminally; the dead token no longer resolves.
    let result = done(&service, id);
    assert!(matches!(result.outcome, SessionOutcome::Failed(_)));
    assert!(matches!(
        service.next_page(info.token),
        Err(ServeError::InvalidContinuation)
    ));
}

#[test]
fn staleness_bound_crossing_enqueues_automatic_rebuild() {
    // Through both doors: the binary executor, and the spec executor over
    // the query's two-side spec.
    for spec_door in [false, true] {
        let (c, q) = fixture();
        let prime = |executor: &RankJoinExecutor| {
            executor.plan().unwrap(); // prime the maintained snapshot
            executor.stats_handle()
        };
        let service = RankJoinService::new(test_config());
        let (backend, stats) = if spec_door {
            let mut executor = SpecExecutor::new(&c, q.to_spec());
            executor.isl_config = rj_core::isl::IslConfig::uniform(4);
            executor.prepare().unwrap();
            let stats = prime(&executor);
            (service.register_backend(executor).unwrap(), stats)
        } else {
            let executor = prepared_executor(&c, &q);
            let stats = prime(&executor);
            (service.register_backend(executor).unwrap(), stats)
        };
        let side = rj_core::maintenance::MaintainedSide::new(&c, q.left.clone())
            .with_isl(&rj_core::isl::index_table_name(&q))
            .with_stats(stats.clone());
        let tenant = service.register_tenant("acme", 1.0).unwrap();

        // Below the bound (1 of 60 left tuples): no automatic rebuild.
        side.insert(b"m_000", b"a", 0.91, vec![]).unwrap();
        let below = service
            .submit(tenant, backend, SubmitOptions::topk(2))
            .unwrap();
        service.run_until_idle().unwrap();
        assert_eq!(done(&service, below).outcome, SessionOutcome::Complete);
        assert_eq!(service.counters().staleness_rebuilds, 0);
        assert_eq!(service.counters().maintenance_runs, 0);

        // Cross the bound (7 of 60 ≈ 12% > 10%): the next round enqueues
        // and runs the rebuild in its maintenance batch.
        for i in 1..7u32 {
            let key = format!("m_{i:03}");
            side.insert(key.as_bytes(), b"b", 0.5 + f64::from(i) * 0.05, vec![])
                .unwrap();
        }
        assert!(stats.is_stale());
        service.run_round().unwrap();
        let counters = service.counters();
        assert_eq!(counters.staleness_rebuilds, 1, "spec door: {spec_door}");
        assert_eq!(counters.maintenance_runs, 1, "spec door: {spec_door}");
        // The rebuild re-collected statistics: the staleness clock
        // restarted, so the trigger stays quiet until new churn
        // accumulates.
        assert_eq!(stats.staleness(), 0.0);
        service.run_round().unwrap();
        assert_eq!(service.counters().staleness_rebuilds, 1);
        // And the served answers reflect the maintained writes.
        let fresh = service
            .submit(tenant, backend, SubmitOptions::topk(3))
            .unwrap();
        service.run_until_idle().unwrap();
        let result = done(&service, fresh);
        assert_eq!(result.outcome, SessionOutcome::Complete);
        assert_eq!(*result.results, oracle::topk(&c, &q.with_k(3)).unwrap());
    }
}

#[test]
fn donated_cursor_state_warm_starts_deeper_queries() {
    // Control: the cold cost of a k=50 run, on an identical fixture.
    let (cold_service, cold_backend, _cc, _cq) = serve_fixture(test_config());
    let cold_tenant = cold_service.register_tenant("cold", 1.0).unwrap();
    let cold_id = cold_service
        .submit(cold_tenant, cold_backend, SubmitOptions::topk(50))
        .unwrap();
    cold_service.run_until_idle().unwrap();
    assert_eq!(
        done(&cold_service, cold_id).outcome,
        SessionOutcome::Complete
    );
    let cold_cost = cold_service.tenant_usage(cold_tenant).unwrap();

    // Treatment: a cancelled k=50 run donates its descent state; the
    // retry warm-starts from it and pays only the remainder.
    let (service, backend, c, q) = serve_fixture(test_config());
    let tenant = service.register_tenant("acme", 1.0).unwrap();
    let mut opts = SubmitOptions::topk(50);
    opts.cancel_after_batches = Some(2);
    let stopped = service.submit(tenant, backend, opts).unwrap();
    service.run_round().unwrap();
    assert_eq!(done(&service, stopped).outcome, SessionOutcome::Cancelled);
    let stopped_cost = service.tenant_usage(tenant).unwrap();
    assert!(stopped_cost.kv_reads > 0);

    let retry = service
        .submit(tenant, backend, SubmitOptions::topk(50))
        .unwrap();
    service.run_until_idle().unwrap();
    let result = done(&service, retry);
    assert_eq!(result.outcome, SessionOutcome::Complete);
    assert_eq!(*result.results, oracle::topk(&c, &q.with_k(50)).unwrap());
    assert_eq!(service.counters().warm_starts, 1);
    let warm_reads = service.tenant_usage(tenant).unwrap().kv_reads - stopped_cost.kv_reads;
    assert!(
        warm_reads < cold_cost.kv_reads,
        "warm-started k=50 read {} kv entries, cold read {}",
        warm_reads,
        cold_cost.kv_reads
    );
}

/// A warm start is a run of its own: its batch budget counts the
/// batches it runs, not the donor's. A cold k = 50 session with a budget
/// of 3 runs 3 batches and donates its state; a retry with the same
/// budget warm-starts from it and runs 3 more (4 rows each, alternating
/// sides) before it too is cancelled.
#[test]
fn a_warm_start_counts_only_its_own_batches() {
    let (service, backend, _c, _q) = serve_fixture(test_config());
    let tenant = service.register_tenant("acme", 1.0).unwrap();
    let budgeted = || {
        let mut opts = SubmitOptions::topk(50);
        opts.cancel_after_batches = Some(3);
        opts
    };
    let mut depths = Vec::new();
    for warm_starts in [0, 1] {
        let id = service.submit(tenant, backend, budgeted()).unwrap();
        service.run_round().unwrap();
        assert_eq!(done(&service, id).outcome, SessionOutcome::Cancelled);
        assert_eq!(service.counters().warm_starts, warm_starts);
        let (depth, _) = service.warm_donor(backend).unwrap().unwrap();
        depths.push(depth);
    }
    assert_eq!(depths, [12, 24], "3 batches of 4 rows per run");
}

/// Two sessions in turn warm-start from one cached donor, a paged
/// session's completed k=50 descent (a paged session donates no prefix
/// entry, so neither is a cache hit). Each runs on its own copy of the
/// shared state: each answers the oracle, both are billed the same (no
/// reads: the donor went deeper than either `k`), and the cached donor
/// keeps its depth and version.
#[test]
fn warm_starts_from_one_shared_donor_never_change_it() {
    let (service, backend, c, q) = serve_fixture(test_config());
    let tenant = service.register_tenant("acme", 1.0).unwrap();
    let paged = service
        .submit(tenant, backend, SubmitOptions::topk(50).with_page_size(25))
        .unwrap();
    service.run_round().unwrap();
    while let SessionStatus::Paged(info) = service.poll(paged).unwrap() {
        service.next_page(info.token).unwrap();
    }
    assert_eq!(done(&service, paged).outcome, SessionOutcome::Complete);
    let donor = service.warm_donor(backend).unwrap();
    assert!(donor.is_some_and(|(depth, _)| depth > 0));

    let mut charged = Vec::new();
    for (warm_starts, k) in [(1, 10), (2, 20)] {
        let id = service
            .submit(tenant, backend, SubmitOptions::topk(k))
            .unwrap();
        service.run_until_idle().unwrap();
        let result = done(&service, id);
        assert_eq!(result.served_by, ServedBy::Execution);
        assert_eq!(service.counters().warm_starts, warm_starts);
        assert_eq!(*result.results, oracle::topk(&c, &q.with_k(k)).unwrap());
        charged.push(result.charged);
        assert_eq!(service.warm_donor(backend).unwrap(), donor, "k = {k}");
    }
    assert_eq!(charged[0], charged[1]);
    assert_eq!(charged[0].kv_reads, 0);
}

#[test]
fn donated_warm_state_is_never_used_across_a_stats_version_bump() {
    let (c, q) = fixture();
    let executor = prepared_executor(&c, &q);
    let stats = executor.stats_handle();
    let service = RankJoinService::new(test_config());
    let backend = service.register_backend(executor).unwrap();
    let tenant = service.register_tenant("acme", 1.0).unwrap();
    let mut opts = SubmitOptions::topk(50);
    opts.cancel_after_batches = Some(2);
    let stopped = service.submit(tenant, backend, opts).unwrap();
    service.run_round().unwrap();
    assert_eq!(done(&service, stopped).outcome, SessionOutcome::Cancelled);

    stats.invalidate(); // what any maintained write does, minus the write
    let retry = service
        .submit(tenant, backend, SubmitOptions::topk(50))
        .unwrap();
    service.run_until_idle().unwrap();
    let result = done(&service, retry);
    assert_eq!(result.outcome, SessionOutcome::Complete);
    assert_eq!(result.served_by, ServedBy::Execution);
    assert_eq!(service.counters().warm_starts, 0);
    assert_eq!(*result.results, oracle::topk(&c, &q.with_k(50)).unwrap());
}

/// A small three-table path join (A–B–C on one shared join column set)
/// for the multi-way serving tests.
fn three_way_fixture() -> (Cluster, rj_core::query::JoinSpec) {
    let c = Cluster::new(3, CostModel::test());
    for t in ["ta", "tb", "tc"] {
        c.create_table(t, &["d"]).unwrap();
    }
    let client = c.client();
    let mut seed = 0x9e3779b97f4a7c15u64;
    let mut next = move || {
        seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((seed >> 33) as f64) / (1u64 << 31) as f64
    };
    for (table, n) in [("ta", 18usize), ("tb", 16), ("tc", 17)] {
        for i in 0..n {
            let key = format!("{table}_{i:03}");
            let jv = vec![b'a' + (i % 5) as u8];
            let score = next();
            client
                .mutate_row(
                    table,
                    key.as_bytes(),
                    vec![
                        rj_store::cell::Mutation::put("d", b"jk", jv),
                        rj_store::cell::Mutation::put("d", b"score", score.to_be_bytes().to_vec()),
                    ],
                )
                .unwrap();
        }
    }
    let sides = vec![
        JoinSide::new("ta", "A", ("d", b"jk"), ("d", b"score")),
        JoinSide::new("tb", "B", ("d", b"jk"), ("d", b"score")),
        JoinSide::new("tc", "C", ("d", b"jk"), ("d", b"score")),
    ];
    let spec = rj_core::query::JoinSpec::path(sides, 5, rj_core::score::ScoreFn::Sum).unwrap();
    (c, spec)
}

#[test]
fn equivalent_registrations_share_one_backend() {
    let (c, q) = fixture();
    let service = RankJoinService::new(test_config());
    let b1 = service.register_backend(prepared_executor(&c, &q)).unwrap();
    let b2 = service.register_backend(prepared_executor(&c, &q)).unwrap();
    assert_eq!(b1, b2, "same spec + same config must dedupe");
    // A different execution config is a different share key.
    let mut other = prepared_executor(&c, &q);
    other.isl_config = rj_core::isl::IslConfig::uniform(8);
    let b3 = service.register_backend(other).unwrap();
    assert_ne!(b1, b3, "different execution config must not share");
}

#[test]
fn spec_backend_serves_three_way_sessions() {
    let (c, spec) = three_way_fixture();
    let mut exec = SpecExecutor::new(&c, spec.clone());
    exec.prepare().unwrap();
    let service = RankJoinService::new(test_config());
    let backend = service.register_backend(exec).unwrap();
    let tenant = service.register_tenant("acme", 1.0).unwrap();
    let id = service
        .submit(tenant, backend, SubmitOptions::topk(5))
        .unwrap();
    service.run_until_idle().unwrap();
    let result = done(&service, id);
    assert_eq!(result.outcome, SessionOutcome::Complete);
    assert_eq!(result.served_by, ServedBy::Execution);
    assert_eq!(
        *result.results,
        rj_core::oracle::topk_spec(&c, &spec.with_k(5)).unwrap()
    );
    assert!(result.charged.kv_reads > 0);

    // A shallower follow-up is served from the prefix cache for free.
    let id2 = service
        .submit(tenant, backend, SubmitOptions::topk(3))
        .unwrap();
    service.run_until_idle().unwrap();
    let r2 = done(&service, id2);
    assert_eq!(r2.served_by, ServedBy::PrefixCache);
    assert_eq!(
        *r2.results,
        rj_core::oracle::topk_spec(&c, &spec.with_k(3)).unwrap()
    );
    assert_eq!(r2.charged.kv_reads, 0);
}

/// Nothing plans from a three-way backend's statistics, so nothing
/// collects them: churn past the staleness bound leaves the handle
/// un-primed and enqueues no rebuild, and the maintained writes are still
/// served (the version they move retires the cached answer).
#[test]
fn a_three_way_backend_past_the_bound_enqueues_no_rebuild() {
    let (c, spec) = three_way_fixture();
    let mut exec = SpecExecutor::new(&c, spec.clone());
    exec.prepare().unwrap();
    let stats = exec.stats_handle();
    let side = rj_core::maintenance::MaintainedSide::new(&c, spec.sides[0].clone())
        .with_isl(exec.isl_table().unwrap())
        .with_stats(stats.clone());
    let service = RankJoinService::new(test_config());
    let backend = service.register_backend(exec).unwrap();
    let tenant = service.register_tenant("acme", 1.0).unwrap();
    let topk = |k| {
        let id = service
            .submit(tenant, backend, SubmitOptions::topk(k))
            .unwrap();
        service.run_until_idle().unwrap();
        done(&service, id)
    };
    assert_eq!(
        *topk(5).results,
        rj_core::oracle::topk_spec(&c, &spec.with_k(5)).unwrap()
    );

    // 4 of side A's 18 tuples (22%, past the 10% bound).
    for i in 0..4u32 {
        let key = format!("ta_new_{i}");
        side.insert(key.as_bytes(), b"a", 0.9 + f64::from(i) * 0.02, vec![])
            .unwrap();
    }
    let after = topk(5);
    service.run_round().unwrap();
    let counters = service.counters();
    assert_eq!(counters.staleness_rebuilds, 0);
    assert_eq!(counters.maintenance_runs, 0);
    assert!(!stats.is_stale());
    assert_eq!(stats.collections(), 0);
    assert_eq!(after.outcome, SessionOutcome::Complete);
    assert_eq!(after.served_by, ServedBy::Execution);
    assert_eq!(
        *after.results,
        rj_core::oracle::topk_spec(&c, &spec.with_k(5)).unwrap()
    );
}

#[test]
fn three_way_spec_never_aliases_its_binary_prefix() {
    let (c, spec) = three_way_fixture();
    // A binary backend over the first two sides of the same spec.
    let q = RankJoinQuery::new(
        JoinSide::new("ta", "A", ("d", b"jk"), ("d", b"score")),
        JoinSide::new("tb", "B", ("d", b"jk"), ("d", b"score")),
        5,
        ScoreFn::Sum,
    );
    let mut binary = RankJoinExecutor::new(&c, q.clone());
    binary.prepare_isl().unwrap();
    let mut spec_exec = SpecExecutor::new(&c, spec.clone());
    spec_exec.prepare().unwrap();

    let service = RankJoinService::new(test_config());
    let pair_backend = service.register_backend(binary).unwrap();
    let spec_backend = service.register_backend(spec_exec).unwrap();
    assert_ne!(
        pair_backend, spec_backend,
        "a three-way spec must not share the binary pair's backend"
    );

    let tenant = service.register_tenant("acme", 1.0).unwrap();
    let pair_session = service
        .submit(tenant, pair_backend, SubmitOptions::topk(5))
        .unwrap();
    let spec_session = service
        .submit(tenant, spec_backend, SubmitOptions::topk(5))
        .unwrap();
    service.run_until_idle().unwrap();
    let pair_result = done(&service, pair_session);
    let spec_result = done(&service, spec_session);
    // Neither session was answered from the other's execution or caches.
    assert_eq!(pair_result.served_by, ServedBy::Execution);
    assert_eq!(spec_result.served_by, ServedBy::Execution);
    assert_eq!(*pair_result.results, oracle::topk(&c, &q).unwrap());
    assert_eq!(
        *spec_result.results,
        rj_core::oracle::topk_spec(&c, &spec).unwrap()
    );
}

#[test]
fn finished_session_is_pollable_inside_its_grace_window_and_expired_after() {
    let (service, backend, _c, _q) = serve_fixture(test_config());
    let tenant = service.register_tenant("acme", 1.0).unwrap();
    let plain = service
        .submit(tenant, backend, SubmitOptions::topk(3))
        .unwrap();
    let paged = service
        .submit(tenant, backend, SubmitOptions::topk(10).with_page_size(5))
        .unwrap();
    service.run_until_idle().unwrap();
    let SessionStatus::Paged(info) = service.poll(paged).unwrap() else {
        panic!("paged session should be parked after its first page");
    };
    let token = info.token;
    assert!(matches!(
        service.next_page(token).unwrap(),
        SessionStatus::Done(_)
    ));
    let billed = service.tenant_charged(tenant).unwrap();
    assert!(billed.kv_reads > 0);

    // The window is FINISHED_GRACE_ROUNDS further rounds: through all of
    // them both sessions answer `Done`, however often they are asked.
    for _ in 0..FINISHED_GRACE_ROUNDS {
        service.run_round().unwrap();
        for id in [plain, paged, plain] {
            assert_eq!(done(&service, id).outcome, SessionOutcome::Complete);
        }
    }
    service.cancel(plain).unwrap(); // finished: a no-op
    assert!(matches!(
        service.next_page(token),
        Err(ServeError::InvalidContinuation)
    ));
    assert_eq!(service.counters().reaped, 0);

    // One round later the records are gone, and every call says so.
    service.run_round().unwrap();
    for id in [plain, paged] {
        assert!(matches!(service.poll(id), Err(ServeError::SessionExpired)));
        assert!(matches!(
            service.cancel(id),
            Err(ServeError::SessionExpired)
        ));
    }
    assert!(matches!(
        service.next_page(token),
        Err(ServeError::SessionExpired)
    ));
    let counters = service.counters();
    assert_eq!((counters.submitted, counters.reaped), (2, 2));
    // An id this service never handed out is still unknown, not expired.
    let (other, other_backend, _c2, _q2) = serve_fixture(test_config());
    let other_tenant = other.register_tenant("acme", 1.0).unwrap();
    let foreign = (0..3)
        .map(|_| other.submit(other_tenant, other_backend, SubmitOptions::topk(1)))
        .last()
        .unwrap()
        .unwrap();
    assert!(matches!(
        service.poll(foreign),
        Err(ServeError::UnknownSession)
    ));
    // The charge was billed at finish; it does not leave with the record.
    let after = service.tenant_charged(tenant).unwrap();
    assert_eq!(after.kv_reads, billed.kv_reads);
    assert_eq!(
        after.kv_reads,
        service.tenant_usage(tenant).unwrap().kv_reads
    );
}

#[test]
fn session_table_stays_bounded_and_billing_is_conserved_across_reaping() {
    let (service, backend, _c, _q) = serve_fixture(ServeConfig {
        round_width: 8,
        ..test_config()
    });
    let tenants: Vec<_> = (0..4)
        .map(|i| service.register_tenant(&format!("t{i}"), 1.0).unwrap())
        .collect();
    let waves = 10 * FINISHED_GRACE_ROUNDS;
    for w in 0..waves {
        for i in 0..8usize {
            // Mostly prefix-cache hits; the last session's `k` deepens
            // every 300 waves, so executions (and charges) keep landing
            // long after the first records were dropped.
            let k = if i == 7 {
                8 + (w / 300) as usize
            } else {
                i + 1
            };
            service
                .submit(
                    tenants[(i + w as usize) % 4],
                    backend,
                    SubmitOptions::topk(k),
                )
                .unwrap();
        }
        service.run_until_idle().unwrap();
        // What is kept: the sessions of one grace window's rounds and of
        // the round that just ran.
        let n = service.counters();
        assert!(
            n.submitted - n.reaped <= 8 * (FINISHED_GRACE_ROUNDS + 1),
            "wave {w}: {} records live",
            n.submitted - n.reaped
        );
    }
    let n = service.counters();
    assert_eq!(n.submitted, 8 * waves);
    assert_eq!(n.completed, 8 * waves);
    assert!(n.reaped >= 8 * (waves - FINISHED_GRACE_ROUNDS - 1));
    assert!(n.executions >= 9, "a deeper k every 300 waves must execute");
    for t in &tenants {
        let usage = service.tenant_usage(*t).unwrap();
        let charged = service.tenant_charged(*t).unwrap();
        assert_eq!(usage.kv_reads, charged.kv_reads);
        assert!((usage.sim_seconds - charged.sim_seconds).abs() < 1e-9);
    }
    let (total, billed) = (service.total_usage(), service.charged_total());
    assert!(total.kv_reads > 0);
    assert_eq!(total.kv_reads, billed.kv_reads);
    assert!((total.sim_seconds - billed.sim_seconds).abs() < 1e-9);
}

/// Submits one top-`k` session, runs one round, returns its result.
fn served_in_one_round(
    service: &RankJoinService,
    tenant: TenantId,
    backend: BackendId,
    k: usize,
) -> SessionResult {
    let id = service
        .submit(tenant, backend, SubmitOptions::topk(k))
        .unwrap();
    service.run_round().unwrap();
    done(service, id)
}

#[test]
fn a_prefix_cut_is_shared_while_shown_and_rebuilt_after() {
    let (c, q) = fixture();
    let executor = prepared_executor(&c, &q);
    let stats = executor.stats_handle();
    let service = RankJoinService::new(test_config());
    let backend = service.register_backend(executor).unwrap();
    let tenant = service.register_tenant("acme", 1.0).unwrap();
    let want = oracle::topk(&c, &q.with_k(8)).unwrap();
    let hit = |k: usize| {
        let result = served_in_one_round(&service, tenant, backend, k);
        assert_eq!(result.served_by, ServedBy::PrefixCache);
        assert_eq!(*result.results, want[..k]);
        result
    };

    let deep = served_in_one_round(&service, tenant, backend, 8);
    assert_eq!(deep.served_by, ServedBy::Execution);
    assert_eq!(service.counters().cuts_built, 0);

    // Two hits at one `k`, the first still shown: one copy between them.
    let first = hit(3);
    assert_eq!(service.counters().cuts_built, 1);
    let second = hit(3);
    assert!(Arc::ptr_eq(&first.results, &second.results));
    // Full depth shares the cached answer itself.
    assert!(Arc::ptr_eq(&hit(8).results, &deep.results));
    let n = service.counters();
    assert_eq!((n.cache_hits, n.cuts_built), (3, 1));

    // Every holder gone — the client's results dropped, the records past
    // their window — and the rows are gone: the next hit copies again.
    let gone = Arc::downgrade(&first.results);
    drop((first, second));
    for _ in 0..=FINISHED_GRACE_ROUNDS {
        service.run_round().unwrap();
    }
    assert_eq!(service.counters().reaped, 4);
    assert!(
        gone.upgrade().is_none(),
        "the cache kept a cut nobody shows"
    );
    let rebuilt = hit(3);
    assert_eq!(service.counters().cuts_built, 2);

    // A version bump refuses the entry, its cuts with it: the next
    // session executes, and the entry that replaces it starts empty —
    // a hit copies even though `rebuilt` still shows the old rows.
    stats.invalidate();
    let fresh = served_in_one_round(&service, tenant, backend, 8);
    assert_eq!(fresh.served_by, ServedBy::Execution);
    let after = hit(3);
    assert!(!Arc::ptr_eq(&rebuilt.results, &after.results));
    let n = service.counters();
    assert_eq!((n.cache_hits, n.cuts_built, n.executions), (5, 3, 2));
    assert_eq!(
        service.tenant_charged(tenant).unwrap().kv_reads,
        service.tenant_usage(tenant).unwrap().kv_reads
    );
}

/// A version bump releases the stale answer, not only refuses it: the
/// first offer at the new version — here a cancelled run's donation —
/// drops it, so once nothing shows the rows any more, they are gone.
#[test]
fn a_version_bump_releases_the_stale_answer() {
    let (c, q) = fixture();
    let executor = prepared_executor(&c, &q);
    let stats = executor.stats_handle();
    let service = RankJoinService::new(test_config());
    let backend = service.register_backend(executor).unwrap();
    let tenant = service.register_tenant("acme", 1.0).unwrap();
    let first = served_in_one_round(&service, tenant, backend, 5);
    assert_eq!(first.served_by, ServedBy::Execution);
    // The session's rows are the cached answer's allocation.
    let answer = Arc::downgrade(&first.results);
    drop(first);

    stats.invalidate(); // what any maintained write does, minus the write
    let mut opts = SubmitOptions::topk(50);
    opts.cancel_after_batches = Some(2);
    let stopped = service.submit(tenant, backend, opts).unwrap();
    service.run_round().unwrap();
    assert_eq!(done(&service, stopped).outcome, SessionOutcome::Cancelled);
    let (_, version) = service.warm_donor(backend).unwrap().unwrap();
    assert_eq!(
        version,
        stats.version(),
        "the stopped run donated at the new version"
    );

    for _ in 0..=FINISHED_GRACE_ROUNDS {
        service.run_round().unwrap();
    }
    assert_eq!(service.counters().reaped, 2);
    assert!(
        answer.upgrade().is_none(),
        "the stale answer outlived its version"
    );
}

#[test]
fn coalesced_followers_and_later_hits_share_one_cut() {
    let (service, backend, c, q) = serve_fixture(test_config());
    let tenant = service.register_tenant("acme", 1.0).unwrap();
    let ids: Vec<_> = [8, 3, 3]
        .iter()
        .map(|&k| {
            service
                .submit(tenant, backend, SubmitOptions::topk(k))
                .unwrap()
        })
        .collect();
    service.run_round().unwrap();
    let followers = [done(&service, ids[1]), done(&service, ids[2])];
    assert_eq!(followers[0].served_by, ServedBy::SharedExecution);
    assert!(Arc::ptr_eq(&followers[0].results, &followers[1].results));
    // The followers were cut from the entry the cache then took, so a
    // hit at their `k` is handed their rows.
    let later = served_in_one_round(&service, tenant, backend, 3);
    assert_eq!(later.served_by, ServedBy::PrefixCache);
    assert!(Arc::ptr_eq(&later.results, &followers[0].results));
    assert_eq!(*later.results, oracle::topk(&c, &q.with_k(3)).unwrap());
    let n = service.counters();
    assert_eq!((n.coalesced, n.cache_hits, n.cuts_built), (2, 1, 1));
}

/// FNV-1a over a byte stream — the golden test's digest of per-session
/// `(outcome, served_by, results.len())` triples.
fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for b in bytes {
        *hash ^= u64::from(*b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Scheduling golden: a fixed 200-wave script in the `serve_shared`
/// benchmark's wave shape — four skewed tenants, waves of eight sessions
/// at k = 1 … 100 alternating between two backends, a paged session every
/// 25th wave, one maintained insert mid-way (it joins nothing, so answers
/// stay put while backend 0's statistics version moves). The literals
/// were recorded on the commit before the session table existed, when a
/// round found its work by walking every record: the queued index and
/// the reaper must not move a single scheduling decision.
#[test]
fn fixed_wave_script_schedules_exactly_as_recorded() {
    const KS: [usize; 8] = [1, 5, 10, 10, 20, 20, 50, 100];
    let (c, q) = fixture();
    let q2 = RankJoinQuery::new(
        JoinSide::new("l", "L2", ("d", b"jk"), ("d", b"score")),
        JoinSide::new("r", "R2", ("d", b"jk"), ("d", b"score")),
        3,
        ScoreFn::Product,
    );
    let first = prepared_executor(&c, &q);
    let side = rj_core::maintenance::MaintainedSide::new(&c, q.left.clone())
        .with_isl(&rj_core::isl::index_table_name(&q))
        .with_stats(first.stats_handle());
    let service = RankJoinService::new(ServeConfig {
        round_width: 8,
        ..test_config()
    });
    let backends = [
        service.register_backend(first).unwrap(),
        service
            .register_backend(prepared_executor(&c, &q2))
            .unwrap(),
    ];
    let expected = [
        oracle::topk(&c, &q.with_k(100)).unwrap(),
        oracle::topk(&c, &q2.with_k(100)).unwrap(),
    ];
    let tenants: Vec<_> = (0..4)
        .map(|i| service.register_tenant(&format!("t{i}"), 1.0).unwrap())
        .collect();
    // Skewed tenant draw: tenant 0 half the time.
    const DRAW: [usize; 8] = [0, 0, 0, 0, 1, 1, 2, 3];
    let mut seed = 0x5eed_cafe_f00d_u64;
    let mut digest = 0xcbf2_9ce4_8422_2325_u64;
    let mut served = [0u32; 4];
    for w in 0..200usize {
        if w == 100 {
            side.insert(b"l_zzz", b"zz", 0.5, vec![]).unwrap();
        }
        let mut wave = Vec::with_capacity(8);
        for slot in 0..8 {
            let i = (slot + 3 * w) % 8;
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let tenant = tenants[DRAW[(seed >> 40) as usize % 8]];
            let b = (i + w) % 2;
            let mut opts = SubmitOptions::topk(KS[i]);
            if w % 25 == 7 && i == 4 {
                opts = opts.with_page_size(10);
            }
            wave.push((service.submit(tenant, backends[b], opts).unwrap(), b, KS[i]));
        }
        service.run_until_idle().unwrap();
        for (id, b, k) in wave {
            let result = loop {
                match service.poll(id).unwrap() {
                    SessionStatus::Paged(info) => drop(service.next_page(info.token).unwrap()),
                    SessionStatus::Done(result) => break result,
                    other => panic!("wave {w}: session still {other:?}"),
                }
            };
            assert_eq!(result.outcome, SessionOutcome::Complete);
            assert_eq!(result.results[..], expected[b][..k], "wave {w}, k = {k}");
            let by = match result.served_by {
                ServedBy::Execution => 0u8,
                ServedBy::SharedExecution => 1,
                ServedBy::PrefixCache => 2,
                ServedBy::Unserved => 3,
            };
            served[usize::from(by)] += 1;
            fnv1a(&mut digest, &[by]);
            fnv1a(&mut digest, &(result.results.len() as u64).to_le_bytes());
        }
    }
    let n = service.counters();
    assert_eq!(
        (
            n.executions,
            n.coalesced,
            n.cache_hits,
            n.warm_starts,
            n.rounds
        ),
        (13, 9, 1578, 2, 200)
    );
    assert_eq!(n.pages_served, 16);
    // Execution / coalesced / prefix cache / unserved.
    assert_eq!(served, [13, 9, 1578, 0]);
    assert_eq!(
        digest, 0x5127_2e59_1005_72f6,
        "per-session (served_by, rows)"
    );
}
