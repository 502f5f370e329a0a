//! The multi-tenant serving front-end, end to end.
//!
//! Loads the paper's running example (Fig. 1), registers it as a query
//! backend, and walks four serving scenarios:
//!
//! 1. three tenants submit overlapping top-k queries in one scheduling
//!    round — one execution serves the whole group (coalescing), and a
//!    later shallower query is answered from the result-prefix cache for
//!    free;
//! 2. a deep query is cancelled mid-flight at a batch boundary, and its
//!    tenant is billed exactly the consumed prefix (ledger == billing
//!    record);
//! 3. a background index rebuild bumps the shared statistics version,
//!    which coherently invalidates the prefix cache;
//! 4. a finished session's record is kept for a grace window of
//!    scheduling rounds and then dropped — its id answers
//!    `ServeError::SessionExpired`, its charge stays billed.
//!
//! Run with: `cargo run --release --example serve`

use rankjoin::serve::{ServeError, FINISHED_GRACE_ROUNDS};
use rankjoin::{
    Cluster, CostModel, JoinSide, Mutation, QueryPriority, RankJoinExecutor, RankJoinQuery,
    RankJoinService, ScoreFn, ServeConfig, ServedBy, SessionOutcome, SessionStatus, SubmitOptions,
};

fn load_running_example(cluster: &Cluster) {
    cluster.create_table("r1", &["d"]).unwrap();
    cluster.create_table("r2", &["d"]).unwrap();
    let r1: &[(&str, &[u8], f64)] = &[
        ("r1_01", b"d", 0.82),
        ("r1_02", b"c", 0.93),
        ("r1_03", b"c", 0.67),
        ("r1_04", b"d", 0.82),
        ("r1_05", b"a", 0.73),
        ("r1_06", b"c", 0.79),
        ("r1_07", b"b", 0.82),
        ("r1_08", b"b", 0.70),
        ("r1_09", b"d", 0.68),
        ("r1_10", b"a", 1.00),
        ("r1_11", b"b", 0.64),
    ];
    let r2: &[(&str, &[u8], f64)] = &[
        ("r2_01", b"a", 0.51),
        ("r2_02", b"b", 0.91),
        ("r2_03", b"c", 0.64),
        ("r2_04", b"d", 0.53),
        ("r2_05", b"d", 0.41),
        ("r2_06", b"d", 0.50),
        ("r2_07", b"a", 0.74),
        ("r2_08", b"b", 0.81),
        ("r2_09", b"c", 0.36),
        ("r2_10", b"a", 0.25),
        ("r2_11", b"c", 0.72),
    ];
    let client = cluster.client();
    for (table, rows) in [("r1", r1), ("r2", r2)] {
        for (key, jv, score) in rows {
            client
                .mutate_row(
                    table,
                    key.as_bytes(),
                    vec![
                        Mutation::put("d", b"jk", jv.to_vec()),
                        Mutation::put("d", b"score", score.to_be_bytes().to_vec()),
                    ],
                )
                .unwrap();
        }
    }
}

fn status_line(service: &RankJoinService, label: &str, id: rankjoin::serve::SessionId) {
    match service.poll(id).unwrap() {
        SessionStatus::Done(result) => {
            let served = match result.served_by {
                ServedBy::Execution => "own execution",
                ServedBy::SharedExecution => "coalesced (free)",
                ServedBy::PrefixCache => "prefix cache (free)",
                ServedBy::Unserved => "never executed",
            };
            println!(
                "  {label}: {:?} via {served}, {} rows, billed {} KV reads",
                result.outcome,
                result.results.len(),
                result.charged.kv_reads
            );
        }
        other => println!("  {label}: {other:?}"),
    }
}

fn main() {
    let cluster = Cluster::new(3, CostModel::lab());
    load_running_example(&cluster);
    let query = RankJoinQuery::new(
        JoinSide::new("r1", "R1", ("d", b"jk"), ("d", b"score")),
        JoinSide::new("r2", "R2", ("d", b"jk"), ("d", b"score")),
        3,
        ScoreFn::Sum,
    );
    let mut executor = RankJoinExecutor::new(&cluster, query);
    executor.isl_config = rankjoin::IslConfig::uniform(2);
    executor.prepare_isl().unwrap();

    let service = RankJoinService::new(ServeConfig::default());
    let backend = service.register_backend(executor).unwrap();
    let gold = service.register_tenant("gold", 3.0).unwrap();
    let silver = service.register_tenant("silver", 1.0).unwrap();
    let batch = service.register_tenant("batch", 1.0).unwrap();

    println!("-- scenario 1: coalescing + prefix cache --");
    let a = service
        .submit(gold, backend, SubmitOptions::topk(4))
        .unwrap();
    let b = service
        .submit(silver, backend, SubmitOptions::topk(2))
        .unwrap();
    let c = service
        .submit(
            batch,
            backend,
            SubmitOptions::topk(3).with_priority(QueryPriority::Batch),
        )
        .unwrap();
    service.run_until_idle().unwrap();
    status_line(&service, "gold   k=4", a);
    status_line(&service, "silver k=2", b);
    status_line(&service, "batch  k=3", c);
    let late = service
        .submit(silver, backend, SubmitOptions::topk(3))
        .unwrap();
    service.run_round().unwrap();
    status_line(&service, "silver k=3 (later)", late);

    println!("-- scenario 2: mid-query cancellation, metered exactly --");
    let mut opts = SubmitOptions::topk(8);
    opts.cancel_after_batches = Some(1); // as if cancel() landed mid-flight
    let stopped = service.submit(gold, backend, opts).unwrap();
    service.run_round().unwrap();
    status_line(&service, "gold   k=8 cancelled", stopped);
    let usage = service.tenant_usage(gold).unwrap();
    let billed = service.tenant_charged(gold).unwrap();
    println!(
        "  gold ledger {} KV reads == billed {} KV reads: {}",
        usage.kv_reads,
        billed.kv_reads,
        usage.kv_reads == billed.kv_reads
    );

    println!("-- scenario 3: rebuild invalidates the prefix cache --");
    service.schedule_rebuild(backend).unwrap();
    service.run_round().unwrap();
    let fresh = service
        .submit(silver, backend, SubmitOptions::topk(2))
        .unwrap();
    service.run_round().unwrap();
    status_line(&service, "silver k=2 (post-rebuild)", fresh);

    let counters = service.counters();
    println!(
        "-- totals: {} sessions, {} executions, {} coalesced, {} cache hits, {} rebuilds --",
        counters.submitted,
        counters.executions,
        counters.coalesced,
        counters.cache_hits,
        counters.maintenance_runs
    );
    assert!(counters.executions < counters.submitted);
    let fresh_result = match service.poll(fresh).unwrap() {
        SessionStatus::Done(result) => result,
        other => panic!("post-rebuild session not done: {other:?}"),
    };
    assert_eq!(fresh_result.outcome, SessionOutcome::Complete);
    assert_eq!(
        fresh_result.served_by,
        ServedBy::Execution,
        "the rebuilt backend must not serve the stale prefix"
    );

    println!("-- scenario 4: finished sessions expire after a grace window --");
    let billed = service.tenant_charged(gold).unwrap().kv_reads;
    for _ in 0..=FINISHED_GRACE_ROUNDS {
        service.run_round().unwrap();
    }
    match service.poll(a) {
        Err(ServeError::SessionExpired) => println!(
            "  gold   k=4: expired {FINISHED_GRACE_ROUNDS} rounds after it finished ({} of {} records dropped)",
            service.counters().reaped,
            counters.submitted
        ),
        other => panic!("expected SessionExpired, got {other:?}"),
    }
    assert_eq!(service.tenant_charged(gold).unwrap().kv_reads, billed);
    println!("  gold is still billed {billed} KV reads: charges do not leave with the record");
    println!("✓ serving layer: shared work, exact metering, coherent caches");
}
