//! Multi-way (N-ary) rank joins, end to end.
//!
//! Builds a 3-table dataset (movies — showings — venues joined on a
//! shared key), expresses the 3-way top-k join as a [`JoinSpec`] path,
//! and walks the full pipeline:
//!
//! 1. build the multiway score index and run the one-shot top-k, every
//!    side descending its score index, metering the run;
//! 2. page the same answer through a pause/resume cursor — which
//!    charges exactly the one-shot reads;
//! 3. run the two-side degenerate spec next to the binary ISL executor
//!    and show the identical results and identical metered cost.
//!
//! Run with: `cargo run --release --example multiway`

use rankjoin::{
    Algorithm, Cluster, CostModel, JoinSide, JoinSpec, Mutation, RankJoinExecutor, ScoreFn,
    SpecExecutor, StopPolicy,
};

/// Three relations joined on one shared key: big `movies` and `venues`
/// sides around a small `showings` interior.
fn load(cluster: &Cluster) -> Vec<JoinSide> {
    let client = cluster.client();
    let tables: [(&str, &str, usize); 3] = [
        ("movies", "M", 120),
        ("showings", "S", 18),
        ("venues", "V", 110),
    ];
    let mut seed = 0x5eed_cafe_u64;
    let mut next = move || {
        seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (((seed >> 33) + 1) as f64) / (1u64 << 31) as f64
    };
    let mut sides = Vec::new();
    for (table, label, rows) in tables {
        cluster.create_table(table, &["d"]).unwrap();
        for i in 0..rows {
            let jv = format!("g{:02}", i % 9);
            client
                .mutate_row(
                    table,
                    format!("{table}_{i:04}").as_bytes(),
                    vec![
                        Mutation::put("d", b"jk", jv.into_bytes()),
                        Mutation::put("d", b"score", next().to_be_bytes().to_vec()),
                    ],
                )
                .unwrap();
        }
        sides.push(JoinSide::new(table, label, ("d", b"jk"), ("d", b"score")));
    }
    sides
}

fn reads_of(cluster: &Cluster, f: impl FnOnce()) -> u64 {
    let before = cluster.metrics().snapshot();
    f();
    cluster.metrics().snapshot().delta_since(&before).kv_reads
}

fn main() {
    let cluster = Cluster::new(4, CostModel::lab());
    let sides = load(&cluster);
    let k = 5;

    // -- 1. the 3-way spec, indexed and executed one-shot ---------------
    let spec = JoinSpec::path(sides, k, ScoreFn::Sum).unwrap();
    let mut executor = SpecExecutor::new(&cluster, spec);
    executor.prepare().unwrap();
    let mut outcome = None;
    let one_shot_reads = reads_of(&cluster, || outcome = Some(executor.execute().unwrap()));
    let outcome = outcome.unwrap();
    println!("top-{k} of movies |x| showings |x| venues (sum of scores):");
    for (rank, t) in outcome.results.iter().enumerate() {
        let inner: Vec<String> = t
            .inner
            .iter()
            .map(|(key, score)| format!("{} ({score:.2})", String::from_utf8_lossy(key)))
            .collect();
        println!(
            "  #{:<2} {:.3}  {} + [{}] + {}",
            rank + 1,
            t.score,
            String::from_utf8_lossy(&t.left_key),
            inner.join(", "),
            String::from_utf8_lossy(&t.right_key),
        );
    }

    println!("one-shot: {one_shot_reads} KV reads");

    // -- 2. paging through a pause/resume cursor ------------------------
    let paged_reads = reads_of(&cluster, || {
        let mut cursor = executor.open_cursor(k).unwrap();
        let mut got = 0usize;
        let mut pages = 0usize;
        while got < k {
            let batch = cursor.next_batch(2, &StopPolicy::never()).unwrap();
            got += batch.results.len();
            pages += 1;
            if batch.done {
                break;
            }
            let state = cursor.pause();
            cursor = executor.resume_cursor(state).unwrap();
        }
        println!("\ncursor paging: {got} results over {pages} pages");
    });
    println!("paged reads: {paged_reads} (one-shot paid {one_shot_reads})");

    // -- 3. the two-side degenerate form is the binary executor ---------
    let q = rankjoin::RankJoinQuery::new(
        JoinSide::new("movies", "M", ("d", b"jk"), ("d", b"score")),
        JoinSide::new("venues", "V", ("d", b"jk"), ("d", b"score")),
        k,
        ScoreFn::Sum,
    );
    let binary_reads = reads_of(&cluster, || {
        let mut ex = RankJoinExecutor::new(&cluster, q.clone());
        ex.prepare_isl().unwrap();
        ex.execute(Algorithm::Isl).unwrap();
    });
    let spec_reads = reads_of(&cluster, || {
        let mut ex = SpecExecutor::new(&cluster, q.to_spec());
        ex.prepare().unwrap();
        ex.execute().unwrap();
    });
    println!(
        "\ntwo-side spec vs binary ISL (prepare + execute): {spec_reads} vs {binary_reads} KV reads"
    );
}
