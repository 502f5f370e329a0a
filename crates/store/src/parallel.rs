//! Parallel multi-region execution: fan work out across region servers on
//! the shared work-stealing pool and charge wall-clock time as the slowest
//! lane.
//!
//! The paper's algorithms run against a shared-nothing store where every
//! query touches many region servers. A serial client walks those servers
//! one RPC at a time, so its modelled latency is the *sum* of per-server
//! times; real deployments fan out and pay the *maximum* (the paper's §5
//! parallel-round accounting). This module provides that execution shape:
//!
//! * [`run_lanes`] — the primitive: run a batch of tasks concurrently,
//!   each on its own non-time-charging client, then charge the cluster
//!   ledger one *parallel round*: wall-clock = the slowest node lane
//!   (floored by the longest single task and by `total / workers` — a
//!   bounded pool cannot beat its own width), total node-seconds = the
//!   plain sum of task times. Counted metrics (KV reads, network bytes,
//!   RPCs) are charged by the worker clients exactly as a serial client
//!   would charge them, so parallelism changes *when* work finishes,
//!   never *how much* is read or shipped. Real execution runs on the
//!   process-wide [`WorkStealingPool`]; modelled time uses the
//!   *requested* `workers` width, never the pool's thread count, so no
//!   metric depends on the machine.
//! * [`ParallelScanner`] — fans a [`Scan`] out across a table's regions
//!   (one task per region, lane = hosting node) and merges per-region
//!   results deterministically in key order, and fans point gets out the
//!   same way ([`ParallelScanner::multi_get`]).
//! * [`ExecutionMode`] — the knob query executors expose: `Serial` is the
//!   default, and `Parallel { workers: 1 }` degenerates to it.
//!
//! A *lane* is a serialization domain — normally the serving node. Tasks
//! in the same lane contend for that node's disk/CPU/NIC, so their
//! *node-busy* time (server work + transfer) adds up; RPC round-trip
//! latency overlaps across all in-flight requests. Scans and gets use the
//! serving node as the lane.

use crate::client::Client;
use crate::cluster::Cluster;
use crate::error::Result;
use crate::pool::WorkStealingPool;
use crate::row::RowResult;
use crate::scan::Scan;

/// How a query executor drives multi-region reads.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum ExecutionMode {
    /// One RPC at a time; wall-clock time is the sum of all per-server
    /// times. The default.
    #[default]
    Serial,
    /// Fan multi-region reads out over at most `workers` concurrent
    /// client threads; wall-clock time per round is the slowest lane.
    /// Results and counted metrics (KV reads, bytes, RPCs) are identical
    /// to [`ExecutionMode::Serial`].
    Parallel {
        /// Maximum concurrently executing client-side workers.
        workers: usize,
    },
}

impl ExecutionMode {
    /// Worker-pool width this mode executes with (`Serial` → 1).
    pub fn workers(&self) -> usize {
        match self {
            ExecutionMode::Serial => 1,
            ExecutionMode::Parallel { workers } => (*workers).max(1),
        }
    }

    /// Whether this mode actually fans out (`Parallel { workers: 1 }` and
    /// `Serial` both report `false`).
    pub fn is_parallel(&self) -> bool {
        self.workers() > 1
    }

    /// Short display label ("serial" / "parallel(n)").
    pub fn label(&self) -> String {
        match self {
            ExecutionMode::Serial => "serial".to_owned(),
            ExecutionMode::Parallel { workers } => format!("parallel({workers})"),
        }
    }
}

/// The boxed work of one [`LaneTask`]: runs on a worker [`Client`] whose
/// counted metrics flow to the cluster ledger immediately; its modelled
/// elapsed time is collected by the round.
pub type TaskFn<'env, T> = Box<dyn FnOnce(&Client) -> Result<T> + Send + 'env>;

/// One task of a parallel round: a lane id (serialization domain — tasks
/// sharing a lane have their times summed) and the work itself, run on a
/// dedicated worker [`Client`].
pub struct LaneTask<'env, T> {
    /// Serialization-domain id (usually the serving node).
    pub lane: usize,
    /// The work.
    pub run: TaskFn<'env, T>,
}

impl<'env, T> LaneTask<'env, T> {
    /// Convenience constructor.
    pub fn new(lane: usize, run: impl FnOnce(&Client) -> Result<T> + Send + 'env) -> Self {
        LaneTask {
            lane,
            run: Box::new(run),
        }
    }
}

/// Runs `tasks` concurrently (modelled as a bounded pool of `workers`
/// lanes) and charges the cluster ledger one parallel round.
///
/// Results come back in submission order regardless of completion order.
/// The round's wall-clock charge is the makespan lower bound
///
/// ```text
/// wall = max( max over lanes of Σ node-busy time,   // a server serializes its disk/CPU/NIC work
///             max single task's elapsed time,       // one task's RPC chain cannot be split
///             Σ elapsed time / workers )            // the pool cannot beat its own width
/// ```
///
/// while node-seconds are charged as the plain sum of all task times — so
/// the ledger's aggregate-work totals are independent of the pool width
/// and latency alone reflects the fan-out. If any task fails, the round's
/// time is still charged (the work happened) and the first error in
/// submission order is returned.
///
/// Real execution runs on the shared [`WorkStealingPool`]. The modelled
/// charge always uses the *requested* `workers` width, not the physical
/// thread count, so metrics do not depend on the machine.
pub fn run_lanes<'env, T: Send + 'env>(
    cluster: &Cluster,
    workers: usize,
    tasks: Vec<LaneTask<'env, T>>,
) -> Result<Vec<T>> {
    let n = tasks.len();
    if n == 0 {
        return Ok(Vec::new());
    }
    let workers = workers.max(1).min(n);
    let lanes: Vec<usize> = tasks.iter().map(|t| t.lane).collect();

    // Execute: every task gets its own non-time-charging client; we record
    // (modelled elapsed, modelled node-busy, result) per task, in
    // submission order.
    type MeasuredJob<'env, T> = Box<dyn FnOnce() -> (f64, f64, Result<T>) + Send + 'env>;
    let jobs: Vec<MeasuredJob<'env, T>> = tasks
        .into_iter()
        .map(|t| {
            let client = cluster.round_worker_client();
            let run = t.run;
            let job: MeasuredJob<'env, T> = Box::new(move || {
                client.reset_elapsed();
                let result = run(&client);
                (client.elapsed_seconds(), client.node_busy_seconds(), result)
            });
            job
        })
        .collect();
    let measured = WorkStealingPool::global().run_batch(jobs);

    // Makespan accounting: per-lane busy sums serialize, RPC latency
    // overlaps across in-flight tasks, and the pool width is a hard floor.
    // Lanes are node ids — small and dense — so a flat vector indexed by
    // lane holds the per-lane sums.
    let mut lane_busy = vec![0.0f64; lanes.iter().copied().max().unwrap_or(0) + 1];
    let mut total = 0.0f64;
    let mut max_task = 0.0f64;
    let mut outputs = Vec::with_capacity(n);
    let mut first_err = None;
    for (idx, (elapsed, busy, result)) in measured.into_iter().enumerate() {
        lane_busy[lanes[idx]] += busy;
        total += elapsed;
        max_task = max_task.max(elapsed);
        match result {
            Ok(v) => outputs.push(v),
            Err(e) => {
                if first_err.is_none() {
                    first_err = Some(e);
                }
            }
        }
    }
    let max_lane = lane_busy.iter().fold(0.0f64, |a, &b| a.max(b));
    let wall = max_lane.max(max_task).max(total / workers as f64);
    cluster.metrics().add_parallel_round(wall, total);
    match first_err {
        Some(e) => Err(e),
        None => Ok(outputs),
    }
}

/// Fans scans and point gets out across a table's regions.
///
/// Construction is cheap; one scanner can serve many rounds. All methods
/// are read-for-read identical to their serial counterparts: the same rows
/// are returned in the same order, the same KV reads are billed, the same
/// bytes ship — only the modelled wall-clock differs.
pub struct ParallelScanner<'a> {
    cluster: &'a Cluster,
    workers: usize,
}

impl<'a> ParallelScanner<'a> {
    /// A scanner executing under `mode` (`Serial` → pool width 1).
    pub fn new(cluster: &'a Cluster, mode: ExecutionMode) -> Self {
        Self::with_workers(cluster, mode.workers())
    }

    /// A scanner with an explicit pool width.
    pub fn with_workers(cluster: &'a Cluster, workers: usize) -> Self {
        ParallelScanner {
            cluster,
            workers: workers.max(1),
        }
    }

    /// The pool width.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs `scan` against `table` with one task per overlapped region
    /// (lane = hosting node) and returns the merged rows in ascending key
    /// order — exactly the rows, reads, and bytes of a serial scan.
    ///
    /// Scans with a row `limit` fall back to a single-lane (serial-order)
    /// pass: a per-region fan-out cannot know how many rows other regions
    /// contribute without over-reading, which would break read-equivalence.
    pub fn scan_collect(&self, table: &str, scan: &Scan) -> Result<Vec<RowResult>> {
        let t = self.cluster.table(table)?;
        // Validate the family projection eagerly, like `Client::scan`.
        if let Some(fams) = &scan.families {
            for f in fams {
                t.family_index(f)?;
            }
        }
        if scan.limit.is_some() {
            let spec = scan.clone();
            let mut rows = run_lanes(
                self.cluster,
                1,
                vec![LaneTask::new(0, move |client: &Client| {
                    client.scan(table, spec)?.collect_rows()
                })],
            )?;
            return Ok(rows.pop().unwrap_or_default());
        }

        let start = scan.start.clone().unwrap_or_default();
        let stop = scan.stop.clone();
        let mut tasks: Vec<LaneTask<'_, Vec<RowResult>>> = Vec::new();
        for info in t.region_infos() {
            // Clip the region's [start, end) range to the scan's bounds; a
            // serial scan issues RPCs to exactly the overlapped regions.
            let lo: Vec<u8> = if info.start < start {
                start.clone()
            } else {
                info.start.clone()
            };
            if let Some(end) = &info.end {
                if *end <= lo {
                    continue; // region entirely before the scan start
                }
            }
            if let Some(s) = &stop {
                if lo >= *s {
                    continue; // region entirely past the scan stop
                }
            }
            let hi: Option<Vec<u8>> = match (&info.end, &stop) {
                (Some(e), Some(s)) => Some(if e < s { e.clone() } else { s.clone() }),
                (Some(e), None) => Some(e.clone()),
                (None, Some(s)) => Some(s.clone()),
                (None, None) => None,
            };
            let mut spec = scan.clone().start(lo);
            spec.stop = hi;
            tasks.push(LaneTask::new(info.node, move |client: &Client| {
                client.scan(table, spec)?.collect_rows()
            }));
        }
        let per_region = run_lanes(self.cluster, self.workers, tasks)?;
        // Regions are disjoint, ascending ranges: concatenation in region
        // order is already global key order.
        Ok(per_region.into_iter().flatten().collect())
    }

    /// Point-gets every key of `keys` (lane = serving node), returning
    /// results in input order — the same gets, reads, and bytes a serial
    /// loop over `Client::get_with_families` would produce.
    pub fn multi_get(
        &self,
        table: &str,
        keys: &[Vec<u8>],
        families: Option<&[String]>,
    ) -> Result<Vec<Option<RowResult>>> {
        let t = self.cluster.table(table)?;
        let tasks: Vec<LaneTask<'_, Option<RowResult>>> = keys
            .iter()
            .map(|key| {
                let key = key.clone();
                LaneTask::new(t.serving_node(&key), move |client: &Client| {
                    client.get_with_families(table, &key, families)
                })
            })
            .collect();
        run_lanes(self.cluster, self.workers, tasks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::Mutation;
    use crate::costmodel::CostModel;
    use crate::keys;

    /// A 4-node cluster with a table pre-split into 8 regions and 64 rows.
    fn loaded_cluster() -> Cluster {
        let c = Cluster::new(4, CostModel::ec2(4));
        let splits: Vec<Vec<u8>> = (1..8u64)
            .map(|i| keys::encode_u64(i * 8).to_vec())
            .collect();
        c.create_table_with_splits("t", &["cf"], &splits).unwrap();
        let client = c.client();
        for i in 0..64u64 {
            client
                .put(
                    "t",
                    &keys::encode_u64(i),
                    Mutation::put("cf", b"q", i.to_string().into_bytes()),
                )
                .unwrap();
        }
        c
    }

    fn serial_scan(c: &Cluster, scan: Scan) -> (Vec<RowResult>, crate::metrics::MetricsSnapshot) {
        let before = c.metrics().snapshot();
        let rows: Vec<_> = c.client().scan("t", scan).unwrap().collect();
        (rows, c.metrics().snapshot().delta_since(&before))
    }

    fn parallel_scan(
        c: &Cluster,
        scan: Scan,
        workers: usize,
    ) -> (Vec<RowResult>, crate::metrics::MetricsSnapshot) {
        let before = c.metrics().snapshot();
        let rows = ParallelScanner::with_workers(c, workers)
            .scan_collect("t", &scan)
            .unwrap();
        (rows, c.metrics().snapshot().delta_since(&before))
    }

    #[test]
    fn modes_expose_worker_width() {
        assert_eq!(ExecutionMode::Serial.workers(), 1);
        assert!(!ExecutionMode::Serial.is_parallel());
        assert_eq!(ExecutionMode::Parallel { workers: 4 }.workers(), 4);
        assert!(ExecutionMode::Parallel { workers: 4 }.is_parallel());
        assert!(!ExecutionMode::Parallel { workers: 1 }.is_parallel());
        assert_eq!(ExecutionMode::Parallel { workers: 0 }.workers(), 1);
        assert_eq!(ExecutionMode::default(), ExecutionMode::Serial);
        assert_eq!(ExecutionMode::Serial.label(), "serial");
        assert_eq!(
            ExecutionMode::Parallel { workers: 3 }.label(),
            "parallel(3)"
        );
    }

    #[test]
    fn scan_matches_serial_rows_and_counted_metrics() {
        let c = loaded_cluster();
        for scan in [
            Scan::new(),
            Scan::new().caching(3),
            Scan::new().start(keys::encode_u64(5).to_vec()),
            Scan::new()
                .start(keys::encode_u64(13).to_vec())
                .stop(keys::encode_u64(49).to_vec()),
            Scan::new().stop(keys::encode_u64(2).to_vec()),
            Scan::new().start(keys::encode_u64(63).to_vec()),
            Scan::new().start(keys::encode_u64(200).to_vec()),
        ] {
            let (want_rows, want_m) = serial_scan(&c, scan.clone());
            let (got_rows, got_m) = parallel_scan(&c, scan.clone(), 4);
            assert_eq!(got_rows, want_rows, "{scan:?}");
            assert_eq!(got_m.kv_reads, want_m.kv_reads, "{scan:?}");
            assert_eq!(got_m.network_bytes, want_m.network_bytes, "{scan:?}");
            assert_eq!(got_m.rpc_calls, want_m.rpc_calls, "{scan:?}");
        }
    }

    #[test]
    fn parallel_wall_is_shorter_but_node_seconds_match() {
        let c = loaded_cluster();
        let (_, serial) = serial_scan(&c, Scan::new().caching(4));
        let (_, parallel) = parallel_scan(&c, Scan::new().caching(4), 4);
        assert!(
            parallel.sim_seconds < serial.sim_seconds * 0.6,
            "parallel wall {} not well below serial {}",
            parallel.sim_seconds,
            serial.sim_seconds
        );
        assert!(
            (parallel.node_seconds - serial.node_seconds).abs() < 1e-6,
            "node-seconds must not depend on fan-out: {} vs {}",
            parallel.node_seconds,
            serial.node_seconds
        );
        assert!(parallel.sim_seconds <= parallel.node_seconds + 1e-12);
    }

    #[test]
    fn single_worker_charges_serial_time() {
        let c = loaded_cluster();
        let (_, serial) = serial_scan(&c, Scan::new().caching(4));
        let (_, one) = parallel_scan(&c, Scan::new().caching(4), 1);
        assert!(
            (one.sim_seconds - serial.sim_seconds).abs() < 1e-6,
            "workers=1 must degenerate to serial time: {} vs {}",
            one.sim_seconds,
            serial.sim_seconds
        );
    }

    #[test]
    fn limited_scans_fall_back_to_serial_reads() {
        let c = loaded_cluster();
        let (want_rows, want_m) = serial_scan(&c, Scan::new().caching(5).limit(7));
        let (got_rows, got_m) = parallel_scan(&c, Scan::new().caching(5).limit(7), 4);
        assert_eq!(got_rows, want_rows);
        assert_eq!(got_m.kv_reads, want_m.kv_reads, "limit must not over-read");
    }

    #[test]
    fn multi_get_matches_serial_gets() {
        let c = loaded_cluster();
        let keys: Vec<Vec<u8>> = [3u64, 60, 17, 999, 42]
            .iter()
            .map(|&i| keys::encode_u64(i).to_vec())
            .collect();
        let before = c.metrics().snapshot();
        let client = c.client();
        let want: Vec<_> = keys.iter().map(|k| client.get("t", k).unwrap()).collect();
        let want_m = c.metrics().snapshot().delta_since(&before);

        let before = c.metrics().snapshot();
        let got = ParallelScanner::with_workers(&c, 4)
            .multi_get("t", &keys, None)
            .unwrap();
        let got_m = c.metrics().snapshot().delta_since(&before);
        assert_eq!(got, want);
        assert_eq!(got_m.kv_reads, want_m.kv_reads);
        assert_eq!(got_m.rpc_calls, want_m.rpc_calls);
        assert_eq!(got_m.network_bytes, want_m.network_bytes);
        assert!(got_m.sim_seconds < want_m.sim_seconds);
    }

    #[test]
    fn run_lanes_preserves_submission_order_and_reports_errors() {
        let c = loaded_cluster();
        let vals = run_lanes(
            &c,
            3,
            (0..10)
                .map(|i| LaneTask::new(i % 4, move |_c: &Client| Ok(i)))
                .collect(),
        )
        .unwrap();
        assert_eq!(vals, (0..10).collect::<Vec<_>>());

        let err = run_lanes(
            &c,
            2,
            vec![
                LaneTask::new(0, |client: &Client| {
                    client.get("t", &keys::encode_u64(1)).map(|_| ())
                }),
                LaneTask::new(1, |client: &Client| client.get("nope", b"x").map(|_| ())),
            ],
        )
        .unwrap_err();
        assert!(matches!(err, crate::error::StoreError::TableNotFound(_)));
    }

    /// Modelled time depends on the *requested* width, never the physical
    /// thread count: the same 8-task / 4-lane / width-3 round charges this
    /// exact ledger at any `RJ_POOL_THREADS` (CI runs the suite at 1 and
    /// 8, and both legs must reproduce these literals).
    #[test]
    fn run_lanes_round_charges_golden_ledger() {
        let c = loaded_cluster();
        let before = c.metrics().snapshot();
        let rows = run_lanes(
            &c,
            3,
            (0..8u64)
                .map(|i| {
                    LaneTask::new((i % 4) as usize, move |client: &Client| {
                        Ok(client
                            .scan("t", Scan::new().start(keys::encode_u64(i * 8).to_vec()))?
                            .collect::<Vec<_>>())
                    })
                })
                .collect(),
        )
        .unwrap();
        let scanned: Vec<usize> = rows.iter().map(Vec::len).collect();
        assert_eq!(scanned, [64, 56, 48, 40, 32, 24, 16, 8]);
        let m = c.metrics().snapshot().delta_since(&before);
        // The ledger keeps time in whole nanoseconds, so the literals are exact.
        let nanos = |seconds: f64| (seconds * 1e9).round() as u64;
        assert_eq!((m.kv_reads, m.rpc_calls, m.network_bytes), (288, 36, 6036));
        assert_eq!(nanos(m.sim_seconds), 114_153_651, "Σ elapsed / 3");
        assert_eq!(nanos(m.node_seconds), 342_460_954);
    }

    #[test]
    fn scan_unknown_family_errors_eagerly() {
        let c = loaded_cluster();
        let err = ParallelScanner::with_workers(&c, 2)
            .scan_collect("t", &Scan::new().families(&["nope"]))
            .unwrap_err();
        assert!(matches!(
            err,
            crate::error::StoreError::FamilyNotFound { .. }
        ));
    }
}
