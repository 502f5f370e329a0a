//! The job execution engine.
//!
//! Runs real map/reduce closures over real data, fanned out as one task per
//! split/reducer on the shared [`WorkStealingPool`], while charging the
//! cluster's cost model for everything Hadoop would have paid: job/task
//! startup, local disk scans, cross-node shuffle traffic, DFS
//! replication, and store puts. The modelled job duration is
//!
//! ```text
//! startup + map_waves·task_startup + max_node(map makespan)
//!         + shuffle + reduce_waves·task_startup + max_node(reduce makespan)
//! ```
//!
//! which reproduces the paper's headline cost structure: Hive pays for two
//! full jobs plus a materialized join; Pig pays for three leaner jobs;
//! IJLMR pays for one; ISL/BFHM pay for none.

use std::collections::BTreeMap;

use rj_store::cluster::Cluster;
use rj_store::error::StoreError;
use rj_store::scan::Scan;
use rj_store::WorkStealingPool;

use crate::counters::Counters;
use crate::dfs::{record_weight, Dfs, DfsFile, DfsPart};
use crate::job::{JobInput, JobResult, JobSpec, OutputSink};
use crate::task::{Emitter, InputRecord, Mapper, Reducer};

/// DFS replication factor for job output files (capped by cluster size).
const DFS_REPLICATION: usize = 2;

/// Rows per scan RPC for map-task region scans.
const MAP_SCAN_CACHING: usize = 10_000;

/// Engine errors.
#[derive(Debug)]
pub enum EngineError {
    /// Underlying store failure.
    Store(StoreError),
    /// Input file missing.
    NoSuchFile(String),
    /// Spec inconsistency (e.g. pairs emitted by a map-only job with no
    /// collectable sink).
    BadSpec(&'static str),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Store(e) => write!(f, "store error: {e}"),
            EngineError::NoSuchFile(n) => write!(f, "no such DFS file: {n}"),
            EngineError::BadSpec(m) => write!(f, "bad job spec: {m}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<StoreError> for EngineError {
    fn from(e: StoreError) -> Self {
        EngineError::Store(e)
    }
}

/// Factory type: one mapper per split.
pub type MapperFactory<'a> = &'a (dyn Fn() -> Box<dyn Mapper> + Sync);
/// Factory type: one reducer per partition (also used for combiners).
pub type ReducerFactory<'a> = &'a (dyn Fn() -> Box<dyn Reducer> + Sync);

/// Sorted key groups destined for one reducer.
type ReducerGroups = BTreeMap<Vec<u8>, Vec<Vec<u8>>>;

/// One boxed reduce task scheduled on the shared pool; yields the task
/// output plus its simulated task-seconds.
type ReduceTask<'a> = Box<dyn FnOnce() -> Result<(ReduceTaskOutput, f64), EngineError> + Send + 'a>;

/// Key/value records returned to the driver.
pub type Records = Vec<(Vec<u8>, Vec<u8>)>;

struct MapTaskOutput {
    pairs: Vec<(Vec<u8>, Vec<u8>)>,
    node: usize,
    task_seconds: f64,
    input_records: u64,
    combine_input_records: u64,
    puts: u64,
}

/// The MapReduce engine: a cluster handle plus a DFS namespace.
#[derive(Clone)]
pub struct MapReduceEngine {
    cluster: Cluster,
    dfs: Dfs,
}

impl MapReduceEngine {
    /// Creates an engine over a cluster with a fresh DFS.
    pub fn new(cluster: Cluster) -> Self {
        MapReduceEngine {
            cluster,
            dfs: Dfs::new(),
        }
    }

    /// The DFS namespace (shared with clones of this engine).
    pub fn dfs(&self) -> &Dfs {
        &self.dfs
    }

    /// The cluster this engine schedules onto.
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// Runs a job.
    ///
    /// `combiner_factory`, when given, is applied to each map task's output
    /// before the shuffle (Pig's local top-k combiner, §3.1). A job that
    /// writes to a table (`put_table`) flushes it when it finishes, so its
    /// output is frozen into region segments, as an HBase bulk load's
    /// store files are ([`rj_store::table::Table::flush`]).
    pub fn run(
        &self,
        spec: &JobSpec,
        mapper_factory: MapperFactory<'_>,
        reducer_factory: Option<ReducerFactory<'_>>,
        combiner_factory: Option<ReducerFactory<'_>>,
    ) -> Result<JobResult, EngineError> {
        let result = self.run_job(spec, mapper_factory, reducer_factory, combiner_factory)?;
        if let Some(table) = &spec.put_table {
            self.cluster.table(table)?.flush();
        }
        Ok(result)
    }

    /// [`MapReduceEngine::run`] before the flush.
    fn run_job(
        &self,
        spec: &JobSpec,
        mapper_factory: MapperFactory<'_>,
        reducer_factory: Option<ReducerFactory<'_>>,
        combiner_factory: Option<ReducerFactory<'_>>,
    ) -> Result<JobResult, EngineError> {
        if spec.num_reducers > 0 && reducer_factory.is_none() {
            return Err(EngineError::BadSpec("reducers requested but no factory"));
        }
        let cost = self.cluster.cost_model().clone();
        let mut counters = Counters::default();

        // ------------------------------------------------------- map phase
        let map_outputs = self.run_map_phase(spec, mapper_factory, combiner_factory)?;
        let num_nodes = self.cluster.num_nodes();
        let map_time = phase_makespan(
            map_outputs.iter().map(|t| (t.node, t.task_seconds)),
            num_nodes,
            cost.map_slots_per_node,
            cost.mr_task_startup,
        );
        for t in &map_outputs {
            counters.map_input_records += t.input_records;
            counters.combine_input_records += t.combine_input_records;
            counters.map_output_records += t.pairs.len() as u64;
            counters.store_puts += t.puts;
        }

        let mut job_time = cost.mr_job_startup + map_time;
        let mut collected = Vec::new();

        if spec.num_reducers == 0 {
            // Map-only: pairs flow straight to the sink.
            let pair_count: u64 = map_outputs.iter().map(|t| t.pairs.len() as u64).sum();
            counters.output_records = pair_count;
            match &spec.sink {
                OutputSink::Discard => {}
                OutputSink::Collect => {
                    for t in &map_outputs {
                        let bytes: u64 = t.pairs.iter().map(|(k, v)| record_weight(k, v)).sum();
                        self.cluster.metrics().add_network_bytes(bytes);
                        job_time += cost.transfer_time(bytes);
                    }
                    for t in map_outputs {
                        collected.extend(t.pairs);
                    }
                }
                OutputSink::File(name) => {
                    let (write_time, file) = self.build_dfs_file(&map_outputs, &cost);
                    job_time += write_time;
                    self.dfs.write(name, file);
                }
            }
            counters.job_seconds = job_time;
            self.cluster.metrics().add_sim_seconds(job_time);
            return Ok(JobResult {
                counters,
                collected,
            });
        }

        // ---------------------------------------------------- shuffle phase
        let num_reducers = spec.num_reducers;
        let reducer_node = |r: usize| r % num_nodes;
        // Deterministic merge: iterate tasks in task order.
        let mut groups: Vec<ReducerGroups> = (0..num_reducers).map(|_| BTreeMap::new()).collect();
        let mut reducer_in_bytes = vec![0u64; num_reducers];
        let mut reducer_remote_bytes = vec![0u64; num_reducers];
        for t in &map_outputs {
            for (k, v) in &t.pairs {
                let r = spec.partitioner.partition(k, num_reducers);
                let w = record_weight(k, v);
                counters.shuffle_bytes += w;
                reducer_in_bytes[r] += w;
                if reducer_node(r) != t.node {
                    counters.shuffle_remote_bytes += w;
                    reducer_remote_bytes[r] += w;
                }
                groups[r].entry(k.clone()).or_default().push(v.clone());
            }
        }
        self.cluster
            .metrics()
            .add_network_bytes(counters.shuffle_remote_bytes);
        counters.max_reducer_input_bytes = reducer_in_bytes.iter().copied().max().unwrap_or(0);
        let shuffle_time = (0..num_reducers)
            .map(|r| {
                let kvs = groups[r].values().map(Vec::len).sum::<usize>() as u64;
                cost.transfer_time(reducer_remote_bytes[r])
                    + kvs as f64 * cost.mr_cpu_per_record * 2.0
            })
            .fold(0.0f64, f64::max);
        job_time += shuffle_time;
        drop(map_outputs);

        // ----------------------------------------------------- reduce phase
        let reducer_factory = reducer_factory.expect("validated above");
        let reduce_results = self.run_reduce_phase(spec, groups, reducer_factory, &cost)?;
        let reduce_time = phase_makespan(
            reduce_results
                .iter()
                .map(|(out, seconds)| (out.node, *seconds)),
            num_nodes,
            cost.reduce_slots_per_node,
            cost.mr_task_startup,
        );
        job_time += reduce_time;
        for (out, _) in &reduce_results {
            counters.reduce_input_groups += out.input_records; // groups
            counters.reduce_input_records += out.combine_input_records; // values
            counters.output_records += out.pairs.len() as u64;
            counters.store_puts += out.puts;
        }
        counters.max_reducer_state_bytes = reduce_results
            .iter()
            .map(|(out, _)| out.task_seconds_bits)
            .fold(0, u64::max);

        // Sink handling for reduce output.
        let outs: Vec<MapTaskOutput> = reduce_results
            .into_iter()
            .map(|(out, seconds)| MapTaskOutput {
                pairs: out.pairs,
                node: out.node,
                task_seconds: seconds,
                input_records: 0,
                combine_input_records: 0,
                puts: 0,
            })
            .collect();
        match &spec.sink {
            OutputSink::Discard => {}
            OutputSink::Collect => {
                for t in &outs {
                    let bytes: u64 = t.pairs.iter().map(|(k, v)| record_weight(k, v)).sum();
                    self.cluster.metrics().add_network_bytes(bytes);
                    job_time += cost.transfer_time(bytes);
                }
                for t in outs {
                    collected.extend(t.pairs);
                }
            }
            OutputSink::File(name) => {
                let (write_time, file) = self.build_dfs_file(&outs, &cost);
                job_time += write_time;
                self.dfs.write(name, file);
            }
        }

        counters.job_seconds = job_time;
        self.cluster.metrics().add_sim_seconds(job_time);
        Ok(JobResult {
            counters,
            collected,
        })
    }

    /// Runs map tasks in parallel; returns outputs in split order.
    fn run_map_phase(
        &self,
        spec: &JobSpec,
        mapper_factory: MapperFactory<'_>,
        combiner_factory: Option<ReducerFactory<'_>>,
    ) -> Result<Vec<MapTaskOutput>, EngineError> {
        enum Split {
            Region {
                table: String,
                families: Option<Vec<String>>,
                start: Vec<u8>,
                end: Option<Vec<u8>>,
                node: usize,
            },
            Part(usize, usize), // (part index, node)
        }
        let (splits, file): (Vec<Split>, Option<DfsFile>) = match &spec.input {
            JobInput::Tables(inputs) => {
                let mut splits = Vec::new();
                for input in inputs {
                    let t = self.cluster.table(&input.table)?;
                    splits.extend(t.region_infos().into_iter().map(|r| Split::Region {
                        table: input.table.clone(),
                        families: input.families.clone(),
                        start: r.start,
                        end: r.end,
                        node: r.node,
                    }));
                }
                (splits, None)
            }
            JobInput::File(name) => {
                let f = self
                    .dfs
                    .read(name)
                    .ok_or_else(|| EngineError::NoSuchFile(name.clone()))?;
                let splits = f
                    .parts
                    .iter()
                    .enumerate()
                    .map(|(i, p)| Split::Part(i, p.node))
                    .collect();
                (splits, Some(f))
            }
        };

        let cost = self.cluster.cost_model().clone();

        // One pool task per split, fanned out on the shared pool's lanes.
        let cost_ref = &cost;
        let file_ref = &file;
        let tasks: Vec<Box<dyn FnOnce() -> Result<MapTaskOutput, EngineError> + Send + '_>> =
            splits
                .iter()
                .map(|split| {
                    let task = move || -> Result<MapTaskOutput, EngineError> {
                        let mut mapper = mapper_factory();
                        let mut emitter = Emitter::default();
                        let mut input_records = 0u64;
                        let node;
                        let mut io_seconds = 0.0f64;
                        match split {
                            Split::Region {
                                table,
                                families,
                                start,
                                end,
                                node: n,
                            } => {
                                node = *n;
                                let client = self.cluster.task_client(node);
                                let mut scan = Scan::new()
                                    .start(start.clone())
                                    .caching(spec.scan_caching.unwrap_or(MAP_SCAN_CACHING));
                                if let Some(end) = end {
                                    scan = scan.stop(end.clone());
                                }
                                if let Some(fams) = families {
                                    let refs: Vec<&str> = fams.iter().map(String::as_str).collect();
                                    scan = scan.families(&refs);
                                }
                                if let Some(f) = &spec.scan_filter {
                                    scan = scan.filter(f.clone());
                                }
                                // `next_row`, not the iterator: a failed
                                // RPC fails the task instead of ending
                                // its input early.
                                let mut rows = client.scan(table, scan)?;
                                while let Some(row) = rows.next_row()? {
                                    if !mapper.wants_more() {
                                        break;
                                    }
                                    input_records += 1;
                                    mapper.map(InputRecord::Row { table, row }, &mut emitter);
                                }
                                io_seconds += client.elapsed_seconds();
                            }
                            Split::Part(idx, n) => {
                                node = *n;
                                let part = &file_ref.as_ref().expect("file input").parts[*idx];
                                for (k, v) in &part.records {
                                    if !mapper.wants_more() {
                                        break;
                                    }
                                    input_records += 1;
                                    mapper
                                        .map(InputRecord::Pair { key: k, value: v }, &mut emitter);
                                }
                                io_seconds += part.bytes as f64 / cost_ref.disk_bandwidth;
                            }
                        }
                        mapper.finish(&mut emitter);

                        let combine_input = emitter.pair_count() as u64;
                        if let Some(cf) = combiner_factory {
                            emitter = run_combiner(cf, emitter);
                        }

                        // Apply direct puts.
                        let puts = emitter.puts.len() as u64;
                        if puts > 0 {
                            let put_table = spec
                                .put_table
                                .as_deref()
                                .ok_or(EngineError::BadSpec("puts emitted without put_table"))?;
                            let client = self.cluster.task_client(node);
                            for (row, m) in emitter.puts.drain(..) {
                                client.put(put_table, &row, m)?;
                            }
                            io_seconds += client.elapsed_seconds();
                        }

                        let cpu = (input_records + emitter.pair_count() as u64) as f64
                            * cost_ref.mr_cpu_per_record;
                        Ok(MapTaskOutput {
                            pairs: emitter.pairs,
                            node,
                            task_seconds: io_seconds + cpu,
                            input_records,
                            combine_input_records: combine_input,
                            puts,
                        })
                    };
                    Box::new(task)
                        as Box<dyn FnOnce() -> Result<MapTaskOutput, EngineError> + Send + '_>
                })
                .collect();
        WorkStealingPool::global()
            .run_batch(tasks)
            .into_iter()
            .collect()
    }

    /// Runs reduce tasks in parallel; returns `(output, task_seconds)` in
    /// reducer order. `task_seconds_bits` on the output carries the max
    /// observed reducer state bytes (reusing the struct to avoid another
    /// type).
    fn run_reduce_phase(
        &self,
        spec: &JobSpec,
        groups: Vec<ReducerGroups>,
        reducer_factory: ReducerFactory<'_>,
        cost: &rj_store::costmodel::CostModel,
    ) -> Result<Vec<(ReduceTaskOutput, f64)>, EngineError> {
        let num_nodes = self.cluster.num_nodes();

        // One pool task per reducer, scheduled like the map phase: on the
        // shared pool, results in reducer order.
        let tasks: Vec<ReduceTask<'_>> = groups
            .iter()
            .enumerate()
            .map(|(r, group)| {
                let node = r % num_nodes;
                let task = move || -> Result<(ReduceTaskOutput, f64), EngineError> {
                    let mut reducer = reducer_factory();
                    let mut emitter = Emitter::default();
                    let mut n_groups = 0u64;
                    let mut n_values = 0u64;
                    let mut max_state = 0u64;
                    for (key, values) in group {
                        n_groups += 1;
                        n_values += values.len() as u64;
                        reducer.reduce(key, values, &mut emitter);
                        max_state = max_state.max(reducer.state_bytes());
                    }
                    reducer.finish(&mut emitter);
                    max_state = max_state.max(reducer.state_bytes());

                    let mut io_seconds = n_values as f64 * cost.mr_cpu_per_record;
                    let puts = emitter.puts.len() as u64;
                    if puts > 0 {
                        let put_table = spec
                            .put_table
                            .as_deref()
                            .ok_or(EngineError::BadSpec("puts emitted without put_table"))?;
                        let client = self.cluster.task_client(node);
                        for (row, m) in emitter.puts.drain(..) {
                            client.put(put_table, &row, m)?;
                        }
                        io_seconds += client.elapsed_seconds();
                    }
                    Ok((
                        ReduceTaskOutput {
                            pairs: emitter.pairs,
                            node,
                            input_records: n_groups,
                            combine_input_records: n_values,
                            puts,
                            task_seconds_bits: max_state,
                        },
                        io_seconds,
                    ))
                };
                Box::new(task)
                    as Box<dyn FnOnce() -> Result<(ReduceTaskOutput, f64), EngineError> + Send + '_>
            })
            .collect();
        WorkStealingPool::global()
            .run_batch(tasks)
            .into_iter()
            .collect()
    }

    /// Builds a DFS file from task outputs (one part per task) and returns
    /// the modelled write time (disk + replication network, max over nodes).
    fn build_dfs_file(
        &self,
        outs: &[MapTaskOutput],
        cost: &rj_store::costmodel::CostModel,
    ) -> (f64, DfsFile) {
        let replicas = DFS_REPLICATION.min(self.cluster.num_nodes());
        let mut parts = Vec::with_capacity(outs.len());
        let mut per_node_bytes = vec![0u64; self.cluster.num_nodes()];
        let mut replication_bytes = 0u64;
        for t in outs {
            let bytes: u64 = t.pairs.iter().map(|(k, v)| record_weight(k, v)).sum();
            per_node_bytes[t.node] += bytes;
            replication_bytes += bytes * (replicas as u64 - 1);
            parts.push(DfsPart {
                node: t.node,
                records: t.pairs.clone(),
                bytes,
            });
        }
        self.cluster.metrics().add_network_bytes(replication_bytes);
        let disk_time = per_node_bytes
            .iter()
            .map(|&b| b as f64 / cost.disk_bandwidth)
            .fold(0.0f64, f64::max);
        let net_time = cost.transfer_time(replication_bytes);
        (disk_time + net_time, DfsFile { parts })
    }

    /// Driver-side fetch of the first `limit` records of a DFS file —
    /// Hive's final "fetch the k highest-ranked results" stage (§3.1).
    /// Charged as a remote read of the needed part prefixes.
    pub fn fetch_file_prefix(&self, name: &str, limit: usize) -> Result<Records, EngineError> {
        let file = self
            .dfs
            .read(name)
            .ok_or_else(|| EngineError::NoSuchFile(name.to_owned()))?;
        let cost = self.cluster.cost_model();
        let mut out = Vec::with_capacity(limit.min(file.record_count()));
        let mut bytes = 0u64;
        for rec in file.iter_records() {
            if out.len() == limit {
                break;
            }
            bytes += record_weight(&rec.0, &rec.1);
            out.push(rec.clone());
        }
        self.cluster.metrics().add_network_bytes(bytes);
        self.cluster
            .metrics()
            .add_sim_seconds(cost.rpc_latency + cost.transfer_time(bytes));
        Ok(out)
    }
}

struct ReduceTaskOutput {
    pairs: Vec<(Vec<u8>, Vec<u8>)>,
    node: usize,
    input_records: u64,         // groups
    combine_input_records: u64, // values
    puts: u64,
    /// Max observed reducer state bytes (name reused from MapTaskOutput).
    task_seconds_bits: u64,
}

/// Applies a combiner to one map task's output.
fn run_combiner(factory: ReducerFactory<'_>, emitter: Emitter) -> Emitter {
    let mut grouped: ReducerGroups = BTreeMap::new();
    for (k, v) in emitter.pairs {
        grouped.entry(k).or_default().push(v);
    }
    let mut combiner = factory();
    let mut out = Emitter {
        pairs: Vec::new(),
        puts: emitter.puts,
    };
    for (k, vs) in &grouped {
        combiner.reduce(k, vs, &mut out);
    }
    combiner.finish(&mut out);
    out
}

/// Makespan of a set of tasks over nodes with `slots` parallel slots each:
/// per node, `waves * task_startup + total_work / slots`.
fn phase_makespan(
    tasks: impl Iterator<Item = (usize, f64)>,
    num_nodes: usize,
    slots: usize,
    task_startup: f64,
) -> f64 {
    let mut work = vec![0.0f64; num_nodes];
    let mut count = vec![0usize; num_nodes];
    for (node, seconds) in tasks {
        work[node] += seconds;
        count[node] += 1;
    }
    (0..num_nodes)
        .map(|n| {
            if count[n] == 0 {
                0.0
            } else {
                let waves = count[n].div_ceil(slots);
                waves as f64 * task_startup + work[n] / slots as f64
            }
        })
        .fold(0.0f64, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::RangePartitioner;
    use crate::task::{FnMapper, FnReducer};
    use rj_store::cell::Mutation;
    use rj_store::costmodel::CostModel;
    use rj_store::keys;
    use std::sync::Arc;

    fn cluster_with_data(rows: u64) -> Cluster {
        let c = Cluster::new(3, CostModel::test());
        c.create_table_with_splits(
            "in",
            &["cf"],
            &[
                keys::encode_u64(rows / 3).to_vec(),
                keys::encode_u64(2 * rows / 3).to_vec(),
            ],
        )
        .unwrap();
        let client = c.client();
        for i in 0..rows {
            client
                .put(
                    "in",
                    &keys::encode_u64(i),
                    Mutation::put("cf", b"v", (i % 10).to_string().into_bytes()),
                )
                .unwrap();
        }
        c
    }

    #[test]
    fn word_count_end_to_end() {
        let c = cluster_with_data(100);
        let engine = MapReduceEngine::new(c);
        let spec = JobSpec::new("wc", JobInput::table("in"), 2).sink(OutputSink::Collect);
        let result = engine
            .run(
                &spec,
                &|| {
                    Box::new(FnMapper(|input: InputRecord<'_>, out: &mut Emitter| {
                        let row = input.row().unwrap();
                        let v = row.value("cf", b"v").unwrap().to_vec();
                        out.emit(v, b"1".to_vec());
                    }))
                },
                Some(&|| {
                    Box::new(FnReducer(
                        |key: &[u8], values: &[Vec<u8>], out: &mut Emitter| {
                            out.emit(key.to_vec(), values.len().to_string().into_bytes());
                        },
                    ))
                }),
                None,
            )
            .unwrap();
        // 100 rows, values 0..9 each appearing 10 times.
        assert_eq!(result.counters.map_input_records, 100);
        assert_eq!(result.collected.len(), 10);
        for (_k, v) in &result.collected {
            assert_eq!(v, b"10");
        }
    }

    #[test]
    fn combiner_shrinks_shuffle() {
        let c = cluster_with_data(100);
        let engine = MapReduceEngine::new(c);
        let mapper = || -> Box<dyn Mapper> {
            Box::new(FnMapper(|input: InputRecord<'_>, out: &mut Emitter| {
                let row = input.row().unwrap();
                let v = row.value("cf", b"v").unwrap().to_vec();
                out.emit(v, b"1".to_vec());
            }))
        };
        let count_reducer = || -> Box<dyn Reducer> {
            Box::new(FnReducer(
                |key: &[u8], values: &[Vec<u8>], out: &mut Emitter| {
                    let total: u64 = values
                        .iter()
                        .map(|v| String::from_utf8_lossy(v).parse::<u64>().unwrap_or(1))
                        .sum();
                    out.emit(key.to_vec(), total.to_string().into_bytes());
                },
            ))
        };
        let spec = JobSpec::new("wc", JobInput::table("in"), 1).sink(OutputSink::Collect);
        let plain = engine
            .run(&spec, &mapper, Some(&count_reducer), None)
            .unwrap();
        let combined = engine
            .run(&spec, &mapper, Some(&count_reducer), Some(&count_reducer))
            .unwrap();
        assert!(combined.counters.shuffle_bytes < plain.counters.shuffle_bytes);
        // Same answers either way.
        let mut a = plain.collected;
        let mut b = combined.collected;
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn map_only_job_puts_to_store() {
        let c = cluster_with_data(30);
        c.create_table("out", &["x"]).unwrap();
        let engine = MapReduceEngine::new(c.clone());
        let spec = JobSpec::new("index", JobInput::table("in"), 0).put_table("out");
        let result = engine
            .run(
                &spec,
                &|| {
                    Box::new(FnMapper(|input: InputRecord<'_>, out: &mut Emitter| {
                        let row = input.row().unwrap();
                        let v = row.value("cf", b"v").unwrap().to_vec();
                        // Inverted index: value -> row key.
                        out.put(v, Mutation::put("x", input.key(), b"".to_vec()));
                    }))
                },
                None,
                None,
            )
            .unwrap();
        assert_eq!(result.counters.store_puts, 30);
        assert_eq!(c.table("out").unwrap().kv_count(), 30);
        // 10 distinct values → 10 rows.
        assert_eq!(c.table("out").unwrap().row_count(), 10);
    }

    #[test]
    fn file_roundtrip_between_jobs() {
        let c = cluster_with_data(50);
        let engine = MapReduceEngine::new(c);
        // Job 1: write identity records to a file.
        let spec1 = JobSpec::new("j1", JobInput::table("in"), 1)
            .sink(OutputSink::File("tmp/stage1".into()));
        engine
            .run(
                &spec1,
                &|| {
                    Box::new(FnMapper(|input: InputRecord<'_>, out: &mut Emitter| {
                        out.emit(input.key().to_vec(), b"x".to_vec());
                    }))
                },
                Some(&|| {
                    Box::new(FnReducer(
                        |key: &[u8], _values: &[Vec<u8>], out: &mut Emitter| {
                            out.emit(key.to_vec(), b"y".to_vec());
                        },
                    ))
                }),
                None,
            )
            .unwrap();
        assert!(engine.dfs().exists("tmp/stage1"));
        // Job 2: count records of the file.
        let spec2 = JobSpec::new("j2", JobInput::file("tmp/stage1"), 1).sink(OutputSink::Collect);
        let result = engine
            .run(
                &spec2,
                &|| {
                    Box::new(FnMapper(|_input: InputRecord<'_>, out: &mut Emitter| {
                        out.emit(b"n".to_vec(), b"1".to_vec());
                    }))
                },
                Some(&|| {
                    Box::new(FnReducer(
                        |_key: &[u8], values: &[Vec<u8>], out: &mut Emitter| {
                            out.emit(b"n".to_vec(), values.len().to_string().into_bytes());
                        },
                    ))
                }),
                None,
            )
            .unwrap();
        assert_eq!(result.collected[0].1, b"50".to_vec());
    }

    #[test]
    fn range_partitioner_orders_reducer_output() {
        let c = cluster_with_data(90);
        let engine = MapReduceEngine::new(c);
        let boundaries = vec![keys::encode_u64(30).to_vec(), keys::encode_u64(60).to_vec()];
        let spec = JobSpec::new("sorted", JobInput::table("in"), 3)
            .sink(OutputSink::Collect)
            .partitioner(Arc::new(RangePartitioner::new(boundaries)));
        let result = engine
            .run(
                &spec,
                &|| {
                    Box::new(FnMapper(|input: InputRecord<'_>, out: &mut Emitter| {
                        out.emit(input.key().to_vec(), b"".to_vec());
                    }))
                },
                Some(&|| {
                    Box::new(FnReducer(
                        |key: &[u8], _values: &[Vec<u8>], out: &mut Emitter| {
                            out.emit(key.to_vec(), b"".to_vec());
                        },
                    ))
                }),
                None,
            )
            .unwrap();
        // Reducer-major, key-minor order = globally sorted with a range
        // partitioner: this is Pig's total-order trick.
        let keys_out: Vec<u64> = result
            .collected
            .iter()
            .map(|(k, _)| keys::decode_u64(k).unwrap())
            .collect();
        let mut sorted = keys_out.clone();
        sorted.sort();
        assert_eq!(keys_out, sorted);
        assert_eq!(keys_out.len(), 90);
    }

    #[test]
    fn job_time_includes_startup() {
        let c = cluster_with_data(10);
        let mut cost = CostModel::test();
        cost.mr_job_startup = 5.0;
        let c2 = Cluster::new(2, cost);
        c2.create_table("in", &["cf"]).unwrap();
        let cl = c2.client();
        for i in 0..10u64 {
            cl.put(
                "in",
                &keys::encode_u64(i),
                Mutation::put("cf", b"v", b"x".to_vec()),
            )
            .unwrap();
        }
        drop(c);
        let engine = MapReduceEngine::new(c2.clone());
        let before = c2.metrics().snapshot();
        let result = engine
            .run(
                &JobSpec::new("j", JobInput::table("in"), 0),
                &|| Box::new(FnMapper(|_i: InputRecord<'_>, _o: &mut Emitter| {})),
                None,
                None,
            )
            .unwrap();
        assert!(result.counters.job_seconds >= 5.0);
        let d = c2.metrics().snapshot().delta_since(&before);
        assert!(d.sim_seconds >= 5.0, "job time charged to global clock");
    }

    #[test]
    fn mapper_billed_for_every_kv_scanned() {
        let c = cluster_with_data(40);
        let engine = MapReduceEngine::new(c.clone());
        let before = c.metrics().snapshot();
        engine
            .run(
                &JobSpec::new("j", JobInput::table("in"), 0),
                &|| Box::new(FnMapper(|_i: InputRecord<'_>, _o: &mut Emitter| {})),
                None,
                None,
            )
            .unwrap();
        let d = c.metrics().snapshot().delta_since(&before);
        assert_eq!(d.kv_reads, 40, "dollar cost counts all mapper reads");
        assert_eq!(d.network_bytes, 0, "local mappers ship nothing");
    }

    #[test]
    fn missing_file_input_errors() {
        let c = cluster_with_data(1);
        let engine = MapReduceEngine::new(c);
        let err = engine
            .run(
                &JobSpec::new("j", JobInput::file("nope"), 0),
                &|| Box::new(FnMapper(|_i: InputRecord<'_>, _o: &mut Emitter| {})),
                None,
                None,
            )
            .unwrap_err();
        assert!(matches!(err, EngineError::NoSuchFile(_)));
    }

    #[test]
    fn reducer_state_bytes_tracked() {
        struct Hungry {
            buf: Vec<u8>,
        }
        impl Reducer for Hungry {
            fn reduce(&mut self, _k: &[u8], values: &[Vec<u8>], _out: &mut Emitter) {
                for v in values {
                    self.buf.extend_from_slice(v);
                }
            }
            fn state_bytes(&self) -> u64 {
                self.buf.len() as u64
            }
        }
        let c = cluster_with_data(20);
        let engine = MapReduceEngine::new(c);
        let spec = JobSpec::new("j", JobInput::table("in"), 1);
        let result = engine
            .run(
                &spec,
                &|| {
                    Box::new(FnMapper(|input: InputRecord<'_>, out: &mut Emitter| {
                        out.emit(b"k".to_vec(), input.key().to_vec());
                    }))
                },
                Some(&|| Box::new(Hungry { buf: Vec::new() }) as Box<dyn Reducer>),
                None,
            )
            .unwrap();
        assert_eq!(result.counters.max_reducer_state_bytes, 20 * 8);
    }
}
