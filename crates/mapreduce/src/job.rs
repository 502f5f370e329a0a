//! Job specifications and results.

use std::sync::Arc;

use crate::counters::Counters;
use crate::partition::{HashPartitioner, Partitioner};

/// One table feeding a job.
#[derive(Clone, Debug)]
pub struct TableInput {
    /// Table name.
    pub table: String,
    /// Optional column-family projection (early projection, à la Pig).
    pub families: Option<Vec<String>>,
}

/// Where a job reads its input.
#[derive(Clone, Debug)]
pub enum JobInput {
    /// Scan one or more store tables; one map task per region, run on the
    /// region's node (Hadoop/HBase locality: "each mapper is executed on
    /// the NoSQL store node storing its input region data", §4.1.2).
    /// Multiple tables give Hive/Pig-style tagged join input — mappers see
    /// which table each row came from.
    Tables(Vec<TableInput>),
    /// Read a DFS file; one map task per part, run on the part's node.
    File(String),
}

impl JobInput {
    /// Convenience: full-table input.
    pub fn table(name: &str) -> Self {
        JobInput::Tables(vec![TableInput {
            table: name.to_owned(),
            families: None,
        }])
    }

    /// Convenience: two-table join input.
    pub fn two_tables(left: TableInput, right: TableInput) -> Self {
        JobInput::Tables(vec![left, right])
    }

    /// Convenience: DFS file input.
    pub fn file(name: &str) -> Self {
        JobInput::File(name.to_owned())
    }
}

impl TableInput {
    /// Full-table input.
    pub fn all(table: &str) -> Self {
        TableInput {
            table: table.to_owned(),
            families: None,
        }
    }

    /// Projected input.
    pub fn projected(table: &str, families: &[&str]) -> Self {
        TableInput {
            table: table.to_owned(),
            families: Some(families.iter().map(|f| (*f).to_owned()).collect()),
        }
    }
}

/// Where reduce output (or map output, for map-only jobs) goes.
#[derive(Clone, Debug)]
pub enum OutputSink {
    /// Write records to a DFS file (one part per task).
    File(String),
    /// Discard emitted records (jobs whose effect is store puts only).
    Discard,
    /// Ship records back to the driver (billed as network traffic).
    Collect,
}

/// A MapReduce job description.
#[derive(Clone)]
pub struct JobSpec {
    /// Job name (diagnostics).
    pub name: String,
    /// Input source.
    pub input: JobInput,
    /// Reducer count; 0 = map-only job whose mappers write straight to the
    /// store ("a special type of MapReduce job where there are no reducers
    /// and the output of mappers is written directly into the NoSQL store",
    /// §4.1.1).
    pub num_reducers: usize,
    /// Record sink.
    pub sink: OutputSink,
    /// Target table for `Emitter::put` calls, if any.
    pub put_table: Option<String>,
    /// Shuffle partitioner.
    pub partitioner: Arc<dyn Partitioner>,
    /// Rows fetched per scan RPC by table-input map tasks (default 10_000).
    pub scan_caching: Option<usize>,
    /// Server-side filter pushed into table-input map scans — the paper's
    /// DRJN pull phase ("custom server-side filters", §7.1): filtered rows
    /// are billed but never reach the mapper.
    pub scan_filter: Option<Arc<dyn rj_store::filter::ServerFilter>>,
}

impl JobSpec {
    /// A job with the default hash partitioner and discard sink.
    pub fn new(name: &str, input: JobInput, num_reducers: usize) -> Self {
        JobSpec {
            name: name.to_owned(),
            input,
            num_reducers,
            sink: OutputSink::Discard,
            put_table: None,
            partitioner: Arc::new(HashPartitioner),
            scan_caching: None,
            scan_filter: None,
        }
    }

    /// Sets the map-scan row cache size.
    pub fn scan_caching(mut self, rows: usize) -> Self {
        self.scan_caching = Some(rows);
        self
    }

    /// Pushes a server-side filter into the map scans.
    pub fn scan_filter(mut self, f: Arc<dyn rj_store::filter::ServerFilter>) -> Self {
        self.scan_filter = Some(f);
        self
    }

    /// Sets the sink.
    pub fn sink(mut self, sink: OutputSink) -> Self {
        self.sink = sink;
        self
    }

    /// Sets the put target table.
    pub fn put_table(mut self, table: &str) -> Self {
        self.put_table = Some(table.to_owned());
        self
    }

    /// Sets the partitioner.
    pub fn partitioner(mut self, p: Arc<dyn Partitioner>) -> Self {
        self.partitioner = p;
        self
    }
}

/// The outcome of one job run.
#[derive(Debug, Default)]
pub struct JobResult {
    /// Aggregate counters (including the modelled job duration).
    pub counters: Counters,
    /// Records collected back at the driver (empty unless the sink is
    /// [`OutputSink::Collect`]). Sorted by reducer, then key order.
    pub collected: Vec<(Vec<u8>, Vec<u8>)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_builder() {
        let s = JobSpec::new("j", JobInput::table("t"), 2)
            .sink(OutputSink::Collect)
            .put_table("out");
        assert_eq!(s.name, "j");
        assert_eq!(s.num_reducers, 2);
        assert!(matches!(s.sink, OutputSink::Collect));
        assert_eq!(s.put_table.as_deref(), Some("out"));
    }

    #[test]
    fn input_helpers() {
        assert!(matches!(JobInput::table("x"), JobInput::Tables(_)));
        assert!(matches!(JobInput::file("f"), JobInput::File(_)));
        if let JobInput::Tables(ts) =
            JobInput::two_tables(TableInput::all("l"), TableInput::projected("r", &["cf"]))
        {
            assert_eq!(ts.len(), 2);
            assert_eq!(ts[1].families.as_ref().unwrap(), &["cf".to_string()]);
        } else {
            panic!("expected two-table input");
        }
    }
}
