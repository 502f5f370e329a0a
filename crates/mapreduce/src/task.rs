//! Mapper and reducer traits plus the emitter they write through.

use rj_store::cell::Mutation;
use rj_store::row::RowRef;

/// One input record handed to a mapper.
#[derive(Debug)]
pub enum InputRecord<'a> {
    /// A row scanned from a store table (table-input jobs). `table` tags
    /// the source, so join jobs over multiple tables can tell sides apart.
    Row {
        /// Source table name.
        table: &'a str,
        /// The scanned row, lent by the task's scanner: a mapper that
        /// keeps it copies it ([`RowRef::to_owned`]).
        row: RowRef<'a>,
    },
    /// A key/value record read from a DFS file (file-input jobs).
    Pair {
        /// Record key.
        key: &'a [u8],
        /// Record value.
        value: &'a [u8],
    },
}

impl<'a> InputRecord<'a> {
    /// The record's key (row key or pair key).
    pub fn key(&self) -> &'a [u8] {
        match self {
            InputRecord::Row { row, .. } => row.key,
            InputRecord::Pair { key, .. } => key,
        }
    }

    /// The row, if this is table input.
    pub fn row(&self) -> Option<RowRef<'a>> {
        match self {
            InputRecord::Row { row, .. } => Some(*row),
            InputRecord::Pair { .. } => None,
        }
    }

    /// The source table, if this is table input.
    pub fn table(&self) -> Option<&'a str> {
        match self {
            InputRecord::Row { table, .. } => Some(table),
            InputRecord::Pair { .. } => None,
        }
    }
}

/// Collects task output: shuffle pairs and/or direct store puts.
#[derive(Default)]
pub struct Emitter {
    pub(crate) pairs: Vec<(Vec<u8>, Vec<u8>)>,
    pub(crate) puts: Vec<(Vec<u8>, Mutation)>,
}

impl Emitter {
    /// Emits a key/value pair into the shuffle (map phase) or the job sink
    /// (reduce phase).
    pub fn emit(&mut self, key: impl Into<Vec<u8>>, value: impl Into<Vec<u8>>) {
        self.pairs.push((key.into(), value.into()));
    }

    /// Issues a put against the job's output table (map-only index builds,
    /// Algorithm 1/3; BFHM reducers, Algorithm 5).
    pub fn put(&mut self, row_key: impl Into<Vec<u8>>, mutation: Mutation) {
        self.puts.push((row_key.into(), mutation));
    }

    /// Number of pairs emitted so far.
    pub fn pair_count(&self) -> usize {
        self.pairs.len()
    }
}

/// A map task. One instance is created per input split (region or DFS
/// part) via the job's mapper factory.
pub trait Mapper: Send {
    /// Processes one input record.
    fn map(&mut self, input: InputRecord<'_>, out: &mut Emitter);

    /// Called once after the split is exhausted — where, e.g., the IJLMR
    /// query mappers emit their buffered local top-k lists (§4.1.2).
    fn finish(&mut self, _out: &mut Emitter) {}

    /// Polled between records; returning `false` stops the split early
    /// (sampling mappers use this so unread scan batches are never fetched
    /// or billed).
    fn wants_more(&self) -> bool {
        true
    }
}

/// A reduce task (also used as a combiner).
pub trait Reducer: Send {
    /// Processes one key group. `values` are in deterministic
    /// (map-task-index, emit-order) order.
    fn reduce(&mut self, key: &[u8], values: &[Vec<u8>], out: &mut Emitter);

    /// Called once after the reducer's last group.
    fn finish(&mut self, _out: &mut Emitter) {}

    /// Self-reported resident state size, sampled by the engine after each
    /// group to drive the §7.2 memory-footprint experiment.
    fn state_bytes(&self) -> u64 {
        0
    }
}

/// Blanket helper: build a mapper from a closure (tests, simple jobs).
pub struct FnMapper<F>(pub F);

impl<F> Mapper for FnMapper<F>
where
    F: FnMut(InputRecord<'_>, &mut Emitter) + Send,
{
    fn map(&mut self, input: InputRecord<'_>, out: &mut Emitter) {
        (self.0)(input, out);
    }
}

/// Blanket helper: build a reducer from a closure.
pub struct FnReducer<F>(pub F);

impl<F> Reducer for FnReducer<F>
where
    F: FnMut(&[u8], &[Vec<u8>], &mut Emitter) + Send,
{
    fn reduce(&mut self, key: &[u8], values: &[Vec<u8>], out: &mut Emitter) {
        (self.0)(key, values, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emitter_collects_both_channels() {
        let mut e = Emitter::default();
        e.emit(b"k".to_vec(), b"v".to_vec());
        e.put(b"row".to_vec(), Mutation::put("cf", b"q", b"x".to_vec()));
        assert_eq!(e.pair_count(), 1);
        assert_eq!(e.puts.len(), 1);
    }

    #[test]
    fn fn_mapper_adapts_closures() {
        let mut m = FnMapper(|input: InputRecord<'_>, out: &mut Emitter| {
            out.emit(input.key().to_vec(), b"seen".to_vec());
        });
        let mut e = Emitter::default();
        m.map(
            InputRecord::Pair {
                key: b"a",
                value: b"1",
            },
            &mut e,
        );
        assert_eq!(e.pairs[0].0, b"a".to_vec());
    }

    #[test]
    fn input_record_accessors() {
        let pair = InputRecord::Pair {
            key: b"k",
            value: b"v",
        };
        assert_eq!(pair.key(), b"k");
        assert!(pair.row().is_none());
    }
}
