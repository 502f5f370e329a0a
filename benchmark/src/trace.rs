//! Boundary spans for the `--trace 1` pass.
//!
//! The benchmark records a span around every call it makes into a layer
//! (spans *inside* the program are a later change — see ROADMAP.md,
//! "Query traces"). A span carries name, start, end, parent and op id,
//! plus the allocation counters and the simulated ledger at both ends.
//! Spans are held in memory and written out when the run ends.

use std::time::Instant;

use crate::alloc::{self, AllocSnapshot};
use crate::json::Value;
use crate::seam::MetricsSnapshot;

/// No parent.
pub const ROOT: u32 = u32::MAX;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Span name (one of `names::*`).
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, or [`ROOT`].
    pub parent: u32,
    /// The client operation this span belongs to.
    pub op: u32,
    /// Allocation counters at entry.
    pub alloc_start: AllocSnapshot,
    /// Allocation counters at exit.
    pub alloc_end: AllocSnapshot,
    /// Simulated ledger at entry.
    pub ledger_start: MetricsSnapshot,
    /// Simulated ledger at exit.
    pub ledger_end: MetricsSnapshot,
}

impl Span {
    /// Wall duration.
    pub fn nanos(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// Allocation calls inside the span.
    pub fn allocs(&self) -> u64 {
        self.alloc_end.allocs - self.alloc_start.allocs
    }
}

/// Span names. The per-layer metric of the same stem is the median over
/// all spans of that name.
pub mod names {
    /// One client operation (parent of everything it calls).
    pub const OP: &str = "op";
    /// A planner call that could not be served from the plan cache.
    pub const PLAN_COLD: &str = "core.plan_cold";
    /// A planner call served from the plan cache.
    pub const PLAN_CACHED: &str = "core.plan_cached";
    /// `open_cursor`.
    pub const CURSOR_OPEN: &str = "core.cursor_open";
    /// `next_batch`.
    pub const CURSOR_PULL: &str = "core.cursor_pull";
    /// `pause`.
    pub const CURSOR_PAUSE: &str = "core.cursor_pause";
    /// `resume_cursor`.
    pub const CURSOR_RESUME: &str = "core.cursor_resume";
    /// `MaintainedSide::insert`.
    pub const MAINTAINED_INSERT: &str = "core.maintained_insert";
    /// `MaintainedSide::delete`.
    pub const MAINTAINED_DELETE: &str = "core.maintained_delete";
    /// A whole read issued right after a burst of maintained writes.
    pub const READ_AFTER_WRITE: &str = "core.read_after_write";
    /// `RankJoinService::submit`.
    pub const SUBMIT: &str = "serve.submit";
    /// `RankJoinService::poll`.
    pub const POLL: &str = "serve.poll";
    /// `RankJoinService::next_page`.
    pub const NEXT_PAGE: &str = "serve.next_page";
    /// A scheduling round that ran no execution (cache hits only).
    pub const ROUND_IDLE: &str = "serve.round_idle";
    /// A scheduling round that ran at least one execution.
    pub const ROUND_EXEC: &str = "serve.round_exec";
}

/// Reads the simulated ledger the traced calls charge (a workload's
/// ledger can change under it — `serve_shared` builds a fresh service,
/// hence fresh tenant ledgers, per trial — so every call names its own).
pub type Ledger<'a> = &'a dyn Fn() -> MetricsSnapshot;

/// Collects spans. One per traced pass.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    op: u32,
}

impl Tracer {
    /// An empty tracer; its epoch is now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            stack: Vec::with_capacity(8),
            op: 0,
        }
    }

    /// Sets the op id stamped on spans entered from now on.
    pub fn set_op(&mut self, op: u32) {
        self.op = op;
    }

    /// Opens a span under the innermost open one. Returns its index for
    /// [`Tracer::exit`].
    pub fn enter(&mut self, name: &'static str, ledger: Ledger) -> u32 {
        let id = self.spans.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(ROOT);
        let ledger = ledger();
        let alloc = alloc::snapshot();
        self.stack.push(id);
        self.spans.push(Span {
            name,
            // Read the clock last on entry and first on exit, so the
            // snapshots themselves stay outside the span.
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent,
            op: self.op,
            alloc_start: alloc,
            alloc_end: alloc,
            ledger_start: ledger,
            ledger_end: ledger,
        });
        id
    }

    /// Closes span `id` (must be the innermost open one).
    pub fn exit(&mut self, id: u32, ledger: Ledger) {
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        let alloc = alloc::snapshot();
        let ledger = ledger();
        let popped = self.stack.pop();
        debug_assert_eq!(popped, Some(id), "spans must nest");
        let span = &mut self.spans[id as usize];
        span.end_ns = end_ns;
        span.alloc_end = alloc;
        span.ledger_end = ledger;
    }

    /// Closes span `id` under a name decided by what happened inside it.
    pub fn exit_as(&mut self, id: u32, name: &'static str, ledger: Ledger) {
        self.exit(id, ledger);
        self.spans[id as usize].name = name;
    }

    /// Records a leaf span around `f`.
    pub fn leaf<T>(&mut self, name: &'static str, ledger: Ledger, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name, ledger);
        let out = f();
        self.exit(id, ledger);
        out
    }

    /// Every span recorded so far, in entry order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Per-span self time: duration minus the part covered by child spans.
pub fn self_nanos(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::nanos).collect();
    for s in spans {
        if s.parent != ROOT {
            let p = s.parent as usize;
            own[p] = own[p].saturating_sub(s.nanos());
        }
    }
    own
}

fn ledger_json(l: &MetricsSnapshot) -> Value {
    Value::obj([
        ("kv_reads", Value::Num(l.kv_reads as f64)),
        ("kv_writes", Value::Num(l.kv_writes as f64)),
        ("network_bytes", Value::Num(l.network_bytes as f64)),
        ("rpc_calls", Value::Num(l.rpc_calls as f64)),
        ("sim_seconds", Value::Num(l.sim_seconds)),
    ])
}

fn alloc_json(a: &AllocSnapshot) -> Value {
    Value::obj([
        ("allocs", Value::Num(a.allocs as f64)),
        ("bytes", Value::Num(a.bytes as f64)),
    ])
}

/// The trace file: one object per span.
pub fn to_json(workload: &str, seed: u64, spans: &[Span]) -> Value {
    let spans = spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            Value::obj([
                ("id", Value::Num(i as f64)),
                ("name", Value::Str(s.name.to_owned())),
                ("start_ns", Value::Num(s.start_ns as f64)),
                ("end_ns", Value::Num(s.end_ns as f64)),
                (
                    "parent",
                    if s.parent == ROOT {
                        Value::Null
                    } else {
                        Value::Num(f64::from(s.parent))
                    },
                ),
                ("op", Value::Num(f64::from(s.op))),
                ("alloc_start", alloc_json(&s.alloc_start)),
                ("alloc_end", alloc_json(&s.alloc_end)),
                ("ledger_start", ledger_json(&s.ledger_start)),
                ("ledger_end", ledger_json(&s.ledger_end)),
            ])
        })
        .collect();
    Value::obj([
        ("workload", Value::Str(workload.to_owned())),
        ("seed", Value::Num(seed as f64)),
        ("spans", Value::Arr(spans)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let ledger: Ledger = &MetricsSnapshot::default;
        let mut t = Tracer::new();
        let op = t.enter(names::OP, ledger);
        t.leaf(names::CURSOR_OPEN, ledger, || std::hint::black_box(1 + 1));
        t.leaf(names::CURSOR_PULL, ledger, || std::hint::black_box(2 + 2));
        t.exit(op, ledger);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[2].parent, 0);
        assert_eq!(spans[0].parent, ROOT);
        let own = self_nanos(spans);
        assert_eq!(
            own[0],
            spans[0].nanos() - spans[1].nanos() - spans[2].nanos()
        );
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[2].end_ns <= spans[0].end_ns);
    }

    #[test]
    fn trace_file_parses() {
        let ledger: Ledger = &MetricsSnapshot::default;
        let mut t = Tracer::new();
        t.set_op(4);
        let id = t.enter("round", ledger);
        t.exit_as(id, names::ROUND_IDLE, ledger);
        let text = to_json("serve_shared", 9, t.spans()).render_pretty();
        let v = crate::json::parse(&text).unwrap();
        let span = &v.get("spans").unwrap().elements()[0];
        assert_eq!(span.get("name").unwrap().as_str(), Some(names::ROUND_IDLE));
        assert_eq!(span.get("op").unwrap().as_f64(), Some(4.0));
        assert_eq!(span.get("parent"), Some(&Value::Null));
    }
}
