//! The metric tables: names, units, directions and bounds. `BENCHMARK.json`
//! at the repo root mirrors these (a unit test holds the two together),
//! `compare` applies them, and README.md explains them.

/// Which way is better.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// `"lower"` / `"higher"`, as `BENCHMARK.json` spells it.
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: something a user of the system would see.
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the baseline's value by which the metric may worsen
    /// before a change counts as a regression.
    pub bound: f64,
    /// Listed in `BENCHMARK.json` and so gated by the driver. The three
    /// host-time metrics are not: on the reference machine (2 shared
    /// vCPUs) two A/A sets of ten runs differed by 22–37 % in their
    /// medians, far past the bounds the issue allows them, so they are
    /// demoted to printed diagnostics. `compare` still judges them (and
    /// answers `unresolved` when a run's own trials spread too far).
    pub gated: bool,
    /// The metric is a count the program makes, which repeats exactly
    /// for a given seed: `compare` treats *any* difference between two
    /// same-seed runs as a change. (Across seeds the op order, tenants
    /// and keys differ, so `bound` — never 0 — is what a cross-seed
    /// comparison uses.)
    pub exact_for_seed: bool,
}

/// The end-to-end metrics every workload reports, gated or not.
pub const END_TO_END: [EndToEnd; 10] = [
    EndToEnd {
        name: "ops_per_s",
        gated: false,
        unit: "op/s",
        better: Better::Higher,
        bound: 0.10,
        exact_for_seed: false,
    },
    EndToEnd {
        name: "lat_p50_us",
        gated: false,
        unit: "us",
        better: Better::Lower,
        bound: 0.10,
        exact_for_seed: false,
    },
    EndToEnd {
        name: "lat_p99_us",
        gated: false,
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
        exact_for_seed: false,
    },
    EndToEnd {
        name: "allocs_per_op",
        gated: true,
        unit: "count",
        better: Better::Lower,
        bound: 0.005,
        exact_for_seed: false,
    },
    EndToEnd {
        name: "alloc_bytes_per_op",
        gated: true,
        unit: "bytes",
        better: Better::Lower,
        bound: 0.005,
        exact_for_seed: false,
    },
    EndToEnd {
        name: "peak_live_mb",
        gated: true,
        unit: "MB",
        better: Better::Lower,
        bound: 0.05,
        exact_for_seed: false,
    },
    EndToEnd {
        name: "sim_ms_per_op",
        gated: true,
        unit: "sim-ms",
        better: Better::Lower,
        bound: 0.01,
        exact_for_seed: true,
    },
    EndToEnd {
        name: "kv_reads_per_op",
        gated: true,
        unit: "count",
        better: Better::Lower,
        // `update_stream`'s reads vary by about 1 % from seed to seed
        // (which inserted rows reach the top buckets); every other
        // workload's reads do not depend on the seed at all.
        bound: 0.04,
        exact_for_seed: true,
    },
    EndToEnd {
        name: "net_bytes_per_op",
        gated: true,
        unit: "bytes",
        better: Better::Lower,
        bound: 0.01,
        exact_for_seed: true,
    },
    EndToEnd {
        name: "setup_s",
        gated: true,
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        exact_for_seed: false,
    },
];

/// A per-layer metric.
#[derive(Clone, Copy, Debug)]
pub struct PerLayer {
    /// Metric name; the prefix before the first `.` is the layer.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction. `BENCHMARK.json` carries it for the driver; nothing
    /// in the program branches on it (per-layer metrics have no bound).
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

use Better::{Higher, Lower};

/// The per-layer metrics of the `--trace 1` pass. Layers are the crates.
pub const PER_LAYER: [PerLayer; 54] = [
    // rj_store: probes over its public API on the loaded data, and the
    // ledger's counts for the workload itself.
    layer("store.scan_ns_per_row", "ns", Lower),
    layer("store.get_ns", "ns", Lower),
    layer("store.put_ns", "ns", Lower),
    layer("store.pool_batch_us", "us", Lower),
    layer("store.kv_reads_per_op", "count", Lower),
    layer("store.rpc_calls_per_op", "count", Lower),
    layer("store.kv_writes_per_op", "count", Lower),
    layer("store.est_ms_per_op", "ms", Lower),
    // rj_sketch: probes.
    layer("sketch.blob_decode_us", "us", Lower),
    layer("sketch.filter_intersect_us", "us", Lower),
    layer("sketch.flatmap_push_ns", "ns", Lower),
    layer("sketch.flatmap_get_ns", "ns", Lower),
    // rj_core: boundary spans, each with the allocations inside it.
    layer("core.plan_cold_us", "us", Lower),
    layer("core.plan_cold_us.allocs", "count", Lower),
    layer("core.plan_cached_ns", "ns", Lower),
    layer("core.plan_cached_ns.allocs", "count", Lower),
    layer("core.cursor_open_us", "us", Lower),
    layer("core.cursor_open_us.allocs", "count", Lower),
    layer("core.cursor_pull_ms", "ms", Lower),
    layer("core.cursor_pull_ms.allocs", "count", Lower),
    layer("core.cursor_pause_us", "us", Lower),
    layer("core.cursor_pause_us.allocs", "count", Lower),
    layer("core.cursor_resume_us", "us", Lower),
    layer("core.cursor_resume_us.allocs", "count", Lower),
    layer("core.maintained_insert_us", "us", Lower),
    layer("core.maintained_insert_us.allocs", "count", Lower),
    layer("core.maintained_delete_us", "us", Lower),
    layer("core.maintained_delete_us.allocs", "count", Lower),
    layer("core.read_after_write_ms", "ms", Lower),
    layer("core.read_after_write_ms.allocs", "count", Lower),
    layer("core.self_ms_per_op", "ms", Lower),
    layer("core.rows_per_result", "count", Lower),
    layer("core.topk_offer_ns", "ns", Lower),
    layer("core.recollects_per_kop", "count", Lower),
    // rj_serve: boundary spans and the sharing shape.
    layer("serve.submit_us", "us", Lower),
    layer("serve.submit_us.allocs", "count", Lower),
    layer("serve.poll_us", "us", Lower),
    layer("serve.poll_us.allocs", "count", Lower),
    layer("serve.next_page_us", "us", Lower),
    layer("serve.next_page_us.allocs", "count", Lower),
    layer("serve.round_idle_us", "us", Lower),
    layer("serve.round_idle_us.allocs", "count", Lower),
    layer("serve.round_exec_us", "us", Lower),
    layer("serve.round_exec_us.allocs", "count", Lower),
    layer("serve.round_growth", "ratio", Lower),
    layer("serve.share_hit_ratio", "ratio", Higher),
    layer("serve.executions_per_session", "ratio", Lower),
    layer("serve.warm_start_ratio", "ratio", Higher),
    layer("serve.rounds_per_session", "ratio", Lower),
    // Set-up, through rj_tpch and rj_mapreduce.
    layer("setup.load_s", "s", Lower),
    layer("setup.prepare_isl_s", "s", Lower),
    layer("setup.prepare_bfhm_s", "s", Lower),
    layer("setup.prepare_multiway_s", "s", Lower),
    // The cost of looking.
    layer("trace.overhead_ratio", "ratio", Higher),
];

/// Looks an end-to-end metric up by name.
pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use crate::ops::Workload;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END {
            assert!(valid_name(m.name) && valid_unit(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(seen.insert(m.name));
        }
        for m in PER_LAYER {
            assert!(valid_name(m.name) && valid_unit(m.unit), "{}", m.name);
            assert!(seen.insert(m.name), "{} used twice", m.name);
        }
        for w in Workload::ALL {
            assert!(valid_name(w.name()) && seen.insert(w.name()));
            assert!(
                w.why().len() <= 200 && !w.why().contains('\n'),
                "{}",
                w.name()
            );
        }
        let setup = end_to_end("setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(setup.gated && END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    /// `BENCHMARK.json` is the contract the driver reads; this table is
    /// what the program emits. They must not drift apart.
    #[test]
    fn benchmark_json_mirrors_the_tables() {
        let text = include_str!("../../BENCHMARK.json");
        let v = json::parse(text).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = v.members().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let str_of =
            |v: &json::Value, k: &str| v.get(k).and_then(|s| s.as_str().map(str::to_owned));

        let workloads = v.get("workloads").unwrap().elements();
        assert_eq!(workloads.len(), Workload::ALL.len());
        for (got, want) in workloads.iter().zip(Workload::ALL) {
            assert_eq!(str_of(got, "name").as_deref(), Some(want.name()));
            assert_eq!(str_of(got, "why").as_deref(), Some(want.why()));
            assert_eq!(got.members().len(), 2);
        }
        let e2e = v.get("end_to_end").unwrap().elements();
        let gated: Vec<&EndToEnd> = END_TO_END.iter().filter(|m| m.gated).collect();
        assert_eq!(e2e.len(), gated.len());
        for (got, want) in e2e.iter().zip(gated) {
            assert_eq!(str_of(got, "name").as_deref(), Some(want.name));
            assert_eq!(str_of(got, "unit").as_deref(), Some(want.unit));
            assert_eq!(str_of(got, "better").as_deref(), Some(want.better.name()));
            assert_eq!(
                got.get("bound").and_then(json::Value::as_f64),
                Some(want.bound)
            );
            assert_eq!(got.members().len(), 4);
        }
        let layers = v.get("per_layer").unwrap().elements();
        assert_eq!(layers.len(), PER_LAYER.len());
        for (got, want) in layers.iter().zip(PER_LAYER) {
            assert_eq!(str_of(got, "name").as_deref(), Some(want.name));
            assert_eq!(str_of(got, "unit").as_deref(), Some(want.unit));
            assert_eq!(str_of(got, "better").as_deref(), Some(want.better.name()));
            assert_eq!(got.members().len(), 3);
        }
        assert_eq!(
            v.get("paths").unwrap().elements(),
            [json::Value::Str("benchmark".into())]
        );
    }
}
