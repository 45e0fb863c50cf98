//! The metric names this benchmark reports. `BENCHMARK.json` declares the
//! same names, units and bounds; `--smoke` checks the two against each
//! other, so neither can drift.

use std::collections::BTreeMap;

use crate::json::{self, Json};

/// End-to-end metrics, reported by every workload with tracing off. What
/// the operation is differs per workload; see `benchmark/README.md`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("cold_start_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by the traced run. A metric whose layer the
/// workload never enters reads 0 there: that zero is the prediction "a
/// change to this layer cannot move this workload".
pub const PER_LAYER: [(&str, &str); 73] = [
    // dim-graph
    ("graph.generate_s", "s"),
    ("graph.encode_binary_s", "s"),
    ("graph.decode_binary_s", "s"),
    ("graph.apply_batch_ms", "ms"),
    // dim-diffusion
    ("diffusion.sample_s", "s"),
    ("diffusion.rr_sets", "count"),
    ("diffusion.rr_sets_per_s", "1/s"),
    ("diffusion.edges_examined", "count"),
    ("diffusion.edges_per_s", "1/s"),
    ("diffusion.mean_rr_size", "count"),
    // dim-coverage
    ("coverage.shard_build_s", "s"),
    ("coverage.initial_coverage_s", "s"),
    ("coverage.apply_seed_s", "s"),
    ("coverage.select_master_s", "s"),
    ("coverage.spread_eval_us", "us"),
    ("coverage.topk_eval_us", "us"),
    ("coverage.replace_elements_ms", "ms"),
    // dim-cluster
    ("cluster.rounds", "count"),
    ("cluster.msgs", "count"),
    ("cluster.bytes_up", "count"),
    ("cluster.bytes_down", "count"),
    ("cluster.op_rtt_us", "us"),
    ("cluster.wire_encode_MBps", "MB/s"),
    ("cluster.wire_decode_MBps", "MB/s"),
    ("cluster.build_shard_s", "s"),
    ("cluster.measured_comm_s", "s"),
    ("cluster.worker_busy_max_s", "s"),
    ("cluster.worker_busy_sum_s", "s"),
    ("cluster.parallel_efficiency", "ratio"),
    // dim-core
    ("core.theta", "count"),
    ("core.diimm_rounds", "count"),
    ("core.sampling_phase_s", "s"),
    ("core.selection_phase_s", "s"),
    ("core.unattributed_s", "s"),
    ("core.apply_delta_ms", "ms"),
    ("core.sets_resampled", "count"),
    ("core.resample_ratio", "ratio"),
    ("core.reselect_s", "s"),
    // dim-store
    ("store.persist_s", "s"),
    ("store.bytes_written", "count"),
    ("store.write_MBps", "MB/s"),
    ("store.load_snapshot_s", "s"),
    ("store.read_MBps", "MB/s"),
    ("store.delta_write_ms", "ms"),
    ("store.delta_bytes", "count"),
    ("store.compact_s", "s"),
    ("store.gc_s", "s"),
    // dim-serve
    ("serve.proto_encode_ns", "ns"),
    ("serve.proto_decode_ns", "ns"),
    ("serve.answer_us", "us"),
    ("serve.server_p50_us", "us"),
    ("serve.rtt_floor_us", "us"),
    ("serve.transport_share", "ratio"),
    ("serve.start_s", "s"),
    ("serve.shed", "count"),
    ("serve.queries_answered", "count"),
    ("serve.single_qps", "1/s"),
    ("serve.spread50_p50_us", "us"),
    ("serve.topk_p50_us", "us"),
    // self time per layer over one traced operation (span minus children)
    ("self.graph_s", "s"),
    ("self.diffusion_s", "s"),
    ("self.coverage_s", "s"),
    ("self.cluster_s", "s"),
    ("self.core_s", "s"),
    ("self.store_s", "s"),
    ("self.serve_s", "s"),
    ("self.harness_s", "s"),
    // harness
    ("harness.build_s", "s"),
    ("trace.op_p50_ms", "ms"),
    ("trace.untraced_op_p50_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
    ("trace.ops", "count"),
];

/// What one run of one workload reports.
pub struct Outcome {
    /// Operations attempted in the timed region plus output checks made.
    pub attempted: u64,
    /// Operations that failed or were refused, plus output checks that
    /// did not hold.
    pub failed: u64,
    /// Metric values by name; the table above fixes which names exist.
    pub values: BTreeMap<&'static str, f64>,
    /// Lines for the human reader (sample counts, min/max, check results).
    pub notes: Vec<String>,
}

impl Outcome {
    /// An outcome with every metric of `table` present and zero.
    pub fn new(table: &[(&'static str, &'static str)]) -> Self {
        Outcome {
            attempted: 0,
            failed: 0,
            values: table.iter().map(|(name, _)| (*name, 0.0)).collect(),
            notes: Vec::new(),
        }
    }

    /// Sets a declared metric. An undeclared name is a bug in the harness.
    pub fn set(&mut self, name: &'static str, value: f64) {
        let slot = self
            .values
            .get_mut(name)
            .unwrap_or_else(|| panic!("metric {name} is not declared in metrics.rs"));
        *slot = value;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values[name]
    }

    /// Counts one output check; `ok == false` counts as a failed operation.
    pub fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
        self.notes.push(format!(
            "check {}: {what}",
            if ok { "ok  " } else { "FAIL" }
        ));
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// The result line the driver reads.
    pub fn result_line(&self, table: &[(&'static str, &'static str)]) -> Json {
        let metrics = table
            .iter()
            .map(|(name, unit)| {
                (
                    name.to_string(),
                    json::obj(vec![
                        ("value", Json::Num(self.values[name])),
                        ("unit", json::text(*unit)),
                    ]),
                )
            })
            .collect();
        json::obj(vec![
            ("correct", Json::Bool(self.failed == 0)),
            ("attempted", Json::Num(self.attempted.max(1) as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ])
    }
}
