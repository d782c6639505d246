//! The benchmark's declaration: workloads, metrics, units and bounds.
//!
//! `BENCHMARK.json` at the repository root is generated from the tables
//! below (`perfbench --manifest`), and a test checks the committed file
//! against them, so the program and its declaration cannot drift apart.

use serde::{Deserialize, Serialize};

/// How one benchmark run is launched, relative to the repository root.
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--quiet",
    "--release",
    "--offline",
    "--manifest-path",
    "perfbench/Cargo.toml",
    "--",
];

/// Seconds one run measures.
pub const RUN_SECONDS: u64 = 25;

/// Workload names and why each exists.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "paper_loocv",
        "pure-HDC paper results and dimension ablation: encoding, Hamming 1-NN LOOCV and the \
         runtime dominate; no model fit or snapshot I/O",
    ),
    (
        "paper_hybrid",
        "hybrid rows of Tables 2 and 3: ten model families fit and predict on 2k-bit \
         hypervectors; control with no Hamming top-k or serving code",
    ),
    (
        "serve_query",
        "read-only closed-loop screening (1 client) against a distilled 2048-bit store several \
         times larger than L2; single patients and batches of 16",
    ),
    (
        "serve_ingest",
        "streamed ingest with a durable append and rolling snapshot per micro-batch, queries on \
         the growing store, then a clean reopen and a crash recovery",
    ),
];

/// Whether a larger value of a metric is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Self::Higher => "higher",
            Self::Lower => "lower",
        }
    }
}

/// An end-to-end metric: what a user of the system sees.
#[derive(Debug, Clone, Copy)]
pub struct EndToEndSpec {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEndSpec {
    EndToEndSpec {
        name,
        unit,
        better,
        bound,
    }
}

/// Every end-to-end metric; each workload reports all of them. Bounds are
/// three times the spread across ten seeds measured for this benchmark,
/// capped at the widest allowed (0.25): on a shared two-vCPU host wall
/// times drift by up to 10% between runs, accuracy follows each seed's
/// data, and peak memory follows which allocator arenas worker threads get.
pub const END_TO_END: [EndToEndSpec; 5] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("pass_s", "s", Better::Lower, 0.25),
    e2e("accuracy", "fraction", Better::Higher, 0.2),
    e2e("query_p50_us", "us", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.15),
];

/// A per-layer metric of the traced run.
#[derive(Debug, Clone, Copy)]
pub struct LayerSpec {
    /// Metric name; layer time metrics are `<span name>_s`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> LayerSpec {
    LayerSpec { name, unit, better }
}

const fn secs(name: &'static str) -> LayerSpec {
    layer(name, "s", Better::Lower)
}

const fn micros(name: &'static str) -> LayerSpec {
    layer(name, "us", Better::Lower)
}

/// Every per-layer metric; each workload reports all of them, with 0 for
/// layers it does not call. Metrics ending in `_s` are the self time of
/// the span of that name per measured round (per set-up for layers called
/// only during set-up); `_us_p50`/`_us_p99` are nearest-rank percentiles
/// of single-call durations.
pub const PER_LAYER: [LayerSpec; 60] = [
    layer("runtime.cpu_per_wall", "ratio", Better::Higher),
    layer("runtime.main_ctx_switches_per_op", "1/op", Better::Lower),
    layer("runtime.nproc", "count", Better::Higher),
    layer("runtime.pool_threads", "count", Better::Higher),
    layer("runtime.host_steal_share", "ratio", Better::Lower),
    secs("data.generate_s"),
    secs("hdc.encoding.fit_transform_s"),
    secs("hdc.encoding.encode_one_s"),
    micros("hdc.encoding.encode_one_us_p50"),
    secs("hdc.encoding.pruned_encode_s"),
    secs("hdc.loocv.run_s"),
    layer("hdc.loocv.ns_per_pair", "ns", Better::Lower),
    secs("hdc.classify.knn_predict_s"),
    micros("hdc.classify.knn_predict_us_p50"),
    secs("hdc.distill.distill_s"),
    secs("hdc.distill.gather_s"),
    secs("core.hv_features_s"),
    secs("core.to_matrix_s"),
    secs("ml.logreg.fit_s"),
    secs("ml.logreg.predict_s"),
    secs("ml.sgd.fit_s"),
    secs("ml.sgd.predict_s"),
    secs("ml.svc.fit_s"),
    secs("ml.svc.predict_s"),
    secs("ml.knn.fit_s"),
    secs("ml.knn.predict_s"),
    secs("ml.tree.fit_s"),
    secs("ml.tree.predict_s"),
    secs("ml.forest.fit_s"),
    secs("ml.forest.predict_s"),
    secs("ml.xgboost.fit_s"),
    secs("ml.xgboost.predict_s"),
    secs("ml.lgbm.fit_s"),
    secs("ml.lgbm.predict_s"),
    secs("ml.catboost.fit_s"),
    secs("ml.catboost.predict_s"),
    secs("ml.nn.fit_s"),
    secs("ml.nn.predict_s"),
    secs("serve.build_pruned_s"),
    secs("serve.predict_one_s"),
    micros("serve.predict_one_us_p50"),
    micros("serve.predict_one_us_p99"),
    secs("serve.predict_16_s"),
    micros("serve.predict_16_us_p50"),
    layer("serve.bank_bytes_per_query", "B_computed", Better::Lower),
    secs("hdc.stream.encode_s"),
    secs("serve.append_batch_s"),
    secs("serve.save_dirty_s"),
    layer("serve.snapshot.files_written", "count", Better::Lower),
    layer("serve.snapshot.bytes_written", "B", Better::Lower),
    secs("serve.open_s"),
    secs("serve.recover_s"),
    layer("serve.recovery.quarantined", "count", Better::Lower),
    secs("bench.verify_s"),
    secs("trace.round_wall_s"),
    secs("trace.unattributed_s"),
    layer("trace.unattributed_share", "ratio", Better::Lower),
    layer("trace.overhead_share", "ratio", Better::Lower),
    layer("trace.spans_per_round", "count", Better::Lower),
    layer("trace.rounds", "count", Better::Higher),
];

/// One workload entry of `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Workload {
    /// Workload name.
    pub name: String,
    /// Why it exists.
    pub why: String,
}

/// One end-to-end entry of `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EndToEnd {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// `higher` or `lower`.
    pub better: String,
    /// Allowed worsening as a share of the parent's median.
    pub bound: f64,
}

/// One per-layer entry of `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PerLayer {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// `higher` or `lower`.
    pub better: String,
}

/// The whole of `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Manifest {
    /// Program and arguments of one run.
    pub command: Vec<String>,
    /// Directories holding the benchmark.
    pub paths: Vec<String>,
    /// Seconds one run measures.
    pub run_seconds: u64,
    /// Workloads.
    pub workloads: Vec<Workload>,
    /// End-to-end metrics.
    pub end_to_end: Vec<EndToEnd>,
    /// Per-layer metrics.
    pub per_layer: Vec<PerLayer>,
}

/// The manifest this program implements.
#[must_use]
pub fn manifest() -> Manifest {
    Manifest {
        command: COMMAND.iter().map(ToString::to_string).collect(),
        paths: vec!["perfbench".to_string()],
        run_seconds: RUN_SECONDS,
        workloads: WORKLOADS
            .iter()
            .map(|(name, why)| Workload {
                name: (*name).to_string(),
                why: (*why).to_string(),
            })
            .collect(),
        end_to_end: END_TO_END
            .iter()
            .map(|m| EndToEnd {
                name: m.name.to_string(),
                unit: m.unit.to_string(),
                better: m.better.as_str().to_string(),
                bound: m.bound,
            })
            .collect(),
        per_layer: PER_LAYER
            .iter()
            .map(|m| PerLayer {
                name: m.name.to_string(),
                unit: m.unit.to_string(),
                better: m.better.as_str().to_string(),
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;
    use std::collections::BTreeSet;

    /// Keeps the parsed JSON tree, to check key sets exactly.
    struct Raw(Value);

    impl Deserialize for Raw {
        fn from_value(v: &Value) -> Result<Self, serde::DeError> {
            Ok(Self(v.clone()))
        }
    }

    fn keys(v: &Value) -> Vec<&str> {
        match v {
            Value::Map(entries) => entries.iter().map(|(k, _)| k.as_str()).collect(),
            other => panic!("expected an object, got {other:?}"),
        }
    }

    fn committed() -> String {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
    }

    fn valid_name(s: &str) -> bool {
        s.len() <= 64
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
    fn committed_manifest_matches_the_program() {
        let parsed: Manifest = serde_json::from_str(&committed()).expect("valid BENCHMARK.json");
        assert_eq!(parsed, manifest());
    }

    #[test]
    fn manifest_round_trips_through_json() {
        let m = manifest();
        for text in [
            serde_json::to_string(&m).unwrap(),
            serde_json::to_string_pretty(&m).unwrap(),
        ] {
            let back: Manifest = serde_json::from_str(&text).unwrap();
            assert_eq!(back, m);
        }
    }

    #[test]
    fn manifest_has_exactly_the_contract_keys_and_limits() {
        let Raw(root) = serde_json::from_str(&committed()).unwrap();
        assert_eq!(
            keys(&root),
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let m = manifest();
        assert!((1..=32).contains(&m.command.len()));
        assert!(m
            .command
            .iter()
            .all(|c| c.len() <= 200 && !c.starts_with('/')));
        assert!((1..=60).contains(&m.run_seconds));
        assert!((2..=8).contains(&m.workloads.len()));
        assert!((1..=16).contains(&m.end_to_end.len()));
        assert!((1..=128).contains(&m.per_layer.len()));
        for w in root
            .get_field("workloads")
            .map(|v| match v {
                Value::Seq(items) => items.clone(),
                _ => panic!("workloads must be a list"),
            })
            .unwrap()
        {
            assert_eq!(keys(&w), ["name", "why"]);
        }
        let mut names = BTreeSet::new();
        for w in &m.workloads {
            assert!(valid_name(&w.name) && w.why.len() <= 200 && !w.why.contains('\n'));
            assert!(names.insert(w.name.clone()), "duplicate {}", w.name);
        }
        let setup = m.end_to_end.iter().find(|e| e.name == "setup_s").unwrap();
        assert_eq!((setup.unit.as_str(), setup.better.as_str()), ("s", "lower"));
        let mut names = BTreeSet::new();
        for e in &m.end_to_end {
            assert!(valid_name(&e.name) && valid_unit(&e.unit));
            assert!(e.better == "higher" || e.better == "lower");
            assert!(e.bound > 0.0 && e.bound <= 0.25 && e.bound <= setup.bound);
            assert!(names.insert(e.name.clone()), "duplicate {}", e.name);
        }
        for l in &m.per_layer {
            assert!(valid_name(&l.name) && valid_unit(&l.unit));
            assert!(l.better == "higher" || l.better == "lower");
            assert!(names.insert(l.name.clone()), "duplicate {}", l.name);
        }
        assert!(committed().len() <= 64 * 1024);
    }
}
