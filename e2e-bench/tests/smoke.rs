//! In-process smoke run of the whole harness at toy size, and a check
//! that `BENCHMARK.json` lists exactly the metrics the harness reports.

use bp_e2e_bench::{Bench, Budget, MetricDef, END_TO_END, PER_LAYER, WORKLOADS};
use bp_ir::json::Json;

const TOY_LOG_N: u32 = 7;

#[test]
fn every_workload_reports_every_metric_at_toy_size() {
    for w in &WORKLOADS {
        let bench = Bench::setup(w, 11, TOY_LOG_N);
        let e2e = bench.measure_e2e(Budget::Iterations(2), &[bench.setup.total_s]);
        let traced = bench.measure_traced(Budget::Iterations(1));
        for (report, defs) in [(&e2e, &END_TO_END[..]), (&traced, &PER_LAYER[..])] {
            // A wire-byte mismatch between the bare, traced and supervised
            // paths counts as a failed iteration, so this also asserts
            // that all of them produced identical bytes.
            assert_eq!(report.failed, 0, "{}: {report:?}", w.name);
            assert_eq!(report.error_rate(), 0.0);
            assert_eq!(report.metrics.len(), defs.len(), "{}", w.name);
            for d in defs {
                let v = report.metrics[d.name];
                assert!(v.is_finite(), "{}: {} = {v}", w.name, d.name);
            }
        }
        assert_eq!(traced.metrics["runtime.attempts"], 1.0, "{}", w.name);
        // Op kinds a program lacks are timed on the input instead of
        // reading a constant 0.
        for d in PER_LAYER
            .iter()
            .filter(|d| d.name.starts_with("ckks.") && d.unit == "ms")
        {
            let v = traced.metrics[d.name];
            assert!(v > 0.0, "{}: {} = {v}", w.name, d.name);
        }
    }
}

fn listed(doc: &Json, key: &str) -> Vec<(String, String, String)> {
    let field = |m: &Json, k: &str| m.get(k).and_then(Json::as_str).unwrap_or("?").to_string();
    doc.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
        .iter()
        .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
        .collect()
}

fn catalog(defs: &[MetricDef]) -> Vec<(String, String, String)> {
    defs.iter()
        .map(|d| (d.name.into(), d.unit.into(), d.better.name().into()))
        .collect()
}

#[test]
fn benchmark_json_matches_the_harness() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads list")
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::as_str))
        .collect();
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    assert_eq!(workloads, names);
    assert_eq!(listed(&doc, "end_to_end"), catalog(&END_TO_END));
    assert_eq!(listed(&doc, "per_layer"), catalog(&PER_LAYER));
}
