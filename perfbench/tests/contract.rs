//! The metric table, `BENCHMARK.json`, the README and the result line
//! agree, and every name and unit uses the allowed characters.

use std::path::PathBuf;

use columbia_perfbench::metric::{
    result_line, valid_name, valid_unit, Kind, Metric, Tally, METRICS,
};
use columbia_perfbench::workload::Workload;
use serde_json::Value;

fn repo_file(rel: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn metric_names_and_units_use_only_allowed_characters() {
    for d in METRICS {
        assert!(valid_name(d.name), "bad metric name {:?}", d.name);
        assert!(valid_unit(d.unit), "bad unit {:?} of {}", d.unit, d.name);
    }
    for w in Workload::ALL {
        assert!(valid_name(w.name()), "bad workload name {:?}", w.name());
    }
    let mut names: Vec<_> = METRICS.iter().map(|d| d.name).collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), METRICS.len(), "a metric name is used twice");
}

#[test]
fn the_name_check_rejects_what_the_contract_forbids() {
    for bad in ["", "_x", ".x", "a b", "a/b", "wall_s!", &"x".repeat(65)] {
        assert!(!valid_name(bad), "{bad:?} should be rejected");
    }
    for good in ["wall_s", "obs.trace_bytes", "p-90", "0x", &"x".repeat(64)] {
        assert!(valid_name(good), "{good:?} should be accepted");
    }
    assert!(valid_unit("ops/s") && valid_unit("%") && !valid_unit("a b"));
}

#[test]
fn benchmark_json_lists_exactly_the_metric_table() {
    let doc = serde_json::from_str(&repo_file("../BENCHMARK.json")).expect("BENCHMARK.json parses");
    let section = |key: &str| -> Vec<(String, String, String)> {
        doc.get(key)
            .and_then(Value::as_array)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} array"))
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Value::as_str).unwrap_or("").to_string();
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    };
    let table = |kind: Kind| -> Vec<(String, String, String)> {
        METRICS
            .iter()
            .filter(|d| d.kind == kind)
            .map(|d| {
                let better = if d.lower_is_better { "lower" } else { "higher" };
                (d.name.into(), d.unit.into(), better.into())
            })
            .collect()
    };
    assert_eq!(section("end_to_end"), table(Kind::EndToEnd));
    assert_eq!(section("per_layer"), table(Kind::PerLayer));

    let workloads: Vec<String> = doc
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workloads array")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Value::as_str)
                .unwrap_or("")
                .to_string()
        })
        .collect();
    let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, ours);
}

#[test]
fn readme_documents_every_metric_and_workload() {
    let readme = repo_file("README.md");
    for d in METRICS {
        assert!(
            readme.contains(&format!("| `{}` | {} |", d.name, d.unit)),
            "README metric table lacks {} ({})",
            d.name,
            d.unit
        );
    }
    for w in Workload::ALL {
        assert!(
            readme.contains(&format!("| `{}` |", w.name())),
            "README lacks {}",
            w.name()
        );
    }
}

#[test]
fn result_line_is_json_with_exactly_the_contract_keys() {
    let mut tally = Tally::default();
    tally.record(None);
    tally.record(Some("table2: report differs".into()));
    let line = result_line(
        &tally,
        &[Metric::new("wall_s", 1.25), Metric::new("setup_s", 1.5e-5)],
    );
    let v = serde_json::from_str(&line).expect("result line parses");
    let Value::Object(entries) = &v else {
        panic!("result line is not an object")
    };
    let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(v.get("correct"), Some(&Value::Bool(false)));
    assert_eq!(v.get("attempted").and_then(Value::as_f64), Some(2.0));
    assert_eq!(v.get("failed").and_then(Value::as_f64), Some(1.0));
    let setup = v
        .get("metrics")
        .and_then(|m| m.get("setup_s"))
        .expect("setup_s");
    assert_eq!(setup.get("value").and_then(Value::as_f64), Some(1.5e-5));
    assert_eq!(setup.get("unit").and_then(Value::as_str), Some("s"));

    // A value that is not finite cannot be reported as correct.
    let clean = Tally {
        attempted: 1,
        failures: Vec::new(),
    };
    let nan = result_line(&clean, &[Metric::new("wall_s", f64::NAN)]);
    let v = serde_json::from_str(&nan).expect("parses");
    assert_eq!(v.get("correct"), Some(&Value::Bool(false)));
}
