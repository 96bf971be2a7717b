//! Every metric `BENCHMARK.json` names is emitted, with its unit, by one
//! short run of each workload: the end-to-end metrics by `--trace 0`, the
//! per-layer metrics by `--trace 1`.

use std::path::PathBuf;
use std::process::Command;

use vtm_obs::JsonValue;

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("perfbench lives in the repository")
        .to_path_buf()
}

fn declared() -> JsonValue {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    JsonValue::parse(&text).expect("BENCHMARK.json parses")
}

fn names(list: &JsonValue, key: &str) -> Vec<(String, String)> {
    list.get(key)
        .and_then(JsonValue::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(JsonValue::as_str).unwrap().to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn run(workload: &str, trace: &str) -> JsonValue {
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "1",
            "--trace",
            trace,
        ])
        .current_dir(repo_root())
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}"
    );
    JsonValue::parse(stdout.lines().last().expect("result line")).expect("result line parses")
}

#[test]
fn every_declared_metric_is_emitted_by_each_workload() {
    let benchmark = declared();
    let workloads: Vec<String> = benchmark
        .get("workloads")
        .and_then(JsonValue::as_array)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(JsonValue::as_str)
                .unwrap()
                .to_string()
        })
        .collect();
    assert_eq!(workloads, ["quote-closed", "quote-open", "train"]);
    for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
        let expected = names(&benchmark, list);
        for workload in &workloads {
            let result = run(workload, trace);
            assert_eq!(
                result.get("correct").and_then(JsonValue::as_bool),
                Some(true)
            );
            assert!(result.get("attempted").and_then(JsonValue::as_u64).unwrap() >= 1);
            let metrics = result
                .get("metrics")
                .and_then(JsonValue::as_object)
                .expect("metrics object");
            let emitted: Vec<(String, String)> = metrics
                .iter()
                .map(|(name, value)| {
                    assert!(value.get("value").and_then(JsonValue::as_f64).is_some());
                    let unit = value.get("unit").and_then(JsonValue::as_str).unwrap();
                    (name.clone(), unit.to_string())
                })
                .collect();
            assert_eq!(emitted, expected, "{workload} --trace {trace}");
        }
    }
}
