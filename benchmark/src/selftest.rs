//! `smartbench selftest`: a 2-second run of every workload, traced and
//! untraced, and a schema check of what they print against
//! `BENCHMARK.json` in the working directory — every name listed there
//! must come back with its unit, and nothing that is not listed.

use crate::json::{self, Value};
use crate::report;
use crate::run::RunArgs;
use std::collections::BTreeMap;
use std::path::PathBuf;

const SECONDS: f64 = 2.0;

fn listed(benchmark: &Value, key: &str) -> Result<BTreeMap<String, String>, String> {
    let Some(Value::Arr(items)) = benchmark.get(key) else {
        return Err(format!("BENCHMARK.json: no {key:?} list"));
    };
    items
        .iter()
        .map(|m| {
            let text = |k: &str| m.get(k).and_then(Value::as_str).map(str::to_string);
            text("name")
                .zip(text("unit"))
                .ok_or_else(|| format!("BENCHMARK.json: a {key} entry lacks name or unit"))
        })
        .collect()
}

/// Compare a result line's metrics with the names and units listed.
fn check(line: &str, want: &BTreeMap<String, String>) -> Vec<String> {
    let mut problems = Vec::new();
    let result = match json::parse(line) {
        Ok(v) => v,
        Err(e) => return vec![format!("result line is not JSON: {e}")],
    };
    let keys: Vec<&str> = result
        .as_obj()
        .map_or(vec![], |o| o.keys().map(String::as_str).collect());
    if keys != ["attempted", "correct", "failed", "metrics"] {
        problems.push(format!("result keys are {keys:?}"));
    }
    if result.get("correct").and_then(Value::as_bool) != Some(true) {
        problems.push("correct is not true".into());
    }
    if result
        .get("attempted")
        .and_then(Value::as_f64)
        .is_none_or(|n| n < 1.0)
    {
        problems.push("attempted is below 1".into());
    }
    let empty = BTreeMap::new();
    let got = result
        .get("metrics")
        .and_then(Value::as_obj)
        .unwrap_or(&empty);
    for (name, unit) in want {
        match got.get(name) {
            None => problems.push(format!("{name} is not printed")),
            Some(m) => {
                if m.get("unit").and_then(Value::as_str) != Some(unit) {
                    problems.push(format!("{name} is printed without its unit {unit:?}"));
                }
                if m.get("value").and_then(Value::as_f64).is_none() {
                    problems.push(format!("{name} has no numeric value"));
                }
            }
        }
    }
    for name in got.keys().filter(|n| !want.contains_key(*n)) {
        problems.push(format!("{name} is printed but not in BENCHMARK.json"));
    }
    problems
}

pub fn run() -> Result<bool, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repo root): {e}"))?;
    let benchmark = json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let end_to_end = listed(&benchmark, "end_to_end")?;
    let per_layer = listed(&benchmark, "per_layer")?;
    let Some(Value::Arr(workloads)) = benchmark.get("workloads") else {
        return Err("BENCHMARK.json: no workloads list".into());
    };
    let mut failures = 0;
    for w in workloads {
        let name = w
            .get("name")
            .and_then(Value::as_str)
            .ok_or("workload without a name")?;
        for (trace, want) in [(false, &end_to_end), (true, &per_layer)] {
            let args = RunArgs {
                workload: name.to_string(),
                seed: 1,
                seconds: SECONDS,
                trace,
                out_dir: PathBuf::from("benchmark/out/selftest").join(name),
                #[cfg(test)]
                corrupt_oracle: false,
            };
            let report = report::run_and_report(&args)?;
            let problems = check(&report.result_line, want);
            for p in &problems {
                println!("selftest: {name} trace {}: {p}", trace as u8);
            }
            println!(
                "selftest: {name} trace {} {}",
                trace as u8,
                if problems.is_empty() { "ok" } else { "FAILED" }
            );
            failures += problems.len();
        }
    }
    println!("selftest: {failures} problems");
    Ok(failures == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_schema_check_names_what_is_missing_and_what_is_extra() {
        let want = BTreeMap::from([
            ("a_ns".to_string(), "ns".to_string()),
            ("b".to_string(), "count".to_string()),
        ]);
        let good = r#"{"correct": true, "attempted": 5, "failed": 0, "metrics": {"a_ns": {"value": 1.5, "unit": "ns"}, "b": {"value": 2, "unit": "count"}}}"#;
        assert_eq!(check(good, &want), Vec::<String>::new());
        let bad = r#"{"correct": false, "attempted": 5, "failed": 1, "metrics": {"a_ns": {"value": 1.5, "unit": "us"}, "c": {"value": 2, "unit": "count"}}}"#;
        let problems = check(bad, &want).join("; ");
        for needle in [
            "correct is not true",
            "a_ns is printed without its unit",
            "b is not printed",
            "c is printed but not",
        ] {
            assert!(problems.contains(needle), "{problems}");
        }
    }
}
