//! The benchmark's own test: a short smoke run of every workload, in
//! both modes, must check every delivery, find no failure, and print
//! every metric `BENCHMARK.json` declares, with its declared unit — in
//! the human table and in the final JSON line.

use std::path::Path;
use std::process::Command;

/// `udp_quotes` runs but is not gated, so `BENCHMARK.json` does not list
/// it; it must still print every metric.
const UNGATED: [&str; 1] = ["udp_quotes"];

/// The benchmark's declared contract, `BENCHMARK.json` at the root of
/// the checkout.
fn contract() -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The string values of `key` in the objects of the array under
/// `section` (the file is flat enough that no JSON parser is needed:
/// the arrays hold objects of strings and numbers only).
fn strings(json: &str, section: &str, key: &str) -> Vec<String> {
    let at = json
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("no {section} in BENCHMARK.json"));
    let body = &json[at..];
    let body = &body[..body.find(']').expect("array end")];
    body.split('{')
        .skip(1)
        .map(|obj| {
            let v = obj
                .split(&format!("\"{key}\""))
                .nth(1)
                .unwrap_or_else(|| panic!("{section} entry without {key}"));
            v.split('"').nth(1).expect("a string value").to_string()
        })
        .collect()
}

fn workloads() -> Vec<String> {
    let mut w = strings(&contract(), "workloads", "name");
    w.extend(UNGATED.map(String::from));
    w
}

fn metrics(section: &str) -> Vec<(String, String)> {
    let json = contract();
    let names = strings(&json, section, "name");
    let units = strings(&json, section, "unit");
    assert_eq!(
        names.len(),
        units.len(),
        "{section}: a name or unit is missing"
    );
    names.into_iter().zip(units).collect()
}

fn smoke(workload: &str, trace: u8) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", &trace.to_string(), "--smoke"])
        // The benchmark runs from the root of the checkout.
        .current_dir(Path::new(env!("CARGO_MANIFEST_DIR")).join(".."))
        .output()
        .expect("run perfbench");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

/// The value of metric `name` in a result line.
fn value(last: &str, name: &str) -> f64 {
    let json = format!("\"{name}\": {{\"value\": ");
    let at = last
        .find(&json)
        .unwrap_or_else(|| panic!("{name} missing from {last}"));
    let v = &last[at + json.len()..];
    v[..v.find(',').expect("a unit follows")]
        .parse()
        .expect("a number")
}

fn check(workload: &str, trace: u8, metrics: &[(String, String)]) -> String {
    let stdout = smoke(workload, trace);
    let last = stdout.lines().last().expect("a result line").to_string();
    assert!(
        last.starts_with("{\"correct\": true, ") && last.contains("\"failed\": 0, "),
        "{workload} trace {trace}: {last}"
    );
    // Exactly the declared metrics: as many units as declared names.
    assert_eq!(
        last.matches("\"unit\": ").count(),
        metrics.len(),
        "{workload} trace {trace} prints other metrics than BENCHMARK.json declares: {last}"
    );
    for (name, unit) in metrics {
        value(&last, name);
        let json = format!("\"{name}\": {{\"value\": ");
        let at = last.find(&json).expect("found above");
        let unit_json = format!("\"unit\": \"{unit}\"}}");
        assert!(
            last[at..].find(&unit_json) < last[at..].find('}').map(|i| i + 1),
            "{workload}: {name} lacks unit {unit}"
        );
        assert!(
            stdout
                .lines()
                .any(|l| l.starts_with(name.as_str()) && l.ends_with(&format!(" {unit}"))),
            "{workload}: {name} not in the table with unit {unit}"
        );
    }
    let failed = stdout
        .lines()
        .find_map(|l| l.strip_prefix("failed_ratio"))
        .expect("failed_ratio printed");
    assert_eq!(failed.trim(), "0.000000 ratio", "{workload} trace {trace}");
    last
}

#[test]
fn end_to_end_metrics_on_every_workload() {
    let m = metrics("end_to_end");
    for w in workloads() {
        check(&w, 0, &m);
    }
}

#[test]
fn per_layer_metrics_on_every_workload() {
    let m = metrics("per_layer");
    for w in workloads() {
        let last = check(&w, 1, &m);
        // The stage functions account for the composed publish call.
        assert_eq!(value(&last, "isolation.within_bound"), 1.0, "{w}: {last}");
    }
}

#[test]
fn unknown_workload_is_an_error_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("run perfbench");
    assert!(!out.status.success());
    assert!(!String::from_utf8_lossy(&out.stdout).contains("\"correct\""));
}
