//! `benchmark compare A.jsonl B.jsonl`: apply `BENCHMARK.json`'s bounds to
//! two sets of runs (A = parent, B = change), one verdict per workload ×
//! end-to-end metric:
//!
//! * `unresolved` — a set's own quartile spread is wider than the bound,
//!   so the bound cannot be resolved (unless every B run beats every A run);
//! * `worse` / `better` — B's median differs from A's by more than the bound;
//! * `within` — otherwise.

use std::collections::BTreeMap;
use std::path::Path;

use crate::json::Json;
use crate::stats::{median, quartile_spread};

struct Bound {
    name: String,
    higher_is_better: bool,
    bound: f64,
}

type Sets = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

/// `workload → metric → values` of the untraced records in one file.
fn load(path: &str) -> Result<Sets, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut sets = Sets::new();
    for (n, line) in text.lines().enumerate() {
        let rec = Json::parse(line).map_err(|e| format!("{path} line {}: {e}", n + 1))?;
        if rec.get("trace").and_then(Json::num) != Some(0.0) {
            continue;
        }
        let workload = rec.get("workload").and_then(Json::str).unwrap_or("");
        let metrics = sets.entry(workload.to_string()).or_default();
        for (name, m) in rec.get("metrics").map_or(&[][..], Json::fields) {
            if let Some(v) = m.get("value").and_then(Json::num) {
                metrics.entry(name.clone()).or_default().push(v);
            }
        }
    }
    Ok(sets)
}

pub fn main(args: &[String], bench_dir: &Path) -> Result<bool, String> {
    let [a_path, b_path] = args else {
        return Err("usage: benchmark compare A.jsonl B.jsonl".into());
    };
    let manifest_path = bench_dir.join("../BENCHMARK.json");
    let manifest = Json::parse(
        &std::fs::read_to_string(&manifest_path)
            .map_err(|e| format!("{}: {e}", manifest_path.display()))?,
    )?;
    let bounds: Vec<Bound> = manifest
        .get("end_to_end")
        .map_or(&[][..], Json::arr)
        .iter()
        .map(|m| Bound {
            name: m.get("name").and_then(Json::str).unwrap_or("").to_string(),
            higher_is_better: m.get("better").and_then(Json::str) == Some("higher"),
            bound: m.get("bound").and_then(Json::num).unwrap_or(0.0),
        })
        .collect();
    let (a, b) = (load(a_path)?, load(b_path)?);
    let mut clean = true;
    println!(
        "workload metric runs_a runs_b median_a median_b change spread_a spread_b bound verdict"
    );
    for (workload, a_metrics) in &a {
        let Some(b_metrics) = b.get(workload) else {
            println!("{workload} - missing from {b_path}");
            clean = false;
            continue;
        };
        for bound in &bounds {
            let values = |set: &BTreeMap<String, Vec<f64>>| {
                set.get(&bound.name).cloned().unwrap_or_default()
            };
            let (va, vb) = (values(a_metrics), values(b_metrics));
            if va.is_empty() || vb.is_empty() {
                println!("{workload} {} - no values", bound.name);
                clean = false;
                continue;
            }
            let (ma, mb) = (median(&va), median(&vb));
            // Positive = B is worse, as a share of A's median.
            let worsening = if bound.higher_is_better {
                (ma - mb) / ma
            } else {
                (mb - ma) / ma
            };
            let (sa, sb) = (quartile_spread(&va), quartile_spread(&vb));
            let b_beats_all_a = if bound.higher_is_better {
                vb.iter().cloned().fold(f64::MAX, f64::min)
                    > va.iter().cloned().fold(f64::MIN, f64::max)
            } else {
                vb.iter().cloned().fold(f64::MIN, f64::max)
                    < va.iter().cloned().fold(f64::MAX, f64::min)
            };
            let verdict = if sa.max(sb) > bound.bound && !b_beats_all_a {
                "unresolved"
            } else if worsening > bound.bound {
                "worse"
            } else if worsening < -bound.bound {
                "better"
            } else {
                "within"
            };
            clean &= matches!(verdict, "within" | "better");
            println!(
                "{workload} {} {} {} {ma:.4} {mb:.4} {:+.2}% {:.2}% {:.2}% {:.0}% {verdict}",
                bound.name,
                va.len(),
                vb.len(),
                (mb - ma) / ma * 100.0,
                sa * 100.0,
                sb * 100.0,
                bound.bound * 100.0
            );
        }
    }
    Ok(clean)
}
