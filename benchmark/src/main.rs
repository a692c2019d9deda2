//! The repo's benchmark runner. See `benchmark/README.md`.
//!
//! ```text
//! benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//!           [--runs N] [--out FILE] [--check] [--bless]
//! benchmark compare A.jsonl B.jsonl
//! benchmark round …            (internal: one round, one process)
//! ```

mod alloc;
mod check;
mod client;
mod compare;
mod gen;
mod json;
mod load;
mod round;
mod spec;
mod stats;
mod stub;
mod trace;
mod workload;

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

use json::Json;
use spec::{END_TO_END, PER_LAYER};
use stats::{median, midmean};
use workload::WORKLOADS;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// Rounds per end-to-end run; a workload's value is the midmean over
/// them. Which vCPU each thread lands on is drawn once per process and
/// moves a whole round by up to ±10 %, so rounds are many and short rather
/// than few and long.
const ROUNDS: usize = 5;
const WARM: Duration = Duration::from_secs(1);
/// Calibration spins further apart than this mark the workload noisy.
const NOISE_LIMIT: f64 = 0.10;

struct Options {
    workloads: Vec<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    runs: u64,
    out: Option<PathBuf>,
    check: bool,
    bless: bool,
    bench_dir: PathBuf,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") => compare::main(&args[1..], &bench_dir()),
        Some("round") => round_main(&args[1..]),
        _ => parse_options(&args).and_then(|o| if o.check { check(&o) } else { run(&o) }),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

/// The benchmark's own directory (`expected/`, `out/`, and
/// `../BENCHMARK.json` live relative to it); `run.sh` exports it.
fn bench_dir() -> PathBuf {
    std::env::var_os("BENCH_DIR").map_or_else(|| PathBuf::from("benchmark"), PathBuf::from)
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workloads: WORKLOADS.iter().map(|w| w.to_string()).collect(),
        seed: 1,
        seconds: 15.0,
        trace: false,
        runs: 1,
        out: None,
        check: false,
        bless: false,
        bench_dir: bench_dir(),
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let value = |it: &mut std::iter::Peekable<std::slice::Iter<String>>| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => {
                let w = value(&mut it)?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!("unknown workload {w:?} (have {WORKLOADS:?})"));
                }
                o.workloads = vec![w];
            }
            "--seed" => {
                o.seed = value(&mut it)?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                o.seconds = value(&mut it)?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
            }
            "--runs" => {
                o.runs = value(&mut it)?
                    .parse()
                    .map_err(|e| format!("--runs: {e}"))?
            }
            "--out" => o.out = Some(PathBuf::from(value(&mut it)?)),
            // `--trace 0|1`, or bare `--trace`.
            "--trace" => match it.peek().map(|s| s.as_str()) {
                Some("0") => {
                    it.next();
                }
                Some("1") => {
                    it.next();
                    o.trace = true;
                }
                _ => o.trace = true,
            },
            "--check" => o.check = true,
            "--bless" => o.bless = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if o.seconds.is_nan() || o.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(o)
}

fn round_main(args: &[String]) -> Result<bool, String> {
    let [workload, seed, warm_ms, measure_ms, trace, first] = args else {
        return Err("round: expected 6 arguments".into());
    };
    let ms = |s: &String| {
        s.parse()
            .map(Duration::from_millis)
            .map_err(|e| format!("round: {e}"))
    };
    let line = round::run(&round::RoundArgs {
        workload: workload.clone(),
        seed: seed.parse().map_err(|e| format!("round: {e}"))?,
        warm: ms(warm_ms)?,
        measure: ms(measure_ms)?,
        trace: trace == "1",
        first: first == "1",
        bench_dir: bench_dir(),
    })?;
    println!("{line}");
    Ok(true)
}

/// Run one round in a child process and parse the object it prints.
fn child_round(
    workload: &str,
    seed: u64,
    measure: Duration,
    trace: bool,
    first: bool,
) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .arg("round")
        .args([workload, &seed.to_string()])
        .args([
            WARM.as_millis().to_string(),
            measure.as_millis().to_string(),
        ])
        .args([u8::from(trace).to_string(), u8::from(first).to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning round: {e}"))?;
    if !output.status.success() {
        return Err(format!("{workload} round failed ({})", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    Json::parse(stdout.lines().last().unwrap_or(""))
        .map_err(|e| format!("{workload} round printed no result: {e}"))
}

/// One finished run of one workload, ready to print.
struct RunResult {
    workload: String,
    seed: u64,
    trace: bool,
    correct: bool,
    verified: &'static str,
    noisy: bool,
    /// Generator threads (= server workers) the rounds ran with.
    threads: u64,
    attempted: u64,
    failed: u64,
    /// `(name, value, unit)` — the contract's metrics for this mode.
    metrics: Vec<(&'static str, f64, &'static str)>,
    /// Everything else worth a line: sample counts, calibration…
    notes: Vec<(String, f64)>,
}

fn num(round: &Json, key: &str) -> f64 {
    round.get(key).and_then(Json::num).unwrap_or(f64::NAN)
}

fn golden_digest(bench_dir: &Path, workload: &str, seed: u64) -> Option<String> {
    let text = std::fs::read_to_string(bench_dir.join("expected/digests.txt")).ok()?;
    text.lines().find_map(|line| {
        let mut f = line.split_whitespace();
        (f.next()? == workload && f.next()?.parse() == Ok(seed))
            .then(|| f.next().map(str::to_string))?
    })
}

fn bless(bench_dir: &Path, workload: &str, seed: u64, digest: &str) -> Result<(), String> {
    let path = bench_dir.join("expected/digests.txt");
    let old = std::fs::read_to_string(&path).unwrap_or_default();
    let mut lines: Vec<String> = old
        .lines()
        .filter(|l| {
            let mut f = l.split_whitespace();
            !(f.next() == Some(workload) && f.next() == Some(&seed.to_string()))
        })
        .map(str::to_string)
        .collect();
    lines.push(format!("{workload} {seed} {digest}"));
    std::fs::write(&path, lines.join("\n") + "\n").map_err(|e| format!("{}: {e}", path.display()))
}

fn finish(o: &Options, workload: &str, seed: u64, rounds: Vec<Json>) -> Result<RunResult, String> {
    let digests: Vec<&str> = rounds
        .iter()
        .filter_map(|r| r.get("digest").and_then(Json::str))
        .collect();
    let digest = digests.first().copied().unwrap_or("");
    let mut correct = digests.len() == rounds.len() && digests.iter().all(|d| *d == digest);
    if !correct {
        eprintln!("benchmark: {workload}: rounds disagree on the response digest");
    }
    if o.bless {
        bless(&o.bench_dir, workload, seed, digest)?;
    }
    let verified = match golden_digest(&o.bench_dir, workload, seed) {
        Some(golden) => {
            if golden != digest {
                eprintln!("benchmark: {workload}: digest {digest} != committed {golden}");
                correct = false;
            }
            "golden"
        }
        None => "invariants",
    };
    let column = |key: &str| -> Vec<f64> { rounds.iter().map(|r| num(r, key)).collect() };
    let sum = |key: &str| column(key).iter().sum::<f64>() as u64;
    let calibration = column("client.calibration_ns");
    let spread = |v: &[f64]| {
        let (lo, hi) = v
            .iter()
            .fold((f64::MAX, f64::MIN), |(lo, hi), x| (lo.min(*x), hi.max(*x)));
        (hi - lo) / lo
    };
    let names: &[(&'static str, &'static str)] = if o.trace { &PER_LAYER } else { &END_TO_END };
    let metrics = names
        .iter()
        .map(|&(name, unit)| (name, midmean(&column(name)), unit))
        .collect();
    let mut notes = vec![
        ("samples".to_string(), sum("samples") as f64),
        (
            "distinct_requests".to_string(),
            num(&rounds[0], "distinct_requests"),
        ),
        (
            "cases_checked".to_string(),
            num(&rounds[0], "cases_checked"),
        ),
        ("reparsed".to_string(), num(&rounds[0], "reparsed")),
        ("calibration_spread".to_string(), spread(&calibration)),
    ];
    if o.trace {
        let hit_share = num(&rounds[0], "replay.serve_hit_share");
        if hit_share.is_finite() {
            notes.push(("replay.serve_hit_share".to_string(), hit_share));
        }
    } else {
        notes.push(("client.calibration_ns".to_string(), median(&calibration)));
        notes.push((
            "client.window_rps_cv".to_string(),
            median(&column("client.window_rps_cv")),
        ));
    }
    Ok(RunResult {
        workload: workload.to_string(),
        seed,
        trace: o.trace,
        correct,
        verified,
        noisy: spread(&calibration) > NOISE_LIMIT,
        threads: num(&rounds[0], "threads") as u64,
        attempted: sum("attempted"),
        failed: sum("failed"),
        metrics,
        notes,
    })
}

/// The contract's result object: exactly `correct`, `attempted`, `failed`
/// and `metrics`.
fn contract_json(r: &RunResult) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\":{{\"value\":{value:?},\"unit\":\"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        r.correct,
        r.attempted,
        r.failed,
        metrics.join(",")
    )
}

fn print_result(r: &RunResult) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default();
    println!(
        "# {} seed={} trace={} verified={} noisy={} nproc={nproc} threads={} kernel={}",
        r.workload,
        r.seed,
        u8::from(r.trace),
        r.verified,
        r.noisy,
        r.threads,
        kernel.trim()
    );
    for (name, value, unit) in &r.metrics {
        println!("{} {name} {value:?} {unit}", r.workload);
    }
    println!(
        "{} failed_share {:?} ratio",
        r.workload,
        r.failed as f64 / r.attempted.max(1) as f64
    );
    for (name, value) in &r.notes {
        println!("{} {name} {value:?}", r.workload);
    }
    println!("{}", contract_json(r));
}

fn append_record(path: &Path, r: &RunResult) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    let contract = contract_json(r);
    writeln!(
        f,
        "{{\"workload\":{},\"seed\":{},\"trace\":{},\"verified\":{},\"noisy\":{},\"threads\":{},{}",
        json::quote(&r.workload),
        r.seed,
        u8::from(r.trace),
        json::quote(r.verified),
        r.noisy,
        r.threads,
        &contract[1..]
    )
    .map_err(|e| format!("{}: {e}", path.display()))
}

/// Runs × workloads × rounds, rounds interleaved across workloads
/// (A B C D A B C D …) so slow drift of the host lands on all of them.
fn run(o: &Options) -> Result<bool, String> {
    let (rounds, measure) = if o.trace {
        (1, Duration::from_secs_f64(o.seconds / 3.0))
    } else {
        (ROUNDS, Duration::from_secs_f64(o.seconds / ROUNDS as f64))
    };
    for run in 0..o.runs {
        let seed = o.seed + run;
        let mut per_workload: Vec<Vec<Json>> = vec![Vec::new(); o.workloads.len()];
        for round in 0..rounds {
            for (w, workload) in o.workloads.iter().enumerate() {
                per_workload[w].push(child_round(workload, seed, measure, o.trace, round == 0)?);
            }
        }
        for (workload, rounds) in o.workloads.iter().zip(per_workload) {
            let result = finish(o, workload, seed, rounds)?;
            print_result(&result);
            if let Some(path) = &o.out {
                append_record(path, &result)?;
            }
        }
    }
    // `correct` is part of the printed result; the exit code only says the
    // benchmark itself ran.
    Ok(true)
}

/// `--check`: a 1-round × 1-s pass over every workload in both modes that
/// asserts the emitted names are exactly `BENCHMARK.json`'s, well-formed,
/// carry units, and hold real numbers.
fn check(o: &Options) -> Result<bool, String> {
    let path = o.bench_dir.join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let manifest = Json::parse(&text)?;
    let listed = |key: &str| -> Vec<(String, String)> {
        manifest
            .get(key)
            .map_or(&[][..], Json::arr)
            .iter()
            .map(|m| {
                let field = |k| m.get(k).and_then(Json::str).unwrap_or("").to_string();
                (field("name"), field("unit"))
            })
            .collect()
    };
    let mut problems = Vec::new();
    let manifest_workloads: Vec<String> = listed("workloads").into_iter().map(|(n, _)| n).collect();
    if manifest_workloads != WORKLOADS {
        problems.push(format!(
            "workloads: BENCHMARK.json has {manifest_workloads:?}"
        ));
    }
    let measure = Duration::from_secs(1);
    for trace in [false, true] {
        let o = Options {
            trace,
            workloads: Vec::new(),
            out: None,
            bench_dir: o.bench_dir.clone(),
            ..*o
        };
        let key = if trace { "per_layer" } else { "end_to_end" };
        let want = listed(key);
        for workload in WORKLOADS {
            let round = child_round(workload, o.seed, measure, trace, true)?;
            let r = finish(&o, workload, o.seed, vec![round])?;
            let got: Vec<(String, String)> = r
                .metrics
                .iter()
                .map(|(n, _, u)| (n.to_string(), u.to_string()))
                .collect();
            if got != want {
                problems.push(format!(
                    "{workload} {key}: emitted names/units differ from BENCHMARK.json"
                ));
            }
            for (name, value, unit) in &r.metrics {
                let well_formed = !name.is_empty()
                    && name.len() <= 64
                    && name
                        .bytes()
                        .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b));
                if !well_formed || unit.is_empty() {
                    problems.push(format!("{workload} {name}: bad name or missing unit"));
                }
                if !value.is_finite() || (!trace && *value <= 0.0) {
                    problems.push(format!("{workload} {name}: value {value:?}"));
                }
            }
            let samples = r
                .notes
                .iter()
                .find(|(n, _)| n == "samples")
                .map_or(0.0, |(_, v)| *v);
            if samples < 1.0 || r.attempted == 0 {
                problems.push(format!("{workload}: no samples"));
            }
            if !r.correct || r.failed > 0 {
                problems.push(format!(
                    "{workload}: correct={} failed={}",
                    r.correct, r.failed
                ));
            }
            println!(
                "check {workload} trace={} names={} samples={samples} verified={}",
                u8::from(trace),
                got.len(),
                r.verified
            );
        }
    }
    for p in &problems {
        eprintln!("check: {p}");
    }
    println!(
        "check: {}",
        if problems.is_empty() { "ok" } else { "FAILED" }
    );
    Ok(problems.is_empty())
}
