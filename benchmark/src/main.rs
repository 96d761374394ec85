//! One seeded benchmark of the GHSOM serving stack, from record to
//! verdict and from retrain to serving.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
//!     --workload fleet_score_deep --seed 1 --seconds 20 --trace 0
//! cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- --self-test
//! ```
//!
//! Workloads (all closed loops driven from one generator thread):
//!
//! * `fleet_score_deep` — a `FleetClient` over two in-process daemons
//!   serving the deep fixture; 512-record score batches, one outstanding.
//! * `edge_observe_small` — one `DaemonClient` streaming 64-record observe
//!   batches, eight in flight, to a daemon serving the edge fixture.
//! * `deploy_retrain` — retrain, encode, replicate over GHSF, wait for the
//!   watcher swap, score verified batches on the new generation.
//!
//! Lines starting with `#` describe the run (host, traffic, fixture,
//! trace breakdown); the last line is the JSON result. With `--trace 0`
//! the metrics are the end-to-end ones, with `--trace 1` the per-layer
//! ones (see `benchmark/README.md`).

mod alloc;
mod deploy;
mod fixture;
mod serving;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

pub type Res<T> = Result<T, Box<dyn std::error::Error>>;

/// The workload seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;

/// Records in each seeded traffic pool of a normal run.
const POOL_RECORDS: usize = 196_608;

/// Records in each traffic pool of the self-test.
const SELF_TEST_POOL_RECORDS: usize = 16_384;

pub const WORKLOADS: [&str; 3] = ["fleet_score_deep", "edge_observe_small", "deploy_retrain"];

/// End-to-end metrics, printed with `--trace 0`: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 9] = [
    ("records_per_s", "rec/s"),
    ("batch_p50_ms", "ms"),
    ("batch_p99_ms", "ms"),
    ("deploy_p50_s", "s"),
    ("verified_batch_rate", "ratio"),
    ("detection_rate", "ratio"),
    ("false_alarm_rate", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, printed with `--trace 1`: `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 30] = [
    ("featurize.transform_batch.ns_per_rec", "ns"),
    ("featurize.fit.ms", "ms"),
    ("serve.walk.ns_per_rec", "ns"),
    ("detect.verdict_self.ns_per_rec", "ns"),
    ("detect.fold.ns_per_rec", "ns"),
    ("detect.fit.ms", "ms"),
    ("serve.engine.score.ns_per_rec", "ns"),
    ("serve.engine.self.ns_per_rec", "ns"),
    ("serve.engine.observe.ns_per_rec", "ns"),
    ("serve.engine.allocs_per_rec", "count"),
    ("core.train.s", "s"),
    ("core.maps", "count"),
    ("core.units", "count"),
    ("core.depth", "count"),
    ("serve.snapshot.encode.ms", "ms"),
    ("serve.snapshot.decode.ms", "ms"),
    ("serve.snapshot.bytes", "bytes"),
    ("comms.replicate.ms", "ms"),
    ("comms.replicate.mib_per_s", "MiB/s"),
    ("serve.watch.swap_visible.ms", "ms"),
    ("daemon.protocol.encode.ns_per_rec", "ns"),
    ("daemon.protocol.decode.ns_per_rec", "ns"),
    ("daemon.roundtrip_overhead.us_per_batch", "us"),
    ("daemon.queue_wait.ms", "ms"),
    ("daemon.queue_high_water", "count"),
    ("daemon.overload_batches", "count"),
    ("daemon.allocs_per_rec", "count"),
    ("daemon.fleet.router_overhead.pct", "%"),
    ("daemon.fleet.concurrent_ceiling.rec_per_s", "rec/s"),
    ("trace.overhead.pct", "%"),
];

/// One run's parameters.
pub struct Run {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub pool_records: usize,
    /// Self-test only: check verdicts against an engine trained on
    /// another seed, which must fail every batch.
    pub wrong_reference: bool,
    /// Scratch directory for spools (removed when the run ends).
    pub dir: PathBuf,
}

/// What a workload hands back: batch counts, extra correctness checks,
/// and the metrics of the run's mode.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Failed checks outside the timed batches (setup probes, warmup,
    /// fixture shape, bundle equivalence).
    pub problems: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Per-layer self times of the trace breakdown, `(layer, ns per batch)`.
    pub self_times: Vec<(&'static str, f64)>,
    /// The end-to-end batch time the self times should add up to (ns).
    pub batch_ns: f64,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn problem(&mut self, what: impl Into<String>) {
        self.problems.push(what.into());
    }

    /// `failed / attempted` of the timed batches.
    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

fn host_facts() {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| {
            l.strip_prefix("model name")
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    println!(
        "# host: nproc {nproc}, cpu {cpu}, {}",
        env!("BENCH_RUSTC_VERSION")
    );
}

/// Runs one workload in its own scratch directory.
pub fn run_workload(workload: &str, run: &Run) -> Res<Outcome> {
    std::fs::create_dir_all(&run.dir)?;
    let outcome = match workload {
        "fleet_score_deep" => serving::fleet_score_deep(run),
        "edge_observe_small" => serving::edge_observe_small(run),
        "deploy_retrain" => deploy::deploy_retrain(run),
        other => Err(format!("unknown workload '{other}'").into()),
    };
    let _ = std::fs::remove_dir_all(&run.dir);
    let mut outcome = outcome?;
    if !run.trace {
        outcome.set("verified_batch_rate", 1.0 - outcome.error_rate());
        outcome.set("peak_rss_mib", peak_rss_mib());
    }
    Ok(outcome)
}

/// Prints the trace breakdown: each layer's self time, their sum against
/// the end-to-end batch time, and the largest layer.
fn print_breakdown(workload: &str, outcome: &Outcome) {
    if outcome.self_times.is_empty() {
        return;
    }
    let total: f64 = outcome.self_times.iter().map(|(_, ns)| ns).sum();
    for (layer, ns) in &outcome.self_times {
        println!("# self time {workload}: {layer:<34} {:>10.1} us", ns / 1e3);
    }
    if let Some((layer, ns)) = outcome.self_times.iter().max_by(|a, b| a.1.total_cmp(&b.1)) {
        println!(
            "# self time {workload}: sum {:.1} us = {:.1}% of the end-to-end time {:.1} us; largest layer {layer} ({:.1} us)",
            total / 1e3,
            100.0 * total / outcome.batch_ns,
            outcome.batch_ns / 1e3,
            ns / 1e3
        );
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_json(outcome: &Outcome, catalog: &[(&str, &str)]) -> (String, bool) {
    let mut correct = outcome.failed == 0 && outcome.problems.is_empty();
    let mut parts = Vec::with_capacity(catalog.len());
    for (name, unit) in catalog {
        let value = outcome.metrics.get(name).copied().unwrap_or(f64::NAN);
        let value = if value.is_finite() {
            value
        } else {
            correct = false;
            println!("# missing or non-finite metric {name}");
            -1.0
        };
        parts.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    let json = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        parts.join(", ")
    );
    (json, correct)
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    self_test: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 20.0,
        trace: false,
        self_test: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !args.seconds.is_finite() || args.seconds <= 0.0 {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            "--self-test" => args.self_test = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if !args.self_test && args.workload.is_none() {
        return Err(format!(
            "--workload is required (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

fn scratch_dir(tag: &str, seed: u64) -> PathBuf {
    PathBuf::from("bench-out").join(format!("{tag}-seed{seed}-{}", std::process::id()))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if args.self_test {
        return if self_test() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    let workload = args.workload.unwrap_or_default();
    host_facts();
    let run = Run {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        pool_records: POOL_RECORDS,
        wrong_reference: false,
        dir: scratch_dir(&workload, args.seed),
    };
    let outcome = match run_workload(&workload, &run) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("error: {workload}: {e}");
            return ExitCode::FAILURE;
        }
    };
    for p in &outcome.problems {
        println!("# problem: {p}");
    }
    println!(
        "# {workload}: {} batches attempted, {} failed, error_rate {}",
        outcome.attempted,
        outcome.failed,
        outcome.error_rate()
    );
    print_breakdown(&workload, &outcome);
    let catalog: &[(&str, &str)] = if run.trace { &PER_LAYER } else { &END_TO_END };
    let (json, _) = result_json(&outcome, catalog);
    println!("{json}");
    ExitCode::SUCCESS
}

/// `(name, unit)` pairs listed under `section` in `BENCHMARK.json`.
fn declared_metrics(section: &str) -> Vec<(String, String)> {
    const SPEC: &str = include_str!("../../BENCHMARK.json");
    let Some(start) = SPEC.find(&format!("\"{section}\"")) else {
        return Vec::new();
    };
    let body = &SPEC[start..];
    let body = &body[..body.find(']').unwrap_or(body.len())];
    let field = |entry: &str, key: &str| -> Option<String> {
        let at = entry.find(&format!("\"{key}\""))?;
        let rest = &entry[at + key.len() + 2..];
        let open = rest.find('"')? + 1;
        let close = open + rest[open..].find('"')?;
        Some(rest[open..close].to_string())
    };
    body.split('{')
        .skip(1)
        .filter_map(|entry| Some((field(entry, "name")?, field(entry, "unit")?)))
        .collect()
}

/// Runs every workload briefly in both modes and checks the contract:
/// every declared metric printed with its unit and finite, no failed
/// batch, trace self times adding up on the serving workloads — and a
/// reference engine trained on another seed failing every batch.
fn self_test() -> bool {
    let mut ok = true;
    let mut check = |cond: bool, what: String| {
        println!("# self-test {}: {what}", if cond { "ok  " } else { "FAIL" });
        ok &= cond;
    };
    for (section, catalog) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        let declared = declared_metrics(section);
        let ours: Vec<(String, String)> = catalog
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        check(
            declared == ours,
            format!(
                "BENCHMARK.json {section} lists the {} metrics the binary prints, with their units",
                ours.len()
            ),
        );
    }
    for workload in WORKLOADS {
        for trace in [false, true] {
            let run = Run {
                seed: 7,
                seconds: 2.0,
                trace,
                pool_records: SELF_TEST_POOL_RECORDS,
                wrong_reference: false,
                dir: scratch_dir(&format!("selftest-{workload}"), 7),
            };
            match run_workload(workload, &run) {
                Ok(outcome) => {
                    let catalog: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
                    let (json, correct) = result_json(&outcome, catalog);
                    let printed = catalog.iter().all(|(n, u)| {
                        json.contains(&format!("\"{n}\": {{\"value\": "))
                            && json.contains(&format!("\"unit\": \"{u}\""))
                    });
                    check(
                        correct && printed,
                        format!("{workload} trace={} prints every metric with its unit, {} batches, error_rate {}", u8::from(trace), outcome.attempted, outcome.error_rate()),
                    );
                    for p in &outcome.problems {
                        println!("# self-test problem: {p}");
                    }
                    if trace && workload != "deploy_retrain" {
                        let sum: f64 = outcome.self_times.iter().map(|(_, ns)| ns).sum();
                        let ratio = sum / outcome.batch_ns;
                        check(
                            (0.9..=1.1).contains(&ratio),
                            format!("{workload} per-layer self times add up to {:.1}% of the batch time", 100.0 * ratio),
                        );
                    }
                }
                Err(e) => check(
                    false,
                    format!("{workload} trace={} ran: {e}", u8::from(trace)),
                ),
            }
        }
        let run = Run {
            seed: 7,
            seconds: 1.0,
            trace: false,
            pool_records: SELF_TEST_POOL_RECORDS,
            wrong_reference: true,
            dir: scratch_dir(&format!("selftest-wrong-{workload}"), 7),
        };
        match run_workload(workload, &run) {
            Ok(outcome) => check(
                outcome.attempted > 0 && outcome.failed == outcome.attempted,
                format!(
                    "{workload} against a reference trained on another seed: error_rate {}",
                    outcome.error_rate()
                ),
            ),
            Err(e) => check(false, format!("{workload} with a wrong reference ran: {e}")),
        }
    }
    println!("# self-test {}", if ok { "passed" } else { "FAILED" });
    ok
}
